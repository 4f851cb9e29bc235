"""The verify case set, pinned: per suite and grid, the number of cases and
a digest of the sorted case list, and the grouping by q that the pool's
chunking and the per-q convolution memo rely on."""

import hashlib
import pickle

import pytest

from frobpush import verify

# Each grid with, per suite, its number of cases and the digest of its
# sorted case reprs.
PINNED = [
    ({}, {"identities": (320, "4a8e1e7a94d86da8"), "oracles": (464, "718ca289a17b445c"),
          "fixtures": (160, "b96fabff8e7ea314")}),
    (dict(max_d=3, max_e=4, primes=(2, 3, 5, 7)),
     {"identities": (840, "70e5a0782dcbff0e"), "oracles": (1243, "a44dc9e0cb71ae05"),
      "fixtures": (424, "cd38670dea29cbec")}),
    # Past the min(max_d, 3) caps and the mult-oracle cap q^(d+1) <= 2^20.
    (dict(max_d=5, max_e=1, primes=(11, 13)),
     {"identities": (142, "a8708a50d1cd3b5a"), "oracles": (174, "699b6c2f4028d3a0"),
      "fixtures": (54, "16babc876cb6c1a8")}),
    (dict(max_d=1, max_e=1, primes=(3,)),
     {"identities": (33, "6d49fadb8be8dabe"), "oracles": (71, "65e1d87522e21372"),
      "fixtures": (28, "99d61641a4f264aa")}),
]
GRIDS = [grid for grid, _ in PINNED]

# Kinds that run the same cases on every grid, whatever its primes.
GRID_FREE = {"eulerian-sum", "warn-quadric-p2"}


def digest(cases) -> str:
    return hashlib.sha256("\n".join(sorted(map(repr, cases))).encode()).hexdigest()[:16]


@pytest.mark.parametrize("grid, pinned", PINNED)
@pytest.mark.parametrize("suite", verify.SUITES)
def test_case_set_is_pinned(suite, grid, pinned):
    cases = verify.build_cases(suite, **grid)
    assert len(set(cases)) == len(cases)
    assert (len(cases), digest(cases)) == pinned[suite]


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("suite", verify.SUITES)
def test_cases_are_grouped_by_q(suite, grid):
    qs = [args[0] ** args[1] for name, args in verify.build_cases(suite, **grid)
          if name not in GRID_FREE]
    runs = [q for i, q in enumerate(qs) if i == 0 or q != qs[i - 1]]
    assert len(runs) == len(set(runs))


def test_unknown_suite_is_refused():
    with pytest.raises(ValueError, match="unknown suite 'all'"):
        verify.build_cases("all")


def test_check_result_keeps_its_time_through_pickling():
    # Pool workers send results back pickled; ``==`` ignores the time.
    result = verify.CheckResult("volume(2,1,1,1)", "PASS", "deficit 1", 9.0)
    assert pickle.loads(pickle.dumps(result)).seconds == 9.0
    assert result != verify.CheckResult("volume(2,1,1,1)", "FAIL", "deficit 1", 9.0)

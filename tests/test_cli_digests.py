"""Every CLI call of the benchmark's interactive pool prints the bytes whose
digests ``bench/expected.json`` records.

The pool holds every call the benchmark's ``interactive`` workload can draw:
decompose, kernel and local over all strata, rungs and formats.  Each call
is checked by the benchmark's own check: its output digest, its rank and,
for JSON, the decomposition read back through ``decomposition_from_json``.
The benchmark modules are imported, never edited.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_interactive_pool_matches_recorded_digests(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    expected = workloads.load_expected()["interactive"]
    cases = [case for stratum in workloads.interactive_pool(tiny=False) for case in stratum]
    assert len(cases) == 1316
    dots: dict = {}
    problems = [
        f"{' '.join(case.argv)}: {problem}"
        for case in cases
        for problem in workloads._check_cli(case, workloads._cli_call(case), expected, dots)
    ]
    assert not problems, problems[:10]

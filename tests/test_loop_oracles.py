"""Differential tests: every builder that sums over the q residues by pieces
against ``verify.thomsen_loop``, Thomsen's count over the Cox degrees, which
sums slices of convolution tables, and that count against the literal j-by-j
loop of each family, at q <= 32, with exact equality; and the oracles'
independence from the closed form the builders use."""

import ast
import inspect
import itertools
from collections import Counter
from operator import mul
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from frobpush import catalog, combinat, localalg, verify
from frobpush.catalog import (
    pushforward_hirzebruch,
    pushforward_linear_blowup,
    pushforward_product,
    pushforward_projective_space,
    pushforward_segre_cone,
    pushforward_veronese_cone,
)
from frobpush.combinat import (
    PrimePower,
    bounded_power_coefficients,
    composition_count,
    composition_row,
    composition_sums,
    composition_table,
)
from frobpush.errors import InvalidParameterError
from frobpush.families import FAMILIES
from frobpush.localalg import cone_pushforward, splitting_number
from frobpush.picard import (
    Decomposition,
    Hirzebruch,
    LinearBlowup,
    PicClass,
    Product,
    ProjSpace,
    RationalNormalCone,
    SegreCone,
    SegreConeBlowup,
    VeroneseCone,
    VeroneseConeBlowup,
)
from frobpush.verify import cox_degrees, determinant_twist_sum, thomsen_loop
from test_restriction import enumerated_chart_counts

FIELDS = [
    PrimePower(p, e)
    for p, e in ((2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3),
                 (5, 1), (5, 2), (7, 1), (11, 1), (13, 1), (29, 1), (31, 1))
]
fields = st.sampled_from(FIELDS)
TINY_ORACLES = verify.build_cases("oracles", max_d=3, max_e=1, primes=(2, 3))


def as_map(decomp):
    return {s.cls.coords: m for s, m in decomp.items()}


def residue(data, fp):
    return data.draw(st.integers(0, fp.q - 1))


def twist(data, fp):
    return data.draw(st.integers(-3 * fp.q, 3 * fp.q) | st.integers(-10**12, 10**12))


# ---------------------------------------------------------------------------
# The loops over j that the Thomsen count sums by slices, one term at a time.
# Each count(parts, n) is a coefficient of (1 + t + ... + t^{q-1})^parts.
# ---------------------------------------------------------------------------


def counter(q):
    tables = {}

    def count(parts, n):
        if parts not in tables:
            tables[parts] = bounded_power_coefficients(q, parts)
        table = tables[parts]
        return table[n] if 0 <= n < len(table) else 0

    return count


def nonzero(counts):
    return {coords: mult for coords, mult in counts.items() if mult}


def hirzebruch_j_loop(eps, u, v, fp):
    q = fp.q
    k, m = divmod(u, q)
    counts = Counter()
    for j in range(q):
        c0 = k if j <= m else k - 1
        fl, res = divmod(v - j * eps, q)
        counts[(c0, fl)] += res + 1
        counts[(c0, fl - 1)] += q - 1 - res
    return nonzero(counts)


def segre_cone_j_loop(r, s, n, n1, n2, fp):
    q, count = fp.q, counter(fp.q)
    counts = Counter()
    for j in range(q):
        h = 0 if j <= n else -1
        f1, m1 = divmod(j + n1, q)
        f2, m2 = divmod(j + n2, q)
        for k in range(r + 1):
            for l in range(s + 1):
                counts[(h, f1 - k, f2 - l)] += count(r + 1, m1 + k * q) * count(s + 1, m2 + l * q)
    return nonzero(counts)


def blowup_j_loop(d, r, fp):
    q, count = fp.q, counter(fp.q)
    counts = Counter()
    for i in range(r + 1):
        for k in range(d - r + 1):
            counts[(-i, -k)] += count(d - r + 1, k * q) * count(r, i * q)
            if i:
                for j in range(1, q):
                    counts[(-i, -k)] += count(d - r + 1, k * q + j) * count(r, (i - 1) * q + q - j)
    return nonzero(counts)


def veronese_j_loop(d, eps, n, nprime, fp):
    q, count = fp.q, counter(fp.q)
    counts = Counter()
    for j in range(0, n + 1):
        fl, m = divmod(eps * j + nprime, q)
        for l in range(d + 1):
            counts[(0, fl - l)] += count(d + 1, m + l * q)
    for j in range(1, q - n):
        fl, m = divmod(-eps * j + nprime, q)
        for l in range(d + 1):
            counts[(-1, fl - l + eps)] += count(d + 1, m + l * q)
    return nonzero(counts)


def segre_shifted_t_loop(r, s, fp):
    q, count = fp.q, counter(fp.q)
    return {
        (i,): sum(count(r + 1, t) * count(s + 1, t + i * q) for t in range((r + 2) * q))
        for i in range(-r, s + 1)
    }


# ---------------------------------------------------------------------------
# Thomsen's count in Cox coordinates (J. F. Thomsen, J. Algebra 226, 2000;
# P. Achinger, IMRN 2015): on a smooth projective toric variety whose Cox
# variables have degrees deg_1..deg_N, F^e_* O(D) is the sum, over the rho in
# [0, q-1]^N with D - sum rho_i deg_i in q Pic, of O((D - sum rho_i deg_i)/q).
# ---------------------------------------------------------------------------


def cox_variables(variety):
    """The degree of every Cox variable of a split ``variety``, one per
    variable, expanded from the groups of ``verify.cox_degrees``."""
    fiber, sizes = cox_degrees(variety)
    units = [tuple(int(i == j) for i in range(len(sizes) + 1)) for j in range(1, len(sizes) + 1)]
    return [(1, *(-x for x in b)) for n, b in fiber for _ in range(n)] + [
        unit for n, unit in zip(sizes, units) for _ in range(n)
    ]


def box_sums(degrees, q):
    """sum_i rho_i deg_i for every rho in [0, q-1]^N, by value."""
    columns = list(zip(*degrees))
    return Counter(
        tuple(sum(map(mul, rho, column)) for column in columns)
        for rho in itertools.product(range(q), repeat=len(degrees))
    )


def literal_count(sums, bundle, q):
    """Thomsen's count at D = ``bundle`` from the box sums."""
    return {
        tuple((d - x) // q for d, x in zip(bundle, sum_)): mult
        for sum_, mult in sums.items()
        if all((d - x) % q == 0 for d, x in zip(bundle, sum_))
    }


def test_veronese_cone_matches_thomsen_count_at_every_residue_pair():
    # 648 residue pairs at q <= 5, d <= 2 and eps <= 6; 268 of them have
    # eps - n' > q or eps - n' < 1.
    pairs = outside = 0
    for fp in (PrimePower(2, 1), PrimePower(3, 1), PrimePower(2, 2), PrimePower(5, 1)):
        q = fp.q
        for d in (1, 2):
            for eps in range(1, 7):
                degrees = cox_variables(VeroneseConeBlowup(d, eps))
                assert len(degrees) == d + 3
                sums = box_sums(degrees, q)
                for n, nprime in itertools.product(range(q), repeat=2):
                    want = literal_count(sums, (n, nprime), q)
                    got = as_map(pushforward_veronese_cone(d, eps, n, nprime, fp))
                    assert got == want, (q, d, eps, n, nprime)
                    pairs += 1
                    outside += not q >= eps - nprime >= 1
    assert (pairs, outside) == (648, 268)


@given(fields, st.integers(1, 3), st.integers(1, 6), st.data())
def test_veronese_oracle_matches_j_loop(fp, d, eps, data):
    # Any residue pair, the out-of-regime ones too.
    n, nprime = residue(data, fp), residue(data, fp)
    want = veronese_j_loop(d, eps, n, nprime, fp)
    assert thomsen_loop(VeroneseConeBlowup(d, eps), (n, nprime), fp) == want


@pytest.mark.parametrize("fp", [fp for fp in FIELDS if fp.q <= 9], ids=repr)
def test_veronese_oracle_matches_j_loop_at_every_pair(fp):
    for d in (1, 2, 3):
        for eps in range(1, 7):
            for n in range(fp.q):
                for nprime in range(fp.q):
                    want = veronese_j_loop(d, eps, n, nprime, fp)
                    got = thomsen_loop(VeroneseConeBlowup(d, eps), (n, nprime), fp)
                    assert got == want, (d, eps, n, nprime)


@given(fields, st.integers(0, 6), st.data())
def test_hirzebruch_oracle_matches_j_loop(fp, eps, data):
    u, v = twist(data, fp), twist(data, fp)
    assert thomsen_loop(Hirzebruch(eps), (u, v), fp) == hirzebruch_j_loop(eps, u, v, fp)


@given(fields, st.integers(1, 3), st.integers(1, 3), st.data())
def test_segre_cone_oracle_matches_j_loop(fp, r, s, data):
    n, n1, n2 = residue(data, fp), residue(data, fp), residue(data, fp)
    want = segre_cone_j_loop(r, s, n, n1, n2, fp)
    assert thomsen_loop(SegreConeBlowup(r, s), (n, n1, n2), fp) == want


@given(fields, st.integers(2, 5), st.data())
def test_blowup_oracle_matches_j_loop(fp, d, data):
    r = data.draw(st.integers(1, d - 1))
    assert thomsen_loop(LinearBlowup(d, r), (0, 0), fp) == blowup_j_loop(d, r, fp)


@given(fields, st.integers(1, 3), st.integers(1, 3))
def test_segre_shifted_sums_match_t_loop(fp, r, s):
    assert verify.segre_shifted_sums(r, s, fp) == segre_shifted_t_loop(r, s, fp)


@given(fields, st.integers(0, 6), st.data())
def test_hirzebruch_matches_loop(fp, eps, data):
    u, v = twist(data, fp), twist(data, fp)
    got = as_map(pushforward_hirzebruch(eps, u, v, fp))
    assert got == thomsen_loop(Hirzebruch(eps), (u, v), fp)


@given(fields, st.integers(1, 3), st.integers(1, 3), st.data())
def test_segre_cone_matches_loop(fp, r, s, data):
    n, n1, n2 = twist(data, fp), twist(data, fp), twist(data, fp)
    got = as_map(pushforward_segre_cone(r, s, n, n1, n2, fp))
    assert got == thomsen_loop(SegreConeBlowup(r, s), (n, n1, n2), fp)


@given(fields, st.integers(2, 5), st.data())
def test_linear_blowup_matches_loop(fp, d, data):
    r = data.draw(st.integers(1, d - 1))
    assert as_map(pushforward_linear_blowup(d, r, fp)) == thomsen_loop(LinearBlowup(d, r), (0, 0), fp)


@given(fields, st.integers(1, 3), st.integers(1, 3), st.data())
def test_projective_spaces_match_loop(fp, r, s, data):
    # E has one twist, so the first fiber group's total is fixed per class.
    twist = st.integers(-3 * fp.q, 3 * fp.q)
    a, b = data.draw(twist), data.draw(twist)
    assert as_map(pushforward_projective_space(r, a, fp)) == thomsen_loop(ProjSpace(r), (a,), fp)
    assert as_map(pushforward_product(r, s, a, b, fp)) == thomsen_loop(Product(r, s), (a, b), fp)


def declared(base, twists):
    """A split variety by its declaration alone: P(E) over ``base``."""
    return SimpleNamespace(bundle=lambda: (base, twists))


@pytest.mark.parametrize("fp", [PrimePower(2, 1), PrimePower(3, 1)], ids=repr)
def test_count_over_a_product_of_three_factors(fp):
    # P(O + O(-1, -2)) over Hirzebruch(0) = P^1 x P^1, whose Cox degrees are
    # the unit vectors: no family has three coordinates, so the brute count
    # over [0, q-1]^6 checks that path.  P(O + O(0, -1)) has equal twists in
    # the first base coordinate, whose total then stays put as S moves, a
    # column that no family reads either.
    for twists in (((0, 0), (-1, -2)), ((0, 0), (0, -1))):
        q, variety = fp.q, declared(Hirzebruch(0), twists)
        sums = box_sums(cox_variables(variety), q)
        for bundle in itertools.product(range(-1, q + 1), repeat=3):
            want = literal_count(sums, bundle, q)
            got = thomsen_loop(variety, bundle, fp)
            assert got == want and list(got) == sorted(got), (twists, bundle)


def split_varieties(most):
    """The six split families, at random parameters with at most ``most``
    Cox variables, keyed by tag."""
    def pairs(cls, top):  # cls(r, s) with r, s >= 1 and r + s <= top
        return st.integers(1, top - 1).flatmap(lambda r: st.builds(cls, st.just(r), st.integers(1, top - r)))

    return {
        "projspace": st.builds(ProjSpace, st.integers(1, most - 1)),
        "product": pairs(Product, most - 2),
        "hirzebruch": st.builds(Hirzebruch, st.integers(0, 6)),
        "blowup-linear": pairs(lambda r, s: LinearBlowup(r + s, r), most - 2),
        "veronese-cone": st.builds(VeroneseConeBlowup, st.integers(1, most - 3), st.integers(1, 6)),
        "segre-cone": pairs(SegreConeBlowup, most - 4),
    }


@given(st.sampled_from([PrimePower(2, 1), PrimePower(3, 1), PrimePower(2, 2), PrimePower(5, 1)]), st.data())
def test_count_matches_a_literal_count(fp, data):
    # Every split family, at random parameters and bundles in [-q, 2q],
    # against the literal count over [0, q-1]^N.
    q = fp.q
    strategies = split_varieties(max(n for n in range(20) if q**n <= 20_000))
    assert set(strategies) == {tag for tag, cls in FAMILIES.items() if cls.split}
    variety = data.draw(st.sampled_from(sorted(strategies)).flatmap(strategies.get))
    degrees = cox_variables(variety)
    assert q ** len(degrees) <= 20_000
    sums = box_sums(degrees, q)
    twist = st.integers(-q, 2 * q)
    for bundle in data.draw(st.lists(st.tuples(*[twist] * len(degrees[0])), min_size=1, max_size=4)):
        got = thomsen_loop(variety, bundle, fp)
        assert got == literal_count(sums, bundle, q) and list(got) == sorted(got), (variety, bundle)


def test_count_refuses_what_it_cannot_group():
    fp = PrimePower(3, 1)
    # Hirzebruch(1)'s Cox degrees are no unit vectors.
    with pytest.raises(InvalidParameterError, match="product of projective spaces"):
        thomsen_loop(declared(Hirzebruch(1), ((0, 0), (0, 0))), (0, 0, 0), fp)
    with pytest.raises(InvalidParameterError, match="at most two twists"):
        thomsen_loop(declared(ProjSpace(1), ((0,), (1,), (2,))), (0, 0), fp)


def test_count_refuses_a_bundle_of_the_wrong_length():
    # Hirzebruch(1) has two coordinates; the count reads one group per base
    # coordinate, so a third coordinate has no group to count it.
    with pytest.raises(InvalidParameterError, match="product of projective spaces"):
        thomsen_loop(Hirzebruch(1), (0, 0, 0), PrimePower(3, 1))


@given(fields, st.integers(1, 3), st.integers(1, 6), st.data())
def test_veronese_cone_matches_loop(fp, d, eps, data):
    n, nprime = twist(data, fp), twist(data, fp)
    got = as_map(pushforward_veronese_cone(d, eps, n, nprime, fp))
    assert got == thomsen_loop(VeroneseConeBlowup(d, eps), (n, nprime), fp)


@given(fields, st.integers(1, 3), st.integers(1, 3))
def test_segre_local_matches_loop(fp, r, s):
    def loop(k, l):
        return sum(
            composition_count(k, j, r, fp) * composition_count(l, j, s, fp) for j in range(fp.q)
        )

    expected = {}
    for i in range(-r, s + 1):
        mult = sum(loop(k, k + i) for k in range(r + 1) if 0 <= k + i <= s)
        if mult:
            expected[(i,)] = mult
    assert as_map(cone_pushforward(SegreCone(r, s), fp)) == expected
    assert splitting_number(SegreCone(r, s), fp) == expected[(0,)]


@given(fields, st.integers(1, 3), st.integers(1, 4))
def test_veronese_splitting_matches_loop(fp, d, eps):
    if fp.q < eps:
        if d == 1:
            assert splitting_number(VeroneseCone(1, eps), fp) == splitting_number(
                RationalNormalCone(eps), fp
            )
        else:
            # Below the blowup's regime: the points of the box [0, q-1]^(d+1)
            # of degree 0 modulo eps.
            box = sum(
                1 for u in itertools.product(range(fp.q), repeat=d + 1) if sum(u) % eps == 0
            )
            assert splitting_number(VeroneseCone(d, eps), fp) == box
        return
    classes = thomsen_loop(VeroneseConeBlowup(d, eps), (0, 0), fp)
    expected = sum(mult for (_, b), mult in classes.items() if b % eps == 0)
    assert splitting_number(VeroneseCone(d, eps), fp) == expected


@given(fields, st.integers(1, 4))
def test_determinant_twist_sum_matches_loop(fp, d):
    # The sum of the determinant classes, added coordinate-wise here.
    total = sum(pushforward_projective_space(d, n, fp).det().coords[0] for n in range(fp.q))
    assert determinant_twist_sum(d, fp) == PicClass((total,), ("H",))


class TestLoopOracleSuite:
    def test_loop_cases_run_and_pass(self):
        cases = verify.build_cases("oracles", max_d=3, max_e=1, primes=(2, 3))
        names = {name for name, _ in cases}
        assert {"hz-loop", "segre-loop", "blowup-loop"} <= names
        for case in cases:
            if case[0] in ("hz-loop", "segre-loop", "blowup-loop"):
                result = verify.run_case(case)
                assert result.status == "PASS", result
                assert "classes" in result.detail

    def test_general_twists_skipped_above_cap(self):
        assert 7**3 <= verify.LOOP_Q_CAP < 5**4

        def run(*case):
            result = verify.run_case(case)
            return result.status, result.detail

        status, detail = run("hz-loop", (7, 3, 1, -1, 7**3 + 2))
        assert status == "PASS" and "classes" in detail
        status, detail = run("hz-loop", (7, 4, 1, -1, 7**4 + 2))
        assert (status, detail) == ("PASS", f"skipped (q > {verify.LOOP_Q_CAP})")
        status, detail = run("segre-loop", (5, 4, 1, 1, 1, 0, 624))
        assert (status, detail) == ("PASS", f"skipped (q > {verify.LOOP_Q_CAP})")
        status, detail = run("hz-loop", (5, 4, 2, 0, 0))
        assert status == "PASS" and "classes" in detail


def shifted(decomp, shift):
    """``decomp`` with ``shift``, {class: change}, added to its multiplicities."""
    counts = Counter(decomp.lines)
    counts.update(shift)
    return Decomposition(decomp.variety, counts.items())


# Faults and the cases they fail at (d, r) = (2, 1).  A bump adds one O to the
# builder's output; a move turns one O into O(-H), which keeps the rank and
# the restriction to E; a restrict fault turns one O_E into O_E(-1).
CHART_FAULTS = {
    "bump": ("pushforward_linear_blowup", {(0, 0): 1}, {"blowup-loop", "blowup-restrict"}),
    "move": ("pushforward_linear_blowup", {(0, 0): -1, (-1, 0): 1}, {"blowup-loop"}),
    "restrict": ("restrict", {(0,): -1, (-1,): 1}, {"blowup-restrict"}),
}


@pytest.mark.parametrize("fault", sorted(CHART_FAULTS))
def test_blowup_cases_catch_every_chart_fault(monkeypatch, fault):
    # The point blowup of the plane restricted to E against the chart count
    # (q(q+1)/2, q(q-1)/2), the check of the retired chart-oracle case: each
    # fault fails blowup-loop or blowup-restrict at every q, and the chart
    # count misses the move, which keeps the restriction.
    powers = [PrimePower(p, e) for p, e in
              ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (5, 4))]

    def failing(fp):
        return {kind for kind in ("blowup-loop", "blowup-restrict")
                if verify.run_case((kind, (fp.p, fp.e, 2, 1))).status == "FAIL"}

    assert not any(map(failing, powers))
    name, shift, want = CHART_FAULTS[fault]
    module = verify if name == "restrict" else catalog
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: shifted(original(*args), shift))
    for fp in powers:
        assert failing(fp) == want, fp
        restricted = verify.restrict(catalog.pushforward_linear_blowup(2, 1, fp))
        pair = (restricted.multiplicity((0,)), restricted.multiplicity((-1,)))
        assert (pair != enumerated_chart_counts(fp.q)) == (fault != "move"), (fp, pair)


# Faults in the F_1 builder's output at O: one more copy of its least class,
# and one copy of that class moved down one fiber class.
HZ_FAULTS = {"extra": lambda least: {least: 1},
             "move": lambda least: {least: -1, (least[0], least[1] - 1): 1}}


@pytest.mark.parametrize("fault", sorted(HZ_FAULTS))
def test_hz_general_catches_a_fault_at_the_structure_sheaf(monkeypatch, fault):
    # fix-hz-general at (u, v) = (0, 0) compares the whole decomposition of
    # F_1 at O, the two classes the retired fix-hirzebruch-eps1 fixture
    # checked among them.
    powers = [PrimePower(p, e) for p, e in ((2, 1), (3, 1), (2, 2), (3, 2), (5, 4))]

    def status(fp):
        return verify.run_case(("fix-hz-general", (fp.p, fp.e, 0, 0))).status

    assert {status(fp) for fp in powers} == {"PASS"}
    original = catalog.pushforward_hirzebruch

    def faulty(eps, u, v, fp):
        decomp = original(eps, u, v, fp)
        return shifted(decomp, HZ_FAULTS[fault](min(decomp.lines)))

    monkeypatch.setattr(catalog, "pushforward_hirzebruch", faulty)
    for fp in powers:
        assert status(fp) == "FAIL", fp


@pytest.mark.parametrize("fault", sorted(HZ_FAULTS))
def test_sigma_closed_catches_a_fault_at_eps_2_and_3(monkeypatch, fault):
    # sigma-closed at eps = 2 and 3 compares the builder's blocks with the
    # residue closed form at every q, q < eps included, as the retired
    # fix-hirzebruch-eps2 and fix-hirzebruch-eps3 tables did.
    powers = [PrimePower(p, e) for p, e in
              ((2, 1), (3, 1), (2, 2), (3, 2), (5, 4), (2, 64), (3, 40))]

    def statuses(fp):
        return {verify.run_case(("sigma-closed", (fp.p, fp.e, eps))).status for eps in (2, 3)}

    assert all(statuses(fp) == {"PASS"} for fp in powers)
    original = catalog.pushforward_hirzebruch

    def faulty(eps, u, v, fp):
        decomp = original(eps, u, v, fp)
        return shifted(decomp, HZ_FAULTS[fault](min(decomp.lines)))

    monkeypatch.setattr(catalog, "pushforward_hirzebruch", faulty)
    for fp in powers:
        assert statuses(fp) == {"FAIL"}, fp


@given(fields, st.integers(0, 3))
def test_count_table_matches_closed_form(fp, d):
    table = verify._coefficients(fp.q, d + 1)
    for i in range(-1, d + 3):
        for m in range(fp.q):
            n = m + i * fp.q
            count = table[n] if 0 <= n < len(table) else 0
            assert count == composition_count(i, m, d, fp)


def off_by_one_at_zero(i, m, d, fp):
    return composition_count(i, m, d, fp) + (i == 0 and m == 0)


def row_off_by_one_at_zero(m, d, fp):
    """``off_by_one_at_zero`` on the row route."""
    row = composition_row(m, d, fp)
    row[0] += m == 0
    return row


def row_off_by_one_at_top(m, d, fp):
    """A row fault alone: one more at (i=d, m=q-1), a count that is 0 for
    d >= 1 and that P^d reads at every twist of residue q-1."""
    row = composition_row(m, d, fp)
    row[d] += m == fp.q - 1
    return row


def table_off_by_one_at_zero(ms, d, fp):
    """``off_by_one_at_zero`` on the table route."""
    rows = composition_table(ms, d, fp)
    if 0 in ms:
        rows[0][ms.index(0)] += 1
    return rows


def table_off_by_one_at_top(ms, d, fp):
    """A table fault alone: one more at (i=d, m=q-1), a count that is 0 for
    d >= 1 and that the linear blowup's builder reads."""
    rows = composition_table(ms, d, fp)
    if fp.q - 1 in ms:
        rows[d][ms.index(fp.q - 1)] += 1
    return rows


def sums_off_by_one_at_zero(ms, weights, d, fp):
    """``off_by_one_at_zero`` on the weighted-sum route."""
    sums = composition_sums(ms, weights, d, fp)
    if 0 in ms:
        sums[0] += weights[ms.index(0)]
    return sums


def sums_off_by_one_at_top(ms, weights, d, fp):
    """A weighted-sum fault alone: one more at (i=d, m=q-1), a count that is
    0 for d >= 1 and that the Veronese cone blowup's runs read."""
    sums = composition_sums(ms, weights, d, fp)
    if fp.q - 1 in ms:
        sums[d] += weights[ms.index(fp.q - 1)]
    return sums


def patch_every_caller(monkeypatch, name, fault):
    for module in (catalog, localalg, verify):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, fault)


def failing_kinds(cases):
    return {case[0] for case in cases if verify.run_case(case).status == "FAIL"}


class TestOracleIndependence:
    def test_oracles_never_reach_the_closed_forms(self):
        # Follow every call from the oracles through verify and combinat.
        closed_forms = {"composition_count", "composition_row", "composition_table",
                        "composition_sums", "floor_pieces", "polynomial_range_sum", "range_sum_weights"}
        defs = {
            node.name: node
            for module in (verify, combinat)
            for node in ast.parse(inspect.getsource(module)).body
            if isinstance(node, ast.FunctionDef)
        }
        seen = set()
        todo = ["thomsen_loop", "segre_shifted_sums", "check_veronese_box"]
        while todo:
            name = todo.pop()
            if name in seen:
                continue
            seen.add(name)
            names = {node.id for node in ast.walk(defs[name]) if isinstance(node, ast.Name)}
            names |= {node.attr for node in ast.walk(defs[name]) if isinstance(node, ast.Attribute)}
            assert not names & closed_forms, (name, names & closed_forms)
            todo.extend(names & defs.keys())
        assert {"cox_degrees", "_coefficients", "bounded_power_coefficients"} <= seen

    def test_loops_catch_a_closed_form_fault(self, monkeypatch):
        # The same fault in every caller's closed form, on the one-entry,
        # row, table and weighted-sum routes: the builders go wrong, and the
        # loops, which read their own convolution table, must notice.
        patch_every_caller(monkeypatch, "composition_count", off_by_one_at_zero)
        patch_every_caller(monkeypatch, "composition_row", row_off_by_one_at_zero)
        patch_every_caller(monkeypatch, "composition_table", table_off_by_one_at_zero)
        patch_every_caller(monkeypatch, "composition_sums", sums_off_by_one_at_zero)
        loops = {"segre-loop", "veronese-direct", "blowup-loop"}
        assert loops <= failing_kinds(TINY_ORACLES)

    def test_a_table_fault_alone_is_caught(self, monkeypatch):
        identities = verify.build_cases("identities", max_d=3, max_e=1, primes=(2, 3))
        cases = identities + TINY_ORACLES
        kinds = {"sum-identity", "support", "shifted-sum", "blowup-loop", "mult-oracle"}
        assert not failing_kinds(case for case in cases if case[0] in kinds)
        patch_every_caller(monkeypatch, "composition_table", table_off_by_one_at_top)
        assert kinds <= failing_kinds(cases)
        for case in cases:
            if case[0] == "mult-oracle":
                p, e, d = case[1]
                result = verify.run_case(case)
                assert result.detail == f"table mismatch at (i={d}, m={p**e - 1})", result

    def test_a_row_fault_alone_is_caught(self, monkeypatch):
        fixtures = verify.build_cases("fixtures", max_d=3, max_e=1, primes=(2, 3))
        cases = fixtures + TINY_ORACLES
        kinds = {"fix-projspace", "segre-loop", "mult-oracle"}
        assert not failing_kinds(case for case in cases if case[0] in kinds)
        patch_every_caller(monkeypatch, "composition_row", row_off_by_one_at_top)
        assert kinds <= failing_kinds(cases)
        for case in cases:
            if case[0] == "mult-oracle":
                p, e, d = case[1]
                result = verify.run_case(case)
                assert result.detail == f"row mismatch at (i={d}, m={p**e - 1})", result

    def test_fail_details_name_the_lines(self, monkeypatch):
        patch_every_caller(monkeypatch, "composition_row", row_off_by_one_at_top)
        result = verify.run_case(("fix-projspace", (2, 1)))
        assert result.detail == "line fixture at n=-1: {(-1,): 2, (-2,): 1} vs {(-1,): 2}"
        result = verify.run_case(("segre-loop", (2, 1, 1, 1, 1, 0, 1)))
        assert result.detail == (
            "{(0, 0, 0): 4, (0, 0, -1): 1, (0, -1, 0): 3, (0, -1, -1): 1, (0, 0, 1): 2, "
            "(0, -1, 1): 1} vs loop {(0, -1, 0): 2, (0, 0, 0): 4, (0, 0, 1): 2}"
        )

    def test_a_sums_fault_alone_is_caught(self, monkeypatch):
        kinds = {"veronese-direct", "mult-oracle"}
        assert not failing_kinds(case for case in TINY_ORACLES if case[0] in kinds)
        patch_every_caller(monkeypatch, "composition_sums", sums_off_by_one_at_top)
        assert kinds <= failing_kinds(TINY_ORACLES)
        for case in TINY_ORACLES:
            if case[0] == "mult-oracle":
                p, e, d = case[1]
                result = verify.run_case(case)
                assert result.detail == f"sums mismatch at (i={d}, m=0..{p**e - 1})", result

    def test_a_weight_fault_alone_is_caught(self, monkeypatch):
        # One more on the last range sum weight of every run: the piecewise
        # builders go wrong, and the loops, which sum j by j, must notice.
        loops = {"segre-loop", "veronese-direct", "blowup-loop"}
        assert not failing_kinds(case for case in TINY_ORACLES if case[0] in loops)
        weights_of = catalog.range_sum_weights

        def last_weight_off_by_one(n, count):
            weights = weights_of(n, count)
            weights[-1] += 1
            return weights

        monkeypatch.setattr(catalog, "range_sum_weights", last_weight_off_by_one)
        assert loops <= failing_kinds(TINY_ORACLES)

    def test_loops_read_the_declared_bundle(self, monkeypatch):
        # The second twist of E with the opposite sign, builders untouched: at
        # q = 2, 3, 4 and 5 hz-loop fails at every eps >= 1 (eps = 0 has no
        # sign), and veronese-direct at every (d, eps) of its grid.
        grid = dict(max_d=3, max_e=2, primes=(2, 3, 5))
        cases = [(name, args) for name, args in verify.build_cases("oracles", **grid)
                 if name in ("hz-loop", "veronese-direct") and args[0] ** args[1] <= 5]
        assert not failing_kinds(cases)
        monkeypatch.setattr(Hirzebruch, "bundle", lambda v: (ProjSpace(1), ((0,), (v.eps,))))
        monkeypatch.setattr(VeroneseConeBlowup, "bundle",
                            lambda v: (ProjSpace(v.d), ((0,), (-v.eps,))))
        failing = {(name, args[:2], args[2:3] if name == "hz-loop" else args[2:4])
                   for name, args in cases if verify.run_case((name, args)).status == "FAIL"}
        fields = ((2, 1), (2, 2), (3, 1), (5, 1))
        assert failing == {("hz-loop", f, (eps,)) for f in fields for eps in range(1, 5)} | {
            ("veronese-direct", f, (d, eps)) for f in fields for d in (1, 2) for eps in (1, 2, 3)}

    def test_mult_oracle_catches_a_closed_form_fault(self, monkeypatch):
        cases = [case for case in TINY_ORACLES if case[0] == "mult-oracle"]
        assert cases and not failing_kinds(cases)
        monkeypatch.setattr(verify, "composition_count", off_by_one_at_zero)
        for case in cases:
            result = verify.run_case(case)
            assert result.status == "FAIL"
            assert result.detail == "mismatch at (i=0, m=0)"

    def test_memo_is_empty_after_a_run(self):
        verify.run_case(("segre-loop", (2, 1, 1, 1, 0, 0, 0)))
        assert verify._memo.cache_info().currsize
        verify.run_suites(["oracles"], max_d=2, max_e=1, primes=(2, 3))
        assert verify._memo.cache_info().currsize == 0

    def test_sweep_memo_is_empty_after_a_run(self):
        verify.run_case(("support", (2, 1, 2)))
        assert verify._memo.cache_info().currsize
        verify.run_suites(["identities"], max_d=2, max_e=1, primes=(2, 3))
        assert verify._memo.cache_info().currsize == 0

    def test_loops_catch_a_table_fault_after_a_clean_run(self, monkeypatch):
        # Tables memoized by a clean run must not outlive it and hide a fault
        # in the convolution that the next run makes.
        grid = dict(max_d=3, max_e=1, primes=(2, 3))
        ((_, clean),) = verify.run_suites(["oracles"], **grid)
        assert not [res for res in clean if res.status == "FAIL"]
        # Cases run on their own, outside any run, leave clean tables behind.
        assert not failing_kinds(verify.build_cases("oracles", **grid))
        assert verify._memo.cache_info().currsize
        convolution = verify.bounded_power_coefficients

        def off_by_one_at_zero(q, parts):
            table = convolution(q, parts)
            table[0] += 1
            return table

        monkeypatch.setattr(verify, "bounded_power_coefficients", off_by_one_at_zero)
        ((_, faulty),) = verify.run_suites(["oracles"], **grid)
        failed = {res.key.split("(")[0] for res in faulty if res.status == "FAIL"}
        assert {"segre-loop", "veronese-direct", "blowup-loop", "mult-oracle",
                "veronese-box"} <= failed


class TestOneBuildPerRun:
    """Within one run each residue sweep and each convolution table is built
    once, and runs that bypass the memo give the same results."""

    GRID = dict(max_d=3, max_e=4, primes=(2, 3, 5, 7))
    QS = {p**e for p in (2, 3, 5, 7) for e in range(1, 5)}

    def test_one_sweep_per_q_and_d(self, monkeypatch):
        table = verify.composition_table
        sweeps = Counter()

        def counting(ms, d, fp):
            if ms == range(fp.q):
                sweeps[fp.q, d] += 1
            return table(ms, d, fp)

        monkeypatch.setattr(verify, "composition_table", counting)
        grids = ((self.GRID, self.QS),
                 # Ten sweeps per q (d = 0..9), all in the memo of one q's tables.
                 (dict(max_d=9, max_e=2, primes=(2, 3)), {2, 4, 3, 9}))
        for grid, qs in grids:
            sweeps.clear()
            verify.run_suites(["identities"], **grid)
            assert set(sweeps) == {(q, d) for q in qs for d in range(grid["max_d"] + 1)}
            assert set(sweeps.values()) == {1}

    def test_one_convolution_from_scratch_per_q(self, monkeypatch):
        convolution = verify.bounded_power_coefficients
        builds = Counter()

        def counting(q, parts):
            builds[q, parts] += 1
            return convolution(q, parts)

        monkeypatch.setattr(verify, "bounded_power_coefficients", counting)
        grids = ((self.GRID, self.QS),
                 # Up to ten tables per q (parts = 1..10), all in the memo of one q's tables.
                 (dict(max_d=9, max_e=2, primes=(2, 3)), {2, 4, 3, 9}))
        for grid, qs in grids:
            builds.clear()
            verify.run_suites(["oracles"], **grid)
            # Every other table is one step from the memoized table below it.
            assert builds == Counter({(q, 1): 1 for q in qs})

    def test_stacked_tables_match_the_convolution(self):
        for q in (1, 2, 3, 7, 16):
            for parts in range(7):
                table = list(verify._coefficients(q, parts))
                coeffs = bounded_power_coefficients(q, parts)
                assert table == coeffs + [0] * ((parts + 1) * q - len(coeffs))

    def test_memoized_and_bypassed_runs_agree(self, monkeypatch):
        # The memo holds one q's tables: after a case at a second q it holds
        # that q's entries only, the sweeps of identities and the tables of
        # oracles alike.
        fp = PrimePower(3, 1)
        for case in (("support", (2, 1, 2)), ("support", (3, 1, 2))):
            verify.run_case(case)
        sweep = tuple(map(tuple, composition_table(range(3), 2, fp)))
        assert verify._memo(3) == {(composition_table, 2): sweep}
        for case in (("mult-oracle", (2, 1, 2)), ("mult-oracle", (3, 1, 2))):
            verify.run_case(case)
        assert set(verify._memo(3)) == {(bounded_power_coefficients, n) for n in (1, 2, 3)}
        assert verify._memo.cache_info().currsize == 1

        def unmemoized(q, parts):
            coeffs = bounded_power_coefficients(q, parts)
            return tuple(coeffs + [0] * ((parts + 1) * q - len(coeffs)))

        grid = dict(max_d=9, max_e=2, primes=(2, 3))
        for suite, name, bypass in (
            ("identities", "_sweep", lambda fp, d: composition_table(range(fp.q), d, fp)),
            ("oracles", "_coefficients", unmemoized),
        ):
            memoized = verify.run_suites([suite], **grid)
            with monkeypatch.context() as patch:
                patch.setattr(verify, name, bypass)
                bypassed = verify.run_suites([suite], **grid)
            assert memoized == bypassed
            assert all(res.status == "PASS" for _, results in memoized for res in results)

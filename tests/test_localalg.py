"""Tests for cone pushforwards, splitting numbers, and F-signatures."""

import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from frobpush import catalog, localalg
from frobpush.catalog import pushforward_hirzebruch, pushforward_veronese_cone
from frobpush.combinat import PrimePower, composition_count, eulerian, polynomial_range_sum
from frobpush.localalg import (
    cone_pushforward,
    f_signature,
    f_signature_convergent,
    splitting_number,
)
from frobpush.picard import (
    ConeP,
    Line,
    PicClass,
    RationalNormalCone,
    SegreCone,
    VeroneseCone,
)
from frobpush.verify import hirzebruch_closed_multiplicities

FIELDS = [PrimePower(p, e) for p in (2, 3, 5) for e in (1, 2)]


def as_map(decomp):
    return {s.cls.coords: m for s, m in decomp.items()}


def exceptional_block(d, eps, fp):
    """Multiplicity of O(-H) = O(-E - eps*H') in F^e_* O on the blowup of
    the Veronese cone."""
    decomp = pushforward_veronese_cone(d, eps, 0, 0, fp)
    return decomp.multiplicity(Line(PicClass((-1, 0), decomp.basis)))


class TestConePushforward:
    def test_rank_law(self):
        for fp in FIELDS:
            kinds = [RationalNormalCone(2), RationalNormalCone(3), SegreCone(1, 1), SegreCone(2, 1),
                     VeroneseCone(2, 2), VeroneseCone(2, 3)]
            for kind in kinds:
                decomp = cone_pushforward(kind, fp)
                assert decomp.rank() == fp.q**kind.dim
                assert isinstance(decomp.variety, ConeP)

    def test_rnc_display(self):
        for fp in FIELDS:
            for eps in (2, 3, 4):
                if fp.q < eps:
                    continue
                sigma = hirzebruch_closed_multiplicities(eps, fp)
                decomp = cone_pushforward(RationalNormalCone(eps), fp)
                got = {s.cls.coords[0]: m for s, m in decomp.items()}
                expected = {0: 1 + sigma[eps - 1], -1: fp.q - 1 + sigma[0] + sigma[eps]}
                for i in range(2, eps):
                    if sigma[i - 1]:
                        expected[-i] = sigma[i - 1]
                assert got == expected

    def test_rnc_smooth_case(self):
        for fp in FIELDS:
            decomp = cone_pushforward(RationalNormalCone(1), fp)
            assert {s.cls.coords: m for s, m in decomp.items()} == {(0,): fp.q**2}

    def test_rnc_below_regime_uses_blocks(self):
        fp = PrimePower(2, 1)
        decomp = cone_pushforward(RationalNormalCone(3), fp)
        # Blocks at q=2 give the classes 0, -L, -2L with counts 1, 1, 2.
        assert {s.cls.coords[0]: m for s, m in decomp.items()} == {0: 1, -1: 1, -2: 2}

    def test_veronese_d1_is_rnc(self):
        # The cone over the rational normal curve of degree eps is the d = 1
        # Veronese cone; both must answer alike at every q, q < eps included.
        prime_powers = [
            PrimePower(p, e)
            for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
            for e in range(1, 6)
            if p**e <= 32
        ]
        for fp in prime_powers:
            for eps in range(1, 9):
                veronese, rnc = VeroneseCone(1, eps), RationalNormalCone(eps)
                assert as_map(cone_pushforward(veronese, fp)) == as_map(cone_pushforward(rnc, fp))
                assert splitting_number(veronese, fp) == splitting_number(rnc, fp)
                assert f_signature_convergent(veronese, fp) == f_signature_convergent(rnc, fp)

    def test_veronese_classes_reduce_mod_eps(self):
        fp = PrimePower(3, 1)
        decomp = cone_pushforward(VeroneseCone(3, 2), fp)
        assert all(-s.cls.coords[0] in range(2) for s, _ in decomp.items())

    def test_segre_chart_display(self):
        fp = PrimePower(2, 1)
        decomp = cone_pushforward(SegreCone(1, 1), fp)
        got = {s.cls.coords[0]: m for s, m in decomp.items()}
        # a(0,.;1)=(1,2), a(1,.;1)=(1,0) at q=2.
        assert got == {-1: 1 * 1 + 2 * 0, 0: (1 + 4) + (1 + 0), 1: 1}

    def test_veronese_out_of_regime(self):
        # q = 2 < eps = 3, below the blowup's regime: the box [0, 1]^3 has
        # 2, 3 and 3 points of degree 0, 2 and 1 modulo 3.
        decomp = cone_pushforward(VeroneseCone(2, 3), PrimePower(2, 1))
        assert as_map(decomp) == {(0,): 2, (-1,): 3, (-2,): 3}


class TestSplittingNumber:
    def test_segre_small(self):
        assert splitting_number(SegreCone(1, 1), PrimePower(2, 1)) == 6

    def test_segre_closed_form_r1_s1(self):
        # sum_j (j+1)^2 + (q-1-j)^2 = q(2q^2+1)/3.
        for fp in FIELDS:
            q = fp.q
            assert splitting_number(SegreCone(1, 1), fp) == q * (2 * q * q + 1) // 3

    def test_segre_matches_cone_trivial(self):
        for fp in FIELDS:
            for r, s in ((1, 1), (1, 2), (2, 2)):
                kind = SegreCone(r, s)
                assert (
                    splitting_number(kind, fp)
                    == cone_pushforward(kind, fp).trivial_multiplicity()
                )

    def test_rnc_eps_equals_p(self):
        for p in (2, 3, 5):
            for e in (1, 2, 3):
                fp = PrimePower(p, e)
                assert splitting_number(RationalNormalCone(p), fp) == fp.q**2 // p

    def test_rnc_closed_displays(self):
        for fp in FIELDS:
            for eps in (2, 3, 4, 5):
                if fp.q < eps:
                    continue
                number = splitting_number(RationalNormalCone(eps), fp)
                q, k = fp.q, fp.q % eps
                if k == 0:
                    assert number == q * q // eps
                else:
                    rho1 = k
                    rho2 = (2 * k) % eps if eps > 2 else eps
                    num = 2 * q * q - (
                        rho2**2 - 2 * rho1**2 + (eps + 2) * (2 * rho1 - rho2)
                    ) + 2 * eps
                    assert num % (2 * eps) == 0
                    assert number == num // (2 * eps)

    def test_veronese_matches_cone_trivial(self):
        for fp in FIELDS:
            for d in (1, 2, 3):
                for eps in (1, 2, 3):
                    kind = VeroneseCone(d, eps)
                    assert (
                        splitting_number(kind, fp)
                        == cone_pushforward(kind, fp).trivial_multiplicity()
                    )

    def test_veronese_boundary_is_single_block(self):
        # For d <= eps - 1 the sum collapses to its k=0 term 1 + sigma_eps;
        # for d >= eps the extra blocks are nonzero, so the collapse holds on
        # that side of the boundary only.  sigma_eps is the multiplicity of
        # O(-E - eps*H') = O(-H) on the blowup.
        for fp in FIELDS:
            for eps in (2, 3):
                if fp.q < eps:
                    continue
                d = eps - 1
                sigma = exceptional_block(d, eps, fp)
                number = splitting_number(VeroneseCone(d, eps), fp)
                assert number == 1 + sigma

    def test_veronese_above_boundary_exceeds_single_block(self):
        fp = PrimePower(3, 1)
        number = splitting_number(VeroneseCone(2, 2), fp)
        assert number > 1 + exceptional_block(2, 2, fp)

    def test_bounds(self):
        for fp in FIELDS:
            kinds = [RationalNormalCone(2), SegreCone(1, 2), VeroneseCone(2, 2)]
            for kind in kinds:
                number = splitting_number(kind, fp)
                assert 1 <= number <= fp.q**kind.dim


class TestFSignature:
    def test_veronese_values(self):
        assert f_signature(VeroneseCone(2, 3)) == Fraction(1, 3)
        assert f_signature(RationalNormalCone(4)) == Fraction(1, 4)
        assert f_signature(RationalNormalCone(1)) == 1

    def test_segre_values(self):
        assert f_signature(SegreCone(1, 1)) == Fraction(2, 3)
        assert f_signature(SegreCone(1, 2)) == Fraction(eulerian(4, 2), 24)
        assert f_signature(SegreCone(2, 2)) == Fraction(eulerian(5, 3), 120)


class TestConvergents:
    def test_smooth_case_exact(self):
        for e in (1, 2, 3):
            assert f_signature_convergent(RationalNormalCone(1), PrimePower(2, e)) == 1

    def test_eps_equals_p_exact(self):
        for p in (2, 3, 5):
            for e in (1, 2):
                kind = RationalNormalCone(p)
                assert f_signature_convergent(kind, PrimePower(p, e)) == Fraction(1, p)

    @pytest.mark.parametrize(
        "kind,p",
        [
            (RationalNormalCone(2), 3),
            (RationalNormalCone(3), 2),
            (RationalNormalCone(3), 5),
            (RationalNormalCone(4), 3),
            (VeroneseCone(2, 2), 3),
            (VeroneseCone(2, 3), 5),
            (VeroneseCone(3, 2), 3),
            (SegreCone(1, 1), 2),
            (SegreCone(1, 2), 2),
            (SegreCone(2, 2), 2),
            (SegreCone(2, 2), 3),
        ],
    )
    def test_error_strictly_decreases(self, kind, p):
        target = f_signature(kind)
        errors = [
            abs(f_signature_convergent(kind, PrimePower(p, e)) - target)
            for e in range(1, 5)
        ]
        assert all(x > y for x, y in zip(errors, errors[1:]))

    def test_segre_1_1_values(self):
        convergents = [
            f_signature_convergent(SegreCone(1, 1), PrimePower(2, e)) for e in (1, 2)
        ]
        assert convergents[0] == Fraction(6, 8)
        assert convergents[1] == Fraction(2, 3) + Fraction(1, 3 * 16)


# ---------------------------------------------------------------------------
# The Veronese-type cones' cyclic convolution against the blowup at the
# vertex and against the box [0, q-1]^(d+1), point by point.
# ---------------------------------------------------------------------------

SMALL_FIELDS = [
    PrimePower(p, e)
    for p, e in ((2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 1), (3, 2), (3, 3),
                 (5, 1), (5, 2), (7, 1), (7, 2), (11, 1), (13, 1))
]
BOX_POINTS = [(fp, d) for fp in SMALL_FIELDS for d in (1, 2, 3) if fp.q ** (d + 1) <= 4096]


def blowup_classes(d, eps, fp):
    """The cone's classes read off F^e_* O on the blowup at the vertex (F_eps
    for d = 1): an upstairs class with second coordinate b is -k*L near the
    vertex, with k = -b modulo eps."""
    if d == 1:
        upstairs = pushforward_hirzebruch(eps, 0, 0, fp)
    else:
        upstairs = pushforward_veronese_cone(d, eps, 0, 0, fp)
    classes = Counter()
    for (_, b), mult in upstairs.lines.items():
        classes[(-(-b % eps),)] += mult
    return dict(classes)


@given(st.sampled_from(SMALL_FIELDS), st.integers(1, 3), st.integers(1, 8))
def test_veronese_matches_blowup_in_regime(fp, d, eps):
    # The blowup answers at every q, q < eps included.
    assert as_map(cone_pushforward(VeroneseCone(d, eps), fp)) == blowup_classes(d, eps, fp)


@given(st.sampled_from(BOX_POINTS), st.integers(1, 8))
def test_veronese_matches_box_count(point, eps):
    fp, d = point
    q = fp.q
    degrees = Counter(sum(u) % eps for u in itertools.product(range(q), repeat=d + 1))
    box = {(-k,): degrees[k * q % eps] for k in range(eps) if degrees[k * q % eps]}
    assert as_map(cone_pushforward(VeroneseCone(d, eps), fp)) == box


@given(st.sampled_from((2, 3, 5, 7)), st.integers(1, 4000), st.integers(1, 3), st.integers(1, 8))
def test_veronese_rank_at_large_q(p, e, d, eps):
    fp = PrimePower(p, e)
    assert cone_pushforward(VeroneseCone(d, eps), fp).rank() == fp.q ** (d + 1)


def test_veronese_type_cones_need_no_blowup(monkeypatch):
    builders = {name for name in vars(catalog) if name.startswith("pushforward_")}
    assert not builders & vars(localalg).keys()

    def refuse(*args):
        raise RuntimeError("the blowup route was called")

    for name in ("pushforward_hirzebruch", "pushforward_veronese_cone"):
        monkeypatch.setattr(catalog, name, refuse)
    for fp in (PrimePower(2, 1), PrimePower(3, 2), PrimePower(2, 64)):
        for kind in (RationalNormalCone(1), RationalNormalCone(5), VeroneseCone(1, 3),
                     VeroneseCone(2, 3), VeroneseCone(3, 7)):
            number = splitting_number(kind, fp)
            assert number == cone_pushforward(kind, fp).trivial_multiplicity() >= 1


def segre_sample_sums(r, s, fp):
    """The Segre counts as the sum over k of sum_j count(k, j; r) *
    count(k + i, j; s), each a polynomial of degree r + s in j summed from
    r + s + 1 samples: the chart's count, before its reflection to one row."""
    samples = range(min(fp.q, r + s + 1))
    return {
        (i,): sum(
            polynomial_range_sum(
                [composition_count(k, j, r, fp) * composition_count(k + i, j, s, fp)
                 for j in samples],
                fp.q,
            )
            for k in range(r + 1)
        )
        for i in range(-r, s + 1)
    }


@given(st.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (2, 64), (3, 40)]),
       st.integers(1, 4), st.integers(1, 4))
def test_segre_one_row_matches_the_sample_sums(pe, r, s):
    fp = PrimePower(*pe)
    want = {c: m for c, m in segre_sample_sums(r, s, fp).items() if m}
    decomp = cone_pushforward(SegreCone(r, s), fp)
    assert dict(decomp.lines) == want
    assert decomp.rank() == fp.q ** (r + s + 1)
    assert splitting_number(SegreCone(r, s), fp) == want[(0,)]

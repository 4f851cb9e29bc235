"""Tests for restriction to distinguished divisors and the chart oracle."""

import pytest

from frobpush.catalog import (
    pushforward_hirzebruch,
    pushforward_linear_blowup,
    pushforward_segre_cone,
    pushforward_veronese_cone,
)
from frobpush.combinat import PrimePower, composition_count
from frobpush.errors import InvalidParameterError
from frobpush.picard import Decomposition, Hirzebruch, Line, PicClass, Product, ProjSpace
from frobpush.restriction import restrict
from frobpush.verify import hirzebruch_closed_multiplicities

FIELDS = [PrimePower(p, e) for p in (2, 3, 5) for e in (1, 2)]

# Each divisor family's restriction as a lattice map: its divisor, its target
# and the image of each source generator.  Written out here, not read from
# the declarations ``restrict`` reads, so the two can be compared.
RULES = {
    "hirzebruch": ("C0", lambda v: ProjSpace(1), lambda v: ((-v.eps,), (1,))),
    "blowup-linear": ("E", lambda v: ProjSpace(v.d - v.r), lambda v: ((0,), (1,))),
    "veronese-cone": ("E", lambda v: ProjSpace(v.d), lambda v: ((0,), (1,))),
    "segre-cone": ("E", lambda v: Product(v.r, v.s), lambda v: ((0, 0), (1, 0), (0, 1))),
}


def as_map(decomp):
    return {s.cls.coords: m for s, m in decomp.items()}


class TestHirzebruchSection:
    def test_eps1_fixture(self):
        for fp in FIELDS:
            q = fp.q
            restricted = restrict(pushforward_hirzebruch(1, 0, 0, fp))
            assert as_map(restricted) == {(0,): q * (q + 1) // 2, (-1,): q * (q - 1) // 2}

    def test_general_display(self):
        for fp in FIELDS:
            q = fp.q
            for eps in (1, 2, 3, 4):
                if q < eps:
                    continue
                sigma = hirzebruch_closed_multiplicities(eps, fp)
                restricted = restrict(pushforward_hirzebruch(eps, 0, 0, fp))
                expected = {(0,): 1 + sigma[eps - 1], (-1,): q - 1 + sigma[eps]}
                for i in range(1, eps):
                    expected[(i,)] = expected.get((i,), 0) + sigma[eps - i - 1]
                expected = {c: v for c, v in expected.items() if v}
                assert as_map(restricted) == expected

    def test_trivial_decomposition(self):
        basis = ("C0", "f")
        decomp = Decomposition(Hirzebruch(2), [(Line(PicClass.zero(basis)), 1)])
        restricted = restrict(decomp)
        assert as_map(restricted) == {(0,): 1}
        assert isinstance(restricted.variety, ProjSpace)

    def test_wrong_variety(self):
        fp = PrimePower(2, 1)
        from frobpush.catalog import pushforward_projective_space

        with pytest.raises(InvalidParameterError):
            restrict(pushforward_projective_space(1, 0, fp))


class TestBlowupExceptional:
    def test_point_blowup_matches_chart(self):
        for fp in FIELDS:
            trivial, negative = enumerated_chart_counts(fp.q)
            assert point_blowup_on_e(fp) == {(0,): trivial, (-1,): negative}

    def test_rank_preserved(self):
        for fp in FIELDS:
            for d, r in ((2, 1), (3, 1), (3, 2), (4, 2)):
                assert restrict(pushforward_linear_blowup(d, r, fp)).rank() == fp.q**d

    def test_closed_form_multiplicities(self):
        fp = PrimePower(2, 1)
        restricted = restrict(pushforward_linear_blowup(3, 1, fp))
        q = fp.q
        expected = {}
        for k in range(3):
            value = (
                composition_count(k + 1, 0, 3, fp)
                - composition_count(k + 1, 0, 2, fp)
                + composition_count(k, 0, 2, fp)
            )
            if value:
                expected[(-k,)] = value
        assert as_map(restricted) == expected


class TestVeroneseExceptional:
    def test_display(self):
        for fp in FIELDS:
            for d in (1, 2):
                for eps in (1, 2, 3):
                    if fp.q < eps:
                        continue
                    decomp = pushforward_veronese_cone(d, eps, 0, 0, fp)
                    cone = as_map(decomp)

                    def section(k):  # O(-k*H')
                        return cone.get((0, -k), 0)

                    def exceptional(k):  # O(-E - k*H') = O(-H + (eps - k)*H')
                        return cone.get((-1, eps - k), 0)

                    restricted = restrict(decomp)
                    expected = {}
                    for k in range(d + 1):
                        value = section(k) + exceptional(eps + k)
                        if value:
                            expected[(-k,)] = value
                    for k in range(1, eps):
                        value = exceptional(eps - k)
                        if value:
                            expected[(k,)] = expected.get((k,), 0) + value
                    assert as_map(restricted) == expected

    def test_trivial_multiplicity_witness(self):
        for fp in FIELDS:
            for eps in (1, 2, 3):
                if fp.q < eps:
                    continue
                sigma = hirzebruch_closed_multiplicities(eps, fp)
                restricted = restrict(pushforward_veronese_cone(1, eps, 0, 0, fp))
                assert restricted.trivial_multiplicity() == 1 + sigma[eps - 1]

    def test_d1_matches_hirzebruch_section(self):
        for fp in FIELDS:
            for eps in (1, 2, 3, 4):
                if fp.q < eps:
                    continue
                via_cone = restrict(pushforward_veronese_cone(1, eps, 0, 0, fp))
                via_surface = restrict(pushforward_hirzebruch(eps, 0, 0, fp))
                assert as_map(via_cone) == as_map(via_surface)

    def test_rank_preserved(self):
        fp = PrimePower(3, 1)
        assert restrict(pushforward_veronese_cone(2, 3, 0, 0, fp)).rank() == fp.q**3


class TestSegreExceptional:
    def test_q2_trivial_entry(self):
        fp = PrimePower(2, 1)
        restricted = restrict(pushforward_segre_cone(1, 1, 0, 0, 0, fp))
        assert restricted.trivial_multiplicity() == 5

    def test_display(self):
        for fp in FIELDS:
            for r, s in ((1, 1), (1, 2), (2, 2)):
                restricted = restrict(pushforward_segre_cone(r, s, 0, 0, 0, fp))
                expected = {}
                for k in range(r + 1):
                    for l in range(s + 1):
                        value = sum(
                            composition_count(k, j, r, fp) * composition_count(l, j, s, fp)
                            for j in range(fp.q)
                        )
                        if value:
                            expected[(-k, -l)] = value
                assert as_map(restricted) == expected

    def test_rank_preserved(self):
        for fp in FIELDS:
            assert restrict(pushforward_segre_cone(1, 2, 0, 0, 0, fp)).rank() == fp.q**4


def prime_powers_up_to(bound):
    fields = []
    for q in range(2, bound + 1):
        p = next(f for f in range(2, q + 1) if q % f == 0)
        e, rest = 0, q
        while rest % p == 0:
            e, rest = e + 1, rest // p
        if rest == 1:
            fields.append(PrimePower(p, e))
    return fields


def enumerated_chart_counts(q):
    """The q^2 chart points (i, j), each tested: trivial when j <= i."""
    trivial = negative = 0
    for i in range(q):
        for j in range(q):
            if j <= i:
                trivial += 1
            else:
                negative += 1
    return trivial, negative


def point_blowup_on_e(fp):
    """{class: multiplicity} of F^e_* O on Bl_pt P^2 restricted to E."""
    return as_map(restrict(pushforward_linear_blowup(2, 1, fp)))


class TestChartOracle:
    def test_matches_enumeration(self):
        fields = prime_powers_up_to(49)
        assert len(fields) == 23
        for fp in fields:
            trivial, negative = enumerated_chart_counts(fp.q)
            assert point_blowup_on_e(fp) == {(0,): trivial, (-1,): negative}

    def test_small_values(self):
        assert enumerated_chart_counts(2) == (3, 1)
        assert enumerated_chart_counts(3) == (6, 3)
        assert point_blowup_on_e(PrimePower(2, 1)) == {(0,): 3, (-1,): 1}
        assert point_blowup_on_e(PrimePower(3, 1)) == {(0,): 6, (-1,): 3}

    def test_closed_forms_and_total(self):
        for p, e in ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (7, 1)):
            fp = PrimePower(p, e)
            q = fp.q
            trivial, negative = enumerated_chart_counts(q)
            assert (trivial, negative) == (q * (q + 1) // 2, q * (q - 1) // 2)
            assert trivial + negative == q * q
            assert point_blowup_on_e(fp) == {(0,): trivial, (-1,): negative}


class TestRestrictionGenerics:
    def test_commutes_with_pullback_twists(self):
        # Twisting by a source generator e_i then restricting equals
        # restricting then twisting by the image of e_i: row i of the matrix.
        fp = PrimePower(3, 1)
        sources = [
            (pushforward_hirzebruch(2, 0, 0, fp), "C0"),
            (pushforward_linear_blowup(3, 1, fp), "E"),
            (pushforward_veronese_cone(2, 2, 0, 0, fp), "E"),
            (pushforward_segre_cone(1, 1, 0, 0, 0, fp), "E"),
        ]
        for decomp, divisor in sources:
            rule_divisor, target, matrix = RULES[decomp.variety.tag]
            assert decomp.variety.divisor == rule_divisor == divisor
            target_basis = target(decomp.variety).bases[0]
            rows = matrix(decomp.variety)
            assert len(rows) == len(decomp.basis)
            for i, row in enumerate(rows):
                for scale in (1, -2):
                    up = PicClass(
                        tuple(scale if j == i else 0 for j in range(len(decomp.basis))),
                        decomp.basis,
                    )
                    down = PicClass(tuple(scale * c for c in row), target_basis)
                    assert restrict(decomp.twist(up)) == restrict(decomp).twist(down)

    def test_restricts_from_alternate_blowup_basis(self):
        from frobpush.picard import change_basis

        for fp in (PrimePower(2, 1), PrimePower(3, 1), PrimePower(2, 2), PrimePower(2, 64)):
            for d in range(2, 7):
                for r in range(1, d):
                    default = pushforward_linear_blowup(d, r, fp)
                    flipped = change_basis(default, ("H", "E"))
                    assert restrict(flipped) == restrict(default), (d, r, fp)

    def test_restriction_preserves_rank(self):
        fp = PrimePower(2, 2)
        pairs = [
            (pushforward_hirzebruch(3, 1, 2, fp), "C0"),
            (pushforward_veronese_cone(2, 2, 1, 0, fp), "E"),
            (pushforward_segre_cone(2, 1, 0, 1, 0, fp), "E"),
        ]
        for decomp, divisor in pairs:
            assert decomp.variety.divisor == divisor
            assert restrict(decomp).rank() == decomp.rank()

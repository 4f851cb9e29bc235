"""Tests for the closed-form pushforward decompositions.

Fixture tables were reconciled against the rank law (total = q^dim) and the
convolution oracle before freezing; see the per-case comments where a
recorded value failed reconciliation.
"""

from operator import add

import pytest
from hypothesis import given, reject
from hypothesis import strategies as st

from frobpush import catalog
from frobpush.catalog import (
    pushforward_hirzebruch,
    pushforward_linear_blowup,
    pushforward_product,
    pushforward_projective_space,
    pushforward_segre_cone,
    pushforward_veronese_cone,
    quadric_pushforward_support,
)
from frobpush.combinat import PrimePower, _is_prime, composition_count
from frobpush.errors import InvalidParameterError
from frobpush.families import FAMILIES, build
from frobpush.picard import (
    Hirzebruch,
    Line,
    LinearBlowup,
    PicClass,
    Product,
    ProjSpace,
    SegreConeBlowup,
    Spinor,
    VeroneseConeBlowup,
    change_basis,
)
from frobpush.positivity import kernel_restriction_verdict
from frobpush.verify import (
    blowup_multiplicity,
    hirzebruch_block_multiplicities,
    hirzebruch_closed_multiplicities,
    thomsen_loop,
)

FIELDS = [PrimePower(p, e) for p in (2, 3, 5) for e in (1, 2)]
FIELDS_E3 = [PrimePower(p, e) for p in (2, 3, 5) for e in (1, 2, 3)]


def as_map(decomp):
    return {s.cls.coords: m for s, m in decomp.items()}


class TestProjectiveSpace:
    def test_line_display(self):
        for fp in FIELDS:
            q = fp.q
            for n in range(-q - 1, 2 * q):
                k, m = divmod(n, q)
                expected = {(k,): m + 1, (k - 1,): q - 1 - m}
                expected = {c: v for c, v in expected.items() if v}
                assert as_map(pushforward_projective_space(1, n, fp)) == expected

    def test_plane_display(self):
        for fp in FIELDS:
            q = fp.q
            for m in range(q):
                expected = {
                    (0,): (m + 1) * (m + 2) // 2,
                    (-1,): (q * q + (2 * m + 3) * q - 2 * (m + 1) * (m + 2)) // 2,
                    (-2,): (q - m - 1) * (q - m - 2) // 2,
                }
                expected = {c: v for c, v in expected.items() if v}
                assert as_map(pushforward_projective_space(2, m, fp)) == expected

    def test_rank_law(self):
        for fp in FIELDS:
            for d in (1, 2, 3, 4):
                assert pushforward_projective_space(d, 0, fp).rank() == fp.q**d

    def test_projection_formula_equivariance(self):
        for fp in FIELDS:
            for d in (1, 2):
                base = pushforward_projective_space(d, 1, fp)
                for t in (-2, -1, 1, 3):
                    shifted = pushforward_projective_space(d, 1 + t * fp.q, fp)
                    assert shifted == base.twist(PicClass((t,), ("H",)))


class TestProduct:
    def test_structure_sheaf_multiplicities(self):
        for fp in FIELDS:
            decomp = pushforward_product(2, 1, 0, 0, fp)
            for i in range(3):
                for j in range(2):
                    expected = composition_count(i, 0, 2, fp) * composition_count(
                        j, 0, 1, fp
                    )
                    got = decomp.entries.get(Line(PicClass((-i, -j), ("H1", "H2"))), 0)
                    assert got == expected

    def test_rank_law(self):
        for fp in FIELDS:
            for r in (1, 2):
                for s in (1, 2):
                    assert pushforward_product(r, s, 3, -1, fp).rank() == fp.q ** (r + s)

    def test_q2_fixture(self):
        decomp = pushforward_product(1, 1, 0, 0, PrimePower(2, 1))
        assert as_map(decomp) == {(0, 0): 1, (-1, 0): 1, (0, -1): 1, (-1, -1): 1}

    def test_equivariance(self):
        fp = PrimePower(3, 1)
        base = pushforward_product(1, 2, 1, 2, fp)
        shifted = pushforward_product(1, 2, 1 + fp.q, 2 - fp.q, fp)
        assert shifted == base.twist(PicClass((1, -1), ("H1", "H2")))


class TestHirzebruch:
    def test_rank_law(self):
        for fp in FIELDS:
            for eps in range(5):
                for u, v in ((0, 0), (1, -2), (-3, 5)):
                    assert pushforward_hirzebruch(eps, u, v, fp).rank() == fp.q**2

    def test_eps1_fixture(self):
        for fp in FIELDS_E3:
            q = fp.q
            expected = {
                (0, 0): 1,
                (0, -1): q - 1,
                (-1, -1): (q + 2) * (q - 1) // 2,
                (-1, -2): (q - 2) * (q - 1) // 2,
            }
            expected = {c: v for c, v in expected.items() if v}
            assert as_map(pushforward_hirzebruch(1, 0, 0, fp)) == expected

    def test_eps2_fixture_odd(self):
        for fp in FIELDS_E3:
            if fp.p == 2:
                continue
            q = fp.q
            expected = {
                (0, 0): 1,
                (0, -1): q - 1,
                (-1, -1): (q - 1) * (q + 1) // 4,
                (-1, -2): (q - 1) * (2 * q + 2) // 4,
                (-1, -3): (q - 1) * (q - 3) // 4,
            }
            expected = {c: v for c, v in expected.items() if v}
            assert as_map(pushforward_hirzebruch(2, 0, 0, fp)) == expected

    def test_eps2_fixture_even(self):
        for e in (1, 2, 3):
            fp = PrimePower(2, e)
            q = fp.q
            expected = {
                (0, 0): 1,
                (0, -1): q - 1,
                (-1, -1): (q // 2) ** 2,
                (-1, -2): (q * q - 2) // 2,
                (-1, -3): ((q - 2) // 2) ** 2,
            }
            expected = {c: v for c, v in expected.items() if v}
            assert as_map(pushforward_hirzebruch(2, 0, 0, fp)) == expected

    def test_eps3_mod_cases(self):
        for fp in FIELDS_E3:
            q = fp.q
            got = hirzebruch_block_multiplicities(3, fp)
            if q % 3 == 1:
                expected = (
                    q * (q - 1) // 6,
                    (q + 1) * (q - 1) // 3,
                    (q + 1) * (q - 1) // 3,
                    (q - 4) * (q - 1) // 6,
                )
            elif q % 3 == 2:
                expected = (
                    (q + 1) * (q - 2) // 6,
                    (q * q + 2) // 3,
                    (q + 2) * (q - 2) // 3,
                    (q - 3) * (q - 2) // 6,
                )
            else:
                expected = (
                    q * (q - 1) // 6,
                    q * q // 3,
                    (q * q - 3) // 3,
                    (q - 3) * (q - 2) // 6,
                )
            assert got == expected

    def test_eps3_q3_row(self):
        assert hirzebruch_block_multiplicities(3, PrimePower(3, 1)) == (1, 3, 2, 0)

    def test_eps3_q2_row(self):
        # Reconciled row: the four-block summation and a section count of the
        # q-th twist both give (0, 2, 0, 0); the recorded small-q row
        # (1, 1, 0, 0) fails those cross-checks.  The closed form refuses
        # q < eps by contract, so only the block route applies here.
        fp = PrimePower(2, 1)
        assert hirzebruch_block_multiplicities(3, fp) == (0, 2, 0, 0)

    def test_general_twist_table_eps1(self):
        # Five-term table for O(u*C0 + v*f) on the point blowup, residues
        # m <= n; the (k-1, l-1) coefficient carries +(n-m)(2q-1-n+m), the
        # sign that makes the table sum to q^2.
        for fp in FIELDS:
            q = fp.q
            for u in (0, 1, q + 1):
                for v in (u, u + 1, u + q - 1, u + q):
                    k, m = divmod(u, q)
                    l, n = divmod(v, q)
                    if m > n:
                        continue
                    expected = {
                        (k, l): (m + 1) * (m + 2 + 2 * (n - m)) // 2,
                        (k, l - 1): (m + 1) * (2 * q - (m + 2) - 2 * (n - m)) // 2,
                        (k - 1, l): (n - m) * (n - m + 1) // 2,
                        (k - 1, l - 1): (
                            q * (q + 1)
                            - (n + 1) * (n + 2)
                            + (n - m) * (2 * q - 1 - n + m)
                        )
                        // 2,
                        (k - 1, l - 2): (q - n - 1) * (q - n - 2) // 2,
                    }
                    expected = {c: val for c, val in expected.items() if val}
                    assert sum(expected.values()) == q * q
                    assert as_map(pushforward_hirzebruch(1, u, v, fp)) == expected

    def test_equivariance(self):
        fp = PrimePower(2, 2)
        base = pushforward_hirzebruch(2, 1, -1, fp)
        shifted = pushforward_hirzebruch(2, 1 + fp.q, -1 + 2 * fp.q, fp)
        assert shifted == base.twist(PicClass((1, 2), ("C0", "f")))

    def test_closed_matches_blocks(self):
        for fp in FIELDS_E3:
            for eps in range(1, 7):
                if fp.q < eps:
                    continue
                assert hirzebruch_closed_multiplicities(
                    eps, fp
                ) == hirzebruch_block_multiplicities(eps, fp)

    def test_closed_form_regime(self):
        # The closed forms hold for 1 <= eps <= q; the blocks answer elsewhere.
        with pytest.raises(InvalidParameterError):
            hirzebruch_closed_multiplicities(5, PrimePower(2, 1))

    def test_blocks_sum(self):
        for fp in FIELDS:
            for eps in (1, 2, 3, 4, 7):
                sigma = hirzebruch_block_multiplicities(eps, fp)
                assert sum(sigma) == fp.q**2 - fp.q


class TestLinearBlowup:
    def test_point_blowup_table(self):
        for fp in FIELDS:
            q = fp.q
            assert blowup_multiplicity(0, 0, 2, 1, fp) == 1
            assert blowup_multiplicity(0, 1, 2, 1, fp) == q - 1
            assert blowup_multiplicity(1, 0, 2, 1, fp) == (q - 1) * (q + 2) // 2
            assert blowup_multiplicity(1, 1, 2, 1, fp) == (q - 2) * (q - 1) // 2

    def test_matches_hirzebruch(self):
        # H = C0 + f and H' = f identify the point blowup of the plane with
        # the eps=1 ruled surface.
        for fp in FIELDS:
            blowup = pushforward_linear_blowup(2, 1, fp)
            mapped = {}
            for summand, mult in blowup.items():
                i, k = summand.cls.coords
                mapped[(i, i + k)] = mult
            assert mapped == as_map(pushforward_hirzebruch(1, 0, 0, fp))

    def test_point_blowup_is_veronese_cone_blowup(self):
        # Bl_pt P^d is P(O + O(1)) over P^{d-1}, with the same basis (H, H').
        prime_powers = [
            PrimePower(p, e)
            for p in range(2, 344) if _is_prime(p)
            for e in range(1, 9) if p**e <= 343
        ]
        for fp in prime_powers:
            for d in (2, 3, 4, 5):
                blowup = pushforward_linear_blowup(d, 1, fp)
                cone = pushforward_veronese_cone(d - 1, 1, 0, 0, fp)
                assert as_map(blowup) == as_map(cone), (d, fp)
                assert kernel_restriction_verdict(
                    LinearBlowup(d, 1), fp
                ) == kernel_restriction_verdict(VeroneseConeBlowup(d - 1, 1), fp), (d, fp)

    def test_collapse_identity(self):
        for fp in FIELDS:
            for d, r in ((2, 1), (3, 1), (3, 2), (4, 2), (4, 3)):
                for l in range(d + 1):
                    total = sum(
                        blowup_multiplicity(i, l - i, d, r, fp)
                        for i in range(r + 1)
                        if 0 <= l - i <= d - r
                    )
                    assert total == composition_count(l, 0, d, fp)

    def test_rank_law(self):
        for fp in FIELDS:
            for d, r in ((2, 1), (3, 1), (3, 2), (4, 2)):
                assert pushforward_linear_blowup(d, r, fp).rank() == fp.q**d

    def test_table_route_matches_entry_route(self):
        # The builder reads shared composition tables; the regression route
        # in verify recomputes every count entry by entry.
        for fp in FIELDS + [PrimePower(2, 64), PrimePower(3, 40)]:
            for d in range(2, 7):
                for r in range(1, d):
                    got = pushforward_linear_blowup(d, r, fp).lines
                    for i in range(r + 1):
                        for k in range(d - r + 1):
                            want = blowup_multiplicity(i, k, d, r, fp)
                            assert got.get((-i, -k), 0) == want, (fp, d, r, i, k)

    def test_tables_are_built_once_per_call(self, monkeypatch):
        calls = []
        table = catalog.composition_table
        monkeypatch.setattr(catalog, "composition_row", lambda *args: calls.append(args))
        monkeypatch.setattr(
            catalog, "composition_table", lambda *args: calls.append(args) or table(*args)
        )
        pushforward_linear_blowup(30, 10, PrimePower(2, 5))
        assert len(calls) == 3

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            pushforward_linear_blowup(3, 3, PrimePower(2, 1))


class TestVeroneseCone:
    def test_structure_sheaf_section_block(self):
        for fp in FIELDS:
            for d in (1, 2, 3):
                for eps in (1, 2, 3):
                    cone = as_map(pushforward_veronese_cone(d, eps, 0, 0, fp))
                    for k in range(d + 1):
                        # O(-k*H')
                        assert cone.get((0, -k), 0) == composition_count(k, 0, d, fp)

    def test_d1_matches_hirzebruch(self):
        # For d = 1 the blowup is F_eps with H = C0 + eps*f and H' = f, so
        # O(n*H + n'*H') is O(n*C0 + (n*eps + n')*f) at every residue pair.
        for fp in FIELDS + [PrimePower(p, e) for p, e in ((7, 1), (2, 3))]:
            q = fp.q
            for eps in range(1, 7):
                for n in range(q):
                    for nprime in range(q):
                        cone = pushforward_veronese_cone(1, eps, n, nprime, fp)
                        mapped = {}
                        for summand, mult in cone.items():
                            a, b = summand.cls.coords
                            mapped[(a, a * eps + b)] = mult
                        ruled = pushforward_hirzebruch(eps, n, n * eps + nprime, fp)
                        assert mapped == as_map(ruled), (fp, eps, n, nprime)

    def test_rank_law(self):
        for fp in FIELDS:
            for d in (1, 2, 3):
                for eps in (1, 2, 3, 4):
                    for n in (0, 1, fp.q - 1):
                        for nprime in (0, (eps - 1) % fp.q):
                            decomp = pushforward_veronese_cone(d, eps, n, nprime, fp)
                            assert decomp.rank() == fp.q ** (d + 1)

    def test_general_twist_matches_direct_loop(self):
        for fp in FIELDS:
            q = fp.q
            for d in (1, 2):
                for eps in (2, 3):
                    for n in (0, 1, q - 1):
                        for nprime in (0, eps - 1):
                            direct = {}
                            for j in range(n + 1):
                                fl, m = divmod(eps * j + nprime, q)
                                for l in range(d + 1):
                                    cnt = composition_count(l, m, d, fp)
                                    if cnt:
                                        key = (0, fl - l)
                                        direct[key] = direct.get(key, 0) + cnt
                            for j in range(1, q - n):
                                fl, m = divmod(-eps * j + nprime, q)
                                for l in range(d + 1):
                                    cnt = composition_count(l, m, d, fp)
                                    if cnt:
                                        key = (-1, fl - l + eps)
                                        direct[key] = direct.get(key, 0) + cnt
                            got = as_map(
                                pushforward_veronese_cone(d, eps, n, nprime, fp)
                            )
                            assert got == direct


class TestSegreCone:
    def test_q2_exceptional_block(self):
        fp = PrimePower(2, 1)
        decomp = pushforward_segre_cone(1, 1, 0, 0, 0, fp)
        got = as_map(decomp)
        # sigma_{0,0} = a(0,1;1)^2 = 4; the other exceptional entries vanish.
        assert got[(-1, 0, 0)] == 4
        assert (-1, -1, 0) not in got
        assert (-1, 0, -1) not in got
        assert (-1, -1, -1) not in got

    def test_trivial_multiplicity_one(self):
        for fp in FIELDS:
            decomp = pushforward_segre_cone(2, 1, 0, 0, 0, fp)
            assert decomp.trivial_multiplicity() == 1

    def test_rank_law(self):
        for fp in FIELDS:
            for r in (1, 2):
                for s in (1, 2):
                    for bundle in ((0, 0, 0), (1, 0, fp.q - 1)):
                        decomp = pushforward_segre_cone(r, s, *bundle, fp)
                        assert decomp.rank() == fp.q ** (r + s + 1)


# The families whose builders take a bundle: projspace, product, hirzebruch,
# veronese-cone and segre-cone.
TWISTED = [cls for cls in FAMILIES.values() if not cls.structure_only]


def draw_variety(data):
    cls = data.draw(st.sampled_from(TWISTED))
    try:
        return cls(*data.draw(st.tuples(*[st.integers(0, 3)] * len(cls.__slots__))))
    except InvalidParameterError:
        reject()


class TestEveryBundle:
    """Every builder with twists answers every integer bundle, by the
    projection formula: F^e_* O(D + q*M) is F^e_* O(D) twisted by M."""

    @given(st.sampled_from([PrimePower(p, e) for p, e in ((2, 1), (2, 3), (3, 2), (5, 1),
                                                          (5, 3), (7, 1), (7, 3), (2, 64),
                                                          (3, 40))]), st.data())
    def test_projection_formula(self, fp, data):
        variety = draw_variety(data)
        size = len(variety.bases[0])
        residues = data.draw(st.tuples(*[st.integers(0, fp.q - 1)] * size))
        shift = data.draw(st.tuples(*[st.integers(-3, 3) | st.integers(-10**12, 10**12)] * size))
        bundle = tuple(r + fp.q * m for r, m in zip(residues, shift))
        want = {tuple(map(add, coords, shift)): mult
                for coords, mult in build(variety, residues, fp).lines.items()}
        assert dict(build(variety, bundle, fp).lines) == want

    @given(st.sampled_from([fp for fp in FIELDS_E3 if fp.q <= 9] + [PrimePower(7, 1)]),
           st.data())
    def test_matches_thomsen_count(self, fp, data):
        # q < eps included: the Veronese cone blowup draws eps up to 3 at q = 2.
        variety = draw_variety(data)
        size = len(variety.bases[0])
        bundle = data.draw(st.tuples(*[st.integers(-3 * fp.q, 3 * fp.q)] * size))
        assert dict(build(variety, bundle, fp).lines) == thomsen_loop(variety, bundle, fp)


class TestQuadricSupport:
    def test_d3_p5(self):
        support = quadric_pushforward_support(3, PrimePower(5, 1))
        lines = sorted(s.cls.coords[0] for s in support.entries if isinstance(s, Line))
        spinors = sorted(s.j for s in support.entries if isinstance(s, Spinor))
        assert lines == [0, 1, 2]
        assert spinors == [2]

    def test_d3_p3_e1_excludes_top_spinor(self):
        support = quadric_pushforward_support(3, PrimePower(3, 1))
        assert not any(isinstance(s, Spinor) for s in support.entries)

    def test_d3_p2_has_s1(self):
        for e in (1, 2, 3):
            support = quadric_pushforward_support(3, PrimePower(2, e))
            assert Spinor(1) in support.entries

    def test_trivial_multiplicity_known(self):
        support = quadric_pushforward_support(4, PrimePower(3, 1))
        assert support.entries[Line(PicClass((0,), ("O(1)",)))] == 1
        assert support.support_only

    def test_d4_p2_e1_has_no_spinor(self):
        support = quadric_pushforward_support(4, PrimePower(2, 1))
        assert not any(isinstance(s, Spinor) for s in support.entries)

    def test_d4_p2_e2_has_only_s2(self):
        support = quadric_pushforward_support(4, PrimePower(2, 2))
        spinors = sorted(s.j for s in support.entries if isinstance(s, Spinor))
        assert spinors == [2]

    def test_low_dimension_rejected(self):
        with pytest.raises(InvalidParameterError):
            quadric_pushforward_support(2, PrimePower(3, 1))


class TestAntiEffectivity:
    # Pairing vector of each family's test curve (a line or fiber on which
    # the pullback of the ample polarization is checked), per basis.
    PAIRINGS = {
        (ProjSpace, ("H",)): (1,),
        (Product, ("H1", "H2")): (1, 1),
        (Hirzebruch, ("C0", "f")): (0, 1),
        (LinearBlowup, ("H", "H'")): (1, 1),
        (LinearBlowup, ("H", "E")): (1, 0),
        (VeroneseConeBlowup, ("H", "H'")): (1, 0),
        (SegreConeBlowup, ("H", "G1", "G2")): (1, 0, 0),
    }

    def test_nontrivial_classes_pair_nonpositively(self):
        fp = PrimePower(3, 1)
        decomps = [
            pushforward_projective_space(3, 0, fp),
            pushforward_product(2, 2, 0, 0, fp),
            pushforward_hirzebruch(2, 0, 0, fp),
            pushforward_linear_blowup(3, 1, fp),
            change_basis(pushforward_linear_blowup(3, 1, fp), ("H", "E")),
            pushforward_veronese_cone(2, 2, 0, 0, fp),
            pushforward_segre_cone(1, 2, 0, 0, 0, fp),
        ]
        for decomp in decomps:
            pairing = self.PAIRINGS[(type(decomp.variety), decomp.basis)]
            for summand, _ in decomp.items():
                if not any(summand.cls.coords):
                    continue
                value = sum(c * w for c, w in zip(summand.cls.coords, pairing))
                assert value <= 0, (decomp.variety, summand)

"""Tests for trace-kernel extraction, verdicts, and section-count identities."""

import itertools
import math
from fractions import Fraction
from operator import add

import pytest

from frobpush import families, positivity
from frobpush.catalog import pushforward_hirzebruch
from frobpush.combinat import PrimePower, composition_count
from frobpush.errors import InvalidParameterError, UnsupportedConeError
from frobpush.families import structure_pushforward
from frobpush.picard import (
    ConeP,
    Decomposition,
    Hirzebruch,
    Line,
    LinearBlowup,
    PicClass,
    Product,
    ProjSpace,
    Quadric,
    RationalNormalCone,
    SegreCone,
    SegreConeBlowup,
    Spinor,
    VeroneseConeBlowup,
    change_basis,
)
from frobpush.positivity import (
    VerdictStatus,
    ample_verdict,
    kernel_restriction_verdict,
    kernel_verdict,
    quadric_kernel_verdict,
    trace_kernel,
)
from frobpush.verify import determinant_twist_sum, volume_identity
from test_loop_oracles import cox_variables

FIELDS = [PrimePower(p, e) for p in (2, 3, 5) for e in (1, 2)]


class TestTraceKernel:
    def test_projective_space_display(self):
        for fp in FIELDS:
            for d in (1, 2, 3):
                kernel = trace_kernel(ProjSpace(d), fp)
                for i in range(1, d + 1):
                    expected = composition_count(i, 0, d, fp)
                    got = kernel.entries.get(Line(PicClass((i,), ("H",))), 0)
                    assert got == expected
                assert kernel.rank() == fp.q**d - 1

    def test_product_display(self):
        fp = PrimePower(2, 1)
        kernel = trace_kernel(Product(1, 1), fp)
        assert {s.cls.coords for s in kernel.entries} == {(1, 0), (0, 1), (1, 1)}

    def test_rank_across_catalog(self):
        fp = PrimePower(3, 1)
        cases = [
            ProjSpace(2),
            Product(1, 2),
            Hirzebruch(2),
            LinearBlowup(3, 1),
            VeroneseConeBlowup(2, 3),
            SegreConeBlowup(1, 1),
        ]
        for variety in cases:
            assert trace_kernel(variety, fp).rank() == fp.q**variety.dim - 1

    def test_rejects_noncatalog(self):
        with pytest.raises(InvalidParameterError):
            trace_kernel(Quadric(3), PrimePower(5, 1))
        # ``kernel_verdict`` answers the quadric by its support report.
        kernel, report = kernel_verdict(Quadric(3), PrimePower(5, 1))
        assert report == quadric_kernel_verdict(3, PrimePower(5, 1))
        assert kernel == report.support.remove_trivial()
        # Cones are refused.
        with pytest.raises(InvalidParameterError, match=(
                r"^ConeP\(kind=RationalNormalCone\(eps=2\)\) is not in the split catalog$")):
            kernel_verdict(ConeP(RationalNormalCone(2)), PrimePower(2, 1))



def one_summand(variety, coords) -> Decomposition:
    return Decomposition(variety, [(coords, 1)])


class TestClassify:
    # ``ample_verdict`` on one summand classifies that summand's class.
    def test_examples(self):
        verdict = ample_verdict(one_summand(ProjSpace(2), (1,)))
        assert verdict.status is VerdictStatus.AMPLE and verdict.witness is None
        verdict = ample_verdict(one_summand(Product(1, 1), (1, 0)))
        assert verdict.status is VerdictStatus.NEF_NOT_AMPLE
        assert verdict.witness.summand == Line(PicClass((1, 0), ("H1", "H2")))
        verdict = ample_verdict(one_summand(ProjSpace(2), (-1,)))
        assert verdict.status is VerdictStatus.NOT_NEF
        assert verdict.witness.summand == Line(PicClass((-1,), ("H",)))

    def test_unsupported_variety(self):
        # Only the split families with no restriction rule are classified.
        for variety in (Hirzebruch(1), LinearBlowup(2, 1), Quadric(3)):
            with pytest.raises(UnsupportedConeError):
                ample_verdict(one_summand(variety, (0,) * len(variety.bases[0])))

    def test_empty_decomposition_is_judged_by_its_family(self):
        # The family is checked before the summands, so an empty sum on an
        # unclassified variety is refused, not called ample.
        for variety in (Hirzebruch(1), LinearBlowup(2, 1), Quadric(3), ConeP(SegreCone(1, 1))):
            with pytest.raises(UnsupportedConeError):
                ample_verdict(Decomposition(variety, []))
        for variety in (ProjSpace(2), Product(1, 1)):
            verdict = ample_verdict(Decomposition(variety, []))
            assert verdict.status is VerdictStatus.AMPLE and verdict.witness is None


class TestAmpleVerdict:
    def test_projective_spaces_are_ample(self):
        for fp in FIELDS:
            for d in (1, 2, 3, 4):
                verdict = ample_verdict(trace_kernel(ProjSpace(d), fp))
                assert verdict.status is VerdictStatus.AMPLE

    def test_products_are_nef_not_ample(self):
        for fp in FIELDS[:3]:
            for r in (1, 2, 3):
                for s in (1, 2, 3):
                    verdict = ample_verdict(trace_kernel(Product(r, s), fp))
                    assert verdict.status is VerdictStatus.NEF_NOT_AMPLE
                    assert verdict.witness is not None
                    coords = verdict.witness.summand.cls.coords
                    assert min(coords) == 0 and max(coords) > 0

    def test_product_1_1_witness(self):
        verdict = ample_verdict(trace_kernel(Product(1, 1), PrimePower(2, 1)))
        assert verdict.witness.summand.cls.coords == (1, 0)

    def test_not_nef_with_witness(self):
        from frobpush.catalog import pushforward_veronese_cone
        from frobpush.restriction import restrict

        fp = PrimePower(3, 1)
        verdict = ample_verdict(restrict(pushforward_veronese_cone(2, 2, 0, 0, fp)))
        assert verdict.status is VerdictStatus.NOT_NEF
        assert min(verdict.witness.summand.cls.coords) < 0


class TestRestrictionVerdicts:
    def test_hirzebruch_witness(self):
        from frobpush.verify import hirzebruch_closed_multiplicities

        for fp in FIELDS:
            for eps in (1, 2, 3, 4, 5):
                verdict = kernel_restriction_verdict(Hirzebruch(eps), fp)
                assert verdict.status is VerdictStatus.NOT_AMPLE_WITH_WITNESS
                assert verdict.witness.divisor == "C0"
                if fp.q >= eps:
                    sigma = hirzebruch_closed_multiplicities(eps, fp)
                    assert verdict.witness.summand.cls.coords == (0,)
                    assert verdict.witness.multiplicity == 1 + sigma[eps - 1]

    def test_out_of_regime_fallback(self):
        # q=2 < eps=3: no extra trivial copy on the section, but a positive
        # summand restricts, so its dual witnesses non-ampleness.
        verdict = kernel_restriction_verdict(Hirzebruch(3), PrimePower(2, 1))
        assert verdict.status is VerdictStatus.NOT_AMPLE_WITH_WITNESS
        assert max(verdict.witness.summand.cls.coords) < 0

    def test_veronese_cone_below_eps(self):
        # A Picard-rank-2 P^1-bundle never has an ample trace kernel: at
        # q < eps too.
        for fp in (PrimePower(2, 1), PrimePower(3, 1), PrimePower(2, 2), PrimePower(5, 1)):
            for d in (1, 2, 3):
                for eps in range(fp.q + 1, 9):
                    verdict = kernel_restriction_verdict(VeroneseConeBlowup(d, eps), fp)
                    assert verdict.status is VerdictStatus.NOT_AMPLE_WITH_WITNESS, (fp, d, eps)
                    assert verdict.witness.divisor == "E"

    def test_one_trivial_copy_is_no_witness(self, monkeypatch):
        # A test double for F^e_* O: the restriction to E, (x, y) -> y, has
        # one trivial copy (the split one) and only negative summands
        # besides, so neither route finds a certificate.
        variety, fp = VeroneseConeBlowup(4, 1), PrimePower(2, 1)
        pushforward = Decomposition(variety, [((0, 0), 1), ((0, -1), 30), ((-16, -2), 1)])
        monkeypatch.setattr(positivity, "structure_pushforward", lambda *args: pushforward)
        verdict = kernel_restriction_verdict(variety, fp)
        assert verdict.status is VerdictStatus.UNKNOWN
        assert verdict.witness is None
        assert verdict.notes == ("no certificate found",)
        assert kernel_verdict(variety, fp) == (pushforward.remove_trivial().dual(), verdict)

    def test_blowup_witness(self):
        from frobpush.combinat import binom

        for fp in FIELDS:
            for d in (2, 3, 4):
                for r in range(1, d):
                    verdict = kernel_restriction_verdict(LinearBlowup(d, r), fp)
                    assert verdict.status is VerdictStatus.NOT_AMPLE_WITH_WITNESS
                    assert verdict.witness.divisor == "E"
                    expected = fp.q ** (r - 1) * binom(fp.q + d - r, d - r + 1)
                    assert verdict.witness.multiplicity == expected

    def test_veronese_witness(self):
        for fp in FIELDS:
            for d in (1, 2, 3):
                for eps in (1, 2, 3, 4):
                    if fp.q < eps:
                        continue
                    verdict = kernel_restriction_verdict(VeroneseConeBlowup(d, eps), fp)
                    assert verdict.status is VerdictStatus.NOT_AMPLE_WITH_WITNESS
                    assert verdict.witness.multiplicity >= 2

    def test_segre_witness(self):
        from frobpush.combinat import binom

        for fp in FIELDS:
            for r in (1, 2):
                for s in (1, 2):
                    verdict = kernel_restriction_verdict(SegreConeBlowup(r, s), fp)
                    assert verdict.status is VerdictStatus.NOT_AMPLE_WITH_WITNESS
                    expected = sum(
                        binom(j + r, r) * binom(j + s, s) for j in range(fp.q)
                    )
                    assert verdict.witness.multiplicity == expected


# Varieties of each split family, keyed by tag; ``split_tags`` reads the
# tags from the registry, so a split family missing here fails by name.
SPLIT = {
    "projspace": [ProjSpace(1), ProjSpace(3)],
    "product": [Product(1, 2)],
    "hirzebruch": [Hirzebruch(0), Hirzebruch(1), Hirzebruch(4)],
    "blowup-linear": [LinearBlowup(3, 1), LinearBlowup(4, 2)],
    "veronese-cone": [VeroneseConeBlowup(1, 2), VeroneseConeBlowup(2, 3)],
    "segre-cone": [SegreConeBlowup(1, 1), SegreConeBlowup(1, 2)],
}
HUGE = [PrimePower(2, 64), PrimePower(3, 40)]


def split_tags():
    return [tag for tag, cls in families.FAMILIES.items() if cls.split]


def routes(variety, fp):
    """The kernel and verdict, each from its own route."""
    kernel = trace_kernel(variety, fp)
    if families.family_of(variety).divisor is None:
        return kernel, ample_verdict(kernel)
    return kernel, kernel_restriction_verdict(variety, fp)


class TestKernelVerdict:
    @pytest.mark.parametrize("tag", split_tags())
    def test_matches_the_separate_routes(self, tag):
        for fp in FIELDS:
            for variety in SPLIT[tag]:
                assert kernel_verdict(variety, fp) == routes(variety, fp), (variety, fp)


class TestDichotomyAtHugeQ:
    # The paper's dichotomy on every split family of the registry at
    # q = 2^64 and 3^40: the trace kernel of P^d is ample, that of a product
    # nef and not ample, and that of each family with a distinguished
    # divisor is certified not ample by restricting to that divisor, which
    # keeps the rank of F^e_* O.
    EXPECTED = {"projspace": VerdictStatus.AMPLE, "product": VerdictStatus.NEF_NOT_AMPLE}

    @pytest.mark.parametrize("fp", HUGE, ids=str)
    def test_catalog(self, fp):
        from frobpush import restrict

        for tag in split_tags():
            divisor = families.FAMILIES[tag].divisor
            expected = self.EXPECTED.get(tag, VerdictStatus.NOT_AMPLE_WITH_WITNESS)
            for variety in SPLIT[tag]:
                kernel, verdict = kernel_verdict(variety, fp)
                assert (kernel, verdict) == routes(variety, fp), variety
                assert kernel.rank() == fp.q**variety.dim - 1
                assert verdict.status is expected, variety
                if divisor is not None:
                    assert verdict.witness.divisor == divisor
                    pushforward = structure_pushforward(variety, fp)
                    assert restrict(pushforward).rank() == pushforward.rank()


def canonical(variety) -> tuple[int, ...]:
    """K of a split ``variety`` in its default basis, from its declared
    bundle P(E) -> B: (-rank E, K_B + det E)."""
    base, twists = variety.bundle()
    det = [sum(column) for column in zip(*twists)]
    return (-len(twists), *(map(add, canonical(base), det) if base else ()))


def determinant(rows) -> int:
    """Leibniz's sum over the permutations of the columns."""
    return sum(
        (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        * math.prod(row[i] for row, i in zip(rows, perm))
        for perm in itertools.permutations(range(len(rows)))
    )


def cox_canonical(variety) -> tuple[int, ...]:
    """K of a split ``variety`` in its default basis, minus the sum of its
    Cox degrees as ``verify.cox_degrees`` reads them."""
    return tuple(-sum(column) for column in zip(*cox_variables(variety)))


def grr_determinant(variety, q: int) -> tuple[int, ...]:
    """det F^e_* O = q^(n-1)(q-1)/2 * K by Grothendieck-Riemann-Roch, n = dim,
    multiplied out before halving."""
    n = variety.dim
    return tuple(q ** (n - 1) * (q - 1) * k // 2 for k in cox_canonical(variety))


def default_det(decomp: Decomposition) -> tuple[int, ...]:
    basis = decomp.variety.bases[0]
    return (decomp if decomp.basis == basis else change_basis(decomp, basis)).det().coords


class TestDeterminantOracle:
    @pytest.mark.parametrize("tag", split_tags())
    def test_structure_pushforward(self, tag):
        for fp in [*FIELDS, *HUGE]:
            for variety in SPLIT[tag]:
                pushforward = structure_pushforward(variety, fp)
                assert pushforward.rank() == fp.q**variety.dim
                assert default_det(pushforward) == grr_determinant(variety, fp.q), (variety, fp)

    def test_canonical_classes(self):
        assert cox_canonical(ProjSpace(3)) == (-4,)
        assert cox_canonical(Product(1, 2)) == (-2, -3)
        assert cox_canonical(Hirzebruch(2)) == (-2, -4)

    @pytest.mark.parametrize("variety", [
        ProjSpace(1), ProjSpace(3), Product(1, 2), Hirzebruch(0), Hirzebruch(3),
        LinearBlowup(2, 1), LinearBlowup(4, 2), VeroneseConeBlowup(1, 3), VeroneseConeBlowup(2, 2),
        SegreConeBlowup(1, 1), SegreConeBlowup(2, 3),
    ], ids=repr)
    def test_cox_degrees(self, variety):
        # N - rank Pic = dim, some rank Pic of the degrees are a basis of
        # Pic, and minus their sum is K as ``canonical`` derives it.
        degrees = cox_variables(variety)
        rank = len(variety.bases[0])
        assert len(degrees) - rank == variety.dim
        assert any(abs(determinant(rows)) == 1 for rows in itertools.combinations(degrees, rank))
        assert cox_canonical(variety) == canonical(variety)

    def test_a_nontrivial_bundle_fails(self):
        # F^e_* O(f) on F_2 at q = 3 has the rank and the two trivial
        # summands of F^e_* O there, but its determinant is q*f + q(q-1)/2 * K.
        fp = PrimePower(3, 1)
        pushforward = pushforward_hirzebruch(2, 0, 1, fp)
        assert pushforward.rank() == 9 and pushforward.trivial_multiplicity() == 2
        assert default_det(pushforward) != grr_determinant(Hirzebruch(2), fp.q)
        assert default_det(structure_pushforward(Hirzebruch(2), fp)) == grr_determinant(
            Hirzebruch(2), fp.q)


class TestQuadricVerdict:
    def test_d3_p2_not_ample(self):
        report = quadric_kernel_verdict(3, PrimePower(2, 1))
        assert report.support_verdict.status is VerdictStatus.NOT_AMPLE_WITH_WITNESS
        assert report.support_verdict.witness.summand == Spinor(1)
        assert report.stated_verdict.status is VerdictStatus.NOT_AMPLE_WITH_WITNESS
        assert not report.disagreement

    def test_d3_p5_ample(self):
        report = quadric_kernel_verdict(3, PrimePower(5, 1))
        assert report.support_verdict.status is VerdictStatus.AMPLE
        assert report.stated_verdict.status is VerdictStatus.AMPLE
        assert not report.disagreement

    def test_d4_p3_e2_ample(self):
        report = quadric_kernel_verdict(4, PrimePower(3, 2))
        assert report.support_verdict.status is VerdictStatus.AMPLE
        assert not report.disagreement

    def test_e1_p3_note(self):
        report = quadric_kernel_verdict(3, PrimePower(3, 1))
        assert any("S(2)" in note for note in report.notes)
        assert report.support_verdict.status is VerdictStatus.AMPLE

    def test_witness_is_the_largest_spinor_twist_at_most_one(self, monkeypatch):
        def support(d, fp):
            items = [((0,), 1), ((1,), None), (Spinor(0), None), (Spinor(1), None),
                     (Spinor(2), None)]
            return Decomposition(Quadric(d), items, support_only=True)

        monkeypatch.setattr(positivity, "quadric_pushforward_support", support)
        report = quadric_kernel_verdict(3, PrimePower(2, 1))
        assert report.support_verdict.status is VerdictStatus.NOT_AMPLE_WITH_WITNESS
        assert report.support_verdict.witness.summand == Spinor(1)

    DISAGREE = ("support-derived verdict disagrees with the blanket p != 2 rule; "
                "the stated spinor windows exclude S(1) here")
    # (d, p) at e = 1: the kernel's line twists and spinor twists, then the
    # support and stated statuses with their witnesses' j, and the notes.
    PINNED = {
        (3, 2): ((1,), (1,), "NotAmpleWithWitness", 1, "NotAmpleWithWitness", 1, ()),
        (4, 2): ((2, 1), (), "Ample", None, "NotAmpleWithWitness", None, (DISAGREE,)),
        (5, 2): ((2, 1), (2,), "Ample", None, "NotAmpleWithWitness", None, (DISAGREE,)),
        (6, 2): ((3, 2, 1), (2,), "Ample", None, "NotAmpleWithWitness", None, (DISAGREE,)),
        (3, 3): ((2, 1), (), "Ample", None, "Ample", None,
                 ("spinor twist S(2) absent from the support at (e,p)=(1,3)",)),
        (4, 3): ((2, 1), (2,), "Ample", None, "Ample", None,
                 ("spinor twist S(3) absent from the support at (e,p)=(1,3)",)),
        (5, 3): ((3, 2, 1), (2,), "Ample", None, "Ample", None,
                 ("spinor twist S(4) absent from the support at (e,p)=(1,3)",)),
        (6, 3): ((4, 3, 2, 1), (), "Ample", None, "Ample", None,
                 ("spinor twist S(5) absent from the support at (e,p)=(1,3)",)),
    }

    @pytest.mark.parametrize("d, p", sorted(PINNED))
    def test_kernel_verdict_strips_the_trivial_summand_once(self, monkeypatch, d, p):
        calls = []
        remove_trivial = Decomposition.remove_trivial

        def counted(decomp):
            calls.append(decomp.variety)
            return remove_trivial(decomp)

        monkeypatch.setattr(Decomposition, "remove_trivial", counted)
        kernel, report = kernel_verdict(Quadric(d), PrimePower(p, 1))
        assert calls == [Quadric(d)]
        assert kernel == report.support.remove_trivial()
        lines, spinors, support, support_j, stated, stated_j, notes = self.PINNED[d, p]
        assert kernel.support_only
        assert dict(kernel.lines) == {(i,): None for i in lines}
        assert dict(kernel.spinors) == {j: None for j in spinors}
        for verdict, status, j in ((report.support_verdict, support, support_j),
                                   (report.stated_verdict, stated, stated_j)):
            assert verdict.status.value == status
            assert verdict.witness == (None if j is None else positivity.Witness(Spinor(j)))
        assert report.disagreement == (support != stated)
        assert report.notes == notes

    def test_p2_high_dimension_tension(self):
        for e in (1, 2):
            for d in (4, 5):
                report = quadric_kernel_verdict(d, PrimePower(2, e))
                assert report.support_verdict.status is VerdictStatus.AMPLE
                assert (
                    report.stated_verdict.status is VerdictStatus.NOT_AMPLE_WITH_WITNESS
                )
                assert report.disagreement


class TestDeterminantSum:
    def test_line_example(self):
        assert determinant_twist_sum(1, PrimePower(2, 1)).coords == (-1,)

    def test_plane_example(self):
        assert determinant_twist_sum(2, PrimePower(3, 1)).coords == (-18,)

    def test_closed_form_sweep(self):
        for fp in FIELDS:
            for d in (1, 2, 3):
                cls = determinant_twist_sum(d, fp)
                assert cls.coords == (-d * fp.q**d * (fp.q - 1) // 2,)


class TestVolumeIdentity:
    def test_line_deficit(self):
        for fp in FIELDS:
            holds, deficit = volume_identity(1, 1, fp)
            assert holds
            assert deficit == Fraction(fp.q - 1, fp.q)

    def test_identity_sweep(self):
        for p in (2, 3, 5):
            for e in (1, 2, 3):
                fp = PrimePower(p, e)
                for d in (1, 2, 3):
                    for a in (1, 2, 3):
                        holds, _ = volume_identity(d, a, fp)
                        assert holds

    def test_plane_example(self):
        fp = PrimePower(2, 1)
        holds, _ = volume_identity(2, 1, fp)
        assert holds
        assert composition_count(1, 0, 2, fp) == 3

    def test_line_deficit_strictly_increases(self):
        for p in (2, 3, 5):
            for a in (1, 2, 3):
                deficits = [
                    volume_identity(1, a, PrimePower(p, e))[1] for e in range(1, 5)
                ]
                assert all(x < y for x, y in zip(deficits, deficits[1:]))
                assert all(x < a for x in deficits)

    def test_higher_dimension_error_decreases(self):
        # The deficit approaches a^d but not monotonically from e=1 (for
        # instance d=2, a=2, p=2 starts at 9/2 and moves away to 39/8), so
        # the decay is asserted from e=2 on.
        for p in (2, 3, 5):
            for d in (2, 3):
                for a in (1, 2, 3):
                    errors = [
                        abs(volume_identity(d, a, PrimePower(p, e))[1] - a**d)
                        for e in range(2, 5)
                    ]
                    assert all(x > y for x, y in zip(errors, errors[1:]))

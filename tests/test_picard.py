"""Tests for lattice classes, descriptors, and decomposition algebra."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from frobpush.catalog import (
    pushforward_hirzebruch,
    pushforward_projective_space,
)
from frobpush.combinat import PrimePower, composition_count
from frobpush.errors import (
    DeterminantUnsupportedError,
    InvalidParameterError,
    LatticeMismatchError,
    NotFSplitError,
    RankUndefinedError,
)
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
    VeroneseCone,
    VeroneseConeBlowup,
    change_basis,
)
from frobpush.positivity import QuadricKernelReport, Verdict, VerdictStatus, Witness
from frobpush.value import Value
from frobpush.verify import CheckResult

H = ("H",)


def line(coords, basis=H):
    return Line(PicClass(tuple(coords), basis))


class TestPicClass:
    def test_arithmetic(self):
        # Negation is the one operation on classes; sums of classes are
        # formed on coordinate tuples inside ``Decomposition``.
        a = PicClass((1, 2), ("C0", "f"))
        assert -a == PicClass((-1, -2), ("C0", "f"))
        assert -(-a) == a

    def test_zero(self):
        z = PicClass.zero(("H1", "H2"))
        assert z.coords == (0, 0)

    def test_length_mismatch(self):
        with pytest.raises(LatticeMismatchError):
            PicClass((1, 2), ("H",))

    def test_basis_mismatch(self):
        # A twist by a class of another lattice is refused.
        with pytest.raises(LatticeMismatchError):
            Decomposition(ProjSpace(1), [(line([1]), 1)]).twist(PicClass((1,), ("L",)))

    def test_decomposition_refuses_a_foreign_basis(self):
        with pytest.raises(LatticeMismatchError,
                           match=r"^basis \('X',\) is not a basis of ProjSpace\(d=2\)$"):
            Decomposition(ProjSpace(2), [], basis=("X",))


class TestDescriptors:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ProjSpace(0)
        with pytest.raises(InvalidParameterError):
            Product(0, 1)
        with pytest.raises(InvalidParameterError):
            Hirzebruch(-1)
        with pytest.raises(InvalidParameterError):
            LinearBlowup(2, 2)
        with pytest.raises(InvalidParameterError):
            LinearBlowup(1, 1)
        with pytest.raises(InvalidParameterError):
            VeroneseConeBlowup(0, 1)
        with pytest.raises(InvalidParameterError):
            SegreConeBlowup(1, 0)
        with pytest.raises(InvalidParameterError):
            Quadric(2)

    def test_dimensions(self):
        assert ProjSpace(3).dim == 3
        assert Product(2, 1).dim == 3
        assert Hirzebruch(5).dim == 2
        assert LinearBlowup(4, 2).dim == 4
        assert VeroneseConeBlowup(2, 3).dim == 3
        assert SegreConeBlowup(2, 2).dim == 5
        assert ConeP(SegreCone(1, 2)).dim == 4

    def test_quadric_spinor_rank(self):
        assert Quadric(3).spinor_rank == 2
        assert Quadric(4).spinor_rank == 4
        assert Quadric(7).spinor_rank == 8


class TestDecompositionBasics:
    def test_coalesces_duplicates(self):
        decomp = Decomposition(ProjSpace(1), [(line([1]), 2), (line([1]), 3)])
        assert decomp.multiplicity(line([1])) == 5

    def test_drops_zero_multiplicities(self):
        decomp = Decomposition(ProjSpace(1), [(line([1]), 0), (line([0]), 1)])
        assert line([1]) not in decomp.entries

    def test_rejects_negative_multiplicity(self):
        with pytest.raises(InvalidParameterError):
            Decomposition(ProjSpace(1), [(line([1]), -1)])

    def test_multiset_equality(self):
        a = Decomposition(ProjSpace(1), [(line([1]), 2), (line([0]), 1)])
        b = Decomposition(ProjSpace(1), [(line([0]), 1), (line([1]), 1), (line([1]), 1)])
        assert a == b

    def test_unknown_needs_support_flag(self):
        with pytest.raises(InvalidParameterError):
            Decomposition(Quadric(3), [(Spinor(1), None)])
        supported = Decomposition(Quadric(3), [(Spinor(1), None)], support_only=True)
        assert supported.support_only

    def test_spinor_only_on_quadrics(self):
        with pytest.raises(InvalidParameterError):
            Decomposition(ProjSpace(2), [(Spinor(1), 1)])

    def test_basis_mismatch(self):
        with pytest.raises(LatticeMismatchError):
            Decomposition(ProjSpace(1), [(line([1], basis=("L",)), 1)])


C0F = ("C0", "f")
O1 = ("O(1)",)

# Each value type, built twice from equal (not identical) arguments, with
# the fields that must refuse assignment and the repr it must keep.
VALUES = {
    "PicClass": (
        lambda: PicClass((1, -2), C0F),
        lambda: PicClass([1, -2], list(C0F)),
        ("coords", "basis"),
        "PicClass((1, -2), basis=('C0', 'f'))",
    ),
    "Line": (
        lambda: Line(PicClass((1, -2), C0F)),
        lambda: Line(PicClass([1, -2], list(C0F))),
        ("cls",),
        "Line(cls=PicClass((1, -2), basis=('C0', 'f')))",
    ),
    "Spinor": (lambda: Spinor(2), lambda: Spinor(2), ("j",), "Spinor(j=2)"),
    "Decomposition": (
        lambda: Decomposition(
            Quadric(3),
            [(line([0], O1), 1), (line([-1], O1), 3), (Spinor(1), None)],
            support_only=True,
        ),
        lambda: Decomposition(
            Quadric(3),
            [(Spinor(1), None), (line([-1], O1), 2), (line([0], O1), 1), (line([-1], O1), 1)],
            basis=list(O1),
            support_only=True,
        ),
        ("variety", "basis", "entries", "support_only"),
        "Decomposition(Quadric(d=3), {Line(cls=PicClass((0,), basis=('O(1)',))): 1, "
        "Line(cls=PicClass((-1,), basis=('O(1)',))): 3, Spinor(j=1): ?})",
    ),
}

# The descriptors and records, built positionally and then by keyword with
# every default left out.
for cls, args, fields, text in [
    (PrimePower, (3, 2), ("p", "e"), "PrimePower(p=3, e=2, q=9)"),
    (ProjSpace, (2,), ("d",), "ProjSpace(d=2)"),
    (Product, (1, 2), ("r", "s"), "Product(r=1, s=2)"),
    (Hirzebruch, (3,), ("eps",), "Hirzebruch(eps=3)"),
    (LinearBlowup, (3, 1), ("d", "r"), "LinearBlowup(d=3, r=1)"),
    (VeroneseConeBlowup, (2, 3), ("d", "eps"), "VeroneseConeBlowup(d=2, eps=3)"),
    (SegreConeBlowup, (1, 2), ("r", "s"), "SegreConeBlowup(r=1, s=2)"),
    (Quadric, (4,), ("d",), "Quadric(d=4)"),
    (RationalNormalCone, (3,), ("eps",), "RationalNormalCone(eps=3)"),
    (VeroneseCone, (2, 3), ("d", "eps"), "VeroneseCone(d=2, eps=3)"),
    (SegreCone, (1, 2), ("r", "s"), "SegreCone(r=1, s=2)"),
    (ConeP, (SegreCone(1, 2),), ("kind",), "ConeP(kind=SegreCone(r=1, s=2))"),
]:
    VALUES[cls.__name__] = (
        lambda cls=cls, args=args: cls(*args),
        lambda cls=cls, args=args, fields=fields: cls(**dict(zip(fields, args))),
        fields + (("q",) if cls is PrimePower else ()),
        text,
    )

_REPORT = (
    Decomposition(Quadric(3), [(Spinor(1), None)], support_only=True),
    Verdict(VerdictStatus.NOT_AMPLE_WITH_WITNESS, Witness(Spinor(1))),
    Verdict(VerdictStatus.AMPLE),
    True,
    ("a note",),
)
VALUES.update({
    "Witness": (
        lambda: Witness(Spinor(1), None, None),
        lambda: Witness(summand=Spinor(1)),
        ("summand", "divisor", "multiplicity"),
        "Witness(summand=Spinor(j=1), divisor=None, multiplicity=None)",
    ),
    "Verdict": (
        lambda: Verdict(VerdictStatus.NOT_NEF, None, ()),
        lambda: Verdict(status=VerdictStatus.NOT_NEF),
        ("status", "witness", "notes"),
        "Verdict(status=<VerdictStatus.NOT_NEF: 'NotNef'>, witness=None, notes=())",
    ),
    "QuadricKernelReport": (
        lambda: QuadricKernelReport(*_REPORT),
        lambda: QuadricKernelReport(
            support=_REPORT[0], support_verdict=_REPORT[1], stated_verdict=_REPORT[2],
            disagreement=True, notes=("a note",),
        ),
        ("support", "support_verdict", "stated_verdict", "disagreement", "notes"),
        "QuadricKernelReport(support=Decomposition(Quadric(d=3), {Spinor(j=1): ?}), "
        "support_verdict=Verdict(status=<VerdictStatus.NOT_AMPLE_WITH_WITNESS: "
        "'NotAmpleWithWitness'>, witness=Witness(summand=Spinor(j=1), divisor=None, "
        "multiplicity=None), notes=()), stated_verdict=Verdict(status=<VerdictStatus.AMPLE: "
        "'Ample'>, witness=None, notes=()), disagreement=True, notes=('a note',))",
    ),
    # Equal whatever the check's wall time.
    "CheckResult": (
        lambda: CheckResult("volume(2,1,1,1)", "PASS", "deficit 1", 0.25),
        lambda: CheckResult(key="volume(2,1,1,1)", status="PASS", detail="deficit 1", seconds=9.0),
        ("key", "status", "detail", "seconds"),
        "CheckResult(key='volume(2,1,1,1)', status='PASS', detail='deficit 1', seconds=0.25)",
    ),
})
# A decomposition's entries are a dict, so neither it nor a record holding
# one is a dict key.
HASHABLE = sorted(set(VALUES) - {"Decomposition", "QuadricKernelReport"})


def test_every_value_type_is_covered():
    assert {cls.__name__ for cls in Value.__subclasses__()} <= set(VALUES)


@pytest.mark.parametrize("name", sorted(VALUES))
class TestValueTypes:
    def test_equal_values_are_equal(self, name):
        make, make_again, _, _ = VALUES[name]
        a, b = make(), make_again()
        assert a is not b and a == b and not a != b

    def test_equal_values_hash_equal(self, name):
        make, make_again, _, _ = VALUES[name]
        if name in HASHABLE:
            assert hash(make()) == hash(make_again())
            assert {make(): 1}[make_again()] == 1
        else:
            with pytest.raises(TypeError):
                hash(make())

    def test_hash_is_that_of_the_fields(self, name):
        make, _, names, _ = VALUES[name]
        if name not in HASHABLE:
            return
        value = make()
        if name == "CheckResult":  # the wall time is no part of the identity
            names = names[:-1]
        fields = tuple(getattr(value, field) for field in names)
        assert hash(value) == hash(fields)

    def test_fields_are_frozen(self, name):
        make, _, names, _ = VALUES[name]
        value = make()
        for field_name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, field_name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, field_name)
        assert value == make()

    def test_pickle_and_deepcopy_round_trip(self, name):
        make, _, _, _ = VALUES[name]
        value = make()
        for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert copied == value
            if name in HASHABLE:
                assert hash(copied) == hash(value)

    def test_repr(self, name):
        make, _, _, text = VALUES[name]
        assert repr(make()) == text


def test_line_is_not_its_class():
    cls = PicClass((1, -2), C0F)
    assert Line(cls) != cls and cls != Line(cls)
    assert Line(cls) != Line(PicClass((1, -2), ("C0", "g")))


def test_unpickled_class_rehashes_in_this_process():
    """A class pickled under other string hashes is a working dict key here."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import pickle, sys; from frobpush.picard import Line, PicClass; "
        "sys.stdout.buffer.write(pickle.dumps(Line(PicClass((1, -2), ('C0', 'f')))))"
    )
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="1")
    dumped = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            check=True).stdout
    loaded = pickle.loads(dumped)
    fresh = Line(PicClass((1, -2), C0F))
    assert hash(loaded) == hash(fresh) and hash(loaded.cls) == hash(fresh.cls)
    assert {fresh: 1}[loaded] == 1


class TestRank:
    def test_projective_space_rank(self):
        fp = PrimePower(3, 1)
        assert pushforward_projective_space(2, 0, fp).rank() == 9

    def test_empty_rank(self):
        assert Decomposition(ProjSpace(1), []).rank() == 0

    def test_hirzebruch_rank(self):
        fp = PrimePower(3, 1)
        assert pushforward_hirzebruch(2, 0, 0, fp).rank() == 9

    def test_spinor_rank_contribution(self):
        decomp = Decomposition(Quadric(4), [(Spinor(2), 3)])
        assert decomp.rank() == 3 * 4

    def test_support_only_rank_undefined(self):
        decomp = Decomposition(Quadric(3), [(Spinor(1), None)], support_only=True)
        with pytest.raises(RankUndefinedError):
            decomp.rank()


class TestDual:
    def test_involution(self):
        fp = PrimePower(2, 2)
        decomp = pushforward_hirzebruch(1, 3, -2, fp)
        assert decomp.dual().dual() == decomp

    def test_spinor_involution(self):
        decomp = Decomposition(Quadric(3), [(Spinor(2), None)], support_only=True)
        dualized = decomp.dual()
        assert Spinor(-1) in dualized.entries
        assert dualized.dual() == decomp

    def test_dual_of_structure_pushforward(self):
        fp = PrimePower(3, 1)
        for d in (1, 2, 3):
            dualized = pushforward_projective_space(d, 0, fp).dual()
            for i in range(d + 1):
                expected = composition_count(i, 0, d, fp)
                assert dualized.entries.get(line([i]), 0) == expected

    def test_rank_and_det_laws(self):
        fp = PrimePower(2, 2)
        decomp = pushforward_hirzebruch(2, 1, 1, fp)
        assert decomp.dual().rank() == decomp.rank()
        assert decomp.dual().det().coords == (-decomp.det()).coords


class TestTwist:
    def test_identity_and_inverse(self):
        fp = PrimePower(3, 1)
        decomp = pushforward_projective_space(2, 1, fp)
        zero = PicClass.zero(("H",))
        assert decomp.twist(zero) == decomp
        c = PicClass((4,), ("H",))
        assert decomp.twist(c).twist(-c) == decomp

    def test_twist_shifts_classes(self):
        fp = PrimePower(2, 1)
        kernel_dual = pushforward_projective_space(2, 0, fp).remove_trivial()
        shifted = kernel_dual.twist(PicClass((1,), ("H",)))
        assert shifted.entries.get(line([0]), 0) == kernel_dual.entries.get(line([-1]), 0)

    def test_twist_preserves_rank(self):
        fp = PrimePower(3, 1)
        decomp = pushforward_hirzebruch(1, 0, 0, fp)
        twisted = decomp.twist(PicClass((2, -1), ("C0", "f")))
        assert twisted.rank() == decomp.rank()

    def test_spinor_twist(self):
        decomp = Decomposition(Quadric(3), [(Spinor(1), None)], support_only=True)
        twisted = decomp.twist(PicClass((2,), ("O(1)",)))
        assert Spinor(3) in twisted.entries

    def test_lattice_mismatch(self):
        fp = PrimePower(2, 1)
        decomp = pushforward_projective_space(1, 0, fp)
        with pytest.raises(LatticeMismatchError):
            decomp.twist(PicClass((1, 0), ("C0", "f")))


class TestDet:
    def test_line_example(self):
        fp = PrimePower(2, 1)
        assert pushforward_projective_space(1, 0, fp).det().coords == (-1,)
        assert pushforward_projective_space(1, 1, fp).det().coords == (0,)

    def test_empty_det(self):
        assert Decomposition(ProjSpace(2), []).det().coords == (0,)

    def test_single_entry(self):
        decomp = Decomposition(ProjSpace(1), [(line([3]), 5)])
        assert decomp.det().coords == (15,)

    def test_spinor_unsupported(self):
        decomp = Decomposition(Quadric(3), [(Spinor(2), 1)])
        with pytest.raises(DeterminantUnsupportedError):
            decomp.det()

    def test_support_only_undefined(self):
        decomp = Decomposition(Quadric(3), [(line([1], ("O(1)",)), None)], support_only=True)
        with pytest.raises(RankUndefinedError):
            decomp.det()


class TestRemoveTrivial:
    def test_kernel_dual_of_projective_space(self):
        fp = PrimePower(2, 2)
        for d in (1, 2, 3):
            stripped = pushforward_projective_space(d, 0, fp).remove_trivial()
            assert stripped.rank() == fp.q**d - 1
            assert line([0]) not in stripped.entries

    def test_single_trivial_becomes_empty(self):
        decomp = Decomposition(ProjSpace(1), [(line([0]), 1)])
        assert decomp.remove_trivial() == Decomposition(ProjSpace(1), [])

    def test_missing_trivial_errors(self):
        decomp = Decomposition(ProjSpace(1), [(line([-1]), 5)])
        with pytest.raises(NotFSplitError):
            decomp.remove_trivial()

    def test_trivial_of_unknown_multiplicity_errors(self):
        decomp = Decomposition(Quadric(3), [((0,), None)], support_only=True)
        with pytest.raises(NotFSplitError,
                           match="^trivial summand present but with unknown multiplicity$"):
            decomp.remove_trivial()

    @given(st.integers(2, 9))
    def test_drops_rank_by_one(self, mult):
        decomp = Decomposition(ProjSpace(1), [(line([0]), mult), (line([-1]), 1)])
        assert decomp.remove_trivial().rank() == decomp.rank() - 1


class TestChangeBasis:
    def test_involution(self):
        fp = PrimePower(3, 1)
        from frobpush.catalog import pushforward_linear_blowup

        decomp = pushforward_linear_blowup(3, 1, fp)
        flipped = change_basis(decomp, ("H", "E"))
        assert flipped.basis == ("H", "E")
        assert change_basis(flipped, ("H", "H'")) == decomp

    def test_relation(self):
        # H' = H - E: the class -H' must read as (-1, 1) against ("H", "E").
        decomp = Decomposition(
            LinearBlowup(2, 1), [(Line(PicClass((0, -1), ("H", "H'"))), 1)]
        )
        flipped = change_basis(decomp, ("H", "E"))
        assert Line(PicClass((-1, 1), ("H", "E"))) in flipped.entries

    def test_only_on_blowups(self):
        fp = PrimePower(2, 1)
        with pytest.raises(LatticeMismatchError):
            change_basis(pushforward_projective_space(1, 0, fp), ("H", "E"))

    def test_refuses_a_basis_the_blowup_lacks(self):
        from frobpush.catalog import pushforward_linear_blowup

        decomp = pushforward_linear_blowup(3, 1, PrimePower(2, 1))
        with pytest.raises(LatticeMismatchError,
                           match=r"^\('H', 'X'\) is not a basis of LinearBlowup\(d=3, r=1\)$"):
            change_basis(decomp, ("H", "X"))

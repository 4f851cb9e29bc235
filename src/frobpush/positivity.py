"""Trace-kernel extraction and ample/nef verdicts.

The trace kernel is the rank q^dim - 1 complement of the trivial summand in
the dual pushforward of the structure sheaf.  On projective spaces and their
products, the split families that declare no divisor, the ample and nef
cones are coordinate-wise, so a direct sum of line bundles is classified
summand by summand.  On the others non-ampleness is certified by restricting
to the divisor the family declares, which ``restrict`` reads and the witness
names, and exhibiting a trivial (or negative) summand in the restricted
kernel.  ``kernel_verdict`` builds F^e_* O once and returns the kernel
with the verdict of its family's route; on the quadric, known by its
support, the verdict is ``quadric_kernel_verdict``'s report.  The
determinant and section-count identities on P^d are regression data, kept
in ``verify``; the Grothendieck-Riemann-Roch determinant of F^e_* O on
every split family is a test oracle.
"""

from __future__ import annotations

import enum

from . import restriction
from .catalog import quadric_pushforward_support
from .combinat import PrimePower
from .errors import InvalidParameterError, UnsupportedConeError
from .families import FAMILIES, family_of, structure_pushforward
from .picard import Decomposition, Line, PicClass, Spinor, Summand, VarietyDescriptor
from .value import Value


class VerdictStatus(str, enum.Enum):
    AMPLE = "Ample"
    NEF_NOT_AMPLE = "NefNotAmple"
    NOT_NEF = "NotNef"
    NOT_AMPLE_WITH_WITNESS = "NotAmpleWithWitness"
    UNKNOWN = "Unknown"


class Witness(Value):
    """The summand (and, for restrictions, the divisor) certifying a verdict."""

    __slots__ = ("summand", "divisor", "multiplicity")

    def __init__(self, summand: Summand, divisor: str | None = None,
                 multiplicity: int | None = None) -> None:
        self._set(summand, divisor, multiplicity)


class Verdict(Value):
    __slots__ = ("status", "witness", "notes")

    def __init__(self, status: VerdictStatus, witness: Witness | None = None,
                 notes: tuple[str, ...] = ()) -> None:
        self._set(status, witness, notes)


# The families ``kernel_verdict`` answers: the split ones and those that
# declare a ``spinor_rank`` (the quadric).
KERNEL_FAMILIES = tuple(tag for tag, cls in FAMILIES.items()
                        if cls.split or cls.spinor_rank is not None)


def trace_kernel(variety: VarietyDescriptor, fp: PrimePower) -> Decomposition:
    """The trace kernel: dual of F^e_* O with one trivial summand removed.

    Rank q^dim - 1 on every catalog family.
    """
    if not family_of(variety).split:
        raise InvalidParameterError(f"{variety} is not in the split catalog")
    return structure_pushforward(variety, fp).remove_trivial().dual()


def kernel_verdict(
    variety: VarietyDescriptor, fp: PrimePower
) -> tuple[Decomposition, Verdict | QuadricKernelReport]:
    """The trace kernel of a ``KERNEL_FAMILIES`` member at ``fp`` and its
    verdict.  On a split family both come from one F^e_* O: ``ample_verdict``
    of the kernel where the family declares no divisor, else the restriction
    certificate on that divisor.  On a family with a ``spinor_rank`` they are
    the support of ``quadric_kernel_verdict``'s report, less its trivial
    summand, and the report itself."""
    family = family_of(variety)
    if family.spinor_rank is not None:
        report = quadric_kernel_verdict(variety.d, fp)
        return report.support.remove_trivial(), report
    if not family.split:
        raise InvalidParameterError(f"{variety} is not in the split catalog")
    pushforward = structure_pushforward(variety, fp)
    kernel = pushforward.remove_trivial().dual()
    if family.divisor is None:
        return kernel, ample_verdict(kernel)
    return kernel, _restriction_certificate(pushforward)


def ample_verdict(decomp: Decomposition) -> Verdict:
    """Classify a direct sum of line bundles on P^d or P^r x P^s.

    Ample iff every summand is; nef-not-ample if all summands are nef with
    some non-ample one; otherwise not nef.  The witness records the first
    offending summand in sorted order; it is the only ``Line`` built.
    """
    family = family_of(decomp.variety)
    if not family.split or family.divisor is not None:
        raise UnsupportedConeError(
            f"no ample/nef cone implemented for {decomp.variety}; only projective "
            f"spaces and their products are classified"
        )
    # The sign of a summand's least coordinate: 1 ample, 0 nef not ample, -1 not nef.
    worst, offender = 1, None
    for coords in sorted(decomp.lines, reverse=True):
        sign = (min(coords) > 0) - (min(coords) < 0)
        if sign < worst:
            worst, offender = sign, coords
    if offender is None:
        return Verdict(VerdictStatus.AMPLE)
    status = VerdictStatus.NEF_NOT_AMPLE if worst == 0 else VerdictStatus.NOT_NEF
    return Verdict(status, Witness(Line(PicClass(offender, decomp.basis))))


def kernel_restriction_verdict(variety: VarietyDescriptor, fp: PrimePower) -> Verdict:
    """Certify that the trace kernel is not ample by restricting F^e_* O to
    the family's distinguished divisor (see ``_restriction_certificate``);
    ``restrict`` refuses a family that declares none."""
    return _restriction_certificate(structure_pushforward(variety, fp))


def _restriction_certificate(pushforward: Decomposition) -> Verdict:
    """The verdict on the trace kernel read from F^e_* O restricted to the
    divisor its family declares, which the witness names.

    A trivial summand of multiplicity >= 2 there (one copy beyond the
    canonical split copy) puts a trivial summand in the restricted dual
    kernel.  When the extra trivial copy is absent (ruled surfaces at
    q < eps, say), a positive-degree summand of the restriction serves
    instead: its dual is a negative summand of the restricted kernel.
    """
    restricted = restriction.restrict(pushforward)
    divisor = pushforward.variety.divisor
    mult = restricted.lines.get((0,) * len(restricted.basis), 0) or 0
    if mult >= 2:
        return Verdict(
            VerdictStatus.NOT_AMPLE_WITH_WITNESS,
            Witness(Line(restricted.trivial_class()), divisor=divisor, multiplicity=mult),
        )
    for coords, smult in sorted(restricted.lines.items(), reverse=True):
        if max(coords) < 0 or not any(coords):
            continue
        # O(c) with some coordinate >= 0 restricts the kernel dual, so the
        # kernel itself picks up the non-ample O(-c).
        return Verdict(
            VerdictStatus.NOT_AMPLE_WITH_WITNESS,
            Witness(Line(-PicClass(coords, restricted.basis)), divisor=divisor,
                    multiplicity=smult),
            notes=("restricted kernel contains the dual of a non-negative summand",),
        )
    return Verdict(VerdictStatus.UNKNOWN, notes=("no certificate found",))


class QuadricKernelReport(Value):
    """Both verdicts on the quadric trace kernel, plus the support data.

    ``support_verdict`` is derived from the computed summand support
    (spinor twist S(1) is globally generated but not ample; S(j) for j >= 2
    and O(i) for i >= 1 are ample).  ``stated_verdict`` is the blanket rule
    "ample iff p != 2".  The two can disagree for p = 2, d >= 4, where the
    stated spinor windows exclude S(1); ``disagreement`` makes that visible.
    """

    __slots__ = ("support", "support_verdict", "stated_verdict", "disagreement", "notes")

    def __init__(self, support: Decomposition, support_verdict: Verdict,
                 stated_verdict: Verdict, disagreement: bool, notes: tuple[str, ...]) -> None:
        self._set(support, support_verdict, stated_verdict, disagreement, notes)


def quadric_kernel_verdict(d: int, fp: PrimePower) -> QuadricKernelReport:
    """Ampleness report for the trace kernel of the d-dimensional quadric."""
    support = quadric_pushforward_support(d, fp)
    notes: list[str] = []
    # The first spinor twist S(j) with j <= 1, by descending j.  The kernel's
    # spinors are the support's: removing the trivial summand strips only O.
    offending = max((j for j in support.spinors if j <= 1), default=None)
    if offending is None:
        support_verdict = Verdict(VerdictStatus.AMPLE)
    else:
        support_verdict = Verdict(
            VerdictStatus.NOT_AMPLE_WITH_WITNESS, Witness(Spinor(offending))
        )
    if fp.p != 2:
        stated_verdict = Verdict(VerdictStatus.AMPLE)
        if d - 1 not in support.spinors:
            notes.append(
                f"spinor twist S({d - 1}) absent from the support at "
                f"(e,p)=({fp.e},{fp.p})"
            )
    else:
        stated_verdict = Verdict(
            VerdictStatus.NOT_AMPLE_WITH_WITNESS,
            Witness(Spinor(1)) if offending is not None else None,
        )
    disagreement = support_verdict.status != stated_verdict.status
    if disagreement:
        notes.append(
            "support-derived verdict disagrees with the blanket p != 2 rule; "
            "the stated spinor windows exclude S(1) here"
        )
    return QuadricKernelReport(
        support, support_verdict, stated_verdict, disagreement, tuple(notes)
    )

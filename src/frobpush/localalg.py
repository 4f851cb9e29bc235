"""Pushforwards on the singular cones, F-splitting numbers, and F-signatures.

Each cone kind has one route to its vertex-local class counts
{i: multiplicity of i*L}, and every function branches only on whether the
kind is the Segre cone.  The rational normal cone of degree eps is
VeroneseCone(1, eps) in every formula, and for both kinds dim - 1 is the
base dimension.  These Veronese-type cones are affine toric: the cone over
P^d of degree eps is the ring of invariants of mu_eps acting diagonally on
d + 1 variables, so F^e_* of its local ring counts the monomials of the box
[0, q-1]^(d+1) by the residue of their degree modulo eps (Singh, J. Pure
Appl. Algebra 196, 2005).  Those counts are a cyclic convolution power in
Z^eps, taken in O(d * eps) operations on integers below eps^(d+1) and one
power of q, and they answer at every q, q < eps included.  The classes are
Weil classes, only meaningful modulo eps: eps times the ruling L is
Cartier.  The Segre cone counts each class of its affine chart, where
L1 + L2 ~ 0, as pairs of box points whose degrees differ by a multiple of
q: one composition row of r + s + 2 parts.  ``cone_pushforward`` renders
the counts as a decomposition.  The count of the trivial class is the e-th
F-splitting number; divided by q^dim it is the e-th convergent of the
F-signature.  Closed forms for these counts are regression data, checked in
``verify`` with the box count itself; the tests also check the
Veronese-type counts against the blowup at the vertex, at every q.
"""

from __future__ import annotations

import math

from .combinat import PrimePower, composition_row, eulerian
from .picard import ConeKind, ConeP, Decomposition, SegreCone


def _veronese_counts(d: int, eps: int, fp: PrimePower) -> dict[int, int]:
    """Vertex-local counts of the Veronese-type cone, classes -k*L for
    0 <= k <= eps-1, zeros dropped.

    A monomial of the box [0, q-1]^(d+1) whose degree is r modulo eps lies
    in the class -k*L with k*q = r modulo eps.  The number of box points of
    each degree residue is the (d+1)-fold cyclic convolution power of
    c_r = #{0 <= j < q : j = r mod eps}.  With q = a*eps + b, c is the
    constant a plus the indicator of [0, b).  A constant vector convolved
    with anything is constant, so the power of c is the power of the
    indicator plus a constant, which the totals q^(d+1) and b^(d+1) fix.
    """
    q = fp.q
    b = q % eps
    power = [1] * b + [0] * (eps - b)
    for _ in range(d):
        # Convolving with the indicator sums the b entries ending at r,
        # cyclically: a sliding window.
        window = sum(power[eps - b :])
        step = []
        for r in range(eps):
            window += power[r] - power[r - b]
            step.append(window)
        power = step
    shift = (q ** (d + 1) - b ** (d + 1)) // eps
    mults = [shift + power[k * q % eps] for k in range(eps)]
    return {-k: mult for k, mult in enumerate(mults) if mult}


def _segre_counts(r: int, s: int, fp: PrimePower) -> dict[int, int]:
    """Vertex-local counts of the classes i*L, -r <= i <= s, on the Segre cone.

    The count of i*L is the number of pairs (u, v) of points of the boxes
    [0, q-1]^(r+1) and [0, q-1]^(s+1) with |v| = |u| + i*q.  Reflecting v to
    (q-1) - v makes it the number of (r+s+2)-tuples in [0, q-1] summing to
    (s+1)(q-1) - i*q, so every class reads one composition row of
    r + s + 2 parts, at the residue of (s+1)(q-1).
    """
    top, m = divmod((s + 1) * (fp.q - 1), fp.q)
    row = composition_row(m, r + s + 1, fp)
    # top <= s, so top - i <= r + s stays in the row; past top the count is 0.
    return {i: row[top - i] if i <= top else 0 for i in range(-r, s + 1)}


def _class_counts(kind: ConeKind, fp: PrimePower) -> dict[int, int]:
    if isinstance(kind, SegreCone):
        return _segre_counts(kind.r, kind.s, fp)
    return _veronese_counts(kind.dim - 1, kind.eps, fp)


def cone_pushforward(kind: ConeKind, fp: PrimePower) -> Decomposition:
    """F^e_* O on the cone, over vertex-local Weil classes i*L.

    Veronese-type cones use representatives -k*L with 0 <= k <= eps-1, L
    the ruling; the Segre cone uses the affine-chart generator L, the class
    of L1 with L1 + L2 ~ 0 imposed, and classes -r <= i <= s.
    """
    counts = _class_counts(kind, fp)
    return Decomposition(ConeP(kind), [((i,), mult) for i, mult in counts.items()])


def splitting_number(kind: ConeKind, fp: PrimePower) -> int:
    """The e-th F-splitting number: free rank of F^e_* of the cone's local ring,
    the vertex-local count of the trivial class."""
    return _class_counts(kind, fp).get(0, 0)


def f_signature(kind: ConeKind) -> Fraction:
    """The F-signature of the cone singularity as an exact rational.

    1/eps for the Veronese-type cones; for the Segre cone over P^r x P^s it
    is the Eulerian ratio A(r+s+1, r+1) / (r+s+1)!.
    """
    from fractions import Fraction  # here, so that starting a command does not load it
    if isinstance(kind, SegreCone):
        n = kind.r + kind.s + 1
        return Fraction(eulerian(n, kind.r + 1), math.factorial(n))
    return Fraction(1, kind.eps)


def f_signature_convergent(
    kind: ConeKind, fp: PrimePower, number: int | None = None
) -> Fraction:
    """The e-th convergent splitting_number / q^dim of the F-signature;
    ``number``, when given, is that splitting number, already computed."""
    from fractions import Fraction
    if number is None:
        number = splitting_number(kind, fp)
    return Fraction(number, fp.q**kind.dim)

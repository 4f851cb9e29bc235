"""Pushforwards on the singular cones, F-splitting numbers, and F-signatures.

Each cone kind has one route to its vertex-local class counts
{i: multiplicity of i*L}, and every function branches only on whether the
kind is the Segre cone.  The rational normal cone of degree eps is
VeroneseCone(1, eps) in every formula, and for both kinds dim - 1 is the
base dimension.  These Veronese-type cones read their counts off one
pushforward on the blowup at the vertex, where the classes collapse to Weil
classes: eps times the ruling L is Cartier and locally trivial there, so
they are only meaningful modulo eps.  The Segre cone sums products of
composition counts per class in its affine chart, where L1 + L2 ~ 0.
``cone_pushforward`` renders the counts as a decomposition.  The count of
the trivial class is the e-th F-splitting number; divided by q^dim it is
the e-th convergent of the F-signature.  Closed forms for these counts are
regression data, checked in ``verify`` and the tests.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

from .catalog import _from_counts, pushforward_hirzebruch, pushforward_veronese_cone
from .combinat import PrimePower, composition_count, eulerian, polynomial_range_sum
from .picard import ConeKind, ConeP, Decomposition, SegreCone


def _veronese_counts(d: int, eps: int, fp: PrimePower) -> dict[int, int]:
    """Vertex-local counts of the Veronese-type cone, classes -k*L for
    0 <= k <= eps-1.

    The blowup at the vertex is the ruled surface F_eps for d = 1 and the
    Veronese cone blowup for d >= 2.  An upstairs class with second
    coordinate b is -k*L near the vertex with k = -b modulo eps.
    """
    if d == 1:
        upstairs = pushforward_hirzebruch(eps, 0, 0, fp)
    else:
        upstairs = pushforward_veronese_cone(d, eps, 0, 0, fp)
    counts: Counter = Counter()
    for (_, b), mult in upstairs.lines.items():
        counts[-(-b % eps)] += mult
    return counts


def _segre_pair_sum(k: int, l: int, r: int, s: int, fp: PrimePower) -> int:
    """sum_{j=0}^{q-1} count(k, j; r) * count(l, j; s), a polynomial of degree
    r + s in j summed exactly."""
    return polynomial_range_sum(
        [
            composition_count(k, j, r, fp) * composition_count(l, j, s, fp)
            for j in range(min(fp.q, r + s + 1))
        ],
        fp.q,
    )


def _segre_count(i: int, r: int, s: int, fp: PrimePower) -> int:
    """Vertex-local count of the class i*L on the Segre cone, -r <= i <= s."""
    return sum(_segre_pair_sum(k, k + i, r, s, fp) for k in range(r + 1) if 0 <= k + i <= s)


def _class_counts(kind: ConeKind, fp: PrimePower) -> dict[int, int]:
    if isinstance(kind, SegreCone):
        return {i: _segre_count(i, kind.r, kind.s, fp) for i in range(-kind.r, kind.s + 1)}
    return _veronese_counts(kind.dim - 1, kind.eps, fp)


def cone_pushforward(kind: ConeKind, fp: PrimePower) -> Decomposition:
    """F^e_* O on the cone, over vertex-local Weil classes i*L.

    Veronese-type cones use representatives -k*L with 0 <= k <= eps-1, L
    the ruling; the Segre cone uses the affine-chart generator L, the class
    of L1 with L1 + L2 ~ 0 imposed, and classes -r <= i <= s.
    """
    counts = {(i,): mult for i, mult in _class_counts(kind, fp).items()}
    return _from_counts(ConeP(kind), counts)


def splitting_number(kind: ConeKind, fp: PrimePower) -> int:
    """The e-th F-splitting number: free rank of F^e_* of the cone's local ring,
    the vertex-local count of the trivial class."""
    if isinstance(kind, SegreCone):
        # Only the trivial class, not all r + s + 1 of them.
        return _segre_count(0, kind.r, kind.s, fp)
    return _class_counts(kind, fp).get(0, 0)


def f_signature(kind: ConeKind) -> Fraction:
    """The F-signature of the cone singularity as an exact rational.

    1/eps for the Veronese-type cones; for the Segre cone over P^r x P^s it
    is the Eulerian ratio A(r+s+1, r+1) / (r+s+1)!.
    """
    if isinstance(kind, SegreCone):
        n = kind.r + kind.s + 1
        return Fraction(eulerian(n, kind.r + 1), math.factorial(n))
    return Fraction(1, kind.eps)


def f_signature_convergent(kind: ConeKind, fp: PrimePower) -> Fraction:
    """The e-th convergent splitting_number / q^dim of the F-signature."""
    return Fraction(splitting_number(kind, fp), fp.q**kind.dim)

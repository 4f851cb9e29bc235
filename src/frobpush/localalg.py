"""Pushforwards on the singular cones, F-splitting numbers, and F-signatures.

The blowup computations descend to the cones themselves: classes on the
blowup collapse to Weil classes near the vertex, where the polarization (eps
times the ruling for the Veronese-type cones, L1 + L2 for the Segre cone)
trivializes.  The multiplicity of the trivial class is the e-th F-splitting
number; divided by q^dim it is the e-th convergent of the F-signature.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .catalog import (
    hirzebruch_block_multiplicities,
    hirzebruch_closed_multiplicities,
    pushforward_veronese_cone,
)
from .combinat import PrimePower, composition_count, eulerian, polynomial_range_sum
from .errors import InvalidParameterError
from .picard import (
    ConeP,
    Decomposition,
    Line,
    PicClass,
    RationalNormalCone,
    SegreCone,
    VeroneseCone,
)

ConeKind = Union[RationalNormalCone, VeroneseCone, SegreCone]


def _rnc_sigma(eps: int, fp: PrimePower) -> tuple[int, ...]:
    # Closed forms in regime; the four-block summation works for every q.
    if fp.q >= eps:
        return hirzebruch_closed_multiplicities(eps, fp)
    return hirzebruch_block_multiplicities(eps, fp)


def _veronese_style_class_counts(d: int, eps: int, fp: PrimePower) -> dict[int, int]:
    """Vertex-local class counts for a Veronese-type cone.

    All classes -k*L coincide modulo eps near the vertex (eps*L is Cartier
    and locally trivial there), so upstairs multiplicities aggregate over
    the residue of k.  Upstairs, a*H + b*H' with a in {0, -1} is -k*L for
    k = -b - a*eps, which is -b modulo eps.
    """
    counts: dict[int, int] = {}

    def add(k: int, mult: int) -> None:
        if mult:
            res = k % eps
            counts[res] = counts.get(res, 0) + mult

    if d == 1:
        add(0, 1)
        add(1, fp.q - 1)
        for i, mult in enumerate(_rnc_sigma(eps, fp), start=1):
            add(i, mult)
    else:
        for summand, mult in pushforward_veronese_cone(d, eps, 0, 0, fp).items():
            add(-summand.cls.coords[1], mult)
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


def cone_pushforward(kind: ConeKind, fp: PrimePower) -> Decomposition:
    """F^e_* O on the cone, over vertex-local Weil classes.

    Veronese-type cones use representatives -k*L with 0 <= k <= eps-1 on the
    single generator L (the ruling); the Segre cone uses the affine-chart
    generator L with L1 + L2 ~ 0 imposed, classes i*L for -r <= i <= s.
    """
    variety = ConeP(kind)
    basis = ("L",)
    items = []
    if isinstance(kind, (RationalNormalCone, VeroneseCone)):
        eps = kind.eps
        d = 1 if isinstance(kind, RationalNormalCone) else kind.d
        counts = _veronese_style_class_counts(d, eps, fp)
        for res in sorted(counts):
            items.append((Line(PicClass((-res,), basis)), counts[res]))
    elif isinstance(kind, SegreCone):
        r, s = kind.r, kind.s
        for i in range(-r, s + 1):
            mult = sum(
                _segre_pair_sum(k, k + i, r, s, fp)
                for k in range(r + 1)
                if 0 <= k + i <= s
            )
            items.append((Line(PicClass((i,), basis)), mult))
    else:
        raise InvalidParameterError(f"unknown cone kind {kind!r}")
    return Decomposition(variety, items, basis=basis)


def splitting_number(kind: ConeKind, fp: PrimePower) -> int:
    """The e-th F-splitting number: free rank of F^e_* of the cone's local ring."""
    if isinstance(kind, SegreCone):
        r, s = kind.r, kind.s
        return sum(_segre_pair_sum(k, k, r, s, fp) for k in range(min(r, s) + 1))
    if isinstance(kind, VeroneseCone):
        # The free summands are the upstairs classes that are trivial near
        # the vertex: H'-coordinate divisible by eps.
        decomp = pushforward_veronese_cone(kind.d, kind.eps, 0, 0, fp)
        return sum(
            mult for summand, mult in decomp.items() if summand.cls.coords[1] % kind.eps == 0
        )
    if isinstance(kind, RationalNormalCone):
        decomp = cone_pushforward(kind, fp)
        return decomp.trivial_multiplicity()
    raise InvalidParameterError(f"unknown cone kind {kind!r}")


def f_signature(kind: ConeKind) -> Fraction:
    """The F-signature of the cone singularity as an exact rational.

    1/eps for the Veronese-type cones; for the Segre cone over P^r x P^s it
    is the Eulerian ratio A(r+s+1, r+1) / (r+s+1)!.
    """
    if isinstance(kind, (RationalNormalCone, VeroneseCone)):
        return Fraction(1, kind.eps)
    if isinstance(kind, SegreCone):
        n = kind.r + kind.s + 1
        return Fraction(eulerian(n, kind.r + 1), math.factorial(n))
    raise InvalidParameterError(f"unknown cone kind {kind!r}")


def f_signature_convergent(kind: ConeKind, fp: PrimePower) -> Fraction:
    """The e-th convergent splitting_number / q^dim of the F-signature."""
    return Fraction(splitting_number(kind, fp), fp.q**kind.dim)

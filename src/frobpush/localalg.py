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
    veronese_cone_blocks,
)
from .combinat import PrimePower, composition_count, eulerian
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
    the residue of k.
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
        blocks = veronese_cone_blocks(d, eps, 0, 0, fp)
        for k, mult in blocks.section_counts.items():
            add(k, mult)
        for k, mult in blocks.exceptional_counts.items():
            add(k, mult)
    return counts


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
            mult = 0
            for k in range(r + 1):
                l = k + i
                if not 0 <= l <= s:
                    continue
                mult += sum(
                    composition_count(k, j, r, fp) * composition_count(l, j, s, fp)
                    for j in range(fp.q)
                )
            items.append((Line(PicClass((i,), basis)), mult))
    else:
        raise InvalidParameterError(f"unknown cone kind {kind!r}")
    return Decomposition(variety, items, basis=basis)


def splitting_number(kind: ConeKind, fp: PrimePower) -> int:
    """The e-th F-splitting number: free rank of F^e_* of the cone's local ring."""
    if isinstance(kind, SegreCone):
        r, s = kind.r, kind.s
        return sum(
            composition_count(k, j, r, fp) * composition_count(k, j, s, fp)
            for k in range(min(r, s) + 1)
            for j in range(fp.q)
        )
    if isinstance(kind, VeroneseCone):
        blocks = veronese_cone_blocks(kind.d, kind.eps, 0, 0, fp)
        return sum(
            blocks.section_counts.get(k * kind.eps, 0)
            + blocks.exceptional_counts.get((k + 1) * kind.eps, 0)
            for k in range(kind.d // kind.eps + 1)
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

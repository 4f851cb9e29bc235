"""Closed-form Frobenius pushforward decompositions for each variety family.

Every function here returns a ``Decomposition`` of F^e_* of a line bundle
(usually the structure sheaf) as an exact multiset of lattice classes.  The
multiplicities are polynomials or piecewise polynomials in q = p^e; zero
entries are always dropped so support comparisons are canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .combinat import PrimePower, composition_count, floor_residue
from .errors import InvalidParameterError, OutOfRegimeError
from .picard import (
    Decomposition,
    Hirzebruch,
    Line,
    LinearBlowup,
    PicClass,
    Product,
    ProjSpace,
    Quadric,
    SegreConeBlowup,
    Spinor,
    Summand,
    VeroneseConeBlowup,
)


def pushforward_projective_space(d: int, n: int, fp: PrimePower) -> Decomposition:
    """F^e_* O(n) on P^d: twists O(k - i) with composition-count multiplicities,
    where n = k*q + m."""
    variety = ProjSpace(d)
    basis = variety.bases[0]
    k, m = floor_residue(n, fp.q)
    items = [
        (Line(PicClass((k - i,), basis)), composition_count(i, m, d, fp))
        for i in range(d + 1)
    ]
    return Decomposition(variety, items)


def pushforward_product(r: int, s: int, u: int, v: int, fp: PrimePower) -> Decomposition:
    """F^e_* O(u, v) on P^r x P^s: the external tensor of the two factor
    decompositions."""
    variety = Product(r, s)
    basis = variety.bases[0]
    k, m = floor_residue(u, fp.q)
    l, n = floor_residue(v, fp.q)
    items = []
    for i in range(r + 1):
        left = composition_count(i, m, r, fp)
        if not left:
            continue
        for j in range(s + 1):
            right = composition_count(j, n, s, fp)
            if right:
                items.append((Line(PicClass((k - i, l - j), basis)), left * right))
    return Decomposition(variety, items)


def pushforward_hirzebruch(eps: int, u: int, v: int, fp: PrimePower) -> Decomposition:
    """F^e_* O(u*C0 + v*f) on the ruled surface P(O + O(-eps)) over P^1.

    Four blocks: for residues j of u the fiber twist v - j*eps splits as
    floor/residue in base q, contributing classes k*C0 + floor*f and
    k*C0 + (floor-1)*f (k drops by one past the residue of u).  This general
    form is the single source of truth; the per-eps closed forms are
    regression data derived from it.
    """
    variety = Hirzebruch(eps)
    basis = variety.bases[0]
    q = fp.q
    k, m = floor_residue(u, q)
    items: list[tuple[Summand, Optional[int]]] = []
    for j in range(q):
        c0 = k if j <= m else k - 1
        fl, res = floor_residue(v - j * eps, q)
        items.append((Line(PicClass((c0, fl), basis)), res + 1))
        items.append((Line(PicClass((c0, fl - 1), basis)), q - 1 - res))
    return Decomposition(variety, items)


def hirzebruch_block_multiplicities(eps: int, fp: PrimePower) -> tuple[int, ...]:
    """Multiplicities of O(-C0 - i*f), i = 1..eps+1, in F^e_* O, read off the
    four-block formula."""
    if eps < 1:
        raise InvalidParameterError(f"needs eps >= 1; got eps={eps}")
    decomp = pushforward_hirzebruch(eps, 0, 0, fp)
    sigma = [0] * (eps + 2)
    for summand, mult in decomp.items():
        assert isinstance(summand, Line) and mult is not None
        a, b = summand.cls.coords
        if a == 0:
            continue
        assert a == -1 and -(eps + 1) <= b <= -1
        sigma[-b] = mult
    return tuple(sigma[1:])


def hirzebruch_closed_multiplicities(eps: int, fp: PrimePower) -> tuple[int, ...]:
    """Closed forms for the O(-C0 - i*f) multiplicities, i = 1..eps+1.

    Valid for q >= eps; driven by the residues rho[l] of q*l modulo eps (with
    rho[eps] set to eps).  Out of regime the four-block summation still
    applies, so callers fall back to ``hirzebruch_block_multiplicities``.
    """
    if eps < 1:
        raise InvalidParameterError(f"needs eps >= 1; got eps={eps}")
    q = fp.q
    if q < eps:
        raise OutOfRegimeError(f"closed forms need q >= eps; got q={q} < eps={eps}")

    k = q % eps
    rho = [(k * l) % eps for l in range(eps)] + [eps]

    def exact(num: int, den: int) -> int:
        if num % den:
            raise ArithmeticError(f"non-integral multiplicity {num}/{den}")
        return num // den

    sigma = [0] * (eps + 2)
    sigma[1] = exact((q - rho[1]) * (q + rho[1] - eps + 2), 2 * eps)
    for i in range(2, eps + 1):
        squares = rho[i] ** 2 - 2 * rho[i - 1] ** 2 + rho[i - 2] ** 2
        linear = rho[i] - 2 * rho[i - 1] + rho[i - 2]
        correction = squares - (eps - 2) * linear
        sigma[i] = exact(2 * q * q - correction, 2 * eps)
    sigma[eps + 1] = exact((q - eps + rho[eps - 1]) * (q - rho[eps - 1] - 2), 2 * eps)
    return tuple(sigma[1:])


def blowup_multiplicity(i: int, k: int, d: int, r: int, fp: PrimePower) -> int:
    """Multiplicity of O(-i*H - k*H') in F^e_* O on the blowup of P^d along a
    linear P^{r-1}.

    The uniform formula covers the boundary rows i = 0 and i = r because the
    composition counts vanish for negative first index.
    """
    base = composition_count(k, 0, d - r, fp) * composition_count(i, 0, r - 1, fp)
    mixed = sum(
        composition_count(k, j, d - r, fp) * composition_count(i - 1, fp.q - j, r - 1, fp)
        for j in range(1, fp.q)
    )
    return base + mixed


def pushforward_linear_blowup(d: int, r: int, fp: PrimePower) -> Decomposition:
    """F^e_* O on the blowup of P^d along a linear subspace of dimension r-1,
    in the ("H", "H'") basis."""
    variety = LinearBlowup(d, r)
    basis = variety.bases[0]
    items = []
    for i in range(r + 1):
        for k in range(d - r + 1):
            items.append(
                (Line(PicClass((-i, -k), basis)), blowup_multiplicity(i, k, d, r, fp))
            )
    return Decomposition(variety, items)


@dataclass(frozen=True)
class VeroneseBlocks:
    """Aggregated multiplicity blocks for the Veronese cone blowup.

    ``section_counts[k]`` is the multiplicity of O(-k*H') and
    ``exceptional_counts[k]`` that of O(-E - k*H'); the two indices locate
    the residues n and q-1-n inside their interval partitions.
    """

    section_index: int
    exceptional_index: int
    section_counts: dict[int, int]
    exceptional_counts: dict[int, int]


def veronese_cone_blocks(
    d: int, eps: int, n: int, nprime: int, fp: PrimePower
) -> VeroneseBlocks:
    """Interval-partition bookkeeping behind the Veronese cone pushforward.

    Splits [0, q-1] into eps intervals on which the floor of
    (eps*j + n')/q is constant (and [1, q-1] likewise for the negative
    twists), sums composition counts over each interval, then aggregates the
    per-interval sums into per-class multiplicities.
    """
    q = fp.q
    if not (0 <= n <= q - 1 and 0 <= nprime <= q - 1):
        raise InvalidParameterError(
            f"bundle residues must lie in [0, q-1]; got (n={n}, n'={nprime}, q={q})"
        )
    if not q >= eps - nprime >= 1:
        raise OutOfRegimeError(
            f"needs q >= eps - n' >= 1; got q={q}, eps={eps}, n'={nprime}"
        )

    def intervals(offset: int, start: int) -> list[range]:
        # i-th piece is (floor(((i-1)q + offset)/eps), floor((iq + offset)/eps)],
        # except the last which is capped at q-1.
        pieces = []
        for i in range(1, eps + 1):
            lo = ((i - 1) * q + offset) // eps + 1
            hi = (i * q + offset) // eps if i < eps else q - 1
            pieces.append(range(max(lo, start), hi + 1))
        return pieces

    plus_pieces = intervals(-1 - nprime, 0)
    minus_pieces = intervals(nprime, 1)

    def locate(pieces: list[range], j: int) -> int:
        for i, piece in enumerate(pieces, start=1):
            if j in piece:
                return i
        raise AssertionError(f"{j} not covered by the interval partition")

    section_index = locate(plus_pieces, n)
    exceptional_index = 0 if q - 1 - n == 0 else locate(minus_pieces, q - 1 - n)

    # Per-interval sums of composition counts, indexed by (interval, twist).
    plus_blocks: dict[tuple[int, int], int] = {}
    for i, piece in enumerate(plus_pieces, start=1):
        for j in piece:
            if j > n:
                break
            m = eps * j + nprime - (i - 1) * q
            assert 0 <= m <= q - 1
            for l in range(d + 1):
                cnt = composition_count(l, m, d, fp)
                if cnt:
                    plus_blocks[(i, l)] = plus_blocks.get((i, l), 0) + cnt
    minus_blocks: dict[tuple[int, int], int] = {}
    for i, piece in enumerate(minus_pieces, start=1):
        for j in piece:
            if j > q - 1 - n:
                break
            m = i * q - eps * j + nprime
            assert 0 <= m <= q - 1
            for l in range(d + 1):
                cnt = composition_count(l, m, d, fp)
                if cnt:
                    minus_blocks[(i, l)] = minus_blocks.get((i, l), 0) + cnt

    section_counts: dict[int, int] = {}
    for k in range(-section_index + 1, d + 1):
        total = sum(
            plus_blocks.get((i, k + i - 1), 0) for i in range(1, section_index + 1)
        )
        if total:
            section_counts[k] = total
    exceptional_counts: dict[int, int] = {}
    for k in range(1, exceptional_index + d + 1):
        total = sum(
            minus_blocks.get((i, k - i), 0) for i in range(1, exceptional_index + 1)
        )
        if total:
            exceptional_counts[k] = total
    return VeroneseBlocks(section_index, exceptional_index, section_counts, exceptional_counts)


def pushforward_veronese_cone(
    d: int, eps: int, n: int, nprime: int, fp: PrimePower
) -> Decomposition:
    """F^e_* O(n*H + n'*H') on the blowup of the Veronese cone, in the
    ("H", "H'") basis with E = H - eps*H'."""
    variety = VeroneseConeBlowup(d, eps)
    basis = variety.bases[0]
    blocks = veronese_cone_blocks(d, eps, n, nprime, fp)
    items = []
    for k, mult in blocks.section_counts.items():
        items.append((Line(PicClass((0, -k), basis)), mult))
    for k, mult in blocks.exceptional_counts.items():
        # -E - k*H' = -H + (eps - k)*H'
        items.append((Line(PicClass((-1, eps - k), basis)), mult))
    return Decomposition(variety, items)


def pushforward_segre_cone(
    r: int, s: int, n: int, n1: int, n2: int, fp: PrimePower
) -> Decomposition:
    """F^e_* O(n*H + n1*G1 + n2*G2) on the blowup of the Segre cone, in the
    ("H", "G1", "G2") basis with E = H - G1 - G2."""
    variety = SegreConeBlowup(r, s)
    basis = variety.bases[0]
    q = fp.q
    for name, val in (("n", n), ("n1", n1), ("n2", n2)):
        if not 0 <= val <= q - 1:
            raise InvalidParameterError(
                f"bundle residues must lie in [0, q-1]; got {name}={val}, q={q}"
            )
    items = []
    for j in range(q):
        h = 0 if j <= n else -1
        f1, m1 = floor_residue(j + n1, q)
        f2, m2 = floor_residue(j + n2, q)
        for k in range(r + 1):
            left = composition_count(k, m1, r, fp)
            if not left:
                continue
            for l in range(s + 1):
                right = composition_count(l, m2, s, fp)
                if right:
                    items.append(
                        (Line(PicClass((h, f1 - k, f2 - l), basis)), left * right)
                    )
    return Decomposition(variety, items)


def quadric_pushforward_support(d: int, fp: PrimePower) -> Decomposition:
    """Support of F^e_* omega^{1-q} on the d-dimensional quadric, d >= 3.

    Line-bundle twists O(i) appear for 0 <= i*q <= d*(q-1); spinor twists
    S(j) for j in a characteristic-dependent window, evaluated with exact
    integer cross-multiplication.  Only the trivial summand has a known
    multiplicity (one); the rest are marked unknown.
    """
    variety = Quadric(d)
    basis = variety.bases[0]
    q, p, e = fp.q, fp.p, fp.e
    items: list[tuple[Summand, Optional[int]]] = []
    for i in range(d + 1):
        if 0 <= d * (q - 1) - i * q <= d * (q - 1):
            items.append((Line(PicClass((i,), basis)), 1 if i == 0 else None))
    pe1 = p ** (e - 1)
    for j in range(0, d + 2):
        mid = d * (q - 1) - j * q
        if p != 2:
            # Doubled to keep d/2 integral for odd d.
            lo = d * (q - pe1) - 2 * q + 2 * pe1
            hi = d * (q - pe1) - 2 * pe1 + 2 * d * (pe1 - 1)
            present = lo <= 2 * mid <= hi
        else:
            half = d // 2 - 1
            lo = half * pe1
            hi = d * (q - 1) - q - half * pe1
            present = lo <= mid <= hi
        if present:
            items.append((Spinor(j), None))
    return Decomposition(variety, items, support_only=True)


"""Closed-form Frobenius pushforward decompositions for each variety family.

Every function here returns a ``Decomposition`` of F^e_* of a line bundle
(usually the structure sheaf) as an exact multiset of lattice classes.  The
multiplicities are polynomials or piecewise polynomials in q = p^e; zero
entries are always dropped so support comparisons are canonical.  Every
builder answers at every q, and every builder with twists answers every
integer bundle: by the projection formula, F^e_* O(D + q*M) is F^e_* O(D)
twisted by M, so each splits the coordinates by q, sums over the residues
and shifts each class by the quotients.

Most formulas are sums over the q residues j = 0..q-1 of one coordinate.  On
each run of j where the floor parts of the twists stay constant
(``combinat.floor_pieces``), a term is a polynomial in j of degree at most
the dimension, so each class of a run is summed exactly as one dot product
of a few samples with the run's weights (``combinat.range_sum_weights``).
On the Veronese cone blowup the samples of a run are residues in arithmetic
progression, and ``combinat.composition_sums`` gives every class of the run
at once, as the weighted sum of their composition rows.  Multiplicities are
added up per coordinate tuple in a plain dict, and the decomposition keeps
those tuples, so the cost depends on the dimension, eps and the bit length
of q, not on q.
``verify`` checks each sum against a j-by-j loop at small q.
"""

from __future__ import annotations

from operator import mul

from .combinat import (
    PrimePower,
    composition_row,
    composition_sums,
    composition_table,
    floor_pieces,
    range_sum_weights,
)
from .picard import (
    Decomposition,
    Hirzebruch,
    LinearBlowup,
    Product,
    ProjSpace,
    Quadric,
    SegreConeBlowup,
    Spinor,
    VeroneseConeBlowup,
)


def pushforward_projective_space(d: int, n: int, fp: PrimePower) -> Decomposition:
    """F^e_* O(n) on P^d: twists O(k - i) with composition-count multiplicities,
    where n = k*q + m."""
    variety = ProjSpace(d)
    k, m = divmod(n, fp.q)
    return Decomposition(variety, zip(zip(range(k, k - d - 1, -1)), composition_row(m, d, fp)))


def pushforward_product(r: int, s: int, u: int, v: int, fp: PrimePower) -> Decomposition:
    """F^e_* O(u, v) on P^r x P^s: the external tensor of the two factor
    decompositions."""
    variety = Product(r, s)
    k, m = divmod(u, fp.q)
    l, n = divmod(v, fp.q)
    left, right = composition_row(m, r, fp), composition_row(n, s, fp)
    counts = {(k - i, l - j): a * b for i, a in enumerate(left) for j, b in enumerate(right)}
    return Decomposition(variety, counts.items())


def pushforward_hirzebruch(eps: int, u: int, v: int, fp: PrimePower) -> Decomposition:
    """F^e_* O(u*C0 + v*f) on the ruled surface P(O + O(-eps)) over P^1.

    Four blocks: for residues j of u the fiber twist v - j*eps splits as
    floor/residue in base q, contributing k*C0 + floor*f with multiplicity
    residue + 1 and k*C0 + (floor-1)*f with multiplicity q - 1 - residue
    (k drops by one past the residue m of u).  The sum over j is taken by
    pieces: [0, m] and [m+1, q-1] each split into the runs on which the
    floor of (v - j*eps)/q is constant, at most eps + 2 of them, and on a run
    the residue is linear in j.  This general form is the single source of
    truth; the per-eps closed forms are regression data in ``verify``.
    """
    variety = Hirzebruch(eps)
    q = fp.q
    k, m = divmod(u, q)
    counts: dict = {}
    get = counts.get
    for c0, lo, hi in ((k, 0, m), (k - 1, m + 1, q - 1)):
        for fl, jlo, jhi in floor_pieces(-eps, v, q, lo, hi):
            res = v - jlo * eps - fl * q
            count = jhi - jlo + 1
            # The residue falls by eps per step of j: an arithmetic progression.
            res_sum = count * res - eps * (count * (count - 1) // 2)
            top, below = (c0, fl), (c0, fl - 1)
            counts[top] = get(top, 0) + res_sum + count
            counts[below] = get(below, 0) + (q - 1) * count - res_sum
    return Decomposition(variety, counts.items())


def pushforward_linear_blowup(d: int, r: int, fp: PrimePower) -> Decomposition:
    """F^e_* O on the blowup of P^d along a linear subspace of dimension r-1,
    in the ("H", "H'") basis.

    O(-i*H - k*H') has multiplicity count(k, 0; d-r) * count(i, 0; r-1) plus
    the mixed term, the sum of count(k, j; d-r) * count(i-1, q-j; r-1) over
    j = 1..q-1.  The uniform formula covers the boundary rows i = 0 and i = r
    because the counts vanish outside 0 <= i <= r-1.  The mixed term is a
    polynomial of degree d - 1 in j, so d samples fix it.  The counts at
    m = 0 and at the sampled j = 1..min(q, d+1)-1 are built once, as three
    composition tables, and every (i, k) is one dot product with them.
    """
    variety = LinearBlowup(d, r)
    q = fp.q
    js = range(1, min(q, d + 1))
    # outer[k] holds count(k, m; d - r) at m = 0 and then at each j in js;
    # inner[i - 1] holds count(i - 1, q - j; r - 1) for j in js.
    outer = composition_table(range(js.stop), d - r, fp)
    inner_zero = [row[0] for row in composition_table(range(1), r - 1, fp)] + [0]
    inner = composition_table(range(q - 1, q - js.stop, -1), r - 1, fp)
    weights = range_sum_weights(len(js), q - 1)
    # factors[i] pairs with outer[k]: count(i, 0; r - 1) at m = 0, then the
    # weighted count(i - 1, q - j; r - 1) at each j in js (none for i = 0).
    factors = [inner_zero[:1]]
    factors += [[zero, *map(mul, weights, row)] for zero, row in zip(inner_zero[1:], inner)]
    counts = {
        (-i, -k): sum(map(mul, outer[k], factor))
        for i, factor in enumerate(factors)
        for k in range(d - r + 1)
    }
    return Decomposition(variety, counts.items())


def pushforward_veronese_cone(
    d: int, eps: int, n: int, nprime: int, fp: PrimePower
) -> Decomposition:
    """F^e_* O(n*H + n'*H') on the blowup of the Veronese cone, in the
    ("H", "H'") basis with E = H - eps*H'.

    For every bundle, at every q (q < eps included).  With n = k*q + m,
    residues j = 0..m contribute O(k*H + (floor - l)*H') and residues
    j = 1..q-1-m contribute O((k-1)*H + (floor - l + eps)*H'), that is
    O(k*H - E + (floor - l)*H'), where eps*j + n' (respectively -eps*j + n')
    splits as floor/residue in base q, with multiplicity count(l, residue; d)
    for l = 0..d.  Each range is summed by the runs of constant floor, at most
    eps + 2 of them, on which the count is a polynomial of degree d in j.
    """
    variety = VeroneseConeBlowup(d, eps)
    q = fp.q
    k, n = divmod(n, q)
    counts: dict = {}
    get = counts.get
    # (slope in j, first and last j, H-coordinate, H'-offset of the class)
    for a, lo, hi, h, offset in ((eps, 0, n, k, 0), (-eps, 1, q - 1 - n, k - 1, eps)):
        for fl, jlo, jhi in floor_pieces(a, nprime, q, lo, hi):
            weights = range_sum_weights(d + 1, jhi - jlo + 1)
            # The residues a*j + n' - fl*q at the run's first len(weights) j.
            first = a * jlo + nprime - fl * q
            sums = composition_sums(range(first, first + a * len(weights), a), weights, d, fp)
            for l, total in enumerate(sums):
                key = (h, fl - l + offset)
                counts[key] = get(key, 0) + total
    return Decomposition(variety, counts.items())


def pushforward_segre_cone(
    r: int, s: int, n: int, n1: int, n2: int, fp: PrimePower
) -> Decomposition:
    """F^e_* O(n*H + n1*G1 + n2*G2) on the blowup of the Segre cone, in the
    ("H", "G1", "G2") basis with E = H - G1 - G2."""
    variety = SegreConeBlowup(r, s)
    q = fp.q
    # With n = c*q + m, residue j contributes O(h*H + (f1-k)*G1 + (f2-l)*G2)
    # with multiplicity count(k, m1; r) * count(l, m2; s), where
    # j + n_i = f_i*q + m_i and h is c, dropping to c - 1 past m.  Between
    # consecutive cuts h, f1 and f2 are constant and the product is a
    # polynomial of degree r + s in j; the run's weights are folded into the
    # left factor.
    c, n = divmod(n, q)
    cuts = sorted({0, n + 1, q - n1 % q, q - n2 % q, q})
    counts: dict = {}
    get = counts.get
    for lo, hi in zip(cuts, cuts[1:]):
        h = c if lo <= n else c - 1
        f1, f2 = (lo + n1) // q, (lo + n2) // q
        weights = range_sum_weights(r + s + 1, hi - lo)
        points = range(lo, lo + len(weights))
        left = [
            list(map(mul, weights, column))
            for column in zip(*[composition_row(j + n1 - f1 * q, r, fp) for j in points])
        ]
        right = list(zip(*[composition_row(j + n2 - f2 * q, s, fp) for j in points]))
        for k, lk in enumerate(left):
            for l, rl in enumerate(right):
                key = (h, f1 - k, f2 - l)
                counts[key] = get(key, 0) + sum(map(mul, lk, rl))
    return Decomposition(variety, counts.items())


def quadric_pushforward_support(d: int, fp: PrimePower) -> Decomposition:
    """Support of F^e_* omega^{1-q} on the d-dimensional quadric, d >= 3.

    Line-bundle twists O(i) appear for 0 <= i*q <= d*(q-1); spinor twists
    S(j) for j in a characteristic-dependent window, evaluated with exact
    integer cross-multiplication.  Only the trivial summand has a known
    multiplicity (one); the rest are marked unknown.
    """
    variety = Quadric(d)
    q, p, e = fp.q, fp.p, fp.e
    lines = {
        (i,): 1 if i == 0 else None
        for i in range(d + 1)
        if 0 <= d * (q - 1) - i * q <= d * (q - 1)
    }
    spinors = []
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
            spinors.append(j)
    return Decomposition(variety, [*lines.items(), *((Spinor(j), None) for j in spinors)],
                         support_only=True)


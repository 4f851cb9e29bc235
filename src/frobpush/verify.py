"""Batch verification suites: identities, differential oracles, and fixtures.

Each kind of case is one row of ``CASES``, keyed by its name: its suite, its
check, and its grid, the check's argument tuples at one prime power.
``build_cases`` reads a suite's rows at each (p, e) in turn, so its cases
come grouped by q.  Two kinds ignore the grid: ``eulerian-sum`` runs d = 1..8,
and ``warn-quadric-p2`` runs at p = 2 for e = 1..max_e, whatever the primes.

Every case is an independent pure computation keyed by its parameters, so the
runner may fan cases out across worker processes; results are merged in key
order and are reproducible regardless of scheduling.  The oracles suite
checks each builder that sums over the q residues by pieces against
``thomsen_loop`` at small q: Thomsen's count over the Cox degrees that
``cox_degrees`` reads off the family's declared ``bundle()``, one product of
strided slices per class.  It, the box counts of the Veronese-type cones and
the check of the closed form ``composition_count`` itself read their counts
from convolution tables, the coefficient lists of (1 + t + ... +
t^{q-1})^parts, so a fault in the closed form that the builders use cannot
reach both sides of a comparison.  Each table is built one convolution step
from the (q, parts - 1) table.  A case that raises is reported as FAIL with
the exception, and the run goes on.  Known tensions between recorded values
and the computed ones (the small-q ruled-surface row, the blowup k=0 claim,
the quadric p=2 window for d >= 4) are reported as WARN with both values
printed; they never fail a run.

``sum-identity``, ``support`` and ``shifted-sum`` read one residue sweep
``composition_table(range(q), d, fp)`` per (q, d) and never write to it;
``mult-oracle`` checks the four routes to a count (entry, row, table and
weighted sums) against convolution.  The tables and the sweeps share one
memo of one q's tables, emptied when a ``run_suites`` call starts and when
it returns.  The restriction checks restrict to the declared divisor.

The closed forms and identities that only check the library's answers live
here too, as regression data: the ruled-surface residue closed form and its
block route, the linear blowup's multiplicities entry by entry (the
builder reads shared tables), and the determinant-sum and section-count
identities on P^d.  No other command computes them.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import time
from fractions import Fraction
from itertools import accumulate, product, repeat

from . import catalog, localalg, positivity
from .combinat import (
    PrimePower,
    binom,
    bounded_power_coefficients,
    composition_count,
    composition_row,
    composition_sums,
    composition_table,
    eulerian,
    polynomial_range_sum,
)
from .errors import InvalidParameterError
from .families import FAMILIES, build, structure_pushforward
from .picard import PicClass, ProjSpace, RationalNormalCone, SegreCone, VeroneseCone
from .restriction import restrict
from .value import Value


class CheckResult(Value):
    """One case's outcome; the check's wall time is no part of its identity."""

    __slots__ = ("key", "status", "detail", "seconds")  # status: PASS, FAIL or WARN

    def __init__(self, key: str, status: str, detail: str, seconds: float = 0.0) -> None:
        self._set(key, status, detail, seconds)

    def _fields(self) -> tuple:
        return self.key, self.status, self.detail

    def __reduce__(self):
        return CheckResult, (self.key, self.status, self.detail, self.seconds)


SUITES = ("identities", "oracles", "fixtures")

# The loop oracles cost O(q) per call; above this q they run at the structure
# sheaf only and report the other twists as skipped.
LOOP_Q_CAP = 343


# ---------------------------------------------------------------------------
# Loop oracles: one product of strided slices of convolution tables per class.
# ---------------------------------------------------------------------------


def _nonzero(counts: dict) -> dict[tuple[int, ...], int]:
    return {coords: mult for coords, mult in counts.items() if mult}


def _coefficients(q: int, parts: int) -> tuple[int, ...]:
    """The coefficients of (1 + t + ... + t^{q-1})^parts, padded with zeros to
    (parts + 1) * q entries: the number of parts-tuples in [0, q-1] summing
    to m + i*q is table[m + i*q] for 0 <= i <= parts and 0 <= m < q.

    Built by convolution, so it shares nothing with ``composition_count``:
    parts <= 1 by ``bounded_power_coefficients``, the rest as the (q, parts -
    1) table times (1 - t^q) / (1 - t), filed in ``_memo`` under the
    convolution, so a convolution patched in later is not served a stale
    table.
    """
    tables, key = _memo(q), (bounded_power_coefficients, parts)
    if key not in tables:
        if parts <= 1:
            table = bounded_power_coefficients(q, parts)
            table = [*table, *repeat(0, (parts + 1) * q - len(table))]
        else:
            lower = _coefficients(q, parts - 1)
            table = [*lower, *repeat(0, q)]
            table[q:] = map(operator.sub, table[q:], lower)
            table = accumulate(table)
        tables[key] = tuple(table)
    return tables[key]


@functools.lru_cache(maxsize=1)  # cases come grouped by q: each table once per q
def _memo(q: int) -> dict:
    """The last q's tables, keyed by (the function that builds them, size)."""
    return {}


def cox_degrees(variety) -> tuple[list[tuple[int, tuple[int, ...]]], list[int]]:
    """The Cox variables of a split ``variety`` P(E) -> B grouped as its
    declaration states them: (n, b) for each distinct twist b of E, in order,
    whose n variables have degree (1, -b) in the default basis; then n_j + 1
    for the j-th factor P^(n_j) of B, whose variables have degree e_j.  A base
    whose own bundle has a nonzero twist is no product of projective spaces."""
    base, twists = variety.bundle()
    fiber, sizes = [(twists.count(b), b) for b in dict.fromkeys(twists)], []
    while base:
        base, twists = base.bundle()
        if any(map(any, twists)):
            raise InvalidParameterError(_UNGROUPED.format(variety))
        sizes.append(len(twists))
    return fiber, sizes


_times = functools.partial(map, operator.mul)
_UNGROUPED = "needs E of at most two twists over a product of projective spaces; got {}"


def thomsen_loop(variety, bundle: tuple[int, ...], fp: PrimePower) -> dict[tuple[int, ...], int]:
    """F^e_* O(D), D = ``bundle`` in the default basis of a split ``variety``,
    by Thomsen's count over its Cox degrees (J. F. Thomsen, J. Algebra 226,
    2000): the multiplicity of the class c is the number of rho in [0, q-1]^N
    with sum_i rho_i deg_i = D - q*c.  Classes come in ascending order.

    The groups of ``cox_degrees`` are at most two fiber groups, of twists a
    and a', and one group for each factor of the base; anything else is
    refused.  A group of n variables reaches the total x in table[x] ways,
    for the n-part table.  With fiber totals S and R - S, R = D_0 - q*c_0,
    base coordinate j's total is b - q*c_j + v*S, b = D_j + R*a'_j and
    v = a_j - a'_j.  So a group's count at every S, for one of its classes,
    is one strided slice of its table, its column, zero-padded where it
    starts below index 0, and each class sums the product of the columns of
    its groups of two or more variables; a fiber group of one only bounds S.
    The tables are palindromes, table[x] == table[n(q-1) - x], so a total
    that falls as S grows is read forward from the other end.
    """
    q, top = fp.q, fp.q - 1
    fiber, sizes = cox_degrees(variety)
    if fiber[2:] or len(sizes) != len(bundle) - 1:
        raise InvalidParameterError(_UNGROUPED.format(variety))
    (n1, first), (n2, second) = fiber if fiber[1:] else [*fiber, (0, fiber[0][1])]
    # Each table once a call; fiber group k + 1 of two or more reads table[u - k*total + S].
    fibers = [(_coefficients(q, n), k * n * top, k) for k, n in ((0, n1), (1, n2)) if n > 1]
    groups = [(_coefficients(q, n), n * top, d, w, a - w)
              for n, d, a, w in zip(sizes, bundle[1:], first, second)]
    counts = {}
    for c0 in range(-(((n1 + n2) * top - bundle[0]) // q), bundle[0] // q + 1):
        total = bundle[0] - q * c0
        lo, hi = max(0, total - n2 * top), min(n1 * top, total)
        spans, columns = [], [[table[u - k * total + lo : u - k * total + hi + 1]] for table, u, k in fibers]
        for table, size, d, w, v in groups:
            b = d + total * w  # class c's column starts at x - q*c, or x + q*c where v < 0
            if v >= 0:
                step, x, dq = v, b + v * lo, -q
                span = range(-((size - x) // q), (b + v * hi) // q + 1)
            else:
                step, x, dq = -v, size - b - v * lo, q
                span = range(-((size - b - v * hi) // q), (b + v * lo) // q + 1)
            starts, reach = range(x + dq * span.start, x + dq * span.stop, dq), step * (hi - lo) + 1
            if not step:  # the same entry at every S
                columns.append([(table[x],) * (hi - lo + 1) for x in starts])
            else:  # zero-padded only where the window starts below index 0
                columns.append([table[x : x + reach : step] if x >= 0 else
                                (0,) * -(x // step) + table[x % step : x + reach : step] for x in starts])
            spans.append(span)
        for key, column in zip(product([c0], *spans), product(*columns)):
            mult = sum(functools.reduce(_times, column))
            if mult:
                counts[key] = mult
    return counts


def segre_shifted_sums(r: int, s: int, fp: PrimePower) -> dict[tuple[int, ...], int]:
    """``check_segre_split_routes``'s {(i,): multiplicity of i*L}, zeros kept."""
    q = fp.q
    left, right = _coefficients(q, r + 1), _coefficients(q, s + 1)
    return {(i,): sum(_times(left[max(0, -i * q) :], right[max(0, i * q) :])) for i in range(-r, s + 1)}


# ---------------------------------------------------------------------------
# Regression data: closed forms and identities that the library's routes are
# checked against.
# ---------------------------------------------------------------------------


def hirzebruch_block_multiplicities(eps: int, fp: PrimePower) -> tuple[int, ...]:
    """Multiplicities of O(-C0 - i*f), i = 1..eps+1, in F^e_* O, read off the
    four-block formula."""
    if eps < 1:
        raise InvalidParameterError(f"needs eps >= 1; got eps={eps}")
    decomp = catalog.pushforward_hirzebruch(eps, 0, 0, fp)
    sigma = [0] * (eps + 2)
    for (a, b), mult in decomp.lines.items():
        assert mult is not None
        if a == 0:
            continue
        assert a == -1 and -(eps + 1) <= b <= -1
        sigma[-b] = mult
    return tuple(sigma[1:])


def hirzebruch_closed_multiplicities(eps: int, fp: PrimePower) -> tuple[int, ...]:
    """Closed forms for the O(-C0 - i*f) multiplicities, i = 1..eps+1.

    Driven by the residues rho[l] of q*l modulo eps (with rho[eps] set to
    eps).  Regression data for the four-block summation, which the
    ``sigma-closed`` check compares them against at every q.
    """
    if eps < 1:
        raise InvalidParameterError(f"needs eps >= 1; got eps={eps}")
    q = fp.q

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
    linear P^{r-1}, entry by entry.

    The uniform formula covers the boundary rows i = 0 and i = r because the
    composition counts vanish for negative first index.  The mixed term sums
    count(k, j; d-r) * count(i-1, q-j; r-1) over j = 1..q-1, a polynomial of
    degree d - 1 in j, so d samples fix it.  Regression data for the
    builder, which reads the same counts from shared composition tables; the
    ``blowup-restrict`` check compares the two routes.
    """
    q = fp.q
    base = composition_count(k, 0, d - r, fp) * composition_count(i, 0, r - 1, fp)
    mixed = polynomial_range_sum(
        [
            composition_count(k, j, d - r, fp) * composition_count(i - 1, q - j, r - 1, fp)
            for j in range(1, min(q, d + 1))
        ],
        q - 1,
    )
    return base + mixed


def determinant_twist_sum(d: int, fp: PrimePower) -> PicClass:
    """Sum of det F^e_* O(n) over n = 0..q-1 on P^d.

    F^e_* O(n) is the sum of O(-i) with multiplicity count(i, n; d), a
    polynomial of degree d in n, so each sum over n is taken exactly from
    d + 1 samples.  Equals -d * q^d * (q-1)/2 times the hyperplane class;
    the ``alpha-det`` check compares the two.
    """
    if d < 1:
        raise InvalidParameterError(f"needs d >= 1; got d={d}")
    basis = ProjSpace(d).bases[0]
    points = range(min(fp.q, d + 1))
    coefficient = -sum(
        i * polynomial_range_sum([composition_count(i, n, d, fp) for n in points], fp.q)
        for i in range(1, d + 1)
    )
    return PicClass((coefficient,), basis)


def volume_identity(d: int, a: int, fp: PrimePower) -> tuple[bool, Fraction]:
    """Check the section-count splitting for O(a) on P^d and return the
    scaled deficit.

    The identity is C(aq+d, d) = C(a+d, d) + sum_i count(i,0;d) C(a-i+d, d)
    (out-of-range binomials vanish by convention).  The deficit
    (C(aq+d,d) - C(a+d,d)) * d! / q^d is an exact rational converging to the
    volume a^d.
    """
    if d < 1 or a < 1:
        raise InvalidParameterError(f"needs d, a >= 1; got (d={d}, a={a})")
    q = fp.q
    lhs = binom(a * q + d, d)
    rhs = binom(a + d, d) + sum(
        composition_count(i, 0, d, fp) * binom(a - i + d, d) for i in range(1, d + 1)
    )
    deficit = Fraction((lhs - binom(a + d, d)) * math.factorial(d), q**d)
    return lhs == rhs, deficit


# ---------------------------------------------------------------------------
# Individual checks.  Each returns (status, detail).
# ---------------------------------------------------------------------------


def _ok(cond: bool, detail: str = "") -> tuple[str, str]:
    return ("PASS" if cond else "FAIL", detail)


def _sweep(fp: PrimePower, d: int) -> tuple[tuple[int, ...], ...]:
    """``composition_table(range(q), d, fp)`` as tuples, filed in ``_memo``
    under the table function, so a table patched in later is not served a
    stale one."""
    sweeps, key = _memo(fp.q), (composition_table, d)
    if key not in sweeps:
        sweeps[key] = tuple(map(tuple, composition_table(range(fp.q), d, fp)))
    return sweeps[key]


def check_sum_identity(p: int, e: int, d: int) -> tuple[str, str]:
    """At each residue m the counts over i = 0..d add up to q^d."""
    fp = PrimePower(p, e)
    q = fp.q
    sums = list(map(sum, zip(*_sweep(fp, d))))
    if sums.count(q**d) == q:
        return "PASS", f"all m, q={q}"
    return "FAIL", f"failing residues {[m for m, total in enumerate(sums) if total != q**d]}"


def check_shifted_sum(p: int, e: int, d: int) -> tuple[str, str]:
    """A full residue sweep in dimension d-1 against dimension d: for l = 1..d,
    sum_j count(l-1, j; d-1) == count(l, 0; d) - count(l, 0; d-1) + count(l-1, 0; d-1)."""
    fp = PrimePower(p, e)
    swept = list(map(sum, _sweep(fp, d - 1)))
    bad = []
    for l in range(1, d + 1):
        lifted = composition_count(l, 0, d, fp) - composition_count(l, 0, d - 1, fp)
        if swept[l - 1] != lifted + composition_count(l - 1, 0, d - 1, fp):
            bad.append(l)
    return _ok(not bad, f"failing l {bad}" if bad else f"l=1..{d}")


def check_support(p: int, e: int, d: int) -> tuple[str, str]:
    """count(i, m; d) is nonzero exactly when 0 <= m + i*q <= (d+1)(q-1),
    for i = -2..d+2: the rows 0..d from one table, the rest entry by entry."""
    fp = PrimePower(p, e)
    q = fp.q
    table = _sweep(fp, d)
    for i in range(-2, d + 3):
        if 0 <= i <= d:
            row = table[i]
        else:
            row = list(map(composition_count, repeat(i, q), range(q), repeat(d), repeat(fp)))
        # The count is nonzero exactly for lo <= m < hi.
        lo, hi = max(0, -i * q), max(0, min(q, (d + 1) * (q - 1) - i * q + 1))
        if 0 in row[lo:hi] or any(row[:lo]) or any(row[hi:]):
            m = next(m for m, count in enumerate(row) if (count != 0) != (lo <= m < hi))
            return "FAIL", f"support mismatch at (i={i}, m={m})"
    return "PASS", f"i=-2..{d + 2}, all m"


def check_eulerian_sum(d: int) -> tuple[str, str]:
    total = sum(eulerian(d, i) for i in range(d + 1))
    return _ok(total == math.factorial(d), f"sum {total} vs {d}!")


def check_mult_oracle(p: int, e: int, d: int) -> tuple[str, str]:
    """The four routes to the counts, entry by entry, by the row, by the
    table and by weighted sums, vs the convolution coefficients."""
    fp = PrimePower(p, e)
    q = fp.q
    table = _coefficients(q, d + 1)
    for i in range(-1, d + 2):
        for m in range(q):
            n = m + i * q
            if composition_count(i, m, d, fp) != (table[n] if n >= 0 else 0):
                return "FAIL", f"mismatch at (i={i}, m={m})"
    for m in range(q):
        for i, count in enumerate(composition_row(m, d, fp)):
            if count != table[m + i * q]:
                return "FAIL", f"row mismatch at (i={i}, m={m})"
    # The residues ascending, then descending, as the linear blowup reads them.
    for ms in (range(q), range(q - 1, -1, -1)):
        for i, row in enumerate(composition_table(ms, d, fp)):
            for m, count in zip(ms, row):
                if count != table[m + i * q]:
                    return "FAIL", f"table mismatch at (i={i}, m={m})"
        # Weights 2, 3, ..., q + 1 in the order of ms, as the Veronese cone
        # blowup reads its runs in either direction.
        weights = range(2, q + 2)
        for i, total in enumerate(composition_sums(ms, weights, d, fp)):
            row = table[i * q:(i + 1) * q]
            if total != sum(map(operator.mul, weights, map(row.__getitem__, ms))):
                return "FAIL", f"sums mismatch at (i={i}, m={ms[0]}..{ms[-1]})"
    return "PASS", f"closed form == convolution, q={q}"


def check_rank_law(p: int, e: int, tag: str, *params: int) -> tuple[str, str]:
    fp = PrimePower(p, e)
    decomp = structure_pushforward(FAMILIES[tag](*params), fp)
    expected = fp.q**decomp.variety.dim
    got = decomp.rank()
    return _ok(got == expected, f"rank {got} vs q^dim {expected}")


def check_alpha_det(p: int, e: int, d: int) -> tuple[str, str]:
    fp = PrimePower(p, e)
    cls = determinant_twist_sum(d, fp)
    closed = -d * fp.q**d * (fp.q - 1) // 2
    return _ok(cls.coords == (closed,), f"coefficient {cls.coords[0]} vs closed {closed}")


def check_volume(p: int, e: int, d: int, a: int) -> tuple[str, str]:
    fp = PrimePower(p, e)
    holds, deficit = volume_identity(d, a, fp)
    return _ok(holds, f"deficit {deficit}")


def check_sigma_closed(p: int, e: int, eps: int) -> tuple[str, str]:
    fp = PrimePower(p, e)
    closed = hirzebruch_closed_multiplicities(eps, fp)
    blocks = hirzebruch_block_multiplicities(eps, fp)
    return _ok(closed == blocks, f"closed {closed} vs blocks {blocks}")


def check_blowup_restrict(p: int, e: int, d: int, r: int) -> tuple[str, str]:
    """Restriction to the exceptional divisor, which the builder computes
    from shared composition tables, vs the column sums of the entry-by-entry
    blowup multiplicities and their closed form
    q^{r-1} * (count(k+1,0;d-r+1) - count(k+1,0;d-r) + count(k,0;d-r))."""
    fp = PrimePower(p, e)
    restricted = restrict(catalog.pushforward_linear_blowup(d, r, fp))
    for k in range(d - r + 1):
        summed = sum(blowup_multiplicity(i, k, d, r, fp) for i in range(r + 1))
        closed = fp.q ** (r - 1) * (
            composition_count(k + 1, 0, d - r + 1, fp)
            - composition_count(k + 1, 0, d - r, fp)
            + composition_count(k, 0, d - r, fp)
        )
        got = restricted.multiplicity((-k,))
        if not summed == closed == got:
            return "FAIL", f"k={k}: column sum {summed}, closed {closed}, restricted {got}"
    got = restricted.rank()
    return _ok(got == fp.q**d, f"restricted rank {got}")


def check_segre_split_routes(p: int, e: int, r: int, s: int) -> tuple[str, str]:
    """Splitting number vs the cone's trivial multiplicity and vs coefficient
    extraction: the dot product of the coefficient lists of
    (1 + u + ... + u^{q-1})^{r+1} and of the same polynomial to the power
    s+1 picks out the monomials u^t v^t.  Shifting one list by i*q gives
    the multiplicity of every other vertex-local class i*L the same way."""
    fp = PrimePower(p, e)
    number = localalg.splitting_number(SegreCone(r, s), fp)
    cone = localalg.cone_pushforward(SegreCone(r, s), fp)
    trivial = cone.trivial_multiplicity()
    shifted = segre_shifted_sums(r, s, fp)
    extracted = shifted[(0,)]
    if cone.lines != _nonzero(shifted):
        return "FAIL", f"cone classes {dict(cone.lines)} vs shifted coefficients {shifted}"
    return _ok(
        number == trivial == extracted,
        f"splitting {number} vs cone trivial {trivial} vs coefficients {extracted}",
    )


def check_veronese_box(p: int, e: int, max_d: int) -> tuple[str, str]:
    """Vertex-local classes of the Veronese-type cones, eps = 2, 3 and
    d <= max_d, vs the box count: the class -k*L counts the points of
    [0, q-1]^(d+1) whose coordinate sum is k*q modulo eps, one strided slice
    sum of the (d+1)-part table."""
    fp = PrimePower(p, e)
    q = fp.q
    for d in range(1, max_d + 1):
        table = _coefficients(q, d + 1)
        for eps in (2, 3):
            got = localalg.cone_pushforward(VeroneseCone(d, eps), fp).lines
            box = _nonzero({(-k,): sum(table[k * q % eps :: eps]) for k in range(eps)})
            if got != box:
                return "FAIL", f"VeroneseCone({d}, {eps}): {dict(got)} vs box {box}"
    return "PASS", f"{2 * max_d} cones"


def _loop_check(tag: str, p: int, e: int, *args: int, capped: bool = True) -> tuple[str, str]:
    """The builder of the family ``tag`` vs ``thomsen_loop``: ``args`` are the
    family's fields, then the bundle (zeros where none is given).  A twisted
    bundle above ``LOOP_Q_CAP`` is skipped where ``capped``."""
    fp, cls = PrimePower(p, e), FAMILIES[tag]
    fields = len(cls.__slots__)
    variety, bundle = cls(*args[:fields]), args[fields:] or (0,) * len(cls.bases[0])
    if capped and any(bundle) and fp.q > LOOP_Q_CAP:
        return "PASS", f"skipped (q > {LOOP_Q_CAP})"
    got = build(variety, bundle, fp).lines
    want = thomsen_loop(variety, bundle, fp)
    same = got == want
    return _ok(same, f"{len(want)} classes" if same else f"{dict(got)} vs loop {want}")


def check_fix_projspace(p: int, e: int) -> tuple[str, str]:
    fp = PrimePower(p, e)
    q = fp.q
    for n in range(-q, q + 1):
        k, m = divmod(n, q)
        expected = {(k,): m + 1, (k - 1,): q - 1 - m} if m < q - 1 else {(k,): m + 1}
        got = catalog.pushforward_projective_space(1, n, fp).lines
        if got != expected:
            return "FAIL", f"line fixture at n={n}: {dict(got)} vs {expected}"
    for m in range(q):
        rows = {
            (0,): (m + 1) * (m + 2) // 2,
            (-1,): (q * q + (2 * m + 3) * q - 2 * (m + 1) * (m + 2)) // 2,
        }
        if m < q - 2:
            rows[(-2,)] = (q - m - 1) * (q - m - 2) // 2
        got = catalog.pushforward_projective_space(2, m, fp).lines
        if got != rows:
            return "FAIL", f"plane fixture at m={m}: {dict(got)} vs {rows}"
    return "PASS", "P^1 and P^2 exponent tables"


def check_fix_hz_eps1_general(p: int, e: int, u: int, v: int) -> tuple[str, str]:
    """The five-term table for F^e_* O(u*C0 + v*f) on the point blowup.

    Valid for residues m <= n of u and v.  The fourth multiplicity is
    [q(q+1) - (n+1)(n+2) + (n-m)(2q-1-n+m)]/2; together the five terms sum
    to q^2 (the recorded table's sign on the (n-m) term fails that check).
    """
    fp = PrimePower(p, e)
    q = fp.q
    k, m = divmod(u, q)
    l, n = divmod(v, q)
    if m > n:
        return "PASS", "skipped (needs m <= n)"
    expected = _nonzero({
        (k, l): (m + 1) * (m + 2 + 2 * (n - m)) // 2,
        (k, l - 1): (m + 1) * (2 * q - (m + 2) - 2 * (n - m)) // 2,
        (k - 1, l): (n - m) * (n - m + 1) // 2,
        (k - 1, l - 1): (q * (q + 1) - (n + 1) * (n + 2) + (n - m) * (2 * q - 1 - n + m)) // 2,
        (k - 1, l - 2): (q - n - 1) * (q - n - 2) // 2,
    })
    if sum(expected.values()) != q * q:
        return "FAIL", "table does not sum to q^2"
    got = catalog.pushforward_hirzebruch(1, u, v, fp).lines
    return _ok(got == expected, f"(u={u}, v={v})")


def check_fix_product_small(p: int, e: int) -> tuple[str, str]:
    fp = PrimePower(p, e)
    got = catalog.pushforward_product(1, 1, 0, 0, fp).lines
    a0 = [composition_count(i, 0, 1, fp) for i in (0, 1)]
    expected = _nonzero({(-i, -j): a0[i] * a0[j] for i in (0, 1) for j in (0, 1)})
    return _ok(got == expected, f"{dict(got)}")


def check_fix_rnc_closed(p: int, e: int, eps: int) -> tuple[str, str]:
    """Trivial and ruling-class multiplicities on the cone vs their residue
    closed forms, at every q, q < eps included, and eps >= 2 (the grid's)."""
    fp = PrimePower(p, e)
    q = fp.q
    decomp = localalg.cone_pushforward(RationalNormalCone(eps), fp)
    trivial = decomp.trivial_multiplicity()
    ruling = decomp.multiplicity((-1,))
    k = q % eps
    if k == 0:
        expected_trivial = expected_ruling = q * q // eps
    else:
        rho1 = k % eps
        rho2 = (2 * k) % eps or eps
        num = 2 * q * q - (rho2**2 - 2 * rho1**2 + (eps + 2) * (2 * rho1 - rho2)) + 2 * eps
        if num % (2 * eps):
            return "FAIL", f"non-integral trivial closed form {num}/(2*{eps})"
        expected_trivial = num // (2 * eps)
        num2 = q * q + rho1 * (eps - rho1) - eps
        if num2 % eps:
            return "FAIL", f"non-integral ruling closed form {num2}/{eps}"
        expected_ruling = num2 // eps
    return _ok(
        (trivial, ruling) == (expected_trivial, expected_ruling),
        f"(trivial, ruling) {(trivial, ruling)} vs {(expected_trivial, expected_ruling)}",
    )


def check_fix_quadric_d3(p: int, e: int) -> tuple[str, str]:
    fp = PrimePower(p, e)
    q = fp.q
    support = catalog.quadric_pushforward_support(3, fp)
    lines = sorted(coords[0] for coords in support.lines)
    spinors = sorted(support.spinors)
    if lines != list(range(3 * (q - 1) // q + 1)):
        return "FAIL", f"line support {lines}"
    if p == 2:
        expected = [1] if e == 1 else [1, 2]
    else:
        expected = [] if (e, p) == (1, 3) else [2]
    return _ok(spinors == expected, f"spinor support {spinors} vs {expected}")


# -- known-tension checks; always reported, never FAIL ----------------------


def warn_hz_small_q_row(p: int, e: int) -> tuple[str, str]:
    """Recorded eps=3, q=2 row (1, 1, 0, 0) vs the four-block summation.

    The block summation, the residue closed forms, and a section count of
    the twisted pushforward all give (0, 2, 0, 0); the recorded row fails
    those cross-checks, so the discrepancy is surfaced rather than asserted
    either way.
    """
    if (p, e) != (2, 1):
        return "PASS", "skipped (only q=2)"
    fp = PrimePower(2, 1)
    recorded = (1, 1, 0, 0)
    blocks = hirzebruch_block_multiplicities(3, fp)
    if blocks == recorded:
        return "PASS", f"{blocks}"
    return "WARN", f"recorded {recorded} vs computed {blocks}"


def warn_blowup_k0_claim(p: int, e: int, d: int, r: int) -> tuple[str, str]:
    """Recorded trivial-block size q^r * C(q+d-r, d-r) for the restriction to
    the exceptional divisor vs the computed q^{r-1} * C(q+d-r, d-r+1)."""
    fp = PrimePower(p, e)
    q = fp.q
    restricted = restrict(catalog.pushforward_linear_blowup(d, r, fp))
    computed = restricted.trivial_multiplicity()
    recorded = q**r * binom(q + d - r, d - r)
    if computed == recorded:
        return "PASS", f"{computed}"
    return "WARN", f"recorded {recorded} vs computed {computed}"


def warn_quadric_p2_high_d(e: int, d: int) -> tuple[str, str]:
    """For p=2 and d >= 4 the stated spinor windows exclude S(1), so the
    support-derived verdict contradicts the blanket p=2 rule."""
    fp = PrimePower(2, e)
    report = positivity.quadric_kernel_verdict(d, fp)
    if not report.disagreement:
        return "PASS", f"verdicts agree: {report.support_verdict.status.value}"
    return "WARN", (
        f"support verdict {report.support_verdict.status.value} vs stated "
        f"{report.stated_verdict.status.value}"
    )


# ---------------------------------------------------------------------------
# The case table: grids map (p, e, q, max_d) to argument tuples at q = p^e.
# ---------------------------------------------------------------------------


def _field(p: int, e: int, q: int, max_d: int) -> list[tuple]:
    return [(p, e)]


def _dims(p: int, e: int, q: int, max_d: int) -> list[tuple]:
    return [(p, e, d) for d in range(1, max_d + 1)]


def _blowups(p: int, e: int, q: int, max_d: int) -> list[tuple]:
    return [(p, e, d, r) for d in range(2, max_d + 1) for r in range(1, d)]


def _rank_law_grid(p: int, e: int, q: int, max_d: int) -> list[tuple]:
    families = [("projspace", d) for d in range(1, max_d + 1)]
    families += [(tag, r, s) for r in (1, 2) for s in (1, 2) for tag in ("product", "segre-cone")]
    families += [("hirzebruch", eps) for eps in range(5)]
    families += [("blowup-linear", d, r) for _, _, d, r in _blowups(p, e, q, max_d)]
    families += [("veronese-cone", d, eps) for d in range(1, min(max_d, 3) + 1)
                 for eps in range(1, 5)]
    return [(p, e, *family) for family in families]


CASES: dict[str, tuple] = {
    "sum-identity": ("identities", check_sum_identity, _dims),
    "shifted-sum": ("identities", check_shifted_sum, _dims),
    "support": ("identities", check_support, _dims),
    "eulerian-sum": ("identities", check_eulerian_sum,
                     lambda p, e, q, max_d: [(d,) for d in range(1, 9)]),
    "rank-law": ("identities", check_rank_law, _rank_law_grid),
    "alpha-det": ("identities", check_alpha_det,
                  lambda p, e, q, max_d: _dims(p, e, q, min(max_d, 3))),
    "volume": ("identities", check_volume, lambda p, e, q, max_d: [
        (p, e, d, a) for d in range(1, min(max_d, 3) + 1) for a in (1, 2, 3)]),
    "mult-oracle": ("oracles", check_mult_oracle, lambda p, e, q, max_d: [
        (p, e, d) for d in range(1, max_d + 1) if q ** (d + 1) <= 2**20]),
    "sigma-closed": ("oracles", check_sigma_closed,
                     lambda p, e, q, max_d: [(p, e, eps) for eps in range(1, 7)]),
    "blowup-restrict": ("oracles", check_blowup_restrict, _blowups),
    "segre-split": ("oracles", check_segre_split_routes,
                    lambda p, e, q, max_d: [(p, e, r, s) for r in (1, 2) for s in (1, 2)]),
    # Uncapped, so it runs at every q, q < eps and q > LOOP_Q_CAP included.
    "veronese-direct": ("oracles", functools.partial(_loop_check, "veronese-cone", capped=False),
                        lambda p, e, q, max_d: [
                            (p, e, d, eps, n, nprime) for d in (1, 2) for eps in (1, 2, 3)
                            for n in (0, 1, q - 1) for nprime in (0, eps - 1)]),
    "veronese-box": ("oracles", check_veronese_box, lambda p, e, q, max_d: [(p, e, min(max_d, 3))]),
    "hz-loop": ("oracles", functools.partial(_loop_check, "hirzebruch"), lambda p, e, q, max_d: [
        (p, e, eps, u, v) for eps in range(0, 5)
        for u, v in ((0, 0), (-1, q + 2), (q + 1, -3), (2 * q + 1, -q - 3))]),
    "segre-loop": ("oracles", functools.partial(_loop_check, "segre-cone"), lambda p, e, q, max_d: [
        (p, e, r, s, n, n1, n2) for r, s in ((1, 1), (1, 2), (2, 2))
        for n, n1, n2 in ((0, 0, 0), (1, 0, q - 1), (q - 1, q // 2, 1))]),
    "blowup-loop": ("oracles", functools.partial(_loop_check, "blowup-linear"),
                    lambda p, e, q, max_d: _blowups(p, e, q, min(max_d, 3))),
    "fix-projspace": ("fixtures", check_fix_projspace, _field),
    "fix-hz-general": ("fixtures", check_fix_hz_eps1_general, lambda p, e, q, max_d: [
        (p, e, u, v) for u in (0, 1, q, q + 1) for v in (0, 1, 2, q + 2)]),
    "fix-product": ("fixtures", check_fix_product_small, _field),
    "fix-rnc": ("fixtures", check_fix_rnc_closed,
                lambda p, e, q, max_d: [(p, e, eps) for eps in (2, 3, 4, 5)]),
    "fix-quadric-d3": ("fixtures", check_fix_quadric_d3, _field),
    "warn-hz-small-q": ("fixtures", warn_hz_small_q_row, _field),
    "warn-blowup-k0": ("fixtures", warn_blowup_k0_claim,
                       lambda p, e, q, max_d: [(p, e, 2, 1), (p, e, 3, 1)]),
    "warn-quadric-p2": ("fixtures", warn_quadric_p2_high_d,
                        lambda p, e, q, max_d: [(e, 4), (e, 5)]),
}

CaseSpec = tuple[str, tuple]


def build_cases(
    suite: str, max_d: int = 3, max_e: int = 2, primes: tuple[int, ...] = (2, 3, 5)
) -> list[CaseSpec]:
    """The suite's cases, grouped by q: at each (p, e), the grids of the
    suite's rows in table order, each case once."""
    rows = [(name, grid) for name, (home, _, grid) in CASES.items() if home == suite]
    if not rows:
        raise ValueError(f"unknown suite {suite!r}")
    return list(dict.fromkeys(
        (name, args) for p in primes for e in range(1, max_e + 1)
        for name, grid in rows for args in grid(p, e, p**e, max_d)
    ))


def run_case(case: CaseSpec) -> CheckResult:
    """Run one case.  A check that raises is reported as a FAIL naming the
    exception, so one faulty case never stops a run."""
    name, args = case
    start = time.perf_counter()
    try:
        status, detail = CASES[name][1](*args)
    except Exception as exc:
        status, detail = "FAIL", f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    arg_str = ",".join(str(a) for a in args)
    return CheckResult(f"{name}({arg_str})", status, detail, seconds)


def run_suites(
    suites: list[str],
    max_d: int = 3,
    max_e: int = 2,
    primes: tuple[int, ...] = (2, 3, 5),
    jobs: int = 1,
) -> list[tuple[str, list[CheckResult]]]:
    """Each suite's results, sorted by key.  With ``jobs > 1`` one pool of
    min(jobs, CPU count) worker processes runs the cases of every suite, in
    contiguous chunks, so the same-q cases of a chunk share its worker's
    memo; with one worker the cases run in this process.  The memo is empty
    when the call starts and when it returns."""

    def report(mapper) -> list[tuple[str, list[CheckResult]]]:
        out = []
        for suite in suites:
            cases = build_cases(suite, max_d=max_d, max_e=max_e, primes=primes)
            out.append((suite, sorted(mapper(run_case, cases), key=lambda res: res.key)))
        return out

    # A pool forks all its workers at the first submit: never more than CPUs.
    workers = min(jobs, os.cpu_count() or 1)
    _memo.cache_clear()
    try:
        if workers <= 1:
            return report(map)
        from concurrent.futures import ProcessPoolExecutor  # a serial run needs no multiprocessing

        # Cases come grouped by q: about one chunk per q and worker keeps each
        # chunk on one q, and every q, the costliest too, is shared out.
        chunks = max(1, len(primes) * max_e) * workers
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return report(
                lambda fn, cases: pool.map(fn, cases, chunksize=max(1, len(cases) // chunks))
            )
    finally:
        _memo.cache_clear()

"""Exact integer combinatorics underlying every multiplicity in the catalog.

The single most important quantity is ``composition_count(i, m, d, q)``: the
number of ordered (d+1)-tuples with entries in [0, q-1] summing to m + i*q,
where q = p^e is a prime power.  It vanishes outside 0 <= i <= d, and
inside it is an alternating binomial sum of i + 1 terms, each costing one
``math.comb``.  ``composition_row(m, d, q)`` gives the row i = 0..d at one
residue from d + 1 binomials, cheaper than its entries at every d, for the
builders that read a few residues; ``composition_table(ms, d, q)`` gives the
rows over a range of residues, with the work per residue in C, for sweeps;
``composition_sums(ms, weights, d, q)`` gives the weighted sum of those rows
over a range of residues, at the cost of one row, for the builders that sum
a polynomial in the residue over a run.
``bounded_power_coefficients`` gives the same counts as the
coefficient list of (1 + t + ... + t^{q-1})^{d+1}, by direct convolution;
the oracles in ``verify`` build that list once per (q, d) in a run and read
every count they need from it.  Everything is plain ``int`` arithmetic; the
counts grow like q^d and overflow fixed-width integers almost immediately.

For a fixed index i the count is a polynomial of degree d in m on [0, q-1],
so every sum of counts over a range of residues is a sum of a polynomial.
``floor_pieces`` cuts a range of j into the runs on which
floor((a*j + b)/q) is constant, and ``range_sum_weights`` gives the integer
weights that sum a polynomial over a run as one dot product with a few
samples; together they let the catalog sum over all q residues at a cost
that does not grow with q.  Every function here
is a leaf: it calls only the standard library and other functions of this
module, never a function handed to it.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator, Sequence
from itertools import accumulate, repeat

from .errors import InvalidParameterError
from .value import Value


# Miller-Rabin to every one of these bases decides primality exactly for
# all n below PRIME_BOUND (Sorenson and Webster, 2015).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Exact for n < PRIME_BOUND: division by the bases, then Miller-Rabin."""
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimePower(Value):
    """A prime power q = p^e with p prime and e >= 1.

    p must lie below ``PRIME_BOUND``, where the deterministic Miller-Rabin
    check is exact; q itself may be huge.
    """

    __slots__ = ("p", "e", "q")

    def __init__(self, p: int, e: int) -> None:
        if p >= PRIME_BOUND:
            raise InvalidParameterError(
                f"p must be below {PRIME_BOUND} to be checked for primality; got p={p}"
            )
        if not _is_prime(p):
            raise InvalidParameterError(f"p must be prime; got p={p}")
        if e < 1:
            raise InvalidParameterError(f"e must satisfy e >= 1; got e={e}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "q", p**e)

    def __reduce__(self):
        return PrimePower, (self.p, self.e)


def floor_pieces(a: int, b: int, q: int, lo: int, hi: int) -> Iterator[tuple[int, int, int]]:
    """Runs of j in [lo, hi] on which floor((a*j + b)/q) is constant.

    Yields (floor, jlo, jhi) in increasing j; the runs cover [lo, hi]
    contiguously and an empty range yields nothing.  There are at most
    |a|*(hi - lo)//q + 2 runs (and never more than hi - lo + 1), so for a
    fixed slope a the count does not grow with q.
    """
    if q <= 0:
        raise InvalidParameterError(f"modulus must be positive; got q={q}")
    j = lo
    while j <= hi:
        fl = (a * j + b) // q
        if a > 0:
            # First j' with a*j' + b >= (fl + 1)*q.
            nxt = -((b - (fl + 1) * q) // a)
        elif a < 0:
            # First j' with a*j' + b <= fl*q - 1.
            nxt = -((fl * q - 1 - b) // -a)
        else:
            nxt = hi + 1
        end = min(nxt - 1, hi)
        yield fl, j, end
        j = end + 1


def range_sum_weights(n: int, count: int) -> list[int]:
    """Integer weights w with f(0) + f(1) + ... + f(count - 1) equal to
    sum_j w[j] * f(j) for every polynomial f of degree < n.

    By Newton's forward differences f(t) = sum_k D^k f(0) C(t, k), and
    sum_{t < count} C(t, k) = C(count, k + 1), so w[j] is the coefficient of
    x^j in sum_{k < n} C(count, k + 1) (x - 1)^k, taken by Horner's rule.
    There are min(count, n) weights, all ones when count <= n.
    """
    if count < 0:
        raise InvalidParameterError(f"count must satisfy count >= 0; got {count}")
    if count <= n:
        return [1] * count
    weights: list[int] = []
    for k in range(n, 0, -1):
        # weights <- weights * (x - 1) + C(count, k), in place.
        weights.append(0)
        for j in range(len(weights) - 1, 0, -1):
            weights[j] = weights[j - 1] - weights[j]
        weights[0] = math.comb(count, k) - weights[0]
    return weights


def polynomial_range_sum(samples: Sequence[int], count: int) -> int:
    """Exact sum f(0) + f(1) + ... + f(count - 1) of an integer-valued
    polynomial f of degree < len(samples), given samples[t] = f(t): the dot
    product of the samples with ``range_sum_weights``."""
    return sum(map(operator.mul, range_sum_weights(len(samples), count), samples))


def binom(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), defined as 0 whenever k < 0, k > n or n < 0.

    The zero convention is load-bearing: the alternating sums below index
    past their valid ranges on purpose.
    """
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def composition_count(i: int, m: int, d: int, fp: PrimePower) -> int:
    """Number of (d+1)-tuples in [0, q-1]^{d+1} summing to m + i*q.

    Zero outside 0 <= i <= d: d+1 entries below q sum to at most
    (d+1)(q-1) < (d+1)q.  Inside, evaluated by the alternating closed form
    sum_{t=0}^{i} (-1)^t C(d+1, t) C((i-t)*q + m + d, d), at one binomial
    per term: the signed C(d+1, t) follows from the exact recurrence
    c_{t+1} = -c_t (d+1-t)/(t+1), and the top argument drops by q each step.
    """
    q = fp.q
    if not 0 <= m <= q - 1:
        raise InvalidParameterError(f"m must satisfy 0 <= m <= q-1; got m={m}, q={q}")
    if d < 0:
        raise InvalidParameterError(f"d must satisfy d >= 0; got d={d}")
    if not 0 <= i <= d:
        return 0
    total = 0
    sign_binom = 1
    # top = (i-t)*q + m + d >= d, so every binomial is in range.
    top = i * q + m + d
    for t in range(i + 1):
        total += sign_binom * math.comb(top, d)
        sign_binom = -sign_binom * (d + 1 - t) // (t + 1)
        top -= q
    return total


def composition_row(m: int, d: int, fp: PrimePower) -> list[int]:
    """``composition_count(i, m, d, fp)`` for i = 0..d: the one-residue row of
    ``composition_table``, at d + 1 binomials and d(d+1) scalar subtractions."""
    q = fp.q
    if not 0 <= m <= q - 1:
        raise InvalidParameterError(f"m must satisfy 0 <= m <= q-1; got m={m}, q={q}")
    if d < 0:
        raise InvalidParameterError(f"d must satisfy d >= 0; got d={d}")
    row = list(map(math.comb, range(m + d, m + d + (d + 1) * q, q), repeat(d)))
    tops = range(d, 0, -1)
    for _ in range(d + 1):
        for k in tops:
            row[k] -= row[k - 1]
    return row


def composition_table(ms: range, d: int, fp: PrimePower) -> list[list[int]]:
    """The rows i = 0..d of ``composition_count(i, m, d, fp)`` for m in ``ms``.

    ``ms`` is a range of residues in [0, q-1], of any step, possibly empty.
    The d + 1 binomial columns B_k(m) = C(m + k*q + d, d) are the
    coefficients of (1 - t)^{-(d+1)} at m + k*q; the rows are those of
    (1 - t^q)^{d+1} (1 - t)^{-(d+1)}, so d + 1 rounds of differencing
    B_k - B_{k-1}, one whole column at a time, turn the columns into the rows.
    The work per residue runs in C: d + 1 binomials and d(d+1) subtractions.
    """
    q = fp.q
    if ms and not (0 <= ms[0] <= q - 1 and 0 <= ms[-1] <= q - 1):
        raise InvalidParameterError(f"m must satisfy 0 <= m <= q-1; got m in {ms}, q={q}")
    if d < 0:
        raise InvalidParameterError(f"d must satisfy d >= 0; got d={d}")
    start, stop, step = ms.start + d, ms.stop + d, ms.step
    rows = [
        list(map(math.comb, range(start + k * q, stop + k * q, step), repeat(d)))
        for k in range(d + 1)
    ]
    for _ in range(d + 1):
        for k in range(d, 0, -1):
            rows[k] = list(map(operator.sub, rows[k], rows[k - 1]))
    return rows


def composition_sums(ms: range, weights: Sequence[int], d: int, fp: PrimePower) -> list[int]:
    """sum_t weights[t] * composition_count(i, ms[t], d, fp) for i = 0..d.

    ``ms`` is a range of residues in [0, q-1] as in ``composition_table``,
    with one weight per residue.  Differencing is linear, so the weighted
    sums of the d + 1 binomial columns, each one dot product in C, are
    differenced d + 1 times as in ``composition_row``.
    """
    q = fp.q
    if ms and not (0 <= ms[0] <= q - 1 and 0 <= ms[-1] <= q - 1):
        raise InvalidParameterError(f"m must satisfy 0 <= m <= q-1; got m in {ms}, q={q}")
    if d < 0:
        raise InvalidParameterError(f"d must satisfy d >= 0; got d={d}")
    if len(weights) != len(ms):
        raise InvalidParameterError(
            f"need one weight per residue; got {len(weights)} weights for {len(ms)} residues"
        )
    start, stop, step = ms.start + d, ms.stop + d, ms.step
    sums = []
    for k in range(d + 1):
        column = map(math.comb, range(start + k * q, stop + k * q, step), repeat(d))
        sums.append(sum(map(operator.mul, weights, column)))
    tops = range(d, 0, -1)
    for _ in range(d + 1):
        for k in tops:
            sums[k] -= sums[k - 1]
    return sums


def bounded_power_coefficients(q: int, parts: int) -> list[int]:
    """Coefficient list of (1 + t + ... + t^{q-1})^{parts}.

    Computed by repeated convolution, each factor taken as
    (1 - t^q) / (1 - t): subtract the list shifted by q, then take running
    sums.  The result is independent of the closed form it is used to check.
    """
    if q < 1:
        raise InvalidParameterError(f"q must satisfy q >= 1; got q={q}")
    if parts < 0:
        raise InvalidParameterError(f"parts must satisfy parts >= 0; got {parts}")
    coeffs = [1]
    for _ in range(parts):
        diff = coeffs + [0] * (q - 1)
        diff[q:] = map(operator.sub, diff[q:], coeffs)
        coeffs = list(accumulate(diff))
    return coeffs


def eulerian(d: int, i: int) -> int:
    """Eulerian number A(d, i) = sum_{j=0}^{i} (-1)^j C(d+1, j) (i-j)^d.

    Satisfies sum_{i=0}^{d} A(d, i) = d! and A(d, 0) = 0 for d >= 1; the
    alternating sum vanishes on its own outside 1 <= i <= d.
    """
    if d < 1:
        raise InvalidParameterError(f"d must satisfy d >= 1; got d={d}")
    if i < 0:
        return 0
    total = 0
    for j in range(i + 1):
        term = binom(d + 1, j) * (i - j) ** d
        if j % 2:
            total -= term
        else:
            total += term
    return total


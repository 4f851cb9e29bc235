"""Tests for the exact combinatorics layer.

The composition counts are checked three ways: the alternating closed form,
the convolution table, and (for tiny budgets) naive tuple enumeration.  The
composition table, which gives whole rows of counts over a progression of
residues, is checked entry by entry against the convolution coefficients and
against the one-entry closed form; the weighted sums of those rows, against
the literal weighted sum of one-entry counts.
"""

import math
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from frobpush.combinat import (
    PRIME_BOUND,
    PrimePower,
    _is_prime,
    binom,
    bounded_power_coefficients,
    composition_count,
    composition_row,
    composition_sums,
    composition_table,
    eulerian,
    floor_pieces,
    polynomial_range_sum,
    range_sum_weights,
)
from frobpush.errors import InvalidParameterError
from frobpush.verify import _coefficients

SMALL_FIELDS = [PrimePower(p, e) for p in (2, 3, 5) for e in (1, 2)]


def trial_division_is_prime(n):
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def naive_composition_count(total, parts, q):
    return sum(1 for t in product(range(q), repeat=parts) if sum(t) == total)


def alternating_sum(i, m, d, q):
    """The closed form term by term: sum over t = 0..min(i, d+1) of
    (-1)^t C(d+1, t) C((i-t)q + m + d, d), with no shortcut outside 0..d."""
    return sum(
        (-1) ** t * math.comb(d + 1, t) * math.comb((i - t) * q + m + d, d)
        for t in range(min(i, d + 1) + 1)
    )


PRIME_POWERS_TO_64 = [
    (p, e) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
    for e in range(1, 7) if p**e <= 64
]


class TestPrimePower:
    def test_q_value(self):
        assert PrimePower(3, 2).q == 9
        assert PrimePower(2, 10).q == 1024

    @pytest.mark.parametrize("p", [1, 4, 6, 9, 0, -3])
    def test_rejects_composite(self, p):
        with pytest.raises(InvalidParameterError):
            PrimePower(p, 1)

    def test_rejects_bad_exponent(self):
        with pytest.raises(InvalidParameterError):
            PrimePower(2, 0)

    def test_primality_matches_trial_division(self):
        for n in range(-2, 10**5):
            assert _is_prime(n) == trial_division_is_prime(n), n

    @pytest.mark.parametrize("p", [561, 2047, 3215031751, 1000000007 * 1000000009])
    def test_rejects_pseudoprimes(self, p):
        # A Carmichael number, the least strong pseudoprime to base 2, the
        # least to bases 2, 3, 5 and 7, and a product of two large primes.
        assert not _is_prime(p)
        with pytest.raises(InvalidParameterError, match="p must be prime"):
            PrimePower(p, 1)

    def test_large_primes_accepted(self):
        for p in (1000000007, 1000000000000000003, 2**61 - 1, 2**64 - 59):
            assert PrimePower(p, 2).q == p * p

    def test_rejects_p_beyond_exact_bound(self):
        for p in (PRIME_BOUND, PRIME_BOUND + 2, 2**89 - 1):
            with pytest.raises(InvalidParameterError, match=str(PRIME_BOUND)):
                PrimePower(p, 1)


class TestFloorPieces:
    @given(
        st.integers(-20, 20),
        st.integers(-10**6, 10**6),
        st.integers(1, 300),
        st.integers(-50, 50),
        st.integers(-5, 120),
    )
    def test_runs_cover_range_with_constant_floor(self, a, b, q, lo, length):
        hi = lo + length
        runs = list(floor_pieces(a, b, q, lo, hi))
        if hi < lo:
            assert runs == []
            return
        assert runs[0][1] == lo and runs[-1][2] == hi
        for (_, _, end), (_, start, _) in zip(runs, runs[1:]):
            assert start == end + 1
        for fl, jlo, jhi in runs:
            assert jlo <= jhi
            assert all((a * j + b) // q == fl for j in range(jlo, jhi + 1))
        # Maximal runs: the floor changes between neighbours.
        assert all(x[0] != y[0] for x, y in zip(runs, runs[1:]))
        assert len(runs) <= abs(a) * (hi - lo) // q + 2

    def test_huge_modulus(self):
        q = 2**64
        runs = list(floor_pieces(-3, 0, q, 1, q - 1))
        assert [fl for fl, _, _ in runs] == [-1, -2, -3]
        assert runs[0][1] == 1 and runs[-1][2] == q - 1

    def test_rejects_nonpositive_modulus(self):
        with pytest.raises(InvalidParameterError):
            list(floor_pieces(1, 0, 0, 0, 3))


class TestPolynomialRangeSum:
    @given(
        st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=7),
        st.integers(-50, 50),
        st.integers(0, 60),
        st.integers(0, 3),
    )
    def test_matches_direct_sum(self, coeffs, start, count, extra):
        # A random integer polynomial of degree len(coeffs) - 1 <= 6, sampled
        # at start, start + 1, ...; ``extra`` samples more points than the
        # degree needs, so short ranges are summed from the samples alone.
        def f(x):
            return sum(c * x**k for k, c in enumerate(coeffs))

        samples = [f(start + t) for t in range(len(coeffs) + extra)]
        direct = sum(f(start + t) for t in range(count))
        assert polynomial_range_sum(samples, count) == direct

    def test_empty_and_short_ranges(self):
        assert polynomial_range_sum([], 0) == 0
        assert polynomial_range_sum([5, 7, 11], 0) == 0
        assert polynomial_range_sum([5, 7, 11], 2) == 12
        assert polynomial_range_sum([5, 7, 11], 3) == 23

    def test_huge_count(self):
        n = 3**40
        assert polynomial_range_sum([0, 1, 4], n) == (n - 1) * n * (2 * n - 1) // 6

    def test_rejects_negative_count(self):
        with pytest.raises(InvalidParameterError):
            polynomial_range_sum([1], -1)


class TestRangeSumWeights:
    @given(
        st.lists(st.integers(-10**6, 10**6), min_size=0, max_size=8),
        st.integers(-50, 50),
        st.integers(0, 200),
    )
    def test_weights_and_range_sum_match_direct_sums(self, coeffs, start, count):
        # A random integer polynomial of degree < n = len(coeffs) <= 8,
        # sampled at start, start + 1, ...
        def f(x):
            return sum(c * x**k for k, c in enumerate(coeffs))

        n = len(coeffs)
        direct = sum(f(start + t) for t in range(count))
        weights = range_sum_weights(n, count)
        assert len(weights) == min(n, count)
        assert sum(w * f(start + j) for j, w in enumerate(weights)) == direct
        assert polynomial_range_sum([f(start + t) for t in range(n)], count) == direct

    def test_short_ranges_are_ones(self):
        assert range_sum_weights(3, 0) == []
        assert range_sum_weights(3, 2) == [1, 1]
        assert range_sum_weights(3, 3) == [1, 1, 1]
        assert range_sum_weights(0, 5) == []

    def test_small_weights(self):
        # n = 2: count f(0) + C(count, 2) (f(1) - f(0)).
        assert range_sum_weights(1, 7) == [7]
        assert range_sum_weights(2, 7) == [7 - 21, 21]

    @pytest.mark.parametrize("big", [2**64, 3**40])
    def test_hockey_stick_at_large_count(self, big):
        # sum_{t < N} C(t, k) = C(N, k + 1), read from the weights of n = 8.
        weights = range_sum_weights(8, big)
        for k in range(8):
            samples = [math.comb(j, k) for j in range(8)]
            assert sum(w * c for w, c in zip(weights, samples)) == math.comb(big, k + 1)
            assert polynomial_range_sum(samples, big) == math.comb(big, k + 1)

    def test_rejects_negative_count_with_its_message(self):
        message = "count must satisfy count >= 0; got -1"
        with pytest.raises(InvalidParameterError, match=message):
            range_sum_weights(2, -1)
        with pytest.raises(InvalidParameterError, match=message):
            polynomial_range_sum([1, 2], -1)


class TestBinom:
    def test_examples(self):
        assert binom(5, 2) == 10
        assert binom(3, 5) == 0
        assert binom(9 + 2, 2) == 55

    def test_zero_conventions(self):
        assert binom(4, -1) == 0
        assert binom(-2, 0) == 0
        assert binom(0, 0) == 1


class TestCompositionCount:
    def test_zero_block_is_simplex_count(self):
        for fp in SMALL_FIELDS:
            for d in range(4):
                for m in range(fp.q):
                    assert composition_count(0, m, d, fp) == binom(m + d, d)

    def test_top_corner_vanishes(self):
        for fp in SMALL_FIELDS:
            for d in range(1, 4):
                assert composition_count(d, fp.q - 1, d, fp) == 0

    def test_line_value(self):
        for fp in SMALL_FIELDS:
            assert composition_count(1, 0, 1, fp) == fp.q - 1

    def test_second_block_closed_form(self):
        for fp in SMALL_FIELDS:
            for d in range(1, 5):
                assert composition_count(1, 0, d, fp) == binom(fp.q + d, d) - (d + 1)

    def test_negative_index_is_zero(self):
        fp = PrimePower(3, 1)
        assert composition_count(-1, 0, 2, fp) == 0

    def test_invalid_residue(self):
        fp = PrimePower(3, 1)
        with pytest.raises(InvalidParameterError):
            composition_count(0, 3, 2, fp)
        with pytest.raises(InvalidParameterError):
            composition_count(0, -1, 2, fp)

    def test_negative_dimension(self):
        with pytest.raises(InvalidParameterError, match="^d must satisfy d >= 0; got d=-1$"):
            composition_count(0, 0, -1, PrimePower(3, 1))

    def test_oracle_examples(self):
        # (i, m) = (1, 0) and (0, 2) at d = 2 read entries 3 and 2 of the table.
        assert _coefficients(3, 3)[3] == 7
        for q in (3, 5, 4):
            assert _coefficients(q, 3)[2] == 6

    def test_oracle_matches_naive_enumeration(self):
        for fp in (PrimePower(2, 1), PrimePower(2, 2), PrimePower(3, 1), PrimePower(5, 1)):
            for d in range(3):
                if fp.q ** (d + 1) > 4096:
                    continue
                table = _coefficients(fp.q, d + 1)
                for total in range((d + 2) * fp.q):
                    expected = naive_composition_count(total, d + 1, fp.q)
                    assert table[total] == expected

    def test_closed_form_matches_oracle(self):
        for fp in SMALL_FIELDS:
            for d in range(4):
                if fp.q ** (d + 1) > 2**20:
                    continue
                # Up to i = 2d+4, well past the support: for i > d+1 the
                # closed form skips its vanishing terms t = d+2..i.
                table = _coefficients(fp.q, d + 1)
                for i in range(-1, 2 * d + 5):
                    for m in range(fp.q):
                        n = m + i * fp.q
                        want = table[n] if 0 <= n < len(table) else 0
                        assert composition_count(i, m, d, fp) == want

    @given(st.sampled_from(PRIME_POWERS_TO_64), st.integers(0, 8), st.data())
    def test_matches_the_alternating_sum(self, pe, d, data):
        fp = PrimePower(*pe)
        i = data.draw(st.integers(-3, 2 * d + 4), label="i")
        m = data.draw(st.integers(0, fp.q - 1), label="m")
        assert composition_count(i, m, d, fp) == alternating_sum(i, m, d, fp.q)

    @given(st.sampled_from([(2, 64), (3, 40)]), st.integers(0, 8), st.integers(1, 3), st.data())
    def test_vanishes_past_d_at_huge_q(self, pe, d, past, data):
        # No convolution table of length (d+1)q fits at these q; the
        # alternating sum cancels to 0 for every i in d+1..d+3.
        fp = PrimePower(*pe)
        m = data.draw(st.integers(0, fp.q - 1), label="m")
        i = d + past
        assert composition_count(i, m, d, fp) == alternating_sum(i, m, d, fp.q) == 0

    def test_support_characterization(self):
        for fp in SMALL_FIELDS:
            q = fp.q
            for d in range(4):
                for i in range(-2, d + 3):
                    for m in range(q):
                        nonzero = composition_count(i, m, d, fp) != 0
                        assert nonzero == (0 <= m + i * q <= (d + 1) * (q - 1))

    @given(st.integers(1, 40), st.integers(0, 5))
    def test_coefficient_table_matches_naive_convolution(self, q, parts):
        coeffs = [1]
        for _ in range(parts):
            out = [0] * (len(coeffs) + q - 1)
            for s, c in enumerate(coeffs):
                for t in range(q):
                    out[s + t] += c
            coeffs = out
        assert bounded_power_coefficients(q, parts) == coeffs

    def test_coefficient_table_is_palindromic(self):
        for q in (2, 3, 4, 5, 9):
            for parts in (1, 2, 3, 4):
                table = bounded_power_coefficients(q, parts)
                assert table == table[::-1]
                assert len(table) == parts * (q - 1) + 1

    def test_coefficient_table_refuses_bad_sizes(self):
        with pytest.raises(InvalidParameterError, match="^q must satisfy q >= 1; got q=0$"):
            bounded_power_coefficients(0, 1)
        with pytest.raises(InvalidParameterError, match="^parts must satisfy parts >= 0; got -1$"):
            bounded_power_coefficients(2, -1)

    def test_polynomial_in_q_interpolation(self):
        # For fixed (i, m, d) the count is a degree-d polynomial in q; Lagrange
        # interpolation through d+1 prime powers must predict the next one.
        p = 3
        for d in (1, 2, 3):
            for i in range(d + 1):
                for m in (0, 1):
                    points = []
                    for e in range(1, d + 2):
                        fp = PrimePower(p, e)
                        points.append((Fraction(fp.q), Fraction(composition_count(i, m, d, fp))))
                    probe = PrimePower(p, d + 2)
                    x = Fraction(probe.q)
                    value = Fraction(0)
                    for j, (xj, yj) in enumerate(points):
                        term = yj
                        for k, (xk, _) in enumerate(points):
                            if k != j:
                                term *= (x - xk) / (xj - xk)
                        value += term
                    assert value == composition_count(i, m, d, probe)


class TestCompositionRow:
    @given(st.sampled_from(PRIME_POWERS_TO_64), st.integers(0, 6), st.data())
    def test_matches_the_convolution(self, pe, d, data):
        fp = PrimePower(*pe)
        q = fp.q
        m = data.draw(st.integers(0, q - 1), label="m")
        coeffs = bounded_power_coefficients(q, d + 1)
        coeffs += [0] * ((d + 1) * q - len(coeffs))
        assert composition_row(m, d, fp) == [coeffs[i * q + m] for i in range(d + 1)]

    @given(st.sampled_from(PRIME_POWERS_TO_64), st.integers(0, 6), st.data())
    def test_matches_the_closed_form(self, pe, d, data):
        fp = PrimePower(*pe)
        m = data.draw(st.integers(0, fp.q - 1), label="m")
        assert composition_row(m, d, fp) == [composition_count(i, m, d, fp) for i in range(d + 1)]

    @given(st.sampled_from([(2, 64), (3, 40)]), st.integers(0, 30), st.data())
    def test_spot_rows_at_huge_q(self, pe, d, data):
        # No convolution table fits at these q; the alternating sum term by
        # term, entry by entry.
        fp = PrimePower(*pe)
        m = data.draw(st.integers(0, fp.q - 1), label="m")
        row = composition_row(m, d, fp)
        assert row == [composition_count(i, m, d, fp) for i in range(d + 1)]
        assert row == [alternating_sum(i, m, d, fp.q) for i in range(d + 1)]

    def test_every_residue_of_small_q(self):
        for fp in SMALL_FIELDS:
            for d in range(5):
                rows = [composition_row(m, d, fp) for m in range(fp.q)]
                assert [list(col) for col in zip(*rows)] == composition_table(range(fp.q), d, fp)

    @pytest.mark.parametrize("m", [-1, 9, 10])
    def test_rejects_residues_outside_the_window(self, m):
        with pytest.raises(InvalidParameterError) as err:
            composition_row(m, 2, PrimePower(3, 2))
        assert str(err.value) == f"m must satisfy 0 <= m <= q-1; got m={m}, q=9"

    def test_rejects_negative_dimension(self):
        with pytest.raises(InvalidParameterError) as err:
            composition_row(0, -1, PrimePower(3, 2))
        assert str(err.value) == "d must satisfy d >= 0; got d=-1"
        # The residue is checked first, as in composition_count.
        with pytest.raises(InvalidParameterError, match="m must satisfy"):
            composition_row(9, -1, PrimePower(3, 2))


STEPS = st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4])


def progressions(q):
    """Nonempty ranges of residues in [0, q-1], of step +-1..+-4."""
    ends = st.lists(st.integers(0, q - 1), min_size=2, max_size=2).map(sorted)
    return st.builds(
        lambda ends, step: range(ends[0], ends[1] + 1, step) if step > 0
        else range(ends[1], ends[0] - 1, step),
        ends, STEPS,
    )


class TestCompositionTable:
    @given(st.sampled_from(PRIME_POWERS_TO_64), st.integers(0, 6), st.data())
    def test_matches_the_convolution(self, pe, d, data):
        fp = PrimePower(*pe)
        q = fp.q
        ms = data.draw(progressions(q), label="ms")
        coeffs = bounded_power_coefficients(q, d + 1)
        coeffs += [0] * ((d + 1) * q - len(coeffs))
        table = composition_table(ms, d, fp)
        assert len(table) == d + 1
        for i, row in enumerate(table):
            assert row == [coeffs[i * q + m] for m in ms]

    @given(st.sampled_from(PRIME_POWERS_TO_64), st.integers(0, 6), st.data())
    def test_matches_the_closed_form(self, pe, d, data):
        fp = PrimePower(*pe)
        ms = data.draw(progressions(fp.q), label="ms")
        table = composition_table(ms, d, fp)
        assert table == [[composition_count(i, m, d, fp) for m in ms] for i in range(d + 1)]

    @given(st.sampled_from([(2, 64), (3, 40)]), st.integers(0, 6), st.data())
    def test_spot_progressions_at_huge_q(self, pe, d, data):
        # No convolution table fits at these q; a few residues anywhere.
        fp = PrimePower(*pe)
        start = data.draw(st.integers(0, fp.q - 1), label="start")
        step = data.draw(STEPS, label="step")
        stop = min(start + 5 * step, fp.q) if step > 0 else max(start + 5 * step, -1)
        ms = range(start, stop, step)
        table = composition_table(ms, d, fp)
        assert table == [[composition_count(i, m, d, fp) for m in ms] for i in range(d + 1)]

    def test_every_residue_of_small_q(self):
        for fp in SMALL_FIELDS:
            for d in range(5):
                for ms in (range(fp.q), range(fp.q - 1, -1, -1)):
                    assert composition_table(ms, d, fp) == [
                        [composition_count(i, m, d, fp) for m in ms] for i in range(d + 1)
                    ]

    def test_empty_range_gives_empty_rows(self):
        fp = PrimePower(3, 2)
        for d in range(4):
            for ms in (range(0), range(5, 5), range(8, 2), range(2, 8, -1)):
                assert composition_table(ms, d, fp) == [[] for _ in range(d + 1)]

    @pytest.mark.parametrize("ms", [range(-1, 3), range(0, 10), range(1, 10, 2), range(8, -2, -1),
                                    range(10, 12), range(0, 12, 3)])
    def test_rejects_residues_outside_the_window(self, ms):
        with pytest.raises(InvalidParameterError, match="0 <= m <= q-1"):
            composition_table(ms, 2, PrimePower(3, 2))

    def test_rejects_negative_dimension(self):
        with pytest.raises(InvalidParameterError, match="d >= 0"):
            composition_table(range(3), -1, PrimePower(3, 2))
        with pytest.raises(InvalidParameterError, match="d >= 0"):
            composition_table(range(0), -1, PrimePower(3, 2))


def weighted_progression(data, q, max_count=None):
    """A range of residues in [0, q-1] of any nonzero step, possibly empty,
    and one weight of any sign per residue."""
    start = data.draw(st.integers(0, q - 1), label="start")
    step = data.draw(st.integers(-q, q).filter(bool), label="step")
    room = (q - 1 - start) // step + 1 if step > 0 else start // -step + 1
    if max_count is not None:
        room = min(room, max_count)
    count = data.draw(st.integers(0, room), label="count")
    weights = data.draw(st.lists(st.integers(-(10**20), 10**20), min_size=count,
                                 max_size=count), label="weights")
    return range(start, start + count * step, step), weights


def weighted_counts(ms, weights, d, fp):
    return [sum(w * composition_count(i, m, d, fp) for w, m in zip(weights, ms))
            for i in range(d + 1)]


class TestCompositionSums:
    @given(st.sampled_from(PRIME_POWERS_TO_64), st.integers(0, 8), st.data())
    def test_matches_the_weighted_closed_form(self, pe, d, data):
        fp = PrimePower(*pe)
        ms, weights = weighted_progression(data, fp.q)
        assert composition_sums(ms, weights, d, fp) == weighted_counts(ms, weights, d, fp)

    @given(st.sampled_from([(2, 64), (3, 40)]), st.integers(0, 8), st.data())
    def test_spot_progressions_at_huge_q(self, pe, d, data):
        fp = PrimePower(*pe)
        ms, weights = weighted_progression(data, fp.q, max_count=6)
        assert composition_sums(ms, weights, d, fp) == weighted_counts(ms, weights, d, fp)

    def test_every_residue_of_small_q_matches_the_table(self):
        for fp in SMALL_FIELDS:
            for d in range(5):
                for ms in (range(fp.q), range(fp.q - 1, -1, -1)):
                    weights = [3 * t - 5 for t in range(fp.q)]
                    table = composition_table(ms, d, fp)
                    assert composition_sums(ms, weights, d, fp) == [
                        sum(w * count for w, count in zip(weights, row)) for row in table
                    ]

    @pytest.mark.parametrize("ms", [range(-1, 3), range(0, 10), range(8, -2, -1)])
    def test_rejects_residues_outside_the_window(self, ms):
        with pytest.raises(InvalidParameterError) as err:
            composition_sums(ms, [1] * len(ms), 2, PrimePower(3, 2))
        assert str(err.value) == f"m must satisfy 0 <= m <= q-1; got m in {ms}, q=9"

    def test_rejects_negative_dimension(self):
        with pytest.raises(InvalidParameterError) as err:
            composition_sums(range(3), [1, 1, 1], -1, PrimePower(3, 2))
        assert str(err.value) == "d must satisfy d >= 0; got d=-1"

    @pytest.mark.parametrize("count", [0, 2, 4])
    def test_rejects_one_weight_too_many_or_few(self, count):
        with pytest.raises(InvalidParameterError) as err:
            composition_sums(range(3), [1] * count, 2, PrimePower(3, 2))
        assert str(err.value) == f"need one weight per residue; got {count} weights for 3 residues"


class TestEulerian:
    def test_small_value(self):
        assert eulerian(3, 2) == 4

    def test_row_sums(self):
        for d in range(1, 9):
            assert sum(eulerian(d, i) for i in range(d + 1)) == math.factorial(d)

    def test_zero_column(self):
        for d in range(1, 7):
            assert eulerian(d, 0) == 0

    def test_outside_support(self):
        assert eulerian(3, -1) == 0
        assert eulerian(3, 4) == 0
        assert eulerian(3, 7) == 0

    def test_rejects_bad_dimension(self):
        with pytest.raises(InvalidParameterError):
            eulerian(0, 1)

    def test_counts_descents(self):
        # Independent oracle: permutations of {1..d} with exactly i-1 descents.
        for d in range(1, 6):
            for i in range(1, d + 1):
                count = 0
                for perm in permutations(range(d)):
                    descents = sum(1 for a, b in zip(perm, perm[1:]) if a > b)
                    if descents == i - 1:
                        count += 1
                assert eulerian(d, i) == count

    def test_leading_coefficient_limit(self):
        # |count(i,0;d,e) * d! / q^d - A(d,i)| shrinks monotonically in e and
        # strictly over the whole range.
        for p in (2, 3):
            for d in (1, 2, 3):
                for i in range(1, d + 1):
                    errors = []
                    for e in range(1, 6):
                        fp = PrimePower(p, e)
                        scaled = Fraction(
                            composition_count(i, 0, d, fp) * math.factorial(d), fp.q**d
                        )
                        errors.append(abs(scaled - eulerian(d, i)))
                    assert all(a >= b for a, b in zip(errors, errors[1:]))
                    assert errors[-1] < errors[0]


def counts_over_i(m, d, fp):
    """count(0, m; d) + ... + count(d, m; d), which should be q^d."""
    return sum(composition_count(i, m, d, fp) for i in range(d + 1))


def shifted_sum_sides(l, d, fp):
    """Both sides of sum_j count(l-1, j; d-1) ==
    count(l, 0; d) - count(l, 0; d-1) + count(l-1, 0; d-1), for 1 <= l <= d."""
    lhs = sum(composition_count(l - 1, j, d - 1, fp) for j in range(fp.q))
    rhs = (
        composition_count(l, 0, d, fp)
        - composition_count(l, 0, d - 1, fp)
        + composition_count(l - 1, 0, d - 1, fp)
    )
    return lhs, rhs


class TestIdentities:
    def test_sum_identity(self):
        for fp in SMALL_FIELDS:
            for d in range(5):
                for m in range(fp.q):
                    assert counts_over_i(m, d, fp) == fp.q**d

    def test_sum_identity_dimension_zero(self):
        assert counts_over_i(0, 0, PrimePower(7, 1)) == 1

    def test_shifted_sum_identity(self):
        for fp in SMALL_FIELDS:
            for d in range(1, 5):
                for l in range(1, d + 1):
                    lhs, rhs = shifted_sum_sides(l, d, fp)
                    assert lhs == rhs

    def test_shifted_sum_both_sides_q(self):
        fp = PrimePower(2, 1)
        assert shifted_sum_sides(1, 1, fp) == (fp.q, fp.q)

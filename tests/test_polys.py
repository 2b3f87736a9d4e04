"""Gibonacci arrays, sign-alternating polynomials, and closed evaluations."""

import math
import time
from fractions import Fraction

import pytest

from gibonacci.cli import main
from gibonacci.exactnum import ExactError, Poly
from gibonacci.polys import (
    BINET_BIT_BUDGET,
    GibParams,
    _sa_poly_cached,
    array_rows,
    binet_eval,
    companion_poly,
    eigen_pair,
    fibonacci_decomposition_holds,
    reciprocal_transform_holds,
    sign_alternating_poly,
    value_at_four,
)

UNIT = GibParams.of(1, 1)
LUCAS = GibParams.of(2, 1)

# rows 0-9 of the two integer triangles, as printed fixtures
FIB_ROWS = [
    [1],
    [1],
    [1, 1],
    [1, 2],
    [1, 3, 1],
    [1, 4, 3],
    [1, 5, 6, 1],
    [1, 6, 10, 4],
    [1, 7, 15, 10, 1],
    [1, 8, 21, 20, 5],
]
LUCAS_ROWS = [
    [2],
    [1],
    [1, 2],
    [1, 3],
    [1, 4, 2],
    [1, 5, 5],
    [1, 6, 9, 2],
    [1, 7, 14, 7],
    [1, 8, 20, 16, 2],
    [1, 9, 27, 30, 9],
]

# rows 0-9 of the generic triangle as (coef of alpha, coef of beta) pairs
SYMBOLIC_ROWS = [
    [(1, 0)],
    [(0, 1)],
    [(0, 1), (1, 0)],
    [(0, 1), (1, 1)],
    [(0, 1), (1, 2), (1, 0)],
    [(0, 1), (1, 3), (2, 1)],
    [(0, 1), (1, 4), (3, 3), (1, 0)],
    [(0, 1), (1, 5), (4, 6), (3, 1)],
    [(0, 1), (1, 6), (5, 10), (6, 4), (1, 0)],
    [(0, 1), (1, 7), (6, 15), (10, 10), (4, 1)],
]



def recurrence_rows(params, count):
    """Oracle: rows 0..count-1 by the entry rule e(k, j) = e(k-1, j) + e(k-2, j-1)."""
    rows = [[params.alpha], [params.beta]]
    for k in range(2, count):
        prev, prev2 = rows[k - 1], rows[k - 2]
        row = []
        for j in range(k // 2 + 1):
            above = prev[j] if j < len(prev) else Fraction(0)
            diag = prev2[j - 1] if 0 <= j - 1 < len(prev2) else Fraction(0)
            row.append(above + diag)
        rows.append(row)
    return rows[:count]


def comb_entry(params, k, j):
    """Oracle: entry e(k, j) by C(k-j-1, j-1)*alpha + C(k-j-1, j)*beta, row 0
    the seed alpha, and 0 out of range."""
    if k < 0 or j < 0 or j > k // 2:
        return Fraction(0)
    if k == 0:
        return params.alpha
    top = k - j - 1

    def choose(n_, k_):
        if k_ < 0 or k_ > n_ or n_ < 0:
            return 0
        return math.comb(n_, k_)

    return choose(top, j - 1) * params.alpha + choose(top, j) * params.beta


ORACLE_SEEDS = [(1, 1), (2, 1), (5, 2), (Fraction(1, 3), Fraction(2, 7)), (3, 1), (Fraction(7, 3), Fraction(1, 2))]


class TestArray:
    def test_fibonacci_rows(self):
        assert list(array_rows(UNIT, len(FIB_ROWS))) == FIB_ROWS
        assert recurrence_rows(UNIT, len(FIB_ROWS)) == FIB_ROWS

    def test_lucas_rows(self):
        assert list(array_rows(LUCAS, len(LUCAS_ROWS))) == LUCAS_ROWS
        assert recurrence_rows(LUCAS, len(LUCAS_ROWS)) == LUCAS_ROWS

    def test_symbolic_rows_match_five_rational_seed_pairs(self):
        pairs = [(1, 1), (2, 1), (5, 2), (Fraction(7, 3), Fraction(1, 2)), (3, 4)]
        for a, b in pairs:
            params = GibParams.of(a, b)
            expected = [[ca * params.alpha + cb * params.beta for ca, cb in row] for row in SYMBOLIC_ROWS]
            assert list(array_rows(params, len(SYMBOLIC_ROWS))) == expected
            assert recurrence_rows(params, len(SYMBOLIC_ROWS)) == expected
            for k, row in enumerate(expected):
                assert [comb_entry(params, k, j) for j in range(len(row))] == row

    def test_row_sums_are_fibonacci_and_lucas(self):
        fib = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]
        luc = [2, 1, 3, 4, 7, 11, 18, 29, 47, 76, 123, 199]
        assert [sum(row) for row in array_rows(UNIT, 12)] == fib
        assert [sum(row) for row in array_rows(LUCAS, 12)] == luc

    def test_seed_positivity_enforced(self):
        with pytest.raises(ExactError):
            GibParams.of(0, 1)
        with pytest.raises(ExactError):
            GibParams.of(1, -2)

    def test_entry_budget_refused_before_any_row(self):
        with pytest.raises(ExactError, match="array row 1094 needs 300,304 entries, over the entry budget of 300,000"):
            array_rows(UNIT, 1095)
        assert next(array_rows(UNIT, 1094)) == [1]


class TestBinomialEntry:
    def test_named_entries(self):
        assert list(array_rows(UNIT, 9))[8][2] == comb_entry(UNIT, 8, 2) == 15
        assert list(array_rows(LUCAS, 8))[7][3] == comb_entry(LUCAS, 7, 3) == 7
        params = GibParams.of(Fraction(9, 4), 5)
        assert list(array_rows(params, 1)) == [[comb_entry(params, 0, 0)]] == [[Fraction(9, 4)]]

    def test_out_of_range_is_zero(self):
        assert comb_entry(UNIT, 5, 3) == 0
        assert comb_entry(UNIT, 5, -1) == 0
        assert len(list(array_rows(UNIT, 6))[5]) == 3  # e(5, 3) is past the row's end

    def test_matches_recurrence_everywhere(self):
        # the pass, unsigned and signed, against both oracles: k in 0..400
        # over six seed pairs
        for a, b in ORACLE_SEEDS:
            params = GibParams.of(a, b)
            rows = list(array_rows(params, 401))
            assert rows == recurrence_rows(params, 401)
            for k, row in enumerate(rows):
                assert row == [comb_entry(params, k, j) for j in range(k // 2 + 1)]
                signed = sign_alternating_poly(params, k).coeffs[::-1]
                assert list(signed) == [(-1) ** j * e for j, e in enumerate(row)]

    def test_deep_row_entries_match_binomials(self):
        params = GibParams.of(7, 3)
        try:
            coeffs = sign_alternating_poly(params, 10_000).coeffs
        finally:
            _sa_poly_cached.cache_clear()
        assert len(coeffs) == 5001
        for j in (0, 1, 2, 3, 17, 1000, 2499, 2500, 3333, 4998, 4999, 5000):
            assert coeffs[5000 - j] == (-1) ** j * comb_entry(params, 10_000, j)


class TestSignAlternatingPoly:
    def test_lucas_row_seven(self):
        assert sign_alternating_poly(LUCAS, 7) == Poly([-7, 14, -7, 1])

    def test_unit_row_fifteen(self):
        expected = Poly([-8, 84, -252, 330, -220, 78, -14, 1])
        assert sign_alternating_poly(UNIT, 15) == expected

    def test_initial_conditions(self):
        params = GibParams.of(Fraction(5, 3), Fraction(7, 2))
        assert sign_alternating_poly(params, -1).is_zero
        assert sign_alternating_poly(params, 0) == Poly.constant(Fraction(5, 3))
        assert sign_alternating_poly(params, 1) == Poly.constant(Fraction(7, 2))

    def test_degree_and_leading_coefficient(self):
        for a, b in [(1, 1), (5, 2), (Fraction(2, 3), Fraction(3, 5))]:
            params = GibParams.of(a, b)
            for k in range(1, 41):
                p = sign_alternating_poly(params, k)
                assert p.degree == k // 2
                assert p.leading == params.beta
        assert sign_alternating_poly(params, 0).leading == params.alpha

    def test_coefficients_are_signed_rows(self):
        # coefficient of x^(floor(k/2)-j) must be (-1)^j * entry(k, j)
        for a, b in [(1, 1), (2, 1), (5, 2), (3, 1), (7, 2)]:
            params = GibParams.of(a, b)
            for k, row in enumerate(recurrence_rows(params, 61)):
                p = sign_alternating_poly(params, k)
                d = k // 2
                for j, entry in enumerate(row):
                    assert p.coeffs[d - j] == (-1) ** j * entry

    def test_closed_form_matches_recursive_builder(self):
        # oracle: rows built by P_k = x^((k-1) mod 2) P_{k-1} - P_{k-2}
        x = Poly([0, 1])
        for a, b in [(1, 1), (2, 1), (Fraction(7, 3), Fraction(1, 2)), (1, 4)]:
            params = GibParams.of(a, b)
            prev2, prev = Poly.constant(params.alpha), Poly.constant(params.beta)
            assert sign_alternating_poly(params, 0) == prev2
            assert sign_alternating_poly(params, 1) == prev
            for k in range(2, 81):
                prev2, prev = prev, (x * prev if k % 2 == 0 else prev) - prev2
                assert sign_alternating_poly(params, k) == prev

    def test_cold_deep_row_is_one_memo_entry(self):
        # row k comes from its own pass: no lower row is cached, and no
        # recursion runs however deep k is
        _sa_poly_cached.cache_clear()
        try:
            p = sign_alternating_poly(GibParams.of(7, 3), 3000)
            assert p.degree == 1500 and p.leading == 3
            assert _sa_poly_cached.cache_info().currsize == 1
        finally:
            _sa_poly_cached.cache_clear()


class TestDecompositionIntoUnitSeeds:
    def test_named_cases(self):
        assert fibonacci_decomposition_holds(LUCAS, 7)
        assert fibonacci_decomposition_holds(UNIT, 5)
        assert fibonacci_decomposition_holds(GibParams.of(5, 2), 6)

    def test_grid(self):
        for a, b in [(2, 1), (5, 2), (Fraction(7, 3), Fraction(1, 2))]:
            params = GibParams.of(a, b)
            for k in range(2, 30):
                assert fibonacci_decomposition_holds(params, k)


class TestCompanionSequence:
    def test_initial_values(self):
        assert companion_poly(Fraction(2), 1) == Poly([1, 2])
        assert companion_poly(Fraction(1), 2) == Poly([1, 2])
        assert companion_poly(Fraction(9, 7), 0) == Poly([1])

    def test_degree_law(self):
        for ratio in [Fraction(1), Fraction(2), Fraction(5, 2)]:
            for k in range(25):
                assert companion_poly(ratio, k).degree == (k + 1) // 2

    def test_deep_index_within_recursion_limit(self):
        # the recurrence runs as a loop, so a deep index does not recurse
        # past the interpreter's limit of 1000
        deep = companion_poly(Fraction(1), 1200)
        assert deep.degree == 600
        assert deep == companion_poly(Fraction(1), 1199) + Poly([0, 1]) * companion_poly(Fraction(1), 1198)

    def test_reciprocal_transform(self):
        assert reciprocal_transform_holds(Fraction(2), 2)
        assert reciprocal_transform_holds(Fraction(1), 3)
        assert reciprocal_transform_holds(Fraction(5, 2), 6)
        for ratio in [Fraction(1), Fraction(3), Fraction(7, 2)]:
            for k in range(2, 25):
                assert reciprocal_transform_holds(ratio, k)


class TestEigenPair:
    def test_product_one_and_sum(self):
        # irrational, square (x = 9/2, 16/3) and negative discriminants
        for x in [Fraction(5), Fraction(-3), Fraction(7, 2), Fraction(1, 5), Fraction(9, 2), Fraction(16, 3)]:
            lam, kap = eigen_pair(x)
            assert lam.ring.defining == Poly([4 * x - x * x, 0, 1])
            assert (lam * kap - 1).is_zero
            assert (lam + kap - (x - 2)).is_zero
            assert (lam - kap).poly == Poly([0, 1])


class TestBinetEvaluation:
    def test_bit_budget_refused_before_powers(self):
        # 1/3 has 1 + 2 bits: k = BINET_BIT_BUDGET // 3 is at the budget
        k = BINET_BIT_BUDGET // 3
        with pytest.raises(ExactError, match=f"binet row {k + 1} at x of 3 bits needs 1,000,002 row-bits, over the bit budget of 1,000,000"):
            binet_eval(UNIT, k + 1, Fraction(1, 3))
        assert binet_eval(UNIT, 20, Fraction(1, 3)) == sign_alternating_poly(UNIT, 20)(Fraction(1, 3))

    def test_cli_bit_budget_is_one_line_exit_1(self, capsys):
        # the powers alone ran for more than 10 s here before the budget
        start = time.perf_counter()
        code = main(["binet", "--alpha", "1", "--beta", "1", "--k", "1000000", "--x", "123456789/1000"])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 1 and elapsed < 3, elapsed
        assert err == "error: binet row 1000000 at x of 37 bits needs 37,000,000 row-bits, over the bit budget of 1,000,000\n"

    def test_row_two_is_x_minus_two(self):
        for x in [Fraction(5), Fraction(-1), Fraction(7, 3)]:
            assert binet_eval(LUCAS, 2, x) == x - 2

    def test_matches_recurrence_quadratic_irrational_path(self):
        # x=5 gives disc 5 (not a square); x=6 gives disc 12 (not a square)
        p = sign_alternating_poly(UNIT, 6)
        assert binet_eval(UNIT, 6, 5) == p(5)
        q = sign_alternating_poly(GibParams.of(3, 2), 9)
        assert binet_eval(GibParams.of(3, 2), 9, 6) == q(6)

    def test_matches_recurrence_square_path(self):
        # x = 9/2 gives disc 81/4 - 18 = 9/4, a rational square
        params = GibParams.of(5, 2)
        p = sign_alternating_poly(params, 11)
        assert binet_eval(params, 11, Fraction(9, 2)) == p(Fraction(9, 2))

    def test_square_and_negative_discriminants(self):
        # x = 4t^2/(t^2-1) makes x^2 - 4x = (4t/(t^2-1))^2 a rational square;
        # 0 < x < 4 makes it negative
        squares = [4 * t * t / (t * t - 1) for t in (Fraction(2), Fraction(3), Fraction(5, 2), Fraction(-7, 3))]
        negatives = [Fraction(1), Fraction(2), Fraction(1, 7), Fraction(39, 10)]
        for x in squares + negatives:
            for params in (UNIT, LUCAS, GibParams.of(Fraction(7, 3), Fraction(1, 2))):
                for k in range(0, 16):
                    assert binet_eval(params, k, x) == sign_alternating_poly(params, k)(x)

    def test_repeated_eigenvalue_matches_recurrence(self):
        # x = 0 and x = 4 give t^2 = 0 in Q[t]/(t^2 - (x^2 - 4x)); the t
        # coefficient of the odd numerator still carries the value
        seeds = (UNIT, LUCAS, GibParams.of(Fraction(7, 3), Fraction(1, 2)), GibParams.of(1, 2))
        for x in (0, 4):
            for params in seeds:
                for k in range(20):
                    assert binet_eval(params, k, x) == sign_alternating_poly(params, k)(x)

    def test_agreement_grid(self):
        import random

        rng = random.Random(20201229)
        for _ in range(60):
            a = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            b = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            params = GibParams.of(a, b)
            k = rng.randint(0, 30)
            x = Fraction(rng.randint(-40, 40), rng.randint(1, 7))
            assert binet_eval(params, k, x) == sign_alternating_poly(params, k)(x)


class TestValueAtFour:
    def test_unit_even_rows(self):
        for m in range(0, 30):
            assert value_at_four(UNIT, 2 * m) == 2 * m + 1

    def test_example_zero(self):
        # (5,2) row 5: beta * (-m*ratio + 2m + 1) with m = 2 vanishes
        assert value_at_four(GibParams.of(5, 2), 5) == 0

    def test_row_zero_is_alpha(self):
        params = GibParams.of(Fraction(11, 6), Fraction(2, 9))
        assert value_at_four(params, 0) == Fraction(11, 6)

    def test_matches_polynomial_evaluation(self):
        for a, b in [(1, 1), (2, 1), (5, 2), (Fraction(3, 2), Fraction(5, 7))]:
            params = GibParams.of(a, b)
            for k in range(101):
                assert value_at_four(params, k) == sign_alternating_poly(params, k)(4)

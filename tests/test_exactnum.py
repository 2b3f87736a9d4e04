"""Exact scalar/polynomial arithmetic, Sturm counting, and algebraic signs."""

import math
import sys
import time
from fractions import Fraction

import pytest

from gibonacci.exactnum import (
    AlgebraicNumber,
    _isolate,
    _separation_bits,
    EndpointRootError,
    ExactError,
    Interval,
    NumberRing,
    Poly,
    decimal_str,
    format_rational,
    isolate_real_roots,
    poly_from_strings,
    poly_gcd,
    poly_to_strings,
    poly_to_text,
    rational,
    rational_between,
    sign_at_algebraic,
    sturm_count,
)


def P(*coeffs):
    """Poly from ascending coefficients."""
    return Poly(coeffs)


class TestRationalParsing:
    def test_integer_and_fraction_literals(self):
        assert rational("5") == 5
        assert rational("-11/4") == Fraction(-11, 4)
        assert rational(7) == 7

    def test_decimals_rejected(self):
        with pytest.raises(ExactError):
            rational("2.5")
        with pytest.raises(ExactError):
            rational(0.5)

    def test_underscores_rejected(self):
        # Fraction(text) reads Python numeric-literal underscores: "1_0" is 10
        for text in ["1_0", "1/2_0", "-3_3/4", "_1", "1_"]:
            with pytest.raises(ExactError):
                rational(text)

    def test_round_trip(self):
        for x in [Fraction(0), Fraction(-3, 7), Fraction(22, 4)]:
            assert rational(format_rational(x)) == x

    def test_canonical_form(self):
        x = rational("22/4")
        assert (x.numerator, x.denominator) == (11, 2)
        assert format_rational(Fraction(0)) == "0/1"


def _rational_entries() -> dict:
    """Every public entry that takes a rational argument outside `Poly`, as a
    call on that argument returning something comparable."""
    from gibonacci import game, polys, roots

    unit = polys.GibParams.of(1, 1)
    return {
        "GibParams": lambda x: polys.GibParams(x, 1),
        "GameConfig p": lambda x: game.GameConfig(unit, x, 1),
        "GameConfig q": lambda x: game.GameConfig(unit, 1, x),
        "GameConfig.rational": lambda x: game.GameConfig.rational(unit, 1, x),
        "GameConfig.at_largest_root": lambda x: game.GameConfig.at_largest_root(unit, 6, x).p,
        "AlgebraicNumber.from_rational": lambda x: AlgebraicNumber.from_rational(x).enclosure,
        "play": lambda x: game.play(x, 1, "g1", game.GameConfig.rational(unit, 1, 1), budget=4).final,
        "companion_poly": lambda x: polys.companion_poly(x, 4),
        "eigen_pair": lambda x: tuple(e.poly for e in polys.eigen_pair(x)),
        "binet_eval": lambda x: polys.binet_eval(unit, 5, x),
        "sqrt_enclosure": roots.sqrt_enclosure,
        "cos_pi_enclosure": roots.cos_pi_enclosure,
    }


@pytest.mark.parametrize("entry", sorted(_rational_entries()))
def test_floats_refused_at_every_entry(entry):
    call = _rational_entries()[entry]
    for bad in (0.5, "0.5"):
        with pytest.raises(ExactError, match="rejected"):
            call(bad)
    assert call("1/2") == call(Fraction(1, 2))


class TestDecimalStr:
    def test_exact_values(self):
        assert decimal_str(Fraction(1, 4), 10) == "0.25"
        assert decimal_str(Fraction(-3, 2), 10) == "-1.5"
        assert decimal_str(Fraction(0)) == "0"

    def test_rounding(self):
        assert decimal_str(Fraction(2, 3), 6).startswith("0.66666")
        assert decimal_str(Fraction(1, 3), 3) == "0.333"

    def test_large_and_small(self):
        assert decimal_str(Fraction(10**40), 5) == "1e40"
        assert decimal_str(Fraction(1, 10**10), 4) == "1e-10"

    def test_exponent_next_to_a_power_of_ten(self):
        # 0.1 + 5e-41 is a tie at 40 digits; a float 10^-1 once misjudged its decade
        x = Fraction(2 * 10**39 + 1, 2 * 10**40)
        assert decimal_str(x, 40) == "0.1" + "0" * 38 + "1"
        assert decimal_str(-x, 41) == "-0.1" + "0" * 38 + "05"
        assert decimal_str(Fraction(10**40 - 1, 10**41), 40) == "0.0" + "9" * 40

    def test_numerator_past_the_str_digit_limit(self):
        # 5,000 digits, past Python's default 4,300-digit int-to-str limit
        x = Fraction(10**5000 + 1, 3)
        saved = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        if saved is not None:
            sys.set_int_max_str_digits(4300)
        try:
            assert decimal_str(x, 30) == "3.33333333333333333333333333333e4999"
            assert decimal_str(-1 / x, 5) == "-3e-5000"
        finally:
            if saved is not None:
                sys.set_int_max_str_digits(saved)


class TestPolyArithmetic:
    def test_additive_identity(self):
        # (x - 4) + 0 = x - 4
        assert P(-4, 1) + Poly() == P(-4, 1)

    def test_square_expansion(self):
        # (x - 2)^2 = x^2 - 4x + 4
        assert P(-2, 1) * P(-2, 1) == P(4, -4, 1)

    def test_mod_reduce_hand_division(self):
        # long division by hand: x^3 = (2x^2-11x+12)(x/2 + 11/4) + (97/4 x - 33)
        q, r = divmod(P(0, 0, 0, 1), P(12, -11, 2))
        assert q == P(Fraction(11, 4), Fraction(1, 2))
        assert r == P(-33, Fraction(97, 4))
        assert r.degree <= 1

    def test_mod_by_zero_rejected(self):
        with pytest.raises(ExactError):
            divmod(P(1, 1), Poly())

    def test_division_reassembles(self):
        a = P(3, -5, 0, 7, 2)
        b = P(-1, 4, 1)
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree

    def test_eval_horner(self):
        # 1 - 7 + 14 - 7 = 1
        assert P(-7, 14, -7, 1)(1) == 1
        # p(0) is the constant term
        assert P(-7, 14, -7, 1)(0) == -7
        # 32 - 44 + 12 = 0: x = 4 kills 2x^2 - 11x + 12
        assert P(12, -11, 2)(4) == 0

    def test_monomial_products(self):
        # the shift-and-scale path for c*x^n factors, on either side
        p = P(1, -1, 0, 2)
        assert P(0, 0, Fraction(3, 2)) * p == P(0, 0, Fraction(3, 2), Fraction(-3, 2), 0, 3)
        assert p * P(0, 1) == P(0, 1, -1, 0, 2) == P(0, 1) * p
        assert P(1) * p == p and p * P(-2) == P(-2, 2, 0, -4)
        assert P(0, 1) * P(0, 0, 1) == P(0, 0, 0, 1)

    def test_trailing_zeros_stripped(self):
        assert Poly([1, 2, 0, 0]).degree == 1
        assert Poly([0, 0]).is_zero

    def test_text_rendering(self):
        assert poly_to_text(P(-7, 14, -7, 1)) == "x^3 - 7x^2 + 14x - 7"
        assert poly_to_text(Poly()) == "0"
        assert poly_to_text(P(Fraction(1, 2))) == "1/2"
        assert poly_to_text(P(1, Fraction(-1, 2))) == "-1/2x + 1"
        assert poly_to_text(P(0, -1, 0, 1), "q") == "q^3 - q"

    def test_json_round_trip(self):
        p = P(Fraction(-3, 2), 0, 7)
        assert poly_from_strings(poly_to_strings(p)) == p

    def test_float_coefficients_rejected(self):
        # a float would silently become its binary fraction, 0.1 = 3602879701896397/2^55
        for bad in ([0.1, 1], [1, 2.5]):
            with pytest.raises(ExactError, match="floating-point"):
                Poly(bad)
        with pytest.raises(ExactError):
            Poly.constant(0.5)
        with pytest.raises(ExactError):
            P(1, 1).scale(0.5)
        with pytest.raises(ExactError):
            P(1, 1)(0.5)
        assert Poly(["1/3", " -2 "]) == P(Fraction(1, 3), -2)

    def test_canonical_form_by_every_route(self):
        # the sturm_chain memo and RingElement equality key on ==  and hash
        routes = [Poly([2, 4]), P(1, 2).scale(2), P(4, 8).scale(Fraction(1, 2)),
                  P(-1, -2).scale(-2), -P(-2, -4), P(1, 0, 2) - P(-1, -4, 2), P(Fraction(2, 3), Fraction(4, 3)) * P(3)]
        for p in routes:
            assert p == routes[0] and hash(p) == hash(routes[0])
            assert (p.content, p.ints) == (2, (1, 2))
        assert (Poly().content, Poly().ints) == (1, ())
        assert P(3, -3) - P(3, -3) == Poly() and hash(P(1) - P(1)) == hash(Poly())
        assert P(Fraction(-1, 6), Fraction(-1, 4)).ints == (-2, -3)

    def test_matches_fraction_oracle(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        rationals = st.fractions(min_value=-20, max_value=20, max_denominator=60)
        lists = st.lists(st.one_of(rationals, st.integers(-9, 9)), max_size=7)

        @hyp.settings(max_examples=250, deadline=None, derandomize=True)
        @hyp.given(lists, lists, rationals, rationals)
        def check(a, b, c, x):
            pa, pb = Poly(a), Poly(b)
            a, b = _trimmed(a), _trimmed(b)
            results = [
                (pa, a),
                (pa + pb, _oracle_add(a, b)),
                (pa - pb, _oracle_add(a, [-v for v in b])),
                (pa * pb, _oracle_mul(a, b)),
                (pa.scale(c), _trimmed([c * v for v in a])),
            ]
            if b:
                q, r = divmod(pa, pb)
                oq, orem = _oracle_divmod(a, b)
                results += [(q, oq), (r, orem), (pa % pb, orem)]
                assert r.degree < pb.degree and q * pb + r == pa
            for got, want in results:
                assert got.coeffs == want
                _assert_canonical(got)
                # the same polynomial built from its Fraction list
                built = Poly(want)
                assert got == built and hash(got) == hash(built)
            value = _oracle_eval(a, x)
            assert type(pa(x)) is Fraction and pa(x) == value
            assert pa.sign_at(x) == (value > 0) - (value < 0)

        check()


def _trimmed(cs) -> tuple:
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _oracle_add(a, b) -> tuple:
    """Oracle: coefficient-wise sum of two Fraction lists."""
    n = max(len(a), len(b))
    return _trimmed([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def _oracle_mul(a, b) -> tuple:
    """Oracle: schoolbook convolution in Fractions."""
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _trimmed(out)


def _oracle_divmod(a, b) -> tuple:
    """Oracle: Fraction long division by the nonzero list b."""
    rem = list(a)
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + len(b) - 1] / b[-1]
        quot[i] = c
        for j, cb in enumerate(b):
            rem[i + j] -= c * cb
    return _trimmed(quot), _trimmed(rem)


def _oracle_eval(a, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _assert_canonical(p: Poly):
    """Positive Fraction content times a primitive integer vector, no trailing zero."""
    assert type(p.content) is Fraction and all(type(c) is int for c in p.ints)
    if p.ints:
        assert p.content > 0 and math.gcd(*p.ints) == 1 and p.ints[-1] != 0
    else:
        assert p.content == 1


class TestGcd:
    def test_common_factor(self):
        # (x-1)(x-3) and (x-3)(x+2) share x-3
        a = P(3, -4, 1)
        b = P(-6, -1, 1)
        assert poly_gcd(a, b) == P(-3, 1)

    def test_coprime(self):
        assert poly_gcd(P(-1, 1), P(-2, 1)).degree == 0


class TestSturm:
    def test_two_roots_of_quadratic(self):
        # roots of x^2 - 5x + 5 are (5 +- sqrt5)/2, both inside (0, 4)
        assert sturm_count(P(5, -5, 1), Interval(Fraction(0), Fraction(4))) == 2

    def test_no_roots(self):
        assert sturm_count(P(-4, 1), Interval(Fraction(0), Fraction(3))) == 0

    def test_roots_one_and_three(self):
        assert sturm_count(P(3, -4, 1), Interval(Fraction(0), Fraction(4))) == 2

    def test_half_open_semantics(self):
        # (0, 3] includes the root at 3, (0, 2] does not reach it
        p = P(3, -4, 1)
        assert sturm_count(p, Interval(Fraction(0), Fraction(2))) == 1
        assert sturm_count(p, Interval(Fraction(2), Fraction(4))) == 1

    def test_endpoint_root_raises(self):
        with pytest.raises(EndpointRootError):
            sturm_count(P(3, -4, 1), Interval(Fraction(1), Fraction(4)))

    def test_multiple_roots_counted_once(self):
        # (x-1)^2 (x-3) has two distinct roots in (0, 4]
        p = P(-1, 1) * P(-1, 1) * P(-3, 1)
        assert sturm_count(p, Interval(Fraction(0), Fraction(4))) == 2

    def test_linear_factor_grid(self):
        roots = [Fraction(-2), Fraction(1, 3), Fraction(2), Fraction(7, 2)]
        p = Poly([1])
        for r in roots:
            p = p * P(-r, 1)
        for lo, hi, expect in [(-3, 4, 4), (0, 4, 3), (1, 3, 1), (-3, 0, 1)]:
            assert sturm_count(p, Interval(Fraction(lo), Fraction(hi))) == expect

    def test_random_products_with_known_roots(self):
        # chains hit negative leading coefficients and mid-division
        # cancellations here; counts must still match the known factorization
        import random

        rng = random.Random(1203)
        for _ in range(120):
            roots = sorted(
                {Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(rng.randint(1, 5))}
            )
            p = Poly([rng.choice([-3, -2, -1, 1, 2, 3])])
            for r in roots:
                p = p * P(-r, 1)
            if rng.random() < 0.3:
                # square one factor: the count must stay per distinct root
                p = p * P(-rng.choice(roots), 1)
            if rng.random() < 0.5:
                # attach a rootless factor to derail naive sign bookkeeping
                c = rng.randint(1, 5)
                p = p * P(c, rng.randint(-3, 3), c + 3)
            lo = Fraction(rng.randint(-15, 0), rng.randint(1, 3))
            hi = lo + Fraction(rng.randint(1, 30), rng.randint(1, 3))
            if p(lo) == 0 or p(hi) == 0:
                continue
            expect = sum(1 for r in roots if lo < r <= hi)
            assert sturm_count(p, Interval(lo, hi)) == expect


class TestIsolation:
    def test_two_isolated_roots(self):
        ivs = isolate_real_roots(P(3, -4, 1), Interval(Fraction(0), Fraction(5)))
        assert len(ivs) == 2
        assert ivs[0].lo < 1 <= ivs[0].hi
        assert ivs[1].lo < 3 <= ivs[1].hi
        assert ivs[0].hi <= ivs[1].lo

    def test_constant_has_no_roots(self):
        assert isolate_real_roots(P(5), Interval(Fraction(-9), Fraction(9))) == []

    def test_each_interval_isolates(self):
        # degree-5 with roots at 1/2, 1, 3/2, 2, 5/2: clustered on purpose
        p = Poly([1])
        for r in [Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(5, 2)]:
            p = p * P(-r, 1)
        ivs = isolate_real_roots(p, Interval(Fraction(0), Fraction(3)))
        assert len(ivs) == 5
        for iv in ivs:
            assert sturm_count(p, iv) == 1
        assert sum(sturm_count(p, iv) for iv in ivs) == sturm_count(
            p, Interval(Fraction(0), Fraction(3))
        )

    def test_multiple_root_isolated_once(self):
        # (x-1)^2 (x-3): the double root gets one isolating interval
        p = P(-1, 1) * P(-1, 1) * P(-3, 1)
        ivs = isolate_real_roots(p, Interval(Fraction(0), Fraction(4)))
        assert len(ivs) == 2
        assert ivs[0].lo < 1 <= ivs[0].hi
        assert ivs[1].lo < 3 <= ivs[1].hi

    def test_root_on_boundary_excluded_by_nudge(self):
        # endpoint roots fall outside the open reading of `within`
        p = P(0, 1) * P(-3, 1)  # roots 0 and 3 exactly on the rim
        assert isolate_real_roots(p, Interval(Fraction(0), Fraction(3))) == []
        # interior roots survive the endpoint nudging
        q = P(0, 1) * P(-1, 1) * P(-3, 1)
        ivs = isolate_real_roots(q, Interval(Fraction(0), Fraction(3)))
        assert len(ivs) == 1
        assert ivs[0].lo < 1 <= ivs[0].hi

    def test_separation_bound_below_close_roots(self):
        # roots 1/3 and 1/3 + 2^-e, simple or with 1/3 repeated
        for e in (1, 20, 90):
            gap = Fraction(1, 2**e)
            close = P(Fraction(-1, 3), 1) * P(-Fraction(1, 3) - gap, 1)
            for p in (close, close * P(Fraction(-1, 3), 1), close * P(-5, 0, 1)):
                assert Fraction(1, 2 ** _separation_bits(p.ints)) < gap

    def test_wrong_count_raises_instead_of_bisecting_forever(self):
        # a count that always reports two roots at 1/3 can never isolate
        # them; the separation budget of 3x^2 - 4x + 1 must stop the split
        def two_near_third(x):
            return 2 if x < Fraction(1, 3) else 0

        sep_bits = _separation_bits(P(1, -4, 3).ints)
        start = time.perf_counter()
        with pytest.raises(ExactError, match=f"narrower than 2\\^-{sep_bits} counts 2 roots"):
            _isolate(two_near_third, Fraction(0), Fraction(1), sep_bits)
        assert time.perf_counter() - start < 1


class TestAlgebraicNumber:
    def theta_four(self):
        # largest root of 2x^2 - 11x + 12 is exactly 4 (factors (x-4)(2x-3))
        ivs = isolate_real_roots(P(12, -11, 2), Interval(Fraction(0), Fraction(10)))
        return AlgebraicNumber(P(12, -11, 2), ivs[-1])

    def test_definitional_zero(self):
        theta = self.theta_four()
        assert sign_at_algebraic(theta.defining, theta) == 0

    def test_sign_positive_case(self):
        # 2*16 - 36 + 5 = 1 > 0
        theta = self.theta_four()
        assert sign_at_algebraic(P(5, -9, 2), theta) == 1

    def test_closed_form_root_of_fib_poly(self):
        # largest root of x^2 - 4x + 3 is 3; then 9 - 9 + 1 = 1 > 0
        ivs = isolate_real_roots(P(3, -4, 1), Interval(Fraction(0), Fraction(4)))
        theta = AlgebraicNumber(P(3, -4, 1), ivs[-1])
        assert sign_at_algebraic(P(1, -3, 1), theta) == 1

    def test_rational_point_consistency(self):
        theta = AlgebraicNumber.from_rational(Fraction(7, 2))
        p = P(-3, 1)
        assert sign_at_algebraic(p, theta) == (1 if p(Fraction(7, 2)) > 0 else -1)

    def test_sign_matches_refined_evaluation(self):
        # sqrt(2): positive root of x^2 - 2
        iv = isolate_real_roots(P(-2, 0, 1), Interval(Fraction(0), Fraction(2)))[0]
        sqrt2 = AlgebraicNumber(P(-2, 0, 1), iv)
        assert sign_at_algebraic(P(-1, 1), sqrt2) == 1  # sqrt2 > 1
        assert sign_at_algebraic(P(-2, 1), sqrt2) == -1  # sqrt2 < 2
        assert sign_at_algebraic(P(-2, 0, 1), sqrt2) == 0

    def test_refinement_keeps_isolation(self):
        theta = self.theta_four()
        fine = theta.bisected(lambda a, b, den: (b - a) << 40 <= den)
        assert fine.enclosure.width <= Fraction(1, 1 << 40)
        assert fine.enclosure.lo <= 4 <= fine.enclosure.hi

    def test_compare_and_equal(self):
        p = P(3, -4, 1)  # roots 1, 3
        one, three = [AlgebraicNumber(p, iv) for iv in isolate_real_roots(p, Interval(Fraction(0), Fraction(4)))]
        # order and equality against a rational r are signs of x - r
        assert sign_at_algebraic(P(-3, 1), one) == -1
        assert sign_at_algebraic(P(-1, 1), three) == 1
        assert sign_at_algebraic(P(-1, 1), one) == 0
        # same root through a different defining polynomial
        q = P(-3, 1)
        also_three = AlgebraicNumber.from_rational(Fraction(3))
        assert sign_at_algebraic(p, also_three) == 0
        assert sign_at_algebraic(q, three) == 0
        # two irrational numbers: 1 + sqrt2 is a root of x^2 - 2x - 1
        r = P(-1, -2, 1)
        iv = isolate_real_roots(r, Interval(Fraction(2), Fraction(3)))[0]
        one_plus_sqrt2 = AlgebraicNumber(r, iv)
        sqrt2 = AlgebraicNumber(P(-2, 0, 1), isolate_real_roots(P(-2, 0, 1), Interval(Fraction(0), Fraction(2)))[0])
        assert sign_at_algebraic(r, sqrt2) == -1  # (sqrt2)^2 - 2 sqrt2 - 1 < 0
        assert sign_at_algebraic(P(-3, 0, 1) * P(-1, -2, 1), one_plus_sqrt2) == 0

    def test_decimal_rendering(self):
        iv = isolate_real_roots(P(-2, 0, 1), Interval(Fraction(0), Fraction(2)))[0]
        sqrt2 = AlgebraicNumber(P(-2, 0, 1), iv)
        assert sqrt2.decimal(12).startswith("1.41421356237")

    @pytest.mark.parametrize(
        "value, other, lo, hi, digits, want",
        [
            (Fraction(3, 2), -7, Fraction(1), Fraction(7, 4), 1, "2"),
            (Fraction(3, 20), -1, Fraction(1, 10), Fraction(1, 4), 1, "0.2"),
            (Fraction(-3, 20), 1, Fraction(-1, 4), Fraction(-1, 10), 1, "-0.2"),
            (Fraction(1, 8000), 1, Fraction(1, 10**4), Fraction(1, 10**3), 2, "0.00013"),
        ],
    )
    def test_decimal_on_a_rounding_boundary(self, value, other, lo, hi, digits, want):
        # a value on a rounding boundary need not be a bisection point, so
        # refinement alone may never settle it: one exact sign at the boundary
        # does, and the value rounds half away from zero as decimal_str does
        theta = AlgebraicNumber(P(-value, 1) * P(-other, 1), Interval(lo, hi))
        assert theta.decimal(digits) == want == decimal_str(value, digits)
        assert theta.decimal(digits + 1) == decimal_str(value, digits + 1)

    def test_decimal_of_a_zero_root(self):
        # 0 is a root of x^2 - x inside (-1/3, 1/2]; bisection never reaches it
        theta = AlgebraicNumber(P(0, -1, 1), Interval(Fraction(-1, 3), Fraction(1, 2)))
        assert theta.decimal(30) == "0"

    def test_zero_sign_never_contradicted_by_refinement(self):
        # whenever the gcd test says zero, the value must keep straddling 0:
        # refining the enclosure never yields a constant nonzero sign
        iv = isolate_real_roots(P(-2, 0, 1), Interval(Fraction(0), Fraction(2)))[0]
        sqrt2 = AlgebraicNumber(P(-2, 0, 1), iv)
        p = P(-2, 0, 1) * P(5, 3, 1)  # sqrt2 is a root of this multiple
        assert sign_at_algebraic(p, sqrt2) == 0
        cur = sqrt2
        for _ in range(60):
            cur = cur.refined()
            lo_sign = p(cur.enclosure.lo) > 0
            hi_sign = p(cur.enclosure.hi) > 0
            assert lo_sign != hi_sign or p(cur.enclosure.lo) == 0 or p(cur.enclosure.hi) == 0


class TestSquareFreeDefining:
    def test_repeated_roots_refused(self):
        x_minus_1 = P(-1, 1)
        refused = [
            (x_minus_1 * x_minus_1, Interval(Fraction(0), Fraction(3))),
            # odd multiplicity: the sign changes across (0, 3), but the
            # defining polynomial is not square-free either
            (x_minus_1 * x_minus_1 * x_minus_1, Interval(Fraction(0), Fraction(3))),
            (x_minus_1 * x_minus_1, Interval(Fraction(1), Fraction(1))),
            # the isolated root 2 is simple; the repeated root lies outside
            (x_minus_1 * x_minus_1 * P(-2, 1), Interval(Fraction(3, 2), Fraction(3))),
            (Poly(), Interval(Fraction(1), Fraction(1))),
        ]
        for defining, enclosure in refused:
            with pytest.raises(ExactError):
                AlgebraicNumber(defining, enclosure)
        two = AlgebraicNumber(x_minus_1 * P(-2, 1), Interval(Fraction(3, 2), Fraction(3)))
        assert sign_at_algebraic(P(-2, 1), two) == 0

    def test_zero_test_runs_no_sturm_count(self, monkeypatch):
        from gibonacci import exactnum
        from gibonacci.polys import GibParams, sign_alternating_poly
        from gibonacci.roots import roots_of

        params = GibParams.of(5, 2)
        rows = [sign_alternating_poly(params, j) for j in range(2, 16)]
        cases = [(p, root) for k in (9, 10, 14) for root in roots_of(params, k).roots for p in rows]
        sqrt2 = AlgebraicNumber(P(-2, 0, 1), Interval(Fraction(1), Fraction(2)))
        cases += [(P(-2, 0, 1) * P(5, 3, 1), sqrt2), (P(-3, 0, 1) * P(-1, 1), sqrt2)]
        want = [_sturm_loop_sign(p, root) for p, root in cases]
        monkeypatch.setattr(exactnum, "sturm_count", None)
        monkeypatch.setattr(exactnum, "sturm_chain", None)
        assert [sign_at_algebraic(p, _fresh(root)) for p, root in cases] == want
        assert want.count(0) >= 16


class TestQuadraticElement:
    """Elements a + b*t of the quotient ring Q[t]/(t^2 - d)."""

    @staticmethod
    def ring(d):
        return NumberRing(P(-d, 0, 1))

    def test_ring_ops(self):
        ring = self.ring(5)
        t = ring.generator()
        x = 1 + 2 * t  # 1 + 2 sqrt5
        y = t - 3  # -3 + sqrt5
        assert x + y == ring.element(P(-2, 3))
        assert x - y == ring.element(P(4, 1))
        assert x * y == ring.element(P(-3 + 2 * 5, 1 - 6))
        assert -x == ring.element(P(-1, -2))

    def test_inverse_and_power(self):
        ring = self.ring(2)
        t = ring.generator()
        x = 1 + t  # 1 + sqrt2, norm -1, so its inverse is t - 1
        assert x * (t - 1) == ring.from_rational(1)
        assert x**2 == ring.element(P(3, 2))
        assert x**0 == ring.from_rational(1)
        assert x**1 == x
        assert x**13 == x * x**12 == (x**6) * (x**7)
        with pytest.raises(ExactError):
            x ** -1

    def test_rational_part_guard(self):
        # 3 + sqrt2 has an irrational part; its product with the conjugate
        # 3 - sqrt2 is the rational 7
        ring = self.ring(2)
        t = ring.generator()
        x = 3 + t
        assert x.poly.coeffs[1] != 0
        assert (x * (3 - t)).poly == P(7)

    def test_sign_and_decimal_need_a_root(self):
        x = 3 + self.ring(2).generator()
        for query in (x.sign, x.decimal):
            with pytest.raises(ExactError, match="designated root"):
                query()
        iv = isolate_real_roots(P(-2, 0, 1), Interval(Fraction(0), Fraction(2)))[0]
        sqrt2 = AlgebraicNumber(P(-2, 0, 1), iv)
        y = 3 - NumberRing(P(-2, 0, 1), sqrt2).generator() * 3  # 3 - 3 sqrt2
        assert y.sign() == -1 and y.decimal(6) == "-1.24264"
        with pytest.raises(ExactError, match="not a root"):
            NumberRing(P(-3, 0, 1), sqrt2)

    def test_mixed_rings_rejected(self):
        with pytest.raises(ExactError):
            self.ring(2).generator() + self.ring(3).generator()

    def test_rational_factor_scales_the_content(self):
        # a rational multiple of a reduced residue is reduced, so it needs no
        # product and no reduction; any other operand is left to its own type
        ring = NumberRing(P(-7, 0, 0, 2))  # 2t^3 - 7
        x = ring.element(P(Fraction(1, 3), -2, 5))
        for c in (Fraction(-3, 2), 0, 1, 7):
            want = ring.element(x.poly * Poly.constant(c))
            assert x * c == c * x == want
            assert (x * Fraction(c)).poly == want.poly
        assert x.__mul__(object()) is NotImplemented
        assert x.__mul__(1.5) is NotImplemented


def _fraction_bisection(theta: AlgebraicNumber, steps: int) -> Interval:
    """Oracle: plain Fraction bisection with Horner values at both ends."""
    p = theta.defining
    lo, hi = theta.enclosure.lo, theta.enclosure.hi
    for _ in range(steps):
        if lo == hi:
            break
        m = (lo + hi) / 2
        fm = p(m)
        if fm == 0:
            lo = hi = m
        elif (p(lo) > 0) != (fm > 0):
            hi = m
        else:
            lo = m
    return Interval(lo, hi)


class TestIntegerCore:
    def test_integer_coefficients_cached(self):
        p = P(Fraction(1, 2), Fraction(-3, 4), 6)
        ints = p.ints
        assert ints == (2, -3, 24)
        assert p.ints is ints
        assert Poly().ints == ()

    def test_sign_at_fixtures(self):
        p = P(-2, 0, 1)  # x^2 - 2
        assert p.sign_at(0) == -1
        assert p.sign_at(Fraction(3, 2)) == 1
        assert P(Fraction(-1, 3), 1).sign_at(Fraction(1, 3)) == 0
        assert Poly().sign_at(Fraction(7, 5)) == 0

    def test_sign_at_matches_horner(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        rationals = st.fractions(min_value=-20, max_value=20, max_denominator=60)

        @hyp.settings(max_examples=120, deadline=None, derandomize=True)
        @hyp.given(st.lists(rationals, max_size=9), rationals, rationals)
        def check(coeffs, root, x):
            # multiplying by (x - root) puts one exact root among the points
            p = Poly(coeffs) * P(-root, 1)
            for point in (x, root):
                value = p(point)
                assert p.sign_at(point) == (value > 0) - (value < 0)

        check()

    def test_kernel_matches_fraction_bisection(self):
        cases = [
            (P(-2, 0, 1), Interval(Fraction(1), Fraction(2))),
            (P(-7, 14, -7, 1), Interval(Fraction(7, 2), Fraction(4))),
            # a dyadic midpoint hits the root 3/4 exactly
            (P(-3, 4) * P(-5, 0, 1), Interval(Fraction(1, 2), Fraction(1))),
            # endpoints with different denominators
            (P(-5, 0, 1), Interval(Fraction(2), Fraction(7, 3))),
        ]
        for p, iv in cases:
            theta = AlgebraicNumber(p, iv)
            for steps in (0, 1, 2, 5, 40, 130):
                want = _fraction_bisection(theta, steps)
                assert theta.bisected(steps=steps).enclosure == want
            cur = theta
            for steps in range(1, 41):
                cur = cur.refined()
                assert cur.enclosure == _fraction_bisection(theta, steps)

    def test_kernel_stops_on_condition(self):
        theta = AlgebraicNumber(P(-2, 0, 1), Interval(Fraction(1), Fraction(2)))
        fine = theta.bisected(lambda a, b, den: (b - a) << 20 <= den)
        assert fine.enclosure.width <= Fraction(1, 1 << 20)
        assert fine.enclosure == _fraction_bisection(theta, 20)
        assert sturm_count(fine.defining, fine.enclosure) == 1
        point = AlgebraicNumber.from_rational(Fraction(5, 3))
        assert point.bisected(steps=10) is point

    def test_digits_below_one_rejected(self):
        for digits in (0, -3):
            with pytest.raises(ExactError, match="digits"):
                decimal_str(Fraction(1, 3), digits)
        sqrt2 = AlgebraicNumber(P(-2, 0, 1), Interval(Fraction(1), Fraction(2)))
        with pytest.raises(ExactError, match="digits"):
            sqrt2.decimal(-3)
        assert sqrt2.decimal(1) == "1"


def fraction_horner(p: Poly, x) -> Fraction:
    """Horner evaluation in Fractions, one Fraction per step."""
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


class TestValueRoute:
    def test_fixtures_match_fraction_horner(self):
        polys = [
            Poly(),
            P(5),
            P(Fraction(-7, 3)),
            P(-7, 14, -7, 1),
            P(Fraction(1, 2), Fraction(-3, 4), 6),
            P(0, Fraction(5, 6), 0, Fraction(-1, 10)),
            P(Fraction(3, 1 << 70), 0, Fraction(-1, 1 << 40), 1),
        ]
        points = [0, 1, -1, 7, -12, Fraction(1, 3), Fraction(-5, 4), Fraction(22, 7),
                  Fraction(1, 1 << 90), Fraction(-(1 << 100) + 1, 1 << 99)]
        for p in polys:
            for x in points:
                got = p(x)
                assert type(got) is Fraction and got == fraction_horner(p, x)

    def test_enclosure_ends_of_rows(self):
        from gibonacci.polys import GibParams
        from gibonacci.roots import roots_of

        seeds = [(1, 1), (2, 1), (Fraction(3, 2), 1), (Fraction(11, 4), 1),
                 (Fraction(7, 3), Fraction(1, 2))]
        for alpha, beta in seeds:
            params = GibParams.of(alpha, beta)
            for k in range(2, 131):
                for root in roots_of(params, k).roots:
                    p, iv = root.defining, root.enclosure
                    assert p(iv.lo) == fraction_horner(p, iv.lo)
                    assert p(iv.hi) == fraction_horner(p, iv.hi)

    def test_matches_fraction_horner_property(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        rationals = st.fractions(min_value=-50, max_value=50, max_denominator=1 << 40)

        @hyp.settings(max_examples=100, deadline=None, derandomize=True)
        @hyp.given(st.lists(rationals, max_size=12), rationals)
        def check(coeffs, x):
            p = Poly(coeffs)
            assert p(x) == fraction_horner(p, x)

        check()


def naive_numerator(ints, n, d) -> int:
    """Oracle: sum(c_i * n^i * d^(deg-i)), each power built in full."""
    deg = len(ints) - 1
    return sum(c * n**i * d ** (deg - i) for i, c in enumerate(ints))


def naive_box_range(ints, a, b, den) -> tuple:
    """Oracle: integer interval Horner with the full powers den^j, the loop
    `_box_range` ran before it carried den = D*2^s as D^j << s*j."""
    lo = hi = ints[-1]
    dpow = den
    for c in ints[-2::-1]:
        ends = (lo * a, lo * b, hi * a, hi * b)
        lo, hi = min(ends) + c * dpow, max(ends) + c * dpow
        dpow *= den
    return lo, hi


# kernel denominators d = D*2^s: dyadic, odd times dyadic, and the odd
# part 33 of the bound 196/33 of seeds (7/3, 1/2)
KERNEL_DENOMINATORS = [D << s for D in (1, 3, 33) for s in range(201)]
KERNEL_INTS = [
    (5,),
    (-3,),
    (0, 1),
    (-2, 0, 1),
    (-7, 14, -7, 1),
    (3, -1, 0, 4, -9, 2),
    tuple((-1) ** i * (i * i + 1) for i in range(12)),
]


class TestShiftKernel:
    """`_sign_at_point`, `Poly.__call__` and `_box_range` step d^j as
    D^j << s*j; each must equal the full-power route."""

    def test_grid_matches_full_powers(self):
        from gibonacci.exactnum import _box_range, _sign_at_point

        for d in KERNEL_DENOMINATORS:
            for n in (0, 1, -1, d + 1, -(3 * d) // 2 - 1, 7 * d - 3):
                for ints in KERNEL_INTS:
                    want = naive_numerator(ints, n, d)
                    assert _sign_at_point(ints, n, d) == (want > 0) - (want < 0)
                    assert _box_range(ints, n, n, d) == (want, want)  # a point box
                    assert _box_range(ints, n, n + d + 1, d) == naive_box_range(ints, n, n + d + 1, d)
                    a = -abs(n) - 2  # a box across 0
                    assert _box_range(ints, a, abs(n), d) == naive_box_range(ints, a, abs(n), d)
                    p = Poly.from_ints(ints, Fraction(-5, 7))
                    assert p(Fraction(n, d)) == fraction_horner(p, Fraction(n, d))

    def test_property_matches_full_powers(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        from gibonacci.exactnum import _box_range, _sign_at_point

        @hyp.settings(max_examples=300, deadline=None, derandomize=True)
        @hyp.given(
            st.lists(st.integers(-(1 << 70), 1 << 70), min_size=1, max_size=14),
            st.integers(-(1 << 300), 1 << 300),
            st.integers(0, 1 << 60),
            st.sampled_from([1, 3, 33]) | st.integers(1, 1 << 20),
            st.integers(0, 200),
        )
        def check(ints, n, width, odd, s):
            d = odd << s
            want = naive_numerator(ints, n, d)
            assert _sign_at_point(ints, n, d) == (want > 0) - (want < 0)
            assert _box_range(ints, n, n, d) == (want, want)
            assert _box_range(ints, n, n + width, d) == naive_box_range(ints, n, n + width, d)
            if any(ints):
                p = Poly.from_ints(ints)
                assert p(Fraction(n, d)) == fraction_horner(p, Fraction(n, d))

        check()


def _sturm_loop_sign(p: Poly, theta: AlgebraicNumber) -> int:
    """Oracle: the former sign_at_algebraic, with a gcd zero test on every
    query and a Sturm count of p after every one-step refinement."""
    if p.is_zero:
        return 0
    if theta.is_rational:
        return p.sign_at(theta.rational_value)
    g = poly_gcd(p, theta.defining)
    if g.degree >= 1 and sturm_count(g, theta.enclosure) == 1:
        return 0
    cur = theta
    while True:
        iv = cur.enclosure
        if cur.is_rational:
            return p.sign_at(cur.rational_value)
        try:
            inside = sturm_count(p, iv)
            lo_sign = p.sign_at(iv.lo)
        except EndpointRootError:
            cur = cur.refined()
            continue
        if inside == 0 and lo_sign != 0:
            return lo_sign
        cur = cur.refined()


def _fresh(theta: AlgebraicNumber) -> AlgebraicNumber:
    """The same number without a kept enclosure (roots_of caches its roots)."""
    return AlgebraicNumber(theta.defining, theta.enclosure, theta._below)


ORACLE_SEEDS = [(1, 1), (2, 1), (5, 2), (1, 2), (Fraction(7, 3), Fraction(1, 2))]


class TestOneSignPerStep:
    """The sign below a root is the number's own, so a bisection step pays
    one point sign, at its midpoint."""

    @pytest.fixture
    def counts(self, monkeypatch):
        from gibonacci import exactnum

        counts = {"signs": 0, "bisects": 0}
        sign, bisect = exactnum._sign_at_point, exactnum._bisect

        def counted_sign(*args):
            counts["signs"] += 1
            return sign(*args)

        def counted_bisect(*args, **kwargs):
            counts["bisects"] += 1
            return bisect(*args, **kwargs)

        monkeypatch.setattr(exactnum, "_sign_at_point", counted_sign)
        monkeypatch.setattr(exactnum, "_bisect", counted_bisect)
        return counts

    def test_bisected_pays_one_sign_per_step(self, counts):
        from gibonacci.polys import GibParams
        from gibonacci.roots import roots_of

        for params, k in [(GibParams.of(1, 1), 16), (GibParams.of(Fraction(7, 3), Fraction(1, 2)), 21)]:
            for root in roots_of(params, k).roots:
                for n in (1, 7, 40):
                    counts["signs"] = 0
                    assert not _fresh(root).bisected(steps=n).is_rational
                    assert counts["signs"] == n

    def test_rational_between_pays_one_sign_per_step(self, counts):
        from gibonacci.polys import GibParams
        from gibonacci.roots import roots_of

        params = GibParams.of(5, 2)
        a, b = roots_of(params, 21).roots, roots_of(params, 20).roots
        pairs = [(_fresh(x), _fresh(y)) for x, y in zip(b, a)]  # b_0 < a_0 < b_1 < ...
        counts["signs"] = counts["bisects"] = 0
        assert all(rational_between(x, y) is not None for x, y in pairs)
        # rational_between calls _bisect with steps=1, and no root here is rational
        assert counts["bisects"] > 0 and counts["signs"] == counts["bisects"]


class TestIntervalFirstSign:
    def test_matches_sturm_loop_on_row_roots(self):
        from gibonacci.polys import GibParams, sign_alternating_poly
        from gibonacci.roots import roots_of

        zeros = 0
        for alpha, beta in ORACLE_SEEDS:
            params = GibParams.of(alpha, beta)
            rows = [sign_alternating_poly(params, j) for j in range(2, 22)]
            for k in range(2, 22):
                for root in roots_of(params, k).roots:
                    theta = _fresh(root)  # shared by all rows: the kept path
                    for p in rows:
                        want = _sturm_loop_sign(p, root)
                        assert sign_at_algebraic(p, theta) == want
                        assert sign_at_algebraic(p, _fresh(root)) == want
                        zeros += want == 0
        assert zeros > 500  # every row vanishes at its own roots, and more

    def test_matches_sturm_loop_on_random_polynomials(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        from gibonacci.polys import GibParams
        from gibonacci.roots import roots_of

        thetas = [
            root
            for alpha, beta in ORACLE_SEEDS
            for k in (5, 12, 19)
            for root in roots_of(GibParams.of(alpha, beta), k).roots
        ]
        # negative roots and enclosures around 0 take the general interval product
        for p in (P(-2, 0, 1), P(1, -3, 0, 1), P(-1, 3, 7, -2, -5)):
            window = Interval(Fraction(-3), Fraction(3))
            thetas += [AlgebraicNumber(p, iv) for iv in isolate_real_roots(p, window)]
        assert any(t.enclosure.lo < 0 for t in thetas)
        rationals = st.fractions(min_value=-30, max_value=30, max_denominator=40)

        @hyp.settings(max_examples=120, deadline=None, derandomize=True)
        @hyp.given(
            st.lists(rationals, max_size=8),
            st.integers(min_value=0, max_value=len(thetas) - 1),
            st.booleans(),
        )
        def check(coeffs, index, through_theta):
            root = thetas[index]
            p = Poly(coeffs)
            if through_theta:
                p = p * root.defining  # vanishes at theta unless p was zero
            theta = _fresh(root)
            assert sign_at_algebraic(p, theta) == _sturm_loop_sign(p, root)
            assert sign_at_algebraic(p, theta) == _sturm_loop_sign(p, root)

        check()

    def test_box_sign_is_sound(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        from gibonacci.exactnum import _box_range

        ints = st.integers(min_value=-40, max_value=40)

        @hyp.settings(max_examples=300, deadline=None, derandomize=True)
        @hyp.given(st.lists(ints, min_size=1, max_size=7), ints, st.integers(0, 30), st.integers(1, 12))
        def check(coeffs, a, width, den):
            if coeffs[-1] == 0:
                coeffs[-1] = 1
            p = Poly(coeffs)
            b = a + width
            lo, hi = _box_range(tuple(coeffs), a, b, den)
            sign = 1 if lo > 0 else -1 if hi < 0 else 0
            # a nonzero answer must hold at every point of the box
            for i in range(9):
                x = Fraction(a * 8 + (b - a) * i, 8 * den)
                if sign:
                    assert p.sign_at(x) == sign
            if a == b:
                assert sign == p.sign_at(Fraction(a, den))

        check()

    def test_kept_enclosure_shrinks_inside_and_isolates(self):
        from gibonacci.polys import GibParams, sign_alternating_poly
        from gibonacci.roots import largest_root

        params = GibParams.of(2, 1)
        theta = _fresh(largest_root(params, 16))
        lo, hi = theta.enclosure.lo, theta.enclosure.hi
        assert theta._kept is None
        width = hi - lo
        refined = 0
        # rows close to 16 at its largest root need ever finer enclosures
        for j in list(range(2, 30)) + [16, 17, 15]:
            sign_at_algebraic(sign_alternating_poly(params, j), theta)
            assert theta.enclosure == Interval(lo, hi)  # never changes
            if theta._kept is None:
                continue
            a, b, den = theta._kept
            kept = Interval(Fraction(a, den), Fraction(b, den))
            assert lo <= kept.lo and kept.hi <= hi
            assert kept.width <= width
            refined += kept.width < width
            width = kept.width
            if kept.lo == kept.hi:
                assert theta.defining.sign_at(kept.lo) == 0
            else:
                assert sturm_count(theta.defining, kept) == 1
        assert refined >= 2

    def test_zero_that_only_the_gcd_decides(self, monkeypatch):
        # unit row 8 is (x - 1)(x^3 - 6x^2 + 9x - 1), and its largest root is
        # a root of the cubic: no box excludes 0, so bisection alone never ends
        from gibonacci import exactnum
        from gibonacci.polys import GibParams, sign_alternating_poly
        from gibonacci.roots import largest_root

        unit = GibParams.of(1, 1)
        row = sign_alternating_poly(unit, 8)
        cubic = P(-1, 9, -6, 1)
        assert row == P(-1, 1) * cubic
        calls = []
        monkeypatch.setattr(exactnum, "poly_gcd", lambda a, b: calls.append(a) or poly_gcd(a, b))
        theta = _fresh(largest_root(unit, 8))
        assert sign_at_algebraic(cubic, theta) == 0
        assert theta._kept is None  # a zero keeps nothing
        element = NumberRing(row, theta).element(cubic)
        assert not element.is_zero and element.sign() == 0
        assert calls == [cubic, cubic]  # one zero test per query

    def test_kept_enclosure_not_filled_by_coarse_or_zero_queries(self):
        iv = isolate_real_roots(P(-2, 0, 1), Interval(Fraction(0), Fraction(2)))[0]
        sqrt2 = AlgebraicNumber(P(-2, 0, 1), iv)
        assert sign_at_algebraic(P(-2, 0, 1), sqrt2) == 0
        assert sign_at_algebraic(P(-3, 1), sqrt2) == -1
        assert sqrt2._kept is None
        # a linear query is decided in theta-space and keeps nothing: the box
        # fills on a query that is not linear
        assert sign_at_algebraic(P(-Fraction(141421, 100000), 1), sqrt2) == 1
        assert sqrt2._kept is None
        assert sign_at_algebraic(P(-Fraction(199999, 100000), 0, 1), sqrt2) == 1
        assert sqrt2._kept is not None
        assert sqrt2.to_json()["enclosure"] == iv.to_json()


def mpmath_value_decimal(mpmath, element, digits):
    """Oracle: `digits` significant digits of a ring element at its ring's
    designated root, computed and rounded by mpmath in decimal_str's layout.

    The root comes from Newton's method started inside its enclosure, at a
    working precision far beyond the digits of the smallest values tested
    (10^-30 and below).
    """
    theta = element.ring.theta
    e = theta.enclosure

    def mp(c):
        return mpmath.mpf(c.numerator) / c.denominator

    with mpmath.workdps(200):
        defining = [mp(c) for c in reversed(theta.defining.coeffs)]
        x = (mp(e.lo) + mp(e.hi)) / 2
        for _ in range(60):
            y, dy = mpmath.polyval(defining, x, derivative=True)
            x -= y / dy
        assert mp(e.lo) <= x <= mp(e.hi)
        value = mpmath.polyval([mp(c) for c in reversed(element.poly.coeffs)], x)
        text = mpmath.nstr(value, digits, min_fixed=-6, max_fixed=digits)
    return text[:-2] if text.endswith(".0") else text


class TestDecimalRule:
    """One decimal rule for every exact real: `_decimal_at` behind both
    `AlgebraicNumber.decimal` and `RingElement.decimal`."""

    @pytest.mark.parametrize("alpha, beta", [(1, 1), (2, 1), (5, 2), (Fraction(7, 3), Fraction(1, 2))])
    def test_ring_elements_match_mpmath(self, alpha, beta):
        import random

        mpmath = pytest.importorskip("mpmath")
        from gibonacci.polys import GibParams
        from gibonacci.roots import largest_root

        rng = random.Random(f"{alpha}/{beta}")
        checked = 0
        for k in range(3, 31):
            theta = largest_root(GibParams.of(alpha, beta), k)
            ring = NumberRing(theta.defining, theta)
            t = ring.generator()
            degree = theta.defining.degree
            elements = [
                ring.element(Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(degree)]))
                for _ in range(3)
            ]
            if not theta.is_rational:
                # values down to 10^-30 and below: t - r for a rational r
                # within 10^-e of theta, and their negatives
                for e in (10, 20, 30):
                    r = theta.bisected(lambda a, b, den: (b - a) * 10**e <= den).enclosure.lo
                    elements += [t - r, r - t]
            for x in elements:
                if x.is_zero:
                    continue
                got = x.decimal(30)
                assert got == mpmath_value_decimal(mpmath, x, 30), (alpha, beta, k, x.poly)
                checked += 1
        assert checked >= 150

    def test_close_element_of_unit_row_twelve(self):
        from gibonacci.polys import GibParams
        from gibonacci.roots import roots_of

        theta = roots_of(GibParams.of(1, 1), 12).roots[-1]
        r = theta.bisected(lambda a, b, den: (b - a) * 10**25 <= den).enclosure.lo
        x = NumberRing(theta.defining, theta).generator() - r
        assert x.decimal(30) == "7.85360161888296974830966218457e-27"
        assert (-x).decimal(30) == "-7.85360161888296974830966218457e-27"

    def test_exact_boundary_in_the_ring(self):
        # theta = 3/2 is the root of (2t - 3)(t^2 - 2) in (71/50, 8/5): at one
        # digit it lies on the boundary between "1" and "2" and rounds away
        # from zero; no bisection point is ever 3/2 on this grid
        m = P(-3, 2) * P(-2, 0, 1)
        theta = AlgebraicNumber(m, Interval(Fraction(71, 50), Fraction(8, 5)))
        t = NumberRing(m, theta).generator()
        assert t.decimal(1) == "2"
        assert t.decimal(2) == "1.5"
        assert (-t).decimal(1) == "-2"
        assert (t * t - 2).decimal(2) == "0.25"
        assert theta.decimal(1) == "2" and theta.decimal(2) == "1.5"

    def test_zero_and_negative_values(self):
        sqrt2 = AlgebraicNumber(P(-2, 0, 1), Interval(Fraction(1), Fraction(2)))
        ring = NumberRing(P(-2, 0, 1), sqrt2)
        t = ring.generator()
        assert ring.from_rational(0).decimal() == "0"
        assert (t * t - 2).decimal() == "0"
        assert (t - t).decimal(5) == "0"
        assert (1 - t).decimal(6) == "-0.414214"
        assert (-t).decimal(3) == "-1.41"
        assert ring.from_rational(Fraction(-1, 3)).decimal(4) == "-0.3333"
        with pytest.raises(ExactError):
            t.decimal(0)

    def test_ring_decimal_keeps_the_bisected_box(self):
        sqrt2 = AlgebraicNumber(P(-2, 0, 1), Interval(Fraction(1), Fraction(2)))
        t = NumberRing(P(-2, 0, 1), sqrt2).generator()
        assert (t * 3 + 1).decimal(20) == "5.2426406871192851464"
        a, b, den = sqrt2._kept  # 3t + 1 over it is 10^-20 wide relative to its value
        assert 3 * (b - a) * 10**20 <= 3 * a + den
        assert sqrt2.enclosure == Interval(Fraction(1), Fraction(2))
        assert t.decimal(20) == "1.4142135623730950488"


class TestLinearQueries:
    """A linear query compares theta with its root r in theta-space: one
    exact sign of the defining polynomial at r, no gcd and no kept box."""

    @staticmethod
    def sqrt2():
        return AlgebraicNumber(P(-2, 0, 1), Interval(Fraction(1), Fraction(2)))

    def test_root_below_and_above_theta(self, monkeypatch):
        from gibonacci import exactnum

        monkeypatch.setattr(exactnum, "poly_gcd", None)
        theta = self.sqrt2()
        assert sign_at_algebraic(P(-Fraction(7, 5), 1), theta) == 1  # 7/5 < sqrt2
        assert sign_at_algebraic(P(-Fraction(3, 2), 1), theta) == -1  # 3/2 > sqrt2
        assert sign_at_algebraic(P(Fraction(7, 5), -1), theta) == -1
        assert sign_at_algebraic(P(3, -2), theta) == 1
        assert theta._kept is None

    def test_root_at_an_enclosure_end(self, monkeypatch):
        from gibonacci import exactnum

        monkeypatch.setattr(exactnum, "poly_gcd", None)
        theta = self.sqrt2()
        assert sign_at_algebraic(P(-1, 1), theta) == 1
        assert sign_at_algebraic(P(-2, 1), theta) == -1
        assert sign_at_algebraic(P(2, -1), theta) == 1

    def test_root_equal_to_a_rational_theta(self, monkeypatch):
        from gibonacci import exactnum

        monkeypatch.setattr(exactnum, "poly_gcd", None)
        m = P(-3, 2) * P(-2, 0, 1)
        theta = AlgebraicNumber(m, Interval(Fraction(71, 50), Fraction(8, 5)))
        assert not theta.is_rational
        assert sign_at_algebraic(P(-Fraction(3, 2), 1), theta) == 0
        assert sign_at_algebraic(P(6, -4), theta) == 0
        assert sign_at_algebraic(P(-Fraction(149, 100), 1), theta) == 1
        point = AlgebraicNumber.from_rational(Fraction(3, 2))
        assert sign_at_algebraic(P(-Fraction(3, 2), 1), point) == 0

    def test_matches_sturm_loop_on_row_roots(self):
        from gibonacci.polys import GibParams
        from gibonacci.roots import roots_of

        for alpha, beta in ORACLE_SEEDS:
            for k in (6, 9, 14):
                roots = roots_of(GibParams.of(alpha, beta), k).roots
                for root in roots:
                    e = root.enclosure
                    for r in (e.lo, e.hi, (e.lo + e.hi) / 2, (2 * e.lo + e.hi) / 3, Fraction(2), Fraction(3)):
                        for p in (P(-r, 1), P(r, -3)):
                            assert sign_at_algebraic(p, _fresh(root)) == _sturm_loop_sign(p, root)


class TestDecimalStrProperty:
    @staticmethod
    def decade(x: Fraction) -> int:
        """E with 10^E <= |x| < 10^(E+1)."""
        x, e = abs(x), 0
        while x >= 10:
            x, e = x / 10, e + 1
        while x < 1:
            x, e = x * 10, e - 1
        return e

    def check(self, x: Fraction, d: int) -> tuple:
        """The three properties of decimal_str(x, d); returns (|x - s|, ulp/2)."""
        out = decimal_str(x, d)
        s = Fraction(out)
        if x == 0:
            assert out == "0"
            return Fraction(0), Fraction(0)
        mantissa = out.lstrip("-").split("e")[0].replace(".", "").lstrip("0")
        assert len(mantissa) <= d, (x, d, out)
        half_ulp = Fraction(10) ** (self.decade(x) - d + 1) / 2
        error = abs(x - s)
        assert error <= half_ulp, (x, d, out)
        if error == half_ulp:
            assert abs(s) > abs(x), (x, d, out)  # a tie rounds away from zero
        return error, half_ulp

    def test_rounds_to_nearest(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hyp.settings(max_examples=300, deadline=None, derandomize=True)
        @hyp.given(
            st.fractions(max_denominator=10**12),
            st.integers(min_value=-40, max_value=40),
            st.integers(min_value=1, max_value=40),
        )
        def check(x, shift, d):
            self.check(x * Fraction(10) ** shift, d)

        check()

    def test_ties_round_away_from_zero(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hyp.settings(max_examples=200, deadline=None, derandomize=True)
        @hyp.given(
            st.integers(min_value=1, max_value=10**39),
            st.integers(min_value=-40, max_value=40),
            st.booleans(),
        )
        def check(m, shift, negative):
            # (m + 1/2) * 10^shift lies halfway between two len(str(m))-digit values
            x = Fraction(2 * m + 1, 2) * Fraction(10) ** shift * (-1 if negative else 1)
            error, half_ulp = self.check(x, len(str(m)))
            assert error == half_ulp

        check()

"""Root sets, interlacing, bounds, and closed trigonometric root forms."""

import random
from fractions import Fraction
from functools import partial
from itertools import islice

import pytest

from gibonacci.exactnum import (
    AlgebraicNumber,
    ExactError,
    Interval,
    Poly,
    _isolate,
    _separation_bits,
    _sign_at_point,
    _sign_changes,
    _variations,
    isolate_real_roots,
    rational_between,
    sign_at_algebraic,
    sturm_chain,
    sturm_count,
)
from gibonacci import polys as polys_module
from gibonacci.polys import (
    GibParams,
    _row_walk,
    companion_poly,
    reciprocal_transform_holds,
    sign_alternating_poly,
)
from gibonacci import roots as roots_module
from gibonacci import verify as verify_module
from gibonacci.roots import (
    bound_B,
    check_interlacing,
    cos_pi_enclosure,
    fibonacci_closed_roots,
    interval_sqrt,
    largest_root,
    lucas_closed_roots,
    match_closed_forms,
    pi_enclosure,
    RootSet,
    root_in,
    roots_of,
    sqrt_enclosure,
)

UNIT = GibParams.of(1, 1)
LUCAS = GibParams.of(2, 1)
WIDE = GibParams.of(5, 2)


def sin_pi_enclosure(t, bits):
    """Oracle: enclosure of sin(t*pi) = cos((1/2 - t)*pi), t in [0, 1/2]."""
    return cos_pi_enclosure(Fraction(1, 2) - Fraction(t), bits)


def lucas_closed_roots_sine(k, bits):
    """Oracle: the odd-k re-expression 4sin^2(j*pi/k) of the (2,1)-seed
    roots, j = 1..floor(k/2), ascending."""
    out = []
    for j in range(1, k // 2 + 1):
        s = sin_pi_enclosure(Fraction(j, k), bits + 8)
        lo = max(s.lo, Fraction(0))
        out.append(Interval(4 * lo * lo, 4 * s.hi * s.hi))
    return out


def four_cos_sq(t, bits):
    """Oracle: the squaring route to 4cos^2(t*pi), t in [0, 1/2], width <= 2^-bits."""
    work = bits + 8
    while True:
        c = cos_pi_enclosure(t, work)
        lo = max(c.lo, Fraction(0))
        iv = Interval(4 * lo * lo, 4 * c.hi * c.hi)
        if iv.width <= Fraction(1, 1 << bits):
            return iv
        work *= 2


def fibonacci_closed_roots_paper(k, bits):
    """Oracle: the unit-seed roots as printed, 4cos^2(j*pi/(k+1)), ascending."""
    return [four_cos_sq(Fraction(j, k + 1), bits) for j in range(k // 2, 0, -1)]


def lucas_closed_roots_paper(k, bits):
    """Oracle: the (2,1)-seed roots as printed, 4cos^2(j*pi/k - pi/2^(r+1))
    with k = 2^r * d, d odd, j = (d + 2l - 1)/2, l = floor(k/2)..1."""
    r, d = 0, k
    while d % 2 == 0:
        d, r = d // 2, r + 1
    return [
        four_cos_sq(Fraction(d + 2 * l - 1, 2) / k - Fraction(1, 2 ** (r + 1)), bits)
        for l in range(k // 2, 0, -1)
    ]


def contains_value(root, value) -> bool:
    """Exact membership test: is the algebraic root equal to this rational?"""
    return sign_at_algebraic(Poly([-Fraction(value), 1]), root) == 0


class TestBound:
    def test_unit_seed(self):
        b = bound_B(UNIT)
        assert b.value == 4 and b.regime == "ratio<=2"

    def test_wide_seed(self):
        b = bound_B(WIDE)
        assert b.value == Fraction(25, 6) and b.regime == "ratio>2"

    def test_boundary_ratio_two(self):
        b = bound_B(LUCAS)
        assert b.value == 4 and b.regime == "ratio<=2"


class TestRootSets:
    def test_unit_row_five(self):
        rs = roots_of(UNIT, 5)
        assert rs.count == 2
        assert contains_value(rs.roots[0], 1)
        assert contains_value(rs.roots[1], 3)

    def test_wide_row_five(self):
        rs = roots_of(WIDE, 5)
        assert rs.count == 2
        assert contains_value(rs.roots[0], Fraction(3, 2))
        assert contains_value(rs.roots[1], 4)

    def test_lucas_row_two(self):
        rs = roots_of(LUCAS, 2)
        assert rs.count == 1
        assert contains_value(rs.roots[0], 2)

    def test_counts_and_bound_small_grid(self):
        for params in [UNIT, LUCAS, WIDE, GibParams.of(3, 1)]:
            bound = bound_B(params).value
            for k in range(2, 16):
                rs = roots_of(params, k)
                assert rs.count == k // 2
                for r in rs.roots:
                    assert 0 <= r.enclosure.lo and r.enclosure.hi <= bound

    def test_k_below_two_rejected(self):
        with pytest.raises(ExactError):
            roots_of(UNIT, 1)


class TestLargestRoot:
    def test_rational_cases(self):
        assert contains_value(largest_root(WIDE, 5), 4)
        assert contains_value(largest_root(UNIT, 3), 2)

    def test_lucas_row_four_is_two_plus_sqrt2(self):
        r = largest_root(LUCAS, 4)
        assert r.defining == Poly([2, -4, 1])
        assert sign_at_algebraic(Poly([-2, 1]), r) == 1  # bigger than 2
        s2 = sqrt_enclosure(2, 100)
        target = Interval(2 + s2.lo - Fraction(1, 2**90), 2 + s2.hi + Fraction(1, 2**90))
        assert root_in(r, target)

    def test_strictly_increasing_in_k(self):
        for params in [UNIT, WIDE]:
            prev = None
            for k in range(2, 14):
                cur = largest_root(params, k)
                if prev is not None:
                    assert rational_between(prev, cur) is not None, (params, k)
                prev = cur


class TestInterlacing:
    def test_strong_offset_two(self):
        assert check_interlacing(roots_of(UNIT, 7), roots_of(UNIT, 5)) == "both-sides"

    def test_right_offset_one_singletons(self):
        assert check_interlacing(roots_of(UNIT, 3), roots_of(UNIT, 2)) == "right"

    def test_right_offset_one_quadratics(self):
        # {1, 3} against {(3-sqrt5)/2, (3+sqrt5)/2}
        assert check_interlacing(roots_of(UNIT, 5), roots_of(UNIT, 4)) == "right"

    def test_grid(self):
        for params in [UNIT, LUCAS, WIDE]:
            for k in range(2, 13):
                assert check_interlacing(roots_of(params, k + 1), roots_of(params, k)) in (
                    "both-sides",
                    "right",
                )
                assert (
                    check_interlacing(roots_of(params, k + 2), roots_of(params, k))
                    == "both-sides"
                )

    def test_mismatched_sets_rejected(self):
        with pytest.raises(ExactError):
            check_interlacing(roots_of(UNIT, 7), roots_of(UNIT, 4))
        with pytest.raises(ExactError):
            check_interlacing(roots_of(UNIT, 3), roots_of(LUCAS, 2))

    def test_shared_root_diagnostic(self):
        # a fabricated pair of sets holding the same algebraic number can
        # never separate; the refinement loop must raise, not spin
        from gibonacci.roots import RootSet

        iv = isolate_real_roots(Poly([-2, 0, 1]), Interval(Fraction(0), Fraction(2)))[0]
        sqrt2 = AlgebraicNumber(Poly([-2, 0, 1]), iv)
        fake_a = RootSet(3, UNIT, (sqrt2,))
        fake_b = RootSet(2, UNIT, (sqrt2,))
        with pytest.raises(ExactError, match="share a root"):
            check_interlacing(fake_a, fake_b)

    def test_shared_rational_root_diagnostic(self):
        # point enclosures [3, 3] touch without separating: equal, not ordered
        from gibonacci.roots import RootSet

        fake_a = RootSet(3, UNIT, (AlgebraicNumber.from_rational(3),))
        fake_b = RootSet(2, UNIT, (AlgebraicNumber.from_rational(3),))
        with pytest.raises(ExactError, match="share a root"):
            check_interlacing(fake_a, fake_b)

    def test_enclosures_and_decimals_unchanged(self):
        from gibonacci.roots import RootSet

        def fresh(k):
            return RootSet(k, UNIT, tuple(map(_fresh, roots_of(UNIT, k).roots)))

        a, b = fresh(41), fresh(40)
        before = [(r.to_json(), r.decimal(30)) for r in (*fresh(41).roots, *fresh(40).roots)]
        assert check_interlacing(a, b) == "right"
        assert all(r._kept is not None for r in (*a.roots, *b.roots))
        assert [(r.to_json(), r.decimal(30)) for r in (*a.roots, *b.roots)] == before


class TestEnclosures:
    def test_pi_brackets(self):
        iv = pi_enclosure(64)
        assert iv.lo < Fraction(314159265358979323846, 10**20) < iv.hi
        assert iv.width <= Fraction(1, 2**64)

    def test_cos_known_point(self):
        # cos(pi/3) = 1/2 exactly
        iv = cos_pi_enclosure(Fraction(1, 3), 80)
        assert iv.lo <= Fraction(1, 2) <= iv.hi
        assert iv.width <= Fraction(1, 2**80)

    def test_sin_known_point(self):
        iv = sin_pi_enclosure(Fraction(1, 6), 80)
        assert iv.lo <= Fraction(1, 2) <= iv.hi

    def test_sqrt_enclosure_certified(self):
        iv = sqrt_enclosure(2, 128)
        assert iv.width <= Fraction(1, 2**128)
        assert iv.lo * iv.lo <= 2 <= iv.hi * iv.hi
        assert sqrt_enclosure(Fraction(9, 4), 50) == Interval(Fraction(3, 2), Fraction(3, 2))


class TestClosedForms:
    def test_fibonacci_row_five_values(self):
        lo_root, hi_root = fibonacci_closed_roots(5, 100)
        assert lo_root.lo <= 1 <= lo_root.hi  # 4cos^2(2pi/6) = 1
        assert hi_root.lo <= 3 <= hi_root.hi  # 4cos^2(pi/6) = 3

    def test_fibonacci_row_two(self):
        (only,) = fibonacci_closed_roots(2, 100)
        assert only.lo <= 1 <= only.hi

    def test_lucas_row_two_and_three(self):
        (two,) = lucas_closed_roots(2, 100)
        assert two.lo <= 2 <= two.hi
        (three,) = lucas_closed_roots(3, 100)
        assert three.lo <= 3 <= three.hi

    def test_lucas_odd_sine_equivalent(self):
        for k in (3, 5, 7, 9, 11):
            cos_form = lucas_closed_roots(k, 96)
            sin_form = lucas_closed_roots_sine(k, 96)
            assert len(cos_form) == len(sin_form)
            for a, b in zip(cos_form, sin_form):
                assert a.lo < b.hi and b.lo < a.hi  # same value inside both

    @pytest.mark.parametrize("bits", [64, 128, 200])
    def test_identity_forms_match_paper_forms(self, bits):
        # 2 + 2cos(s*pi) at the doubled angle against the paper's squared
        # cosines; outward rounding to 2^-(bits+5) bounds the denominators
        for new_form, paper_form in [
            (fibonacci_closed_roots, fibonacci_closed_roots_paper),
            (lucas_closed_roots, lucas_closed_roots_paper),
        ]:
            for k in range(2, 201):
                got, want = new_form(k, bits), paper_form(k, bits)
                assert len(got) == len(want) == k // 2
                for a, b in zip(got, want):
                    assert a.lo <= b.hi and b.lo <= a.hi, (new_form.__name__, k, bits)
                    assert a.width <= Fraction(1, 1 << bits)
                    assert a.lo.denominator <= 1 << (bits + 5)
                    assert a.hi.denominator <= 1 << (bits + 5)

    def test_cos_width_check_is_an_error(self, monkeypatch):
        # one pass cannot meet 2^-bits from a pi enclosure this wide
        monkeypatch.setattr(roots_module, "pi_enclosure", lambda bits: Interval(Fraction(3), Fraction(4)))
        with pytest.raises(ExactError, match=r"enclosure is wider than 2\^-64"):
            cos_pi_enclosure.__wrapped__(Fraction(1, 3), 64)

    def test_match_small_grid(self):
        for k in range(2, 13):
            assert match_closed_forms(roots_of(UNIT, k), fibonacci_closed_roots(k))
            assert match_closed_forms(roots_of(LUCAS, k), lucas_closed_roots(k))

    def test_row_fifteen_nested_radicals(self):
        bits = 130
        s2 = sqrt_enclosure(2, bits)
        up = interval_sqrt(Interval(2 + s2.lo, 2 + s2.hi), bits)  # sqrt(2+sqrt2)
        dn = interval_sqrt(Interval(2 - s2.hi, 2 - s2.lo), bits)  # sqrt(2-sqrt2)
        values = [
            Interval(2 - up.hi, 2 - up.lo),
            Interval(2 - s2.hi, 2 - s2.lo),
            Interval(2 - dn.hi, 2 - dn.lo),
            Interval(Fraction(2), Fraction(2)),
            Interval(2 + dn.lo, 2 + dn.hi),
            Interval(2 + s2.lo, 2 + s2.hi),
            Interval(2 + up.lo, 2 + up.hi),
        ]
        rs = roots_of(UNIT, 15)
        assert rs.count == 7
        for root, val in zip(rs.roots, values):
            pad = Fraction(1, 2**120)
            target = Interval(val.lo - pad, val.hi + pad)
            assert root_in(root, target)
        # and the same seven numbers match the trigonometric closed forms
        assert match_closed_forms(rs, fibonacci_closed_roots(15))


class TestCompanionDuality:
    """The companion roots are exactly the images -1/zeta of the row roots
    because x^(k//2) V_{k-1}(-1/x) = P_k holds as a polynomial identity;
    `reciprocal_transform_holds` checks that identity exactly."""

    def test_small_grid(self):
        for params in [UNIT, LUCAS, WIDE]:
            for k in range(2, 11):
                assert reciprocal_transform_holds(params.ratio, k)

    def test_wrong_ratio_rejected(self, monkeypatch):
        # a sign test at the mapped ends of coarse isolating intervals
        # accepted the ratio + 1/100 companion, e.g. at seeds (1,1), k = 4
        ratios = [UNIT.ratio, LUCAS.ratio, WIDE.ratio]
        for shift in (Fraction(1, 100), Fraction(1)):
            # reciprocal_transform_holds looks companion_poly up on the
            # module, so the patch hands it these wrong-ratio members
            wrong = {(r, k): companion_poly(r + shift, k) for r in ratios for k in range(1, 10)}
            with monkeypatch.context() as patch:
                patch.setattr(polys_module, "companion_poly", lambda ratio, k: wrong[ratio, k])
                for r in ratios:
                    for k in range(2, 11):
                        assert not reciprocal_transform_holds(r, k)


ISOLATION_SEEDS = [
    GibParams.of(a, b)
    for a, b in [(1, 1), (2, 1), (5, 2), (1, 2), (Fraction(7, 3), Fraction(1, 2)), (3, 1), (Fraction(9, 2), 1)]
]


def _remainder_chain_roots(params, k):
    """Oracle: the row-k root set through the polynomial's own remainder
    chain (`isolate_real_roots` over (0, B), the window counted again), with
    roots_of's rim bisection."""
    p = sign_alternating_poly(params, k)
    bound = bound_B(params).value
    window = Interval(Fraction(0), bound)
    assert len(sturm_chain(p)[-1]) == 1  # gcd(P_k, P_k') is constant: square-free
    intervals = isolate_real_roots(p, window)
    assert len(intervals) == sturm_count(p, window) == k // 2
    return _rim_bisected(p, intervals, bound)


def _rim_bisected(p, intervals, bound):
    """Checked roots on `intervals`, the rim ones bisected off 0 and bound
    as roots_of does."""
    roots = [AlgebraicNumber(p, iv) for iv in intervals]
    bn, bd = bound.numerator, bound.denominator
    roots[0] = roots[0].bisected(lambda a, b, den: a > 0)
    roots[-1] = roots[-1].bisected(lambda a, b, den: b * bd < bn * den)
    return roots


def _row_sequence(params, k):
    """Oracle: (P_k, P_{k-2}, ..., P_{k mod 2}) as primitive integer
    coefficient tuples, the Sturm sequence that roots_of counts by the row
    recurrence instead of evaluating each row."""
    return tuple(sign_alternating_poly(params, j).ints for j in range(k, -1, -2))


def _row_variations(params, k, x):
    """Oracle: sign variations of the Sturm sequence (P_k, P_{k-2}, ...,
    P_{k mod 2}) at the rational x, read from the first k + 1 values of the
    one row walk `polys._row_walk`, integers of the rows' signs; None where
    x is a root of P_k.  roots_of counted with it before the bracket count."""
    values = list(islice(_row_walk(params, x.numerator, x.denominator), k + 1))
    return _sign_changes(values[k % 2 :: 2]) if values[k] else None


def _row_sequence_roots(params, k):
    """Oracle: the row-k root set isolated by Horner counts on
    `_row_sequence`, with roots_of's rim bisection."""
    p = sign_alternating_poly(params, k)
    bound = bound_B(params).value
    sequence = _row_sequence(params, k)
    sep_bits = _separation_bits(sequence[0])
    intervals = _isolate(partial(_variations, sequence), Fraction(0), bound, sep_bits)
    return _rim_bisected(p, intervals, bound)


class TestRowSequence:
    def test_matches_remainder_chain_route(self):
        for params in ISOLATION_SEEDS:
            for k in range(2, 61):
                got = roots_of(params, k).roots
                want = _remainder_chain_roots(params, k)
                assert [r.enclosure for r in got] == [r.enclosure for r in want]
                assert all(r.defining == sign_alternating_poly(params, k) for r in got)

    # the unit seeds, and seeds of ratio 9/2 > 2 (bound 81/14)
    @pytest.mark.parametrize("params, k", [(UNIT, 200), (GibParams.of(9, 2), 150)])
    def test_matches_row_sequence_route(self, params, k):
        got = roots_of(params, k).roots
        want = _row_sequence_roots(params, k)
        assert len(got) == k // 2
        assert [r.enclosure for r in got] == [r.enclosure for r in want]

    def test_counts_at_edge_points(self):
        # 0 and B, points left of 0, huge denominators, and rational roots
        # of intermediate rows (r of row 2, r + 1 of row 3, and 1, 2, 3 of
        # many unit-seed rows), where the sequence has interior zeros
        interior_zeros = 0
        for params in ISOLATION_SEEDS:
            r = params.ratio
            points = [
                Fraction(0),
                bound_B(params).value,
                Fraction(-1),
                Fraction(-7, 3),
                r,
                r + 1,
                Fraction(1),
                Fraction(2),
                Fraction(3),
                Fraction(2**80 + 1, 2**80),
                Fraction(3**50, 2**78 + 3),
                r + Fraction(1, 10**30),
            ]
            for k in range(2, 41):
                chain = sturm_chain(sign_alternating_poly(params, k))
                rows = _row_sequence(params, k)
                for x in points:
                    want = _variations(chain, x)
                    assert _row_variations(params, k, x) == want
                    assert _variations(rows, x) == want
                    n, d = x.numerator, x.denominator
                    interior_zeros += any(_sign_at_point(c, n, d) == 0 for c in rows[1:-1])
        assert interior_zeros > 100

    def test_counts_match_remainder_chain(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        seeds = st.one_of(
            st.just(UNIT),
            st.builds(
                GibParams,
                st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=8),
                st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=8),
            ),
        )
        # 0 and B end the isolation window; r and r + 1 are the roots of
        # rows 2 and 3; 1, 2 and 3 are roots of many unit-seed rows
        points = st.one_of(
            st.sampled_from(["0", "B", "r", "r+1", 1, 2, 3]),
            st.fractions(min_value=-12, max_value=12, max_denominator=64),
            st.fractions(min_value=-12, max_value=12, max_denominator=2**90),
        )

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(seeds, st.integers(min_value=2, max_value=40), points)
        def check(params, k, point):
            named = {"0": 0, "B": bound_B(params).value, "r": params.ratio, "r+1": params.ratio + 1}
            x = Fraction(named.get(point, point))
            chain = sturm_chain(sign_alternating_poly(params, k))
            assert _row_variations(params, k, x) == _variations(chain, x)

        check()


BRACKET_SEEDS = [
    GibParams.of(a, b)
    for a, b in [
        (1, 1),
        (2, 1),
        (Fraction(3, 2), 1),
        (Fraction(7, 3), Fraction(1, 2)),
        (1, 2),
        (Fraction(1, 3), 1),
        (Fraction(11, 4), 1),
        (3, 1),
    ]
]


class TestBracketCount:
    def test_equals_row_sequence_count_at_every_split(self, monkeypatch):
        # every point the bisection visits counts as the Sturm sequence of
        # the rows does, checked as it is visited: a wrong count can send
        # the bisection far past the point where it first differs
        row = {}

        def checked(count, lo, hi, sep_bits):
            def seen(x):
                got = count(x)
                assert got == _row_variations(*row["at"], x), (*row["at"], x)
                row["points"] += 1
                return got

            return _isolate(seen, lo, hi, sep_bits)

        monkeypatch.setattr(roots_module, "_isolate", checked)
        total = 0
        for params in BRACKET_SEEDS:
            for k in range(2, 131):
                row.update(at=(params, k), points=0)
                roots_of.__wrapped__(params, k)
                assert row["points"] >= 2
                total += row["points"]
        assert total > 10_000

    def test_enclosures_equal_row_sequence_route(self):
        for params in BRACKET_SEEDS:
            bound = bound_B(params).value
            bn, bd = bound.numerator, bound.denominator
            for k in range(2, 131):
                p = sign_alternating_poly(params, k)
                count = partial(_row_variations, params, k)
                intervals = _isolate(count, Fraction(0), bound, _separation_bits(p.ints))
                # roots_of's rim bisection, on roots whose isolation the
                # Sturm count has just certified
                want = [AlgebraicNumber(p, iv, p.sign_at(iv.lo)) for iv in intervals]
                want[0] = want[0].bisected(lambda a, b, den: a > 0)
                want[-1] = want[-1].bisected(lambda a, b, den: b * bd < bn * den)
                got = roots_of(params, k).roots
                assert [r.enclosure for r in got] == [r.enclosure for r in want], (params, k)

    @pytest.mark.parametrize("k", [4, 5, 9, 40, 121])
    def test_cut_points_lie_in_the_gaps(self, k):
        # the gaps between the roots of the unit rows k-2 and k-1, enclosed
        # far tighter than the cut points were chosen with
        cuts = roots_module._cut_points(k)
        assert len(cuts) == k // 2 - 1
        below = fibonacci_closed_roots(k - 2, 200)
        above = fibonacci_closed_roots(k - 1, 200)[-len(cuts) :] if cuts else []
        for cut, lo, hi in zip(cuts, below, above):
            assert lo.hi < cut < hi.lo
            assert cut.denominator & (cut.denominator - 1) == 0  # dyadic

    @pytest.mark.parametrize("params", [UNIT, GibParams.of(Fraction(7, 3), Fraction(1, 2))])
    @pytest.mark.parametrize("broken", ["dropped", "swapped", "moved"])
    def test_broken_cut_set_raises(self, params, broken, monkeypatch):
        # the certificate runs before any bisection, so a wrong cut set
        # stops at once with one line, and never reaches the count
        cut_points = roots_module._cut_points

        def wrong(k):
            cuts = list(cut_points(k))
            if broken == "dropped":
                del cuts[len(cuts) // 2]
            elif broken == "swapped":
                cuts[3], cuts[4] = cuts[4], cuts[3]
            else:  # the count is right, but one piece holds two roots
                del cuts[3]
                cuts.append((cuts[-1] + 4) / 2)
            return tuple(cuts)

        def no_bisection(*args):
            raise AssertionError("the bisection ran on a broken cut set")

        monkeypatch.setattr(roots_module, "_cut_points", wrong)
        monkeypatch.setattr(roots_module, "_isolate", no_bisection)
        for k in (20, 61, 128):
            with pytest.raises(ExactError) as info:
                roots_of.__wrapped__(params, k)
            assert "\n" not in str(info.value) and "cut points" in str(info.value)


def _bisection_root_in(root, target, steps=300):
    """Oracle: the former membership route, bisecting the enclosure until it
    lies inside `target` or misses it.  None when it has not settled: a
    rational root exactly at a target end settles only if a midpoint hits it."""
    ln, ld = target.lo.numerator, target.lo.denominator
    hn, hd = target.hi.numerator, target.hi.denominator

    def settled(a, b, den):
        inside = ln * den <= a * ld and b * hd <= hn * den
        return inside or b * ld <= ln * den or a * hd >= hn * den

    e = root.bisected(settled, steps=steps).enclosure
    if target.lo <= e.lo and e.hi <= target.hi:
        return True
    if e.hi <= target.lo or e.lo >= target.hi:
        return False
    return None


def _fraction_bisection_root_in(cs, enclosure, target, steps=400):
    """Oracle: whether the one root of the Fraction list cs inside
    `enclosure` (ends not roots, or a point) lies in `target`, by Fraction
    Horner signs and bisection of the enclosure."""

    def value(x):
        acc = Fraction(0)
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    lo, hi = enclosure.lo, enclosure.hi
    if any(lo < end < hi and value(end) == 0 for end in (target.lo, target.hi)):
        return True  # the root is that target end
    positive_lo = value(lo) > 0
    for _ in range(steps):
        if target.lo <= lo and hi <= target.hi:
            return True
        if lo == hi or hi <= target.lo or lo >= target.hi:
            return False
        mid = (lo + hi) / 2
        v = value(mid)
        if v == 0:
            lo = hi = mid
        elif (v > 0) == positive_lo:
            lo = mid
        else:
            hi = mid
    raise AssertionError(f"bisection of {enclosure} did not settle against {target}")


ROOT_IN_SEEDS = [(1, 1), (2, 1), (5, 2), (1, 2), (Fraction(7, 3), Fraction(1, 2))]
CLOSED_FORMS = {(1, 1): fibonacci_closed_roots, (2, 1): lucas_closed_roots}


def _root_in_cases():
    """(root, target, exact answer or None) over every root of rows 2..40."""
    for a, b in ROOT_IN_SEEDS:
        params = GibParams.of(a, b)
        r = params.ratio
        for k in range(2, 41):
            roots = roots_of(params, k).roots
            closed = CLOSED_FORMS[a, b](k) if (a, b) in CLOSED_FORMS else []
            for i, root in enumerate(roots):
                e = root.enclosure
                w = e.width or Fraction(1, 8)
                mid = (e.lo + e.hi) / 2
                targets = [
                    e,
                    Interval(e.lo + w / 3, e.hi + w / 3),  # shifted
                    Interval(e.lo - w / 3, e.hi - w / 3),
                    Interval(e.hi, e.hi + w),  # touching
                    Interval(e.lo - w, e.lo),
                    Interval(mid, mid),  # point
                ]
                # disjoint: other roots' enclosures, with 0, 1 or 2 roots between
                near = [j for j in range(i - 3, i + 4) if j != i and 0 <= j < len(roots)]
                targets += [roots[j].enclosure for j in near]
                targets += [closed[j] for j in (i - 2, i, i + 2) if 0 <= j < len(closed)]
                for target in targets:
                    yield root, target, None
                for c in (1, 2, 3, r, r + 1):
                    if e.lo <= c <= e.hi and root.defining.sign_at(c) == 0:
                        # the root is the rational c: c at a target end
                        yield root, Interval(c, c), True
                        yield root, Interval(c, c + w), True
                        yield root, Interval(c - w, c), True
                        yield root, Interval(c + w / 4, c + w), False


DECIMAL_SEEDS = [(1, 1), (2, 1), (5, 2), (Fraction(7, 3), Fraction(1, 2)), (3, 1)]


def mpmath_decimal(mpmath, root, start, digits):
    """Oracle: `digits` significant digits of the root, computed and rounded
    by mpmath.

    Newton's method, started from the string `start`, must converge inside
    the root's isolating enclosure; a wrong start only costs Newton steps.
    The working digits cover 3*digits plus the cancellation in the monomial
    sum at |x| <= 5.
    """
    coeffs = root.defining.coeffs
    cancel = len(str(int(sum(abs(c) for c in coeffs) * 5 ** len(coeffs))))
    with mpmath.workdps(3 * digits + cancel):
        cs = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(coeffs)]
        x = mpmath.mpf(start)
        for _ in range(8):
            y, dy = mpmath.polyval(cs, x, derivative=True)
            step = y / dy
            x -= step
            if abs(step) <= abs(x) * mpmath.mpf(10) ** (-2 * digits):
                break
        else:
            raise AssertionError(f"Newton did not settle from {start}")
        e = root.enclosure
        assert mpmath.mpf(e.lo.numerator) / e.lo.denominator <= x
        assert x <= mpmath.mpf(e.hi.numerator) / e.hi.denominator
        text = mpmath.nstr(x, digits)
    return text[:-2] if text.endswith(".0") else text


class TestRootDecimals:
    @pytest.mark.parametrize("alpha, beta", DECIMAL_SEEDS)
    def test_matches_mpmath(self, alpha, beta):
        mpmath = pytest.importorskip("mpmath")
        params = GibParams.of(alpha, beta)
        for k in range(2, 101):
            for root in roots_of(params, k).roots:
                got = root.decimal(30)
                assert got == mpmath_decimal(mpmath, root, got, 30), (alpha, beta, k)

    def test_unit_row_320_smallest_root(self):
        mpmath = pytest.importorskip("mpmath")
        root = roots_of(UNIT, 320).roots[0]
        got = root.decimal(30)
        assert got == "0.0000957825100955458938852465361761"
        assert got == mpmath_decimal(mpmath, root, got, 30)


class TestRootIn:
    def test_matches_bisection_route(self, monkeypatch):
        cases = list(_root_in_cases())
        with monkeypatch.context() as patch:
            # root_in decides by two signs: any refinement is an error
            patch.setattr(AlgebraicNumber, "bisected", None)
            got = [root_in(root, target) for root, target, _ in cases]
        rational_ends = point_roots = 0
        for (root, target, exact), verdict in zip(cases, got):
            want = _bisection_root_in(root, target)
            if want is None:
                # unsettled only with the root exactly at a target end
                assert 0 in (root.defining.sign_at(target.lo), root.defining.sign_at(target.hi))
                want = True
            if exact is not None:
                assert want == exact
                rational_ends += 1
            point_roots += root.is_rational and want
            assert verdict == want, (root, target)
        assert sum(got) > 2000 and len(got) - sum(got) > 10000
        assert rational_ends > 100 and point_roots > 10

    def test_random_polynomials_match_fraction_bisection(self):
        # square-free non-row polynomials: distinct rational linear factors
        # times the irreducible x^2 - m*s^2 (m square-free); the oracle keeps
        # its own Fraction coefficients and bisects by Fraction Horner
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12)
        verdicts = []

        @hypothesis.settings(max_examples=120, deadline=None, derandomize=True)
        @hypothesis.given(
            st.lists(rationals, unique=True, max_size=4),
            st.sampled_from([2, 3, 5, 6, 7]),
            st.fractions(min_value=Fraction(1, 4), max_value=2, max_denominator=6),
            st.lists(rationals, min_size=2, max_size=5),
        )
        def check(linear, m, s, ends):
            cs = [-m * s * s, Fraction(0), Fraction(1)]
            for r in linear:  # times (x - r), in Fractions
                cs = [a - r * b for a, b in zip([Fraction(0)] + cs, cs + [Fraction(0)])]
            p = Poly(cs)
            bound = 1 + max(map(abs, linear), default=0) + m * s * s
            roots = [AlgebraicNumber(p, iv) for iv in isolate_real_roots(p, Interval(-bound, bound))]
            assert len(roots) == len(linear) + 2
            points = sorted(set(ends) | set(linear))
            for root in roots:
                e, w = root.enclosure, root.enclosure.width
                targets = [Interval(u, v) for u, v in zip(points, points[1:])]
                mid = e.lo + w / 2
                targets += [Interval(e.lo + w / 3, e.hi + w / 3), Interval(e.hi, e.hi + w), Interval(mid, mid)]
                for target in targets:
                    want = _fraction_bisection_root_in(cs, e, target)
                    assert root_in(root, target) == want, (cs, e, target)
                    verdicts.append(want)

        check()
        assert verdicts.count(True) > 100 and verdicts.count(False) > 500


class TestSympyIsolation:
    def test_root_sets_match_sympy_intervals(self):
        # sympy isolates the real roots of the same rows by its own route;
        # each of our roots lies in its own sympy interval and in no other
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")

        def fraction(r):
            return Fraction(int(r.p), int(r.q))

        def inside(root, lo, hi):
            # a sympy interval is open unless it is one point, a rational
            # root, so a wider one may end at a neighbouring rational root
            if lo == hi:
                return root_in(root, Interval(lo, hi))
            ends = (root_in(root, Interval(e, e)) for e in (lo, hi))
            return root_in(root, Interval(lo, hi)) and not any(ends)

        for alpha, beta in [(1, 1), (Fraction(3, 2), 1), (Fraction(11, 4), 1), (Fraction(7, 3), Fraction(1, 2))]:
            params = GibParams.of(alpha, beta)
            for k in range(2, 41):
                coeffs = [sympy.Rational(c.numerator, c.denominator) for c in sign_alternating_poly(params, k).coeffs]
                found = sympy.Poly(coeffs[::-1], x, domain="QQ").intervals()
                assert len(found) == k // 2 and all(mult == 1 for _, mult in found)
                ends = sorted((fraction(lo), fraction(hi)) for (lo, hi), _ in found)
                roots = roots_of(params, k).roots
                assert len(roots) == len(ends)
                for i, root in enumerate(roots):
                    assert [inside(root, lo, hi) for lo, hi in ends] == [j == i for j in range(len(ends))], (params, k, i)


def _separate_all_pairs(a_roots, b_roots, max_rounds=512):
    """Oracle: refine every crossing pair of enclosures until none cross."""
    a, b = list(a_roots), list(b_roots)
    changed = True
    while changed:
        changed = False
        for i in range(len(a)):
            for j in range(len(b)):
                rounds = 0
                x, y = a[i].enclosure, b[j].enclosure
                while x.lo < y.hi and y.lo < x.hi:
                    a[i], b[j] = a[i].refined(), b[j].refined()
                    x, y = a[i].enclosure, b[j].enclosure
                    changed = True
                    rounds += 1
                    if rounds > max_rounds:
                        raise ExactError("enclosures refuse to separate; the two sets share a root")
    return a, b


def _merge_verdict(a, b) -> str:
    """Oracle: the former interlacing verdict, a tagged sort of the
    enclosures after all-pairs separation."""
    ra, rb = _separate_all_pairs(a.roots, b.roots)
    # separated enclosures order lexicographically by (lo, hi): a point [p, p]
    # precedes a proper interval (p, q] whose root is strictly interior
    merged = [((r.enclosure.lo, r.enclosure.hi), "a") for r in ra] + [
        ((r.enclosure.lo, r.enclosure.hi), "b") for r in rb
    ]
    pattern = "".join(tag for _, tag in sorted(merged))
    if len(rb) == len(ra) - 1 and pattern == "ab" * len(rb) + "a":
        return "both-sides"
    if len(rb) == len(ra) and pattern == "ba" * len(ra):
        return "right"
    return "none"


def _fresh(root):
    """The same number without a kept box (roots_of caches its roots)."""
    return AlgebraicNumber(root.defining, root.enclosure, root._below)


def _is_dyadic(x: Fraction) -> bool:
    return x.denominator & (x.denominator - 1) == 0


class TestIntegerDyadicCore:
    def test_sweep_matches_all_pairs_oracle(self):
        pairs = [
            (params, k, offset)
            for params in (UNIT, LUCAS)
            for k in range(2, 41)
            for offset in (1, 2)
        ]
        got = [check_interlacing(roots_of(p, k + d), roots_of(p, k)) for p, k, d in pairs]
        oracle = [_merge_verdict(roots_of(p, k + d), roots_of(p, k)) for p, k, d in pairs]
        assert got == oracle
        assert set(got) <= {"both-sides", "right"}

    def test_sweep_leaves_no_crossing_pair(self):
        a = [_fresh(r) for r in roots_of(WIDE, 21).roots]
        b = [_fresh(r) for r in roots_of(WIDE, 20).roots]
        assert len(a) == len(b)  # b_0 < a_0 < b_1 < ... < a_9
        order = [r for pair in zip(b, a) for r in pair]
        for x, y in zip(order, order[1:]):
            c = rational_between(x, y)
            assert sign_at_algebraic(Poly([-c, 1]), x) == -1  # x < c
            assert sign_at_algebraic(Poly([-c, 1]), y) == 1  # c < y
        kept = {}
        for r in order:
            lo, hi, den = r._kept
            box = kept[id(r)] = Interval(Fraction(lo, den), Fraction(hi, den))
            assert r.enclosure.lo <= box.lo and box.hi <= r.enclosure.hi
            if box.lo == box.hi:
                assert r.defining.sign_at(box.lo) == 0
            else:
                assert sturm_count(r.defining, box) == 1
        for x in a:
            for y in b:
                ex, ey = kept[id(x)], kept[id(y)]
                assert ex.hi <= ey.lo or ey.hi <= ex.lo

    def test_each_root_carries_the_sign_below_it(self):
        seeds = [UNIT, LUCAS, GibParams.of(Fraction(3, 2), 1), GibParams.of(Fraction(7, 3), Fraction(1, 2)), GibParams.of(3, 1)]

        def kept_ends_carry_the_sign(r):
            a, b, den = r._kept
            ends = _sign_at_point(r.defining.ints, a, den), _sign_at_point(r.defining.ints, b, den)
            return a == b or ends == (r._below, -r._below)

        for params in seeds:
            sets = {k: RootSet(k, params, tuple(map(_fresh, roots_of(params, k).roots))) for k in range(2, 41)}
            for k in range(2, 40):
                assert check_interlacing(sets[k + 1], sets[k]) in ("both-sides", "right")
            for root in (r for rs in sets.values() for r in rs.roots if not r.is_rational):
                p, e = root.defining, root.enclosure
                assert root._below == p.sign_at(e.lo) == -p.sign_at(e.hi) != 0
                assert root._kept is None or kept_ends_carry_the_sign(root)
                root.decimal(30)
                assert kept_ends_carry_the_sign(root)

    def test_rim_enclosures_strictly_inside_window(self):
        for params in (UNIT, LUCAS, WIDE):
            for k in range(2, 24):
                rs = roots_of(params, k)
                bound = bound_B(params).value
                assert rs.roots[0].enclosure.lo > 0 or rs.roots[0].is_rational
                assert rs.roots[-1].enclosure.hi < bound or rs.roots[-1].is_rational

    def test_cos_enclosure_dyadic_and_certified(self):
        mpmath = pytest.importorskip("mpmath")
        ts = [Fraction(j, k + 1) for k in range(2, 22) for j in range(1, k // 2 + 1)]
        ts += [Fraction(1, 2), Fraction(1, 3), Fraction(1, 1000), Fraction(499, 1000)]
        with mpmath.workdps(50):
            for bits in (16, 64, 128):
                for t in ts:
                    iv = cos_pi_enclosure(t, bits)
                    assert _is_dyadic(iv.lo) and _is_dyadic(iv.hi)
                    assert iv.width <= Fraction(1, 1 << bits)
                    exact = mpmath.cos(mpmath.mpf(t.numerator) / t.denominator * mpmath.pi)
                    lo = mpmath.mpf(iv.lo.numerator) / iv.lo.denominator
                    hi = mpmath.mpf(iv.hi.numerator) / iv.hi.denominator
                    assert lo <= exact <= hi

    def test_root_in_verdicts(self):
        root = largest_root(LUCAS, 4)  # 2 + sqrt2 = 3.41421356...
        inside = Interval(Fraction(341, 100), Fraction(342, 100))
        assert root_in(root, inside)
        assert not root_in(root, Interval(Fraction(342, 100), Fraction(4)))
        assert not root_in(root, Interval(Fraction(3), Fraction(341, 100)))
        three = AlgebraicNumber.from_rational(3)
        assert root_in(three, Interval(Fraction(3), Fraction(3)))
        assert not root_in(three, Interval(Fraction(31, 10), Fraction(4)))


def mpmath_root(mpmath, root):
    """Oracle: the root by mpmath's bracketing solver inside its enclosure,
    at the caller's working precision."""
    e = root.enclosure
    lo, hi = (mpmath.mpf(v.numerator) / v.denominator for v in (e.lo, e.hi))
    if e.lo == e.hi:
        return lo
    cs = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(root.defining.coeffs)]
    x = mpmath.findroot(lambda t: mpmath.polyval(cs, t), (lo, hi), solver="anderson")
    assert lo <= x <= hi
    return x


class TestRationalBetween:
    def test_order_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        seeds = [UNIT, GibParams.of(Fraction(3, 2), 1), GibParams.of(Fraction(11, 4), 1), GibParams.of(Fraction(7, 3), Fraction(1, 2))]
        rng = random.Random(20201229)
        ordered = shared = 0
        with mpmath.workdps(90):  # 50 digits above the cancellation at |x| <= 5
            for _ in range(150):
                (p, q), (j, k) = rng.sample(seeds, 2), rng.sample(range(2, 41), 2)
                x = _fresh(rng.choice(roots_of(p, j).roots))
                y = _fresh(rng.choice(roots_of(q, k).roots))
                mx, my = mpmath_root(mpmath, x), mpmath_root(mpmath, y)
                if mpmath.nstr(mx, 50) == mpmath.nstr(my, 50):
                    # a rational root of both rows, checked exactly: equal
                    # numbers never separate
                    r = Fraction(mpmath.nstr(mx, 50)).limit_denominator(1000)
                    assert root_in(x, Interval(r, r)) and root_in(y, Interval(r, r))
                    with pytest.raises(ExactError, match="share a root"):
                        rational_between(x, y)
                    shared += 1
                    continue
                c, back = rational_between(x, y), rational_between(y, x)
                if mx < my:
                    assert back is None and mx < mpmath.mpf(c.numerator) / c.denominator < my
                    ordered += 1
                else:
                    assert c is None and my < mpmath.mpf(back.numerator) / back.denominator < mx
        assert 30 < ordered < 120 and shared < 10


class TestVerifySeparation:
    def test_root_geometry_reports_unseparated_largest_roots(self, monkeypatch):
        def refuse(x, y):
            raise ExactError("enclosures refuse to separate; the two sets share a root")

        monkeypatch.setattr(verify_module, "rational_between", refuse)
        res = verify_module.check_root_geometry(4)
        assert not res.ok
        assert res.details[0] == (
            "seeds (1,1) k=3: largest roots: "
            "enclosures refuse to separate; the two sets share a root"
        )

    def test_gap_rational_refuses_a_shared_root(self, monkeypatch):
        # the same root set for rows j-1 and j: the largest roots coincide
        same = roots_of(UNIT, 6)
        monkeypatch.setattr(verify_module, "roots_of", lambda params, k: same)
        with pytest.raises(ExactError, match="rows 4 and 5 refuse to separate"):
            verify_module._gap_rational(UNIT, 5)

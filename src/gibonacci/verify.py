"""Desk-scale verification suites behind the `verify` CLI command.

Each check covers one acceptance-grade claim and returns a CheckResult; the
named suites bundle them per module.  Everything runs exact arithmetic; the
only tolerances are the enclosure widths that the closed-form root checks
use, and those are certified outward roundings, not float guesses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import zip_longest

from .exactnum import ExactError, Interval, Poly, RingElement, rational_between
from .game import (
    NODE1,
    NODE2,
    Classification,
    GameConfig,
    LinearForm,
    classify,
    play,
    play_symbolic,
    predicted_moves,
    terminal_numbers,
)
from .polys import (
    GibParams,
    _next_row,
    array_rows,
    binet_eval,
    eigen_pair,
    fibonacci_decomposition_holds,
    reciprocal_transform_holds,
    sign_alternating_poly,
    value_at_four,
)
from .posets import (
    _scan_lattice,
    build_poset,
    check_lattice,
    count_by_formula,
    count_by_inclusion_exclusion,
    is_connected,
    rank_generating_function,
    triangle_row,
    verify_identity_suite,
)
from .roots import (
    _cut_points,
    bound_B,
    check_interlacing,
    fibonacci_closed_roots,
    interval_sqrt,
    lucas_closed_roots,
    match_closed_forms,
    root_in,
    roots_of,
    sqrt_enclosure,
)

UNIT = GibParams.of(1, 1)
LUCAS = GibParams.of(2, 1)

ROOT_GEOMETRY_SEEDS = [(1, 1), (2, 1), (5, 2), (3, 1), (7, 2)]

FIB_ROWS = [
    [1], [1], [1, 1], [1, 2], [1, 3, 1], [1, 4, 3],
    [1, 5, 6, 1], [1, 6, 10, 4], [1, 7, 15, 10, 1], [1, 8, 21, 20, 5],
]
LUCAS_ROWS = [
    [2], [1], [1, 2], [1, 3], [1, 4, 2], [1, 5, 5],
    [1, 6, 9, 2], [1, 7, 14, 7], [1, 8, 20, 16, 2], [1, 9, 27, 30, 9],
]
LUCAS_ROW_SEVEN_POLY = Poly([-7, 14, -7, 1])
UNIT_ROW_FIFTEEN_POLY = Poly([-8, 84, -252, 330, -220, 78, -14, 1])
FIGURE_RGF = Poly([1, 3, 6, 6, 8, 8, 6, 6, 3, 1])
TRIANGLE_34_ROWS = {
    0: [3],
    1: [1, 1, 1, 1],
    2: [1, 2, 3, 1, 3, 2, 1],
    3: [1, 3, 6, 6, 8, 8, 6, 6, 3, 1],
}


@dataclass
class CheckResult:
    name: str
    ok: bool = True
    details: list = field(default_factory=list)

    def fail(self, message: str):
        self.ok = False
        if len(self.details) < 12:
            self.details.append(message)

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{status}  {self.name}"


def check_array_fixtures() -> CheckResult:
    """Rows 0-9 of the two integer triangles, and the entry rule
    e(k, j) = e(k-1, j) + e(k-2, j-1) on rows 2-60 for five rational seed
    pairs (the three-term recurrence read coefficient by coefficient)."""
    res = CheckResult("array-fixtures")
    for params, rows in ((UNIT, FIB_ROWS), (LUCAS, LUCAS_ROWS)):
        for k, (row, expected) in enumerate(zip(array_rows(params, len(rows)), rows)):
            if row != expected:
                res.fail(f"row {k} of seeds {params} is {row}, wanted {expected}")
    pairs = [(1, 1), (2, 1), (5, 2), (Fraction(7, 3), Fraction(1, 2)), (3, 4)]
    for a, b in pairs:
        rows = list(array_rows(GibParams.of(a, b), 61))
        for k in range(2, 61):
            rule = [x + y for x, y in zip_longest(rows[k - 1], [0] + rows[k - 2], fillvalue=0)]
            if rows[k] != rule:
                res.fail(f"entry rule fails at seeds ({a},{b}), row {k}")
    return res


def check_polynomial_fixtures() -> CheckResult:
    """The two printed row polynomials, exact coefficient equality."""
    res = CheckResult("polynomial-fixtures")
    if sign_alternating_poly(LUCAS, 7) != LUCAS_ROW_SEVEN_POLY:
        res.fail("row 7 of seeds (2,1) mismatch")
    if sign_alternating_poly(UNIT, 15) != UNIT_ROW_FIFTEEN_POLY:
        res.fail("row 15 of seeds (1,1) mismatch")
    return res


def check_root_geometry(k_max: int) -> CheckResult:
    """Root count, bound membership, interlacing both offsets, and strictly
    increasing largest roots for the five seed pairs."""
    res = CheckResult("root-geometry")
    for a, b in ROOT_GEOMETRY_SEEDS:
        params = GibParams.of(a, b)
        bound = bound_B(params).value
        sets = {k: roots_of(params, k) for k in range(2, k_max + 3)}
        for k in range(2, k_max + 1):
            rs = sets[k]
            if rs.count != k // 2:
                res.fail(f"seeds ({a},{b}) k={k}: {rs.count} roots, wanted {k // 2}")
            for r in rs.roots:
                if not (0 <= r.enclosure.lo and r.enclosure.hi <= bound):
                    res.fail(f"seeds ({a},{b}) k={k}: enclosure escapes (0, {bound})")
            if check_interlacing(sets[k + 1], rs) not in ("both-sides", "right"):
                res.fail(f"seeds ({a},{b}) k={k}: offset-1 interlacing fails")
            if check_interlacing(sets[k + 2], rs) != "both-sides":
                res.fail(f"seeds ({a},{b}) k={k}: offset-2 interlacing fails")
        for k in range(3, k_max + 1):
            try:
                between = rational_between(sets[k - 1].roots[-1], sets[k].roots[-1])
            except ExactError as exc:
                res.fail(f"seeds ({a},{b}) k={k}: largest roots: {exc}")
                continue
            if between is None:
                res.fail(f"seeds ({a},{b}) k={k}: largest roots not increasing")
    return res


def check_closed_form_roots(k_max: int, bits: int) -> CheckResult:
    """Certified trig enclosures land in exactly one isolating interval each,
    and the row-15 roots are the seven nested radicals."""
    res = CheckResult("closed-form-roots")
    for k in range(2, k_max + 1):
        if not match_closed_forms(roots_of(UNIT, k), fibonacci_closed_roots(k, bits)):
            res.fail(f"unit seeds k={k}: cosine forms do not match isolation")
        if not match_closed_forms(roots_of(LUCAS, k), lucas_closed_roots(k, bits)):
            res.fail(f"(2,1) seeds k={k}: cosine forms do not match isolation")
    s2 = sqrt_enclosure(2, bits + 2)
    up = interval_sqrt(Interval(2 + s2.lo, 2 + s2.hi), bits + 2)
    dn = interval_sqrt(Interval(2 - s2.hi, 2 - s2.lo), bits + 2)
    pad = Fraction(1, 2 ** (bits - 8))
    nested = [
        Interval(2 - up.hi - pad, 2 - up.lo + pad),
        Interval(2 - s2.hi - pad, 2 - s2.lo + pad),
        Interval(2 - dn.hi - pad, 2 - dn.lo + pad),
        Interval(2 - pad, 2 + pad),
        Interval(2 + dn.lo - pad, 2 + dn.hi + pad),
        Interval(2 + s2.lo - pad, 2 + s2.hi + pad),
        Interval(2 + up.lo - pad, 2 + up.hi + pad),
    ]
    rs = roots_of(UNIT, 15)
    if rs.count != 7:
        res.fail("row 15 does not have seven roots")
    else:
        for i, (root, iv) in enumerate(zip(rs.roots, nested)):
            if not root_in(root, iv):
                res.fail(f"row-15 root {i} is not the expected nested radical")
    return res


def check_root_brackets(k_max: int, bits: int) -> CheckResult:
    """Each root of row k lies in its bracket, from a root of the unit row
    F_{k-1} to the next root of F_{k-2} (from 0 for the first root of an
    even row, up to B for the last), for the five seed pairs and k <= k_max.
    The brackets are the certified trig enclosures of those unit roots,
    rounded outward, and membership is `root_in`'s two exact signs.  The
    cut points lie between consecutive brackets, and their certificate
    holds on values: P_k has degree floor(k/2) and its values at 0, the
    cuts and B strictly alternate in sign."""
    res = CheckResult("root-brackets")
    brackets = {}  # k -> (lower ends, upper ends below B, cut points); seed-free
    for k in range(2, k_max + 1):
        m = k // 2
        lows = fibonacci_closed_roots(k - 1, bits) if k >= 3 else []
        highs = fibonacci_closed_roots(k - 2, bits) if k >= 4 else []
        lows = [Fraction(0)] * (m - len(lows)) + [iv.lo for iv in lows]
        highs = [iv.hi for iv in highs]
        cuts = _cut_points(k)
        if len(cuts) != m - 1 or not all(h < c < l for h, c, l in zip(highs, cuts, lows[1:])):
            res.fail(f"k={k}: the cut points do not lie between the brackets")
        brackets[k] = lows, highs, cuts
    # the last seeds first: their root sets are the ones check_root_geometry
    # leaves in the roots_of cache
    for a, b in reversed(ROOT_GEOMETRY_SEEDS):
        params = GibParams.of(a, b)
        bound = bound_B(params).value
        for k, (lows, highs, cuts) in brackets.items():
            p = sign_alternating_poly(params, k)
            values = [p(x) for x in (Fraction(0), *cuts, bound)]
            if p.degree != k // 2 or not all(u * v < 0 for u, v in zip(values, values[1:])):
                res.fail(f"seeds ({a},{b}) k={k}: the cut-point certificate fails")
            for i, (root, lo, hi) in enumerate(zip(roots_of(params, k).roots, lows, [*highs, bound])):
                if not root_in(root, Interval(lo, hi)):
                    res.fail(f"seeds ({a},{b}) k={k}: root {i} lies outside its bracket")
    return res


def check_binet_agreement(samples: int, seed: int = 20201229) -> CheckResult:
    """Eigenvalue closed form vs the recurrence: exact agreement on random
    inputs, at square discriminants and at the repeated eigenvalue (x = 0, 4),
    plus the two eigenvalue identities."""
    res = CheckResult("binet-agreement")
    rng = random.Random(seed)
    done = 0
    while done < samples:
        a = Fraction(rng.randint(1, 12), rng.randint(1, 5))
        b = Fraction(rng.randint(1, 12), rng.randint(1, 5))
        k = rng.randint(0, 30)
        x = Fraction(rng.randint(-60, 60), rng.randint(1, 9))
        params = GibParams.of(a, b)
        if binet_eval(params, k, x) != sign_alternating_poly(params, k)(x):
            res.fail(f"binet disagrees at seeds ({a},{b}), k={k}, x={x}")
        done += 1
    # x = 4t^2/(t^2-1) makes x^2-4x a rational square
    for t in (Fraction(2), Fraction(3), Fraction(5, 2), Fraction(7, 3)):
        x = 4 * t * t / (t * t - 1)
        for k in (4, 7, 12):
            if binet_eval(LUCAS, k, x) != sign_alternating_poly(LUCAS, k)(x):
                res.fail(f"square discriminant disagrees at x={x}, k={k}")
    for x in (0, 4):
        for k in range(12):
            if binet_eval(LUCAS, k, x) != sign_alternating_poly(LUCAS, k)(x):
                res.fail(f"repeated eigenvalue disagrees at x={x}, k={k}")
    for x in (Fraction(5), Fraction(-2), Fraction(9, 4), Fraction(1, 3)):
        lam, kap = eigen_pair(x)
        if not (lam * kap - 1).is_zero:
            res.fail(f"eigenvalue product at x={x} is not 1")
        if not (lam + kap - (x - 2)).is_zero:
            res.fail(f"eigenvalue sum at x={x} is not x-2")
    return res


EXPECTED_SIX_MOVE_G1 = [
    ((-5, Fraction(-24, 7)), (7, 5)),
    ((3, Fraction(16, 7)), (-7, -5)),
    ((-3, Fraction(-16, 7)), (Fraction(7, 2), 3)),
    ((1, Fraction(8, 7)), (Fraction(-7, 2), -3)),
    ((-1, Fraction(-8, 7)), (0, 1)),
    ((-1, 0), (0, -1)),
]
EXPECTED_SIX_MOVE_G2 = [
    ((5, Fraction(16, 7)), (Fraction(-21, 2), -5)),
    ((-5, Fraction(-16, 7)), (7, 3)),
    ((3, Fraction(8, 7)), (-7, -3)),
    ((-3, Fraction(-8, 7)), (Fraction(7, 2), 1)),
    ((1, 0), (Fraction(-7, 2), -1)),
    ((-1, 0), (0, -1)),
]


def _form_matches(value, expected_pair) -> bool:
    ca, cb = expected_pair
    return isinstance(value, LinearForm) and value.ca == Fraction(ca) and value.cb == Fraction(cb)


def check_six_move_reproduction() -> CheckResult:
    """The worked (5,2,7/2,8/7) game: both openings, every displayed pair,
    six moves symbolically, five moves from the boundary pairs."""
    res = CheckResult("six-move-game")
    cfg = GameConfig.rational(GibParams.of(5, 2), Fraction(7, 2), Fraction(8, 7))
    for first, expected in ((NODE1, EXPECTED_SIX_MOVE_G1), (NODE2, EXPECTED_SIX_MOVE_G2)):
        trace = play_symbolic(first, cfg)
        if trace.outcome != "terminated" or trace.moves != 6:
            res.fail(f"{first}-first symbolic game did not end in six moves")
            continue
        for m, (firing, (eu, ev)) in enumerate(zip(trace.firings, expected), start=1):
            if not (_form_matches(firing.u, eu) and _form_matches(firing.v, ev)):
                res.fail(f"{first}-first symbolic step {m} mismatches the worked game")
    for a, b, first, want in [(1, 0, NODE1, 5), (0, 1, NODE2, 5), (1, 1, NODE1, 6), (1, 1, NODE2, 6)]:
        trace = play(a, b, first, cfg)
        if trace.outcome != "terminated" or trace.moves != want:
            res.fail(f"start ({a},{b}) {first}-first took {trace.moves} moves, wanted {want}")
    if play(3, 7, NODE1, cfg).final != (Fraction(-3), Fraction(-7)):
        res.fail("terminal pair is not (-a, -b)")
    return res


def _gap_rational(params: GibParams, j: int) -> Fraction:
    """A rational strictly between the largest roots of rows j-1 and j."""
    if j == 2:
        return params.ratio / 2
    low, high = roots_of(params, j - 1).roots[-1], roots_of(params, j).roots[-1]
    try:
        between = rational_between(low, high)
    except ExactError:
        between = None
    if between is None:
        raise ExactError(f"largest roots of rows {j - 1} and {j} refuse to separate")
    return between


def _threshold(config: GameConfig, j: int, first: str) -> Fraction:
    """Move-count threshold on b/a (g1 first) or a/b (g2 first)."""
    gh = config.g_hat(j)
    gj, gj1 = gh[j + 1], gh[j]
    p, q = Fraction(config.p), config.q
    if first == NODE1:
        return (-gj) / (q * gj1) if j % 2 == 0 else (-gj * p) / gj1
    return (-gj) / (p * gj1) if j % 2 == 0 else (-gj * q) / gj1


def check_classification_suite(j_max: int, k_max: int) -> CheckResult:
    """Divergence certificates, both-move-count realization in every gap, and
    exact strong convergence at the largest roots."""
    res = CheckResult("classification-and-termination")
    # (i) certified divergence
    diverging = [
        GameConfig.rational(UNIT, 2, 2),
        GameConfig.rational(UNIT, 1, 5),
        GameConfig.rational(GibParams.of(5, 2), Fraction(25, 6), 1),
        GameConfig.rational(GibParams.of(3, 1), 3, Fraction(3, 2)),
    ]
    for cfg in diverging:
        cls = classify(cfg)
        if cls.regime != "all-diverge" or not cls.strongly_convergent:
            res.fail(f"config pq={cfg.pq} should diverge")
        trace = play(1, 1, NODE1, cfg, budget=24)
        if trace.outcome != "diverges-certified":
            res.fail(f"config pq={cfg.pq}: no divergence certificate")
    # (ii) both counts realized strictly inside each gap
    for a, b in [(1, 1), (2, 1), (5, 2)]:
        params = GibParams.of(a, b)
        for j in range(2, j_max + 1):
            pq = _gap_rational(params, j)
            cfg = GameConfig.rational(params, 1, pq)
            cls = classify(cfg)
            if cls.regime != "all-terminate" or cls.strongly_convergent:
                res.fail(f"seeds ({a},{b}) gap {j}: classification wrong")
            realized = set()
            for first in (NODE1, NODE2):
                thr = _threshold(cfg, j, first)
                num, den = thr.numerator, thr.denominator
                pairs = [(den, num), (den, num + 1)] if first == NODE1 else [(num, den), (num + 1, den)]
                pairs += [(1, 0)] if first == NODE1 else [(0, 1)]
                for pa, pb in pairs:
                    if (first == NODE1 and pa == 0) or (first == NODE2 and pb == 0):
                        continue
                    want = predicted_moves(cfg, pa, pb, first)
                    trace = play(pa, pb, first, cfg, budget=j + 4)
                    if trace.outcome != "terminated" or trace.moves != want:
                        res.fail(
                            f"seeds ({a},{b}) gap {j} start ({pa},{pb}) {first}: "
                            f"played {trace.moves}, predicted {want}"
                        )
                    realized.add(want)
            if realized != {j, j + 1}:
                res.fail(f"seeds ({a},{b}) gap {j}: realized counts {sorted(realized)}")
    # (iii) exact play at the largest roots
    for a, b in [(1, 1), (2, 1), (5, 2)]:
        params = GibParams.of(a, b)
        for k in range(2, k_max + 1):
            cfg = GameConfig.at_largest_root(params, k)
            cls = classify(cfg)
            if cls != Classification("all-terminate", True, k):
                res.fail(f"seeds ({a},{b}) root {k}: classification {cls}")
            expect = terminal_numbers(cfg, 2, 3)
            for first in (NODE1, NODE2):
                for strategy in ("alternate", "greedy-g1", "greedy-g2"):
                    trace = play(2, 3, first, cfg, strategy=strategy, budget=k + 4)
                    if trace.outcome != "terminated" or trace.moves != k + 1:
                        res.fail(f"seeds ({a},{b}) root {k} {first}/{strategy}: move count")
                        continue
                    if not (_is_zero(trace.final[0] - expect[0]) and _is_zero(trace.final[1] - expect[1])):
                        res.fail(f"seeds ({a},{b}) root {k} {first}/{strategy}: terminal pair")
            if play(1, 0, NODE1, cfg, budget=k + 4).moves != k:
                res.fail(f"seeds ({a},{b}) root {k}: boundary pair (1,0) move count")
            if play(0, 1, NODE2, cfg, budget=k + 4).moves != k:
                res.fail(f"seeds ({a},{b}) root {k}: boundary pair (0,1) move count")
            gh = cfg.g_hat(k + 1)
            if not _is_zero(gh[k + 2] + gh[k]):
                res.fail(f"seeds ({a},{b}) root {k}: twin identity fails")
    return res


def _is_zero(value) -> bool:
    return value.is_zero if isinstance(value, RingElement) else value == 0


def check_poset_counts(n_max: int, k_grid: int) -> CheckResult:
    """The 48-element figure poset with its printed rank polynomial, the two
    named n=3 cardinality sequences, and three-way count agreement.  Each
    built poset's rank counts (from its enumeration's rank runs) and its
    connectivity (from digit walks) are also checked against an unmarked
    copy, which counts its ranks and tests its code set."""
    res = CheckResult("poset-counts")
    poset = build_poset(4, 3, 3)
    if poset.size != 48:
        res.fail(f"figure poset has {poset.size} elements")
    if rank_generating_function(poset) != FIGURE_RGF:
        res.fail("figure rank generating function mismatch")
    fib_sizes = [count_by_formula(3, k, 1) for k in range(6)]
    lucas_sizes = [count_by_formula(3, k, 2) for k in range(6)]
    if fib_sizes != [1, 3, 8, 21, 55, 144]:
        res.fail(f"unit-seed n=3 sizes {fib_sizes}")
    if lucas_sizes != [2, 3, 7, 18, 47, 123]:
        res.fail(f"(2,1)-seed n=3 sizes {lucas_sizes}")
    for n in range(2, n_max + 1):
        for alpha in range(1, n):
            for k in range(0, k_grid + 1):
                built, where = build_poset(n, k, alpha), f"(n={n}, k={k}, alpha={alpha})"
                size = built.size
                if size != count_by_formula(n, k, alpha):
                    res.fail(f"formula disagrees at {where}")
                if size != count_by_inclusion_exclusion(n, k, alpha):
                    res.fail(f"inclusion-exclusion disagrees at {where}")
                copy = replace(built)
                if rank_generating_function(built) != rank_generating_function(copy):
                    res.fail(f"rank counts disagree with the ranks at {where}")
                if k >= 1:
                    connected = is_connected(built)
                    if connected != is_connected(copy):
                        res.fail(f"connectivity disagrees with the code set at {where}")
                    if not connected:
                        res.fail(f"poset {where} is disconnected")
    return res


def check_identity_suite(n_max: int, k_max: int) -> CheckResult:
    """Rank-polynomial identities, triangle fixtures, palindromic rows,
    positivity boundary, and the lattice dichotomy."""
    res = CheckResult("identity-suite")
    for n in range(2, n_max + 1):
        for alpha in range(1, n):
            report = verify_identity_suite(alpha, n, k_max)
            for name, k in report.failures:
                res.fail(f"identity {name} fails at (alpha={alpha}, n={n}, k={k})")
    for k, expected in TRIANGLE_34_ROWS.items():
        if triangle_row(3, 4, k) != expected:
            res.fail(f"triangle (3;4) row {k} mismatch")
    for alpha, n in [(1, 3), (2, 3), (3, 4), (4, 5)]:
        for k in range(8):
            row = triangle_row(alpha, n, k)
            if row != row[::-1]:
                res.fail(f"triangle ({alpha};{n}) row {k} not palindromic")
            if any(v <= 0 for v in row):
                res.fail(f"triangle ({alpha};{n}) row {k} not positive")
    for alpha, n in [(3, 3), (5, 3), (4, 4)]:
        if triangle_row(alpha, n, 2)[(len(triangle_row(alpha, n, 2)) - 1) // 2] > 0:
            res.fail(f"triangle ({alpha};{n}) row 2 center should be nonpositive")
    for n, alpha, k in [(4, 3, 2), (5, 3, 2), (5, 4, 2), (4, 3, 3)]:
        report = check_lattice(build_poset(n, k, alpha))
        if report.distributive or report.maximal_count < 2:
            res.fail(f"(n={n}, k={k}, alpha={alpha}) should not be closed under meets/joins")
    for n, alpha, k in [(4, 1, 3), (4, 2, 3), (3, 1, 5), (3, 2, 5), (5, 2, 3)]:
        report = check_lattice(build_poset(n, k, alpha))
        if not report.distributive or report.maximal_count != 1 or report.minimal_count != 1:
            res.fail(f"(n={n}, k={k}, alpha={alpha}) should be a distributive lattice")
    return res


def check_lattice_relations(n_max: int, k_max: int, size_max: int) -> CheckResult:
    """The lattice verdict from the digit relations, witness and extreme
    counts included, against the full pairwise scan for n <= n_max,
    k = 2..k_max, alpha < n and at most size_max elements."""
    res = CheckResult("lattice-relations")
    for n in range(2, n_max + 1):
        for alpha in range(1, n):
            for k in range(2, k_max + 1):
                if count_by_formula(n, k, alpha) > size_max:
                    continue
                poset = build_poset(n, k, alpha)
                if check_lattice(poset) != _scan_lattice(poset):
                    res.fail(f"(n={n}, k={k}, alpha={alpha}): verdict differs from the pairwise scan")
    return res


def check_value_at_four(m_max: int) -> CheckResult:
    """The two x=4 evaluation identities for five rational seed ratios."""
    res = CheckResult("value-at-four")
    ratios = [Fraction(1), Fraction(2), Fraction(5, 2), Fraction(7, 3), Fraction(1, 4)]
    for ratio in ratios:
        params = GibParams(ratio, Fraction(1))
        for k in range(0, 2 * m_max + 2):
            direct = sign_alternating_poly(params, k)(4)
            if value_at_four(params, k) != direct:
                res.fail(f"x=4 identity fails at ratio {ratio}, k={k}")
    return res


def check_recurrence_identities(k_max: int) -> CheckResult:
    """Row recurrence, unit-family decomposition and the reciprocal
    companion transform.

    The closed-form rows are checked against the three-term recurrence
    P_k = x^((k-1) mod 2) P_{k-1} - P_{k-2}, and the transform
    x^(k//2) V_{k-1}(-1/x) = P_k, as exact polynomial identities; the
    latter makes the companion roots exactly the images -1/zeta of the row
    roots.
    """
    res = CheckResult("recurrence-identities")
    x = Poly([0, 1])
    for a, b in [(2, 1), (5, 2), (Fraction(7, 3), Fraction(1, 2))]:
        params = GibParams.of(a, b)
        for k in range(2, k_max + 1):
            rows = [sign_alternating_poly(params, j) for j in (k, k - 1, k - 2)]
            if rows[0] != _next_row(x, k, rows[1], rows[2]):
                res.fail(f"row recurrence fails at seeds ({a},{b}), k={k}")
            if not fibonacci_decomposition_holds(params, k):
                res.fail(f"unit decomposition fails at seeds ({a},{b}), k={k}")
    for ratio in (Fraction(1), Fraction(2), Fraction(5, 2), Fraction(7, 2)):
        for k in range(2, k_max + 1):
            if not reciprocal_transform_holds(ratio, k):
                res.fail(f"companion transform fails at ratio {ratio}, k={k}")
    return res


# suite -> ((check, grid), ...).  tests/test_acceptance.py runs the same
# checks on the same grids.
SUITES = {
    "arrays": ((check_array_fixtures, {}),),
    "polys": (
        (check_polynomial_fixtures, {}),
        (check_binet_agreement, {"samples": 200}),
        (check_value_at_four, {"m_max": 50}),
        (check_recurrence_identities, {"k_max": 30}),
    ),
    "roots": (
        (check_root_geometry, {"k_max": 40}),
        (check_closed_form_roots, {"k_max": 24, "bits": 128}),
        (check_root_brackets, {"k_max": 40, "bits": 128}),
    ),
    "game": (
        (check_six_move_reproduction, {}),
        (check_classification_suite, {"j_max": 8, "k_max": 10}),
    ),
    "posets": (
        (check_poset_counts, {"n_max": 5, "k_grid": 6}),
        (check_identity_suite, {"n_max": 5, "k_max": 6}),
        (check_lattice_relations, {"n_max": 5, "k_max": 5, "size_max": 800}),
    ),
}


def run_suite(name: str):
    """Run one named suite (or 'all'); returns (all_ok, [CheckResult])."""
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)} or all")
    results = [check(**grid) for suite in names for check, grid in SUITES[suite]]
    return all(r.ok for r in results), results

"""String validation, poset structure, counts, and the identity suite."""

import dataclasses
import random
import time
from bisect import bisect_left
from collections import Counter
from fractions import Fraction

import pytest

from gibonacci.exactnum import ExactError, Poly
from gibonacci.polys import GibParams, binet_eval, eigen_pair
from gibonacci import posets
from gibonacci import verify as verify_module
from gibonacci.posets import (
    TRIANGLE_ENTRY_BUDGET,
    LatticeReport,
    SGPoset,
    _joins,
    _triangle_rows,
    _width,
    build_poset,
    check_lattice,
    count_by_formula,
    count_by_inclusion_exclusion,
    is_connected,
    is_palindromic,
    poset_to_dot,
    poset_to_json,
    q_integer,
    rank_generating_function,
    triangle_polynomial,
    triangle_row,
    triangle_row_csv,
    validate_string,
    verify_identity_suite,
)

FIGURE_RGF = Poly([1, 3, 6, 6, 8, 8, 6, 6, 3, 1])


# ---------------------------------------------------------------------------
# tuple oracles: the string enumeration, Hasse edges, connectivity and
# lattice check as they were written on tuples before the digit codes
# ---------------------------------------------------------------------------


def tuple_strings(n, k, alpha):
    """Backtracking enumeration in lexicographic order of (T_1, ..., T_k)."""
    forbidden = {(i, n * k - (i - 1)) for i in range(1, alpha)} if k >= 2 else set()
    out = []

    def extend(prefix):
        j = len(prefix) + 1
        if j > k:
            if k >= 2 and (prefix[0], prefix[-1]) in forbidden:
                return
            out.append(prefix)
            return
        for t in range((j - 1) * n + 1, j * n + 1):
            if prefix and t == prefix[-1] + 1:
                continue
            extend(prefix + (t,))

    extend(())
    return out


def rank_of(entries, n, k):
    """Oracle: the rank of a string is k(k+1)n/2 minus its coordinate sum."""
    return k * (k + 1) * n // 2 - sum(entries)


def unit_family_expansion_printed_variant(alpha, n, k):
    """Oracle: [n]*H1_{k-1} - ([n]-[n-alpha])*H1_{k-2}, the textbook-looking
    expansion of the rank generating function over the unit family.

    Both corrections sum the same number of terms, so this variant agrees
    with the package's alpha*q^(n-1) correction at q = 1 (cardinalities) and
    coincides with it for alpha = 1, but for alpha >= 2 it disagrees with
    the enumerated rank generating function; it is kept so the discrepancy
    stays visible.
    """
    h1_prev = rank_generating_function(build_poset(n, k - 1, 1))
    h1_prev2 = rank_generating_function(build_poset(n, k - 2, 1))
    return q_integer(n) * h1_prev - (q_integer(n) - q_integer(n - alpha)) * h1_prev2


# ---------------------------------------------------------------------------
# triangle and closed-form oracles: rows as dicts keyed by row index, and the
# poset sizes by their own eigenvalue numerator, as written before the rows
# became positional tuples and the sizes came from polys.binet_eval
# ---------------------------------------------------------------------------


def dict_triangle_rows(alpha, n, k_max):
    """Rows 0..k_max of the (alpha; n) triangle as dicts row index -> entry."""
    rows = [{0: alpha}, {r: 1 for r in range(-(n - 1), n, 2)}]
    for l in range(2, k_max + 1):
        span = l * (n - 1)
        prev, prev2 = rows[-1], rows[-2]
        row = {}
        for r in range(-span, span + 1, 2):
            total = 0
            for s in range(-(n - 1), n, 2):
                total += prev.get(r + s, 0)
            row[r] = total - prev2.get(r, 0)
        rows.append(row)
    return rows[: k_max + 1]


def dict_row_polynomial(row, n, k):
    """The dict row read as a polynomial: index r is the power (k(n-1) - r)/2."""
    span = k * (n - 1)
    coeffs = [0] * (span + 1)
    for r, value in row.items():
        coeffs[(span - r) // 2] = value
    return Poly(coeffs)


def dict_row_csv(row):
    return "\n".join(["r,entry"] + [f"{r},{row[r]}" for r in sorted(row)])


def closed_form_value(alpha, n, k):
    """s_k through the roots of x^2 - nx + 1 in Q[t]/(t^2 - (n^2 - 4)).

    Those roots are the step eigenvalues at n + 2; the numerator is odd in
    t and r2 - r1 = t, so the value is the numerator's t coefficient.
    """
    r2, r1 = eigen_pair(n + 2)
    num = r2**k * (n - alpha * r1) - r1**k * (n - alpha * r2)
    const, out = (num.poly.coeffs + (Fraction(0), Fraction(0)))[:2]
    assert const == 0 and out.denominator == 1
    return int(out)


def tuple_poset(n, k, alpha):
    """(elements, ranks, hasse_edges) with edges found by bumping each coordinate."""
    if k == 0:
        return [()] * alpha, [0] * alpha, []
    elements = tuple_strings(n, k, alpha)
    return elements, [rank_of(t, n, k) for t in elements], tuple_edges(elements)


def tuple_edges(elements):
    """(i, j) for every t_j that is t_i with one coordinate bumped by one."""
    index = {t: i for i, t in enumerate(elements)}
    edges = []
    for i, t in enumerate(elements):
        for pos in range(len(t)):
            j = index.get(t[:pos] + (t[pos] + 1,) + t[pos + 1 :])
            if j is not None:
                edges.append((i, j))
    return edges


def dfs_connected(size, edges):
    if size <= 1:
        return True
    adj = [[] for _ in range(size)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == size


def tuple_lattice(elements, edges, k, alpha):
    maximal = len(elements) - len({j for _, j in edges})
    minimal = len(elements) - len({i for i, _ in edges})
    if k == 0:
        return LatticeReport(alpha == 1, len(elements), len(elements))
    members = set(elements)
    for i, ti in enumerate(elements):
        for tj in elements[i + 1 :]:
            if tuple(map(min, ti, tj)) not in members or tuple(map(max, ti, tj)) not in members:
                return LatticeReport(False, maximal, minimal, (ti, tj))
    return LatticeReport(True, maximal, minimal)


def failing_pair(pair, n, k, alpha):
    """Whether `validate_string` finds both strings of the pair in the poset
    (n, k, alpha) and their meet or their join outside it."""
    s, t = pair
    ends = (tuple(map(min, s, t)), tuple(map(max, s, t)))
    member = [bool(validate_string(x, n, k, alpha)) for x in (s, t, *ends)]
    return member[0] and member[1] and not (member[2] and member[3])


def assert_lattice_report(report, oracle, n, k, alpha):
    """`check_lattice`'s report on the built poset against an oracle's: the
    same verdict and extreme counts, and a witness exactly where the oracle
    names one, which need not be the oracle's pair but must fail."""
    where = (n, k, alpha)
    assert dataclasses.replace(report, witness=None) == dataclasses.replace(oracle, witness=None), where
    if oracle.witness is None:
        assert report.witness is None, where
    else:
        assert failing_pair(report.witness, n, k, alpha), (where, report.witness)


def scan_oracle(poset):
    """The full pairwise scan of an unmarked copy, which scans its extremes
    from the codes too."""
    return posets._scan_lattice(dataclasses.replace(poset))


def post_filter_enumerate(n, k, alpha):
    """(codes, ranks) as `posets._enumerate` made them before the end pairs
    moved into the last level: every no-successor string, then a filter over
    the codes with d_1 <= alpha - 2."""
    f, top = _width(n), n - 1
    ones = (1 << f) - 1
    codes, ranks = list(range(n)), list(range(top, -1, -1))
    for _ in range(k - 1):
        next_codes, next_ranks = [], []
        for c, r in zip(codes, ranks):
            lo = 1 if c & ones == top else 0
            next_codes.extend(range((c << f) + lo, (c << f) + n))
            next_ranks.extend(range(r + top - lo, r - 1, -1))
        codes, ranks = next_codes, next_ranks
    lead = f * (k - 1)
    cut = bisect_left(codes, (alpha - 1) << lead) if k >= 2 else 0
    keep = [i for i in range(cut) if (codes[i] >> lead) + (codes[i] & ones) != top]
    codes[:cut] = [codes[i] for i in keep]
    ranks[:cut] = [ranks[i] for i in keep]
    return codes, ranks


def random_seed_grid(count, size_max, rng):
    """`count` distinct (n, k, alpha) with n <= 40, 1 <= k <= 7, 1 <= alpha < n
    and at most size_max elements."""
    grid = set()
    while len(grid) < count:
        n = rng.randint(2, 40)
        k, alpha = rng.randint(1, 7), rng.randint(1, n - 1)
        if count_by_formula(n, k, alpha) <= size_max:
            grid.add((n, k, alpha))
    return sorted(grid)


def rule_test(poset):
    """Membership of a code in the built poset by `posets._rule_member` on
    all of its digits, as connectivity tested each greedy step before the
    paths were walked on digit lists.  A raised digit n-1 reads n, and a
    lowered digit 0 reads 2^f - 1 (a lowered d_1 = 0 leaves the code
    negative, whose top field then reads 2^f - 1 too), so a cover step off
    the digit ranges fails."""
    n, k, alpha, f = poset.n, poset.k, poset.alpha, _width(poset.n)
    shifts, ones = range(f * (k - 1), -1, -f), (1 << f) - 1

    def member(code):
        return posets._rule_member([(code >> s) & ones for s in shifts], n, alpha)

    return member


def rank_histogram(ranks):
    """The number of ranks equal to 0, 1, ..., max(ranks), one rank at a time."""
    counts = Counter(ranks)
    return [counts[r] for r in range(max(ranks, default=0) + 1)]


# every n = 2..6 with every alpha and k = 0..5, plus n = 2 (radix 3, the
# tightest digit fields) up to k = 12
ORACLE_GRID = [
    (n, k, alpha) for n in range(2, 7) for alpha in range(1, n) for k in range(6)
] + [(2, k, 1) for k in range(6, 13)]
# the tuple lattice check is quadratic: compare it up to this many elements
ORACLE_LATTICE_MAX = 800


class TestValidation:
    def test_valid_figure_string(self):
        assert validate_string((4, 7, 9), 4, 3, 3)

    def test_alpha_violation(self):
        res = validate_string((1, 5, 12), 4, 3, 3)
        assert not res and res.violation.family == "alpha"

    def test_fibonacci_violation(self):
        res = validate_string((1, 2, 9), 4, 3, 3)
        assert not res and res.violation.family == "fibonacci"
        assert res.violation.index == 1

    def test_coordinate_violation(self):
        res = validate_string((5, 7, 9), 4, 3, 3)
        assert not res and res.violation.family == "coordinate"

    def test_alpha_rule_not_applied_to_single_coordinate(self):
        # (T_1, T_k) collapses to one cell when k = 1; the chain stays whole
        for t in range(1, 6):
            assert validate_string((t,), 5, 1, 4)


class TestBuildPoset:
    def test_figure_sizes(self):
        assert build_poset(4, 3, 3).size == 48
        assert build_poset(3, 2, 2).size == 7

    def test_chain_and_antichain_conventions(self):
        chain = build_poset(6, 1, 2)
        assert chain.size == 6
        assert sorted(chain.ranks) == list(range(6))
        anti = build_poset(4, 0, 3)
        assert anti.size == 3 and anti.hasse_edges == [] and anti.ranks == [0, 0, 0]

    def test_refuses_n_at_most_alpha(self):
        with pytest.raises(ExactError):
            build_poset(3, 2, 3)
        with pytest.raises(ExactError):
            build_poset(3, 2, 4)

    def test_every_element_validates(self):
        poset = build_poset(4, 3, 3)
        for t in poset.elements:
            assert validate_string(t, 4, 3, 3)

    def test_extremes_and_ranks(self):
        n, k, alpha = 4, 3, 2
        poset = build_poset(n, k, alpha)
        top = tuple((j - 1) * n + 1 for j in range(1, k + 1))
        bottom = tuple(j * n for j in range(1, k + 1))
        assert rank_of(top, n, k) == k * (n - 1)
        assert rank_of(bottom, n, k) == 0
        assert top in poset.elements and bottom in poset.elements

    def test_hasse_edges_step_rank_by_one(self):
        poset = build_poset(4, 3, 3)
        for cover, covered in poset.hasse_edges:
            assert poset.ranks[cover] == poset.ranks[covered] + 1

    def test_connected(self):
        for n, k, alpha in [(4, 3, 3), (3, 4, 1), (3, 4, 2), (5, 2, 4)]:
            assert is_connected(build_poset(n, k, alpha))


class TestSharedMembers:
    """The extremes are computed once per built poset and read by both
    `check_lattice` and `is_connected`; the code set, on first read."""

    @pytest.mark.parametrize("n, k, alpha", [(4, 3, 2), (9, 4, 8), (12, 3, 5)])
    def test_extremes_computed_once(self, n, k, alpha, monkeypatch):
        prop = SGPoset.__dict__["_extremes"]
        compute, calls = prop.func, []

        def counted(poset):
            calls.append(poset)
            return compute(poset)

        monkeypatch.setattr(prop, "func", counted)
        poset = build_poset(n, k, alpha)
        report = check_lattice(poset)
        assert is_connected(poset)
        assert len(calls) == 1
        minimal, maximal = poset._extremes
        assert (report.minimal_count, report.maximal_count) == (len(minimal), len(maximal))
        assert poset._members == set(poset.codes)

    def test_replaced_copies_get_fresh_caches(self):
        poset = build_poset(4, 3, 1)
        assert check_lattice(poset).distributive and is_connected(poset)
        topless = dataclasses.replace(poset, codes=poset.codes[1:], ranks=poset.ranks[1:])
        assert "_members" not in vars(topless) and "_extremes" not in vars(topless)
        assert not check_lattice(topless).distributive
        assert topless._members == set(poset.codes[1:]) != poset._members
        fresh = SGPoset(topless.n, topless.k, topless.alpha, topless.codes, topless.ranks)
        assert topless._extremes == fresh._extremes != poset._extremes


class TestRuleExtremes:
    """A built poset's extremes come from the digit rules and its
    connectivity from a rule membership test; the code-set scan, which every
    unmarked poset takes, is the oracle."""

    @staticmethod
    def scanned(poset):
        copy = dataclasses.replace(poset)  # unmarked, so the set scan runs
        assert not copy.built
        return copy._extremes

    def test_oracle_grid(self):
        for n, k, alpha in ORACLE_GRID:
            poset = build_poset(n, k, alpha)
            if k >= 1:
                assert poset.built
                assert poset._extremes == self.scanned(poset), (n, k, alpha)

    def test_random_grid(self):
        grid = random_seed_grid(150, 20_000, random.Random(20201020))
        several = 0
        for n, k, alpha in grid:
            poset = build_poset(n, k, alpha)
            minimal, maximal = poset._extremes
            assert (minimal, maximal) == self.scanned(poset), (n, k, alpha)
            several += len(minimal) > 1
        assert several > 30

    def test_anti_automorphism(self):
        # d -> (n-1-d_k, ..., n-1-d_1) maps the members onto themselves and
        # reverses the order, which is why the maximal strings are images
        for n, k, alpha in [(5, 3, 4), (7, 4, 6), (9, 2, 5), (2, 9, 1)]:
            poset = build_poset(n, k, alpha)
            # on the strings: T_j -> kn + 1 - T_(k+1-j)
            image = {tuple(k * n + 1 - t for t in reversed(e)) for e in poset.elements}
            assert image == set(poset.elements)

    def test_enumeration_folds_the_end_pairs(self):
        for n, k, alpha in ORACLE_GRID + [(23, 4, 20), (40, 3, 39), (31, 2, 30)]:
            if k >= 1:
                poset = build_poset(n, k, alpha)
                want = post_filter_enumerate(n, k, alpha)
                assert (poset.codes, poset.ranks) == want, (n, k, alpha)
                assert poset._rank_counts == rank_histogram(want[1]), (n, k, alpha)
        for n, k, alpha in random_seed_grid(60, 20_000, random.Random(7)):
            codes, ranks, counts = posets._enumerate(n, k, alpha)
            want = post_filter_enumerate(n, k, alpha)
            assert (codes, ranks) == want, (n, k, alpha)
            assert counts == rank_histogram(want[1]), (n, k, alpha)

    def test_copies_are_unmarked(self, monkeypatch):
        def no_rules(*args):
            raise AssertionError("the digit rules were read")

        poset = build_poset(9, 4, 8)
        minimal, maximal = poset._extremes
        copy = dataclasses.replace(poset)
        hand = SGPoset(poset.n, poset.k, poset.alpha, poset.codes, poset.ranks)
        assert poset.built and not copy.built and not hand.built
        assert copy == hand == poset  # the mark is not compared
        monkeypatch.setattr(posets, "_rule_extremes", no_rules)
        monkeypatch.setattr(posets, "_rule_walk", no_rules)
        for unmarked in (copy, hand):
            assert unmarked._extremes == (minimal, maximal)
            assert is_connected(unmarked) and "_members" in vars(unmarked)
        assert not build_poset(4, 0, 3).built  # repeated codes stay unmarked

    @pytest.mark.parametrize("n, k, alpha", [(9, 4, 8), (21, 4, 16), (30, 4, 2), (5, 1, 3)])
    def test_connected_without_members_or_sweep(self, n, k, alpha, monkeypatch):
        def unread(*args):
            raise AssertionError("the code set or the sweep was read")

        monkeypatch.setattr(SGPoset, "_members", property(unread))
        monkeypatch.setattr(posets, "_swept", unread)
        poset = build_poset(n, k, alpha)
        assert is_connected(poset)
        # the lattice verdict reads no pair either, closed or not
        assert check_lattice(poset).distributive == (alpha <= 2 or k == 1)

    def test_rule_test_matches_the_codes(self):
        # every member passes, and every cover step off the poset fails: a
        # raised n-1, a lowered 0 (borrowing, or below zero) and a broken rule
        for n, k, alpha in [(2, 6, 1), (4, 3, 3), (5, 4, 2), (8, 3, 7), (16, 2, 5)]:
            poset = build_poset(n, k, alpha)
            member, members = rule_test(poset), set(poset.codes)
            steps = [s * w for w in posets._weights(poset) for s in (1, -1)]
            for c in poset.codes:
                assert member(c)
                for w in steps:
                    assert member(c + w) == (c + w in members), (n, k, alpha, c, w)

    def test_digit_walks_match_the_rule_oracle(self):
        # from every extreme, the path walked on digits ends where the greedy
        # path over the rule membership test ends: lowering from the minimal
        # strings, raising from the maximal ones, d_1 first
        grid = ORACLE_GRID + random_seed_grid(150, 20_000, random.Random(20201020))
        walks = 0
        for n, k, alpha in grid:
            if k == 0:
                continue
            poset = build_poset(n, k, alpha)
            member, down = rule_test(poset), posets._weights(poset)
            minimal, maximal = poset._extremes
            for ends, step in ((minimal, -1), (maximal, 1)):
                for c in ends:
                    want = posets._greedy_end(c, member, [step * w for w in down])
                    assert posets._rule_walk(poset, c, step) == want, (n, k, alpha, c, step)
                    walks += 1
        assert walks > 1000

    def test_one_digit_moves_match_the_rules(self):
        # every walk step is a Hasse cover: setting one digit of a member one
        # up or down keeps a member exactly when the whole-string rules say so
        moves = 0
        for n, k, alpha in ORACLE_GRID + [(9, 4, 8), (7, 4, 6), (23, 3, 20)]:
            if k == 0:
                continue
            poset = build_poset(n, k, alpha)
            f = _width(n)
            for c in poset.codes:
                ds = [(c >> (f * pos)) & ((1 << f) - 1) for pos in range(k - 1, -1, -1)]
                for j in range(k):
                    for e in (ds[j] - 1, ds[j] + 1):
                        moved = ds[:j] + [e] + ds[j + 1 :]
                        want = posets._rule_member(moved, n, alpha)
                        assert posets._keeps_member(ds, j, e, n - 1, alpha) == want, (ds, j, e)
                        moves += 1
        assert moves > 100_000

    @pytest.mark.parametrize("n, k, alpha", [(9, 4, 8), (21, 4, 16), (17, 4, 16), (7, 6, 5)])
    def test_connected_without_rule_members(self, n, k, alpha, monkeypatch):
        def unread(*args):
            raise AssertionError("a whole string was tested by the digit rules")

        poset = build_poset(n, k, alpha)
        minimal, maximal = poset._extremes
        assert len(minimal) > 1 and len(maximal) > 1  # the paths are walked
        monkeypatch.setattr(posets, "_rule_member", unread)
        assert is_connected(poset)

    @pytest.mark.parametrize("n, k, alpha", [(2, 1000, 1), (3, 13, 1)])
    def test_extremes_are_not_exponential_in_k(self, n, k, alpha):
        poset = build_poset(n, k, alpha)
        start = time.perf_counter()
        minimal, maximal = poset._extremes
        assert time.perf_counter() - start < 0.1
        assert (minimal, maximal) == ([poset.codes[-1]], [poset.codes[0]])


class TestDigitCodesAgainstTuples:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_poset_matches_tuple_oracle(self, n):
        for _, k, alpha in [c for c in ORACLE_GRID if c[0] == n]:
            poset = build_poset(n, k, alpha)
            elements, ranks, edges = tuple_poset(n, k, alpha)
            assert poset.elements == elements
            assert poset.ranks == ranks
            assert poset.hasse_edges == edges  # same order
            assert is_connected(poset) == dfs_connected(len(elements), edges)
            if len(elements) <= ORACLE_LATTICE_MAX:
                oracle = tuple_lattice(elements, edges, k, alpha)
                assert_lattice_report(check_lattice(poset), oracle, n, k, alpha)

    def test_non_closed_witness_on_larger_posets(self):
        # the non-closed seeds fail on an early pair, so the oracle stays cheap
        for n, k, alpha in [(6, 5, 3), (6, 5, 5), (5, 5, 4), (9, 3, 4)]:
            poset = build_poset(n, k, alpha)
            elements, _, edges = tuple_poset(n, k, alpha)
            report = check_lattice(poset)
            assert_lattice_report(report, tuple_lattice(elements, edges, k, alpha), n, k, alpha)
            assert not report.distributive and report.witness is not None

    def test_meet_only_failure(self):
        # without its all-zero code, the top (1, 5, 9), the closed lattice
        # loses meets but no joins, so only the meet test can catch it
        poset = build_poset(4, 3, 1)
        assert poset.codes[0] == 0
        topless = dataclasses.replace(poset, codes=poset.codes[1:], ranks=poset.ranks[1:])
        edges = [(i - 1, j - 1) for i, j in poset.hasse_edges if i > 0]
        assert topless.hasse_edges == edges == tuple_edges(topless.elements)
        report = check_lattice(topless)
        assert report == tuple_lattice(poset.elements[1:], edges, 3, 1)
        assert not report.distributive

    def test_cut_edges_disconnect(self):
        poset = build_poset(4, 3, 2)

        def only(keep):
            return dataclasses.replace(
                poset,
                codes=[c for c, r in zip(poset.codes, poset.ranks) if keep(r)],
                ranks=[r for r in poset.ranks if keep(r)],
            )

        # covers step the rank by one, so without rank 4 the ranks 0..3 and
        # 5..9 fall apart; rank 4 alone is an antichain with no edges at all
        for broken in (only(lambda r: r != 4), only(lambda r: r == 4)):
            assert 1 < broken.size < poset.size
            assert broken.hasse_edges == tuple_edges(broken.elements)
            assert not is_connected(broken)
            assert not dfs_connected(broken.size, broken.hasse_edges)
        assert only(lambda r: r == 4).hasse_edges == []

    def test_random_subsets_match_dfs(self):
        # random code subsets leave isolated elements and several components,
        # where the extremes certificate must hand over to the exact sweep
        rng = random.Random(20200523)
        seen = {"connected": 0, "apart": 0, "isolated": 0}
        for n, k, alpha in ORACLE_GRID:
            poset = build_poset(n, k, alpha)
            for share in (0.2, 0.5, 0.8, 0.95):
                keep = [i for i in range(poset.size) if rng.random() < share]
                sub = dataclasses.replace(
                    poset, codes=[poset.codes[i] for i in keep], ranks=[poset.ranks[i] for i in keep]
                )
                edges = tuple_edges(sub.elements)
                want = dfs_connected(sub.size, edges)
                assert is_connected(sub) == want, (n, k, alpha, keep)
                seen["connected" if want else "apart"] += 1
                seen["isolated"] += sub.size > len({e for edge in edges for e in edge})
        assert min(seen.values()) > 100, seen

    @pytest.mark.parametrize("n, k, alpha", [(7, 4, 6), (9, 4, 8), (27, 2, 14), (21, 4, 16)])
    def test_extremes_decide_without_sweep(self, n, k, alpha, monkeypatch):
        poset = build_poset(n, k, alpha)
        minimal, maximal = poset._extremes
        assert len(minimal) > 1 and len(maximal) > 1

        def sweep(_):
            raise AssertionError("the union-find sweep ran")

        monkeypatch.setattr(posets, "_swept", sweep)
        assert is_connected(poset)

    def test_repeated_codes_keep_the_sweep(self):
        # k = 0 gives alpha equal codes: an antichain, connected only for alpha = 1
        assert is_connected(build_poset(2, 0, 1))
        assert not is_connected(build_poset(4, 0, 3))

    def test_elements_decoded_on_read(self):
        poset = build_poset(4, 3, 3)
        assert "elements" not in vars(poset)
        assert poset.elements[0] == (1, 5, 9)
        assert vars(poset)["elements"] is poset.elements

    def test_hasse_edges_derived_on_read(self):
        poset = build_poset(4, 3, 3)
        assert "hasse_edges" not in vars(poset)
        # connectivity reads the cover pairs without storing them
        assert is_connected(poset) and "hasse_edges" not in vars(poset)
        top = (1, 5, 9)  # covers one string per coordinate, in coordinate order
        covered = [poset.elements[j] for i, j in poset.hasse_edges[:3]]
        assert covered == [(2, 5, 9), (1, 6, 9), (1, 5, 10)]
        assert [poset.elements[i] for i, _ in poset.hasse_edges[:3]] == [top] * 3
        assert vars(poset)["hasse_edges"] is poset.hasse_edges

    def test_codes_are_guarded_fields(self):
        # d_j = T_j - (j-1)n - 1 in an f-bit field, d_1 most significant,
        # every guard bit clear; n = 2, 4, 8 and 16 put a raised top digit
        # on the guard bit
        for n, k, alpha in [(2, 6, 1), (4, 3, 3), (5, 4, 2), (8, 3, 1), (16, 2, 5), (27, 2, 1)]:
            poset = build_poset(n, k, alpha)
            f = _width(n)
            assert 2 ** (f - 2) < n <= 2 ** (f - 1)
            guards = int(("1" + "0" * (f - 1)) * k, 2)
            codes = [
                sum((t - j * n - 1) << (f * (k - 1 - j)) for j, t in enumerate(element))
                for element in poset.elements
            ]
            assert poset.codes == codes == sorted(codes)
            assert not any(c & guards for c in codes)

    def test_packed_join_and_meet(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hyp.settings(max_examples=300, deadline=None, derandomize=True)
        @hyp.given(st.data(), st.integers(2, 64), st.integers(1, 8))
        def check(data, n, k):
            digits = st.lists(st.integers(0, n - 1), min_size=k, max_size=k)
            xs, ys = data.draw(digits), data.draw(digits)
            f = _width(n)
            guards = int(("1" + "0" * (f - 1)) * k, 2)

            def pack(ds):
                code = 0
                for d in ds:
                    code = (code << f) | d
                return code

            def unpack(word):
                return [(word >> (f * pos)) & ((1 << f) - 1) for pos in range(k - 1, -1, -1)]

            x, y = pack(xs), pack(ys)
            (join,) = _joins(x, [y], guards, f)
            assert unpack(join) == list(map(max, xs, ys))
            assert unpack(x ^ y ^ join) == list(map(min, xs, ys))

        check()


class TestBudgets:
    def test_element_budget_refused_before_enumeration(self):
        with pytest.raises(ExactError, match="element budget of 2,000,000") as err:
            build_poset(100, 4, 1)
        assert "\n" not in str(err.value) and "99,970,001 elements" in str(err.value)
        # sizes rise with k, so a long string is refused without the exact count
        with pytest.raises(ExactError, match="more than"):
            build_poset(3, 10**6, 1)
        with pytest.raises(ExactError, match="more than"):
            build_poset(2, 10**9, 1)

    def test_length_budget(self):
        # the n = 2 chain has k + 1 elements, so only the length budget stops it
        assert posets.POSET_LENGTH_BUDGET == 1_000
        assert build_poset(2, 1_000, 1).size == 1_001
        with pytest.raises(ExactError, match="length budget"):
            build_poset(2, 1_001, 1)
        start = time.perf_counter()
        with pytest.raises(ExactError, match="length budget of 1,000") as err:
            build_poset(2, 100_000, 1)
        assert time.perf_counter() - start < 1
        assert str(err.value) == (
            "poset (n=2, k=100000, alpha=1) has strings of 100,000 digits, "
            "over the length budget of 1,000"
        )

    def test_pair_budget(self):
        # the built (3, 10, 1) is decided by its digit relations; without its
        # top code it is no built poset, and only the full pairwise scan is left
        poset = build_poset(3, 10, 1)
        topless = dataclasses.replace(poset, codes=poset.codes[1:], ranks=poset.ranks[1:])
        assert topless.size == 17_710
        with pytest.raises(ExactError, match="pair budget") as err:
            check_lattice(topless)
        assert "\n" not in str(err.value) and "156,813,195 pairs" in str(err.value)

    def test_pair_budget_spares_built_posets(self):
        # (369, 2, 3) is answered from its digit relations, with the extreme
        # counts its unmarked copy scans; that copy meets the pair budget
        poset = build_poset(369, 2, 3)
        copy = dataclasses.replace(poset)
        report = check_lattice(poset)
        assert not report.distributive and failing_pair(report.witness, 369, 2, 3)
        minimal, maximal = copy._extremes  # scanned from the codes
        assert (report.minimal_count, report.maximal_count) == (len(minimal), len(maximal)) == (2, 2)
        with pytest.raises(ExactError, match="pair budget") as err:
            check_lattice(copy)
        assert "9,269,432,403 pairs" in str(err.value)

    def test_triangle_entry_budget(self):
        # rows 1..k take (n-1)k(k+1)/2 + k entries: (1; 3) row 1,413 takes
        # 1,999,395 and row 1,414 takes 2,002,224
        assert TRIANGLE_ENTRY_BUDGET == 2_000_000
        for alpha, n, k, count in [(1, 3, 1414, "2,002,224"), (3, 64, 600, "11,359,500"),
                                   (2, 3, 10**11, "10,000,000,000,200,000,000,000"),
                                   (1, 10**12, 1, "1,000,000,000,000")]:
            with pytest.raises(ExactError, match="entry budget of 2,000,000") as err:
                triangle_row(alpha, n, k)
            assert "\n" not in str(err.value) and f"needs {count} entries" in str(err.value)
        # row 0 takes no computed entries, whatever n is
        assert triangle_row(2, 10**12, 0) == [2]
        assert len(triangle_row(2, 3, 300)) == 601  # the deepest row CI prints


class TestCounts:
    def test_formula_values(self):
        assert count_by_formula(4, 3, 3) == 48
        assert count_by_formula(3, 5, 1) == 144
        assert count_by_formula(3, 4, 2) == 47
        assert count_by_formula(3, 3, 1) == 21

    def test_inclusion_exclusion_values(self):
        assert count_by_inclusion_exclusion(4, 3, 3) == 48
        assert count_by_inclusion_exclusion(6, 1, 2) == 6
        assert count_by_inclusion_exclusion(3, 3, 1) == 21

    def test_negative_k_refused(self):
        # every route refuses k < 0 with one line, as build_poset does
        for route in (count_by_formula, count_by_inclusion_exclusion, build_poset):
            for k in (-1, -2):
                with pytest.raises(ExactError) as err:
                    route(3, k, 1)
                assert "\n" not in str(err.value)

    def test_three_way_agreement_grid(self):
        for n in range(2, 6):
            for alpha in range(1, n):
                for k in range(0, 7):
                    size = build_poset(n, k, alpha).size
                    assert size == count_by_formula(n, k, alpha)
                    assert size == count_by_inclusion_exclusion(n, k, alpha)

    def test_symmetric_sequences(self):
        fib_like = [count_by_formula(3, k, 1) for k in range(6)]
        lucas_like = [count_by_formula(3, k, 2) for k in range(6)]
        assert fib_like == [1, 3, 8, 21, 55, 144]
        assert lucas_like == [2, 3, 7, 18, 47, 123]

    def test_formula_vs_inclusion_exclusion_soak(self):
        # the two closed counts stay equal well beyond the enumeration grid
        for n in range(2, 8):
            for alpha in range(1, n):
                for k in range(0, 9):
                    assert count_by_formula(n, k, alpha) == count_by_inclusion_exclusion(
                        n, k, alpha
                    )

    def test_enumeration_cross_check_larger_window(self):
        for alpha in (1, 3, 5):
            assert build_poset(6, 4, alpha).size == count_by_inclusion_exclusion(6, 4, alpha)


class TestRankCounts:
    """A built poset's rank counts come from its enumeration's rank runs;
    the oracle counts its ranks one element at a time."""

    def test_counts_match_the_ranks(self):
        grid = ORACLE_GRID + random_seed_grid(150, 20_000, random.Random(20201020))
        grid += [(n, 1, alpha) for n in (2, 7, 40) for alpha in (1, n - 1)]  # the chains
        grid += [(2, posets.POSET_LENGTH_BUDGET, 1), (4, 0, 3)]  # the n = 2 chain, an antichain
        # alpha >= 3: the cut prefixes skip a digit of their run
        grid += [(9, 4, 8), (23, 4, 20), (40, 3, 39), (31, 2, 30), (6, 5, 3)]
        for n, k, alpha in grid:
            poset = build_poset(n, k, alpha)
            assert poset._rank_counts == rank_histogram(poset.ranks), (n, k, alpha)
            assert rank_generating_function(poset) == Poly(rank_histogram(poset.ranks))

    def test_built_rgf_reads_no_rank(self):
        class Unread(list):
            def __iter__(self):
                raise AssertionError("a rank was read")

        for n, k, alpha in [(4, 3, 3), (3, 13, 2), (17, 4, 16), (5, 1, 2)]:
            poset = build_poset(n, k, alpha)
            poset.ranks = Unread(poset.ranks)
            assert rank_generating_function(poset) == triangle_polynomial(alpha, n, k)

    def test_copies_count_their_ranks(self):
        poset = build_poset(4, 3, 3)
        assert rank_generating_function(poset) == FIGURE_RGF
        head = dataclasses.replace(poset, codes=poset.codes[:10], ranks=poset.ranks[:10])
        assert "_rank_counts" not in vars(head)
        assert head._rank_counts == rank_histogram(poset.ranks[:10])
        assert rank_generating_function(head) == Poly(rank_histogram(poset.ranks[:10]))
        assert rank_generating_function(head) != FIGURE_RGF
        assert rank_generating_function(dataclasses.replace(poset)) == FIGURE_RGF


class TestVerifyCrossChecks:
    """`verify`'s poset-counts check sets each built poset against an
    unmarked copy, so a fault in the run counts or the digit walks fails it."""

    def test_broken_run_counts_fail(self, monkeypatch):
        enumerate_ = posets._enumerate

        def off_by_one(n, k, alpha):
            codes, ranks, counts = enumerate_(n, k, alpha)
            counts[0] += k == 4  # the figure poset has k = 3
            return codes, ranks, counts

        monkeypatch.setattr(posets, "_enumerate", off_by_one)
        res = verify_module.check_poset_counts(3, 4)
        assert not res.ok
        assert res.details[0] == "rank counts disagree with the ranks at (n=2, k=4, alpha=1)"

    def test_broken_walks_fail(self, monkeypatch):
        # walks that never move leave the extremes apart, and a sweep that
        # answers "apart" then disconnects every built poset with several
        monkeypatch.setattr(posets, "_rule_walk", lambda poset, c, step: c)
        monkeypatch.setattr(posets, "_swept", lambda poset: False)
        res = verify_module.check_poset_counts(4, 3)
        assert not res.ok
        assert res.details[:2] == [
            "connectivity disagrees with the code set at (n=4, k=2, alpha=3)",
            "poset (n=4, k=2, alpha=3) is disconnected",
        ]


class TestRankGeneratingFunctions:
    def test_figure_rgf(self):
        poset = build_poset(4, 3, 3)
        assert rank_generating_function(poset) == FIGURE_RGF

    def test_chain_rgf_is_q_integer(self):
        poset = build_poset(5, 1, 3)
        assert rank_generating_function(poset) == q_integer(5)

    def test_seven_element_poset_matches_triangle(self):
        poset = build_poset(3, 2, 2)
        assert rank_generating_function(poset) == triangle_polynomial(2, 3, 2)

    def test_palindromic_across_grid(self):
        for n in range(2, 6):
            for alpha in range(1, n):
                for k in range(0, 6):
                    rgf = rank_generating_function(build_poset(n, k, alpha))
                    assert is_palindromic(rgf)
                    assert rgf.degree == k * (n - 1)
                    if alpha <= 2 and k >= 1:
                        assert rgf.coeffs[0] == 1  # unique minimum


class TestLatticeRelations:
    """The digit-relation verdict of `check_lattice` against the pairwise
    scan of an unmarked copy (`scan_oracle`)."""

    def test_oracle_grid(self):
        for n, k, alpha in ORACLE_GRID:
            poset = build_poset(n, k, alpha)
            if k >= 2 and poset.size <= ORACLE_LATTICE_MAX:
                assert poset.built
                assert_lattice_report(check_lattice(poset), scan_oracle(poset), n, k, alpha)

    def test_random_grid(self):
        # n <= 40, k <= 6, alpha < n and at most 3,000 elements
        grid = [c for c in random_seed_grid(60, 3_000, random.Random(20261022)) if c[1] <= 6]
        assert sum(alpha >= 3 and k >= 2 for _, k, alpha in grid) >= 20
        for n, k, alpha in grid:
            poset = build_poset(n, k, alpha)
            assert_lattice_report(check_lattice(poset), scan_oracle(poset), n, k, alpha)

    def test_small_posets(self):
        seen = {"closed": 0, "open": 0}
        for n in range(2, 12):
            for k in range(2, 7):
                for alpha in range(1, n):
                    if count_by_formula(n, k, alpha) > 1500:
                        continue
                    poset = build_poset(n, k, alpha)
                    pair = posets._relation_witness(n, k, alpha)
                    report = check_lattice(poset)
                    assert_lattice_report(report, scan_oracle(poset), n, k, alpha)
                    assert report.distributive == (alpha <= 2) == (pair is None)
                    seen["closed" if report.distributive else "open"] += 1
        assert seen == {"closed": 55, "open": 79}

    def test_closed_without_a_pair(self, monkeypatch):
        def no_pairs(*args):
            raise AssertionError("a pair was visited")

        monkeypatch.setattr(posets, "_joins", no_pairs)
        report = check_lattice(build_poset(30, 4, 2))  # 806,402 elements
        assert report == LatticeReport(True, 1, 1)

    def test_witness_from_the_relations(self, monkeypatch):
        # (12, 4, 3): the end pair (1, 10) is the join of (1, 0) and (0, 10),
        # extended to (0, 0, 0, 10) and (1, 0, 0, 0); the full scan, past its
        # budget here, stops on the same pair at row 10
        poset = build_poset(12, 4, 3)
        assert posets._relation_witness(12, 4, 3) == ((0, 0, 0, 10), (1, 0, 0, 0))
        report = check_lattice(poset)
        assert report.witness == ((1, 13, 25, 47), (2, 13, 25, 37))
        assert poset.elements[10] == report.witness[0]
        monkeypatch.setattr(posets, "LATTICE_PAIR_BUDGET", poset.size**2)
        assert report == scan_oracle(poset)
        # (30, 4, 3): the scan's first failing pair is another one; both fail
        report = check_lattice(build_poset(30, 4, 3))
        assert report == LatticeReport(False, 2, 2, ((1, 31, 61, 119), (2, 31, 61, 91)))
        assert failing_pair(report.witness, 30, 4, 3)

    @pytest.mark.parametrize("n, k, alpha", [(30, 4, 3), (36, 4, 3)])
    def test_built_poset_is_never_scanned(self, n, k, alpha, monkeypatch):
        def unread(*args):
            raise AssertionError("a pair, the code set or the codes were read")

        class Unreadable:
            __getattribute__ = __len__ = __iter__ = __getitem__ = __contains__ = unread

        poset = build_poset(n, k, alpha)
        poset.codes, poset.ranks = Unreadable(), Unreadable()
        monkeypatch.setattr(posets, "_joins", unread)
        monkeypatch.setattr(SGPoset, "_members", property(unread))
        report = check_lattice(poset)
        assert (report.distributive, report.maximal_count, report.minimal_count) == (False, 2, 2)
        assert failing_pair(report.witness, n, k, alpha)

    def test_unconfirmed_relation_pair_is_refused(self, monkeypatch):
        # were every string a member, the broken pair's join would be one too:
        # an open relation without a confirmed failing pair is no verdict
        monkeypatch.setattr(posets, "_rule_member", lambda *args, **kwargs: True)
        with pytest.raises(ExactError, match="no failing relation pair"):
            posets._relation_witness(12, 4, 3)

    def test_closure_test(self):
        # (n-1, 0) alone is closed; an end pair (a, n-1-a) with 0 < a < n-1 is
        # the join of (a, 0) and (0, n-1-a) and the meet of (a, n-a) and (a+1, n-1-a)
        assert list(posets._broken_pairs({(4, 0)}, 5)) == []
        assert list(posets._broken_pairs({(0, 4)}, 5)) == []
        assert list(posets._broken_pairs({(0, 4), (1, 3)}, 5)) == [((1, 0), (0, 3)), ((1, 4), (2, 3))]

    def test_code_sets_that_no_seed_builds(self):
        poset = build_poset(4, 3, 1)
        topless = dataclasses.replace(poset, codes=poset.codes[1:], ranks=poset.ranks[1:])
        relabelled = dataclasses.replace(poset, alpha=3)
        assert poset.built
        assert not topless.built and not relabelled.built
        assert check_lattice(relabelled) == posets._scan_lattice(poset) == check_lattice(poset)


class TestLattice:
    def test_alpha_three_not_closed(self):
        report = check_lattice(build_poset(4, 2, 3))
        assert not report.distributive
        assert report.maximal_count >= 2
        assert report.witness is not None

    def test_alpha_one_and_two_closed(self):
        for alpha in (1, 2):
            report = check_lattice(build_poset(4, 3, alpha))
            assert report.distributive
            assert report.maximal_count == 1 and report.minimal_count == 1

    def test_boundary_grid(self):
        for n in range(2, 5):
            for alpha in range(1, n):
                for k in (2, 3):
                    report = check_lattice(build_poset(n, k, alpha))
                    assert report.distributive == (alpha <= 2)
                    if alpha >= 3:
                        assert report.maximal_count >= 2


class TestTriangle:
    def test_displayed_rows(self):
        assert triangle_row(3, 4, 0) == [3]
        assert triangle_row(3, 4, 1) == [1, 1, 1, 1]
        assert triangle_row(3, 4, 2) == [1, 2, 3, 1, 3, 2, 1]
        assert triangle_row(3, 4, 3) == [1, 3, 6, 6, 8, 8, 6, 6, 3, 1]

    def test_row_symmetry(self):
        for alpha, n in [(1, 3), (2, 3), (3, 4), (1, 5), (4, 5)]:
            for k in range(8):
                row = triangle_row(alpha, n, k)
                assert row == row[::-1]

    def test_positivity_boundary(self):
        # all entries positive iff n > alpha; the center of row 2 is n - alpha
        for alpha, n in [(1, 3), (2, 5), (3, 4)]:
            for k in range(7):
                assert all(v > 0 for v in triangle_row(alpha, n, k))
        assert 0 in triangle_row(3, 3, 2)
        assert min(triangle_row(5, 3, 2)) == 3 - 5

    def test_polynomials(self):
        assert triangle_polynomial(3, 4, 0) == Poly([3])
        assert triangle_polynomial(1, 3, 1) == q_integer(3)
        assert triangle_polynomial(3, 4, 3) == FIGURE_RGF

    def test_deep_row_is_one_memo_entry(self):
        # the row recurrence runs as a loop inside one memoized call: no
        # lower row is cached, and no recursion runs however deep k is
        _triangle_rows.cache_clear()
        try:
            row = triangle_row(2, 3, 300)
            assert len(row) == 601 and row == row[::-1]
            assert _triangle_rows.cache_info().currsize == 1
        finally:
            _triangle_rows.cache_clear()

    def test_csv_export(self):
        text = triangle_row_csv(3, 4, 1)
        assert text.splitlines()[0] == "r,entry"
        assert "-3,1" in text and "3,1" in text

    def test_readers_match_dict_oracle(self):
        def check(alpha, n, k, row):
            assert triangle_row(alpha, n, k) == [row[r] for r in sorted(row)]
            assert triangle_polynomial(alpha, n, k) == dict_row_polynomial(row, n, k)
            assert triangle_row_csv(alpha, n, k) == dict_row_csv(row)

        # alpha runs past n - 1: the triangle is defined for alpha >= n too
        for n in range(2, 9):
            for alpha in range(1, n + 2):
                for k, row in enumerate(dict_triangle_rows(alpha, n, 12)):
                    check(alpha, n, k, row)
        check(2, 3, 300, dict_triangle_rows(2, 3, 300)[300])


class TestIdentitySuite:
    def test_unit_alpha_n3(self):
        report = verify_identity_suite(1, 3, 6)
        assert report.ok
        assert report.cardinalities == [1, 3, 8, 21, 55, 144, 377]

    def test_alpha_two_n3(self):
        report = verify_identity_suite(2, 3, 6)
        assert report.ok
        assert report.cardinalities == [2, 3, 7, 18, 47, 123, 322]

    def test_alpha_three_n4(self):
        report = verify_identity_suite(3, 4, 4)
        assert report.ok
        assert report.cardinalities[3] == 48

    def test_n_two_special_case(self):
        report = verify_identity_suite(1, 2, 6)
        assert report.ok
        assert report.cardinalities == [1, 2, 3, 4, 5, 6, 7]

    def test_grid(self):
        for n in range(2, 6):
            for alpha in range(1, n):
                assert verify_identity_suite(alpha, n, 5).ok

    def test_binet_sizes_match_eigenvalue_oracle(self):
        for n in range(2, 10):
            for alpha in range(1, n):
                seeds = GibParams.of(alpha, 1)
                for k in range(21):
                    binet = n ** (k % 2) * binet_eval(seeds, k, n * n)
                    assert binet == closed_form_value(alpha, n, k)
                    assert binet == count_by_formula(n, k, alpha)

    def test_printed_expansion_variant_diverges_for_alpha_two_plus(self):
        # the ([n]-[n-alpha]) correction matches the enumerated rank
        # generating function only for alpha = 1; alpha >= 2 drifts by
        # alpha*q^(n-1) - ([n]-[n-alpha]) times the shorter unit family
        for n, alpha, k in [(3, 2, 2), (4, 3, 3), (5, 2, 4)]:
            actual = rank_generating_function(build_poset(n, k, alpha))
            assert unit_family_expansion_printed_variant(alpha, n, k) != actual
        for n, k in [(3, 2), (4, 3)]:
            actual = rank_generating_function(build_poset(n, k, 1))
            assert unit_family_expansion_printed_variant(1, n, k) == actual

    def test_hand_enumerated_counterexample(self):
        # seven strings for n=3, alpha=2, k=2 with ranks 9 - sum(T):
        # (3,6):0 (2,6):1 (3,5):1 (2,5):2 (1,5):3 (2,4):3 (1,4):4
        actual = rank_generating_function(build_poset(3, 2, 2))
        assert actual == Poly([1, 2, 1, 2, 1])
        q3 = q_integer(3)
        corrected = q3 * q_integer(3) - Poly.x_power(2).scale(2) * Poly([1])
        assert actual == corrected


class TestExports:
    def test_json_shape(self):
        data = poset_to_json(build_poset(3, 2, 2))
        assert data["n"] == 3 and data["alpha"] == 2
        assert len(data["elements"]) == 7 == len(data["ranks"])
        assert all(len(e) == 2 for e in data["hasse_edges"])

    def test_dot_output(self):
        dot = poset_to_dot(build_poset(3, 2, 1))
        assert dot.startswith("digraph poset {")
        assert "rank=same" in dot and "->" in dot

"""Symmetric ranked posets of constrained integer strings.

A string is a k-tuple T with T_j drawn from the j-th window
{(j-1)n+1, ..., jn}, no coordinate followed by its successor
(T_{j+1} != T_j + 1), and, for alpha > 1, the end pair (T_1, T_k) avoiding
(i, nk-(i-1)) for i = 1..alpha-1.  Ordered by reverse componentwise
comparison these form ranked posets; their cardinalities are computed three
independent ways (enumeration, a closed polynomial formula, and
inclusion-exclusion) and their rank generating functions coincide with the
row polynomials of a recursively defined symmetric integer triangle.

The end-pair condition is applied only for k >= 2: with a single coordinate
the two ends collapse onto one cell and the poset is required to be the full
n-chain.

Internally a string is its digit code.  The digits d_j = T_j - (j-1)n - 1
lie in [0, n); the no-successor rule becomes "no adjacent digit pair
(n-1, 0)", the end-pair rule becomes "not (d_1 <= alpha-2 and
d_1 + d_k = n-1)", and the rank is k(n-1) minus the digit sum.  The code
holds d_j in an f-bit field, f = (n-1).bit_length() + 1, with d_1 most
significant, so numeric order is lexicographic order.  The top bit of each
field is a guard bit, which lets the lattice check take componentwise max
and min with a few integer operations.  Adding 2^(f(k-j)) raises d_j by
one; a raised top digit reads n, which no member has and which still fits
its field, so the cover lookup never carries into the next digit.  Tuples
and Hasse edges are derived from the codes only when a caller reads
SGPoset.elements or SGPoset.hasse_edges.

The lattice check decides from the two digit relations, not from the
pairs, whenever the codes are exactly the ones (n, k, alpha) builds.  Each
relation closed under componentwise max and min makes their conjunction
closed (Jeavons and Cooper, "Tractable constraints on ordered domains",
Artificial Intelligence 79, 1995), so the poset is a sublattice of a product
of chains and distributive; for k >= 2 this holds exactly when
alpha <= 2.  Otherwise two member strings s and t whose join or meet is
missing bound the pairwise scan: it stops by row min(index(s), index(t)),
and its first failing pair is the witness.  LATTICE_PAIR_BUDGET guards only
that scan, which runs in full for any other code set.

Which posets those are is a provenance mark: build_poset sets
SGPoset.built, and a copy made by dataclasses.replace or a hand-made
SGPoset starts unmarked, so the codes of a marked poset are exactly the
strings of (n, k, alpha).  The same rules fix its extreme strings and its
connectivity without touching the codes.  A minimal string has no digit
that can be raised, which leaves few candidates per digit; a pruned search
over them, each confirmed by the rules, finds the minimal strings, and the
map d -> (n-1-d_k, ..., n-1-d_1), which takes members to members and
reverses the order, gives the maximal ones.  Connectivity joins the
extremes by greedy cover paths walked on a digit list: a step moves one
digit, so it re-tests only the rules that touch that digit, and no code set
is built.  An unmarked code set scans its codes for its extremes and tests
path steps in its set, with the union-find sweep over every cover as the
fallback.

The enumeration appends each prefix's last digits as one run of
consecutive ranks, so a marked poset also carries its rank counts, tallied
run by run while it was built; the rank generating function reads those
and visits no element.  An unmarked poset counts its ranks.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import accumulate, islice
from typing import Optional

from .exactnum import ExactError, Poly
from .polys import GibParams, binet_eval, sign_alternating_poly

# build_poset refuses more elements than this, the pairwise lattice scan
# more element pairs and _triangle_rows more computed entries (about
# k^2 (n-1)/2), naming the size and the budget.  The verify grids stay far
# below all three; CI's deepest triangle row, (2; 3) row 300, computes
# 90,600 entries.
POSET_ELEMENT_BUDGET = 2_000_000
# build_poset also refuses strings of more digits than this.  Under the
# element budget only the n = 2 chain (k + 1 strings of k digits) gets past
# k = 15, and its level loop does about k^3 bit work.  The verify grids and
# CI's posets stay far below it.
POSET_LENGTH_BUDGET = 1_000
LATTICE_PAIR_BUDGET = 50_000_000
TRIANGLE_ENTRY_BUDGET = 2_000_000


@dataclass(frozen=True)
class Violation:
    family: str  # "coordinate" | "fibonacci" | "alpha"
    index: int
    detail: str


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    violation: Optional[Violation] = None

    def __bool__(self) -> bool:
        return self.ok


def _forbidden_end_pairs(n: int, k: int, alpha: int):
    top = n * k
    return [(i, top - (i - 1)) for i in range(1, alpha)]


def validate_string(entries, n: int, k: int, alpha: int) -> ValidationResult:
    """Check the successor, coordinate, and end-pair requirements in turn."""
    entries = tuple(int(t) for t in entries)
    if len(entries) != k:
        return ValidationResult(False, Violation("coordinate", 0, f"expected {k} coordinates"))
    for j in range(1, k):
        if entries[j] == entries[j - 1] + 1:
            return ValidationResult(
                False, Violation("fibonacci", j, f"T_{j+1} = T_{j} + 1 = {entries[j]}")
            )
    for j, t in enumerate(entries, start=1):
        lo, hi = (j - 1) * n + 1, j * n
        if not lo <= t <= hi:
            return ValidationResult(
                False, Violation("coordinate", j, f"T_{j}={t} outside [{lo}, {hi}]")
            )
    if k >= 2:
        pair = (entries[0], entries[-1])
        if pair in _forbidden_end_pairs(n, k, alpha):
            return ValidationResult(
                False, Violation("alpha", k, f"end pair {pair} is forbidden")
            )
    return ValidationResult(True)


@dataclass
class SGPoset:
    n: int
    k: int
    alpha: int
    codes: list  # digit codes in f-bit fields, ascending (= lexicographic order)
    ranks: list  # per element: k(n-1) minus the digit sum
    # set by build_poset on the strings of (n, k, alpha), k >= 1; copies made by
    # dataclasses.replace and hand-made posets start unmarked
    built: bool = field(default=False, init=False, repr=False, compare=False)

    @cached_property
    def _rank_counts(self) -> list:
        """The number of elements of each rank 0, 1, ..., max(ranks).
        build_poset fills it in from the enumeration's runs; any other poset
        counts its ranks on first read."""
        counts = [0] * (max(self.ranks, default=0) + 1)
        for r in self.ranks:
            counts[r] += 1
        return counts

    @property
    def size(self) -> int:
        return len(self.codes)

    @cached_property
    def elements(self) -> list:
        """The strings as tuples, decoded from the codes on first read."""
        return _decoded(self, self.codes)

    @cached_property
    def hasse_edges(self) -> list:
        """(cover_index, covered_index) pairs, derived from the codes on first read."""
        return list(_covers(self))

    @cached_property
    def _members(self) -> set:
        """The codes as a set, for membership tests."""
        return set(self.codes)

    @cached_property
    def _extremes(self) -> tuple:
        """(minimal, maximal) codes: those with no code one digit raised, and
        those with no code one digit lowered.  A built poset derives them
        from the digit rules (`_rule_extremes`); any other code set is
        scanned.  A raised digit n-1 reads n and a lowered digit 0 borrows
        into a guard bit (or below zero), and no member has either, so both
        scan tests are exact."""
        if self.built:
            return _rule_extremes(self.n, self.k, self.alpha)
        members = self._members
        minimal = maximal = self.codes
        for w in _weights(self):
            minimal = [c for c in minimal if c + w not in members]
            maximal = [c for c in maximal if c - w not in members]
        return minimal, maximal


def _decoded(poset: SGPoset, codes: list) -> list:
    """The strings of the given codes, as tuples."""
    f = _width(poset.n)
    fields = [(f * (poset.k - 1 - j), j * poset.n + 1) for j in range(poset.k)]
    ones = (1 << f) - 1
    return [tuple(((c >> shift) & ones) + low for shift, low in fields) for c in codes]


def _width(n: int) -> int:
    """Bits per digit field: the digits 0..n-1 and a guard bit above them."""
    return (n - 1).bit_length() + 1


def _packed(digits, f: int) -> int:
    """The code of a digit string, d_1 in the most significant f-bit field."""
    code = 0
    for d in digits:
        code = (code << f) | d
    return code


def _weights(poset: SGPoset) -> list:
    """2^(f pos) for pos = k-1, ..., 0: adding one raises d_1, ..., d_k by one."""
    f = _width(poset.n)
    return [1 << (f * pos) for pos in range(poset.k - 1, -1, -1)]


def _covers(poset: SGPoset):
    """Yield the cover pairs (i, j), i < j: in the reverse ordering t covers
    t + e_pos, so code j is code i with one digit raised."""
    get = {c: i for i, c in enumerate(poset.codes)}.get
    weights = _weights(poset)
    for i, c in enumerate(poset.codes):
        for w in weights:
            j = get(c + w)
            if j is not None:
                yield i, j


def _checked_size(n: int, k: int, alpha: int) -> int:
    """Cardinality by the shared recurrence s_k = n s_{k-1} - s_{k-2}, with
    s_0 = alpha and s_1 = n; ExactError above POSET_ELEMENT_BUDGET.

    The sizes rise strictly (each step adds at least n - alpha), so the loop
    stops as soon as a term passes the budget.  It starts from
    s_{-1} = n(alpha - 1), the term before s_0 that gives s_1 = n.
    """
    prev, size, length = n * (alpha - 1), alpha, 0
    while length < k and size <= POSET_ELEMENT_BUDGET:
        prev, size = size, n * size - prev
        length += 1
    if size > POSET_ELEMENT_BUDGET:
        count = f"{size:,}" if length == k else f"more than {size:,}"
        raise ExactError(
            f"poset (n={n}, k={k}, alpha={alpha}) has {count} elements, "
            f"over the element budget of {POSET_ELEMENT_BUDGET:,}"
        )
    return size


def build_poset(n: int, k: int, alpha: int) -> SGPoset:
    """Enumerate the digit codes and their ranks.

    k = 0 yields the conventional alpha-element antichain of empty strings;
    k = 1 is the n-chain.  Seeds with n <= alpha are refused: the triangle
    rows lose positivity there and the poset family is not defined.  Sizes
    above POSET_ELEMENT_BUDGET, then strings longer than POSET_LENGTH_BUDGET,
    are refused before anything is enumerated.
    """
    if alpha < 1 or n < 1 or k < 0:
        raise ExactError("need alpha >= 1, n >= 1, k >= 0")
    if n <= alpha:
        raise ExactError(f"n must exceed alpha (got n={n}, alpha={alpha})")
    _checked_size(n, k, alpha)
    if k > POSET_LENGTH_BUDGET:
        raise ExactError(
            f"poset (n={n}, k={k}, alpha={alpha}) has strings of {k:,} digits, "
            f"over the length budget of {POSET_LENGTH_BUDGET:,}"
        )
    if k == 0:
        return SGPoset(n, 0, alpha, [0] * alpha, [0] * alpha)
    codes, ranks, counts = _enumerate(n, k, alpha)
    poset = SGPoset(n, k, alpha, codes, ranks)
    poset.built = True
    poset._rank_counts = counts
    return poset


def _enumerate(n: int, k: int, alpha: int) -> tuple:
    """(codes, ranks, counts) of the strings for 1 <= alpha < n and k >= 1,
    in ascending code order, with counts[r] the number of strings of rank r.
    Each level appends one digit to every prefix; the last level also drops
    the forbidden end pairs, so a prefix with d_1 <= alpha - 2 (the first
    `cut` prefixes) skips the last digit n-1-d_1.

    A prefix of rank r whose next digit starts at lo appends the ranks
    r + n-1-lo down to r as one run, and a skipped digit leaves a hole at
    rank r + d_1.  Each level tallies its runs by (r, lo) in `runs[2r + lo]`
    and its holes by rank, one update per prefix, and the counts are those
    runs spread over their ranks by a difference array, less the holes."""
    f, top = _width(n), n - 1
    ones = (1 << f) - 1
    # level 1: the first digit, rank so far (n-1) - d_1: one run from the
    # empty prefix
    codes, ranks = list(range(n)), list(range(top, -1, -1))
    runs, holes = [1, 0], [0] * n
    for level in range(2, k + 1):
        lead = f * (level - 2)  # the shift of d_1 in a prefix
        cut = bisect_left(codes, (alpha - 1) << lead) if level == k else 0
        next_codes, next_ranks = [], []
        runs, holes = [0] * (2 * (level - 1) * top + 2), [0] * (level * top + 1)
        prefixes = zip(codes, ranks)
        for c, r in islice(prefixes, cut):
            lo = 1 if c & ones == top else 0  # no (n-1, 0) digit pair
            skip = top - (c >> lead)
            next_codes.extend(range((c << f) + lo, (c << f) + skip))
            next_codes.extend(range((c << f) + skip + 1, (c << f) + n))
            next_ranks.extend(range(r + top - lo, r + top - skip, -1))
            next_ranks.extend(range(r + top - skip - 1, r - 1, -1))
            runs[r + r + lo] += 1
            holes[r + top - skip] += 1
        for c, r in prefixes:
            lo = 1 if c & ones == top else 0
            c <<= f
            next_codes.extend(range(c + lo, c + n))
            next_ranks.extend(range(r + top - lo, r - 1, -1))
            runs[r + r + lo] += 1
        codes, ranks = next_codes, next_ranks
    diff = [0] * (k * top + 2)
    for i, m in enumerate(runs):
        r, lo = divmod(i, 2)
        diff[r] += m
        diff[r + n - lo] -= m
    return codes, ranks, [d - h for d, h in zip(accumulate(diff), holes)]


def count_by_formula(n: int, k: int, alpha: int) -> int:
    """n^(k mod 2) times the row-k sign-alternating polynomial at n^2."""
    if k < 0:
        raise ExactError(f"k must be nonnegative (got {k})")
    if n <= alpha:
        raise ExactError(f"n must exceed alpha (got n={n}, alpha={alpha})")
    params = GibParams.of(alpha, 1)
    value = sign_alternating_poly(params, k)(Fraction(n * n))
    value = value * (n if k % 2 == 1 else 1)
    if value.denominator != 1:
        raise ExactError("count formula produced a non-integer")
    return int(value)


def _blocks(k: int, subset_mask: int):
    """Split coordinates 1..k into maximal runs chained by forced adjacencies."""
    blocks = []
    start = 1
    for pos in range(1, k):
        if not subset_mask & (1 << (pos - 1)):  # adjacency pos not forced
            blocks.append((start, pos))
            start = pos + 1
    blocks.append((start, k))
    return blocks


def _block_count(n: int, k: int, u: int, v: int, first, last) -> int:
    """Number of start values for a forced run T_u, T_u+1, ..., T_u+(v-u).

    The run must keep every coordinate inside its window; fixing T_1 or T_k
    pins the start value when the run touches that end.
    """
    lo = (v - 1) * n + 1 - (v - u)
    hi = u * n
    pinned = None
    if u == 1 and first is not None:
        pinned = first
    if v == k and last is not None:
        val = last - (v - u)
        if pinned is not None and pinned != val:
            return 0
        pinned = val
    if pinned is not None:
        return 1 if lo <= pinned <= hi else 0
    return max(0, hi - lo + 1)


def _count_no_successors(n: int, k: int, first=None, last=None) -> int:
    """Tuples meeting the window and no-successor rules, by inclusion-exclusion
    over which adjacencies are forced to fail."""
    total = 0
    for mask in range(1 << (k - 1)):
        prod = 1
        for u, v in _blocks(k, mask):
            prod *= _block_count(n, k, u, v, first, last)
            if prod == 0:
                break
        total += -prod if bin(mask).count("1") % 2 else prod
    return total


def count_by_inclusion_exclusion(n: int, k: int, alpha: int) -> int:
    """Independent count: no-successor tuples minus the forbidden end pairs."""
    if k < 0:
        raise ExactError(f"k must be nonnegative (got {k})")
    if n <= alpha:
        raise ExactError(f"n must exceed alpha (got n={n}, alpha={alpha})")
    if k == 0:
        return alpha
    base = _count_no_successors(n, k)
    if k >= 2:
        for x, y in _forbidden_end_pairs(n, k, alpha):
            base -= _count_no_successors(n, k, first=x, last=y)
    return base


def rank_generating_function(poset: SGPoset) -> Poly:
    """Coefficient of q^r counts the elements of rank r.  A built poset reads
    the counts its enumeration made from its rank runs and visits no
    element; any other poset counts its ranks once."""
    return Poly.from_ints(poset._rank_counts)


def q_integer(m: int) -> Poly:
    """1 + q + ... + q^(m-1)."""
    return Poly([1] * m)


def is_palindromic(p: Poly) -> bool:
    return p.ints == p.ints[::-1]


def _rule_member(digits, n: int, alpha: int) -> bool:
    """Whether a digit string is a member by the digit rules: every digit in
    [0, n), no adjacent pair (n-1, 0) and, for k >= 2, no end pair with
    d_1 <= alpha-2 and d_1 + d_k = n-1.  O(k)."""
    top = n - 1
    return (
        all(0 <= d <= top for d in digits)
        and not any(a == top and b == 0 for a, b in zip(digits, digits[1:]))
        and not (len(digits) >= 2 and digits[0] <= alpha - 2 and digits[0] + digits[-1] == top)
    )


def _minimal_strings(n: int, k: int, alpha: int) -> list:
    """Digit strings of the minimal elements of the built poset (n, k, alpha),
    k >= 1: the members with no digit that can be raised.

    A digit n-1 cannot be raised, and raising a smaller one breaks a rule
    only through a pair it sits in.  So a middle digit is n-1, or n-2
    followed by a 0; d_1 is n-1, n-2 (followed by a 0) or at most alpha-3
    (the raise meets a forbidden end pair); d_k is n-1, or n-2-d_1 when
    d_1 <= alpha-2.  For each d_1 a backward pass keeps the middle digits
    that lead on to an allowed d_k, so the search below meets no dead end,
    where a blind product of the middle candidates would grow as 2^(k-2).
    Each candidate is confirmed by the rule test on it and on each one-digit
    raise.
    """
    top = n - 1

    def step(d, e):  # a middle d before e: (d, e) allowed and d not raisable
        return e != 0 if d == top else d == top - 1 and e == 0

    found = []
    firsts = {top} if k == 1 else {top, top - 1, *range(alpha - 2)}
    for first in firsts:
        reach = [()] * k  # reach[j]: the digits at j that lead on to a d_k
        reach[k - 1] = (top, top - 1 - first) if first <= alpha - 2 else (top,)
        for j in range(k - 2, 0, -1):
            reach[j] = tuple(d for d in (top, top - 1) if any(step(d, e) for e in reach[j + 1]))
        stack = [(first,)]
        while stack:
            prefix = stack.pop()
            j = len(prefix)
            if j == k:
                found.append(prefix)
                continue
            d = prefix[-1]
            for e in reach[j]:
                if step(d, e) if j > 1 else not (d == top and e == 0):
                    stack.append(prefix + (e,))
    return [
        ds
        for ds in found
        if _rule_member(ds, n, alpha)
        and not any(
            d < top and _rule_member(ds[:j] + (d + 1,) + ds[j + 1 :], n, alpha)
            for j, d in enumerate(ds)
        )
    ]


def _rule_extremes(n: int, k: int, alpha: int) -> tuple:
    """(minimal, maximal) codes of the built poset (n, k, alpha), k >= 1, in
    ascending order, from the digit rules alone: no code is visited.

    The map d -> (n-1-d_k, ..., n-1-d_1) takes members to members (an
    adjacent pair (a, b) becomes (n-1-b, n-1-a), which is (n-1, 0) exactly
    when (a, b) is, and an end pair with d_1 + d_k = n-1 maps to itself)
    and a one-digit raise into a one-digit lowering, so the maximal strings
    are the images of the minimal ones.
    """
    f, top = _width(n), n - 1
    minimal = _minimal_strings(n, k, alpha)
    maximal = [[top - d for d in reversed(ds)] for ds in minimal]
    return sorted(_packed(ds, f) for ds in minimal), sorted(_packed(ds, f) for ds in maximal)


def _greedy_end(c: int, member, steps: list) -> int:
    """Follow covers from c, taking the first step that stays a member,
    until none does."""
    while True:
        for w in steps:
            if member(c + w):
                c += w
                break
        else:
            return c


def _keeps_member(ds: list, j: int, e: int, top: int, alpha: int) -> bool:
    """Whether the member digit string ds stays a member with d_j set to e.
    Only the digit range, the pairs (d_(j-1), d_j) and (d_j, d_(j+1)) against
    (n-1, 0) and, for an end digit of a string of two or more, the end rule
    can break, so only those are tested."""
    last = len(ds) - 1
    if not 0 <= e <= top or (j > 0 and e == 0 and ds[j - 1] == top):
        return False
    if j < last and e == top and ds[j + 1] == 0:
        return False
    if last == 0 or 0 < j < last:
        return True
    first, end = (e, ds[last]) if j == 0 else (ds[0], e)
    return not (first <= alpha - 2 and first + end == top)


def _rule_walk(poset: SGPoset, code: int, step: int) -> int:
    """The end of the greedy cover path from a member code of a built poset
    that moves one digit by `step` (-1 lowers, +1 raises) at a time, taking
    the first digit from d_1 whose move keeps a member (`_keeps_member`),
    until none does: the path `_greedy_end` follows over a code set.  The
    path is walked on the digit list.  A move of d_j changes only the tests
    of its neighbours and, through the end rule, of the other end digit, so
    a digit before d_(j-1) that could not move still cannot: the scan
    resumes at d_(j-1), or at d_1 after d_k moved."""
    alpha, f = poset.alpha, _width(poset.n)
    top, last, ones = poset.n - 1, poset.k - 1, (1 << f) - 1
    ds = [(code >> s) & ones for s in range(f * last, -1, -f)]
    j = 0
    while j <= last:
        if _keeps_member(ds, j, ds[j] + step, top, alpha):
            ds[j] += step
            j = 0 if j == last else max(j - 1, 0)
        else:
            j += 1
    return _packed(ds, f)


def is_connected(poset: SGPoset) -> bool:
    """Connectivity of the underlying Hasse graph.

    Every element descends along covers to a minimal element, so the graph
    is connected when one minimal or one maximal element exists, or when
    greedy cover paths from each extreme element to one on the other side
    join all the extremes: the paths are Hasse paths, so that certificate is
    sound.  A built poset takes its extremes from the digit rules and walks
    each path on a digit list (`_rule_walk`), re-testing only the rules that
    touch the moved digit, so it builds no code set; any other code set
    tests each step's code in its set.  Only when the paths leave the
    extremes apart (or codes repeat, as the k = 0 antichain's do) does the
    exact union-find sweep decide."""
    if poset.built:
        walk = partial(_rule_walk, poset)
    elif len(poset._members) == poset.size:
        member, weights = poset._members.__contains__, _weights(poset)

        def walk(c: int, step: int) -> int:
            return _greedy_end(c, member, [step * w for w in weights])

    else:
        return _swept(poset)
    minimal, maximal = poset._extremes
    if len(minimal) == 1 or len(maximal) == 1:
        return True
    parent = {c: c for c in minimal + maximal}  # an isolated element is both
    components = len(parent)
    for ends, step in ((minimal, -1), (maximal, 1)):
        for c in ends:
            a, b = c, walk(c, step)
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            if a != b:
                parent[b] = a
                components -= 1
    return components <= 1 or _swept(poset)


def _swept(poset: SGPoset) -> bool:
    """Connectivity by union-find with path halving over every cover pair,
    read from the codes without storing them.  Every pair (i, j) has i < j;
    putting the root of j under the root of i keeps the roots at small
    indices and the paths short."""
    parent = list(range(poset.size))
    components = poset.size
    for i, j in _covers(poset):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        if i != j:
            parent[j] = i
            components -= 1
    return components <= 1


@dataclass(frozen=True)
class LatticeReport:
    distributive: bool
    maximal_count: int
    minimal_count: int
    witness: Optional[tuple] = None  # a pair whose meet or join escapes


def _joins(x: int, ys: list, guards: int, f: int) -> list:
    """Componentwise max of the digit code x with each code in ys.

    Setting the guard bits of x and subtracting y leaves a field's guard bit
    set exactly where x's digit is at least y's, and no borrow crosses a
    field; the guard bits then widen into a mask that picks x's digits there
    and y's elsewhere.  The componentwise min of x and y is x ^ y ^ max.
    """
    xg, ones = x | guards, (1 << f) - 1
    return [y ^ ((x ^ y) & ((((xg - y) & guards) >> (f - 1)) * ones)) for y in ys]


def check_lattice(poset: SGPoset) -> LatticeReport:
    """Closure of every pair under componentwise min and max, plus extreme
    element counts.

    When build_poset made the poset (its mark, `SGPoset.built`), the codes are
    exactly the strings of (n, k, alpha) and the digit relations decide
    (`_relation_rows`).  A conjunction of relations each closed under
    componentwise max and min is closed too (Jeavons and Cooper, "Tractable
    constraints on ordered domains", Artificial Intelligence 79, 1995), so
    if they are closed the poset is a sublattice of a product of chains,
    hence distributive, and no pair is visited.  If not, two member strings
    s and t whose join or meet is missing bound the pairwise scan: it stops
    by row min(index(s), index(t)), and its first failing pair is the
    reported witness, the pair the full scan would report.  Any other code
    set, such as a subset or a copy of a built poset, gets the full scan.
    LATTICE_PAIR_BUDGET guards only the scan, charged as rows times size for
    a bounded scan and as all N(N-1)/2 pairs for a full one.
    """
    if poset.k == 0:
        return LatticeReport(poset.alpha == 1, poset.size, poset.size)
    return _scan_lattice(poset, _relation_rows(poset) if poset.built else None)


def _broken_pairs(forbidden: set, n: int):
    """(u, v) for each forbidden digit pair f that is the componentwise max
    or min of two allowed pairs u and v, taking the lowest such u and v.

    The relation is closed under max and min exactly when nothing is
    yielded: f = max(u, v) needs u = (f_1, x) with x < f_2 and v = (y, f_2)
    with y < f_1, since neither may be f itself, and f = min(u, v) the same
    with x > f_2 and y > f_1.  That is O(|F| n) membership tests.
    """
    for f1, f2 in sorted(forbidden):
        for xs, ys in ((range(f2), range(f1)), (range(f2 + 1, n), range(f1 + 1, n))):
            x = next((x for x in xs if (f1, x) not in forbidden), None)
            y = next((y for y in ys if (y, f2) not in forbidden), None)
            if x is not None and y is not None:
                yield (f1, x), (y, f2)


def _relation_rows(poset: SGPoset) -> Optional[int]:
    """Rows of the pairwise scan that decide the lattice check of a built
    poset: 0 when the digit relations are closed, None when they cannot
    decide.

    The strings form the subset of the product of k digit chains cut out by
    two binary relations: adjacent digits avoid (n-1, 0), and the end pair
    (d_1, d_k) avoids d_1 <= alpha-2 with d_1 + d_k = n-1.  The adjacency
    relation is always closed: a max equal to (n-1, 0) needs a second digit
    below 0, a min one a first digit above n-1.  So the end relation
    decides, conjoined with the adjacency relation when k = 2, where both
    act on the one pair.  For k = 1 there is no relation.

    When the end relation is not closed, each broken pair (u, v) is extended
    to strings s = (u_1, 0, ..., 0, u_2) and t = (v_1, 0, ..., 0, v_2): the
    first digits of a broken pair are at most alpha-1 < n-1, so no adjacent
    pair is (n-1, 0).  Lookups in the sorted codes confirm that s and t are
    members and that their join or meet is not.  The pair (s, t) then fails
    on row min(index(s), index(t)) of the scan, so that many rows plus one
    suffice; the least such bound is returned.
    """
    n, k, codes = poset.n, poset.k, poset.codes
    forbidden = {(a, n - 1 - a) for a in range(poset.alpha - 1)}
    if k == 2:
        forbidden.add((n - 1, 0))
    broken = list(_broken_pairs(forbidden, n)) if k >= 2 else []
    if not broken:
        return 0
    f = _width(n)

    def index(digits):
        code = _packed(digits, f)
        i = bisect_left(codes, code)
        return i if i < len(codes) and codes[i] == code else None

    bounds, middle = [], (0,) * (k - 2)
    for u, v in broken:
        s, t = (u[0], *middle, u[1]), (v[0], *middle, v[1])
        i, j = index(s), index(t)
        if None in (i, j) or None not in (index(map(max, s, t)), index(map(min, s, t))):
            continue
        bounds.append(min(i, j) + 1)
    return min(bounds, default=None)


def _scan_lattice(poset: SGPoset, rows: Optional[int] = None) -> LatticeReport:
    """The pairwise check over the first `rows` rows (all of them when None):
    row i tests code i against every later code, stopping at the first pair
    whose meet or join is missing, which is reported as the witness."""
    size = poset.size
    pairs = size * (size - 1) // 2 if rows is None else rows * size
    if pairs > LATTICE_PAIR_BUDGET:
        raise ExactError(
            f"lattice check of {size:,} elements needs up to {pairs:,} pairs, "
            f"over the pair budget of {LATTICE_PAIR_BUDGET:,}"
        )
    codes, f = poset.codes, _width(poset.n)
    guards = sum(1 << (f * pos + f - 1) for pos in range(poset.k))
    minimal, maximal = map(len, poset._extremes)
    members = poset._members if rows != 0 else None  # a closed verdict builds no set
    for i, x in enumerate(codes[:rows]):
        tail = codes[i + 1 :]
        joins = _joins(x, tail, guards, f)
        meets = [x ^ y ^ z for y, z in zip(tail, joins)]
        if members.issuperset(meets) and members.issuperset(joins):
            continue
        j = next(
            j
            for j, meet, join in zip(range(i + 1, size), meets, joins)
            if meet not in members or join not in members
        )
        return LatticeReport(False, maximal, minimal, tuple(_decoded(poset, [x, codes[j]])))
    return LatticeReport(True, maximal, minimal)


# ---------------------------------------------------------------------------
# the symmetric triangle and its row polynomials
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def _triangle_rows(alpha: int, n: int, k: int) -> tuple:
    """Row k of the (alpha; n) triangle as a tuple of its regular entries.

    Entry i sits at row index 2i - k(n-1), so the row covers the indices
    -k(n-1), -k(n-1)+2, ..., k(n-1); everything else is zero.  Row 0 is
    (alpha,), row 1 is n ones, and entry i of row l is the sum of entries
    i-(n-1) .. i of row l-1 minus entry i-(n-1) of row l-2.
    """
    if alpha < 1 or n < 2 or k < 0:
        raise ExactError("need alpha >= 1, n >= 2, k >= 0")
    entries = (n - 1) * k * (k + 1) // 2 + k  # rows 1..k
    if entries > TRIANGLE_ENTRY_BUDGET:
        raise ExactError(
            f"triangle row {k} of ({alpha}; {n}) needs {entries:,} entries, "
            f"over the entry budget of {TRIANGLE_ENTRY_BUDGET:,}"
        )
    if k == 0:
        return (alpha,)
    prev2, row = (alpha,), (1,) * n
    zeros = (0,) * (n - 1)
    for _ in range(k - 1):
        sums = (0, *accumulate(zeros + row + zeros))  # window sums by prefix sums
        prev2, row = row, tuple(
            sums[i + n] - sums[i] - below for i, below in enumerate(zeros + prev2 + zeros)
        )
    return row


def triangle_row(alpha: int, n: int, k: int) -> list:
    """Regular entries of row k, listed for ascending row index."""
    return list(_triangle_rows(alpha, n, k))


def triangle_polynomial(alpha: int, n: int, k: int) -> Poly:
    """Row k read as a polynomial: entry i (row index 2i - k(n-1)) is the
    coefficient of q^(k(n-1) - i), so the constant term sits at the right
    edge of the row."""
    return Poly(reversed(_triangle_rows(alpha, n, k)))


# ---------------------------------------------------------------------------
# the identity suite
# ---------------------------------------------------------------------------


@dataclass
class IdentityReport:
    alpha: int
    n: int
    k_max: int
    failures: list  # (identity-name, k)
    cardinalities: list  # poset sizes for k = 0..k_max

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_identity_suite(alpha: int, n: int, k_max: int) -> IdentityReport:
    """Run the five rank-polynomial identities and the cardinality recurrence
    with its Binet closed form (`polys.binet_eval`), for every k up to k_max."""
    if n <= alpha:
        raise ExactError(f"n must exceed alpha (got n={n}, alpha={alpha})")
    if k_max < 2:
        raise ExactError("k_max must be at least 2")
    failures = []
    qn = q_integer(n)
    qshift = Poly.x_power(n - 1)

    A = {k: triangle_polynomial(alpha, n, k) for k in range(k_max + 1)}
    A1 = {k: triangle_polynomial(1, n, k) for k in range(k_max + 1)}
    H = {k: rank_generating_function(build_poset(n, k, alpha)) for k in range(k_max + 1)}
    H1 = {k: rank_generating_function(build_poset(n, k, 1)) for k in range(k_max + 1)}

    # The expansion of the general-seed rank polynomial over the unit family
    # carries the correction alpha * q^(n-1) * H1_{k-2}: each of the alpha-1
    # forbidden end pairs removes a q^(n-1)-weighted copy of the shorter
    # family, and fixing the first coordinate at its window top removes one
    # more through the no-successor rule.  (Writing the correction as
    # ([n]-[n-alpha]) * H1_{k-2} instead matches this only at q = 1 or for
    # alpha = 1; tests/test_posets.py keeps that variant as an oracle.)
    for k in range(2, k_max + 1):
        if A[k] != qn * A[k - 1] - qshift * A[k - 2]:
            failures.append(("triangle-recurrence", k))
        if H1[k] != A1[k]:
            failures.append(("unit-rgf-equals-triangle", k))
        correction = qshift.scale(alpha)
        if H[k] != qn * H1[k - 1] - correction * H1[k - 2]:
            failures.append(("rgf-from-unit-family", k))
        if H[k] != qn * H[k - 1] - qshift * H[k - 2]:
            failures.append(("rgf-recurrence", k))
        if H[k] != A[k]:
            failures.append(("rgf-equals-triangle", k))

    sizes = {}
    sizes["triangle"] = [int(A[k](1)) for k in range(k_max + 1)]
    sizes["formula"] = [count_by_formula(n, k, alpha) for k in range(k_max + 1)]
    sizes["poset"] = [int(H[k](1)) for k in range(k_max + 1)]
    seeds = GibParams.of(alpha, 1)
    closed = [n ** (k % 2) * binet_eval(seeds, k, n * n) for k in range(k_max + 1)]
    for name, seq in sizes.items():
        if seq[0] != alpha or seq[1] != n:
            failures.append((f"{name}-initial-values", 0))
        for k in range(2, k_max + 1):
            if seq[k] != n * seq[k - 1] - seq[k - 2]:
                failures.append((f"{name}-cardinality-recurrence", k))
        for k in range(k_max + 1):
            if seq[k] != closed[k]:
                failures.append((f"{name}-closed-form", k))

    return IdentityReport(alpha, n, k_max, failures, sizes["poset"])


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def poset_to_json(poset: SGPoset) -> dict:
    return {
        "n": poset.n,
        "k": poset.k,
        "alpha": poset.alpha,
        "elements": [list(t) for t in poset.elements],
        "ranks": list(poset.ranks),
        "hasse_edges": [list(e) for e in poset.hasse_edges],
    }


def poset_to_dot(poset: SGPoset) -> str:
    """Hasse diagram in DOT form with one layer per rank."""
    lines = ["digraph poset {", "  rankdir=BT;", "  node [shape=plaintext];"]
    names = {
        i: '"' + ",".join(str(c) for c in t) + '"' if t else f'"e{i}"'
        for i, t in enumerate(poset.elements)
    }
    by_rank = {}
    for i, r in enumerate(poset.ranks):
        by_rank.setdefault(r, []).append(i)
    for r in sorted(by_rank):
        row = " ".join(f"{names[i]};" for i in by_rank[r])
        lines.append(f"  {{ rank=same; {row} }}")
    for cover, covered in poset.hasse_edges:
        lines.append(f"  {names[covered]} -> {names[cover]};")
    lines.append("}")
    return "\n".join(lines)


def triangle_row_csv(alpha: int, n: int, k: int) -> str:
    """Two-column CSV 'r,entry' over the regular indices of row k."""
    span = k * (n - 1)
    lines = ["r,entry"]
    for i, entry in enumerate(_triangle_rows(alpha, n, k)):
        lines.append(f"{2 * i - span},{entry}")
    return "\n".join(lines)

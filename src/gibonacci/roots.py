"""Certified real roots of sign-alternating Gibonacci polynomials.

Root sets lie inside (0, B) where B is the exact rational bound 4 (seed
ratio <= 2) or ratio^2/(ratio-1) (ratio > 2).  Each root is bracketed
before any bisection, seed-free.  With F_m the unit-seed row m, whose roots
are 2 + 2cos(2j pi/(m+1)), every row splits as
P_k = x^((k-1) mod 2) * beta * F_{k-1} - alpha * F_{k-2}
(`polys.fibonacci_decomposition_holds`), and by the root geometry of Gross,
Mansour, Tucker and Wang ("Root geometry of polynomial sequences I", J.
Combin. Theory Ser. A 129, 2015) each root of P_k lies alone in a bracket
from a root of F_{k-1} to the next root of F_{k-2} (from 0 for the first
root of an even row, up to B for the last).  So the narrow gaps
(2 + 2cos(2j pi/(k-1)), 2 + 2cos(2j pi/k)), j = 1..floor(k/2) - 1, hold no
root, and `_cut_points` puts the coarsest dyadic rational in each.  A cut
set is certified on P_k alone: P_k has degree floor(k/2) and its signs at 0,
the cuts and B strictly alternate, so each of the floor(k/2) pieces holds
exactly one simple root.  The number of roots up to a point x is then the
number of cuts below x plus one if P_k(x) already has the sign at the end of
x's piece: one bisect and one sign, which `roots_of` hands to the bisection
of `exactnum._isolate` in place of a Sturm count.
Each root set is certified again on its isolating intervals, by degree and
sign changes (`roots_of`).
Interlacing of consecutive root sets is the claim that their expected
interleaving is strictly increasing; `exactnum.rational_between` orders each
adjacent pair on the roots' kept integer boxes, with no floating point.

The closed trigonometric root forms of the unit-seed and (2,1)-seed families
are one identity, 4cos^2(a) = 2 + 2cos(2a): the unit-seed roots
4cos^2(j pi/(k+1)) are 2 + 2cos(2j pi/(k+1)); the (2,1)-seed angle
j pi/k - pi/2^(r+1), k = 2^r d with d odd and j = (d + 2l - 1)/2, is
(2l - 1) pi/(2k) as d/k = 2^-r, so those roots are 2 + 2cos((2l - 1) pi/k).
Both are rational enclosures of 2 + 2cos(s pi): pi comes from a Machin
arctangent combination with an alternating-series error bound, cosine from a
Taylor sum with a Lagrange remainder, and square roots from integer isqrt
with directed rounding.  The pi and cosine enclosures are rounded outward to
the dyadic grid 2^-(bits+4), so they stay certified while every later
comparison works on small dyadic rationals instead of series sums with huge
denominators.
A closed-form enclosure is matched to its root by `root_in`: two exact
signs of the row polynomial at the ends of the overlap of enclosure and
isolating interval, never by refinement or by equality of approximations.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exactnum import (
    AlgebraicNumber,
    ExactError,
    Interval,
    _isolate,
    _separation_bits,
    _sign_at_point,
    rational,
    rational_between,
)
from .polys import GibParams, sign_alternating_poly

DEFAULT_ENCLOSURE_BITS = 128


@dataclass(frozen=True)
class RootBound:
    """Exact supremum of the positive roots, with the regime that set it."""

    value: Fraction
    regime: str  # "ratio<=2" or "ratio>2"


def bound_B(params: GibParams) -> RootBound:
    """4 when alpha/beta <= 2, else (alpha/beta)^2/(alpha/beta - 1)."""
    r = params.ratio
    if r <= 2:
        return RootBound(Fraction(4), "ratio<=2")
    return RootBound(r * r / (r - 1), "ratio>2")


@dataclass(frozen=True)
class RootSet:
    """All positive real roots of row k, ascending, each certified isolated."""

    k: int
    params: GibParams
    roots: tuple

    @property
    def count(self) -> int:
        return len(self.roots)


@lru_cache(maxsize=256)
def _cut_points(k: int) -> tuple:
    """The floor(k/2) - 1 cut points of row k, ascending: in each root-free
    gap (2 + 2cos(2j pi/(k-1)), 2 + 2cos(2j pi/k)), j = 1..floor(k/2) - 1,
    the coarsest dyadic rational strictly inside its enclosed ends.

    The same for every seed pair.  The gaps are about 8 pi^2/k^3 wide at the
    ends of (0, 4) and wider inside, and the enclosures at 3*bitlen(k) + 8
    bits are narrower than k^-3/256, so they leave room for a cut point.
    """
    bits = 3 * k.bit_length() + 8
    cuts = []
    for j in range((k - 2) // 2, 0, -1):
        lo = _two_plus_two_cos(Fraction(2 * j, k - 1), bits).hi
        hi = _two_plus_two_cos(Fraction(2 * j, k), bits).lo
        if lo >= hi:
            raise ExactError(f"row {k}: gap {j} is narrower than its enclosures")
        s = 0  # the least s with an integer m, lo < m/2^s < hi
        while (m := (lo.numerator << s) // lo.denominator + 1) * hi.denominator >= hi.numerator << s:
            s += 1
        cuts.append(Fraction(m, 1 << s))
    return tuple(cuts)


@lru_cache(maxsize=128)
def roots_of(params: GibParams, k: int) -> RootSet:
    """Isolate the floor(k/2) distinct positive roots of the row-k polynomial.

    P_k is signed once at 0, at the cut points (`_cut_points`) and at B.
    The cuts are certified when P_k has degree floor(k/2) and those signs
    strictly alternate: each piece then holds one simple root and P_k has
    no other.  So the number of roots above x is known from the piece of x
    and one sign of P_k at x, the count that the bisection runs on; it is
    the count a Sturm sequence gives, so the bisection visits the points
    and returns the intervals that the row-sequence count does.  Every sign
    is taken once and kept.  P_k alone then certifies the intervals: it
    changes sign over each of the floor(k/2) disjoint intervals (the
    lower-end sign is the one each root keeps), so each holds one simple
    root.  A cut set that fails its certificate raises ExactError.
    """
    if k < 2:
        raise ExactError("root sets are defined for k >= 2")
    p = sign_alternating_poly(params, k)
    ints = p.ints
    bound = bound_B(params).value
    expected = k // 2
    cuts = _cut_points(k)
    ends = (Fraction(0), *cuts, bound)
    sign = {}  # (n, d) -> sign of P_k at n/d

    def sign_at(n: int, d: int) -> int:
        if (v := sign.get((n, d))) is None:
            v = sign[n, d] = _sign_at_point(ints, n, d)
        return v

    def sign_of(x: Fraction) -> int:
        return sign_at(x.numerator, x.denominator)

    end_signs = [sign_of(x) for x in ends]
    if end_signs[0] == 0 or end_signs[-1] == 0:
        raise ExactError(f"row {k} vanishes at an end of the window (0, {bound})")
    if not (
        p.degree == expected
        and len(ends) == expected + 1
        and all(a < b for a, b in zip(ends, ends[1:]))
        and all(u * v < 0 for u, v in zip(end_signs, end_signs[1:]))
    ):
        raise ExactError(f"row {k}: the cut points do not split (0, {bound}) into {expected} sign changes")

    # the cuts as integers over their common denominator, for an integer bisect
    scale = math.lcm(*(c.denominator for c in cuts))
    scaled = [c.numerator * (scale // c.denominator) for c in cuts]

    def roots_above(x: Fraction):
        n, d = x.numerator, x.denominator
        q, r = divmod(n * scale, d)
        # i - 1 cuts lie below x: x lies in (ends[i-1], ends[i]]
        i = (bisect_right if r else bisect_left)(scaled, q) + 1
        v = sign_at(n, d)
        return None if v == 0 else expected - i + (v != end_signs[i])

    intervals = _isolate(roots_above, Fraction(0), bound, _separation_bits(ints))
    roots = [AlgebraicNumber(p, iv, sign_of(iv.lo)) for iv in intervals]
    if len(intervals) != expected or not (
        all(sign_of(iv.lo) * sign_of(iv.hi) < 0 for iv in intervals)
        and all(a.hi <= b.lo for a, b in zip(intervals, intervals[1:]))
    ):
        raise ExactError(f"row {k} intervals are not certified by degree and sign changes")
    # enclosures strictly inside (0, bound): only the rim intervals can touch
    bn, bd = bound.numerator, bound.denominator
    roots[0] = roots[0].bisected(lambda a, b, den: a > 0)
    roots[-1] = roots[-1].bisected(lambda a, b, den: b * bd < bn * den)
    return RootSet(k, params, tuple(roots))


def largest_root(params: GibParams, k: int) -> AlgebraicNumber:
    """The maximal element of the row-k root set."""
    return roots_of(params, k).roots[-1]


def check_interlacing(a: RootSet, b: RootSet) -> str:
    """Classify how root set `a` interlaces root set `b`.

    Returns "both-sides" (a has one more root and they strictly alternate
    starting and ending with a), "right" (equal sizes, alternating with a's
    roots on the right), or "none".
    """
    if a.params != b.params:
        raise ExactError("root sets come from different seed pairs")
    if a.k not in (b.k + 1, b.k + 2):
        raise ExactError("interlacing is checked for row offsets 1 and 2")
    lead = a.count - b.count  # 1: a_0 comes first, 0: b_0 does
    order = [*a.roots[:lead], *(r for pair in zip(b.roots, a.roots[lead:]) for r in pair)]
    if lead in (0, 1) and all(rational_between(x, y) is not None for x, y in zip(order, order[1:])):
        return "both-sides" if lead else "right"
    return "none"


# ---------------------------------------------------------------------------
# directed-rounding enclosures: sqrt, pi, cos
# ---------------------------------------------------------------------------


def sqrt_enclosure(x, bits: int = DEFAULT_ENCLOSURE_BITS) -> Interval:
    """Rational interval of width <= 2^-bits containing sqrt(x), x >= 0."""
    x = rational(x)
    if x < 0:
        raise ExactError("square root of a negative rational")
    n, d = x.numerator, x.denominator
    scaled = n * d << (2 * bits)
    r = math.isqrt(scaled)
    lo = Fraction(r, d << bits)
    if r * r == scaled:
        return Interval(lo, lo)
    return Interval(lo, Fraction(r + 1, d << bits))


def interval_sqrt(iv: Interval, bits: int = DEFAULT_ENCLOSURE_BITS) -> Interval:
    """Outer enclosure of sqrt over a nonnegative interval."""
    return Interval(sqrt_enclosure(iv.lo, bits).lo, sqrt_enclosure(iv.hi, bits).hi)


def _round_out(lo: tuple, hi: tuple, grid: int) -> Interval:
    """Smallest interval on the dyadic grid 2^-grid that contains [lo, hi],
    each end given as (numerator, denominator > 0)."""
    (ln, ld), (hn, hd) = lo, hi
    return Interval(
        Fraction((ln << grid) // ld, 1 << grid), Fraction(-((-hn << grid) // hd), 1 << grid)
    )


def _arctan_inv_enclosure(x: int, bits: int) -> Interval:
    """Enclosure of arctan(1/x) for integer x >= 2 (alternating series)."""
    target = Fraction(1, 1 << bits)
    total = Fraction(0)
    n = 0
    while True:
        term = Fraction(1, (2 * n + 1) * x ** (2 * n + 1))
        if term < target:
            # partial sums bracket the limit within the first omitted term
            return Interval(total - term, total + term)
        total += term if n % 2 == 0 else -term
        n += 1


@lru_cache(maxsize=64)
def pi_enclosure(bits: int = DEFAULT_ENCLOSURE_BITS) -> Interval:
    """Machin: pi = 16 arctan(1/5) - 4 arctan(1/239), outward rounded to the
    dyadic grid 2^-(bits+4); the width stays below 2^-bits."""
    a = _arctan_inv_enclosure(5, bits + 8)
    b = _arctan_inv_enclosure(239, bits + 8)
    lo, hi = 16 * a.lo - 4 * b.hi, 16 * a.hi - 4 * b.lo
    return _round_out(lo.as_integer_ratio(), hi.as_integer_ratio(), bits + 4)


@lru_cache(maxsize=100_000, typed=True)  # typed: a float never hits an equal Fraction's entry
def cos_pi_enclosure(t: Fraction, bits: int = DEFAULT_ENCLOSURE_BITS) -> Interval:
    """Dyadic enclosure of cos(t*pi) for rational t in [0, 1/2], width <= 2^-bits.

    One Taylor pass at x = t * pi_lo = p/q, summed in integers over the
    common denominator q^(2n) (2n)!, stops when the next term, which bounds
    the remainder, is below 2^-w, w = bits + 16.  The angle t*pi lies in
    [x, x + t * width(pi)], where cos falls with slope at most 1; rounding
    outward to the grid 2^-(bits+4) adds 2^-(bits+3), so the width stays
    below 2.5 * 2^-w + 2^-(bits+3) < 2^-bits.
    """
    t = rational(t)
    if not 0 <= t <= Fraction(1, 2):
        raise ExactError("argument must lie in [0, 1/2] turns of pi")
    work = bits + 16
    pi_iv = pi_enclosure(work)
    x = t * pi_iv.lo
    p2, q2 = x.numerator ** 2, x.denominator ** 2
    total = term = den = 1  # partial sum and next term, both over den
    n = 0
    while True:
        n += 1
        step = (2 * n - 1) * (2 * n) * q2
        total, term, den = total * step, term * p2, den * step
        if term << work < den:
            break
        total += term if n % 2 == 0 else -term
    sn, sd = (t * pi_iv.width).as_integer_ratio()
    iv = _round_out(((total - term) * sd - sn * den, den * sd), (total + term, den), bits + 4)
    if iv.width > Fraction(1, 1 << bits):
        raise ExactError(f"cos({t}*pi) enclosure is wider than 2^-{bits}")
    return iv


def _two_plus_two_cos(s: Fraction, bits: int) -> Interval:
    """Enclosure of 2 + 2cos(s*pi) of width <= 2^-bits, s in [0, 1]."""
    c = cos_pi_enclosure(min(s, 1 - s), bits + 1)
    if s > Fraction(1, 2):  # cos(s*pi) = -cos((1 - s)*pi); cos_pi_enclosure takes [0, 1/2]
        c = Interval(-c.hi, -c.lo)
    return Interval(2 + 2 * c.lo, 2 + 2 * c.hi)


def fibonacci_closed_roots(k: int, bits: int = DEFAULT_ENCLOSURE_BITS) -> list:
    """Enclosures of 4cos^2(j*pi/(k+1)) = 2 + 2cos(2j*pi/(k+1)),
    j = floor(k/2)..1, ascending."""
    if k < 2:
        raise ExactError("closed root forms start at k = 2")
    return [_two_plus_two_cos(Fraction(2 * j, k + 1), bits) for j in range(k // 2, 0, -1)]


def lucas_closed_roots(k: int, bits: int = DEFAULT_ENCLOSURE_BITS) -> list:
    """Enclosures of the (2,1)-seed roots 4cos^2(j*pi/k - pi/2^(r+1)), k = 2^r * d
    with d odd, j = (d + 2l - 1)/2, which are 2 + 2cos((2l - 1)*pi/k),
    l = floor(k/2)..1, ascending."""
    if k < 2:
        raise ExactError("closed root forms start at k = 2")
    return [_two_plus_two_cos(Fraction(2 * l - 1, k), bits) for l in range(k // 2, 0, -1)]


def root_in(root: AlgebraicNumber, target: Interval) -> bool:
    """Whether the root's value lies in the closed interval `target`.

    The root is simple and the only root of its defining polynomial in its
    enclosure, whose ends are not roots; so it lies in the overlap [a, b] of
    enclosure and target iff the polynomial does not keep one strict sign
    there, which two exact signs decide.
    """
    e = root.enclosure
    a, b = max(e.lo, target.lo), min(e.hi, target.hi)
    if a > b:
        return False
    p = root.defining
    return p.sign_at(a) * p.sign_at(b) <= 0


def match_closed_forms(rootset: RootSet, enclosures: list) -> bool:
    """Each closed-form enclosure must capture exactly its isolated root."""
    if len(enclosures) != rootset.count:
        return False
    return all(root_in(r, iv) for r, iv in zip(rootset.roots, enclosures))

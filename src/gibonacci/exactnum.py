"""Exact scalar and polynomial arithmetic over the rationals.

Everything in the verified path is exact: scalars are `fractions.Fraction`
(arbitrary-precision, always in lowest terms with positive denominator),
polynomials are a positive rational content times a primitive integer
coefficient vector, and real algebraic numbers are (defining polynomial,
isolating interval) pairs whose interval holds exactly one root, a simple
one, of the defining polynomial.

Root isolation is bisection on a count of the roots above a point
(`_isolate` takes it as a callable): the sign variations of a Sturm
sequence, or for a row polynomial its certified cut points and one sign
(see `roots`).  For an arbitrary polynomial the sequence is its Sturm
chain, normalized to primitive integer coefficient vectors (positive
content divided out after each signed pseudo-remainder step) so that sign
evaluation at a rational point n/d reduces to integer arithmetic.

A `Poly` has one form, content * ints, and its arithmetic runs on the ints:
a product convolves the two vectors (`_convolve`) with no gcd (Gauss's
lemma), a sum brings both over one scale, and euclidean division, the Sturm
chains, the gcd and the game's ring multiplier share one integer
pseudo-division kernel, `_pseudo_divmod`.  Every sign decision reads the
ints: `Poly.sign_at` evaluates only the integer numerator of p(n/d).
`Poly.__call__` runs its own Horner loop over them and builds one Fraction
with the content; the root intervals certified by `sign_at` are re-checked
through values.  Every refinement of an algebraic number runs one integer
bisection kernel, `_bisect`, over a denominator D*2^s: no Fraction, and one
sign per step, as the number holds the sign just below its root.  The
Horner loops of signs, values and interval ranges step the powers of such a
denominator as D^j << s*j (`_scaled_terms`).

Each algebraic number keeps one integer box, which its signs, decimals and
order all refine.  The sign of a polynomial at it is decided interval first
(`sign_at_algebraic`): integer interval Horner over the box settles every
nonzero sign.  When the box contains 0, a linear query costs one exact sign
of the defining polynomial at the query's root, and any other query bisects
three steps before it pays for the exact zero test (a gcd and its signs at
the two enclosure ends).  Two numbers are ordered by bisecting their boxes
until one lies below the other (`rational_between`).

Every exact real prints by one decimal rule (`_decimal_at`): the value
f(theta) is enclosed by the same interval Horner, theta's box is bisected
until the enclosure holds at most one rounding boundary, and one exact sign
at that boundary settles ends that still round apart.  An algebraic number
is the rule with f = x, a ring element the rule with f = its polynomial.

Membership has one rule: a simple root isolated in an enclosure whose ends
are not roots lies in an interval iff the defining polynomial does not keep
one strict sign across their overlap.  The checked `AlgebraicNumber`
constructor refuses defining polynomials that are not square-free.

Algebraic extensions have one representation, the quotient ring Q[t]/(m)
(`NumberRing`, `RingElement`): the Binet closed forms compute in
Q[t]/(t^2 - d) and the game at a largest root in Q[t]/(P_k).  A ring
element's sign and decimal are those of its polynomial at a designated real
root of m, by the algebraic-number sign and the one decimal rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate, count, repeat
from operator import mul
from typing import Callable, Iterable, Optional, Sequence, Union

RationalLike = Union[Fraction, int]


class ExactError(ValueError):
    """Base class for domain errors raised by this package."""


class EndpointRootError(ExactError):
    """An interval endpoint is a root; the caller must perturb it."""


def rational(value) -> Fraction:
    """Coerce an int, Fraction, or 'num/den' string to a Fraction.

    Decimal literals are rejected: exactness is a package-wide guarantee and
    silently converting floats would break it.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ExactError("floating-point input rejected; use num/den")
    if isinstance(value, str):
        text = value.strip()
        if "." in text or "e" in text or "E" in text:
            raise ExactError(f"decimal literal rejected: {value!r}; use num/den")
        if "_" in text:
            raise ExactError(f"bad rational literal: {value!r}")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ExactError(f"bad rational literal: {value!r}") from exc
    raise ExactError(f"cannot interpret {value!r} as a rational")


def format_rational(x: Fraction) -> str:
    """Serialize as 'num/den' (canonical zero is '0/1')."""
    return f"{x.numerator}/{x.denominator}"


def check_digits(digits: int) -> None:
    """Refuse a significant-digit count below 1."""
    if digits < 1:
        raise ExactError(f"digits must be at least 1 (got {digits})")


def decimal_str(x: Fraction, digits: int = 30) -> str:
    """Round x to `digits` significant decimal digits, half-away-from-zero."""
    check_digits(digits)
    if x == 0:
        return "0"
    sign = "-" if x < 0 else ""
    n, d = abs(x.numerator), x.denominator
    # exponent e with 10^e <= n/d < 10^(e+1): the bit lengths put e within
    # one step, and integer comparisons settle it (no str() of n or d)
    e = (n.bit_length() - d.bit_length()) * 30103 // 100000
    while n * 10 ** max(-e, 0) < d * 10 ** max(e, 0):
        e -= 1
    while n * 10 ** max(-e - 1, 0) >= d * 10 ** max(e + 1, 0):
        e += 1
    shift = digits - 1 - e
    if shift >= 0:
        q, r = divmod(n * 10**shift, d)
    else:
        q, r = divmod(n, d * 10**-shift)
    if 2 * r >= d * (1 if shift >= 0 else 10**-shift):
        q += 1
    mant = str(q)
    if len(mant) > digits:  # rounding overflowed, e.g. 999.. -> 1000..
        mant = mant[:digits]
        e += 1
    if 0 <= e < digits:
        int_part = mant[: e + 1]
        frac_part = mant[e + 1 :].rstrip("0")
        return sign + int_part + ("." + frac_part if frac_part else "")
    if -6 < e < 0:
        frac = ("0" * (-e - 1) + mant).rstrip("0")
        return sign + "0." + frac
    tail = mant[1:].rstrip("0")
    return sign + mant[0] + ("." + tail if tail else "") + f"e{e}"


class Poly:
    """Dense univariate polynomial over Q, held as content * ints.

    `ints[i]` is the integer coefficient of x^i: the entries have gcd 1, the
    last one is nonzero and the signs are the polynomial's own, so `content`
    is a positive Fraction.  The zero polynomial is (1, ()).  The split is
    unique, so equal polynomials have equal fields; `coeffs` builds the
    Fraction coefficients when it is read.
    """

    __slots__ = ("content", "ints")

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [c if isinstance(c, (int, Fraction)) else rational(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        self._set(*_canonical([c.numerator * (den // c.denominator) for c in cs], Fraction(1, den)))

    def _set(self, content: Fraction, ints: tuple) -> "Poly":
        object.__setattr__(self, "content", content)
        object.__setattr__(self, "ints", ints)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def from_ints(cls, ints: Iterable[int], content: RationalLike = 1) -> "Poly":
        """content * (ints[0] + ints[1] x + ...) for any integers and a nonzero content."""
        return object.__new__(cls)._set(*_canonical(list(ints), content))

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls([c])

    @classmethod
    def x_power(cls, n: int, c=1) -> "Poly":
        return cls([0] * n + [c])

    @property
    def coeffs(self) -> tuple:
        """The Fraction coefficients, constant term first, built on each read."""
        return tuple(self.content * c for c in self.ints)

    @property
    def degree(self) -> int:
        return len(self.ints) - 1

    @property
    def is_zero(self) -> bool:
        return not self.ints

    @property
    def leading(self) -> Fraction:
        if not self.ints:
            raise ExactError("zero polynomial has no leading coefficient")
        return self.content * self.ints[-1]

    def __eq__(self, other):
        return isinstance(other, Poly) and self.ints == other.ints and self.content == other.content

    def __hash__(self):
        return hash((self.content, self.ints))

    def __neg__(self) -> "Poly":
        return _poly(self.content, tuple(-c for c in self.ints))

    def __add__(self, other: "Poly") -> "Poly":
        """Over one scale: (other.content / kb) * (ka*A + kb*B), ka/kb = self.content / other.content."""
        r = self.content / other.content
        ka, kb = r.numerator, r.denominator
        a, b = self.ints, other.ints
        if len(a) < len(b):
            a, b, ka, kb = b, a, kb, ka
        out = [ka * c for c in a]
        for i, c in enumerate(b):
            out[i] += kb * c
        return Poly.from_ints(out, other.content / r.denominator)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        """Convolution of the two integer vectors, with no gcd: by Gauss's lemma
        a product of primitive vectors is primitive."""
        a, b = self.ints, other.ints
        if not a or not b:
            return Poly()
        content = self.content * other.content
        if len(a) < len(b):
            a, b = b, a
        if not any(b[:-1]):  # b is x^n or -x^n: shift a
            return _poly(content, (0,) * (len(b) - 1) + (a if b[-1] == 1 else tuple(-c for c in a)))
        return _poly(content, tuple(_convolve(a, b)))

    def scale(self, c) -> "Poly":
        c = rational(c)
        if not c or not self.ints:
            return Poly()
        return _poly(self.content * abs(c), self.ints if c > 0 else tuple(-a for a in self.ints))

    def __divmod__(self, other: "Poly"):
        """Exact euclidean division over Q by `_pseudo_divmod`: lc^t * A = q*B + r on
        the two int vectors gives the remainder content/lc^t * r and the quotient
        content/(lc^t * other.content) * q."""
        q, r, t = _pseudo_divmod(self.ints, other.ints)
        c = self.content / other.ints[-1] ** t
        return Poly.from_ints(q, c / other.content), Poly.from_ints(r, c)

    def __mod__(self, other: "Poly") -> "Poly":
        _, r, t = _pseudo_divmod(self.ints, other.ints)
        return Poly.from_ints(r, self.content / other.ints[-1] ** t)

    def __call__(self, x) -> Fraction:
        """Exact value at a rational point x = n/d, by integer Horner.

        p(n/d) = content * sum(ints_i * n^i * d^(deg-i)) / d^deg.  The sum is
        an integer Horner loop over d = D*2^s (`_scaled_terms`), and the one
        Fraction built at the end with the content costs one gcd.  The loop
        is its own, not the sign route's (`_sign_at_point`), so values
        re-check `sign_at`.
        """
        if type(x) is not Fraction:
            x = rational(x)
        ints = self.ints
        if not ints:
            return Fraction(0)
        n, (odd, s), deg = x.numerator, _odd_part(x.denominator), len(ints) - 1
        acc = 0
        for c, shift in _scaled_terms(ints, odd, s):
            acc = acc * n + (c << shift)
        return Fraction(acc * self.content.numerator, (odd**deg << s * deg) * self.content.denominator)

    def sign_at(self, x: RationalLike) -> int:
        """Exact sign of p(x) at a rational point, in integer arithmetic."""
        return _sign_at_point(self.ints, x.numerator, x.denominator)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self):
        return poly_to_text(self)


def _poly(content: Fraction, ints: tuple) -> Poly:
    """A Poly from fields that are already canonical."""
    return object.__new__(Poly)._set(content, ints)


def _convolve(a: Sequence[int], b: Sequence[int]) -> list:
    """The product of two nonempty integer coefficient vectors."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                out[j] += ca * cb
    return out


def _canonical(ints: list, content: RationalLike) -> tuple:
    """(content, ints) of content * ints: trailing zeros dropped, and the gcd of
    the ints and the sign of the content moved into the content."""
    while ints and not ints[-1]:
        ints.pop()
    g = math.gcd(*ints)
    if not g:
        return Fraction(1), ()
    if content < 0:
        g = -g
    return Fraction(content) * g, tuple(ints) if g == 1 else tuple(c // g for c in ints)


def poly_to_text(p: Poly, var: str = "x") -> str:
    """Render like 'x^3 - 7x^2 + 14x - 7'."""
    if p.is_zero:
        return "0"
    parts = []
    coeffs = p.coeffs
    for i in range(p.degree, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        mag = abs(c)
        mag_s = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
        if i == 0:
            term = mag_s
        else:
            xpart = var if i == 1 else f"{var}^{i}"
            term = xpart if mag == 1 else f"{mag_s}{xpart}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


def poly_from_strings(items: Sequence[str]) -> Poly:
    """Parse the JSON wire form: rational strings, constant term first."""
    return Poly(items)


def poly_to_strings(p: Poly) -> list:
    return [format_rational(c) for c in p.coeffs]


# ---------------------------------------------------------------------------
# integer pseudo-division and the polynomial gcd over Q
# ---------------------------------------------------------------------------


def _pseudo_divmod(f: Sequence[int], g: Sequence[int]) -> tuple:
    """Integer pseudo-division: (q, r, t) with lc(g)^t * f = q*g + r, deg r < deg g.

    A step multiplies by lc(g) only when lc(g) does not divide the leading
    term, so t counts the multiplications and can be below
    deg f - deg g + 1; the Sturm construction needs the exact sign of the
    factor that was applied.  r carries no trailing zeros.
    """
    if not g:
        raise ExactError("division by the zero polynomial")
    rem, quot = list(f), [0] * max(len(f) - len(g) + 1, 0)
    lg, dg = g[-1], len(g) - 1
    times = 0
    while len(rem) > dg:
        lead = rem[-1]
        if lead:
            c, m = divmod(lead, lg)
            if m:
                rem, quot, c = [x * lg for x in rem], [x * lg for x in quot], lead
                times += 1
            shift = len(rem) - 1 - dg
            quot[shift] = c
            for j in range(dg):
                rem[shift + j] -= c * g[j]
        rem.pop()
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem, times


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q, computed on primitive integer parts.

    Content is divided out after every pseudo-remainder step, which keeps the
    coefficient growth of the remainder sequence polynomial rather than
    exponential.
    """
    f, g = a.ints, b.ints
    if len(f) < len(g):
        f, g = g, f
    while g:
        f, g = g, _canonical(_pseudo_divmod(f, g)[1], 1)[1]
    return Poly.from_ints(f, Fraction(1, f[-1])) if f else Poly()


# ---------------------------------------------------------------------------
# Sturm chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """Closed rational interval [lo, hi] with lo <= hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ExactError(f"interval endpoints out of order: {self.lo} > {self.hi}")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def to_json(self) -> list:
        return [format_rational(self.lo), format_rational(self.hi)]

    @classmethod
    def from_json(cls, data) -> "Interval":
        lo, hi = data
        return cls(rational(lo), rational(hi))


def _odd_part(d: int) -> tuple:
    """(D, s) with d = D * 2^s and D odd, for d > 0."""
    s = (d & -d).bit_length() - 1
    return d >> s, s


def _scaled_terms(int_coeffs: Sequence[int], odd: int, s: int):
    """The pairs (c_j * D^j, s*j), j = 0, 1, ..., for the coefficients c_j
    of an integer polynomial from the top down, at a denominator D * 2^s.

    Horner at n/(D*2^s) adds c_j * (D*2^s)^j = (c_j * D^j) << s*j.  Every
    point that bisection and the dyadic cut points reach has a small D (1 on
    a dyadic grid, 33 under the bound 196/33), so the factors D^j stay small,
    2^(s*j) is a shift, and no full power of the denominator is multiplied.
    """
    if odd == 1:
        return zip(reversed(int_coeffs), count(0, s))
    return zip(map(mul, reversed(int_coeffs), _odd_powers(odd, len(int_coeffs))), count(0, s))


@lru_cache(maxsize=64)
def _odd_powers(odd: int, length: int) -> tuple:
    """D^0, ..., D^(length-1): one bisection or box refinement reads them at
    every step, as its denominators D*2^s keep one odd part D."""
    return tuple(accumulate(repeat(odd, length - 1), mul, initial=1))


def _sign_at_point(int_coeffs: Sequence[int], n: int, d: int) -> int:
    """Sign of an integer-coefficient polynomial at the point n/d, d > 0.

    Only the integer numerator sum(c_i * n^i * d^(deg-i)) is evaluated, over
    `_scaled_terms`; the denominator d^deg is positive and cannot change the
    sign.
    """
    acc = 0
    for c, shift in _scaled_terms(int_coeffs, *_odd_part(d)):
        acc = acc * n + (c << shift)
    return (acc > 0) - (acc < 0)


def _common_box(iv: Interval) -> tuple:
    """(a, b, den): the endpoints of iv as a/den and b/den, den > 0."""
    lo, hi = iv.lo, iv.hi
    den = lo.denominator * hi.denominator // math.gcd(lo.denominator, hi.denominator)
    return lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator), den


def _box(theta: "AlgebraicNumber") -> tuple:
    """theta's kept integer box (a, b, den), or its enclosure's."""
    return theta._kept or _common_box(theta.enclosure)


def _bisect(int_coeffs: Sequence[int], below: int, a: int, b: int, den: int, stop=None, steps=None) -> tuple:
    """Bisect the root of int_coeffs isolated in (a/den, b/den]; returns (a, b, den).

    `below` is the sign of int_coeffs at every lower end a box keeps, as the
    root is simple and alone in it.  A step takes the integer sign at the
    midpoint (a+b)/(2den), one sign per step, and keeps the lower half unless
    it is `below`.  A midpoint that is the root gives the point box (m, m, den).
    """
    taken = 0
    while taken != steps and not (stop is not None and stop(a, b, den)):
        taken += 1
        m = a + b
        a, b, den = a << 1, b << 1, den << 1
        sign_m = _sign_at_point(int_coeffs, m, den)
        if sign_m == 0:
            return m, m, den
        if sign_m == below:
            a = m
        else:
            b = m
    return a, b, den


def _box_range(int_coeffs: Sequence[int], a: int, b: int, den: int) -> tuple:
    """(lo, hi) enclosing den^deg times an integer polynomial over [a/den, b/den].

    Integer interval Horner on the numerator sum(c_i * x^i * den^(deg-i)) for
    x in [a, b], over `_scaled_terms`.  The polynomial keeps one strict sign
    over the box when lo > 0 or hi < 0.  A point box (a == b) is evaluated
    exactly (lo == hi).
    """
    terms = _scaled_terms(int_coeffs, *_odd_part(den))
    lo = hi = next(terms)[0]
    for c, shift in terms:
        if a >= 0:
            if lo >= 0:
                lo, hi = lo * a, hi * b
            elif hi <= 0:
                lo, hi = lo * b, hi * a
            else:
                lo, hi = lo * b, hi * b
        else:
            ends = (lo * a, lo * b, hi * a, hi * b)
            lo, hi = min(ends), max(ends)
        t = c << shift
        lo += t
        hi += t
    return lo, hi


@lru_cache(maxsize=64)
def sturm_chain(p: Poly) -> tuple:
    """Sturm chain of p as primitive integer coefficient tuples.

    Each step takes the negated signed pseudo-remainder and divides out the
    positive integer content; both operations preserve the sign-variation
    property the chain is used for.
    """
    f = p.ints
    if len(f) <= 1:
        return (f,) if f else ()
    chain = [f, _canonical([i * c for i, c in enumerate(f)][1:], 1)[1]]
    while len(chain[-1]) > 1:
        prev, cur = chain[-2], chain[-1]
        _, r, times = _pseudo_divmod(prev, cur)
        if not r:
            break
        # r = lc(cur)^times * prev mod cur; divide the sign of that factor
        # back out so the chain entry is a positive multiple of -rem(prev, cur)
        flip = cur[-1] > 0 or times % 2 == 0
        chain.append(_canonical([-c if flip else c for c in r], 1)[1])
    return tuple(chain)


def _sign_changes(values: Iterable[int]) -> int:
    """Sign changes along a sequence of integers, zeros dropped."""
    signs = [v > 0 for v in values if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _variations(chain, x: Fraction) -> Optional[int]:
    """Sign variations of the integer polynomials of `chain` at x, or None
    where the first of them vanishes."""
    n, d = x.numerator, x.denominator
    signs = [_sign_at_point(c, n, d) for c in chain]
    return _sign_changes(signs) if signs[0] else None


def sturm_count(p: Poly, iv: Interval) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi].

    Raises EndpointRootError if either endpoint is itself a root, in which
    case the caller should perturb the endpoint by a small rational.
    """
    if p.is_zero:
        raise ExactError("root counting needs a nonzero polynomial")
    if p.degree < 1:
        return 0
    if p.sign_at(iv.lo) == 0 or p.sign_at(iv.hi) == 0:
        raise EndpointRootError(f"endpoint of {iv} is a root; perturb and retry")
    chain = sturm_chain(p)
    return _variations(chain, iv.lo) - _variations(chain, iv.hi)


def isolate_real_roots(p: Poly, within: Interval) -> list:
    """Isolating intervals, one per distinct real root of p inside `within`.

    Returned intervals are half-open (lo, hi], pairwise disjoint, sorted
    ascending, and each has Sturm count exactly 1.  Endpoints of `within`
    that happen to be roots are nudged inward first, so roots exactly at the
    boundary are excluded (the callers in this package always pass open
    bounds that are provably not roots).
    """
    if p.is_zero:
        raise ExactError("cannot isolate roots of the zero polynomial")
    if p.degree < 1:
        return []
    lo, hi = within.lo, within.hi
    shrink = 2
    while p.sign_at(lo) == 0:
        lo = lo + (hi - lo) / 2**shrink
        shrink += 1
    shrink = 2
    while p.sign_at(hi) == 0:
        hi = hi - (hi - lo) / 2**shrink
        shrink += 1
    if lo >= hi:
        return []
    chain = sturm_chain(p)
    return _isolate(partial(_variations, chain), lo, hi, _separation_bits(chain[0]))


def _separation_bits(int_coeffs: Sequence[int]) -> int:
    """s with distinct real roots of the integer polynomial p more than 2^-s
    apart: Mahler's bound sqrt(3) d^(-(d+2)/2) M(Q)^(1-d) on the square-free
    part Q of p, with M(Q) <= M(p) (the step behind Mignotte's factor bound)
    and M(p) <= ||p||_2 (Landau), so repeated roots are covered too."""
    d = len(int_coeffs) - 1
    norm_bits = (sum(c * c for c in int_coeffs).bit_length() + 1) // 2  # >= log2 ||p||_2
    return (d + 2) * d.bit_length() // 2 + 1 + (d - 1) * norm_bits


def _isolate(
    variations: Callable[[Fraction], Optional[int]], lo: Fraction, hi: Fraction, sep_bits: int
) -> list:
    """Sorted intervals (a, b], one per root of p in (lo, hi].

    `variations(x)` is the number of roots of p above x up to a constant,
    as the sign-variation count of a Sturm sequence gives it (the generic
    chain, or for a row polynomial the count from its cut points), or None
    where p(x) = 0; lo and hi are not roots.  A split
    point that is a root is moved left by (b-a)/2^s for s = 2, 3, ...;
    p has finitely many roots, so this stops.

    An interval's depth d keeps its width at most (hi-lo)/2^d: only the right
    piece of a moved split keeps its parent's depth.  Distinct roots of p
    are more than 2^-sep_bits apart, so a count of two or more at the depth
    where that width falls below 2^-sep_bits is wrong: ExactError.
    """
    deep = sep_bits + math.ceil(hi - lo).bit_length()
    out = []
    stack = [(lo, hi, variations(lo), variations(hi), 0)]
    while stack:
        a, b, va, vb, depth = stack.pop()
        n = va - vb
        if n == 0:
            continue
        if n == 1:
            out.append(Interval(a, b))
            continue
        if depth >= deep:
            raise ExactError(f"an interval narrower than 2^-{sep_bits} counts {n} roots")
        m, shrink = (a + b) / 2, 2
        while (vm := variations(m)) is None:
            m = (a + b) / 2 - (b - a) / 2**shrink
            shrink += 1
        stack.append((a, m, va, vm, depth + 1))
        stack.append((m, b, vm, vb, depth + (shrink == 2)))
    out.sort(key=lambda iv: iv.lo)
    return out


# ---------------------------------------------------------------------------
# real algebraic numbers
# ---------------------------------------------------------------------------


class AlgebraicNumber:
    """A real algebraic number: square-free defining polynomial + enclosure.

    The enclosure either holds exactly one (simple) root of `defining`, at
    neither end, or is a point [r, r] when the number is rational.  `_below`
    is the sign of `defining` just below the root, at the lower end of every
    box that isolates it (a point never reads it); a maker that knows it
    passes it.  Otherwise the constructor computes it, then refuses any
    other enclosure or a defining polynomial that is not square-free (a
    Sturm chain not ending in a constant).  `enclosure` never changes; the
    tightest enclosure computed for signs, decimals and order is kept, as
    integer endpoints (a, b, den) over one common denominator, inside
    `enclosure`, isolating the same root, and only shrinking.
    """

    __slots__ = ("defining", "enclosure", "_below", "_kept")

    def __init__(self, defining: Poly, enclosure: Interval, _below: Optional[int] = None):
        if _below is None:
            _below = defining.sign_at(enclosure.lo)
            if enclosure.lo == enclosure.hi:
                if _below != 0:
                    raise ExactError("point enclosure is not a root of the defining polynomial")
            elif sturm_count(defining, enclosure) != 1:
                raise ExactError("enclosure does not isolate exactly one root")
            if defining.is_zero or len(sturm_chain(defining)[-1]) != 1:
                raise ExactError("defining polynomial is not square-free")
        object.__setattr__(self, "defining", defining)
        object.__setattr__(self, "enclosure", enclosure)
        object.__setattr__(self, "_below", _below)
        object.__setattr__(self, "_kept", None)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraicNumber is immutable")

    @classmethod
    def from_rational(cls, r) -> "AlgebraicNumber":
        r = rational(r)
        return cls(Poly([-r, 1]), Interval(r, r), 0)

    @property
    def is_rational(self) -> bool:
        return self.enclosure.lo == self.enclosure.hi

    @property
    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise ExactError("not a rational point")
        return self.enclosure.lo

    def bisected(self, stop=None, steps=None) -> "AlgebraicNumber":
        """A new number, bisected by the integer kernel `_bisect`.

        The enclosure is held as integer endpoints a/den < b/den over one
        common denominator den = D*2^s (see `_bisect`).  Bisection stops as
        soon as stop(a, b, den) holds, after `steps` steps, or when a
        midpoint is the root itself (the enclosure then collapses to that
        point).  The Interval is built once, when the loop stops.
        """
        if self.is_rational:
            return self
        box = _common_box(self.enclosure)
        a, b, den = _bisect(self.defining.ints, self._below, *box, stop, steps)
        return AlgebraicNumber(
            self.defining, Interval(Fraction(a, den), Fraction(b, den)), self._below
        )

    def refined(self) -> "AlgebraicNumber":
        """Halve the enclosure: one step of the bisection kernel."""
        return self.bisected(steps=1)

    def decimal(self, digits: int = 30) -> str:
        """The number to `digits` significant digits: `_decimal_at` with f = x."""
        return _decimal_at(Poly([0, 1]), self, digits)

    def to_json(self) -> dict:
        return {
            "defining": poly_to_strings(self.defining),
            "enclosure": self.enclosure.to_json(),
        }

    def __repr__(self):
        return f"AlgebraicNumber({self.defining!r}, [{self.enclosure.lo}, {self.enclosure.hi}])"


def sign_at_algebraic(p: Poly, theta: AlgebraicNumber) -> int:
    """Exact sign of p at the algebraic point theta: -1, 0, or +1.

    Interval first: p's primitive integer coefficients are evaluated by
    integer interval Horner over theta's kept enclosure (`_box_range`), and a
    box that excludes 0 is the sign.  When the box contains 0, a linear p
    compares theta with its root r, which then lies in the enclosure: the
    defining polynomial has the sign it has at the enclosure's lower end at
    r exactly when theta > r, and vanishes at r exactly when theta = r.  Any
    other p bisects the box with doubling step counts 1, 2, 4, ... until it
    excludes 0, and keeps the tighter box on theta.  After three steps zero
    is decided exactly, once: g = gcd(p, theta.defining) divides a
    square-free polynomial, so within the enclosure its only possible root
    is theta, a simple one, and theta is a root of p iff g changes sign
    across the enclosure; a zero keeps nothing on theta.  Otherwise the
    bisection ends, as p is continuous and p(theta) != 0.  No floating
    point and no Sturm chain of p is involved.
    """
    if p.is_zero:
        return 0
    if theta.is_rational:
        return p.sign_at(theta.rational_value)
    cs = p.ints
    box = _box(theta)
    lo, hi = _box_range(cs, *box)
    if lo <= 0 <= hi:
        defining = theta.defining
        if p.degree == 1:
            r = Fraction(-cs[0], cs[1])
            return (1 if cs[1] > 0 else -1) * defining.sign_at(r) * theta._below
        steps = 1
        while lo <= 0 <= hi:
            if steps == 4:
                g = poly_gcd(p, defining)
                if g.sign_at(theta.enclosure.lo) * g.sign_at(theta.enclosure.hi) < 0:
                    return 0
            box = _bisect(defining.ints, theta._below, *box, steps=steps)
            lo, hi = _box_range(cs, *box)
            steps *= 2
        object.__setattr__(theta, "_kept", box)
    return 1 if lo > 0 else -1


def _decimal_at(f: Poly, theta: AlgebraicNumber, digits: int) -> str:
    """f(theta) to `digits` significant digits, rounded as `decimal_str`
    rounds a rational: the string both ends of an enclosure of the value
    round to.

    The value is enclosed by integer interval Horner over theta's kept box,
    and the box is bisected until that enclosure excludes 0 and its width is
    at most 10^-digits of its smaller end's magnitude, so it holds at most
    one rounding boundary; the bisected box is kept on theta.  When the two
    ends still round apart, the boundary c is the midpoint of their two
    strings, and the exact sign of f - c at theta settles it: zero means the
    value is c, rounded exactly; otherwise the value rounds like the end on
    its side of c.
    """
    check_digits(digits)
    if sign_at_algebraic(f, theta) == 0:
        return "0"
    cs = f.ints
    scale = 10**digits

    def fine(a, b, den):
        lo, hi = _box_range(cs, a, b, den)
        return lo * hi > 0 and (hi - lo) * scale <= min(abs(lo), abs(hi))

    box = _bisect(theta.defining.ints, theta._below, *_box(theta), fine)
    object.__setattr__(theta, "_kept", box)
    unit = f.content / box[2] ** f.degree  # f over the box: unit * _box_range
    s_lo, s_hi = (decimal_str(unit * v, digits) for v in _box_range(cs, *box))
    if s_lo == s_hi:
        return s_lo
    c = (Fraction(s_lo) + Fraction(s_hi)) / 2
    sign_c = sign_at_algebraic(f - Poly.constant(c), theta)
    return decimal_str(c, digits) if sign_c == 0 else s_hi if sign_c > 0 else s_lo


SEPARATION_ROUNDS = 512


def _precedes(p: tuple, q: tuple) -> bool:
    """Whether the ends of the boxes p = (a, b, den) and q put p's root below
    q's: a root lies strictly inside a box that is not a point."""
    (pa, pb, pd), (qa, qb, qd) = p, q
    return pb * qd < qa * pd or (pb * qd == qa * pd and pa < pb and qa < qb)


def rational_between(x: AlgebraicNumber, y: AlgebraicNumber) -> Optional[Fraction]:
    """A rational strictly between x and y when x < y, None when y < x.

    The wider of the two kept integer boxes is bisected one `_bisect` step
    at a time until one box lies below the other, and both tighter boxes are
    kept.  The rational is the midpoint of the gap, or the boxes' shared end.
    Equal numbers never separate: ExactError after SEPARATION_ROUNDS steps.
    """
    bx, by = _box(x), _box(y)
    for _ in range(SEPARATION_ROUNDS):
        if _precedes(bx, by) or _precedes(by, bx):
            object.__setattr__(x, "_kept", bx)
            object.__setattr__(y, "_kept", by)
            (_, xb, xd), (ya, _, yd) = bx, by
            return Fraction(xb * yd + ya * xd, 2 * xd * yd) if _precedes(bx, by) else None
        if (bx[1] - bx[0]) * by[2] >= (by[1] - by[0]) * bx[2]:
            bx = _bisect(x.defining.ints, x._below, *bx, steps=1)
        else:
            by = _bisect(y.defining.ints, y._below, *by, steps=1)
    raise ExactError("enclosures refuse to separate; the two numbers may share a root")


# ---------------------------------------------------------------------------
# quotient rings Q[t]/(m)
# ---------------------------------------------------------------------------


class NumberRing:
    """Arithmetic in the quotient ring Q[t]/(defining).

    The defining polynomial need not be irreducible, so the ring need not
    be a field, and signs are answered at the designated real root theta of
    defining rather than by ring representation.  `RingElement.sign` and
    `RingElement.decimal` need theta; without it elements support ring
    arithmetic only.
    """

    def __init__(self, defining: Poly, theta: Optional[AlgebraicNumber] = None):
        if theta is not None and theta.defining != defining and sign_at_algebraic(defining, theta):
            raise ExactError("the designated root is not a root of the defining polynomial")
        self.defining = defining
        self.theta = theta

    def element(self, poly: Poly) -> "RingElement":
        return RingElement(self, poly % self.defining)

    def from_rational(self, r) -> "RingElement":
        return RingElement(self, Poly.constant(r))

    def generator(self) -> "RingElement":
        """The residue class of t (the designated root, when there is one)."""
        return self.element(Poly([0, 1]))

    def __repr__(self):
        return f"NumberRing({self.defining!r})"


@dataclass(frozen=True)
class RingElement:
    """Residue class of `poly` (reduced modulo the defining polynomial)."""

    ring: NumberRing
    poly: Poly

    def _coerce(self, other) -> "RingElement":
        if isinstance(other, RingElement):
            if other.ring is not self.ring and other.ring.defining != self.ring.defining:
                raise ExactError("elements of different rings")
            return other
        return RingElement(self.ring, Poly.constant(rational(other)))

    def __add__(self, other):
        other = self._coerce(other)
        return RingElement(self.ring, self.poly + other.poly)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return RingElement(self.ring, self.poly - other.poly)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return RingElement(self.ring, -self.poly)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):  # a rational multiple of a residue is reduced
            return RingElement(self.ring, self.poly.scale(other))
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.ring.element(self.poly * self._coerce(other).poly)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RingElement":
        """Square-and-multiply power, n >= 0."""
        if n < 0:
            raise ExactError("ring elements have nonnegative powers only")
        result, base = self.ring.from_rational(1), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def _theta(self) -> AlgebraicNumber:
        if self.ring.theta is None:
            raise ExactError("sign and decimal need a ring with a designated root")
        return self.ring.theta

    def sign(self) -> int:
        return sign_at_algebraic(self.poly, self._theta())

    @property
    def is_zero(self) -> bool:
        return self.poly.is_zero

    def decimal(self, digits: int = 30) -> str:
        """The value at the designated root: `_decimal_at` with f = poly."""
        return _decimal_at(self.poly, self._theta(), digits)

    def to_json(self):
        return {"coeffs": poly_to_strings(self.poly)}

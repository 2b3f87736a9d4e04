"""Gibonacci arrays and their sign-alternating row polynomials.

The two-seed right-triangular array starts with seeds alpha (row 0) and beta
(row 1); every later entry is the sum of the entry directly above and the
entry one row further up and one column left.  Attaching alternating signs to
row k and reading the entries as coefficients (highest power first) gives a
degree floor(k/2) polynomial; those polynomials satisfy the three-term
recurrence

    P_k = x^((k-1) mod 2) * P_{k-1} - P_{k-2},   P_0 = alpha, P_1 = beta.

`_next_row` is that one row step, and `_row_walk` runs it at a point x = n/d
scaled by `_row_scale`: on integers at a rational x, and on integer
coefficient vectors at a ring x, where n is the game's integer map for pq
(`game._split`).  The game's row scan, play's divergence certificate and
`GameConfig.g_hat` all read it.  Row k itself is built once,
by `_row`, in one exact integer pass over the closed binomial form of its
entries, so it needs no lower row: `array_rows` reads it unsigned and the
row polynomial signed, and `verify` checks the entry rule and the three-term
recurrence as exact identities between such rows.  Both refuse with a
one-line ExactError before any work: the array past ARRAY_ENTRY_BUDGET
entries, a row polynomial past row POLY_ROW_BUDGET.

The Binet-type closed form evaluates a row at x through the eigenvalues of
the step matrix, computed in the quotient ring Q[t]/(t^2 - (x^2 - 4x)); the
result is exact whether the discriminant is a rational square, irrational
or negative.  Its powers grow to about k times the bit size of x, so it
refuses past BINET_BIT_BUDGET before raising any.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count

from .exactnum import ExactError, NumberRing, Poly, rational

# Entries `array_rows` may compute (rows 0..k hold k*k//4 + k + 1).
ARRAY_ENTRY_BUDGET = 300_000
# Largest row index `sign_alternating_poly` builds.
POLY_ROW_BUDGET = 10_000
# Largest k times the bit size of x that `binet_eval` takes: about 2 s at the
# budget on a 2-vCPU VM, where k = 20,000 at x = 1/3 (60,000) takes 0.01 s.
BINET_BIT_BUDGET = 1_000_000


@dataclass(frozen=True)
class GibParams:
    """Strictly positive rational seeds for a Gibonacci array."""

    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", rational(self.alpha))
        object.__setattr__(self, "beta", rational(self.beta))
        if self.alpha <= 0 or self.beta <= 0:
            raise ExactError("seeds must be strictly positive")

    @property
    def ratio(self) -> Fraction:
        """alpha/beta, the single parameter the root geometry depends on."""
        return self.alpha / self.beta

    @classmethod
    def of(cls, alpha, beta) -> "GibParams":
        return cls(alpha, beta)


def _row(params: GibParams, k: int, sign: int = 1) -> list:
    """Entries e(k, 0), ..., e(k, k//2) of array row k times L, entry j times sign**j.

    One exact integer pass over the closed form
    e(k, j) = C(k-j-1, j-1)*alpha + C(k-j-1, j)*beta (k >= 1; row 0 is the
    seed alpha, and row -1 is empty): consecutive binomials differ by exact
    integer ratios, and the seeds are scaled by L = den(alpha)*den(beta).
    """
    a, b = params.alpha, params.beta
    sa, sb = a.numerator * b.denominator, b.numerator * a.denominator
    if k <= 0:
        return [sa] if k == 0 else []
    ca, cb = 0, 1  # C(k-j-1, j-1) and C(k-j-1, j) at j = 0
    row = [sb]
    for j in range(1, k // 2 + 1):
        ca = cb * (k - 2 * j + 1) // (k - j)
        cb = ca * (k - 2 * j) // j
        sa, sb = sign * sa, sign * sb
        row.append(ca * sa + cb * sb)
    return row


def array_rows(params: GibParams, count: int):
    """Rows 0..count-1 of the array, built one at a time; ExactError past
    ARRAY_ENTRY_BUDGET entries, before any row is built."""
    k = count - 1
    entries = k * k // 4 + k + 1
    if entries > ARRAY_ENTRY_BUDGET:
        raise ExactError(
            f"array row {k} needs {entries:,} entries, "
            f"over the entry budget of {ARRAY_ENTRY_BUDGET:,}"
        )
    scale = _row_scale(params, 1, 0)
    return ([Fraction(e, scale) for e in _row(params, j)] for j in range(count))


_X = Poly([0, 1])


def _next_row(x, l: int, prev, prev2):
    """The one row step, over any ring: row l at x from rows l-1 and l-2."""
    return (x * prev if l % 2 == 0 else prev) - prev2


def _row_scale(params: GibParams, d: int, j: int) -> int:
    """L * d^(j//2) with L = den(alpha) * den(beta), for x = n/d."""
    return params.alpha.denominator * params.beta.denominator * d ** (j // 2)


def _row_walk(params: GibParams, n, d: int, one=1):
    """V_0, V_1, ... with V_j = _row_scale(params, d, j) * row_j(n/d), made on demand.

    V_j = _next_row(n, j, V_{j-1}, V_{j-2} * d), from V_0 and V_1 as
    multiples of `one`: integers of the rows' signs at integers n and d, and
    integer coefficient vectors when n maps vectors to vectors and `one` is
    the unit vector (`game._split`).
    """
    a, b = params.alpha, params.beta
    prev2, prev = one * (a.numerator * b.denominator), one * (b.numerator * a.denominator)
    yield prev2
    for j in count(2):
        yield prev
        prev2, prev = prev, _next_row(n, j, prev, prev2 if d == 1 else prev2 * d)


# Callers such as root isolation ask for new rows all the time, and row size
# grows with k, so the memo is kept small to hold memory flat.
@lru_cache(maxsize=256)
def _sa_poly_cached(params: GibParams, k: int) -> Poly:
    return Poly.from_ints(_row(params, k, -1)[::-1], Fraction(1, _row_scale(params, 1, 0)))


def sign_alternating_poly(params: GibParams, k: int) -> Poly:
    """Row k read with alternating signs, highest power first;
    ExactError past POLY_ROW_BUDGET."""
    if k < -1:
        raise ExactError("row index must be at least -1")
    if k > POLY_ROW_BUDGET:
        raise ExactError(f"row {k} is over the row budget of {POLY_ROW_BUDGET:,}")
    return _sa_poly_cached(params, k)


def fibonacci_decomposition_holds(params: GibParams, k: int) -> bool:
    """Check  P_k = x^((k-1) mod 2) * beta * F_{k-1} - alpha * F_{k-2},

    where F_m is the unit-seed ((1,1)) polynomial of the same family.
    """
    if k < 2:
        raise ExactError("decomposition identity needs k >= 2")
    unit = GibParams.of(1, 1)
    f1 = sign_alternating_poly(unit, k - 1).scale(params.beta)
    f2 = sign_alternating_poly(unit, k - 2).scale(params.alpha)
    return sign_alternating_poly(params, k) == _next_row(_X, k, f1, f2)


def companion_poly(ratio: Fraction, k: int) -> Poly:
    """The companion sequence V_k = V_{k-1} + x V_{k-2}, V_0 = 1, V_1 = 1 + rx.

    Reversing coefficients with alternating signs maps member k-1 of this
    sequence onto the sign-alternating polynomial of row k (seed ratio r).
    """
    ratio = rational(ratio)
    if ratio <= 0:
        raise ExactError("seed ratio must be positive")
    if k < 0:
        raise ExactError("index must be nonnegative")
    prev2, prev = Poly([ratio]), Poly([1])  # V_{-1} = r makes V_1 = 1 + rx
    for _ in range(k):
        prev2, prev = prev, prev + _X * prev2
    return prev


def reciprocal_transform_holds(ratio: Fraction, k: int) -> bool:
    """Check that x^floor(k/2) * V_{k-1}(-1/x) equals the row-k polynomial."""
    if k < 2:
        raise ExactError("transform identity needs k >= 2")
    w = companion_poly(ratio, k - 1)
    d = k // 2
    if w.degree != d:
        return False
    transformed = [Fraction(0)] * (d + 1)
    for i, c in enumerate(w.coeffs):
        transformed[d - i] = c if i % 2 == 0 else -c
    target = sign_alternating_poly(GibParams(ratio, Fraction(1)), k)
    return Poly(transformed) == target


def eigen_pair(x) -> tuple:
    """Eigenvalues (lam, kap) of the step matrix at input x.

    They are (x - 2 + t)/2 and (x - 2 - t)/2 in Q[t]/(t^2 - (x^2 - 4x)), so
    lam*kap = 1 and lam + kap = x - 2 exactly, whether x^2 - 4x is a
    rational square, a non-square or zero.
    """
    x = rational(x)
    ring = NumberRing(Poly([4 * x - x * x, 0, 1]))
    half = Fraction(1, 2)
    return ring.element(Poly([(x - 2) * half, half])), ring.element(Poly([(x - 2) * half, -half]))


def binet_eval(params: GibParams, k: int, x) -> Fraction:
    """Evaluate the row-k polynomial at x through the eigenvalue closed form.

    The numerator is odd in t (swapping lam and kap negates it) and the
    denominator kap - lam is -t, so the value is minus the numerator's t
    coefficient; the constant part must cancel, and that is checked.  This
    holds at the repeated eigenvalue too (x = 0 or 4, where t^2 = 0).
    ExactError, before any power, where k times the bit size of x passes
    BINET_BIT_BUDGET.
    """
    if k < 0:
        raise ExactError("row index must be nonnegative")
    x = rational(x)
    bits = x.numerator.bit_length() + x.denominator.bit_length()
    if k * bits > BINET_BIT_BUDGET:
        raise ExactError(
            f"binet row {k} at x of {bits} bits needs {k * bits:,} row-bits, "
            f"over the bit budget of {BINET_BIT_BUDGET:,}"
        )
    alpha, beta = params.alpha, params.beta
    m = k // 2
    lam, kap = eigen_pair(x)
    if k % 2 == 0:
        num = lam**m * ((kap + 1) * alpha - x * beta) - kap**m * ((lam + 1) * alpha - x * beta)
    else:
        num = lam**m * (alpha - (lam + 1) * beta) - kap**m * (alpha - (kap + 1) * beta)
    const, odd = (num.poly.coeffs + (Fraction(0), Fraction(0)))[:2]
    if const != 0:
        raise ExactError("closed form left an irrational component")
    return -odd


def value_at_four(params: GibParams, k: int) -> Fraction:
    """Row polynomial evaluated at 4 via the closed linear-in-ratio form."""
    if k < 0:
        raise ExactError("row index must be nonnegative")
    ratio = params.ratio
    m = k // 2
    if k % 2 == 0:
        unit_value = -(2 * m - 1) * ratio + 4 * m
    else:
        unit_value = -m * ratio + (2 * m + 1)
    return params.beta * unit_value

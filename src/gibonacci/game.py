"""Two-node seeded numbers game with exact arithmetic.

Node values live in one of three worlds, all exact:

  * plain rationals, when the product of the two multipliers is rational;
  * the quotient ring Q[t]/(P_k) of `exactnum` (`RingElement`), with the
    largest root of row k as its designated root, when the multiplier
    product equals that (typically irrational) root;
  * linear forms c_a*a + c_b*b over formal nonnegative start values, used to
    verify whole families of games at once.

Sign decisions are never numeric guesses: rationals compare directly, ring
elements go through the exact sign of a polynomial at an algebraic point
(an integer interval box over the root's kept enclosure, bisected while it
holds 0, with a gcd zero test after three steps), and linear forms are
signed when both coefficients agree (a mixed form means the outcome
genuinely depends on the start pair, which callers treat as an error).

Play runs on the pair (u, w) with w = v/p, where g1 maps it to (-u, u + w)
and g2 to (u + pq*w, -w): a firing knows only the product pq, the one number
the game's fate depends on.  The pair is held as (U, W, S) with one positive
scale S, so u = U/S and w = W/S, and `_step` fires without a gcd.  In a
rational game pq is split as (numerator, denominator) and U, W and S are
integers.  In a ring game U and W are integer coefficient vectors of degree
below deg m, for m the primitive integer form of the ring's defining
polynomial, and pq is split as (`_RingMultiplier`, d): pq*W reduced mod m by
integer pseudo-division with a fixed factor, over one integer d per game (at
a largest root, d = |lc(m)|).  Linear forms split pq as (pq, 1) and keep
S = 1.  Legality and strategies read the signs of U and W (p > 0), one per
move: the fired value is negated, so only the other one is signed, for a
ring vector by interval Horner over the root's kept box with the exact sign
as the fallback.  A `Firing` builds u and v = p*W/S only when they are read.

Row values at pq come from the row walk `polys._row_walk` that the root
counts of `roots` read: scaled integers at a rational pq, ring elements at a
largest root.  `_scan` keeps the first non-positive row, its sign and rows
k-1 and k over one positive scale in the frozen config's instance dict, so
classify, predicted_moves and terminal_numbers share one scan; the margins
are homogeneous in the two rows, and only terminal_numbers divides by the
scale.  Near the bound B the crossing row grows like 1/sqrt(B - pq), so the
scan stops with a one-line ExactError past GAME_ROW_BUDGET rows.
Move-count predictions hold for seeds with alpha >= beta only; below that
the count depends on the strategy, and the predictions refuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import islice, pairwise
from math import lcm
from typing import Optional, Sequence, Union

from .exactnum import (
    AlgebraicNumber,
    ExactError,
    NumberRing,
    Poly,
    RingElement,
    _box,
    _box_range,
    decimal_str,
    format_rational,
    poly_to_text,
    rational,
    sign_at_algebraic,
)
from .polys import GibParams, _row_scale, _row_walk
from .roots import bound_B, largest_root

# Rows the scan for the first non-positive row at pq may step through.
GAME_ROW_BUDGET = 1 << 16

NODE1 = "g1"
NODE2 = "g2"
NODES = (NODE1, NODE2)


class IndeterminateSign(ExactError):
    """A symbolic value's sign depends on the specific start pair."""


Scalar = Union[Fraction, RingElement]


@dataclass(frozen=True)
class LinearForm:
    """c_a * a + c_b * b over formal start values a, b."""

    ca: Scalar
    cb: Scalar

    def __add__(self, other: "LinearForm") -> "LinearForm":
        if not isinstance(other, LinearForm):
            raise ExactError("cannot mix symbolic and concrete node values")
        return LinearForm(self.ca + other.ca, self.cb + other.cb)

    __radd__ = __add__

    def __neg__(self) -> "LinearForm":
        return LinearForm(-self.ca, -self.cb)

    def scaled(self, c: Scalar) -> "LinearForm":
        return LinearForm(c * self.ca, c * self.cb)


Value = Union[Fraction, RingElement, LinearForm]


def scalar_sign(x: Scalar) -> int:
    if isinstance(x, RingElement):
        return x.sign()
    return (x > 0) - (x < 0)


def value_sign(v: Value) -> int:
    """Sign of a node value; for linear forms, the sign valid for every
    strongly dominant start pair (raises when the coefficients disagree)."""
    if isinstance(v, LinearForm):
        sa, sb = scalar_sign(v.ca), scalar_sign(v.cb)
        if sa == 0 and sb == 0:
            return 0
        if sa >= 0 and sb >= 0:
            return 1
        if sa <= 0 and sb <= 0:
            return -1
        raise IndeterminateSign("sign depends on the start pair (mixed coefficients)")
    return scalar_sign(v)


def _scale(c: Scalar, v: Value) -> Value:
    if isinstance(v, LinearForm):
        return v.scaled(c)
    return c * v


# ---------------------------------------------------------------------------
# configuration and state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GameConfig:
    """Seeds (alpha, beta) plus the two positive firing multipliers p and q."""

    params: GibParams
    p: Fraction
    q: Scalar

    def __post_init__(self):
        object.__setattr__(self, "p", rational(self.p))
        object.__setattr__(self, "q", self.q if isinstance(self.q, RingElement) else rational(self.q))
        if self.p <= 0:
            raise ExactError("multiplier p must be positive")
        if scalar_sign(self.q) <= 0:
            raise ExactError("multiplier q must be positive")

    @classmethod
    def rational(cls, params: GibParams, p, q) -> "GameConfig":
        return cls(params, p, q)

    @classmethod
    def at_largest_root(cls, params: GibParams, k: int, p=1) -> "GameConfig":
        """Config with p*q pinned exactly to the largest root of row k."""
        p = rational(p)
        theta = largest_root(params, k)
        if theta.is_rational:
            return cls(params, p, theta.rational_value / p)
        ring = NumberRing(theta.defining, theta)
        return cls(params, p, ring.generator() * (1 / p))

    @property
    def pq(self) -> Scalar:
        return self.p * self.q

    def g_hat(self, upto: int) -> list:
        """[g_hat_{-1}, g_hat_0, ..., g_hat_upto]: row values at x = p*q.

        Index l lives at position l + 1.  g_hat_{-1} is alpha - beta, the
        rest `_row_walk` divided by its scales.
        """
        if upto < -1:
            raise ExactError(f"g_hat needs upto >= -1 (got {upto})")
        params, x = self.params, self.pq
        rows = enumerate(islice(_row_walk(params, x), upto + 1))
        return [params.alpha - params.beta] + [v * Fraction(1, _row_scale(params, x, j)) for j, v in rows]


@dataclass(frozen=True)
class GameState:
    u: Value
    v: Value
    moves_made: int
    initial_done: bool


class Firing:
    """A fired node and the pair after it, held as (U, W, S) and p.

    u = U/S and v = p*W/S are built on first read: one Fraction or ring
    element per move would cost gcds on numbers that grow with the move
    count.  U and W are integers in a rational game and integer coefficient
    vectors (`_Coeffs`) in a ring game, whose ring the firing keeps.  The
    opening firing keeps its values as given (U = u, W = w, S = 1).  A
    firing negates one value (g1 keeps -u, g2 keeps -v), so that value is
    taken from the previous firing when it has been read or is the opening,
    and only the other one is built.
    """

    __slots__ = ("node", "_scaled", "_values", "_prev")

    def __init__(
        self, node: str, u: Value, w: Value, s: int, p: Fraction, prev: "Firing | None" = None, ring=None
    ):
        self.node = node
        self._scaled = (u, w, s, p, ring)
        self._values = None
        self._prev = prev

    def _read(self) -> tuple:
        if self._values is None:
            u, w, s, p, ring = self._scaled
            prev = self._prev
            before = None if prev is None else prev._values if prev._prev is not None else prev._read()
            if before is not None and self.node == NODE1:
                u = -before[0]
            elif ring is not None:
                u = RingElement(ring, Poly.from_ints(u, Fraction(1, s)))
            elif type(u) is int:
                u = Fraction(u, s)
            if before is not None and self.node == NODE2:
                v = -before[1]
            elif ring is not None:
                v = RingElement(ring, Poly.from_ints(w, p / s))
            elif type(w) is int:
                v = Fraction(p.numerator * w, p.denominator * s)
            else:
                v = _scale(p, w)
            self._values = (u, v)
        return self._values

    @property
    def u(self) -> Value:
        return self._read()[0]

    @property
    def v(self) -> Value:
        return self._read()[1]


@dataclass
class GameTrace:
    config: GameConfig
    initial: tuple
    firings: list = field(default_factory=list)
    outcome: str = "exceeded-budget"  # "terminated" | "diverges-certified" | "exceeded-budget"

    @property
    def moves(self) -> int:
        return len(self.firings)

    @property
    def final(self) -> tuple:
        if not self.firings:
            return self.initial
        last = self.firings[-1]
        return (last.u, last.v)


# ---------------------------------------------------------------------------
# firing rules
# ---------------------------------------------------------------------------


def _check_node(node: str):
    if node not in NODES:
        raise ExactError(f"unknown node {node!r}; use {NODE1} or {NODE2}")


def _step(node: str, u: Value, w: Value, s: int, x: tuple) -> tuple:
    """The one firing step on the pair (u/s, w/s) with w = v/p; returns the
    new (u, w, s).

    g1 maps (u, w, s) to (-u, u + w, s).  g2 maps it to (u*d + n*w, -w*d,
    s*d) for the multiplier x = pq split as (n, d): integers in a rational
    game, a `_RingMultiplier` and its integer d in a ring game.  A
    denominator 1 is never multiplied in, so linear-form values keep s = 1
    and plain arithmetic.
    """
    if node == NODE1:
        return -u, u + w, s
    n, d = x
    if d == 1:
        return u + _scale(n, w), -w, s
    return u * d + n * w, -w * d, s * d


class _Coeffs(tuple):
    """A ring value's integer coefficient vector, constant term first, of
    length deg m, with the operators `_step` uses: -c, c + c and c * k for
    an integer k."""

    __slots__ = ()

    def __neg__(self) -> "_Coeffs":
        return _Coeffs([-c for c in self])

    def __add__(self, other: "_Coeffs") -> "_Coeffs":
        return _Coeffs([a + b for a, b in zip(self, other)])

    def __mul__(self, k: int) -> "_Coeffs":
        return _Coeffs([k * c for c in self])


class _RingMultiplier:
    """pq in Q[t]/(m) as an integer map on coefficient vectors, with d.

    pq is c*X for its content c and primitive vector X.  With m signed so
    that its leading coefficient l is positive, and e = deg X, `self * W`
    is c.numerator times the pseudo-remainder l^e * (X*W) mod m, taken with
    a factor l at every one of the e steps.  So (self * W) / d is pq*W in
    the ring for the one integer d = c.denominator * l^e, and the scale
    stays positive.  At a largest root pq = t, so d = l.
    """

    __slots__ = ("ints", "m", "num", "d")

    def __init__(self, pq: RingElement):
        m = pq.ring.defining.ints
        self.m = m if m[-1] > 0 else tuple(-c for c in m)
        self.ints, c = pq.poly.ints, pq.poly.content
        self.num = c.numerator
        self.d = c.denominator * self.m[-1] ** (len(self.ints) - 1)

    def __mul__(self, w: _Coeffs) -> _Coeffs:
        x, m = self.ints, self.m
        n, lead_m = len(m) - 1, m[-1]
        out = [0] * (n + len(x) - 1)
        for i, xi in enumerate(x):
            if xi:
                for j, wj in enumerate(w, i):
                    out[j] += xi * wj
        while len(out) > n:
            top = out.pop()
            if lead_m != 1:
                out = [lead_m * c for c in out]
            shift = len(out) - n
            for j in range(n):
                out[shift + j] -= top * m[j]
        return _Coeffs(out if self.num == 1 else [self.num * c for c in out])


def _ring_coeffs(n: int, values: Sequence) -> tuple:
    """([vectors], S): rationals and ring elements as integer coefficient
    vectors of length n over one positive scale S."""
    parts = [(y.poly.content, y.poly.ints) if isinstance(y, RingElement) else (y, (1,)) for y in values]
    s = lcm(*(c.denominator for c, _ in parts))
    vectors = []
    for c, ints in parts:
        k = c.numerator * (s // c.denominator)
        vectors.append(_Coeffs([k * i for i in ints] + [0] * (n - len(ints))))
    return vectors, s


def _ring_sign(theta: AlgebraicNumber, cs: _Coeffs) -> int:
    """Sign of a coefficient vector at theta: integer interval Horner over
    theta's kept box, and the exact `sign_at_algebraic` when that holds 0."""
    lo, hi = _box_range(cs, *_box(theta))
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    return sign_at_algebraic(Poly.from_ints(cs), theta)


def fire(state: GameState, node: str, config: GameConfig) -> GameState:
    """Ordinary firing: g1 sends (u,v) to (-u, pu+v) and needs u > 0;
    g2 sends (u,v) to (u+qv, -v) and needs v > 0.

    Runs `_step` on (u, v/p) with the multiplier (pq, 1) and reads v back
    as p times the new w."""
    _check_node(node)
    if not state.initial_done:
        raise ExactError("the opening move must use the seeded initial firing")
    s = value_sign(state.u if node == NODE1 else state.v)
    if s <= 0:
        raise ExactError(f"illegal firing: node {node} value has sign {s}")
    p = config.p
    u, w, _ = _step(node, state.u, _scale(1 / p, state.v), 1, (config.pq, 1))
    return GameState(u, _scale(p, w), state.moves_made + 1, True)


def _seeded_transition(a: Value, b: Value, node: str, config: GameConfig):
    alpha, beta = config.params.alpha, config.params.beta
    p, q = config.p, config.q
    if node == NODE1:
        new_u = -(_scale(alpha, a) + _scale(q * (alpha - beta), b))
        new_v = _scale(p * beta, a) + _scale(alpha, b)
    else:
        new_u = _scale(alpha, a) + _scale(q * beta, b)
        new_v = -(_scale(p * (alpha - beta), a) + _scale(alpha, b))
    return new_u, new_v


def _check_pair(a, b) -> tuple:
    """(a, b) as Fractions if they may start a game; the repl checks its
    start pair with this before the user picks the first node."""
    a, b = rational(a), rational(b)
    if a < 0 or b < 0:
        raise ExactError("start pair must be dominant (both coordinates >= 0)")
    if a == 0 and b == 0:
        raise ExactError("start pair must be nonzero")
    return a, b


def _check_opening(a, b, node: str) -> tuple:
    """(a, b) as Fractions if the seeded opening may fire node first; one rule
    for `seeded_fire` and `predicted_moves`."""
    _check_node(node)
    a, b = _check_pair(a, b)
    if node == NODE1 and a == 0:
        raise ExactError("seeded firing of g1 needs a > 0; open with g2 instead")
    if node == NODE2 and b == 0:
        raise ExactError("seeded firing of g2 needs b > 0; open with g1 instead")
    return a, b


def seeded_fire(a, b, node: str, config: GameConfig) -> GameState:
    """The modified opening move that injects the seeds into play.

    Firing g1 first requires a > 0 and firing g2 first requires b > 0,
    mirroring the ordinary legality rule on the fired coordinate.
    """
    a, b = _check_opening(a, b, node)
    new_u, new_v = _seeded_transition(a, b, node, config)
    return GameState(new_u, new_v, 1, True)


def seeded_fire_symbolic(node: str, config: GameConfig) -> GameState:
    """Opening move over formal coordinates (a, b), both treated as positive."""
    _check_node(node)
    one, zero = Fraction(1), Fraction(0)
    a = LinearForm(one, zero)
    b = LinearForm(zero, one)
    new_u, new_v = _seeded_transition(a, b, node, config)
    return GameState(new_u, new_v, 1, True)


# ---------------------------------------------------------------------------
# play
# ---------------------------------------------------------------------------


def _legal_nodes(u: Value, v: Value) -> list:
    out = []
    if value_sign(u) > 0:
        out.append(NODE1)
    if value_sign(v) > 0:
        out.append(NODE2)
    return out


def _pick(legal: Sequence[str], strategy, last: str, move_index: int) -> str:
    if isinstance(strategy, (list, tuple)):
        if move_index >= len(strategy) + 1:
            raise ExactError("script ran out of moves")
        choice = strategy[move_index - 1]
        if choice not in legal:
            raise ExactError(f"scripted move {choice!r} is illegal here")
        return choice
    if strategy == "greedy-g1":
        return NODE1 if NODE1 in legal else legal[0]
    if strategy == "greedy-g2":
        return NODE2 if NODE2 in legal else legal[0]
    if strategy == "alternate":
        other = NODE2 if last == NODE1 else NODE1
        return other if other in legal else legal[0]
    raise ExactError(f"unknown strategy {strategy!r}")


def _certify_divergence(config: GameConfig, budget: int) -> bool:
    """True when pq >= B and every row value at pq up to the budget is positive."""
    bound = bound_B(config.params).value
    gap = config.pq - bound
    if scalar_sign(gap) < 0:
        return False
    return all(scalar_sign(v) > 0 for v in islice(_row_walk(config.params, config.pq), budget + 1))


def _run(trace: GameTrace, first_node: str, opening: GameState, strategy, budget: int) -> GameTrace:
    """Play on from the seeded opening on (u, w) with w = v/p, over one
    positive scale S: integers with pq split as (numerator, denominator) in
    a rational game, integer coefficient vectors with pq as a
    `_RingMultiplier` in a ring game, and linear forms over S = 1 with the
    multiplier (pq, 1).

    The opening signs both values.  After that a move signs one: the fired
    value was positive and is negated, so after g1 u < 0 and after g2 v < 0.
    """
    p, pq = trace.config.p, trace.config.pq
    u, w = opening.u, _scale(1 / p, opening.v)
    firings = trace.firings
    firings.append(Firing(first_node, u, w, 1, p))
    s, x, sign, ring = 1, (pq, 1), value_sign, None
    if all(isinstance(y, Fraction) for y in (pq, u, w)):
        s = lcm(u.denominator, w.denominator)
        u, w = u.numerator * (s // u.denominator), w.numerator * (s // w.denominator)
        x = (pq.numerator, pq.denominator)
    elif isinstance(pq, RingElement) and not isinstance(u, LinearForm):
        ring = pq.ring
        (u, w), s = _ring_coeffs(ring.defining.degree, (u, w))
        n = _RingMultiplier(pq)
        x, sign = (n, n.d), partial(_ring_sign, ring.theta)
    su, sw = sign(u), sign(w)
    last = first_node
    while True:
        legal = [node for node, sn in ((NODE1, su), (NODE2, sw)) if sn > 0]
        if not legal:
            trace.outcome = "terminated"
            return trace
        moves = len(firings)
        if moves >= budget:
            certified = _certify_divergence(trace.config, budget)
            trace.outcome = "diverges-certified" if certified else "exceeded-budget"
            return trace
        last = _pick(legal, strategy, last, moves)
        u, w, s = _step(last, u, w, s, x)
        firings.append(Firing(last, u, w, s, p, firings[-1], ring))
        su, sw = (-1, sign(w)) if last == NODE1 else (sign(u), -1)


def play(a, b, first_node: str, config: GameConfig, strategy="alternate", budget: int = 64) -> GameTrace:
    """Seeded opening move, then legal firings under a strategy.

    Outcome is "terminated" when no legal move remains, "diverges-certified"
    when the budget runs out but pq >= B certifies divergence analytically,
    and "exceeded-budget" otherwise.  A rational game runs on integers and a
    ring game on integer coefficient vectors, over one scale; each firing's
    values are built when read.
    """
    if budget <= 0:
        raise ExactError("budget must be positive")
    opening = seeded_fire(a, b, first_node, config)
    return _run(GameTrace(config, (rational(a), rational(b))), first_node, opening, strategy, budget)


def play_symbolic(first_node: str, config: GameConfig, strategy="alternate", budget: int = 64) -> GameTrace:
    """Play with (a, b) as formal coordinates of a strongly dominant pair."""
    if budget <= 0:
        raise ExactError("budget must be positive")
    opening = seeded_fire_symbolic(first_node, config)
    one, zero = Fraction(1), Fraction(0)
    trace = GameTrace(config, (LinearForm(one, zero), LinearForm(zero, one)))
    return _run(trace, first_node, opening, strategy, budget)


# ---------------------------------------------------------------------------
# classification and predictions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    regime: str  # "all-diverge" | "all-terminate"
    strongly_convergent: bool
    k_if_root: Optional[int]


def _scan(config: GameConfig) -> tuple:
    """(k, sign, w_{k-1}, w_k, scale) for the first k >= 2 whose row value at
    pq is not positive: rows k-1 and k are w_{k-1}/scale and w_k/scale.

    The rows come from `polys._row_walk` (a largest root is reached at k),
    with row k-1 brought over row k's scale; the scan stops with ExactError
    past GAME_ROW_BUDGET rows.

    The rows are scanned once per config: the result is kept in the frozen
    config's instance dict, so classify, predicted_moves and
    terminal_numbers share one scan.
    """
    found = config.__dict__.get("_row_scan")
    if found is None:
        params, x = config.params, config.pq
        rows = pairwise(islice(_row_walk(params, x), 1, GAME_ROW_BUDGET + 1))
        for k, (prev, cur) in enumerate(rows, 2):
            s = scalar_sign(cur)
            if s <= 0:
                scale = _row_scale(params, x, k)
                found = (k, s, prev * (scale // _row_scale(params, x, k - 1)), cur, scale)
                config.__dict__["_row_scan"] = found
                return found
        raise ExactError(
            f"row scan at pq passed GAME_ROW_BUDGET ({GAME_ROW_BUDGET:,} rows) "
            "without a non-positive row"
        )
    return found


def _locate(config: GameConfig):
    """(first k >= 2 with row value at pq not positive, its sign)."""
    return _scan(config)[:2]


def _check_seed_order(config: GameConfig):
    alpha, beta = config.params.alpha, config.params.beta
    if alpha < beta:
        raise ExactError(
            f"move-count predictions need alpha >= beta (seeds {format_rational(alpha)}, "
            f"{format_rational(beta)}): below that the count depends on the strategy"
        )


def classify(config: GameConfig) -> Classification:
    """Divergence/termination regime plus strong-convergence status.

    pq at or above the bound B diverges (strongly convergent by convention);
    below B everything terminates, strong convergence holding exactly when
    pq is the largest root of some row, located by scanning row values at pq
    until the first non-positive sign.

    The classification holds for any seeds, but with alpha < beta the move
    count of a strongly convergent game still depends on the strategy, so
    predicted_moves and terminal_numbers refuse those seeds.
    """
    bound = bound_B(config.params).value
    gap = config.pq - bound
    if scalar_sign(gap) >= 0:
        return Classification("all-diverge", True, None)
    k, s = _locate(config)
    if s == 0:
        return Classification("all-terminate", True, k)
    return Classification("all-terminate", False, None)


def predicted_moves(config: GameConfig, a, b, first_node: str) -> int:
    """Exact move count from the threshold analysis, without playing.

    At pq equal to a largest root: k+1 moves for strongly dominant pairs and
    k otherwise.  Strictly between consecutive largest roots (bracket index
    j), the count is j or j+1 depending on which side of the proof threshold
    the start ratio falls.  Openings that `play` refuses are refused too, as
    are seeds with alpha < beta.
    """
    a, b = _check_opening(a, b, first_node)
    _check_seed_order(config)
    cls = classify(config)
    if cls.regime == "all-diverge":
        raise ExactError("no games terminate for this configuration")
    if cls.k_if_root is not None:
        k = cls.k_if_root
        return k + 1 if (a > 0 and b > 0) else k
    j, _, gj1, gj, _ = _scan(config)  # rows j-1 and j at pq over one positive scale
    p, q = config.p, config.q
    if first_node == NODE1:
        if j % 2 == 0:
            margin = -gj * a - q * (gj1 * b)
        else:
            margin = -gj * (p * a) - gj1 * b
    else:
        if j % 2 == 0:
            margin = -gj * b - p * (gj1 * a)
        else:
            margin = -gj * (q * b) - gj1 * a
    return j if scalar_sign(margin) >= 0 else j + 1


def terminal_numbers(config: GameConfig, a, b):
    """The guaranteed final pair when pq equals the largest root of row k.

    Row parity selects the displayed form; its twin (via the identity that
    row k+1 and row k-1 values at the root are negatives) is equal in the
    quotient ring and is checked by the test suite.  Seeds with
    alpha < beta are refused.
    """
    _check_seed_order(config)
    cls = classify(config)
    if cls.k_if_root is None:
        raise ExactError("terminal formulas need pq equal to a largest root")
    k, _, w_km1, _, scale = _scan(config)
    g_km1 = w_km1 * Fraction(1, scale)  # row k is 0, so row k+1 is -g_km1
    a, b = rational(a), rational(b)
    p, q = config.p, config.q
    if k % 2 == 0:
        final_u = -(q * (g_km1 * b))
        final_v = -(p * (g_km1 * a))
    else:
        final_u = -(g_km1 * a)
        final_v = -(g_km1 * b)
    return final_u, final_v


# ---------------------------------------------------------------------------
# serialization helpers for traces
# ---------------------------------------------------------------------------


def value_to_json(v: Value):
    if isinstance(v, LinearForm):
        return {"a_coeff": value_to_json(v.ca), "b_coeff": value_to_json(v.cb)}
    if isinstance(v, RingElement):
        return v.to_json()
    return format_rational(v)


def value_to_text(v: Value, digits: int = 30) -> str:
    if isinstance(v, LinearForm):
        return f"({value_to_text(v.ca, digits)})*a + ({value_to_text(v.cb, digits)})*b"
    if isinstance(v, RingElement):
        return f"{poly_to_text(v.poly, 't')} ~ {v.decimal(digits)}"
    return f"{format_rational(v)} = {decimal_str(v, digits)}"

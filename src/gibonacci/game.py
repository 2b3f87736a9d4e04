"""Two-node seeded numbers game with exact arithmetic.

Node values live in one of three worlds, all exact:

  * plain rationals, when the product of the two multipliers is rational;
  * the quotient ring Q[t]/(m) of `exactnum` (`RingElement`) with a
    designated real root of m, when the product is a ring element (t itself
    at the largest root of row k, with m = P_k);
  * linear forms c_a*a + c_b*b over formal nonnegative start values, used to
    verify whole families of games at once.

Sign decisions are never numeric guesses: rationals compare directly, ring
values go through the exact sign of a polynomial at an algebraic point
(interval Horner over the root's kept integer box, bisected while it holds
0, with a gcd zero test after three steps), and linear forms are signed
when both coefficients agree (a mixed form means the outcome genuinely
depends on the start pair, which callers treat as an error).

The row scan, `GameConfig.g_hat`, the divergence certificate and play share
one arithmetic: `_split` gives pq as an integer step (n, d), its numerator
and denominator at a rational pq.  At a ring pq, n is a `_RingMultiplier`
on integer coefficient vectors of degree below deg m (m as a primitive
integer vector): `exactnum._convolve` and the package's one pseudo-division
kernel `exactnum._pseudo_divmod`, over one integer d per game (|lc(m)| at a
largest root).  A `RingElement` is built only where a value is read
(`_value`).

Play runs on the pair (u, w) with w = v/p, where g1 maps it to (-u, u + w)
and g2 to (u + pq*w, -w): a firing knows only pq, the one number the game's
fate depends on.  The pair is held as (U, W, S) over one positive scale S,
integers or coefficient vectors, so `_step` fires without a gcd; the seeded
opening (`_opening`) starts it there too, and linear forms step at (pq, 1).
A move signs one value, as the fired one is negated.  A `Firing` builds u
and v = p*W/S only when they are read.

`_scan` keeps the first non-positive row at pq, its sign and rows k-1 and k
over one positive scale in the frozen config's instance dict, so classify,
predicted_moves and terminal_numbers share one scan; the Classification,
and pq itself, are kept there too, so pq - B is signed once; the margins are
homogeneous in the two rows, and only terminal_numbers divides by the
scale.  Near the bound B the crossing row grows like 1/sqrt(B - pq), so the
scan stops with a one-line ExactError past GAME_ROW_BUDGET rows.
Move-count predictions hold for seeds with alpha >= beta only; below that
the count depends on the strategy, and the predictions refuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
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
    _convolve,
    _pseudo_divmod,
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

    def __mul__(self, c: Scalar) -> "LinearForm":
        return LinearForm(c * self.ca, c * self.cb)

    __rmul__ = __mul__


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

    @cached_property
    def pq(self) -> Scalar:
        return self.p * self.q

    def g_hat(self, upto: int) -> list:
        """[g_hat_{-1}, g_hat_0, ..., g_hat_upto]: row values at x = p*q.

        Index l lives at position l + 1.  g_hat_{-1} is alpha - beta, the
        rest `_row_walk` at the split pq, each read over its scale: Fractions
        at a rational pq and ring elements, the seeds included, at a ring pq.
        """
        if upto < -1:
            raise ExactError(f"g_hat needs upto >= -1 (got {upto})")
        params, ((n, d), _, one, ring) = self.params, _split(self.pq)
        rows = enumerate(islice(_row_walk(params, n, d, one), upto + 1))
        return [params.alpha - params.beta] + [_value(v, Fraction(1, _row_scale(params, d, j)), ring) for j, v in rows]


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
    opening's v involves no pq, so it is read as a rational.  A firing
    negates one value (g1 keeps -u, g2 keeps -v), so that value is taken
    from the previous firing when it has been read or is the opening, and
    only the other one is built.
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
            if prev is None:
                self._values = (_value(u, Fraction(1, s), ring), (p / s) * (w if ring is None else w[0]))
                return self._values
            before = prev._values if prev._prev is not None else prev._read()
            u = -before[0] if before is not None and self.node == NODE1 else _value(u, Fraction(1, s), ring)
            v = -before[1] if before is not None and self.node == NODE2 else _value(w, p / s, ring)
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
    game, a `_RingMultiplier` and its integer d in a ring game, and (pq, 1)
    for linear forms and for `fire`, whose values keep their scale.
    """
    if node == NODE1:
        return -u, u + w, s
    n, d = x
    return u * d + n * w, -w * d, s * d


class _Coeffs(tuple):
    """A ring value's integer coefficient vector, constant term first, of
    length deg m, with the operators `_step` and the row step use: -c,
    c + c, c - c and c * k for an integer k (never k * c, which repeats a
    tuple)."""

    __slots__ = ()

    def __neg__(self) -> "_Coeffs":
        return _Coeffs([-c for c in self])

    def __add__(self, other: "_Coeffs") -> "_Coeffs":
        return _Coeffs([a + b for a, b in zip(self, other)])

    def __sub__(self, other: "_Coeffs") -> "_Coeffs":
        return _Coeffs([a - b for a, b in zip(self, other)])

    def __mul__(self, k: int) -> "_Coeffs":
        return _Coeffs([k * c for c in self])


class _RingMultiplier:
    """pq in Q[t]/(m) as an integer map on coefficient vectors, with d.

    pq is c*X for its content c and primitive vector X.  With m signed so
    that its leading coefficient l is positive, and e = deg X, `self * W`
    is c.numerator times the pseudo-remainder l^e * (X*W) mod m: the
    product `exactnum._convolve`s, `exactnum._pseudo_divmod` reduces it
    with t <= e factors l, and the remainder takes the other l^(e-t).  So
    (self * W) / d is pq*W in the ring for the one integer
    d = c.denominator * l^e, and the scale stays positive.  At a largest
    root pq = t, so d = l.
    """

    __slots__ = ("ints", "m", "num", "d")

    def __init__(self, pq: RingElement):
        m = pq.ring.defining.ints
        self.m = m if m[-1] > 0 else tuple(-c for c in m)
        self.ints, c = pq.poly.ints, pq.poly.content
        self.num = c.numerator
        self.d = c.denominator * self.m[-1] ** (len(self.ints) - 1)

    def __mul__(self, w: _Coeffs) -> _Coeffs:
        m = self.m
        _, r, t = _pseudo_divmod(_convolve(self.ints, w), m)
        k = self.num * m[-1] ** (len(self.ints) - 1 - t)
        return _Coeffs([k * c for c in r] + [0] * (len(m) - 1 - len(r)))


def _split(pq: Scalar) -> tuple:
    """((n, d), sign, one, ring): at a rational pq, its numerator and
    denominator, `scalar_sign`, 1 and no ring; at a ring pq, its
    `_RingMultiplier` and d, `_ring_sign` at the ring's root, the unit
    vector and the ring."""
    if not isinstance(pq, RingElement):
        return (pq.numerator, pq.denominator), scalar_sign, 1, None
    ring, n = pq.ring, _RingMultiplier(pq)
    one = _Coeffs([1] + [0] * (ring.defining.degree - 1))
    return (n, n.d), partial(_ring_sign, ring.theta), one, ring


def _value(v, c, ring) -> Value:
    """c times an integer, a value or (in a ring) a coefficient vector."""
    return c * v if ring is None else RingElement(ring, Poly.from_ints(v, c))


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
    u, w, _ = _step(node, state.u, (1 / p) * state.v, 1, (config.pq, 1))
    return GameState(u, p * w, state.moves_made + 1, True)


def _opening(node: str, config: GameConfig, a=None, b=None) -> tuple:
    """(U, W, S, x, sign, ring): the seeded opening, ready for `_run`.

    On (a, c) with c = b/p, g1 gives u = -(alpha*a + pq*(alpha - beta)*c)
    and w = beta*a + alpha*c, and g2 gives u = alpha*a + pq*beta*c and
    w = -((alpha - beta)*a + alpha*c), with the seeds over
    L = den(alpha)*den(beta) as `_row_walk` starts them.  A checked pair over
    its common denominator D steps at the split pq = n/d, to integers or
    `_Coeffs` over S = L*D*d; with no pair, the linear forms a and b/p step
    at (pq, 1) over S = L.
    """
    params = config.params
    if a is None:
        _check_node(node)
        x, sign, one, ring = (config.pq, 1), value_sign, 1, None
        a, c, s = LinearForm(Fraction(1), Fraction(0)), LinearForm(Fraction(0), 1 / config.p), 1
    else:
        x, sign, one, ring = _split(config.pq)
        c = b / config.p
        s = lcm(a.denominator, c.denominator)
        a, c = a.numerator * (s // a.denominator), c.numerator * (s // c.denominator)
    n, d = x
    va, vb = islice(_row_walk(params, n, d, one), 2)
    if node == NODE1:
        u, w = -(va * (a * d) + n * ((va - vb) * c)), (vb * a + va * c) * d
    else:
        u, w = va * (a * d) + n * (vb * c), ((va - vb) * a + va * c) * -d
    return u, w, _row_scale(params, d, 2) * s, x, sign, ring


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
    for `seeded_fire`, `play` and `predicted_moves`."""
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
    u, w, s, _, _, ring = _opening(node, config, *_check_opening(a, b, node))
    first = Firing(node, u, w, s, config.p, None, ring)
    return GameState(first.u, first.v, 1, True)


def seeded_fire_symbolic(node: str, config: GameConfig) -> GameState:
    """Opening move over formal coordinates (a, b), both treated as positive."""
    u, w, s, _, _, _ = _opening(node, config)
    first = Firing(node, u, w, s, config.p)
    return GameState(first.u, first.v, 1, True)


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
    (n, d), sign, one, _ = _split(config.pq)
    bound = bound_B(config.params).value
    if sign(n * one * bound.denominator - one * (d * bound.numerator)) < 0:  # d*den(B)*(pq - B)
        return False
    return all(sign(v) > 0 for v in islice(_row_walk(config.params, n, d, one), budget + 1))


def _run(trace: GameTrace, first_node: str, opening: tuple, strategy, budget: int) -> GameTrace:
    """Play on from the seeded opening's (U, W, S, x, sign, ring) (`_opening`)
    on (u, w) with w = v/p, over one positive scale S.

    The opening signs both values.  After that a move signs one: the fired
    value was positive and is negated, so after g1 u < 0 and after g2 v < 0.
    """
    u, w, s, x, sign, ring = opening
    p, firings = trace.config.p, trace.firings
    firings.append(Firing(first_node, u, w, s, p, None, ring))
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
    a, b = _check_opening(a, b, first_node)
    return _run(GameTrace(config, (a, b)), first_node, _opening(first_node, config, a, b), strategy, budget)


def play_symbolic(first_node: str, config: GameConfig, strategy="alternate", budget: int = 64) -> GameTrace:
    """Play with (a, b) as formal coordinates of a strongly dominant pair."""
    if budget <= 0:
        raise ExactError("budget must be positive")
    one, zero = Fraction(1), Fraction(0)
    trace = GameTrace(config, (LinearForm(one, zero), LinearForm(zero, one)))
    return _run(trace, first_node, _opening(first_node, config), strategy, budget)


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

    The rows come from `polys._row_walk` at the split pq (a largest root is
    reached at k), with row k-1 brought over row k's scale; the two rows are
    integers at a rational pq and ring elements at a ring pq.  The scan
    stops with ExactError past GAME_ROW_BUDGET rows.

    The rows are scanned once per config: the result is kept in the frozen
    config's instance dict, so classify, predicted_moves and
    terminal_numbers share one scan.
    """
    found = config.__dict__.get("_row_scan")
    if found is None:
        params, ((n, d), sign, one, ring) = config.params, _split(config.pq)
        rows = pairwise(islice(_row_walk(params, n, d, one), 1, GAME_ROW_BUDGET + 1))
        for k, (prev, cur) in enumerate(rows, 2):
            s = sign(cur)
            if s <= 0:
                scale = _row_scale(params, d, k)
                prev = prev * (scale // _row_scale(params, d, k - 1))
                found = (k, s, _value(prev, 1, ring), _value(cur, 1, ring), scale)
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

    The result is kept in the frozen config's instance dict, as `_scan`
    keeps its rows.
    """
    found = config.__dict__.get("_classification")
    if found is None:
        if scalar_sign(config.pq - bound_B(config.params).value) >= 0:
            found = Classification("all-diverge", True, None)
        else:
            k, s = _locate(config)
            found = Classification("all-terminate", s == 0, k if s == 0 else None)
        config.__dict__["_classification"] = found
    return found


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

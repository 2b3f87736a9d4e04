"""Firing rules, seeded openings, classification, and exact terminal pairs."""

import random
import time
from fractions import Fraction
from functools import lru_cache

import pytest

from gibonacci import game, polys
from gibonacci.exactnum import ExactError, NumberRing, Poly, RingElement
from gibonacci.game import (
    NODE1,
    NODE2,
    NODES,
    Classification,
    GameConfig,
    GameState,
    IndeterminateSign,
    LinearForm,
    _scan,
    classify,
    fire,
    play,
    play_symbolic,
    predicted_moves,
    seeded_fire,
    seeded_fire_symbolic,
    terminal_numbers,
    value_sign,
)
from gibonacci.polys import GibParams, _next_row, binet_eval
from gibonacci.roots import bound_B, largest_root

UNIT = GibParams.of(1, 1)
LUCAS = GibParams.of(2, 1)
WIDE = GibParams.of(5, 2)

# the worked six-move configuration: seeds (5,2), p = 7/2, q = 8/7, pq = 4
SIX_MOVE = GameConfig.rational(WIDE, Fraction(7, 2), Fraction(8, 7))


def F(x):
    return Fraction(x)


def form(ca, cb):
    return LinearForm(F(ca), F(cb))


class TestFire:
    def test_node_one_formula(self):
        cfg = GameConfig.rational(UNIT, 2, 1)
        state = GameState(F(3), F(5), 1, True)
        nxt = fire(state, NODE1, cfg)
        assert (nxt.u, nxt.v) == (F(-3), F(11))
        assert nxt.moves_made == 2

    def test_zero_value_is_illegal(self):
        cfg = GameConfig.rational(UNIT, 1, 1)
        state = GameState(F(4), F(0), 1, True)
        with pytest.raises(ExactError, match="g2"):
            fire(state, NODE2, cfg)

    def test_six_move_trace_step(self):
        # symbolic mid-game step: firing g1 is illegal, firing g2 proceeds
        state = GameState(form(3, Fraction(16, 7)), form(-7, -5), 2, True)
        with pytest.raises(ExactError):
            fire(state, NODE2, SIX_MOVE)
        nxt = fire(state, NODE1, SIX_MOVE)
        assert nxt.u == form(-3, Fraction(-16, 7))
        assert nxt.v == form(Fraction(7, 2), 3)

    def test_mixing_symbolic_and_concrete_rejected(self):
        cfg = GameConfig.at_largest_root(LUCAS, 4)
        root = cfg.q
        for u, v in [(form(1, 0), F(2)), (F(2), form(1, 0)), (root, form(1, 0)), (form(1, 0), root)]:
            state = GameState(u, v, 1, True)
            for node in (NODE1, NODE2):
                with pytest.raises(ExactError):
                    fire(state, node, cfg)

    def test_opening_requires_seeded_move(self):
        cfg = GameConfig.rational(UNIT, 1, 1)
        with pytest.raises(ExactError):
            fire(GameState(F(1), F(1), 0, False), NODE1, cfg)

    def test_one_product_for_every_value(self):
        # c * v on either side, for rational and ring c and a linear form v
        root = GameConfig.at_largest_root(LUCAS, 4).q
        v = form(1, -2)
        assert Fraction(1, 2) * v == v * Fraction(1, 2) == form(Fraction(1, 2), -1)
        assert root * v == v * root == LinearForm(root, -2 * root)


class TestSeededFire:
    def test_unit_seeds_reduce_to_plain_rules(self):
        cfg = GameConfig.rational(UNIT, 3, 7)
        st = seeded_fire(2, 5, NODE1, cfg)
        assert (st.u, st.v) == (F(-2), F(11))  # (-a, pa + b)

    def test_six_move_openings(self):
        g1 = seeded_fire_symbolic(NODE1, SIX_MOVE)
        assert g1.u == form(-5, Fraction(-24, 7))
        assert g1.v == form(7, 5)
        g2 = seeded_fire_symbolic(NODE2, SIX_MOVE)
        assert g2.u == form(5, Fraction(16, 7))
        assert g2.v == form(Fraction(-21, 2), -5)

    def test_zero_coordinate_rules(self):
        cfg = GameConfig.rational(UNIT, 1, 1)
        with pytest.raises(ExactError):
            seeded_fire(0, 1, NODE1, cfg)
        with pytest.raises(ExactError):
            seeded_fire(1, 0, NODE2, cfg)
        with pytest.raises(ExactError):
            seeded_fire(0, 0, NODE1, cfg)
        st = seeded_fire(0, 1, NODE2, cfg)
        assert st.initial_done and st.moves_made == 1


def seeded_transition(a, b, node, config) -> tuple:
    """The opening (u, v) as the seeded firing rule is written, on values:
    Fraction, `RingElement` or `LinearForm` sums, q a ring element at a ring pq."""
    alpha, beta = config.params.alpha, config.params.beta
    p, q = config.p, config.q
    if node == NODE1:
        return -(alpha * a + q * (alpha - beta) * b), p * beta * a + alpha * b
    return alpha * a + q * beta * b, -(p * (alpha - beta) * a + alpha * b)


def same_value(got, want) -> bool:
    """Equal in value and type, a linear form coefficient by coefficient."""
    if isinstance(want, LinearForm):
        return type(got) is LinearForm and same_value(got.ca, want.ca) and same_value(got.cb, want.cb)
    return type(got) is type(want) and got == want and game.value_to_json(got) == game.value_to_json(want)


class TestOpeningOracle:
    """`seeded_fire`, `play` and `play_symbolic` open on the integer step
    (`_opening`); their first firing must equal the value-level transition,
    value and type: v a Fraction at every pq, u a ring element at a ring pq."""

    SEEDS = (GibParams.of(Fraction(7, 3), Fraction(1, 2)), WIDE)
    STARTS = ((Fraction(5, 3), Fraction(7, 4)), (Fraction(1, 3), 0), (0, Fraction(2, 9)), (2, 3), (1, 1))

    def configs(self) -> list:
        pqs = ((Fraction(7, 5), Fraction(19, 7)), (Fraction(3, 2), 2), (1, Fraction(9, 2)))
        rational = [GameConfig.rational(params, p, q) for params in self.SEEDS for p, q in pqs]
        ring = [cfg for cfg, _, _ in random_ring_games()] + degree_two_configs() + [negative_lead_config()]
        ring += [GameConfig.at_largest_root(params, 12, Fraction(3, 2)) for params in self.SEEDS]
        return rational + ring

    def assert_opening(self, a, b, node, cfg):
        u, v = seeded_transition(F(a), F(b), node, cfg)
        assert type(v) is Fraction
        assert type(u) is (RingElement if isinstance(cfg.pq, RingElement) else Fraction)
        opening = seeded_fire(a, b, node, cfg)
        first = play(a, b, node, cfg, budget=1).firings[0]
        assert same_value(opening.u, u) and same_value(opening.v, v)
        assert first.node == node and same_value(first.u, u) and same_value(first.v, v)

    def test_concrete_openings(self):
        rings = opened = 0
        for cfg in self.configs():
            rings += isinstance(cfg.pq, RingElement)
            for a, b in self.STARTS:
                for node in NODES:
                    if (a, b)[node == NODE2] != 0:
                        self.assert_opening(a, b, node, cfg)
                        opened += 1
        assert rings == 15 and opened == 21 * 8

    def test_symbolic_openings(self):
        a, b = form(1, 0), form(0, 1)
        for cfg in self.configs():
            for node in NODES:
                u, v = seeded_transition(a, b, node, cfg)
                assert type(v.ca) is Fraction and type(v.cb) is Fraction
                opening = seeded_fire_symbolic(node, cfg)
                first = play_symbolic(node, cfg, budget=1).firings[0]
                assert same_value(opening.u, u) and same_value(opening.v, v)
                assert first.node == node and same_value(first.u, u) and same_value(first.v, v)


EXPECTED_G1_FIRST = [
    (form(-5, Fraction(-24, 7)), form(7, 5)),
    (form(3, Fraction(16, 7)), form(-7, -5)),
    (form(-3, Fraction(-16, 7)), form(Fraction(7, 2), 3)),
    (form(1, Fraction(8, 7)), form(Fraction(-7, 2), -3)),
    (form(-1, Fraction(-8, 7)), form(0, 1)),
    (form(-1, 0), form(0, -1)),
]
EXPECTED_G2_FIRST = [
    (form(5, Fraction(16, 7)), form(Fraction(-21, 2), -5)),
    (form(-5, Fraction(-16, 7)), form(7, 3)),
    (form(3, Fraction(8, 7)), form(-7, -3)),
    (form(-3, Fraction(-8, 7)), form(Fraction(7, 2), 1)),
    (form(1, 0), form(Fraction(-7, 2), -1)),
    (form(-1, 0), form(0, -1)),
]


class TestSixMoveGame:
    def test_symbolic_g1_first_trace(self):
        trace = play_symbolic(NODE1, SIX_MOVE)
        assert trace.outcome == "terminated"
        assert trace.moves == 6
        got = [(f.u, f.v) for f in trace.firings]
        assert got == EXPECTED_G1_FIRST

    def test_symbolic_g2_first_trace(self):
        trace = play_symbolic(NODE2, SIX_MOVE)
        assert trace.outcome == "terminated"
        assert trace.moves == 6
        got = [(f.u, f.v) for f in trace.firings]
        assert got == EXPECTED_G2_FIRST

    def test_same_terminal_numbers_both_openings(self):
        t1 = play_symbolic(NODE1, SIX_MOVE).final
        t2 = play_symbolic(NODE2, SIX_MOVE).final
        assert t1 == t2 == (form(-1, 0), form(0, -1))  # (-a, -b)

    def test_concrete_pairs_match_symbolic(self):
        for a, b in [(1, 1), (3, 2), (Fraction(1, 2), Fraction(9, 4))]:
            trace = play(a, b, NODE1, SIX_MOVE)
            assert trace.outcome == "terminated" and trace.moves == 6
            assert trace.final == (-F(a), -F(b))

    def test_boundary_pairs_take_five_moves(self):
        t = play(1, 0, NODE1, SIX_MOVE)
        assert t.outcome == "terminated" and t.moves == 5
        t = play(0, 1, NODE2, SIX_MOVE)
        assert t.outcome == "terminated" and t.moves == 5


class TestClassify:
    def test_at_bound_diverges(self):
        cls = classify(GameConfig.rational(UNIT, 2, 2))
        assert cls == Classification("all-diverge", True, None)

    def test_at_largest_root_rational(self):
        cls = classify(SIX_MOVE)
        assert cls == Classification("all-terminate", True, 5)

    def test_between_roots(self):
        cls = classify(GameConfig.rational(UNIT, 1, Fraction(5, 2)))
        assert cls == Classification("all-terminate", False, None)

    def test_at_largest_root_algebraic(self):
        for params, k in [(UNIT, 4), (LUCAS, 4), (WIDE, 7), (UNIT, 9)]:
            cfg = GameConfig.at_largest_root(params, k)
            cls = classify(cfg)
            assert cls == Classification("all-terminate", True, k)

    def test_above_bound_diverges(self):
        assert classify(GameConfig.rational(WIDE, 5, 1)).regime == "all-diverge"
        assert classify(GameConfig.rational(WIDE, Fraction(25, 6), 1)).regime == "all-diverge"

    def test_non_largest_root_is_not_strongly_convergent(self):
        # 2 - sqrt2 is a root of row 7 but smaller than the row-2 largest
        # root, so the game graph there is not strongly convergent
        from gibonacci.roots import roots_of

        smallest = roots_of(UNIT, 7).roots[0]
        ring = NumberRing(smallest.defining, smallest)
        cfg = GameConfig(UNIT, Fraction(1), ring.generator())
        assert classify(cfg) == Classification("all-terminate", False, None)

    def test_classified_once_per_config(self, monkeypatch):
        # classify keeps its result and pq on the config: predicted_moves and
        # terminal_numbers reuse them, so B is read and pq - B signed once
        cfg = GameConfig.at_largest_root(LUCAS, 9, Fraction(3, 2))
        calls = []
        monkeypatch.setattr(game, "bound_B", lambda params: calls.append(params) or bound_B(params))
        cls = classify(cfg)
        assert cls == Classification("all-terminate", True, 9)
        assert predicted_moves(cfg, 2, 3, NODE1) == 10
        terminal_numbers(cfg, 2, 3)
        assert classify(cfg) is cls and cfg.pq is cfg.pq
        assert calls == [LUCAS]

    def test_symbolic_play_needs_pair_dependence_resolved(self):
        # strictly between largest roots the move count depends on b/a, so a
        # fully symbolic game cannot be decided
        cfg = GameConfig.rational(UNIT, 1, Fraction(5, 2))
        with pytest.raises(IndeterminateSign):
            play_symbolic(NODE1, cfg)


class TestPredictedMoves:
    def test_at_root_counts(self):
        assert predicted_moves(SIX_MOVE, 1, 1, NODE1) == 6
        assert predicted_moves(SIX_MOVE, 0, 1, NODE2) == 5
        assert predicted_moves(SIX_MOVE, 1, 0, NODE1) == 5

    def test_threshold_both_sides_g1(self):
        # pq = 5/2 for unit seeds sits between the largest roots of rows 3
        # and 4; row values at 5/2 give the g1-first threshold b/a = 1/5
        cfg = GameConfig.rational(UNIT, 1, Fraction(5, 2))
        assert predicted_moves(cfg, 5, 1, NODE1) == 4
        assert predicted_moves(cfg, 5, 2, NODE1) == 5
        assert predicted_moves(cfg, 1, 0, NODE1) == 4
        for a, b, first in [(5, 1, NODE1), (5, 2, NODE1), (1, 0, NODE1)]:
            trace = play(a, b, first, cfg)
            assert trace.outcome == "terminated"
            assert trace.moves == predicted_moves(cfg, a, b, first)

    def test_threshold_both_sides_g2(self):
        cfg = GameConfig.rational(UNIT, 1, Fraction(5, 2))
        seen = set()
        for a in range(0, 7):
            for b in (1, 2, 3):
                want = predicted_moves(cfg, a, b, NODE2)
                trace = play(a, b, NODE2, cfg)
                assert trace.outcome == "terminated"
                assert trace.moves == want
                seen.add(want)
        assert seen == {4, 5}  # pairs on both sides of the threshold appear

    def test_diverging_config_rejected(self):
        with pytest.raises(ExactError):
            predicted_moves(GameConfig.rational(UNIT, 2, 2), 1, 1, NODE1)

    def test_unplayable_openings_refused_at_roots(self):
        # a zero coordinate under the first fired node: play refuses the
        # opening, so predict refuses it too; the other node opens the same
        # pair in k moves
        for params in (UNIT, LUCAS, WIDE):
            for k in range(2, 11):
                cfg = GameConfig.at_largest_root(params, k)
                for (a, b), first, other in [((0, 1), NODE1, NODE2), ((1, 0), NODE2, NODE1)]:
                    for call in (lambda: predicted_moves(cfg, a, b, first), lambda: play(a, b, first, cfg)):
                        with pytest.raises(ExactError, match=f"seeded firing of {first} needs"):
                            call()
                    assert predicted_moves(cfg, a, b, other) == k
                    assert play(a, b, other, cfg, budget=k + 4).moves == k


class TestSeedOrder:
    """Below alpha/beta = 1 the move count depends on the strategy, so
    predictions are refused there (classification still answers)."""

    HALF = GibParams.of(1, 2)

    def assert_refused(self, cfg, a, b, first):
        for call in (lambda: predicted_moves(cfg, a, b, first), lambda: terminal_numbers(cfg, a, b)):
            with pytest.raises(ExactError, match="alpha >= beta") as err:
                call()
            assert "\n" not in str(err.value)

    def test_root_of_row_six(self):
        cfg = GameConfig.at_largest_root(self.HALF, 6, 1)
        assert classify(cfg) == Classification("all-terminate", True, 6)
        moves = {s: play(2, 1, NODE1, cfg, strategy=s, budget=20) for s in ("alternate", "greedy-g1")}
        assert moves["alternate"].moves == 7 and moves["greedy-g1"].moves == 8
        assert moves["alternate"].final != moves["greedy-g1"].final
        self.assert_refused(cfg, 2, 1, NODE1)

    def test_root_of_row_twenty_five(self):
        cfg = GameConfig.at_largest_root(self.HALF, 25, Fraction(4, 3))
        assert play(2, 1, NODE1, cfg, strategy="greedy-g1", budget=40).moves == 27
        assert play(2, 1, NODE1, cfg, strategy="alternate", budget=40).moves == 26
        self.assert_refused(cfg, 2, 1, NODE1)

    def test_rational_root(self):
        # pq = 3/2 is the largest root of row 3 for seeds (1, 2)
        cfg = GameConfig.rational(self.HALF, 1, Fraction(3, 2))
        assert classify(cfg) == Classification("all-terminate", True, 3)
        assert play(1, 1, NODE1, cfg, strategy="alternate").moves == 4
        assert play(1, 1, NODE1, cfg, strategy="greedy-g1").moves == 5
        self.assert_refused(cfg, 1, 1, NODE1)
        self.assert_refused(GameConfig.rational(self.HALF, 1, Fraction(5, 2)), 1, 1, NODE2)

    def test_equal_seeds_still_predicted(self):
        assert predicted_moves(GameConfig.rational(GibParams.of(3, 3), 1, 1), 1, 1, NODE1) == 3


class TestRowScan:
    def count_rows(self, monkeypatch):
        # the row step as `polys._row_walk` calls it
        calls = []
        real = polys._next_row

        def counting(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(polys, "_next_row", counting)
        return calls

    def test_root_config_scans_once(self, monkeypatch):
        from gibonacci.game import _locate

        cfg = GameConfig.at_largest_root(LUCAS, 9, Fraction(3, 2))
        calls = self.count_rows(monkeypatch)
        assert classify(cfg).k_if_root == 9
        assert predicted_moves(cfg, 2, 3, NODE1) == 10
        final = terminal_numbers(cfg, 2, 3)
        assert classify(cfg).k_if_root == 9 and _locate(cfg) == (9, 0)
        # rows 2..9 once; row 10 at the root is minus row 8, no new step
        assert calls == list(range(2, 10))
        trace = play(2, 3, NODE1, cfg, budget=20)
        assert trace.moves == 10 and _values_equal(trace.final, final)

    def test_gap_config_scans_once(self, monkeypatch):
        cfg = GameConfig.rational(UNIT, 1, Fraction(5, 2))
        calls = self.count_rows(monkeypatch)
        counts = [predicted_moves(cfg, a, b, NODE1) for a, b in [(5, 1), (5, 2), (1, 0)]]
        assert counts == [4, 5, 4]
        assert calls == [2, 3, 4]
        # the memo lives on the config: an equal config scans again
        predicted_moves(GameConfig.rational(UNIT, 1, Fraction(5, 2)), 5, 1, NODE1)
        assert calls == [2, 3, 4] * 2


@lru_cache(maxsize=None)
def fraction_scan(params: GibParams, pq) -> tuple:
    """The row scan in Fractions: (k, sign, row k-1, row k) at pq."""
    prev2, prev = params.alpha, params.beta
    k = 1
    while True:
        k += 1
        cur = _next_row(pq, k, prev, prev2)
        if cur <= 0:
            return k, (cur > 0) - (cur < 0), prev, cur
        prev2, prev = prev, cur


def ring_element_scan(config: GameConfig, upto: int = game.GAME_ROW_BUDGET) -> tuple:
    """The row walk at a ring pq stepped on `RingElement`s: (k, [row 0, ...,
    row k]) for the first k >= 2 whose row value is not positive, or for
    k = upto when rows 2..upto are all positive."""
    pq = config.pq
    rows = [pq.ring.from_rational(config.params.alpha), pq.ring.from_rational(config.params.beta)]
    for k in range(2, upto + 1):
        rows.append(_next_row(pq, k, rows[-1], rows[-2]))
        if rows[-1].sign() <= 0:
            break
    return k, rows


def fraction_play(a, b, first, config, strategy="alternate", budget=64) -> tuple:
    """`play` as a Fraction loop: ([(node, u, v), ...], outcome), each
    firing normalized as it is made."""
    opening = seeded_fire(a, b, first, config)
    u, v = opening.u, opening.v
    firings = [(first, u, v)]
    last = first
    while True:
        legal = [node for node, x in ((NODE1, u), (NODE2, v)) if value_sign(x) > 0]
        if not legal:
            return firings, "terminated"
        if len(firings) >= budget:
            certified = game._certify_divergence(config, budget)
            return firings, "diverges-certified" if certified else "exceeded-budget"
        last = game._pick(legal, strategy, last, len(firings))
        if last == NODE1:
            u, v = -u, config.p * u + v
        else:
            u, v = u + config.q * v, -v
        firings.append((last, u, v))


class TestScaledPlay:
    """`play` runs a rational game on integers over one scale; every firing
    it reports must equal the Fraction loop's."""

    SEEDS = (UNIT, LUCAS, GibParams.of(Fraction(7, 3), Fraction(1, 2)), WIDE)
    STARTS = {NODE1: (F(2), Fraction(3, 4)), NODE2: (Fraction(1, 3), F(5))}

    def assert_same(self, a, b, first, cfg, strategy="alternate", budget=64):
        trace = play(a, b, first, cfg, strategy=strategy, budget=budget)
        firings, outcome = fraction_play(a, b, first, cfg, strategy, budget)
        assert (trace.outcome, trace.moves) == (outcome, len(firings))
        got = [(f.node, f.u, f.v) for f in trace.firings]
        assert got == firings
        assert all(type(f.u) is Fraction and type(f.v) is Fraction for f in trace.firings)
        return trace

    def test_matches_fraction_play_near_bound(self):
        outcomes = set()
        for params in self.SEEDS:
            bound = bound_B(params).value
            for p in (F(1), Fraction(1, 2), Fraction(7, 5), F(3)):
                for e in range(1, 5):
                    cfg = GameConfig.rational(params, p, (bound - Fraction(1, 10**e)) / p)
                    for first, (a, b) in self.STARTS.items():
                        for strategy in ("alternate", "greedy-g1", "greedy-g2"):
                            trace = self.assert_same(a, b, first, cfg, strategy, budget=2000)
                            outcomes.add(trace.outcome)
        assert outcomes == {"terminated"}

    def test_scripted_strategy(self):
        cfg = GameConfig.rational(LUCAS, Fraction(1, 2), 2 * (4 - Fraction(1, 10**3)))
        for first, (a, b) in self.STARTS.items():
            nodes = [node for node, _, _ in fraction_play(a, b, first, cfg, "greedy-g2", 2000)[0]]
            assert len(nodes) > 20
            self.assert_same(a, b, first, cfg, nodes[1:], budget=2000)

    def test_divergence_and_budget_exhaustion(self):
        for params in self.SEEDS:
            bound = bound_B(params).value
            for first, (a, b) in self.STARTS.items():
                above = GameConfig.rational(params, 3, bound / 3)
                assert self.assert_same(a, b, first, above, budget=40).outcome == "diverges-certified"
                near = GameConfig.rational(params, Fraction(1, 2), 2 * (bound - Fraction(1, 10**3)))
                assert self.assert_same(a, b, first, near, budget=6).outcome == "exceeded-budget"

    def test_ring_game_keeps_its_values(self):
        cfg = GameConfig.at_largest_root(LUCAS, 9, Fraction(3, 2))
        for first, (a, b) in self.STARTS.items():
            trace = play(a, b, first, cfg)
            firings, outcome = fraction_play(a, b, first, cfg)
            assert (trace.outcome, trace.moves) == (outcome, len(firings)) == ("terminated", 10)
            for f, (node, u, v) in zip(trace.firings, firings):
                assert f.node == node and _values_equal((f.u, f.v), (u, v))

    def test_read_order_does_not_change_values(self):
        # a firing read after its predecessor takes the kept value from it;
        # one read first builds both, and reads no earlier firing
        cfg = GameConfig.rational(LUCAS, Fraction(7, 5), (4 - Fraction(1, 10**3)) * Fraction(5, 7))
        for first, (a, b) in self.STARTS.items():
            backward = play(a, b, first, cfg, budget=2000)
            assert backward.final == (backward.firings[-1].u, backward.firings[-1].v)
            assert all(f._values is None for f in backward.firings[:-1])
            got = [(f.node, f.u, f.v) for f in reversed(backward.firings)][::-1]
            forward = self.assert_same(a, b, first, cfg, budget=2000)
            assert [(f.node, f.u, f.v) for f in forward.firings] == got
            assert forward.final == backward.final

    def test_fire_divides_by_its_scale(self):
        cfg = GameConfig.rational(WIDE, Fraction(7, 2), Fraction(8, 7))
        state = seeded_fire(1, 1, NODE1, cfg)
        for f in play(1, 1, NODE1, cfg).firings[1:]:
            state = fire(state, f.node, cfg)
            assert (state.u, state.v) == (f.u, f.v)
            assert type(state.u) is Fraction and type(state.v) is Fraction


def random_ring_games() -> list:
    """Ten seeded largest-root games [(config, a, b), ...]: seed ratio in
    [1, 3], k 6-40, random p, |lc(m)| up to 4, and zero-coordinate starts."""
    rng = random.Random(24)
    games = []
    for _ in range(10):
        beta = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        params = GibParams.of(beta * Fraction(rng.randint(4, 12), 4), beta)  # ratio in [1, 3]
        cfg = GameConfig.at_largest_root(params, rng.randint(6, 40), Fraction(rng.randint(1, 12), rng.randint(1, 4)))
        a, b = rng.randint(0, 9), rng.randint(0, 9)
        games.append((cfg, *((a or 1, 0) if rng.random() < 0.3 else (a, b or 1))))
    return games


def degree_two_configs() -> list:
    """q = (t^2 + 1)/(c p) at row 9 of (7/3, 1/2), p = 5/3: the multiplier
    reduces t^2 and beyond mod m; pq is about 12.1 for c = 3 and 5.58 for
    c = 13/2, with B = 196/33."""
    params = GibParams.of(Fraction(7, 3), Fraction(1, 2))
    theta = largest_root(params, 9)
    t = NumberRing(theta.defining, theta).generator()
    p = Fraction(5, 3)
    return [GameConfig(params, p, (t * t + 1) * (1 / (c * p))) for c in (F(3), Fraction(13, 2))]


def negative_lead_config() -> GameConfig:
    """The largest root of row 9 of (7/3, 1/2) in the ring of -m, p = 5/3."""
    params = GibParams.of(Fraction(7, 3), Fraction(1, 2))
    theta = largest_root(params, 9)
    p = Fraction(5, 3)
    return GameConfig(params, p, NumberRing(-theta.defining, theta).generator() * (1 / p))


def ring_element_play(a, b, first, config, strategy="alternate", budget=64) -> tuple:
    """`play` stepped on `RingElement`s: ([(node, u, v), ...], outcome).

    The pair (u, w) with w = v/p runs over scale 1 with the multiplier pq,
    and both values are signed at every position.  Each firing's values
    are those `play` reports: g1 keeps -u and builds v = p*w, g2 keeps -v.
    """
    p, pq = config.p, config.pq
    opening = seeded_fire(a, b, first, config)
    u, w = opening.u, (1 / p) * opening.v
    firings = [(first, opening.u, opening.v)]
    last = first
    while True:
        legal = [node for node, x in ((NODE1, u), (NODE2, w)) if value_sign(x) > 0]
        if not legal:
            return firings, "terminated"
        if len(firings) >= budget:
            certified = game._certify_divergence(config, budget)
            return firings, "diverges-certified" if certified else "exceeded-budget"
        last = game._pick(legal, strategy, last, len(firings))
        _, before_u, before_v = firings[-1]
        if last == NODE1:
            u, w = -u, u + w
            firings.append((last, -before_u, p * w))
        else:
            u, w = u + pq * w, -w
            firings.append((last, u, -before_v))


class TestRingPlay:
    """`play` at a ring multiplier runs on integer coefficient vectors over
    one scale; every firing it reports must equal the `RingElement` loop's,
    value and type."""

    STRATEGIES = ("alternate", "greedy-g1", "greedy-g2")

    def assert_same(self, a, b, first, cfg, strategy, budget):
        trace = play(a, b, first, cfg, strategy=strategy, budget=budget)
        firings, outcome = ring_element_play(a, b, first, cfg, strategy, budget)
        assert (trace.outcome, trace.moves) == (outcome, len(firings))
        assert [(f.node, f.u, f.v) for f in trace.firings] == firings
        # read last to first, each firing builds both values itself
        backward = play(a, b, first, cfg, strategy=strategy, budget=budget)
        assert [(f.node, f.u, f.v) for f in reversed(backward.firings)] == firings[::-1]
        return trace

    def test_matches_ring_element_play_on_random_configs(self):
        leads, starts = set(), set()
        for cfg, a, b in random_ring_games():
            assert isinstance(cfg.pq, RingElement)
            leads.add(abs(cfg.pq.ring.defining.ints[-1]))
            for first in (NODE1, NODE2):
                if (a, b)[first == NODE2] == 0:
                    continue
                starts.add((a == 0 or b == 0, first))
                for strategy in self.STRATEGIES:
                    trace = self.assert_same(a, b, first, cfg, strategy, budget=48)
                    assert trace.outcome == "terminated"
            nodes = [node for node, _, _ in ring_element_play(a, b, NODE1 if a else NODE2, cfg, "greedy-g2")[0]]
            self.assert_same(a, b, NODE1 if a else NODE2, cfg, nodes[1:], budget=48)
        assert max(leads) > 1  # m not monic: the g2 step multiplies the scale
        assert {(True, NODE1), (False, NODE1), (False, NODE2)} <= starts

    def test_multiplier_of_degree_two(self):
        outcomes = set()
        for cfg in degree_two_configs():
            assert cfg.pq.poly.degree == 2 and abs(cfg.pq.ring.defining.ints[-1]) > 1
            for first, (a, b) in ((NODE1, (2, 0)), (NODE2, (1, 3))):
                for strategy in self.STRATEGIES:
                    outcomes.add(self.assert_same(a, b, first, cfg, strategy, budget=12).outcome)
        assert outcomes == {"diverges-certified", "terminated"}

    def test_defining_polynomial_with_negative_leading_coefficient(self):
        # m and -m define one ring: the multiplier signs m so the scale stays positive
        cfg = negative_lead_config()
        assert cfg.pq.ring.defining.ints[-1] < -1
        for first, (a, b) in ((NODE1, (2, 0)), (NODE2, (1, 3))):
            for strategy in self.STRATEGIES:
                trace = self.assert_same(a, b, first, cfg, strategy, budget=16)
                assert (trace.outcome, trace.moves) == ("terminated", 9 if 0 in (a, b) else 10)


class TestRingScan:
    """`_scan`, `g_hat` and the divergence certificate step integer
    coefficient vectors at a ring pq; the rows they report must equal the
    `RingElement` walk's."""

    def assert_scan(self, cfg):
        k, rows = ring_element_scan(cfg)
        got_k, sign, w_prev, w_cur, scale = _scan(cfg)
        assert (got_k, sign) == (k, rows[k].sign())
        assert (w_prev * Fraction(1, scale), w_cur * Fraction(1, scale)) == (rows[k - 1], rows[k])
        rows.append(_next_row(cfg.pq, k + 1, rows[k], rows[k - 1]))
        assert cfg.g_hat(k + 1) == [cfg.params.alpha - cfg.params.beta, *rows]
        return k, sign

    def test_matches_ring_element_scan_at_largest_roots(self):
        for cfg, _, _ in random_ring_games():
            assert self.assert_scan(cfg)[1] == 0
        assert self.assert_scan(negative_lead_config()) == (9, 0)

    def test_matches_ring_element_scan_off_the_roots(self):
        above, below = degree_two_configs()
        k, rows = ring_element_scan(above, 12)
        assert all(row.sign() > 0 for row in rows) and game._certify_divergence(above, 12)
        assert above.g_hat(12) == [above.params.alpha - above.params.beta, *rows]
        assert self.assert_scan(below)[1] == -1
        # 2 - sqrt2 is a root of unit row 7 but no largest root
        from gibonacci.roots import roots_of

        smallest = roots_of(UNIT, 7).roots[0]
        ring = NumberRing(smallest.defining, smallest)
        assert self.assert_scan(GameConfig(UNIT, Fraction(1), ring.generator()))[1] == -1

    def test_scan_and_opening_reduce_nothing(self, monkeypatch):
        # p*q and the opening's ring products are content scales, and the rows
        # integer vectors: nothing is reduced mod P_k
        cfg = GameConfig.at_largest_root(LUCAS, 9, Fraction(3, 2))
        calls, real = [], Poly.__mod__
        monkeypatch.setattr(Poly, "__mod__", lambda f, g: calls.append(g) or real(f, g))
        assert _scan(cfg)[:2] == (9, 0)
        for node in NODES:
            seeded_fire(2, 3, node, cfg)
        assert calls == []


class TestOneSignPerMove:
    """A move signs one value: the fired value is negated, so after g1 u < 0
    and after g2 v < 0.  The opening signs both."""

    def test_ring_play_pays_one_interval_sign_per_move(self, monkeypatch):
        from gibonacci import exactnum

        counts = {"signs": 0}
        box_range = exactnum._box_range

        def counted(*args):
            counts["signs"] += 1
            return box_range(*args)

        monkeypatch.setattr(exactnum, "_box_range", counted)
        monkeypatch.setattr(game, "_box_range", counted)
        for params, k, p in ((UNIT, 24, F(1)), (GibParams.of(Fraction(7, 3), Fraction(1, 2)), 31, Fraction(5, 3))):
            cfg = GameConfig.at_largest_root(params, k, p)
            play(1, 1, NODE1, cfg)  # the first game bisects the root's kept box where a value is near 0
            for first, (a, b) in ((NODE1, (1, 1)), (NODE2, (2, 3)), (NODE1, (2, 0)), (NODE2, (0, 5))):
                for strategy in ("alternate", "greedy-g1", "greedy-g2"):
                    counts["signs"] = 0
                    trace = play(a, b, first, cfg, strategy=strategy, budget=k + 4)
                    assert trace.outcome == "terminated"
                    assert counts["signs"] <= trace.moves + 2


class TestPlayNearBound:
    """`play` against `predicted_moves` where the games run thousands of
    moves: pq = B - 10^-e with B = 4 (seed ratio at most 2)."""

    SEEDS = (UNIT, LUCAS, GibParams.of(Fraction(3, 2), 1), GibParams.of(Fraction(5, 3), Fraction(4, 3)))

    @staticmethod
    def check(params, e, first):
        cfg = GameConfig.rational(params, 1, 4 - Fraction(1, 10**e))
        want = predicted_moves(cfg, 1, 1, first)
        trace = play(1, 1, first, cfg, budget=want + 4)
        assert (trace.outcome, trace.moves) == ("terminated", want)
        return want

    @pytest.mark.parametrize("first", NODES)
    @pytest.mark.parametrize("e", [5, 6])
    def test_matches_prediction(self, e, first):
        for params in self.SEEDS:
            assert self.check(params, e, first) > 10 ** (e / 2)

    @pytest.mark.parametrize("first", NODES)
    def test_matches_prediction_at_e7(self, first):
        params = UNIT if first == NODE1 else self.SEEDS[3]
        assert self.check(params, 7, first) > 10**3.5

    def test_unit_game_at_e6_is_fast(self):
        cfg = GameConfig.rational(UNIT, 1, 4 - Fraction(1, 10**6))
        start = time.perf_counter()
        trace = play(1, 1, NODE1, cfg, budget=7000)
        elapsed = time.perf_counter() - start
        assert (trace.outcome, trace.moves) == ("terminated", 6283)
        assert elapsed < 0.5, f"play at pq = 4 - 10^-6 took {elapsed:.2f} s"


class TestIntegerRowScan:
    SEEDS = (UNIT, LUCAS, GibParams.of(Fraction(7, 3), Fraction(1, 2)), WIDE)

    def points(self, params):
        bound = bound_B(params).value
        near = [bound - Fraction(1, 10**e) for e in range(1, 6)]
        # pq = alpha/beta is the root of row 2; 1, 2 and 3 are roots of
        # unit rows 2, 3 and 5
        return near + [params.ratio, F(1), F(2), F(3), Fraction(13, 5)]

    def test_matches_fraction_scan(self):
        zeros = 0
        for params in self.SEEDS:
            for pq in self.points(params):
                want = fraction_scan(params, pq)
                zeros += want[1] == 0
                for p in (F(1), Fraction(1, 2), F(3)):
                    got = _scan(GameConfig.rational(params, p, pq / p))
                    k, s, w_prev, w_cur, scale = got
                    assert (k, s, Fraction(w_prev, scale), Fraction(w_cur, scale)) == want
                    # the scan holds integers only: no Fraction is built
                    assert all(type(v) is int for v in got) and scale > 0
        assert zeros >= len(self.SEEDS) + 3

    def test_near_bound_crossing(self):
        # unit seeds cross just below 4 at about 2*pi*10^(e/2) rows
        k, s = _scan(GameConfig.rational(UNIT, 1, 4 - Fraction(1, 10**6)))[:2]
        assert (k, s) == (6283, -1)

    def test_row_budget(self, monkeypatch):
        monkeypatch.setattr(game, "GAME_ROW_BUDGET", 100)
        near = GameConfig.rational(UNIT, 1, Fraction(3999, 1000))
        with pytest.raises(ExactError, match="GAME_ROW_BUDGET"):
            classify(near)
        # the ring scan at a largest root is bounded the same way
        monkeypatch.setattr(game, "GAME_ROW_BUDGET", 5)
        with pytest.raises(ExactError, match="GAME_ROW_BUDGET"):
            classify(GameConfig.at_largest_root(LUCAS, 9))
        assert classify(GameConfig.rational(UNIT, 1, Fraction(5, 2))).k_if_root is None


@lru_cache(maxsize=None)
def closed_form_rows(params: GibParams, pq) -> tuple:
    """(j, row j-1, row j) at a pq that is no root: j from the integer scan,
    the rows in Fractions from the eigenvalue closed form, which must show
    row j-1 > 0 > row j.  (`fraction_scan` is too slow for the grid: at unit
    seeds and pq = 4 - 10^-6 it normalizes 6,283 ever larger Fractions.)"""
    j, s = game._locate(GameConfig.rational(params, 1, pq))
    g1, g = binet_eval(params, j - 1, pq), binet_eval(params, j, pq)
    assert s == -1 and g1 > 0 > g
    return j, g1, g


class TestScaledMargins:
    """`predicted_moves` signs its margins on the scan's scaled integer rows;
    they must decide as the margins on the Fraction rows do."""

    @staticmethod
    def fraction_moves(cfg, a, b, first, j, g1, g):
        p, q = cfg.p, cfg.q
        if first == NODE1:
            margin = -g * a - q * g1 * b if j % 2 == 0 else -g * p * a - g1 * b
        else:
            margin = -g * b - p * g1 * a if j % 2 == 0 else -g * q * b - g1 * a
        return j if margin >= 0 else j + 1

    @staticmethod
    def start_pairs(cfg, first, j, g1, g):
        """Pairs on the threshold, just past it and on the boundary."""
        p, q = cfg.p, cfg.q
        if first == NODE1:  # threshold on b/a
            t = -g / (q * g1) if j % 2 == 0 else -g * p / g1
            return [(t.denominator, t.numerator), (t.denominator, t.numerator + 1), (1, 0)]
        t = -g / (p * g1) if j % 2 == 0 else -g * q / g1  # threshold on a/b
        return [(t.numerator, t.denominator), (t.numerator + 1, t.denominator), (0, 1)]

    def test_match_fraction_margins(self):
        from gibonacci.verify import _gap_rational

        parities = set()
        for params in TestIntegerRowScan.SEEDS:
            bound = bound_B(params).value
            points = [bound - Fraction(1, 10**e) for e in range(1, 7)]
            points += [_gap_rational(params, j) for j in range(2, 9)]
            for pq in points:
                j, g1, g = closed_form_rows(params, pq)
                if pq.denominator > 1:
                    parities.add(j % 2)
                for p in (F(1), Fraction(1, 2), F(3)):
                    cfg = GameConfig.rational(params, p, pq / p)
                    for first in (NODE1, NODE2):
                        moves = set()
                        for a, b in self.start_pairs(cfg, first, j, g1, g):
                            want = self.fraction_moves(cfg, a, b, first, j, g1, g)
                            assert predicted_moves(cfg, a, b, first) == want
                            moves.add(want)
                        assert moves == {j, j + 1}  # both sides of the threshold
        assert parities == {0, 1}


class TestScaledTerminalPairs:
    """terminal_numbers divides the scan's row k-1 by its scale; at rational
    roots with a denominator above 1 that gives the Fraction pair."""

    def test_row_two_roots(self):
        # alpha/beta is the root of row 2: 5/2 for (5,2), 14/3 for (7/3,1/2)
        for params in (WIDE, GibParams.of(Fraction(7, 3), Fraction(1, 2))):
            pq = params.ratio
            k, s, g_km1, g_k = fraction_scan(params, pq)
            assert (k, s, g_k) == (2, 0, 0) and pq.denominator > 1
            g_kp1 = _next_row(pq, k + 1, g_k, g_km1)
            for p in (F(1), Fraction(1, 2), F(3)):
                cfg = GameConfig.rational(params, p, pq / p)
                assert _scan(cfg)[4] > 1
                for a, b in [(1, 1), (2, 3), (Fraction(1, 2), 5)]:
                    want = (cfg.q * g_kp1 * b, -(p * g_km1 * a))  # row 2 is even
                    assert terminal_numbers(cfg, a, b) == want
                    for strategy in ("alternate", "greedy-g1", "greedy-g2"):
                        trace = play(a, b, NODE1, cfg, strategy=strategy)
                        assert trace.moves == k + 1 and trace.final == want


class TestGHat:
    def test_matches_fraction_rows(self):
        for params in TestIntegerRowScan.SEEDS:
            for pq in (Fraction(5, 2), Fraction(13, 5), params.ratio / 3):
                cfg = GameConfig.rational(params, 3, pq / 3)
                rows = [params.alpha - params.beta, params.alpha, params.beta]
                for l in range(2, 13):
                    rows.append(_next_row(pq, l, rows[-1], rows[-2]))
                for upto in range(-1, 12):
                    got = cfg.g_hat(upto)
                    assert got == rows[: upto + 2]
                    assert all(type(v) is Fraction for v in got)

    def test_refuses_upto_below_minus_one(self):
        cfg = GameConfig.rational(UNIT, 1, Fraction(5, 2))
        for upto in (-2, -3, -4):
            with pytest.raises(ExactError, match="upto >= -1") as err:
                cfg.g_hat(upto)
            assert "\n" not in str(err.value)


class TestTerminalNumbers:
    def test_six_move_terminal(self):
        assert terminal_numbers(SIX_MOVE, 1, 1) == (F(-1), F(-1))

    def test_even_row_rational_root(self):
        # unit seeds with pq = 1: row 2 largest root, even parity
        cfg = GameConfig.rational(UNIT, 1, 1)
        for a, b in [(2, 3), (1, 1), (Fraction(1, 2), 5)]:
            assert terminal_numbers(cfg, a, b) == (-F(b), -F(a))

    def test_matches_play_across_strategies(self):
        cfg = GameConfig.at_largest_root(LUCAS, 4)
        expect = terminal_numbers(cfg, 2, 3)
        for strategy in ("alternate", "greedy-g1", "greedy-g2"):
            for first in (NODE1, NODE2):
                trace = play(2, 3, first, cfg, strategy=strategy)
                assert trace.outcome == "terminated"
                assert trace.moves == 5
                u, v = trace.final
                assert u == expect[0] and v == expect[1]

    def test_twin_equality_in_quotient_ring(self):
        # row k+1 and row k-1 values at the root are exact negatives
        cfg = GameConfig.at_largest_root(LUCAS, 4)
        gh = cfg.g_hat(5)
        twin_sum = gh[5 + 1] + gh[3 + 1]  # rows 5 and 3 at the root
        assert isinstance(twin_sum, RingElement) and twin_sum.is_zero

    def test_twin_equality_up_to_row_twelve(self):
        for params in (UNIT, LUCAS, WIDE):
            for k in range(2, 13):
                cfg = GameConfig.at_largest_root(params, k)
                gh = cfg.g_hat(k + 1)
                twin_sum = gh[k + 2] + gh[k]
                if isinstance(twin_sum, RingElement):
                    assert twin_sum.is_zero
                else:
                    assert twin_sum == 0

    def test_terminal_twin_pair_forms_agree(self):
        # (q*g_{k+1}*b, -p*g_{k-1}*a) equals (-q*g_{k-1}*b, p*g_{k+1}*a)
        # as quotient-ring elements, for an even row
        cfg = GameConfig.at_largest_root(LUCAS, 4)
        gh = cfg.g_hat(5)
        q = cfg.q
        a, b = Fraction(2), Fraction(3)
        displayed = (q * gh[5 + 1] * b, -(Fraction(cfg.p) * gh[3 + 1] * a))
        twin = (-(q * gh[3 + 1] * b), Fraction(cfg.p) * gh[5 + 1] * a)
        assert displayed[0].poly == twin[0].poly
        assert displayed[1].poly == twin[1].poly

    def test_requires_root_config(self):
        with pytest.raises(ExactError):
            terminal_numbers(GameConfig.rational(UNIT, 1, Fraction(5, 2)), 1, 1)


class TestAlgebraicPlay:
    def test_strong_convergence_small_grid(self):
        for params, k in [(UNIT, 4), (UNIT, 5), (LUCAS, 4), (WIDE, 6)]:
            cfg = GameConfig.at_largest_root(params, k)
            expect_strong = terminal_numbers(cfg, 1, 1)
            for first in (NODE1, NODE2):
                trace = play(1, 1, first, cfg, budget=40)
                assert trace.outcome == "terminated"
                assert trace.moves == k + 1
                assert _values_equal(trace.final, expect_strong)
            # boundary pairs: k moves
            t = play(1, 0, NODE1, cfg, budget=40)
            assert t.moves == k
            t = play(0, 1, NODE2, cfg, budget=40)
            assert t.moves == k

    def test_symbolic_trace_matches_figure_pattern(self):
        for cfg in (
            SIX_MOVE,
            GameConfig.rational(UNIT, 1, 2),  # pq = 2 is the row-3 largest root
            GameConfig.at_largest_root(LUCAS, 4),
        ):
            k = classify(cfg).k_if_root
            gh = cfg.g_hat(k + 1)
            q = cfg.q

            def g(l):
                return gh[l + 1]

            trace = play_symbolic(NODE1, cfg, budget=40)
            assert trace.moves == k + 1
            for m, firing in enumerate(trace.firings, start=1):
                if m % 2 == 1:
                    t = (m - 1) // 2
                    exp_u = LinearForm(-g(2 * t), -(q * g(2 * t - 1)))
                    exp_v = LinearForm(F(cfg.p) * g(2 * t + 1), g(2 * t))
                else:
                    t = (m - 2) // 2
                    exp_u = LinearForm(g(2 * t + 2), q * g(2 * t + 1))
                    exp_v = LinearForm(-(F(cfg.p) * g(2 * t + 1)), -g(2 * t))
                assert _values_equal((firing.u, firing.v), (exp_u, exp_v))

    def test_divergence_certified(self):
        for cfg in (
            GameConfig.rational(UNIT, 2, 2),
            GameConfig.rational(UNIT, 1, 5),
            GameConfig.rational(WIDE, Fraction(25, 6), 1),
        ):
            trace = play(1, 1, NODE1, cfg, budget=25)
            assert trace.outcome == "diverges-certified"
            assert trace.moves == 25

    def test_budget_exhaustion_without_certificate(self):
        # terminating config with a budget too small to finish
        trace = play(1, 1, NODE1, SIX_MOVE, budget=3)
        assert trace.outcome == "exceeded-budget"


class TestScriptedStrategy:
    def test_full_scripted_game(self):
        # script covers moves 2..6; move 1 is the seeded opening
        trace = play(1, 1, NODE1, SIX_MOVE, strategy=["g2", "g1", "g2", "g1", "g2"])
        assert trace.outcome == "terminated" and trace.moves == 6
        assert trace.final == (F(-1), F(-1))

    def test_illegal_scripted_move_rejected(self):
        with pytest.raises(ExactError, match="illegal"):
            play(1, 1, NODE1, SIX_MOVE, strategy=["g1"])

    def test_script_exhaustion_rejected(self):
        with pytest.raises(ExactError, match="script"):
            play(1, 1, NODE1, SIX_MOVE, strategy=["g2"])


class TestValueSign:
    def test_mixed_symbolic_sign_raises(self):
        with pytest.raises(IndeterminateSign):
            value_sign(form(1, -1))

    def test_agreeing_signs(self):
        assert value_sign(form(1, 0)) == 1
        assert value_sign(form(0, -2)) == -1
        assert value_sign(form(0, 0)) == 0

    def test_ring_element_sign(self):
        theta = largest_root(LUCAS, 4)  # 2 + sqrt2
        ring = NumberRing(theta.defining, theta)
        root = ring.generator()
        assert (root - 3).sign() == 1  # 2 + sqrt2 > 3
        assert (root - 4).sign() == -1
        assert (root * root - 4 * root + 2).sign() == 0


class TestValueText:
    """`value_to_text` prints every kind of value to the requested digits."""

    def test_ring_element_digits(self):
        theta = largest_root(LUCAS, 4)  # 2 + sqrt2
        root = NumberRing(theta.defining, theta).generator()
        assert game.value_to_text(root, 5) == "t ~ 3.4142"
        assert game.value_to_text(root - 3, 20) == "t - 3 ~ 0.4142135623730950488"
        assert game.value_to_text(root) == "t ~ 3.41421356237309504880168872421"

    def test_linear_form_digits(self):
        theta = largest_root(LUCAS, 4)
        root = NumberRing(theta.defining, theta).generator()
        assert game.value_to_text(form(Fraction(1, 3), -2), 4) == "(1/3 = 0.3333)*a + (-2/1 = -2)*b"
        text = game.value_to_text(LinearForm(root, Fraction(2, 3)), 3)
        assert text == "(t ~ 3.41)*a + (2/3 = 0.667)*b"


def test_play_matches_prediction_on_random_configs():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    positive = st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=8)
    starts = st.fractions(min_value=0, max_value=10, max_denominator=6)

    @hyp.settings(max_examples=150, deadline=None, derandomize=True)
    @hyp.given(
        st.fractions(min_value=1, max_value=10, max_denominator=8),  # alpha/beta
        positive,  # beta
        positive,  # p
        st.fractions(min_value=Fraction(1, 64), max_value=Fraction(63, 64), max_denominator=64),
        starts,
        starts,
        st.sampled_from([NODE1, NODE2]),
        st.sampled_from(["alternate", "greedy-g1", "greedy-g2"]),
    )
    def check(ratio, beta, p, share, a, b, first, strategy):
        # the opening node needs a positive value
        hyp.assume((a if first == NODE1 else b) > 0)
        params = GibParams.of(ratio * beta, beta)
        pq = share * bound_B(params).value  # pq < B: every game terminates
        config = GameConfig.rational(params, p, pq / p)
        want = predicted_moves(config, a, b, first)
        trace = play(a, b, first, config, strategy=strategy, budget=want + 4)
        assert trace.outcome == "terminated" and trace.moves == want

    check()


def _values_equal(got, expected) -> bool:
    def scalar_eq(x, y):
        # a ring element holding a constant equals the plain rational
        if isinstance(x, RingElement) and isinstance(y, RingElement):
            return x.poly == y.poly
        if isinstance(x, RingElement):
            return x.poly == Poly.constant(y)
        if isinstance(y, RingElement):
            return y.poly == Poly.constant(x)
        return x == y

    gu, gv = got
    eu, ev = expected
    if isinstance(gu, LinearForm):
        return all(
            scalar_eq(a, b)
            for a, b in [(gu.ca, eu.ca), (gu.cb, eu.cb), (gv.ca, ev.ca), (gv.cb, ev.cb)]
        )
    return scalar_eq(gu, eu) and scalar_eq(gv, ev)

"""Command-line front end.

Subcommands: array, poly, roots, binet, game (play/classify/predict/repl),
poset (enum/rgf/check), triangle, verify.  Every command emits text or JSON;
triangle additionally knows csv and poset enum knows dot.  Rational inputs
are integers or num/den; decimal literals are rejected rather than silently
rounded.  Domain errors exit 1 with a one-line diagnostic on stderr; usage
errors exit 2 through argparse.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .exactnum import (
    ExactError,
    check_digits,
    decimal_str,
    format_rational,
    poly_to_strings,
    poly_to_text,
    rational,
)
from .game import (
    NODE1,
    NODE2,
    GameConfig,
    classify,
    fire,
    play,
    predicted_moves,
    seeded_fire,
    value_to_json,
    value_to_text,
)
from .polys import GibParams, array_rows, binet_eval, sign_alternating_poly
from .posets import (
    build_poset,
    check_lattice,
    is_connected,
    is_palindromic,
    poset_to_dot,
    poset_to_json,
    rank_generating_function,
    triangle_polynomial,
    triangle_row,
    triangle_row_csv,
)
from .roots import bound_B, roots_of
from .verify import run_suite

DEFAULT_DIGITS = 30


def _format_choice(args) -> str:
    """--format, else GIBONACCI_FORMAT (checked against the same choices), else text."""
    if args.format:
        return args.format
    fmt = os.environ.get("GIBONACCI_FORMAT") or "text"
    if fmt not in args.format_choices:
        raise ExactError(
            f"GIBONACCI_FORMAT={fmt!r} is not a format of this command; use {', '.join(args.format_choices)}"
        )
    return fmt


def _params(args) -> GibParams:
    return GibParams.of(rational(args.alpha), rational(args.beta))


def _emit(text: str):
    sys.stdout.write(text + "\n")


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def cmd_array(args) -> int:
    if args.rows < 1:
        raise ExactError(f"--rows must be at least 1 (got {args.rows})")
    rows = array_rows(_params(args), args.rows)  # refuses past the entry budget before any row is built
    if _format_choice(args) == "json":
        for k, row in enumerate(rows):  # streamed: the rows of one json.dumps list, one at a time
            sys.stdout.write(("[" if k == 0 else ", ") + json.dumps([format_rational(v) for v in row]))
        _emit("]")
    else:
        for k, row in enumerate(rows):
            _emit(f"row {k}: " + "  ".join(decimal_str(v, 12) if v.denominator != 1 else str(v.numerator) for v in row))
    return 0


def cmd_poly(args) -> int:
    params = _params(args)
    if args.k < 0:  # P_{-1} = 0 is the recurrence's helper row, not a row
        raise ExactError(f"row index must be nonnegative (got {args.k})")
    poly = sign_alternating_poly(params, args.k)
    if _format_choice(args) == "json":
        _emit(json.dumps(poly_to_strings(poly)))
    else:
        _emit(poly_to_text(poly))
    return 0


def cmd_roots(args) -> int:
    params = _params(args)
    rs = roots_of(params, args.k)
    bound = bound_B(params)
    if _format_choice(args) == "json":
        payload = {
            "k": args.k,
            "bound": format_rational(bound.value),
            "regime": bound.regime,
            "roots": [{**r.to_json(), "decimal": r.decimal(args.digits)} for r in rs.roots],
        }
        _emit(json.dumps(payload))
    else:
        _emit(f"{rs.count} roots of row {args.k}, bound {format_rational(bound.value)} ({bound.regime})")
        for i, r in enumerate(rs.roots, start=1):
            lo, hi = format_rational(r.enclosure.lo), format_rational(r.enclosure.hi)
            where = f"[{lo}, {hi}]" if lo == hi else f"({lo}, {hi}]"  # (r, r] would be empty
            _emit(f"  root {i}: {r.decimal(args.digits)}  in {where}")
    return 0


def cmd_binet(args) -> int:
    params = _params(args)
    value = binet_eval(params, args.k, rational(args.x))
    if _format_choice(args) == "json":
        _emit(json.dumps({"value": format_rational(value), "decimal": decimal_str(value, args.digits)}))
    else:
        _emit(f"{format_rational(value)} = {decimal_str(value, args.digits)}")
    return 0


def _config(args) -> GameConfig:
    return GameConfig.rational(_params(args), rational(args.p), rational(args.q))


def cmd_game_play(args) -> int:
    cfg = _config(args)
    trace = play(rational(args.a), rational(args.b), args.first, cfg, strategy=args.strategy, budget=args.budget)
    if _format_choice(args) == "json":
        for firing in trace.firings:
            _emit(json.dumps({"node": firing.node, "u": value_to_json(firing.u), "v": value_to_json(firing.v)}))
        _emit(json.dumps({"outcome": trace.outcome, "moves": trace.moves}))
    else:
        for m, firing in enumerate(trace.firings, start=1):
            _emit(f"move {m} fires {firing.node}: u = {value_to_text(firing.u, args.digits)}, v = {value_to_text(firing.v, args.digits)}")
        _emit(f"outcome: {trace.outcome} after {trace.moves} moves")
    return 0


def cmd_game_classify(args) -> int:
    cfg = _config(args)
    cls = classify(cfg)
    if _format_choice(args) == "json":
        _emit(json.dumps({"regime": cls.regime, "strongly_convergent": cls.strongly_convergent, "k_if_root": cls.k_if_root}))
    else:
        parts = [cls.regime, "strongly convergent" if cls.strongly_convergent else "not strongly convergent"]
        if cls.k_if_root is not None:
            parts.append(f"pq is the largest root of row {cls.k_if_root}")
        _emit("; ".join(parts))
    return 0


def cmd_game_predict(args) -> int:
    cfg = _config(args)
    moves = predicted_moves(cfg, rational(args.a), rational(args.b), args.first)
    if _format_choice(args) == "json":
        _emit(json.dumps({"moves": moves}))
    else:
        _emit(str(moves))
    return 0


def run_repl(cfg: GameConfig, a, b, lines, write, digits: int = DEFAULT_DIGITS) -> int:
    """Interactive game loop over an iterator of input lines.

    The first firing uses the seeded opening move; afterwards the ordinary
    rules apply.  Illegal choices leave the state unchanged.
    """
    from .game import GameState, _check_pair, _legal_nodes

    state = GameState(*_check_pair(a, b), 0, False)
    write(f"seeds ({format_rational(cfg.params.alpha)}, {format_rational(cfg.params.beta)}), "
          f"p = {format_rational(cfg.p)}, q = {format_rational(cfg.q)}\n")
    write(f"start: u = {value_to_text(state.u, digits)}, v = {value_to_text(state.v, digits)}\n")
    while True:
        if state.initial_done and not _legal_nodes(state.u, state.v):
            write(f"terminated after {state.moves_made} moves at "
                  f"(u = {value_to_text(state.u, digits)}, v = {value_to_text(state.v, digits)})\n")
            return 0
        write("fire [g1|g2|quit]> ")
        try:
            line = next(lines)
        except StopIteration:
            write("\nbye\n")
            return 0
        choice = line.strip().lower()
        if choice in ("quit", "q", "exit"):
            write("bye\n")
            return 0
        if choice not in (NODE1, NODE2):
            write(f"unknown node {choice!r}; type g1, g2, or quit\n")
            continue
        try:
            if state.initial_done:
                state = fire(state, choice, cfg)
            else:
                state = seeded_fire(state.u, state.v, choice, cfg)
        except ExactError as exc:
            write(f"illegal: {exc}\n")
            continue
        write(f"move {state.moves_made}: u = {value_to_text(state.u, digits)}, "
              f"v = {value_to_text(state.v, digits)}\n")


def cmd_game_repl(args) -> int:
    cfg = _config(args)
    lines = iter(sys.stdin)
    return run_repl(cfg, rational(args.a), rational(args.b), lines, sys.stdout.write, args.digits)


def cmd_poset_enum(args) -> int:
    poset = build_poset(args.n, args.k, args.alpha)
    fmt = _format_choice(args)
    if fmt == "json":
        _emit(json.dumps(poset_to_json(poset)))
    elif fmt == "dot":
        _emit(poset_to_dot(poset))
    else:
        _emit(f"{poset.size} strings for n={args.n}, k={args.k}, alpha={args.alpha}")
        for t, r in zip(poset.elements, poset.ranks):
            _emit("  (" + ",".join(str(c) for c in t) + f")  rank {r}")
    return 0


def cmd_poset_rgf(args) -> int:
    poset = build_poset(args.n, args.k, args.alpha)
    rgf = rank_generating_function(poset)
    if _format_choice(args) == "json":
        _emit(json.dumps([str(int(c)) for c in rgf.coeffs]))
    else:
        _emit(poly_to_text(rgf, "q"))
    return 0


def cmd_poset_check(args) -> int:
    poset = build_poset(args.n, args.k, args.alpha)
    report = check_lattice(poset)
    rgf = rank_generating_function(poset)
    payload = {
        "size": poset.size,
        "distributive": report.distributive,
        "maximal_count": report.maximal_count,
        "minimal_count": report.minimal_count,
        "connected": is_connected(poset),
        "palindromic_rgf": is_palindromic(rgf),
    }
    if _format_choice(args) == "json":
        _emit(json.dumps(payload))
    else:
        for key, value in payload.items():
            _emit(f"{key}: {value}")
    return 0


def cmd_triangle(args) -> int:
    if args.n <= args.alpha:
        raise ExactError(f"n must exceed alpha (got n={args.n}, alpha={args.alpha})")
    fmt = _format_choice(args)
    if args.as_poly and fmt == "csv":
        raise ExactError("triangle --as-poly prints text or json, not csv")
    if args.as_poly:
        poly = triangle_polynomial(args.alpha, args.n, args.k)
        if fmt == "json":
            _emit(json.dumps([str(int(c)) for c in poly.coeffs]))
        else:
            _emit(poly_to_text(poly, "q"))
        return 0
    row = triangle_row(args.alpha, args.n, args.k)
    if fmt == "json":
        _emit(json.dumps(row))
    elif fmt == "csv":
        _emit(triangle_row_csv(args.alpha, args.n, args.k))
    else:
        _emit("  ".join(str(v) for v in row))
    return 0


def cmd_verify(args) -> int:
    ok, results = run_suite(args.suite)
    for result in results:
        _emit(result.line())
        for detail in result.details:
            _emit(f"      {detail}")
    _emit("verify: " + ("all checks passed" if ok else "FAILURES above"))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_format(p, choices=("text", "json")):
    p.add_argument("--format", choices=choices, default=None, help="output format (env GIBONACCI_FORMAT)")
    p.set_defaults(format_choices=choices)


def _add_seeds(p):
    p.add_argument("--alpha", required=True, help="first seed, integer or num/den")
    p.add_argument("--beta", required=True, help="second seed, integer or num/den")


def _add_game_config(p):
    _add_seeds(p)
    p.add_argument("--p", required=True, help="multiplier applied by node g1")
    p.add_argument("--q", required=True, help="multiplier applied by node g2")


class _Digits(argparse.Action):
    """Store --digits, refusing counts below 1 as a domain error."""

    def __call__(self, parser, namespace, value, option_string=None):
        check_digits(value)
        setattr(namespace, self.dest, value)


def _add_digits(p):
    p.add_argument(
        "--digits", type=int, default=DEFAULT_DIGITS, action=_Digits,
        help="significant digits for decimal rendering (at least 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gibonacci", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("array", help="rows of the two-seed triangular array")
    _add_seeds(p)
    p.add_argument("--rows", type=int, default=10)
    _add_format(p)
    p.set_defaults(handler=cmd_array)

    p = sub.add_parser("poly", help="sign-alternating row polynomial")
    _add_seeds(p)
    p.add_argument("--k", type=int, required=True)
    _add_format(p)
    p.set_defaults(handler=cmd_poly)

    p = sub.add_parser("roots", help="certified real roots of a row polynomial")
    _add_seeds(p)
    p.add_argument("--k", type=int, required=True)
    _add_digits(p)
    _add_format(p)
    p.set_defaults(handler=cmd_roots)

    p = sub.add_parser("binet", help="closed-form evaluation of a row polynomial")
    _add_seeds(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--x", required=True, help="evaluation point, integer or num/den")
    _add_digits(p)
    _add_format(p)
    p.set_defaults(handler=cmd_binet)

    game = sub.add_parser("game", help="two-node seeded numbers game")
    game_sub = game.add_subparsers(dest="game_command", required=True)

    p = game_sub.add_parser("play", help="play one game and print the trace")
    _add_game_config(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--first", choices=(NODE1, NODE2), required=True)
    p.add_argument("--strategy", choices=("alternate", "greedy-g1", "greedy-g2"), default="alternate")
    p.add_argument("--budget", type=int, default=64)
    _add_digits(p)
    _add_format(p)
    p.set_defaults(handler=cmd_game_play)

    p = game_sub.add_parser("classify", help="divergence/termination classification")
    _add_game_config(p)
    _add_format(p)
    p.set_defaults(handler=cmd_game_classify)

    p = game_sub.add_parser("predict", help="exact move count without playing")
    _add_game_config(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--first", choices=(NODE1, NODE2), required=True)
    _add_format(p)
    p.set_defaults(handler=cmd_game_predict)

    p = game_sub.add_parser("repl", help="interactive play")
    _add_game_config(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    _add_digits(p)
    p.set_defaults(handler=cmd_game_repl)

    poset = sub.add_parser("poset", help="symmetric ranked posets of constrained strings")
    poset_sub = poset.add_subparsers(dest="poset_command", required=True)

    p = poset_sub.add_parser("enum", help="enumerate the strings")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    _add_format(p, choices=("text", "json", "dot"))
    p.set_defaults(handler=cmd_poset_enum)

    p = poset_sub.add_parser("rgf", help="rank generating function")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    _add_format(p)
    p.set_defaults(handler=cmd_poset_rgf)

    p = poset_sub.add_parser("check", help="lattice closure, connectivity, palindromicity")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    _add_format(p)
    p.set_defaults(handler=cmd_poset_check)

    p = sub.add_parser("triangle", help="rows of the symmetric integer triangle")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--as-poly", action="store_true", help="print the row polynomial instead of entries")
    _add_format(p, choices=("text", "json", "csv"))
    p.set_defaults(handler=cmd_triangle)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=("arrays", "polys", "roots", "game", "posets", "all"))
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    # exact output is the point: lift Python's int-to-str digit limit
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except ExactError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())

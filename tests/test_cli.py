"""Command-line surface: formats, round trips, exit codes, and the repl."""

import io
import json
import shlex
from fractions import Fraction

import pytest

from gibonacci.cli import main, run_repl
from gibonacci.exactnum import poly_from_strings, rational
from gibonacci.game import GameConfig
from gibonacci.polys import GibParams, _sa_poly_cached, sign_alternating_poly
from gibonacci.posets import _triangle_rows
from test_polys import comb_entry, recurrence_rows


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPoly:
    def test_text_fixture(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "--alpha", "2", "--beta", "1", "--k", "7")
        assert code == 0
        assert out.strip() == "x^3 - 7x^2 + 14x - 7"

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "poly", "--alpha", "5", "--beta", "2", "--k", "9", "--format", "json"
        )
        assert code == 0
        parsed = poly_from_strings(json.loads(out))
        assert parsed == sign_alternating_poly(GibParams.of(5, 2), 9)

    def test_rational_seeds(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "--alpha", "7/3", "--beta", "1/2", "--k", "2")
        assert code == 0
        assert "7/3" in out or "x" in out

    def test_deep_row(self, capsys):
        # rows far past the recursion limit come out whole, not as a traceback
        try:
            code, out, _ = run_cli(
                capsys, "poly", "--alpha", "1", "--beta", "1", "--k", "1000", "--format", "json"
            )
        finally:
            _sa_poly_cached.cache_clear()
        assert code == 0
        assert len(json.loads(out)) == 501


    def test_negative_row_refused(self, capsys):
        # P_{-1} = 0 is the recurrence's helper row: -1 is refused like -2
        for k in ("-1", "-2"):
            code, out, err = run_cli(capsys, "poly", "--alpha", "1", "--beta", "1", "--k", k)
            assert code == 1 and out == ""
            assert err == f"error: row index must be nonnegative (got {k})\n"

    def test_underscore_seed_refused(self, capsys):
        code, out, err = run_cli(capsys, "poly", "--alpha", "1", "--beta", "1_0", "--k", "3")
        assert code == 1 and out == ""
        assert err == "error: bad rational literal: '1_0'\n"

    def test_poly_row_budget_is_one_line_error(self, capsys):
        code, out, err = run_cli(capsys, "poly", "--alpha", "1", "--beta", "1", "--k", "100000000")
        assert code == 1 and out == ""
        assert err == "error: row 100000000 is over the row budget of 10,000\n"


class TestArray:
    def test_json_rows_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "array", "--alpha", "2", "--beta", "1", "--rows", "8", "--format", "json"
        )
        assert code == 0
        rows = [[rational(v) for v in row] for row in json.loads(out)]
        assert rows[7] == [1, 7, 14, 7]

    def test_json_rows_match_oracles(self, capsys):
        code, out, _ = run_cli(
            capsys, "array", "--alpha", "7/3", "--beta", "1/2", "--rows", "40", "--format", "json"
        )
        assert code == 0
        rows = [[rational(v) for v in row] for row in json.loads(out)]
        params = GibParams.of(Fraction(7, 3), Fraction(1, 2))
        assert rows == recurrence_rows(params, 40)
        assert rows == [[comb_entry(params, k, j) for j in range(k // 2 + 1)] for k in range(40)]

    def test_array_budget_is_one_line_error(self, capsys):
        code, out, err = run_cli(capsys, "array", "--alpha", "1", "--beta", "1", "--rows", "100000000")
        assert code == 1 and out == ""
        assert err == "error: array row 99999999 needs 2,500,000,050,000,000 entries, over the entry budget of 300,000\n"


class TestRootsCommand:
    def test_root_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "roots", "--alpha", "5", "--beta", "2", "--k", "5", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["bound"] == "25/6"
        decimals = [r["decimal"] for r in payload["roots"]]
        assert decimals[0].startswith("1.5")
        assert decimals[1].startswith("4")

    def test_root_table_round_trip(self, capsys):
        from gibonacci.exactnum import Interval
        from gibonacci.roots import roots_of

        code, out, _ = run_cli(
            capsys, "roots", "--alpha", "2", "--beta", "1", "--k", "6", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        live = roots_of(GibParams.of(2, 1), 6)
        for entry, root in zip(payload["roots"], live.roots):
            assert poly_from_strings(entry["defining"]) == root.defining
            assert Interval.from_json(entry["enclosure"]) == root.enclosure

    def test_text_point_enclosure_is_closed(self, capsys):
        # row 5 of the unit seeds has the rational roots 1 and 3 and no other;
        # (1/1, 1/1] would be an empty interval
        code, out, _ = run_cli(capsys, "roots", "--alpha", "1", "--beta", "1", "--k", "5")
        assert code == 0
        assert out.splitlines()[1:] == ["  root 1: 1  in [1/1, 1/1]", "  root 2: 3  in [3/1, 3/1]"]
        code, out, _ = run_cli(capsys, "roots", "--alpha", "5", "--beta", "2", "--k", "5")
        assert code == 0
        assert all(" in (" in line and line.endswith("]") for line in out.splitlines()[1:])


class TestBinet:
    def test_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "binet", "--alpha", "1", "--beta", "1", "--k", "6", "--x", "5"
        )
        assert code == 0
        want = sign_alternating_poly(GibParams.of(1, 1), 6)(Fraction(5))
        assert out.startswith(f"{want.numerator}/{want.denominator}")

    def test_repeated_eigenvalue_matches_recurrence(self, capsys):
        for x in ("0", "4"):
            code, out, _ = run_cli(
                capsys, "binet", "--alpha", "1", "--beta", "1", "--k", "6", "--x", x
            )
            assert code == 0
            want = sign_alternating_poly(GibParams.of(1, 1), 6)(Fraction(x))
            assert out.split()[0] == f"{want.numerator}/{want.denominator}"


class TestGameCommands:
    ARGS = ["--alpha", "5", "--beta", "2", "--p", "7/2", "--q", "8/7"]

    def test_classify_text(self, capsys):
        code, out, _ = run_cli(capsys, "game", "classify", *self.ARGS)
        assert code == 0
        assert "all-terminate" in out and "strongly convergent" in out and "row 5" in out

    def test_classify_divergent(self, capsys):
        code, out, _ = run_cli(
            capsys, "game", "classify", "--alpha", "1", "--beta", "1", "--p", "2", "--q", "2"
        )
        assert code == 0
        assert out.strip().startswith("all-diverge; strongly convergent")

    def test_play_jsonl(self, capsys):
        code, out, _ = run_cli(
            capsys, "game", "play", *self.ARGS,
            "--a", "1", "--b", "1", "--first", "g1", "--format", "json",
        )
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert lines[-1] == {"outcome": "terminated", "moves": 6}
        assert lines[0]["node"] == "g1"
        assert rational(lines[-2]["u"]) == -1 and rational(lines[-2]["v"]) == -1

    def test_predict(self, capsys):
        code, out, _ = run_cli(
            capsys, "game", "predict", *self.ARGS, "--a", "0", "--b", "1", "--first", "g2"
        )
        assert code == 0 and out.strip() == "5"

    def test_predict_refuses_unplayable_opening(self, capsys):
        # pq = 1 is the largest root of unit row 2, and g1 cannot open at a = 0
        code, out, err = run_cli(
            capsys, "game", "predict", "--alpha", "1", "--beta", "1", "--p", "1", "--q", "1",
            "--a", "0", "--b", "1", "--first", "g1",
        )
        assert code == 1 and out == ""
        assert err == "error: seeded firing of g1 needs a > 0; open with g2 instead\n"

    def test_illegal_start_is_domain_error(self, capsys):
        code, _, err = run_cli(
            capsys, "game", "play", *self.ARGS, "--a", "0", "--b", "0", "--first", "g1"
        )
        assert code == 1 and "error:" in err

    def test_row_budget_is_one_line_error(self, capsys, monkeypatch):
        monkeypatch.setattr("gibonacci.game.GAME_ROW_BUDGET", 100)
        for command in (["predict", "--a", "1", "--b", "1", "--first", "g1"], ["classify"]):
            code, out, err = run_cli(
                capsys, "game", command[0], "--alpha", "1", "--beta", "1", "--p", "1",
                "--q", "3999/1000", *command[1:],
            )
            assert code == 1 and out == ""
            assert len(err.splitlines()) == 1 and err.startswith("error:")
            assert "GAME_ROW_BUDGET" in err and "Traceback" not in err


class TestPosetCommands:
    def test_enum_json_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "poset", "enum", "--n", "4", "--k", "3", "--alpha", "3", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["elements"]) == 48
        assert payload["elements"] == sorted(payload["elements"])  # stable lexicographic

    def test_enum_dot(self, capsys):
        code, out, _ = run_cli(
            capsys, "poset", "enum", "--n", "3", "--k", "2", "--alpha", "2", "--format", "dot"
        )
        assert code == 0
        assert out.startswith("digraph poset {") and "->" in out

    def test_rgf_text(self, capsys):
        code, out, _ = run_cli(capsys, "poset", "rgf", "--n", "4", "--k", "3", "--alpha", "3")
        assert code == 0
        assert out.strip() == "q^9 + 3q^8 + 6q^7 + 6q^6 + 8q^5 + 8q^4 + 6q^3 + 6q^2 + 3q + 1"

    def test_check_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "poset", "check", "--n", "4", "--k", "2", "--alpha", "3", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["distributive"] is False and payload["maximal_count"] >= 2

    def test_invalid_sizes_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "poset", "enum", "--n", "3", "--k", "2", "--alpha", "3")
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize("command", ["enum", "rgf", "check"])
    def test_element_budget_is_one_line_error(self, capsys, command):
        code, out, err = run_cli(
            capsys, "poset", command, "--n", "100", "--k", "4", "--alpha", "1"
        )
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:") and "element budget" in err

    @pytest.mark.parametrize("command", ["enum", "rgf", "check"])
    def test_length_budget_is_one_line_error(self, capsys, command):
        # the n = 2 chain passes the element budget up to k of about 2,000,000
        code, out, err = run_cli(
            capsys, "poset", command, "--n", "2", "--k", "1001", "--alpha", "1"
        )
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:") and "length budget of 1,000" in err

    def test_pair_budget_is_one_line_error(self, capsys):
        # the scan up to the witness row needs more than the budget: (369, 2, 3)
        # is the smallest such poset, (36, 4, 3) the smallest with k = 4
        for n, k, pairs in [(369, 2, "50,106,144"), (36, 4, "58,559,865")]:
            code, out, err = run_cli(
                capsys, "poset", "check", "--n", str(n), "--k", str(k), "--alpha", "3"
            )
            assert code == 1 and out == ""
            assert err.count("\n") == 1 and err.startswith("error:") and "pair budget" in err
            assert f"needs up to {pairs} pairs" in err

    def test_check_past_the_pair_budget(self, capsys):
        # 17,711 elements, 156,830,905 pairs: the digit relations decide
        code, out, _ = run_cli(
            capsys, "poset", "check", "--n", "3", "--k", "10", "--alpha", "1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["size"], payload["distributive"]) == (17711, True)
        assert (payload["maximal_count"], payload["minimal_count"]) == (1, 1)


class TestTriangle:
    def test_row_text(self, capsys):
        code, out, _ = run_cli(capsys, "triangle", "--alpha", "3", "--n", "4", "--k", "3")
        assert code == 0
        assert out.split() == ["1", "3", "6", "6", "8", "8", "6", "6", "3", "1"]

    def test_row_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "triangle", "--alpha", "3", "--n", "4", "--k", "1", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,entry" and lines[1] == "-3,1"

    def test_row_polynomial(self, capsys):
        code, out, _ = run_cli(
            capsys, "triangle", "--alpha", "1", "--n", "3", "--k", "1", "--as-poly"
        )
        assert code == 0
        assert out.strip() == "q^2 + q + 1"

    def test_deep_row(self, capsys):
        # row k of the (alpha; n) triangle has k(n-1) + 1 entries
        try:
            code, out, _ = run_cli(
                capsys, "triangle", "--alpha", "1", "--n", "3", "--k", "600", "--format", "json"
            )
        finally:
            _triangle_rows.cache_clear()
        assert code == 0
        row = json.loads(out)
        assert len(row) == 1201 and row == row[::-1] and row[0] == 1

    def test_polynomial_refuses_csv(self, capsys, monkeypatch):
        # the row polynomial has no csv form: refused before the row is built
        def no_work(*args):
            raise AssertionError("the row was built")

        monkeypatch.setattr("gibonacci.cli.triangle_polynomial", no_work)
        code, out, err = run_cli(
            capsys, "triangle", "--alpha", "1", "--n", "2", "--k", "3", "--as-poly", "--format", "csv"
        )
        assert code == 1 and out == ""
        assert err == "error: triangle --as-poly prints text or json, not csv\n"

    def test_entry_budget_is_one_line_error(self, capsys):
        code, out, err = run_cli(
            capsys, "triangle", "--alpha", "2", "--n", "3", "--k", "100000000000", "--as-poly"
        )
        assert code == 1 and out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: triangle row 100000000000 of (2; 3) needs ")
        assert err.endswith(" entries, over the entry budget of 2,000,000\n")


class TestErrorsAndEnv:
    def test_decimal_rejected(self, capsys):
        code, _, err = run_cli(capsys, "poly", "--alpha", "2.5", "--beta", "1", "--k", "3")
        assert code == 1
        assert "decimal" in err

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_env_default_format(self, capsys, monkeypatch):
        monkeypatch.setenv("GIBONACCI_FORMAT", "json")
        code, out, _ = run_cli(capsys, "poly", "--alpha", "2", "--beta", "1", "--k", "7")
        assert code == 0
        assert json.loads(out) == ["-7/1", "14/1", "-7/1", "1/1"]

    @pytest.mark.parametrize(
        "argv, value",
        [
            (["poly", "--alpha", "2", "--beta", "1", "--k", "7"], "xml"),
            (["triangle", "--alpha", "1", "--n", "3", "--k", "2"], "dot"),
            (["poset", "enum", "--n", "3", "--k", "2", "--alpha", "1"], "csv"),
        ],
    )
    def test_env_format_outside_choices(self, capsys, monkeypatch, argv, value):
        # the same choices as --format, which argparse enforces
        monkeypatch.setenv("GIBONACCI_FORMAT", value)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "GIBONACCI_FORMAT" in err and len(err.splitlines()) == 1


class TestVerifyCommand:
    def test_arrays_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "arrays")
        assert code == 0
        assert "PASS  array-fixtures" in out
        assert "all checks passed" in out

    def test_unknown_suite_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "everything"])
        assert exc.value.code == 2


class TestRepl:
    CFG = GameConfig.rational(GibParams.of(5, 2), Fraction(7, 2), Fraction(8, 7))

    def run(self, inputs, a=1, b=1):
        out = io.StringIO()
        code = run_repl(self.CFG, a, b, iter(inputs), out.write, digits=12)
        return code, out.getvalue()

    def test_full_game(self):
        code, text = self.run(["g1", "g2", "g1", "g2", "g1", "g2"])
        assert code == 0
        assert "terminated after 6 moves" in text
        assert "u = -1/1" in text and "v = -1/1" in text

    def test_intermediate_pairs_match_worked_game(self):
        # a = b = 1 specializes the displayed symbolic pairs:
        # (-59/7, 12), (37/7, -12), (-37/7, 13/2), (15/7, -13/2), (-15/7, 1)
        code, text = self.run(["g1", "g2", "g1", "g2", "g1", "g2"])
        assert code == 0
        for token in ("-59/7", "37/7", "13/2", "15/7"):
            assert token in text

    def test_illegal_move_reported_and_state_kept(self):
        # g1 is the only legal reply after a g1 opening ... g2 after g2
        code, text = self.run(["g1", "g1", "g2", "g2", "g1", "g2", "g1", "g2"])
        assert code == 0
        assert "illegal:" in text
        assert "terminated after 6 moves" in text

    def test_quit_immediately(self):
        code, text = self.run(["quit"])
        assert code == 0 and "bye" in text

    def test_eof_exits_cleanly(self):
        code, text = self.run([])
        assert code == 0 and "bye" in text

    def test_unknown_token_reprompts(self):
        code, text = self.run(["nonsense", "quit"])
        assert code == 0 and "unknown node" in text

    def test_zero_coordinate_opening_rule(self):
        out = io.StringIO()
        code = run_repl(self.CFG, 0, 1, iter(["g1", "g2", "g1", "g2", "g1", "g2"]), out.write)
        text = out.getvalue()
        assert code == 0
        assert "illegal:" in text  # g1 opening refused when a = 0
        assert "terminated after 5 moves" in text

    @pytest.mark.parametrize("a, b", [("0", "0"), ("-1", "2"), ("1/2", "-3")])
    def test_refused_start_pair(self, capsys, monkeypatch, a, b):
        # the repl refuses a start pair with the words of `game predict`
        config = ["--alpha", "5", "--beta", "2", "--p", "7/2", "--q", "8/7", f"--a={a}", f"--b={b}"]
        monkeypatch.setattr("sys.stdin", io.StringIO("g2\n"))
        code, out, err = run_cli(capsys, "game", "repl", *config)
        assert code == 1 and out == ""
        _, _, predict_err = run_cli(capsys, "game", "predict", *config, "--first", "g2")
        assert err == predict_err and err.startswith("error: start pair must be")
        assert len(err.splitlines()) == 1


class TestDomainErrors:
    @pytest.mark.parametrize("digits", ["0", "-3"])
    def test_digits_below_one(self, capsys, digits):
        code, out, err = run_cli(
            capsys, "roots", "--alpha", "1", "--beta", "1", "--k", "6", "--digits", digits
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and "digits" in err and len(err.splitlines()) == 1

    def test_negative_rows(self, capsys):
        code, out, err = run_cli(capsys, "array", "--alpha", "1", "--beta", "1", "--rows", "-3")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "rows" in err

    def test_triangle_needs_n_above_alpha(self, capsys):
        code, out, err = run_cli(capsys, "triangle", "--alpha", "3", "--n", "2", "--k", "3")
        assert code == 1 and out == ""
        assert "n must exceed alpha" in err

    def test_triangle_negative_k(self, capsys):
        code, out, err = run_cli(
            capsys, "triangle", "--alpha", "1", "--n", "3", "--k", "-1", "--as-poly"
        )
        assert code == 1 and out == "" and err.startswith("error:")

    def test_predict_refuses_alpha_below_beta(self, capsys):
        # pq = 3/2 is the largest root of row 3 for seeds (1, 2); greedy-g1
        # plays one move more than alternate there
        config = ["--alpha", "1", "--beta", "2", "--p", "1", "--q", "3/2", "--a", "1", "--b", "1", "--first", "g1"]
        plays = {}
        for strategy in ("alternate", "greedy-g1"):
            code, out, _ = run_cli(capsys, "game", "play", *config, "--strategy", strategy, "--format", "json")
            assert code == 0
            plays[strategy] = json.loads(out.splitlines()[-1])["moves"]
        assert plays == {"alternate": 4, "greedy-g1": 5}
        code, out, err = run_cli(capsys, "game", "predict", *config)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "alpha >= beta" in err and len(err.splitlines()) == 1


# Malformed and edge argv for every subcommand: domain errors (exit 1),
# argparse usage errors (exit 2) and edge inputs that succeed (exit 0).
FUZZ_ARGV = [
    "roots --alpha 1 --beta 1 --k 0",
    "roots --alpha 1 --beta 1 --k 1",
    "roots --alpha 1 --beta 1 --k -5",
    "roots --alpha 1/0 --beta 1 --k 4",
    "roots --alpha 0 --beta 1 --k 4",
    "roots --alpha -1 --beta 1 --k 4",
    "roots --alpha 1 --beta 1 --k 4 --digits 0",
    "roots --alpha 1 --beta 1 --k 4 --digits -2",
    "roots --alpha 1 --beta 1 --k 4 --digits x",
    "roots --alpha 1 --beta 1",
    "roots --alpha 1 --beta 1 --k 2 --format xml",
    "binet --alpha 1 --beta 1 --k 3 --x 1.5",
    "binet --alpha 1 --beta 1 --k 3 --x 1/0",
    "binet --alpha 1 --beta 1 --k 3 --x abc",
    "binet --alpha 1 --beta 1 --k -1 --x 2",
    "binet --alpha 1 --beta 1 --k 3 --x 1e3",
    "binet --alpha 1 --beta 1 --k 3 --x 2 --digits 0",
    # values past Python's 4,300-digit int-to-str limit still print
    "binet --alpha 1 --beta 1 --k 20000 --x 1/3",
    "binet --alpha 1 --beta 1 --k 20000 --x 1/3 --format json",
    "array --alpha 1 --beta 1 --rows 0",
    "array --alpha 1 --beta 1 --rows -1",
    "array --alpha 1/0 --beta 1",
    "array --alpha 1 --beta 0",
    "array --alpha 1 --beta 1 --rows x",
    "poly --alpha 1 --beta 1 --k -1",
    "poly --alpha 1 --beta 1 --k -1 --format json",
    "poly --alpha 1 --beta 1 --k -2",
    "poly --alpha 0 --beta 1 --k 3",
    "poly --alpha 1 --beta nan --k 3",
    "poly --alpha 1 --beta inf --k 3",
    "poly --alpha 1 --beta 1_0 --k 3",
    "roots --alpha 3_2/2 --beta 1 --k 4",
    "binet --alpha 1 --beta 1 --k 3 --x 1/1_0",
    "game classify --alpha 1 --beta 1 --p 1_1 --q 1",
    'poly --alpha " 1/2" --beta 1 --k 3',
    "game play --alpha 1 --beta 1 --p 1 --q 1 --a 1 --b 1 --first g1 --budget 0",
    "game play --alpha 1 --beta 1 --p 1 --q 1 --a 1 --b 1 --first g1 --budget -1",
    "game play --alpha 1 --beta 1 --p 1 --q 1 --a 0 --b 0 --first g1",
    "game play --alpha 1 --beta 1 --p 1 --q 1 --a -1 --b 1 --first g1",
    "game play --alpha 1 --beta 1 --p 0 --q 1 --a 1 --b 1 --first g1",
    "game play --alpha 1 --beta 1 --p -1 --q 1 --a 1 --b 1 --first g1",
    "game play --alpha 1 --beta 1 --p 1 --q 1/0 --a 1 --b 1 --first g1",
    "game play --alpha 1 --beta 1 --p 1 --q 1 --a 1 --b 1 --first g3",
    "game play --alpha 1 --beta 1 --p 1 --q 1 --a 1 --b 1 --first g1 --strategy bogus",
    "game play --alpha 1 --beta 1 --p 1 --q 1 --a 0 --b 1 --first g1",
    "game play --alpha 1 --beta 2 --p 1 --q 1 --a 1 --b 1 --first g1",
    "game play --alpha 1 --beta 1 --p 2 --q 2 --a 1 --b 1 --first g1 --budget 0",
    "game play --alpha 1 --beta 1 --p 1 --q 4 --a 1 --b 1 --first g2 --budget 3",
    "game classify --alpha 1 --beta 1 --p 0 --q 1",
    "game classify --alpha 1 --beta 1 --p 1 --q -1",
    "game classify --alpha 1 --beta 1 --p 2 --q 2",
    "game classify --alpha 1 --beta 1 --p 1 --q 4",
    "game predict --alpha 1 --beta 1 --p 1 --q 1 --a 0 --b 0 --first g1",
    "game predict --alpha 1 --beta 1 --p 2 --q 2 --a 1 --b 1 --first g1",
    "game predict --alpha 1 --beta 1 --p 1 --q 4 --a 1 --b 1 --first g1",
    "game predict --alpha 1 --beta 1 --p 1 --q 1 --a 0 --b 1 --first g1",
    "game predict --alpha 1 --beta 1 --p 1 --q 1 --a 1 --b 1",
    "game repl --alpha 0 --beta 1 --p 1 --q 1 --a 1 --b 1",
    "game repl --alpha 1 --beta 1 --p 1 --q 1 --a 0 --b 0",
    "game repl --alpha 1 --beta 1 --p 1 --q 1 --a 1 --b 1",
    "game repl --alpha 1 --beta 1 --p 1 --q 1 --a 1 --b 1 --digits 0",
    "poset enum --n 3 --k -1 --alpha 1",
    "poset enum --n 0 --k 2 --alpha 1",
    "poset enum --n 3 --k 2 --alpha 0",
    "poset enum --n 2 --k 2 --alpha 2",
    "poset enum --n 100 --k 5 --alpha 1",
    "poset enum --n 3 --k 2 --alpha 1 --format csv",
    "poset enum --n 3 --k 2 --alpha 1 --format dot",
    "poset enum --n 3 --k 0 --alpha 1 --format dot",
    "poset rgf --n 3 --k -1 --alpha 1",
    "poset rgf --n 3 --k 0 --alpha 2",
    "poset check --n 3 --k -1 --alpha 1",
    "poset check --n 3 --k 0 --alpha 2",
    "poset check --n 1 --k 1 --alpha 1",
    "triangle --alpha 0 --n 3 --k 2",
    "triangle --alpha 1 --n 1 --k 2",
    "triangle --alpha 1 --n 3 --k -1",
    "triangle --alpha 1 --n 3 --k -1 --as-poly",
    "triangle --alpha 3 --n 2 --k 2",
    "triangle --alpha 1 --n 3 --k 0 --format csv",
    "triangle --alpha -2 --n -1 --k 2",
    "triangle --alpha 2 --n 3 --k 100000000000",
    "triangle --alpha 1 --n 1000000000000 --k 1 --format csv",
    "triangle --alpha 1 --n 1000000000000 --k 0 --as-poly",
    "verify everything",
    "verify",
    "game",
    "poset",
    "poset enum",
    "--bogus",
    "",
    "frobnicate",
]


@pytest.mark.parametrize("line", FUZZ_ARGV)
def test_cli_fuzz_exit_contract(capsys, monkeypatch, line):
    monkeypatch.setattr("sys.stdin", io.StringIO("g1\ng2\nquit\n"))  # game repl
    try:
        code = main(shlex.split(line))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code == 1:
        assert len(err.splitlines()) == 1 and err.startswith("error:")

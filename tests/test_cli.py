"""End-to-end command-line behavior through main(argv)."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import value_trees
from nclobber import cli
from nclobber.cli import main
from nclobber.solver import MODES, evaluate_text
from nclobber.values import MAX_DEPTH, MAX_EXPONENT, parse_value, render_value


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# solve


def test_solve_raw_board(capsys):
    code, out, _ = run(capsys, "solve", "12223")
    assert code == 0
    assert out.strip() == "[[1,3]]"


def test_solve_prudent_bar_and_brackets(capsys):
    code, out, _ = run(capsys, "solve", "1232132321", "--mode", "prudent")
    assert (code, out.strip()) == (0, "3_1")
    code, out, _ = run(
        capsys, "solve", "12013", "--mode", "prudent", "--render", "brackets"
    )
    assert (code, out.strip()) == (0, "[2,3]")


def test_solve_indifferent_stops_at_the_first_win(capsys):
    # The raw value tree of this line does not fit in memory; the
    # indifferent walk stops at the mover's first winning option.
    code, out, _ = run(capsys, "solve", "1231231231231231231231", "--mode", "indifferent")
    assert (code, out.strip()) == (0, "win")


@pytest.mark.parametrize(
    "argv, players, printed",
    [
        (["solve", "1212"], 2, "[1,2]"),
        (["solve", "1212"], 3, "3_1"),
        (["simplify", "[[1,3],[1,2]]"], 4, "[[1,2],[1,3]]"),
        (["simplify", "[[1,3],[1,2]]"], 3, "1_2"),
    ],
    ids=["solve-two", "solve-three", "simplify-four", "simplify-three"],
)
def test_bar_atoms_print_only_in_three_player_games(capsys, argv, players, printed):
    # Bar atoms are a three-player notation: in a two-player game, 3_1
    # would name a player the game does not have.
    code, out, _ = run(capsys, *argv, "--players", str(players), "--render", "bar")
    assert (code, out.strip()) == (0, printed)
    parse_value(printed, players=players)  # the printed form reads back


def test_solve_start_player(capsys):
    code, out, _ = run(capsys, "solve", "12", "--start", "2")
    assert (code, out.strip()) == (0, "2")


def test_solve_json_payload_round_trips(capsys):
    code, out, _ = run(capsys, "solve", "123213", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["board"] == "123213"
    assert payload["mode"] == "raw"
    assert payload["start"] == 1
    assert parse_value(payload["value"]) is parse_value("[[1,3],[1,[1,2]],[2,3]]")


def test_solve_json_names_a_profile_only_when_the_mode_reads_it(capsys):
    for mode, profile in (("prudent", None), ("selfish", "L2")):
        code, out, _ = run(
            capsys, "solve", "123213", "--mode", mode, "--profile", "L2", "--format", "json"
        )
        assert (code, json.loads(out)["profile"]) == (0, profile), mode


def test_solve_grid_board(capsys):
    code, out, _ = run(capsys, "solve", "120233", "--grid", "2x3")
    assert code == 0
    expected = evaluate_text("120233", shape=(2, 3)).value
    assert out.strip() == render_value(expected)


def test_solve_rejects_unplayable_boards(capsys):
    code, _, err = run(capsys, "solve", "11")
    assert code == 3
    assert err.startswith("error: no initial move")
    code, _, err = run(capsys, "solve", "1x2")
    assert code == 3 and err.startswith("error:")


def test_solve_counts_grid_digits_before_building_the_grid(capsys):
    code, out, err = run(capsys, "solve", "12", "--grid", "100000x100000")
    assert (code, out) == (3, "")
    assert err == "error: grid 100000x100000 needs 10000000000 digits, got 2\n"


@pytest.mark.parametrize("shape", [[], ["--grid", "40x40"]], ids=["line", "grid"])
def test_solve_refuses_a_game_deeper_than_the_stack(capsys, shape):
    # Each move is one level of the walk: 1600 tokens outrun the stack.
    code, out, err = run(capsys, "solve", "12" * 800, *shape)
    assert (code, out) == (3, "")
    assert err == "error: the game tree of a 1600-cell board is too deep to evaluate\n"


def test_solve_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "12", "--start", "9"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["solve", "12", "--profile", "L9"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["solve", "12", "--grid", "oops"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# simplify


def test_simplify_normalizes_under_the_default_profile(capsys):
    code, out, _ = run(capsys, "simplify", "[1,[[[2,3]]]]")
    assert (code, out.strip()) == (0, "[1,2,3]")


def test_simplify_l0_leaves_the_value_alone(capsys):
    code, out, _ = run(capsys, "simplify", "[1,[[[2,3]]]]", "--profile", "L0")
    assert (code, out.strip()) == (0, "[1,[[[2,3]]]]")


def test_simplify_prudent_collapses_to_a_bar_atom(capsys):
    code, out, _ = run(
        capsys,
        "simplify", "[[1,3],[1,2]]", "--mode", "prudent", "--perspective", "1",
    )
    assert (code, out.strip()) == (0, "2_1")


def test_simplify_prudent_collapses_the_value_as_given_under_every_profile(capsys):
    # Player 1 can only pass, and player 2 takes 2.  Rule 1 would drop
    # that pass and leave player 1 the choice [2,3], which is 1_1.
    for profile in ("L0", "L1", "L2"):
        code, out, _ = run(
            capsys, "simplify", "[[2,3]]", "--mode", "prudent",
            "--perspective", "1", "--profile", profile,
        )
        assert (code, out.strip()) == (0, "2"), profile


def test_simplify_json_names_a_profile_only_when_the_mode_reads_it(capsys):
    for mode, profile in (("prudent", None), ("selfish", "L2")):
        code, out, _ = run(
            capsys, "simplify", "[[2,3]]", "--mode", mode, "--perspective", "1",
            "--profile", "L2", "--format", "json",
        )
        assert (code, json.loads(out)["profile"]) == (0, profile), mode


def test_simplify_prudent_needs_three_players(capsys):
    for players, value in (("4", "[[1,3],[2,3]]"), ("2", "[[1,2],[2]]")):
        code, out, err = run(
            capsys, "simplify", value, "--mode", "prudent",
            "--players", players, "--perspective", "1",
        )
        assert (code, out) == (3, "")
        assert err == "error: prudent simplification is defined for exactly three players\n"


def test_simplify_selfish_prunes_top_level_options(capsys):
    code, out, _ = run(
        capsys, "simplify", "[1,2]", "--mode", "selfish", "--perspective", "1"
    )
    assert (code, out.strip()) == (0, "1")


def test_simplify_needs_a_perspective_outside_raw(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simplify", "[1,2]", "--mode", "selfish"])
    assert exc.value.code == 2


def test_simplify_reports_value_syntax_errors(capsys):
    code, _, err = run(capsys, "simplify", "[1,")
    assert code == 3 and err.startswith("error:")


def _nested(depth: int) -> str:
    return "[" * depth + "1,2" + "]" * depth


def _alternating(depth: int, tail: str, first: int = 1) -> str:
    # Two options per level, so no rewrite rule shortens it.
    text = tail
    for k in range(depth):
        text = f"[{(k + first) % 3 + 1},{text}]"
    return text


@pytest.mark.parametrize(
    "text", [_nested(MAX_DEPTH + 1), _nested(3000), "1_450", f"2_{MAX_EXPONENT + 1}"]
)
def test_simplify_rejects_oversized_value_text(capsys, text):
    code, out, err = run(capsys, "simplify", text)
    assert (code, out) == (3, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert len(err) < 200  # quotes a prefix of the 3000-deep text, not all of it


def test_values_at_the_bounds_finish_in_every_mode_and_relation(capsys):
    other = _alternating(MAX_DEPTH, "2", first=2)
    for text in (_nested(MAX_DEPTH), _alternating(MAX_DEPTH, f"1_{MAX_EXPONENT}")):
        for mode in ("raw", "selfish", "indifferent", "prudent"):
            code, _, err = run(
                capsys, "simplify", text, "--mode", mode, "--perspective", "1"
            )
            assert code == 0, (mode, err)
        for relation in ("base", "prudent", "indifferent"):
            code, _, err = run(
                capsys, "compare", text, other, "-p", "2", "--relation", relation
            )
            assert code == 0, (relation, err)


# ---------------------------------------------------------------------------
# compare


def test_compare_base_relation(capsys):
    code, out, _ = run(capsys, "compare", "2", "3", "-p", "1")
    assert (code, out.strip()) == (0, "incomparable")
    code, out, _ = run(capsys, "compare", "2", "1", "-p", "1")
    assert (code, out.strip()) == (0, "less")


def test_compare_takes_no_profile():
    # The relations fix their own rewriting, so a profile would do nothing.
    with pytest.raises(SystemExit) as exc:
        main(["compare", "2", "3", "-p", "1", "--profile", "L2"])
    assert exc.value.code == 2


def test_compare_prudent_relation(capsys):
    code, out, _ = run(
        capsys, "compare", "2_1", "2_2", "-p", "1", "--relation", "prudent"
    )
    assert (code, out.strip()) == (0, "greater")


def test_compare_prudent_needs_three_players(capsys):
    for players, left, right in (("4", "[1,4]", "[2,4]"), ("2", "[1,2]", "2")):
        code, out, err = run(
            capsys, "compare", left, right, "-p", "1",
            "--relation", "prudent", "--players", players,
        )
        assert (code, out) == (3, "")
        assert err == "error: the prudent relation is defined for exactly three players\n"


def test_compare_indifferent_relation(capsys):
    code, out, _ = run(
        capsys, "compare", "2", "3", "-p", "1", "--relation", "indifferent"
    )
    assert (code, out.strip()) == (0, "equal")


def test_compare_json(capsys):
    code, out, _ = run(
        capsys, "compare", "2_1", "2_2", "-p", "1", "--relation", "prudent",
        "--format", "json",
    )
    payload = json.loads(out)
    assert (code, payload["result"], payload["perspective"]) == (0, "greater", 1)


# ---------------------------------------------------------------------------
# the exit contract: 0, 2 or 3, never a traceback, one line for a refusal


def test_running_out_of_memory_is_a_domain_error(capsys, monkeypatch):
    def exhaust(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "evaluate_text", exhaust)
    code, out, err = run(capsys, "solve", "1231231231231231231231", "--mode", "prudent")
    assert (code, out, err) == (3, "", "error: out of memory running solve\n")


def _request(command, operands, good, bad):
    """argv for command: the operands, up to two good flag groups, and
    half the time one bad one."""
    return st.builds(
        lambda ops, flags, noise: [command, *ops, *sum(flags, []), *noise],
        operands,
        st.lists(st.sampled_from(good), max_size=2),
        st.just([]) | st.sampled_from(bad),
    )


_BAD = (["--players", "0"], ["--players", "x"], ["--format", "xml"], ["--bogus"], ["--out"])
_PLAYERS = (["--players", "2"], ["--players", "4"], ["--players", "1"], ["--format", "json"])
_BOARD = (
    st.text("0123", max_size=10) | st.text("0123456", max_size=10) | st.text("0123x ", max_size=4)
)
_GRID = st.builds(lambda r, c: f"{r}x{c}", st.integers(0, 3), st.integers(0, 4)) | st.sampled_from(
    ["3x", "x4", "2x3x4", "-1x2", "2*3", "2x\u00b2", "40x40", "100000x100000"]
)
_GRID_BOARD = st.builds(
    lambda rows, cols, digits: [digits[: rows * cols], "--grid", f"{rows}x{cols}"],
    st.integers(1, 3),
    st.integers(1, 4),
    st.text("0123", min_size=12, max_size=12) | st.text("01234", min_size=12, max_size=12),
)
_SOLVE = _request(
    "solve",
    st.tuples(_BOARD) | _GRID_BOARD | st.builds(lambda b, g: [b, "--grid", g], _BOARD, _GRID),
    [*_PLAYERS, *(["--mode", m] for m in MODES), ["--start", "2"], ["--render", "bar"],
     ["--profile", "L0"]],
    [*_BAD, ["--mode", "bogus"], ["--start", "0"], ["--start", "5"], ["--profile", "L9"]],
)
_VALUE = (
    value_trees(max_leaves=12).map(str)
    | st.text("[],0123_ x", max_size=16)
    | st.integers(100, 200).map(lambda depth: "[" * depth + "1,2" + "]" * depth)
    | st.builds(
        lambda k, tail: "[" * k + tail, st.integers(1, 5), st.sampled_from(["1", "1,2]", "1_2"])
    )
    | st.sampled_from(["1_", "_1", "1__2", "0", "4", "1_-1", "[]", "[,]", "[1,,2]", "1]", ""])
)
_SIMPLIFY = _request(
    "simplify",
    st.tuples(_VALUE),
    [*_PLAYERS, ["--perspective", "1"], ["--perspective", "3"], ["--render", "bar"],
     ["--profile", "L2"],
     *(["--mode", m, "--perspective", "2"] for m in ("selfish", "indifferent", "prudent"))],
    [*_BAD, ["--perspective", "0"], ["--perspective", "x"], ["--mode", "bogus"],
     ["--mode", "selfish"]],
)
_COMPARE = _request(
    "compare",
    st.tuples(_VALUE, _VALUE, st.sampled_from(["-p", "--perspective"]), st.sampled_from("1232")),
    [*_PLAYERS, *(["--relation", r] for r in ("base", "prudent", "indifferent"))],
    [*_BAD, ["-p", "5"], ["-p", "x"], ["--relation", "bogus"], ["--profile", "L1"]],
)


@settings(max_examples=300, deadline=5000)
@given(_SOLVE | _SIMPLIFY | _COMPARE)
@example(["solve", "1" * 1600, "--grid", "40x40"])
@example(["simplify", "[" * (MAX_DEPTH + 1) + "1,2" + "]" * (MAX_DEPTH + 1)])
def test_every_request_exits_0_2_or_3_with_one_line_for_a_refusal(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a usage error
            code = exc.code
    err = err.getvalue()
    assert code in (0, 2, 3) and "Traceback" not in err, (argv, code, err)
    if code == 3:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


# ---------------------------------------------------------------------------
# enumerate and table


def test_enumerate_text_line(capsys):
    code, out, _ = run(capsys, "enumerate", "5")
    assert code == 0
    assert out.strip() == (
        "n=5 games=243 unsimplified=21 syntactic=21 selfish=5 prudent=5"
    )


def test_enumerate_inventory_lines(capsys):
    code, out, _ = run(capsys, "enumerate", "4", "--modes", "prudent", "--inventory")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "n=4 games=60 prudent=4"
    assert lines[1] == "prudent: 1 1_1 2 3"


def test_enumerate_csv(capsys):
    code, out, _ = run(
        capsys, "enumerate", "4", "--modes", "prudent", "--format", "csv"
    )
    assert (code, out.strip()) == (0, "n,games,prudent\n4,60,4")


def test_enumerate_json(capsys):
    code, out, _ = run(
        capsys, "enumerate", "3", "--format", "json", "--inventory"
    )
    payload = json.loads(out)
    assert code == 0
    assert payload[0]["unique_values"]["unsimplified"] == 3
    for text in payload[0]["inventory"]["selfish"]:
        parse_value(text)


def test_enumerate_json_lists_the_inventory_only_with_the_flag(capsys):
    for argv, listed in ((["--inventory"], True), ([], False)):
        code, out, _ = run(capsys, "enumerate", "4", "--format", "json", *argv)
        assert code == 0
        assert ("inventory" in json.loads(out)[0]) == listed, argv


@pytest.mark.parametrize(
    "argv, header",
    [
        (["enumerate", "5", "--players", "4", "--format", "csv"],
         "n,games,unsimplified,syntactic,selfish"),
        (["table", "6", "--players", "2"], "n,games,unsimplified,syntactic,selfish"),
        (["enumerate", "2", "--format", "csv"],
         "n,games,unsimplified,syntactic,selfish,prudent"),
    ],
    ids=["enumerate-4-players", "table-2-players", "enumerate-3-players"],
)
def test_default_regimes_are_those_the_player_count_defines(capsys, argv, header):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == header


@pytest.mark.parametrize("command", [["enumerate", "5"], ["table", "6"]])
def test_an_explicit_prudent_regime_still_needs_three_players(capsys, command):
    code, out, err = run(capsys, *command, "--players", "4", "--modes", "prudent")
    assert (code, out) == (3, "")
    assert err == "error: the prudent regime is defined for exactly three players\n"


@pytest.mark.parametrize(
    "command, error",
    [
        (["enumerate", "7", "--players", "9"], "9**7 colourings"),
        (["table", "9", "--players", "5"], "5**9 colourings"),
    ],
    ids=["enumerate", "table"],
)
def test_a_census_too_large_to_run_is_refused_at_once(capsys, command, error):
    # The table censuses its longest row first, so no shorter row runs.
    start = time.perf_counter()
    code, out, err = run(capsys, *command)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and error in err


def test_table_csv(capsys):
    code, out, _ = run(
        capsys, "table", "4", "--modes", "selfish,prudent", "--format", "csv"
    )
    assert code == 0
    assert out.strip() == "n,games,selfish,prudent\n2,3,2,2\n3,15,3,3\n4,60,4,4"


def test_table_rejects_lengths_outside_the_study(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "14"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["table", "1"])
    assert exc.value.code == 2


def test_modes_all_and_bad_mode(capsys):
    code, out, _ = run(capsys, "enumerate", "2", "--modes", "all")
    assert code == 0 and "prudent=2" in out
    for modes in ("bogus", "selfish,selfish"):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "2", "--modes", modes])
        assert exc.value.code == 2


# ---------------------------------------------------------------------------
# output redirection


def test_out_flag_writes_the_file(capsys, tmp_path):
    target = tmp_path / "value.txt"
    code, out, _ = run(capsys, "solve", "12223", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "[[1,3]]\n"


@pytest.mark.parametrize("where", ["missing/dir/x.txt", "."], ids=["missing", "directory"])
def test_out_to_an_unopenable_path_is_a_domain_error(capsys, tmp_path, where):
    code, out, err = run(capsys, "solve", "12", "--out", str(tmp_path / where))
    assert code == 3
    assert out == ""
    assert err.startswith("error: cannot write ") and err.count("\n") == 1


def _buffered_env():
    """The environment for a CLI subprocess whose stdout is buffered."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return env


@pytest.mark.parametrize(
    "argv", [["enumerate", "8", "--inventory"], ["table", "5", "--format", "json"]]
)
def test_a_reader_closing_stdout_early_gets_no_traceback(argv):
    # With stdout buffered, the first output (155 kB) fails in print and
    # the second (under 1 kB) in the final flush.
    proc = subprocess.Popen(
        [sys.executable, "-m", "nclobber.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_buffered_env(),
    )
    proc.stdout.close()  # the reader leaves before the first write
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err.decode()) == (0, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv, to_stdout",
    [
        (["solve", "12", "--out", "/dev/full"], False),
        (["solve", "12"], True),
        (["enumerate", "8", "--inventory"], True),
    ],
    ids=["out-flag", "stdout", "stdout-155kB"],
)
def test_a_full_disk_is_a_domain_error(argv, to_stdout):
    # The small outputs fail in the flush, the 155 kB one in the write.
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "nclobber.cli", *argv],
            stdout=full if to_stdout else subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_buffered_env(),
            timeout=120,
        )
    err = proc.stderr.decode()
    assert proc.returncode == 3, err
    assert not proc.stdout
    assert err.startswith("error: cannot write ") and err.count("\n") == 1, err


def test_the_parser_is_built_once_per_process(capsys, monkeypatch):
    run(capsys, "solve", "12223")
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(capsys, "solve", "12223") == (0, "[[1,3]]\n", "")
    assert len(built) == 0


# Runs in a fresh interpreter: two batches of 100 simplify and 100
# compare requests through main, then the length of every module-level
# dict, set and list of nclobber after each batch, as JSON.
CONTAINER_PROBE = """
import contextlib, io, json, random, sys
from nclobber.cli import main

def text(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice("123")
    width = rng.choice((1, 2, 2, 3))
    return "[" + ",".join(text(rng, depth - 1) for _ in range(width)) + "]"

def batch(rng):
    with contextlib.redirect_stdout(io.StringIO()):
        for i in range(100):
            p = str(rng.randint(1, 3))
            mode = ("selfish", "indifferent", "prudent", "raw")[i % 4]
            main(["simplify", text(rng, rng.randint(3, 7)), "--mode", mode, "--perspective", p])
            relation = ("base", "indifferent", "prudent")[i % 3]
            left, right = text(rng, rng.randint(2, 6)), text(rng, rng.randint(2, 6))
            main(["compare", left, right, "-p", p, "--relation", relation])

def sizes():
    return {
        f"{name}.{attr}": len(table)
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "nclobber"
        for attr, table in vars(module).items()
        if isinstance(table, (dict, set, list))
    }

rng = random.Random(0)
batch(rng)
first = sizes()
batch(rng)
print(json.dumps([first, sizes()]))
"""

# Interned values and the shared normalize memo live as long as the
# process, by design; nothing else may keep what a request built.
PROCESS_TABLES = {
    f"nclobber.values.{name}"
    for name in ("_LEAVES", "_CHOICES", "_OUTCOMES", "_EXPANSIONS", "_NORMAL_CACHE")
}


def test_requests_leave_nothing_behind_but_interned_values():
    proc = subprocess.run(
        [sys.executable, "-c", CONTAINER_PROBE],
        env=_buffered_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    first, second = json.loads(proc.stdout)
    assert set(first) == set(second)
    assert any(second[name] > first[name] for name in PROCESS_TABLES)
    grown = {name for name in first if second[name] != first[name]}
    assert grown <= PROCESS_TABLES, {n: (first[n], second[n]) for n in grown - PROCESS_TABLES}

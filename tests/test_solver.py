"""Board evaluation in all four modes, pass handling, and caching."""

import importlib
import itertools
import pkgutil
import random

import pytest
from hypothesis import given, strategies as st

from helpers import (
    MOVABLE_BOARDS,
    Ladder,
    VALUE_123213,
    VALUE_12223,
    VALUE_213,
    VALUE_1232132321,
    evaluate_all_starts,
    line_table_keys_past_its_bound,
    next_active_player,
    reference_eval_graph,
    reference_evaluate,
    run_table_keys_past_its_bound,
    walk_entries,
)
import nclobber
from nclobber import preferences, solver
from nclobber.enumeration import EnumerationReport, generate_boards, raw_values, run_keys
from nclobber.game_core import (
    _RUN_MOVES,
    Position,
    grid_masks,
    line_runs,
    movers_mask,
    parse_board,
    run_moves,
)
from nclobber.preferences import PRUDENT, RAW, TREE, prudent_simplify, pruning_fold, walk
from nclobber.solver import (
    MODES,
    Class,
    EvalCache,
    NoMoveError,
    Raw,
    Simple,
    evaluate,
    evaluate_runs,
    evaluate_text,
    fold_raw,
)
from nclobber.values import (
    GameValue,
    NormalizationProfile,
    SimpleValue,
    choice,
    leaf,
    normalize,
    parse_value,
)


@pytest.fixture
def cleared_line_table():
    """Empty the process's table of small line results, so that a test
    that reads memo sizes after line solves reads the same sizes whatever
    ran before it."""
    solver._SMALL_LINES.clear()


# ---------------------------------------------------------------------------
# raw worked examples


def test_raw_worked_examples_match_the_reference_strings():
    for board, expected in [
        ("213", VALUE_213),
        ("12223", VALUE_12223),
        ("123213", VALUE_123213),
        ("1232132321", VALUE_1232132321),
    ]:
        got = evaluate_text(board, mode="raw")
        assert isinstance(got, Raw)
        assert got.value.text == expected, board


def test_all_starts_on_the_two_cell_board():
    got = evaluate_all_starts("12")
    assert {k: v.value for k, v in got.items()} == {
        1: leaf(1),
        2: leaf(2),
        3: leaf(1),
    }


# ---------------------------------------------------------------------------
# pass semantics: a stuck mover's value wraps the next mover's


def test_stuck_movers_pass_through_as_forced_nodes():
    checked = 0
    for n in (3, 4, 5):
        for board in MOVABLE_BOARDS[n]:
            shape, occ = parse_board(board)
            mask = movers_mask(shape, occ)
            for start in (1, 2, 3):
                if mask & (1 << start):
                    continue
                nxt = next_active_player(shape, occ, after=start)
                mine = evaluate(Position(shape, occ, start), "raw")
                theirs = evaluate(Position(shape, occ, nxt), "raw")
                assert mine.value is choice([theirs.value]), (board, start)
                checked += 1
    assert checked > 50


def test_no_move_at_all_raises():
    with pytest.raises(NoMoveError, match="no initial move on board '11'"):
        evaluate(Position(*parse_board("11")))
    with pytest.raises(NoMoveError):
        evaluate_text("11")
    with pytest.raises(NoMoveError):
        evaluate_text("102")


def test_no_library_path_uses_the_move_level_api(monkeypatch):
    # evaluate walks live runs and bitboards: with the move-level API
    # raising wherever the package binds it, every result and every
    # refusal stays the same.
    boards = [("1232132321", "line"), ("123213", (1, 6)), ("120312301231", (3, 4))]
    want = {
        (board, shape, mode): evaluate_text(board, mode=mode, shape=shape)
        for board, shape in boards
        for mode in MODES
    }
    names = ("Move", "legal_moves", "apply_move", "movers_mask")

    def refuse(*args, **kwargs):
        raise AssertionError("a library path used the move-level API")

    bound = []
    for info in pkgutil.iter_modules(nclobber.__path__, "nclobber."):
        module = importlib.import_module(info.name)
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
                bound.append(f"{info.name}.{name}")
    assert bound == [f"nclobber.game_core.{name}" for name in names]
    for (board, shape, mode), result in want.items():
        assert evaluate_text(board, mode=mode, shape=shape) == result, (board, shape, mode)
    for board, shape in [("11", "line"), ("1020", "line"), ("1102211022", (2, 5))]:
        with pytest.raises(NoMoveError, match=f"^no initial move on board '{board}'$"):
            evaluate_text(board, shape=shape)


# ---------------------------------------------------------------------------
# simplifying modes


def test_selfish_mode_prunes_dominated_options():
    assert evaluate_text("12223", mode="selfish").value is parse_value("[[1,3]]")
    assert evaluate_text("123213", mode="selfish").value is parse_value(
        "[[1,3],[[1,2]]]"
    )
    assert evaluate_text("1232132321", mode="selfish").value is parse_value(
        "[[[1,2]]]"
    )


def test_prudent_mode_returns_simple_values():
    assert evaluate_text("12223", mode="prudent") == Simple(SimpleValue(2, 1))
    assert evaluate_text("123213", mode="prudent") == Simple(SimpleValue(1, 2))
    assert evaluate_text("12013", mode="prudent") == Simple(SimpleValue(1, 1))
    assert evaluate_text("112013", mode="prudent") == Simple(SimpleValue(1, 0))


def test_indifferent_mode_returns_classes():
    assert evaluate_text("213", mode="indifferent") == Class(True)
    assert evaluate_text("23", start=1, mode="indifferent") == Class(False)
    assert str(Class(True)) == "win"
    assert str(Class(False)) == "other_0"
    assert str(Ladder(False, 2)) == "other_2"
    # ties between indistinguishable losses break to the text-least
    # representative, so this board reports the optimistic class
    assert evaluate_text("12223", mode="indifferent") == Class(True)


def test_results_graphs_and_caches_keep_their_contract():
    def results():
        value = parse_value("[1,[2,3]]")
        return [Raw(value), Simple(SimpleValue(1, 2)), Class(False), Class(True)]

    first, again = results(), results()
    assert [str(r) for r in first] == ["[1,[2,3]]", "1_2", "other_0", "win"]
    assert [repr(r) for r in first] == [
        "Raw(value=[1,[2,3]])",
        "Simple(value=SimpleValue(base=1, exponent=2))",
        "Class(mine=False)",
        "Class(mine=True)",
    ]
    # Censuses put results in sets.
    for a, b in zip(first, again):
        assert a == b and hash(a) == hash(b)
    assert len(set(first + again)) == 4
    assert Raw(leaf(1)) != Simple(SimpleValue(1, 0))

    frozen = [
        (first[0], "value"),
        (first[1], "value"),
        (first[2], "mine"),
        (Position((1, 2), b"\1\2"), "mover"),
        (EnumerationReport(2, 3, {}), "games_analysed"),
    ]
    for obj, attr in frozen:
        with pytest.raises(AttributeError):
            setattr(obj, attr, 1)

    one, two = EvalCache(), EvalCache()
    assert one.players == two.players == 3 and EvalCache(2).players == 2
    assert EvalCache.__slots__ == ("players", "entries")
    assert one.entries == {} and one.entries is not two.entries


def test_prudent_solver_matches_collapsing_the_raw_tree():
    for n in (3, 4, 5, 6):
        for board in MOVABLE_BOARDS[n]:
            shape, occ = parse_board(board)
            raw_cache = EvalCache()
            prudent_cache = EvalCache()
            for start in (1, 2, 3):
                raw = evaluate(Position(shape, occ, start), "raw", cache=raw_cache)
                fast = evaluate(
                    Position(shape, occ, start), "prudent", cache=prudent_cache
                )
                assert fast.value == prudent_simplify(raw.value, start), (
                    board,
                    start,
                )


def test_mirror_invariance_on_short_boards():
    for n in (2, 3, 4, 5):
        for board in MOVABLE_BOARDS[n]:
            for start in (1, 2, 3):
                a = evaluate_text(board, start=start, mode="raw")
                b = evaluate_text(board[::-1], start=start, mode="raw")
                assert a.value is b.value, (board, start)


def _isometries(board, rows, cols):
    """The row flip, column flip and transpose of a row-major grid, each
    with its shape."""
    grid = [board[r * cols : (r + 1) * cols] for r in range(rows)]
    return [
        ("".join(reversed(grid)), (rows, cols)),
        ("".join(row[::-1] for row in grid), (rows, cols)),
        ("".join(grid[r][c] for c in range(cols) for r in range(rows)), (cols, rows)),
    ]


def _solve_or_none(board, start, mode, shape, cache):
    try:
        return evaluate_text(board, start, mode, shape=shape, cache=cache)
    except NoMoveError:
        return None


# Grids up to 3x4, as (shape, row-major board).
GRIDS = st.tuples(st.integers(1, 3), st.integers(2, 4)).flatmap(
    lambda shape: st.tuples(
        st.just(shape), st.text("0123", min_size=shape[0] * shape[1], max_size=shape[0] * shape[1])
    )
)


@given(GRIDS)
def test_grid_isometries_keep_every_result(grid):
    (rows, cols), board = grid
    cache = EvalCache()
    for mode in MODES:
        for start in (1, 2, 3):
            want = _solve_or_none(board, start, mode, (rows, cols), cache)
            for image, shape in _isometries(board, rows, cols):
                got = _solve_or_none(image, start, mode, shape, cache)
                assert got == want, (board, (rows, cols), image, shape, mode, start)


_ROTATE = str.maketrans("123", "231")


def _rotated(v, memo):
    """v with every leaf's winner w relabelled w % 3 + 1."""
    got = memo.get(v)
    if got is None:
        if v.children is None:
            got = leaf(v.winner % 3 + 1)
        else:
            got = choice(_rotated(c, memo) for c in v.children)
        memo[v] = got
    return got


def test_rotating_colours_and_start_rotates_raw_prudent_and_selfish_results():
    memo, cache = {}, EvalCache()
    for n in range(2, 9):
        for key in run_keys(n):
            board = "0".join("".join(map(str, run)) for run in key)
            image = board.translate(_ROTATE)
            for start in (1, 2, 3):
                turned = start % 3 + 1
                for mode in ("raw", "selfish"):
                    want = _rotated(evaluate_text(board, start, mode, cache=cache).value, memo)
                    got = evaluate_text(image, turned, mode, cache=cache).value
                    assert got is want, (board, start, mode)
                base, exponent = evaluate_text(board, start, "prudent", cache=cache).value
                got = evaluate_text(image, turned, "prudent", cache=cache).value
                assert got == SimpleValue(base % 3 + 1, exponent), (board, start)


def test_indifferent_results_depend_on_the_player_labels():
    # [1,[2,3]] with player 3 to move, and its colour rotation [2,[1,3]]
    # with player 1 to move.  In each, the player who moves second loses
    # either way; loss-blind, they take the least winner, so the labels
    # decide whether the first mover wins.
    assert evaluate_text("12311", start=3).value is parse_value("[1,[2,3]]")
    assert evaluate_text("23122", start=1).value is parse_value("[2,[1,3]]")
    reason = "loss-blind players take the least winner"
    assert str(evaluate_text("12311", start=3, mode="indifferent")) == "other_0", reason
    assert str(evaluate_text("23122", start=1, mode="indifferent")) == "win", reason


# ---------------------------------------------------------------------------
# modes, profiles, and caches


def test_modes_are_validated():
    assert MODES == ("raw", "syntactic", "selfish", "indifferent", "prudent")
    with pytest.raises(ValueError):
        evaluate_text("12", mode="bogus")
    with pytest.raises(ValueError):
        evaluate_text("1212", mode="prudent", players=4)
    # Indifferent results come from the walk, not from a raw value.
    with pytest.raises(ValueError, match="no fold of the raw value"):
        fold_raw(parse_value("[1,2]"), 1, "indifferent", L1, EvalCache())
    # Nor a mover of no player: True equals 1, and a prudent solve of 1321
    # with mover True once answered True_1, and cached it for mover 1; a
    # walk from mover 1.0 reads its finished games' float winners as
    # states.
    for mover in (0, 4, True, 1.0):
        with pytest.raises(ValueError, match="out of range for 3 players"):
            evaluate(Position((1, 4), b"\1\3\2\1", mover), "prudent")
    # The census entry points refuse them too: evaluate_runs once answered
    # leaf 1 for movers 0, True and 1.0 and leaf 2 for mover 4, and
    # fold_raw refused mover 1.0 only as the "2.0" one level down.
    key, raw = (b"\1\2",), parse_value("[2,[1,3]]")
    for mover in (0, 4, True, 1.0):
        with pytest.raises(ValueError, match="out of range for 3 players"):
            evaluate_runs(key, mover, EvalCache())
        for mode in ("raw", "selfish"):
            with pytest.raises(ValueError, match=f"^mover {mover!r} out of range"):
                fold_raw(raw, mover, mode, L1, EvalCache())
    # A cache is for a player count some game has: EvalCache(0) once
    # raised ZeroDivisionError in a walk, and EvalCache(10) answered.
    for players in (0, -1, 10, 1.5):
        with pytest.raises(ValueError, match="^player count must be 1..9"):
            EvalCache(players)
    # A position built by hand may hold a token of no player.
    with pytest.raises(ValueError, match="^token 5 exceeds player count 3$"):
        evaluate(Position((1, 3), b"\5\1\2"))
    # Nor may its cells fail to fill its shape: walked on the wrong
    # stride or run length, they would answer for some other board.
    for shape, occ in [((2, 2), b"\1\2\3" * 3), ((1, 9), b"\1\2\3"), ((0, 3), b"")]:
        with pytest.raises(ValueError, match="cells do not fill a"):
            evaluate(Position(shape, occ))


def test_syntactic_mode_equals_normalizing_the_raw_tree():
    board = "1232132321"
    raw = evaluate_text(board, mode="raw").value
    for profile in NormalizationProfile:
        got = evaluate_text(board, mode="syntactic", profile=profile).value
        assert got is normalize(raw, profile), profile
    l0 = evaluate_text(board, mode="syntactic", profile=NormalizationProfile.L0)
    assert l0.value.text == VALUE_1232132321  # no rules; same as raw


def test_cache_reuse_is_safe_and_checked():
    shape, occ = parse_board("123213")
    cache = EvalCache()
    first = evaluate(Position(shape, occ, 1), "raw", cache=cache)
    again = evaluate(Position(shape, occ, 1), "raw", cache=cache)
    assert first.value is again.value
    assert cache.entries  # the memo actually filled
    # one cache serves every mode and profile in turn
    position = Position(shape, occ, 1)
    for mode in ("raw", "selfish", "prudent"):
        shared = evaluate(position, mode, cache=cache)
        assert shared == evaluate(position, mode, cache=EvalCache()), mode
    # and every other board
    other = Position(*parse_board("1232"), 1)
    assert evaluate(other, "raw", cache=cache) == evaluate(other, "raw", cache=EvalCache())
    # but never another player count
    with pytest.raises(ValueError):
        evaluate(position, "raw", cache=cache, players=4)


def test_one_cache_serves_every_shape_of_the_same_digits():
    # 1x6, 2x3 and 3x2 share their occupancy bytes; the line is keyed on
    # its runs, and the grids on bitboards of strides 4 and 3.
    cache = EvalCache()
    for start in (1, 2, 3):
        got = set()
        for shape in ("line", (2, 3), (3, 2)):
            position = Position(*parse_board("123213", shape=shape), start)
            value = evaluate(position, "raw", cache=cache).value
            assert value is evaluate(position, "raw", cache=EvalCache()).value, (shape, start)
            got.add(value)
        assert len(got) == 3, start


@pytest.mark.usefixtures("cleared_line_table")
def test_fold_memos_in_one_cache_do_not_leak_between_modes():
    for n in (3, 4, 5, 6):
        shape = parse_board(MOVABLE_BOARDS[n][0])[0]
        cache = EvalCache()
        for board in MOVABLE_BOARDS[n]:
            for start in (1, 2, 3):
                position = Position(shape, parse_board(board)[1], start)
                for mode in ("prudent", "selfish", "prudent"):
                    fresh = evaluate(position, mode, cache=EvalCache())
                    got = evaluate(position, mode, cache=cache)
                    assert got == fresh, (board, start, mode)
        # Prudent walks positions; selfish walks the raw walk's values.
        # (At n = 3 every raw value is a leaf, which leaves no selfish entry.)
        # Beside the walks' tables, the memo holds only the table of the
        # selfish relation, which the selfish fold's prune fills, and the
        # line kind's run moves.
        selfish = pruning_fold("selfish", L1, 3)
        walks = {tag: table for tag, table in cache.entries.items() if isinstance(tag, tuple)}
        assert set(cache.entries).difference(walks) <= {preferences._leq, run_moves}
        tags = {fold for (fold, _), table in walks.items() if table}
        assert tags == {PRUDENT, RAW} | ({selfish} if n > 3 else set()), n
        for (fold, _), table in walks.items():
            for state in table:
                assert isinstance(state, GameValue) == (fold is selfish), (fold, state)


def test_evaluate_all_starts_shares_one_cache_consistently():
    board = "123213"
    shared = evaluate_all_starts(board, mode="prudent")
    for start in (1, 2, 3):
        fresh = evaluate_text(board, start=start, mode="prudent")
        assert shared[start] == fresh


# ---------------------------------------------------------------------------
# differential check against the position-by-position evaluator


def _mismatches(boards, modes, profiles, players=3, shape="line"):
    """Compare evaluate with the reference on every board, start, mode
    and profile; return (cases, mismatch descriptions).

    Both sides share their memos across the boards: evaluate one cache
    for every shape and mode, as the census does, the reference one per
    shape, mode and profile.
    """
    cache, memos, bad, cases = EvalCache(players), {}, [], 0
    for board in boards:
        dims, occ = parse_board(board, shape=shape, players=players)
        if movers_mask(dims, occ) == 0:
            continue
        for start in range(1, players + 1):
            position = Position(dims, occ, start)
            for mode in modes:
                for profile in profiles:
                    memo = memos.setdefault((dims, mode, profile), {})
                    got = evaluate(position, mode, profile, cache, players)
                    want = reference_evaluate(position, mode, profile, memo, players)
                    cases += 1
                    if got != want:
                        bad.append(f"{board} {shape} start={start} {mode} "
                                   f"{profile.name}: {got} != {want}")
    return cases, bad


L1 = NormalizationProfile.L1


def test_folds_match_the_reference_on_every_line_board_up_to_8():
    boards = [b for n in range(2, 9) for b in generate_boards(n)]
    cases, bad = _mismatches(boards, MODES, (L1,))
    assert not bad, bad[:10]
    assert cases == 5 * 3 * len(boards)


def test_folds_match_the_reference_under_other_profiles():
    boards = [b for n in range(2, 7) for b in MOVABLE_BOARDS[n]]
    profiles = (NormalizationProfile.L0, NormalizationProfile.L2)
    cases, bad = _mismatches(boards, ("syntactic", "selfish"), profiles)
    assert not bad, bad[:10]
    assert cases == 2 * 2 * 3 * len(boards)


@pytest.mark.parametrize("players", [2, 4])
def test_folds_match_the_reference_for_other_player_counts(players):
    boards = [b for n in range(2, 7) for b in generate_boards(n, players)]
    modes = ("raw", "syntactic", "selfish", "indifferent")
    cases, bad = _mismatches(boards, modes, (L1,), players)
    assert not bad, bad[:10]
    assert cases == 4 * players * len(boards)


def test_folds_match_the_reference_on_random_grids():
    rng = random.Random(20261018)
    cases = 0
    for rows, cols, count in [(2, 3, 34), (2, 4, 34), (2, 5, 34), (3, 3, 34), (3, 4, 10)]:
        boards = [
            "".join(rng.choice("0123") for _ in range(rows * cols)) for _ in range(count)
        ]
        got, bad = _mismatches(boards, MODES, (L1,), shape=(rows, cols))
        assert not bad, bad[:10]
        cases += got
    assert cases > 1500


# ---------------------------------------------------------------------------
# the kinds of game that walk folds


def test_each_kind_gives_the_moves_or_the_winner_of_a_finished_game():
    def line(parts, mover, last):
        return solver._line(parts, mover, last, {})

    def grid(board, shape, mover, last):
        _, occ = parse_board(board, shape=shape)
        return solver._grid((shape[1] + 1, *grid_masks(shape, occ, 3)), mover, last, {})

    # A finished game is its winner, as an int: a leaf's own winner, and
    # the last mover on a line with no live run or on a grid where no two
    # colours touch, though one colour may touch itself.
    assert TREE(leaf(2), 1, 3, {}) == 2
    assert line((), 1, 3) == 3
    assert grid("110002", (2, 3), 1, 2) == 2
    # A mover with no move in a live game gets an empty sequence: a pass.
    for got in (line((b"\1\2",), 3, 2), grid("1200", (2, 2), 3, 2)):
        assert not isinstance(got, int) and len(got) == 0
    # Otherwise the states the mover's moves leave.
    v = parse_value("[1,[2,3]]")
    assert TREE(v, 1, 3, {}) == v.children
    assert list(line((b"\1\2",), 1, 3)) == [()]
    assert list(line((b"\2\1", b"\2\1"), 2, 1)) == [(b"\2\1",)]
    assert grid("1200", (2, 2), 1, 3) == [(3, 0, 0, 0)]


# ---------------------------------------------------------------------------
# prudent and indifferent walks against folding the raw value


def _position_walk(state, kind, mover, cache, mode="raw"):
    """The position walk's result under mode's fold on a state of kind."""
    return walk(state, mover, solver._WALKS[mode], kind, cache.entries, cache.players)


def _grid_walk(shape, occ, mover, cache, mode="raw"):
    """The position walk's result on a grid occupancy, any shape, even
    1xn, which evaluate would walk as a line."""
    state = (shape[1] + 1, *grid_masks(shape, occ, cache.players))
    return _position_walk(state, solver._grid, mover, cache, mode)


def _folded(raw, mover, mode, players, cache, memo):
    """A walk's result got by folding the raw value as a tree instead: the
    prudent simple (fold_raw), or the winner of the indifferent fold's
    leaf."""
    if mode == "prudent":
        return fold_raw(raw, mover, mode, L1, cache).value
    fold = pruning_fold(mode, L1, players)
    return walk(raw, mover, fold, TREE, memo, players).winner


@pytest.mark.parametrize(
    "players, max_n, walks",
    [
        (3, 10, ("prudent", "indifferent")),
        (2, 7, ("indifferent",)),
        (4, 7, ("indifferent",)),
        (5, 7, ("indifferent",)),
    ],
    ids=["three", "two", "four", "five"],
)
def test_line_walks_match_folding_the_raw_value(players, max_n, walks):
    keys = sorted({key for n in range(2, max_n + 1) for key in run_keys(n, players)})
    cache, memo, bad = EvalCache(players), {}, []
    for mover in range(1, min(players, 3) + 1):
        for key in keys:
            raw = evaluate_runs(key, mover, cache)
            for mode in walks:
                got = _position_walk(key, solver._line, mover, cache, mode)
                want = _folded(raw, mover, mode, players, cache, memo)
                if got != want:
                    bad.append(f"{key} mover={mover} {mode}: {got} != {want}")
    assert not bad, bad[:10]


def test_grid_walks_match_folding_the_raw_value():
    rng = random.Random("walk-vs-fold")
    cache, memo, cases = EvalCache(), {}, 0
    for shape in [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (3, 4)]:
        for _ in range(40):
            board = "".join(rng.choice("01233") for _ in range(shape[0] * shape[1]))
            _, occ = parse_board(board, shape=shape)
            if not movers_mask(shape, occ):
                continue
            for mover in (1, 2, 3):
                raw = _grid_walk(shape, occ, mover, cache)
                for mode in ("prudent", "indifferent"):
                    got = _grid_walk(shape, occ, mover, cache, mode)
                    assert got == _folded(raw, mover, mode, 3, cache, memo), (board, mover, mode)
                    cases += 1
    assert cases > 1000


# ---------------------------------------------------------------------------
# grid positions walked on bitboards


@pytest.mark.parametrize(
    "players, shapes",
    [
        (3, [(3, 3), (3, 4), (1, 6), (4, 1), (4, 2)]),  # solve-stream shapes, thin ones
        (2, [(2, 4), (3, 3), (3, 4)]),
        (4, [(2, 3), (2, 4), (3, 3)]),
    ],
    ids=["three", "two", "four"],
)
def test_grid_walk_returns_the_edge_walks_values(players, shapes):
    """Every start of random grids gets the very object the move-by-move
    walk (tests/helpers.py) interns."""
    rng = random.Random(f"grid-walk:{players}")
    tokens, cases = "123456789"[:players], 0
    for shape in shapes:
        reference, cache = EvalCache(players), EvalCache(players)
        for _ in range(12):
            board = "".join(
                "0" if rng.random() < 0.15 else rng.choice(tokens)
                for _ in range(shape[0] * shape[1])
            )
            dims, occ = parse_board(board, shape=shape, players=players)
            if not movers_mask(dims, occ):
                continue
            for start in range(1, players + 1):
                want = reference_eval_graph(dims, occ, start, reference)
                got = evaluate(Position(dims, occ, start), cache=cache, players=players)
                assert got.value is want, (board, shape, start)
                cases += 1
    assert cases > 30 * players


@pytest.mark.parametrize(
    "shape, boards",
    [
        ((3, 3), ("123000000", "123000001", "123000302")),  # isolated corners
        ((3, 4), ("120000000000", "120000300001")),  # isolated in the middle too
    ],
)
def test_grids_that_differ_in_isolated_tokens_share_one_memo_entry(shape, boards):
    cache = EvalCache()
    first = evaluate_text(boards[0], shape=shape, cache=cache).value
    size = walk_entries(cache)
    for board in boards[1:]:
        assert evaluate_text(board, shape=shape, cache=cache).value is first, board
        assert walk_entries(cache) == size, board


def test_grids_with_the_same_columns_and_live_tokens_share_memo_entries():
    # Both lay out their bitboards on stride 4, and nothing lies below the
    # first row; the row count is in no key.
    cache = EvalCache()
    for mode in ("raw", "prudent", "indifferent"):
        for start in (1, 2, 3):
            first = evaluate_text("123000", start, mode, shape=(2, 3), cache=cache)
            size = walk_entries(cache)
            again = evaluate_text("123000000", start, mode, shape=(3, 3), cache=cache)
            assert again.value is first.value if mode == "raw" else again == first
            assert walk_entries(cache) == size, (mode, start)


def test_the_slowest_solve_stream_grid_holds_8704_memo_entries():
    cache = EvalCache()
    evaluate_text("122132133121", shape=(3, 4), cache=cache)
    # 16,945 when positions were keyed on their full occupancy.
    assert walk_entries(cache) == 8_704


# ---------------------------------------------------------------------------
# line positions keyed on their live runs


def _line_vs_grid(boards, players=3, modes=MODES):
    """Evaluate every board on its line (keyed on live runs) and walk it
    as a 1xn grid (keyed on its live bitboards), every start and mode;
    return (cases, mismatch descriptions).  Each path keeps one cache for
    all boards."""
    line_cache, grid_cache, bad, cases = EvalCache(players), EvalCache(players), [], 0
    for board in boards:
        shape, occ = parse_board(board, shape=(1, len(board)), players=players)
        for start in range(1, players + 1):
            raw = _grid_walk(shape, occ, start, grid_cache)
            for mode in modes:
                a = evaluate_text(board, start, mode, players=players, cache=line_cache)
                if mode == "prudent":
                    b = Simple(_grid_walk(shape, occ, start, grid_cache, mode))
                elif mode == "indifferent":
                    winner = _grid_walk(shape, occ, start, grid_cache, mode)
                    b = Class(winner == start)
                else:
                    b = fold_raw(raw, start, mode, L1, grid_cache)
                cases += 1
                same = a.value is b.value if isinstance(a, Raw) else a == b
                if type(a) is not type(b) or not same:
                    bad.append(f"{board} start={start} {mode}: {a} != {b}")
    return cases, bad


def _movable_strings(n, players):
    """Every digit string over 0..players of length n with a move."""
    for cells in itertools.product(range(players + 1), repeat=n):
        occ = bytes(cells)
        if movers_mask((1, n), occ):
            yield "".join(map(str, cells))


def test_line_keys_match_byte_keys_on_every_novel_board_up_to_8():
    boards = [b for n in range(2, 9) for b in generate_boards(n)]
    cases, bad = _line_vs_grid(boards)
    assert not bad, bad[:10]
    assert cases == 5 * 3 * len(boards)


def test_line_keys_match_byte_keys_with_blank_ends_and_doubled_blanks():
    boards = [b for n in range(2, 7) for b in _movable_strings(n, 3)]
    assert "0120" in boards and "120013" in boards
    cases, bad = _line_vs_grid(boards)
    assert not bad, bad[:10]
    assert cases == 5 * 3 * len(boards)


def test_line_keys_match_byte_keys_for_four_players():
    boards = [b for n in range(2, 6) for b in _movable_strings(n, 4)]
    modes = ("raw", "syntactic", "selfish", "indifferent")
    cases, bad = _line_vs_grid(boards, 4, modes)
    assert not bad, bad[:10]
    assert cases == 4 * 4 * len(boards)


@pytest.mark.parametrize(
    "boards",
    [
        ("1203302", "2033021", "1203302011102"),  # mirror; dead runs added
        ("12013", "13012"),  # runs swapped and mirrored
    ],
)
@pytest.mark.usefixtures("cleared_line_table")
def test_boards_with_the_same_live_runs_share_one_memo_entry(boards):
    cache = EvalCache()
    first = evaluate_text(boards[0], cache=cache).value
    size = walk_entries(cache)
    for board in boards[1:]:
        assert evaluate_text(board, cache=cache).value is first, board
        assert walk_entries(cache) == size, board


def test_the_n9_census_sweep_holds_one_memo_entry_per_resolved_run_key():
    cache = EvalCache()
    for key in run_keys(9):
        evaluate_runs(key, 1, cache)
    assert walk_entries(cache) == 27_191


@pytest.mark.parametrize("n", [6, 7, 8, 9, 10])
def test_the_run_move_table_holds_only_runs_that_share_a_position(n):
    # Two runs and the blank between them take at least len(run) + 3
    # cells, so a run longer than n - 3 only ever stands alone.  The
    # process keeps the short runs' moves, so the walk's table holds only
    # longer runs: none below n = 10, where every run that shares a
    # position has at most six cells.
    cache = EvalCache()
    for key in run_keys(n):
        evaluate_runs(key, 1, cache)
    runs = cache.entries.get(run_moves, {})
    assert bool(runs) == (n >= 10)
    assert all(6 < len(run) <= n - 3 and (run, p) not in _RUN_MOVES for run, p in runs)


def test_solving_long_lines_keeps_the_process_run_table_in_its_bound():
    # Dense lines whose runs and positions are far too long for the
    # process's tables.
    for board in ("12" * 15, "12312310123123101231231"):
        evaluate_text(board, mode="prudent")
        assert not run_table_keys_past_its_bound(), board
        assert not line_table_keys_past_its_bound(), board
    assert solver._SMALL_LINES  # the walks did keep small results


# The entries of the process's table of small line results once every
# small state has been solved from every start under each position fold:
# the small states (1,995 for three players) times the movers times the
# folds, three for three players and two (no PRUDENT) for the others.
SMALL_LINE_ENTRIES = {
    1: 0,
    2: 632,
    3: 17_955,
    4: 5_880,
    5: 4_000,
    6: 9_540,
    7: 2_940,
    8: 4_928,
    9: 7_776,
}


@pytest.mark.parametrize("players", range(1, 10))
def test_the_process_line_table_keeps_only_small_states(players, cleared_line_table):
    # Every line position of the player count's colours up to one cell
    # past the widest small span, by its live runs, solved from every start
    # under each position fold.
    span = max(s for s in range(8) if players**s <= 3**7)
    cells = itertools.product(range(players + 1), repeat=span + 1)
    keys = {line_runs(bytes(occupancy)) for occupancy in cells}
    keys.discard(())
    modes = ("raw", "indifferent", "prudent") if players == 3 else ("raw", "indifferent")
    cache = EvalCache(players)
    for key in keys:
        board = "".join(map(str, b"\0".join(key)))
        for start in range(1, players + 1):
            for mode in modes:
                evaluate_text(board, start, mode, players=players, cache=cache)
    assert not line_table_keys_past_its_bound()
    assert sum(map(len, solver._SMALL_LINES.values())) == SMALL_LINE_ENTRIES[players]
    assert sum(SMALL_LINE_ENTRIES.values()) == solver._SMALL_LINE_ENTRIES


@pytest.mark.parametrize("players, longest", [(3, 8), (2, 6), (4, 6)])
def test_the_process_line_table_changes_no_result(
    players, longest, monkeypatch, cleared_line_table
):
    # Every result, computed with walk keeping nothing beyond the cache,
    # then read with a fresh cache per board twice: from the cleared
    # table, which fills as the boards go, and from the warm table.
    modes = MODES if players == 3 else tuple(m for m in MODES if m != "prudent")
    boards = [b for n in range(2, longest + 1) for b in generate_boards(n, players)]
    cases = [(b, start, mode) for b in boards for start in range(1, players + 1) for mode in modes]
    with monkeypatch.context() as patched:
        patched.setattr(preferences, "_KEPT", {})
        cache = EvalCache(players)
        want = [evaluate_text(b, s, mode, players=players, cache=cache) for b, s, mode in cases]
    assert not solver._SMALL_LINES
    for warm in (False, True):
        kept = sum(map(len, solver._SMALL_LINES.values()))
        bad, caches = [], {}
        for (board, start, mode), expected in zip(cases, want):
            cache = caches.setdefault(board, EvalCache(players))
            got = evaluate_text(board, start, mode, players=players, cache=cache)
            same = got.value is expected.value if isinstance(got, Raw) else got == expected
            if type(got) is not type(expected) or not same:
                bad.append(f"{board} start={start} {mode} warm={warm}: {got} != {expected}")
        assert not bad, bad[:10]
        # The first pass fills the table; the warm one meets only states
        # that the first kept.
        assert (sum(map(len, solver._SMALL_LINES.values())) == kept) == warm


def test_evaluate_runs_refuses_a_run_that_is_not_live():
    for parts in ((b"\2\2\2",), (b"",), (b"\1\2", b"\1")):
        with pytest.raises(ValueError, match="not a live run"):
            evaluate_runs(parts, 1, EvalCache())


def test_one_cache_shares_line_positions_across_lengths(monkeypatch):
    # Without the process's table of small line results, which would let
    # the separate caches skip the small states that the shared one solved.
    monkeypatch.setattr(preferences, "_KEPT", {})
    shared, separate = EvalCache(), 0
    for n in range(2, 9):
        own = EvalCache()
        for board in generate_boards(n):
            evaluate_text(board, cache=shared)
            evaluate_text(board, cache=own)
        separate += walk_entries(own)
    assert walk_entries(shared) < separate


# ---------------------------------------------------------------------------
# the memo: a dict of tables that walk alone probes


@pytest.mark.usefixtures("cleared_line_table")
def test_every_memo_entry_is_a_table():
    # One cache solves a line and a 3x4 grid in every mode, then folds the
    # n = 7 census roots selfishly, prudently and indifferently.  Walks keep
    # one table per (fold, mover), keyed on the state; beside them sit
    # prune's relation tables and the line kind's run moves.
    cache = EvalCache()
    # Player 1's first move in 3213213232 leaves 31 beside a 7-cell run,
    # too long for the process's run table, so the walk keeps its moves.
    boards = (("1232132321", "line"), ("3213213232", "line"), ("122132133121", (3, 4)))
    for board, shape in boards:
        for mode in MODES:
            evaluate_text(board, mode=mode, shape=shape, cache=cache)
    indifferent = pruning_fold("indifferent", L1, 3)
    for raw in raw_values(run_keys(7)):
        fold_raw(raw, 1, "selfish", L1, cache)
        fold_raw(raw, 1, "prudent", L1, cache)
        walk(raw, 1, indifferent, TREE, cache.entries, 3)
    assert all(type(table) is dict for table in cache.entries.values())
    walks = [tag for tag in cache.entries if isinstance(tag, tuple)]
    assert all(
        len(tag) == 2 and isinstance(tag[0], preferences.Fold) and tag[1] in (1, 2, 3)
        for tag in walks
    ), walks
    others = set(cache.entries).difference(walks)
    assert others == {preferences._leq, preferences._quotient, preferences._ext_leq, run_moves}


def test_walk_returns_a_stored_result_without_expanding_the_state_again():
    calls = []

    def counted(v, mover, last, memo=None):  # TREE, counting its calls
        calls.append((v, mover))
        return v.children or v.winner

    v, memo = parse_value("[1,[2,3],[3,[1,2]]]"), {}
    first = walk(v, 2, RAW, counted, memo, 3)
    expanded = len(calls)
    assert walk(v, 2, RAW, counted, memo, 3) is first
    assert len(calls) == expanded > 1
    assert memo[RAW, 2][v] is first

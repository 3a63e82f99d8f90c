"""Board parsing, move generation, and board-level invariants."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from helpers import (
    isolation_violations,
    movable_board_strategy,
    next_active_player,
    reference_run_moves,
)
from nclobber.game_core import (
    BoardError,
    Move,
    apply_move,
    grid_masks,
    legal_moves,
    line_runs,
    movers_mask,
    parse_board,
    run_moves,
)


# ---------------------------------------------------------------------------
# graphs and parsing


def _checkerboard_edges(shape):
    """The board's edges and neighbour lists, read off the moves of a
    two-colour checkerboard, where every pair of neighbours can clobber."""
    rows, cols = shape
    occ = bytes(1 + (r + c) % 2 for r in range(rows) for c in range(cols))
    moves = legal_moves(shape, occ, 1) + legal_moves(shape, occ, 2)
    edges = sorted({(min(m), max(m)) for m in moves})
    neighbors = [tuple(sorted(m.dst for m in moves if m.src == v)) for v in range(len(occ))]
    return edges, neighbors


def test_line_graph_path_edges():
    shape, occ = parse_board("1212")
    assert shape == (1, 4) and len(occ) == 4
    edges, neighbors = _checkerboard_edges(shape)
    assert edges == [(0, 1), (1, 2), (2, 3)]
    assert neighbors[0] == (1,)
    assert neighbors[1] == (0, 2)


def test_grid_graph_edges():
    shape, occ = parse_board("121212", shape=(2, 3))
    assert shape == (2, 3) and len(occ) == 6
    edges, neighbors = _checkerboard_edges(shape)
    assert set(edges) == {(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)}
    assert neighbors[4] == (1, 3, 5)


def _side_sharing_moves(shape, occ, player):
    """Every clobber of player's, by brute force: cells (r, c) and
    (r2, c2) are adjacent when |r - r2| + |c - c2| = 1."""
    cells = [(v, divmod(v, shape[1])) for v in range(len(occ))]
    return [
        (src, dst)
        for src, (r, c) in cells
        for dst, (r2, c2) in cells
        if abs(r - r2) + abs(c - c2) == 1
        and occ[src] == player
        and occ[dst] not in (0, player)
    ]


def test_moves_follow_the_side_sharing_rule_on_every_shape_up_to_4x4():
    rng = random.Random("side-sharing")
    for rows, cols in itertools.product(range(1, 5), repeat=2):
        shape = (rows, cols)
        for _ in range(25):
            occ = bytes(rng.choice((0, 1, 2, 3, 4)) for _ in range(rows * cols))
            mask = 0
            for player in (1, 2, 3, 4):
                want = _side_sharing_moves(shape, occ, player)
                assert legal_moves(shape, occ, player) == want, (rows, cols, occ, player)
                mask |= bool(want) << player
            assert movers_mask(shape, occ) == mask, (rows, cols, occ)


def test_grid_masks_skip_a_guard_column_and_drop_isolated_tokens():
    # Stride 4: row 1 starts at bit 4, and bit 3 is the guard after (0, 2).
    shape, occ = parse_board("120023", shape=(2, 3))
    assert grid_masks(shape, occ, 3) == (0b1, 0b100010, 0b1000000)
    shape, occ = parse_board("120003", shape=(2, 3))  # the 3 touches nothing
    assert grid_masks(shape, occ, 3) == (0b1, 0b10, 0)
    shape, occ = parse_board("0120", shape=(2, 2))  # (0, 1) and (1, 0) never touch
    assert grid_masks(shape, occ, 3) == (0, 0, 0)


def test_parse_board_line_and_render_round_trip():
    shape, occ = parse_board("12023")
    assert shape == (1, 5)
    assert occ == bytes([1, 2, 0, 2, 3])


def test_parse_board_grid_shape():
    shape, occ = parse_board("120233", shape=(2, 3))
    assert shape == (2, 3)
    assert occ == bytes([1, 2, 0, 2, 3, 3])


def test_parse_board_rejects_bad_input():
    with pytest.raises(BoardError):
        parse_board("12x3")
    with pytest.raises(BoardError):
        parse_board("124")  # token above the player count
    with pytest.raises(BoardError):
        parse_board("1202", shape=(2, 3))  # wrong cell count
    with pytest.raises(BoardError, match="positive dimensions"):
        parse_board("123", shape=(-1, -3))  # the right count, but no grid
    with pytest.raises(BoardError):
        parse_board("")
    with pytest.raises(BoardError, match="nonempty digit string"):
        parse_board("12\u00b23")  # a superscript two passes str.isdigit
    assert parse_board("124", players=4)[1] == bytes([1, 2, 4])


def test_parse_board_names_the_first_digit_above_the_player_count():
    with pytest.raises(BoardError, match="^digit 4 exceeds player count 3$"):
        parse_board("12450")
    with pytest.raises(BoardError, match="^digit 5 exceeds player count 3$"):
        parse_board("120534", shape=(2, 3))


# ---------------------------------------------------------------------------
# live runs of a line board


def test_line_runs_drop_one_colour_runs_and_read_each_the_larger_way():
    assert line_runs(bytes([1, 2, 0, 3, 3, 0, 2])) == (bytes([2, 1]),)
    assert line_runs(bytes([1, 3, 0, 2, 1, 0, 0, 1, 2])) == (bytes([2, 1]), bytes([2, 1]), bytes([3, 1]))
    assert line_runs(bytes([1, 1, 0, 2])) == ()


def test_run_moves_split_the_run_where_a_cell_empties():
    # The run 312 (the larger reading of 213).
    run = bytes([3, 1, 2])
    assert run_moves(run, 1) == ((),)  # either capture leaves two lone tokens
    assert run_moves(run, 2) == ((bytes([3, 2]),),)
    assert run_moves(run, 3) == ((bytes([3, 2]),),)
    assert run_moves(run, 4) == ()
    # In 2121 player 1 leaves 1|21, 2|11 or 211|: nothing live, 21 or 211.
    assert run_moves(bytes([2, 1, 2, 1]), 1) == ((), (bytes([2, 1]),), (bytes([2, 1, 1]),))


@pytest.mark.parametrize("players, longest", [(3, 9), (2, 12), (4, 7)])
def test_run_moves_equal_the_reference_on_every_canonical_run(players, longest):
    bad = []
    for m in range(2, longest + 1):
        for cells in itertools.product(range(1, players + 1), repeat=m):
            run = bytes(cells)
            if run < run[::-1] or not run.strip(run[:1]):
                continue
            for player in range(1, players + 1):
                if run_moves(run, player) != reference_run_moves(run, player):
                    bad.append((run, player))
    assert not bad, bad[:5]


def test_run_moves_refuse_a_run_that_is_not_live():
    # Too short, of one colour, or holding a blank.
    for run in (b"", b"\1", b"\1\1", b"\2\2\2", b"\1\0\2", b"\0\1\2"):
        with pytest.raises(ValueError, match="not a live run"):
            run_moves(run, 1)


@pytest.mark.parametrize("players", range(1, 10))
def test_the_process_run_table_keeps_only_short_canonical_runs(players):
    # Every live run of top colour c, either way round, of every length m up
    # to the first with c ** m > 3 ** 6 (seven cells at most), asked of
    # every player and of two non-players.
    for top in range(2, players + 1):
        for m in range(2, 8):
            for cells in itertools.product(range(1, top + 1), repeat=m):
                run = bytes(cells)
                if top in run and run.strip(run[:1]):
                    for player in range(players + 2):
                        assert run_moves(run, player) == reference_run_moves(run, player)
            if top**m > 3**6:
                break


# ---------------------------------------------------------------------------
# moves


def test_legal_moves_are_clobbers_in_ascending_order():
    shape, occ = parse_board("213")
    assert legal_moves(shape, occ, 1) == [Move(1, 0), Move(1, 2)]
    assert legal_moves(shape, occ, 2) == [Move(0, 1)]
    assert legal_moves(shape, occ, 3) == [Move(2, 1)]


def test_legal_moves_ignore_empty_and_own_neighbors():
    shape, occ = parse_board("1102")
    assert legal_moves(shape, occ, 1) == []
    assert legal_moves(shape, occ, 2) == []


def test_apply_move_replaces_target_and_empties_source():
    shape, occ = parse_board("213")
    nxt = apply_move(occ, Move(1, 0))
    assert nxt == bytes([1, 0, 3])


def test_apply_move_validates_against_the_graph():
    shape, occ = parse_board("2103")
    with pytest.raises(BoardError):
        apply_move(occ, Move(1, 2))  # destination empty
    with pytest.raises(BoardError):
        apply_move(occ, Move(2, 3))  # source empty
    shape, occ = parse_board("1123")
    with pytest.raises(BoardError):
        apply_move(occ, Move(0, 1))  # destination holds own token


def test_movers_mask_and_terminal():
    shape, occ = parse_board("1122")
    assert movers_mask(shape, occ) == (1 << 1) | (1 << 2)
    shape, occ = parse_board("1012")
    assert movers_mask(shape, occ) == (1 << 1) | (1 << 2)
    shape, occ = parse_board("1023")
    assert movers_mask(shape, occ) == (1 << 2) | (1 << 3)
    shape, occ = parse_board("1100")
    assert movers_mask(shape, occ) == 0


def test_next_active_player_wraps_and_handles_terminal():
    shape, occ = parse_board("1122")
    assert next_active_player(shape, occ, after=1) == 2
    assert next_active_player(shape, occ, after=2) == 1  # 3 is stuck
    assert next_active_player(shape, occ, after=3) == 1
    shape, occ = parse_board("1100")
    assert next_active_player(shape, occ, after=1) is None


@given(movable_board_strategy())
def test_mirroring_a_line_board_mirrors_its_moves(board):
    n = len(board)
    shape, occ = parse_board(board)
    _, rocc = parse_board(board[::-1])
    for player in (1, 2, 3):
        fwd = {(m.src, m.dst) for m in legal_moves(shape, occ, player)}
        rev = {(n - 1 - s, n - 1 - d) for (s, d) in legal_moves(shape, rocc, player)}
        assert fwd == rev


@given(movable_board_strategy(), st.integers(1, 3))
def test_apply_move_removes_exactly_one_token(board, player):
    shape, occ = parse_board(board)
    for move in legal_moves(shape, occ, player):
        nxt = apply_move(occ, move)
        assert sum(1 for c in nxt if c) == sum(1 for c in occ if c) - 1
        assert nxt[move.src] == 0 and nxt[move.dst] == player


# ---------------------------------------------------------------------------
# isolation: a player without moves never regains one


def test_isolation_exhaustive_on_short_lines():
    bad = []
    for n in range(2, 6):
        for cells in itertools.product("0123", repeat=n):
            bad.extend(isolation_violations("".join(cells)))
    assert not bad, bad[:5]


def test_isolation_on_a_grid():
    board = "123123213"
    shape, occ = parse_board(board, shape=(3, 3))
    # walk by hand over the grid using the shared helper's logic
    from helpers import reachable_occupancies

    for cur in reachable_occupancies(shape, occ):
        stuck = [p for p in (1, 2, 3) if not legal_moves(shape, cur, p)]
        for player in (1, 2, 3):
            for move in legal_moves(shape, cur, player):
                nxt = apply_move(cur, move)
                for q in stuck:
                    assert not legal_moves(shape, nxt, q)

"""Boards and moves for N-player Clobber on a rows x cols board.

A board is its shape, a (rows, cols) pair (a line is one row), plus an
occupancy: one byte per cell, row-major, 0 for empty and 1..N for a
token of that player.  The shape alone sets adjacency: cells are
adjacent when they share a side.  A move picks up the mover's token and
clobbers an adjacent token of a different player; the source cell
becomes empty.  Tokens never move onto empty cells, so every move
removes exactly one token and empty cells stay empty forever.

Turn order rotates 1, 2, ..., N, 1, ...  A player with no legal move is
skipped, and since the mover's options only ever shrink, a skipped
player never moves again.  The last player to make a move wins.

Move, legal_moves, apply_move and movers_mask are the move-level
reference API; the solver walks live runs and bitboards instead.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Union

from .values import quote


class BoardError(ValueError):
    """Raised for malformed board text or illegal moves."""


class Move(NamedTuple):
    src: int
    dst: int


class Position(NamedTuple):
    """A board state with the player whose turn it nominally is."""

    shape: tuple[int, int]
    occupancy: bytes
    mover: int = 1


Shape = Union[str, tuple[int, int]]

# ASCII digit -> cell byte.
_DIGITS = bytes.maketrans(b"0123456789", bytes(range(10)))


def parse_board(
    text: str, shape: Shape = "line", players: int = 3
) -> tuple[tuple[int, int], bytes]:
    """Turn a digit string into ((rows, cols), occupancy).

    shape is "line", read as one row, or a (rows, cols) pair read
    row-major.  Digits must be 0..players.  Boards with no legal move
    parse fine; rejecting them is the evaluator's job.
    """
    if not 1 <= players <= 9:
        raise BoardError(f"player count must be 1..9, got {players}")
    if not text or not (text.isascii() and text.isdigit()):
        raise BoardError(f"board must be a nonempty digit string, got {quote(text)}")
    cells = text.encode().translate(_DIGITS)
    if max(cells) > players:
        bad = next(ch for ch in text if int(ch) > players)
        raise BoardError(f"digit {bad} exceeds player count {players}")
    rows, cols = (1, len(cells)) if shape == "line" else shape
    # The digits fill the grid row by row, so there must be rows * cols.
    if rows * cols != len(cells):
        raise BoardError(f"grid {rows}x{cols} needs {rows * cols} digits, got {len(cells)}")
    if rows < 1 or cols < 1:
        raise BoardError("a grid board needs positive dimensions")
    return (rows, cols), cells


def _edges(shape: tuple[int, int]) -> Iterator[tuple[int, int]]:
    """Each pair of cells that share a side, once, as (u, v) with u < v:
    the board's one adjacency rule, read from row and column arithmetic."""
    rows, cols = shape
    n = rows * cols
    for v in range(n):
        if (v + 1) % cols:
            yield v, v + 1
        if v + cols < n:
            yield v, v + cols


def legal_moves(shape: tuple[int, int], occupancy: bytes, player: int) -> list[Move]:
    """All clobbering moves for player, ascending by (src, dst)."""
    out = []
    for u, v in _edges(shape):
        a, b = occupancy[u], occupancy[v]
        if a and b and a != b and player in (a, b):
            out.append(Move(u, v) if a == player else Move(v, u))
    return sorted(out)


def apply_move(occupancy: bytes, move: Move) -> bytes:
    """The occupancy after the move; validates the tokens it touches."""
    src, dst = move
    mover = occupancy[src]
    target = occupancy[dst]
    if mover == 0:
        raise BoardError(f"no token to move at vertex {src}")
    if target == 0:
        raise BoardError(f"cannot move onto empty vertex {dst}")
    if target == mover:
        raise BoardError(f"cannot clobber own token at vertex {dst}")
    out = bytearray(occupancy)
    out[src] = 0
    out[dst] = mover
    return bytes(out)


def movers_mask(shape: tuple[int, int], occupancy: bytes) -> int:
    """Bitmask of players with at least one legal move.

    Adjacent tokens of different players can always clobber each other,
    so one scan over the edges finds every player that can move.
    """
    mask = 0
    for u, v in _edges(shape):
        a, b = occupancy[u], occupancy[v]
        if a and b and a != b:
            mask |= (1 << a) | (1 << b)
    return mask


# ---------------------------------------------------------------------------
# grid bitboards: one int per player, cell (r, c) at bit r * (cols + 1) + c.
# Column cols is an empty guard, so shifts by 1 and by the stride cols + 1
# reach the four neighbours with no wraparound.  The solver walks on them.


def grid_masks(shape: tuple[int, int], occupancy: bytes, players: int) -> tuple[int, ...]:
    """The live bitboards of a line or grid occupancy: entry p - 1 holds
    player p's tokens that have an occupied neighbour.  The others can
    never move or be clobbered, since empty cells stay empty."""
    cols = shape[1]
    masks = [0] * players
    for v, p in enumerate(occupancy):
        if p:
            masks[p - 1] |= 1 << (v + v // cols)
    live = adjacent(sum(masks), cols + 1)  # the masks are disjoint
    return tuple(m & live for m in masks)


def adjacent(mask: int, stride: int) -> int:
    """The cells next to some cell of mask, guard cells included."""
    return (mask << 1) | (mask >> 1) | (mask << stride) | (mask >> stride)


# ---------------------------------------------------------------------------
# live runs of a line board: the stretches between empty cells that hold
# two or more colours.  The solver keys line positions on them.


def line_runs(occupancy: bytes) -> tuple[bytes, ...]:
    """The live runs of a line occupancy: mirror-canonical, sorted."""
    # A run of one colour (or none) strips to nothing.
    pieces = occupancy.split(b"\0")
    return tuple(sorted(max(r, r[::-1]) for r in pieces if r.strip(r[:1])))


def run_moves(run: bytes, player: int) -> tuple[tuple[bytes, ...], ...]:
    """The distinct live-run tuples that replace one live run after each
    of player's moves in it; empty when player cannot move there.  A run
    shorter than two cells, of one colour or holding a blank is no live
    run, and raises ValueError.

    Moving from cell i onto i+1, or from i+1 onto i, empties one cell
    and so splits the run there.  Each piece is canonicalized as in
    line_runs.

    A piece of one colour (or none) is dead.  With run[:lo] the first
    colour's stretch and run[hi + 1:] the last one's, found once, whether
    a piece is dead is an index test, plus, for the piece that holds the
    moved token, whether that token matches the stretch it joins.
    """
    if len(run) < 2 or 0 in run or not run.strip(run[:1]):
        raise ValueError(f"not a live run: {run!r}")
    first, last = run[0], len(run) - 1
    end = run[last]
    lo = 1
    while run[lo] == first:
        lo += 1
    hi = last - 1
    while run[hi] == end:
        hi -= 1
    found: set[tuple[bytes, ...]] = set()
    for i in range(last):
        a, b = run[i], run[i + 1]
        if a == b:
            continue
        if a == player:  # a clobbers rightwards: run[:i] | a run[i + 2:]
            left = run[:i] if i > lo else None
            live = i + 1 < hi or i + 1 < last and a != end
            right = bytes((a,)) + run[i + 2 :] if live else None
        elif b == player:  # b clobbers leftwards: run[:i] b | run[i + 2:]
            left = run[:i] + bytes((b,)) if i > lo or i and b != first else None
            right = run[i + 2 :] if i + 1 < hi else None
        else:
            continue
        if left is None:
            found.add(() if right is None else (max(right, right[::-1]),))
        elif right is None:
            found.add((max(left, left[::-1]),))
        else:
            left, right = max(left, left[::-1]), max(right, right[::-1])
            found.add((left, right) if left <= right else (right, left))
    return tuple(sorted(found))

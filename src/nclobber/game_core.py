"""Boards and moves for N-player Clobber on an undirected graph.

A board is a graph plus an occupancy: one byte per vertex, 0 for empty
and 1..N for a token of that player.  A move picks up the mover's token
and clobbers an adjacent token of a different player; the source vertex
becomes empty.  Tokens never move onto empty vertices, so every move
removes exactly one token and empty vertices stay empty forever.

Turn order rotates 1, 2, ..., N, 1, ...  A player with no legal move is
skipped, and since the mover's options only ever shrink, a skipped
player never moves again.  The last player to make a move wins.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional, Union

from .values import quote


class BoardError(ValueError):
    """Raised for malformed board text or illegal moves."""


class BoardGraph:
    """An undirected graph with sorted adjacency lists.

    shape is (rows, cols) for the boards line_graph and grid_graph
    build, vertices row-major (a line is one row), and None for a graph
    built by hand.  Graphs compare and hash by identity, so keying a
    memo on one costs no walk over its edges; line_graph and grid_graph
    return one object per shape.
    """

    __slots__ = ("vertex_count", "edges", "neighbors", "shape")

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    neighbors: tuple[tuple[int, ...], ...]
    shape: Optional[tuple[int, int]]

    def __init__(self, vertex_count, edges, neighbors, shape=None):
        self.vertex_count, self.edges, self.neighbors = vertex_count, edges, neighbors
        self.shape = shape


class Move(NamedTuple):
    src: int
    dst: int


class Position(NamedTuple):
    """A board state with the player whose turn it nominally is."""

    graph: BoardGraph
    occupancy: bytes
    mover: int = 1


def _build_grid(rows: int, cols: int) -> BoardGraph:
    n = rows * cols
    right = [(v, v + 1) for v in range(n) if (v + 1) % cols]
    edges = sorted(right + [(v, v + cols) for v in range(n - cols)])
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return BoardGraph(n, tuple(edges), tuple(tuple(sorted(a)) for a in adj), (rows, cols))


@lru_cache(maxsize=None)
def line_graph(n: int) -> BoardGraph:
    """A path of n vertices, the 1xn board."""
    if n < 1:
        raise BoardError("a line board needs at least one vertex")
    return _build_grid(1, n)


@lru_cache(maxsize=None)
def grid_graph(rows: int, cols: int) -> BoardGraph:
    """A rows x cols grid, vertices row-major, orthogonally adjacent."""
    if rows < 1 or cols < 1:
        raise BoardError("a grid board needs positive dimensions")
    return _build_grid(rows, cols)


Shape = Union[str, tuple[int, int]]

# ASCII digit -> cell byte.
_DIGITS = bytes.maketrans(b"0123456789", bytes(range(10)))


def parse_board(text: str, shape: Shape = "line", players: int = 3) -> tuple[BoardGraph, bytes]:
    """Turn a digit string into (graph, occupancy).

    shape is "line" or a (rows, cols) pair read row-major.  Digits must
    be 0..players.  Boards with no legal move parse fine; rejecting them
    is the evaluator's job.
    """
    if not 1 <= players <= 9:
        raise BoardError(f"player count must be 1..9, got {players}")
    if not text or not (text.isascii() and text.isdigit()):
        raise BoardError(f"board must be a nonempty digit string, got {quote(text)}")
    cells = text.encode().translate(_DIGITS)
    if max(cells) > players:
        bad = next(ch for ch in text if int(ch) > players)
        raise BoardError(f"digit {bad} exceeds player count {players}")
    if shape == "line":
        return line_graph(len(cells)), cells
    rows, cols = shape
    # Check the digit count first: the graph of an oversized grid alone
    # would not fit in memory.
    if rows * cols != len(cells):
        raise BoardError(f"grid {rows}x{cols} needs {rows * cols} digits, got {len(cells)}")
    return grid_graph(rows, cols), cells


def legal_moves(graph: BoardGraph, occupancy: bytes, player: int) -> list[Move]:
    """All clobbering moves for player, ascending by (src, dst)."""
    out = []
    neighbors = graph.neighbors
    for src in range(graph.vertex_count):
        if occupancy[src] != player:
            continue
        for dst in neighbors[src]:
            got = occupancy[dst]
            if got != 0 and got != player:
                out.append(Move(src, dst))
    return out


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


def movers_mask(graph: BoardGraph, occupancy: bytes) -> int:
    """Bitmask of players with at least one legal move.

    Adjacent tokens of different players can always clobber each other,
    so one scan over the edges finds every player that can move.
    """
    mask = 0
    for u, v in graph.edges:
        a = occupancy[u]
        if a:
            b = occupancy[v]
            if b and b != a:
                mask |= (1 << a) | (1 << b)
    return mask


# ---------------------------------------------------------------------------
# grid bitboards: one int per player, cell (r, c) at bit r * (cols + 1) + c.
# Column cols is an empty guard, so shifts by 1 and by the stride cols + 1
# reach the four neighbours with no wraparound.  The solver walks on them.


def grid_masks(graph: BoardGraph, occupancy: bytes, players: int) -> tuple[int, ...]:
    """The live bitboards of a line or grid occupancy: entry p - 1 holds
    player p's tokens that have an occupied neighbour.  The others can
    never move or be clobbered, since empty cells stay empty."""
    cols = graph.shape[1]
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
    of player's moves in it; empty when player cannot move there.

    Moving from cell i onto i+1, or from i+1 onto i, empties one cell
    and so splits the run there.  Each piece is canonicalized as in
    line_runs.
    """
    found: set[tuple[bytes, ...]] = set()
    for i in range(len(run) - 1):
        a, b = run[i], run[i + 1]
        if a == player != b:
            left, right = run[:i], bytes((a,)) + run[i + 2 :]
        elif b == player != a:
            left, right = run[:i] + bytes((b,)), run[i + 2 :]
        else:
            continue
        # A piece of one colour (or none) strips to nothing.
        if left.strip(left[:1]):
            left = max(left, left[::-1])
            if right.strip(right[:1]):
                right = max(right, right[::-1])
                found.add((left, right) if left <= right else (right, left))
            else:
                found.add((left,))
        elif right.strip(right[:1]):
            found.add((max(right, right[::-1]),))
        else:
            found.add(())
    return tuple(sorted(found))

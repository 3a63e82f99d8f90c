"""Memoized evaluation of positions into game values.

Evaluation walks the game tree bottom-up once, into the raw value.  The
tree has a node for every (occupancy, player to move) pair: a player
with no move passes, so their node is the singleton choice over the
same occupancy with the next player to move.  Such a wrapper is
invisible when the value below is a bare winner (singleton-of-leaf
identification) but real otherwise.  A position where nobody can move
is won by the player who made the last move, the one before the
mover: only a move ends a game, never a pass.  The node value is the
canonical choice over the child values.

Every other mode is a memoized fold over the raw value, whose levels
rotate the mover one player down:

  syntactic   rewrite with the session's normalization profile
  selfish     at every level, drop options the mover ranks strictly
              below another, then rewrite (preferences.prune_fold)
  indifferent the same fold under loss-blind comparison, with
              indistinguishable options merged; the root is reported as
              the mover-relative class it lands in
  prudent     collapse to the simple value prudent play reaches
              (preferences.prudent_simplify; three players only)

The indifferent fold always lands on a leaf, so its class is win or
other_0 and nothing deeper in the ladder.  By induction: the options
fold to leaves.  If the mover's own leaf is among them, it alone is in
the top class, and prune keeps it.  Otherwise every option is a loss,
every loss collapses to one leaf in the loss-blind view, and prune
merges them to the text-least.  A choice over one leaf is that leaf,
and rewriting leaves a leaf alone.

fold_raw is the one place a raw value becomes a mode's result; evaluate,
the census and the profile calibration all call it.  The census reaches
the traversal through evaluate_runs, with a line position's live-run
key and no board.  Results are wrapped in one of three variants: Raw
carries a value tree, Simple a simple value, Class a loss-blind class.
A cache holds the raw values of resolved positions and the memos of
every fold (selfish, indifferent, prudent); it serves every board
graph, mode and profile for one player count, and its memos are freed
with it.

Positions are memoized under one of two keys:

  line boards  (mover, live runs): the sorted tuple of the position's
               runs between empty cells that hold two or more colours,
               each read the larger way round (game_core.line_runs).
               The key is exact: empty cells stay empty, so runs never
               interact; reversing a run is a graph automorphism; and a
               run of one colour can never move again.  Every run is a
               shorter line, so one memo serves every board length.
  grid boards  (graph, live bitboards, mover): one int per player over
               the grid's cells (game_core.grid_masks), with every token
               that has no occupied neighbour cleared.  The key is exact:
               a move needs two adjacent tokens, and empty cells stay
               empty, so an isolated token can never move or be
               clobbered; the game plays as if its cell were empty.  A
               move is three bit flips on the masks.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .game_core import (
    BoardGraph,
    Position,
    Shape,
    adjacent,
    grid_masks,
    line_runs,
    parse_board,
    run_moves,
)
from .preferences import prudent_simplify, prune_fold
from .values import (
    DEFAULT_PROFILE,
    GameValue,
    NormalizationProfile,
    SimpleValue,
    choice,
    expand_simple,
    leaf,
    normalize,
    quote,
    render_value,
)

MODES = ("raw", "syntactic", "selfish", "indifferent", "prudent")


class NoMoveError(ValueError):
    """No player can move from the given root position.

    The message quotes the board's digits, row-major: "no initial move
    on board '11'".
    """


class Raw(NamedTuple):
    value: GameValue

    def __str__(self) -> str:
        return str(self.value)


class Simple(NamedTuple):
    value: SimpleValue

    def __str__(self) -> str:
        return str(self.value)


class Class(NamedTuple):
    """A loss-blind equality class, relative to the starting mover.

    mine=True is the guaranteed win.  Other classes are named by the
    exponent of an opposing simple value in them; the class (False, j)
    also contains the mover's own simple of exponent j+1.  Evaluation
    yields win and other_0 only: the indifferent fold is a leaf, won by
    the mover or not (module docstring).
    """

    mine: bool
    exponent: int

    def __str__(self) -> str:
        return "win" if self.mine else f"other_{self.exponent}"


EvalResult = Union[Raw, Simple, Class]


# Fold memos, one per (mode, profile), each mapping (value, mover) to
# that fold's result.
Folds = dict[tuple[str, NormalizationProfile], dict]


class EvalCache:
    """Raw values of resolved positions, and the fold memos over them,
    for one player count.

    entries keys a line position on (mover, live runs) and a grid
    position on (graph, live bitboards, mover); see the module docstring
    for why both keys are exact.  runs holds, per live run and player, the
    runs that player's moves there leave (game_core.run_moves), each
    computed once.  Every board graph, mode and profile may share a
    cache; reusing it with another player count is an error.
    """

    __slots__ = ("players", "entries", "runs", "folds")

    def __init__(self, players: int = 3) -> None:
        self.players = players
        self.entries: dict[tuple, GameValue] = {}
        self.runs: dict[tuple[bytes, int], tuple[tuple[bytes, ...], ...]] = {}
        self.folds: Folds = {}


def evaluate(
    position: Position,
    mode: str = "raw",
    profile: NormalizationProfile = DEFAULT_PROFILE,
    cache: Optional[EvalCache] = None,
    players: int = 3,
) -> EvalResult:
    """Value of a position for the mover given in it (skips resolve first)."""
    graph, occupancy, mover = position
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if not 1 <= mover <= players:
        raise ValueError(f"mover {mover} out of range for {players} players")
    if mode == "prudent" and players != 3:
        raise ValueError("prudent evaluation is defined for exactly three players")
    top = max(occupancy)
    if top > players:
        raise ValueError(f"token {top} exceeds player count {players}")
    if cache is None:
        cache = EvalCache(players)
    elif cache.players != players:
        raise ValueError("cache was built for a different player count")
    # A line walks on its live runs, a grid on its live bitboards.  Nobody
    # can move on a line with no live run, nor on a grid where no token
    # touches another colour (a live token may touch only its own).
    rows, cols = graph.shape
    if rows == 1:
        key = line_runs(occupancy)
    else:
        key = grid_masks(graph, occupancy, players)
        occ = sum(key)  # the masks are disjoint
        if not any(m & adjacent(occ ^ m, cols + 1) for m in key):
            key = ()
    if not key:
        digits = "".join(map(str, occupancy))
        raise NoMoveError(f"no initial move on board {quote(digits)}")
    try:
        if rows == 1:
            raw = evaluate_runs(key, mover, cache)
        else:
            raw = _eval_grid(graph, key, mover, cache)
        return fold_raw(raw, mover, mode, profile, players, cache.folds)
    except RecursionError:  # the walk and the folds recurse once per move
        size = graph.vertex_count
        raise ValueError(f"the game tree of a {size}-cell board is too deep to evaluate") from None


def fold_raw(
    raw: GameValue,
    mover: int,
    mode: str,
    profile: NormalizationProfile,
    players: int,
    folds: Folds,
) -> EvalResult:
    """The result of one mode for a raw value whose top choice is mover's.

    folds holds the fold memos; pass the same dict for many values to
    share work between them.
    """
    if mode == "raw":
        return Raw(raw)
    if mode == "syntactic":
        return Raw(normalize(raw, profile, players))
    memo = folds.setdefault((mode, profile), {})
    if mode == "prudent":
        return Simple(prudent_simplify(raw, mover, memo))
    value = prune_fold(raw, mover, mode, profile, players, memo)
    if mode == "selfish":
        return Raw(value)
    # The indifferent fold is a leaf (module docstring).
    return Class(value.winner == mover, 0)


def render_result(result: EvalResult, style: Optional[str] = None) -> str:
    """Render a result as text; style "brackets" or "bar" picks the form.

    Without a style, simple values print as bar atoms and trees in
    brackets.  Bar style is injective, so censuses key on it.
    """
    if isinstance(result, Class):
        return str(result)
    if isinstance(result, Simple):
        if style == "brackets":
            return expand_simple(result.value).text
        return str(result.value)
    return render_value(result.value, style or "brackets")


def evaluate_runs(parts: tuple[bytes, ...], mover: int, cache: EvalCache) -> GameValue:
    """Raw value of the line position whose live-run key is parts
    (game_core.line_runs), mover to move: the census's entry point,
    which needs no board.  An empty key is the finished game.
    """
    key = (mover, parts)
    got = cache.entries.get(key)
    if got is not None:
        return got
    players = cache.players
    if not parts:
        # Nobody can move: the player before the mover moved last.
        return leaf((mover - 2) % players + 1)
    after = mover % players + 1
    runs = cache.runs
    children = set()
    for j, run in enumerate(parts):
        if j and run == parts[j - 1]:
            continue  # the same run again: the same children
        moves = runs.get((run, mover))
        if moves is None:
            moves = runs[run, mover] = run_moves(run, mover)
        rest = parts[:j] + parts[j + 1 :]
        for replacement in moves:
            children.add(tuple(sorted(rest + replacement)) if rest else replacement)
    if not children:
        # The mover passes: a forced continuation, one list level.
        children.add(parts)
    entries = cache.entries
    options = set()
    for child in children:
        got = entries.get((after, child))
        options.add(got if got is not None else evaluate_runs(child, after, cache))
    value = choice(options)
    entries[key] = value
    return value


def _eval_grid(graph: BoardGraph, masks: tuple, mover: int, cache: EvalCache) -> GameValue:
    """Raw value of the grid position masks (game_core.grid_masks), mover
    to move; game_core.adjacent is inlined where it runs per move."""
    key = (graph, masks, mover)
    entries = cache.entries
    got = entries.get(key)
    if got is not None:
        return got
    players = cache.players
    stride = graph.shape[1] + 1
    i = mover - 1
    mine = masks[i]
    occ = sum(masks)  # the masks are disjoint
    others = occ ^ mine
    after = mover % players + 1
    options = set()
    sources = mine & ((others << 1) | (others >> 1) | (others << stride) | (others >> stride))
    if not sources:
        if not any(m & adjacent(occ ^ m, stride) for m in masks):
            # The game is over: the player before the mover moved last.
            return leaf((mover - 2) % players + 1)
        # The mover passes: a forced continuation, one list level.
        options.add(_eval_grid(graph, masks, after, cache))
    # Each move empties src, recolours dst and drops the tokens it isolates.
    while sources:
        src = sources & -sources
        sources ^= src
        left = occ ^ src
        live = (left << 1) | (left >> 1) | (left << stride) | (left >> stride)
        targets = others & ((src << 1) | (src >> 1) | (src << stride) | (src >> stride))
        while targets:
            dst = targets & -targets
            targets ^= dst
            keep = live & ~dst
            child = [m & keep for m in masks]
            child[i] = (mine ^ src | dst) & live
            child = tuple(child)
            got = entries.get((graph, child, after))
            options.add(got if got is not None else _eval_grid(graph, child, after, cache))
    value = choice(options)
    entries[key] = value
    return value


def evaluate_all_starts(
    board: str,
    mode: str = "raw",
    profile: NormalizationProfile = DEFAULT_PROFILE,
    players: int = 3,
    shape: Shape = "line",
) -> dict[int, EvalResult]:
    """Evaluate the same board once per starting player 1..players."""
    graph, occupancy = parse_board(board, shape=shape, players=players)
    results: dict[int, EvalResult] = {}
    # Memo keys carry the resolved mover, so one cache serves all starts.
    cache = EvalCache(players)
    for start in range(1, players + 1):
        results[start] = evaluate(
            Position(graph, occupancy, start), mode, profile, cache, players
        )
    return results


def evaluate_text(
    board: str,
    start: int = 1,
    mode: str = "raw",
    profile: NormalizationProfile = DEFAULT_PROFILE,
    players: int = 3,
    shape: Shape = "line",
    cache: Optional[EvalCache] = None,
) -> EvalResult:
    """Parse a board string and evaluate it: the one path from board text
    to a result."""
    graph, occupancy = parse_board(board, shape=shape, players=players)
    return evaluate(Position(graph, occupancy, start), mode, profile, cache, players)

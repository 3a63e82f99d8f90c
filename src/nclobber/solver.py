"""Memoized evaluation of positions into game values.

Evaluation walks the game tree bottom-up once.  The tree has a node for
every (occupancy, player to move) pair: a player with no move passes,
so their node is the singleton choice over the same occupancy with the
next player to move.  Such a wrapper is invisible when the value below
is a bare winner (singleton-of-leaf identification) but real otherwise.
A position where nobody can move is won by the player who made the last
move, the one before the mover: only a move ends a game, never a pass.

Every regime is a fold (preferences.Fold): a leaf map from a finished
game's winner w to a result, a step from the mover and its options'
results to the node's result, and whether the mover's own win,
leaf(mover), among the options decides the step (the cutoff).  The
raw record is _WALKS["raw"]; the others live in preferences:

  raw           leaf(w), and the canonical choice over the options
  PRUDENT       the simple w_0, and preferences.prudent_step, the rank
                loop of prudent play (three players only); cutoff
  INDIFFERENT   the winner w: the mover if some option's result is the
                mover, and otherwise the least option winner; cutoff
  pruning_fold  leaf(w); prune drops the options the mover ranks
                strictly below another, and the choice over the
                survivors is rewritten with the session's profile
                (selfish play; indifferent play for the tests)

The position walk runs raw, PRUDENT and INDIFFERENT.  It is one
function over two board kinds, lines and grids; a kind gives it the
child states of the mover's moves, and whether nobody can move.  The
walk holds the memo probe, the cutoff, the forced pass and the leaf of
a finished game once.  fold_raw runs PRUDENT
(preferences.prudent_simplify) and the selfish pruning_fold over the
raw value, through preferences.fold_value, whose levels rotate the
mover one player down; the syntactic result is the raw value rewritten
with the profile.

The indifferent step is the leaf lemma: folding a raw value the way
indifferent players play it (pruning_fold) always lands on a leaf, so
the result is a winner and the class is win or other_0.  By induction:
the options fold to leaves.  If the mover's own leaf is among them, it
alone is in the top class, and prune keeps it.  Otherwise every option
is a loss, every loss collapses to one leaf in the loss-blind view, and
prune merges them to the text-least, the least winner.  A choice over
one leaf is that leaf, and rewriting leaves a leaf alone.

Why the walk agrees with folding the raw value.  Take a record whose
step reads only the set of its options' results and maps a lone leaf
option to that leaf's result, as raw, PRUDENT and INDIFFERENT do.  A
position's raw value is choice over its children's raw values, and by
induction each child's walk result is the fold of its raw value.
Choice drops duplicates, which the step does not see.  Choice
identifies a singleton leaf with that leaf, which the step maps alike.
A forced pass is one option, as it is in choice.  So the walk applies
the same step to a DAG of which the raw DAG is a quotient, and gets the
same result as fold_value over the raw value.

The cutoff.  The walk returns as soon as an option's result is
leaf(mover), the mover's own win, and visits no more options: the
boolean form of alpha-beta's cutoff (Knuth and Moore, 1975).  This is
sound when the step returns leaf(mover) whatever the other options are.
Indifferent: that is the lemma's first clause.  Prudent: (mover, 0) has
rank e = 0, and rank 0 is the unique top of the chain, so no later
option can rank above it; and no option ties it with another base,
because rank 0 means the base is the mover.  Raw has no cutoff: its
value needs every option.  fold_value applies the step to every option.

fold_raw turns a raw value into a raw, syntactic, selfish or prudent
result; evaluate, the census and the profile calibration all call it.
The census reaches the walk through evaluate_runs, with a line
position's live-run key and no board.  Results are wrapped in one of
three variants: Raw carries a value tree, Simple a simple value, Class
a loss-blind class.  A cache holds every walk's memo and the memos of
fold_raw; it serves every board shape, mode and profile for one player
count, and its memos are freed with it.

Positions are memoized under (walk, mover, state), led by the walk's
name so that one cache serves every walk.  The state depends on the
board's kind:

  line boards  the live runs: the sorted tuple of the position's runs
               between empty cells that hold two or more colours, each
               read the larger way round (game_core.line_runs).
               The key is exact: empty cells stay empty, so runs never
               interact; reversing a run is a graph automorphism; and a
               run of one colour can never move again.  Every run is a
               shorter line, so one memo serves every board length.
               Nobody can move when the tuple is empty.  A run's moves
               (game_core.run_moves) are kept in the cache's run table
               only when the run shares a position with another run:
               a position of one run is expanded at most once per walk
               and mover, so its entry would be read at most once per
               walk, while a run beside others recurs in many keys.
               Two runs and the blank between them take at least
               len(run) + 3 cells, so on n cells no run longer than
               n - 3 is kept.  The table holds only moves, never
               results, so what it keeps changes no result.
  grid boards  (stride, live bitboards): the stride cols + 1, then
               one int per player over the grid's cells
               (game_core.grid_masks), with every token that has no
               occupied neighbour cleared.  The key is exact: a move
               needs two adjacent tokens, and empty cells stay empty, so
               an isolated token can never move or be clobbered; the
               game plays as if its cell were empty.  The row count
               plays no part, since no token lies past the last row, so
               grids with the same column count and live tokens share
               their entries.  Nobody can move when no token touches
               another colour.  A move is three bit flips on the masks.

Every key holds only strings, ints and bytes.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Union

from .game_core import (
    Position,
    Shape,
    adjacent,
    grid_masks,
    line_runs,
    parse_board,
    run_moves,
)
from .preferences import INDIFFERENT, PRUDENT, fold_value, prudent_simplify, pruning_fold
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
    """A loss-blind class, relative to the starting mover: the
    indifferent result is a winner (module docstring), so the mover
    wins (win) or does not (other_0)."""

    mine: bool

    def __str__(self) -> str:
        return "win" if self.mine else "other_0"


EvalResult = Union[Raw, Simple, Class]
# A walk's result: a raw value, a prudent simple or an indifferent winner.
WalkResult = Union[GameValue, SimpleValue, int]


# The folds of the position walk (module docstring), by name, as plain
# (leaf, step, cutoff) tuples, which the walk unpacks per memo miss
# faster than a Fold.
_WALKS: dict[str, tuple] = {
    "raw": (leaf, lambda options, mover: choice(options), False),
    "prudent": tuple(PRUDENT),
    "indifferent": tuple(INDIFFERENT),
}


class _Kind(NamedTuple):
    """A board kind, as the position walk sees it: moves gives the child
    states of the mover's moves, and over says whether nobody can move."""

    moves: Callable[[tuple, int, "EvalCache"], Iterable[tuple]]
    over: Callable[[tuple], bool]


# fold_raw's memos, one per (mode, profile), each mapping (value, mover)
# to that fold's result.
FoldMemos = dict[tuple[str, NormalizationProfile], dict]


class EvalCache:
    """Every walk's results for resolved positions, and the memos of
    fold_raw, for one player count.

    entries keys a position on (walk, mover, state), where a line's
    state is its live runs and a grid's is (stride, live bitboards);
    see the module docstring for why both keys are exact.  runs holds,
    per live run and player, the runs that player's moves there leave
    (game_core.run_moves), for the runs that share a position with
    another run; a lone run's moves are computed where its position is
    expanded, at most once per walk and mover, and not kept.
    Every board shape, mode and profile may share a cache; reusing it
    with another player count is an error.
    """

    __slots__ = ("players", "entries", "runs", "folds")

    def __init__(self, players: int = 3) -> None:
        self.players = players
        self.entries: dict[tuple, WalkResult] = {}
        self.runs: dict[tuple[bytes, int], tuple[tuple[bytes, ...], ...]] = {}
        self.folds: FoldMemos = {}


def evaluate(
    position: Position,
    mode: str = "raw",
    profile: NormalizationProfile = DEFAULT_PROFILE,
    cache: Optional[EvalCache] = None,
    players: int = 3,
) -> EvalResult:
    """Value of a position for the mover given in it (skips resolve first)."""
    (rows, cols), occupancy, mover = position
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if not 1 <= mover <= players:
        raise ValueError(f"mover {mover} out of range for {players} players")
    if mode == "prudent" and players != 3:
        raise ValueError("prudent evaluation is defined for exactly three players")
    if rows < 1 or cols < 1 or len(occupancy) != rows * cols:
        raise ValueError(f"{len(occupancy)} cells do not fill a {rows}x{cols} board")
    top = max(occupancy)
    if top > players:
        raise ValueError(f"token {top} exceeds player count {players}")
    if cache is None:
        cache = EvalCache(players)
    elif cache.players != players:
        raise ValueError("cache was built for a different player count")
    if rows == 1:
        state, kind = line_runs(occupancy), _LINE
    else:
        state, kind = (cols + 1, *grid_masks((rows, cols), occupancy, players)), _GRID
    if kind.over(state):
        digits = "".join(map(str, occupancy))
        raise NoMoveError(f"no initial move on board {quote(digits)}")
    walk = mode if mode in _WALKS else "raw"
    try:
        got = cache.entries.get((walk, mover, state)) or _walk(state, mover, cache, walk, kind)
        if walk == "raw":
            return fold_raw(got, mover, mode, profile, players, cache.folds)
        return Simple(got) if walk == "prudent" else Class(got == mover)
    except RecursionError:  # the walk and the folds recurse once per move
        size = rows * cols
        raise ValueError(f"the game tree of a {size}-cell board is too deep to evaluate") from None


def fold_raw(
    raw: GameValue,
    mover: int,
    mode: str,
    profile: NormalizationProfile,
    players: int,
    folds: FoldMemos,
) -> EvalResult:
    """The raw, syntactic, selfish or prudent result for a raw value
    whose top choice is mover's; indifferent results come from the walk.

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
    if mode == "selfish":
        return Raw(fold_value(raw, mover, pruning_fold(mode, profile, players), players, memo))
    raise ValueError(f"no fold of the raw value for mode {mode!r}")


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


def evaluate_runs(
    parts: tuple[bytes, ...], mover: int, cache: EvalCache, walk: str = "raw"
) -> WalkResult:
    """Result under one walk ("raw", "prudent" or "indifferent") of the
    line position whose live-run key is parts (game_core.line_runs),
    mover to move: the census's entry point, which needs no board.  An
    empty key is the finished game.
    """
    return cache.entries.get((walk, mover, parts)) or _walk(parts, mover, cache, walk, _LINE)


def _walk(state: tuple, mover: int, cache: EvalCache, walk: str, kind: _Kind) -> WalkResult:
    """Result under one walk of the position state, mover to move, on a
    board kind (_LINE, _GRID); callers probe the memo first.
    """
    entries = cache.entries
    leaf_of, step, cutoff = _WALKS[walk]
    players = cache.players
    after = mover % players + 1
    win = leaf_of(mover) if cutoff else None
    results = set()
    for child in kind.moves(state, mover, cache):
        # Every result is truthy: a value, a simple or a player id.
        got = entries.get((walk, after, child)) or _walk(child, after, cache, walk, kind)
        if cutoff and got == win:  # the cutoff (module docstring)
            entries[walk, mover, state] = got
            return got
        results.add(got)
    if not results:
        if kind.over(state):
            # Nobody can move: the player before the mover moved last.
            return leaf_of((mover - 2) % players + 1)
        # The mover passes: a forced continuation, one list level.
        results.add(entries.get((walk, after, state)) or _walk(state, after, cache, walk, kind))
    got = entries[walk, mover, state] = step(results, mover)
    return got


def _line_moves(parts: tuple[bytes, ...], mover: int, cache: EvalCache) -> Iterable[tuple]:
    """The live-run keys the mover's moves leave on a line; cache.runs
    stores a run's moves only when the run shares the position."""
    runs = cache.runs
    if len(parts) == 1:  # each child key is one of the run's moves
        (run,) = parts
        moves = runs.get((run, mover))
        return run_moves(run, mover) if moves is None else moves
    children = []
    for j, run in enumerate(parts):
        if j and run == parts[j - 1]:
            continue  # the same run again: the same children
        moves = runs.get((run, mover))
        if moves is None:
            moves = runs[run, mover] = run_moves(run, mover)
        rest = parts[:j] + parts[j + 1 :]
        for replacement in moves:
            children.append(tuple(sorted(rest + replacement)))
    return children


def _grid_moves(state: tuple, mover: int, cache: EvalCache) -> Iterator[tuple]:
    """The grid states the mover's moves leave, one at a time: a child
    costs more to build here, and the cutoff may need only the first.
    game_core.adjacent is inlined where it runs per move.
    """
    stride = state[0]
    mine = state[mover]
    occ = sum(state) - stride  # the masks are disjoint
    others = occ ^ mine
    sources = mine & ((others << 1) | (others >> 1) | (others << stride) | (others >> stride))
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
            child = [m & keep for m in state]
            child[0] = stride
            child[mover] = (mine ^ src | dst) & live
            yield tuple(child)


def _grid_over(state: tuple) -> bool:
    """Whether nobody can move: no token touches another colour (a live
    token may touch only its own)."""
    stride = state[0]
    occ = sum(state) - stride  # the masks are disjoint
    return not any(m & adjacent(occ ^ m, stride) for m in state[1:])


# On a line, nobody can move when the key is empty.
_LINE = _Kind(_line_moves, operator.not_)
_GRID = _Kind(_grid_moves, _grid_over)


def evaluate_all_starts(
    board: str,
    mode: str = "raw",
    profile: NormalizationProfile = DEFAULT_PROFILE,
    players: int = 3,
    shape: Shape = "line",
) -> dict[int, EvalResult]:
    """Evaluate the same board once per starting player 1..players."""
    dims, occupancy = parse_board(board, shape=shape, players=players)
    results: dict[int, EvalResult] = {}
    # Memo keys carry the resolved mover, so one cache serves all starts.
    cache = EvalCache(players)
    for start in range(1, players + 1):
        results[start] = evaluate(
            Position(dims, occupancy, start), mode, profile, cache, players
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
    position = Position(*parse_board(board, shape=shape, players=players), start)
    return evaluate(position, mode, profile, cache, players)

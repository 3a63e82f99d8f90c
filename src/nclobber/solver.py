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
records live in preferences:

  RAW           leaf(w), and the canonical choice over the options
  PRUDENT       the simple w_0, and preferences.prudent_step, the rank
                loop of prudent play (three players only); cutoff
  INDIFFERENT   the winner w: the mover if some option's result is the
                mover, and otherwise the least option winner; cutoff
  pruning_fold  leaf(w); prune drops the options the mover ranks
                strictly below another, and the choice over the
                survivors is rewritten with the session's profile
                (selfish play; indifferent play for the tests)

One function, preferences.walk, runs every fold over three kinds of
game: lines and grids, whose states are positions, and value trees
(preferences.TREE), whose states are values.  A kind is one function of
the state, the mover, the player who moved last and the memo: it gives
the walk the states the mover's moves leave, none when the mover passes,
or the finished game's winner as an int.  The walk holds the memo probe,
the cutoff, the forced pass and the leaf of a finished game once; its
callers just call it.  evaluate walks positions under RAW, PRUDENT and
INDIFFERENT.  fold_raw walks the raw value as a tree under PRUDENT
(preferences.prudent_simplify) and the selfish pruning_fold, the turn
rotating one player per level down; the syntactic result is the raw
value rewritten with the profile.

The indifferent step is the leaf lemma: folding a raw value the way
indifferent players play it (pruning_fold) always lands on a leaf, so
the result is a winner and the class is win or other_0.  By induction:
the options fold to leaves.  If the mover's own leaf is among them, it
alone is in the top class, and prune keeps it.  Otherwise every option
is a loss, every loss collapses to one leaf in the loss-blind view, and
prune merges them to the least in text order, the least winner.  A
choice over one leaf is that leaf, and rewriting leaves a leaf alone.
So a mover who loses either way hands the win to the least label, and
indifferent results depend on the player labels: 12311 with player 3
to move has the raw value [1,[2,3]], where player 1 takes 2 and player
3 ends other_0, while its colour rotation 23122 with player 1 to move,
[2,[1,3]], has player 2 take 1, a win for player 1.

Why the walk agrees with folding the raw value.  Take a record whose
step reads only the set of its options' results and maps a lone leaf
option to that leaf's result, as RAW, PRUDENT and INDIFFERENT do.  A
position's raw value is choice over its children's raw values, and by
induction each child's walk result is the fold of its raw value.
Choice drops duplicates; the step sees them but reads only the set of
its options' results, so they change nothing.  Choice identifies a
singleton leaf with that leaf, which the step maps alike.  A forced pass
is one option, as it is in choice.  So the walk applies the same step to
a DAG of which the raw DAG is a quotient, and gets the same result as
walking the raw value as a tree.

The cutoff.  The walk returns as soon as an option's result is
leaf(mover), the mover's own win, and visits no more options: the
boolean form of alpha-beta's cutoff (Knuth and Moore, 1975).  This is
sound when the step returns leaf(mover) whatever the other options are.
Indifferent: that is the lemma's first clause.  Prudent: (mover, 0) has
rank e = 0, and rank 0 is the unique top of the chain, so no later
option can rank above it; and no option ties it with another base,
because rank 0 means the base is the mover.  The argument holds for
tree walks alike.  Raw has no cutoff: its value needs every option;
nor has pruning_fold.

fold_raw turns a raw value into a raw, syntactic, selfish or prudent
result; evaluate, the census and the profile calibration all call it.
The census reaches the raw walk through evaluate_runs, with a line
position's live-run key and no board.  Results are wrapped in one of
three variants: Raw carries a value tree, Simple a simple value, Class
a loss-blind class.  A cache holds the walks' memo, a dict of tables
over positions and values alike, the run table among them; it serves
every board shape, mode and profile for one player count, and its
tables are freed with it.  evaluate keeps one default cache for the
calls that pass none (below).

A walk memoizes in one table per (fold, mover), keyed on the state;
the fold record tags the table, so that one memo serves every fold.  A
tree's state is its value, and values are interned.  A position's state
depends on the board's kind:

  line boards  the live runs: the sorted tuple of the position's runs
               between empty cells that hold two or more colours, each
               read the larger way round (game_core.line_runs).
               The key is exact: empty cells stay empty, so runs never
               interact; reversing a run is a graph automorphism; and a
               run of one colour can never move again.  Every run is a
               shorter line, so one memo serves every board length.
               Nobody can move when the tuple is empty.  A run's moves
               (game_core.run_moves) are kept in the memo's table
               under run_moves only when the run shares a position with
               another run: a position of one run is expanded at most
               once per cache and mover, so its entry would be read at
               most once, while a run beside others recurs in many
               keys.  Two runs and the blank between them take at
               least len(run) + 3 cells, so on n cells no run longer
               than n - 3 is kept.  The table holds only moves, never
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

A position's state holds only ints and bytes.

The default cache.  evaluate, given no cache, uses one module-level
EvalCache and keeps it from call to call, so that a stream of solves
finds the end-game positions and runs that every line solve meets
already in the memo.  It is replaced when a call asks for another player
count, and dropped after any call, a failed one too, that leaves its
tables holding more than _DEFAULT_CACHE_ENTRIES entries together: a
long board fills it past the bound within its call and then frees it,
so between calls it holds at most that many, whatever boards a process
solves.  Reuse is exact, because every entry depends only on its key: a
walk result on the state, the mover, the fold and the player count (the
fold record carries its profile, and the steps of RAW, PRUDENT and
INDIFFERENT read no memo), a relation entry on its arguments, and run
moves on the run; raw values are interned for the life of the process,
so a value kept from an earlier call is the very object a fresh cache
would build.  That is also why one cache may serve every shape, mode
and profile.  A caller that passes a cache gets that cache alone, and
the census (evaluate_runs) walks through its own.
"""

from __future__ import annotations

from typing import Hashable, Iterable, NamedTuple, Optional, Union

from .game_core import (
    Position,
    Shape,
    adjacent,
    grid_masks,
    line_runs,
    parse_board,
    run_moves,
)
from .preferences import (
    INDIFFERENT,
    PRUDENT,
    RAW,
    TREE,
    prudent_simplify,
    pruning_fold,
    walk,
)
from .values import (
    DEFAULT_PROFILE,
    GameValue,
    NormalizationProfile,
    SimpleValue,
    expand_simple,
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


# The folds of the position walk (module docstring), by name.
_WALKS = {"raw": RAW, "prudent": PRUDENT, "indifferent": INDIFFERENT}


class EvalCache:
    """Every walk's results, over positions and over the value trees
    fold_raw folds, for one player count.

    entries is the walks' memo (preferences.walk), a dict of tables.
    Each walk keeps its results in the table under (fold, mover), keyed
    on the state: a line's live runs, a grid's (stride, live bitboards)
    or a tree's value; see the module docstring for why the position
    keys are exact.  The selfish and indifferent folds' prune keeps its
    relation tables there too, one per relation under the relation's
    function (preferences module docstring).  The line kind keeps the
    run-move table under game_core.run_moves: per live run and player,
    the runs that player's moves there leave, for the runs that share a
    position with another run.  All are freed with the cache.  Every
    board shape, mode and profile may share a cache; reusing it with
    another player count is an error, and so is a player count outside
    1..9.  evaluate keeps one, within a bound, for the calls that pass
    none (module docstring).
    """

    __slots__ = ("players", "entries")

    def __init__(self, players: int = 3) -> None:
        if type(players) is not int or not 1 <= players <= 9:
            raise ValueError(f"player count must be 1..9, got {players!r}")
        self.players = players
        self.entries: dict[Hashable, dict] = {}


# evaluate's cache for the calls that pass none, made on first use
# (module docstring).
_default_cache: Optional[EvalCache] = None
_DEFAULT_CACHE_ENTRIES = 10_000


def _check_mover(mover: int, players: int) -> None:
    # True and 1.0 equal 1 but are no player id, and a walk would answer
    # for them as for 1, or rotate the turn through floats.
    if type(mover) is not int or not 1 <= mover <= players:
        raise ValueError(f"mover {mover!r} out of range for {players} players")


def evaluate(
    position: Position,
    mode: str = "raw",
    profile: NormalizationProfile = DEFAULT_PROFILE,
    cache: Optional[EvalCache] = None,
    players: int = 3,
) -> EvalResult:
    """Value of a position for the mover given in it.

    Without a cache, evaluate uses its default cache, kept from call to
    call within a bound (module docstring).
    """
    global _default_cache
    (rows, cols), occupancy, mover = position
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    _check_mover(mover, players)
    if mode == "prudent" and players != 3:
        raise ValueError("prudent evaluation is defined for exactly three players")
    if rows < 1 or cols < 1 or len(occupancy) != rows * cols:
        raise ValueError(f"{len(occupancy)} cells do not fill a {rows}x{cols} board")
    top = max(occupancy)
    if top > players:
        raise ValueError(f"token {top} exceeds player count {players}")
    if cache is None:
        if _default_cache is None or _default_cache.players != players:
            _default_cache = EvalCache(players)
        cache = _default_cache
    elif cache.players != players:
        raise ValueError("cache was built for a different player count")
    if rows == 1:
        state, kind = line_runs(occupancy), _line
    else:
        state, kind = (cols + 1, *grid_masks((rows, cols), occupancy, players)), _grid
    try:
        if isinstance(kind(state, mover, mover, cache.entries), int):  # nobody can move
            digits = "".join(map(str, occupancy))
            raise NoMoveError(f"no initial move on board {quote(digits)}")
        fold = _WALKS.get(mode, _WALKS["raw"])
        got = walk(state, mover, fold, kind, cache.entries, players)
        if fold is PRUDENT:
            return Simple(got)
        if fold is INDIFFERENT:
            return Class(got == mover)
        return fold_raw(got, mover, mode, profile, cache)
    except RecursionError:  # the walks recurse once per move
        size = rows * cols
        raise ValueError(f"the game tree of a {size}-cell board is too deep to evaluate") from None
    finally:
        if cache is _default_cache:
            if sum(map(len, cache.entries.values())) > _DEFAULT_CACHE_ENTRIES:
                _default_cache = None


def fold_raw(
    raw: GameValue, mover: int, mode: str, profile: NormalizationProfile, cache: EvalCache
) -> EvalResult:
    """The raw, syntactic, selfish or prudent result for a raw value
    whose top choice is mover's; indifferent results come from the walk.

    The folds walk the value as a tree through cache.entries; pass the
    same cache for many values to share work between them.
    """
    players = cache.players
    _check_mover(mover, players)
    if mode == "raw":
        return Raw(raw)
    if mode == "syntactic":
        return Raw(normalize(raw, profile, players))
    if mode == "prudent":
        return Simple(prudent_simplify(raw, mover, cache.entries))
    if mode != "selfish":
        raise ValueError(f"no fold of the raw value for mode {mode!r}")
    fold = pruning_fold(mode, profile, players)
    return Raw(walk(raw, mover, fold, TREE, cache.entries, players))


def render_result(result: EvalResult, style: Optional[str] = None, players: int = 3) -> str:
    """Render a result of a game of `players` players as text; style
    "brackets" or "bar" picks the form.

    Without a style, simple values print as bar atoms and trees in
    brackets.  Bar style is injective, so censuses key on it; it prints
    brackets outside three-player games (values.render_value).  Any
    other style is refused, whatever the result.
    """
    if style not in (None, "brackets", "bar"):
        raise ValueError(f"unknown render style {style!r}")
    if isinstance(result, Class):
        return str(result)
    if isinstance(result, Simple):
        if style == "brackets":
            return expand_simple(result.value).text
        return str(result.value)
    return render_value(result.value, style or "brackets", players)


def evaluate_runs(parts: tuple[bytes, ...], mover: int, cache: EvalCache) -> GameValue:
    """Raw value of the line position whose live-run key is parts
    (game_core.line_runs), mover to move: the census's entry point, which
    needs no board.  An empty key is the finished game.
    """
    _check_mover(mover, cache.players)
    return walk(parts, mover, RAW, _line, cache.entries, cache.players)


def _line(parts: tuple[bytes, ...], mover: int, last: int, memo: dict) -> Union[Iterable, int]:
    """The kind of line positions (preferences.walk), keyed on their live
    runs: the live-run keys the mover's moves leave, or last, who won,
    when no run is live.  memo's run_moves table stores a run's moves
    only when the run shares the position.
    """
    if not parts:  # nobody can move, and the last mover won
        return last
    runs = memo.get(run_moves)  # preferences._table, inline: it runs per expansion
    if runs is None:
        runs = memo[run_moves] = {}
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


def _grid(state: tuple, mover: int, last: int, memo: dict) -> Union[list[tuple], int]:
    """The kind of grid positions (preferences.walk): the grid states the
    mover's moves leave, or last, who won, when nobody can move, which is
    when no token touches another colour (a live token may touch only its
    own).  game_core.adjacent is inlined where it runs per move.
    """
    stride = state[0]
    mine = state[mover]
    occ = sum(state) - stride  # the masks are disjoint
    others = occ ^ mine
    sources = mine & ((others << 1) | (others >> 1) | (others << stride) | (others >> stride))
    children = []
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
            children.append(tuple(child))
    if not children and not any(m & adjacent(occ ^ m, stride) for m in state[1:]):
        return last
    return children


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

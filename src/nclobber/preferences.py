"""Preference orders between game values, from one player's perspective.

A value is a guaranteed win for player p when p wins every leaf, a
guaranteed loss when p wins no leaf, and mixed otherwise; that class is
v.ranks[p] (values module), 0 for a loss, 1 mixed and 2 a win.  A selfish
player orders values by a recursive relation: X <= Y holds when the
values are identical, when X's class is below Y's in loss < mixed <
win, or structurally, when every option of X is <= Y, or every option
of X is <= every option of Y.  Leaves carry no options, so they only
relate through identity and the class rules.

The selfish <= is a partial order, which prune relies on.
(M) x <= y implies class(x) <= class(y), because the structural clauses
apply only to values of one class.  Transitivity, x <= y <= z implies
x <= z, goes by induction on the sum of the three heights.  Identity is
trivial and a class gap is settled by (M), so let all three share a
class and both steps hold structurally.  If every option a of x is <= y,
then a <= y <= z gives a <= z.  If every option of x is <= every option
of y, pick an option b of y: either every b is <= z, and a <= b <= z
gives a <= z, or every b is <= every option c of z, and a <= b <= c
gives a <= c.  Antisymmetry, x <= y and y <= x only when x is y: let
m(v) be 0 when v has no option of its own class, else 1 + the largest m
of such an option.  Distinct x <= y of one class have m(x) >= m(y), and
m(x) > m(y) when every option of x is <= y.  Either every option of x
is <= y, or m(y) > 0 and every option of x is <= an option b of y's
class with m(y) = 1 + m(b) (when m(y) = 0 there is nothing to show).
Then x has an option a of its class: a win or a loss has only such
options, and a mixed x has no winning option, each being <= a mixed
value, while one holds p.  So m(x) >= 1 + m(a), where a is y or m(a) >=
m(y) in the first case, and a is b or m(a) >= m(b) in the second.  A
leaf is <= only itself within its class.  So if distinct x and y were
each <= the other, neither side could hold by the option-against-whole
rule, every option of x would be <= and >= every option of y, all of
them would be one value c, and x = [c] = y, since values are interned.
So for distinct values x < y is x <= y alone, and a finite set of
options always keeps one that nothing is strictly above.

A prudent player refines this with a strict order that also discards an
option when every comparison between the two option sets is weaker-or-
incomparable with at least one strictly weaker witness.  The recursion
compares option against option, option against whole, and whole against
option.  Whether the first shape is needed is open; it stays until a
proof shows it may go.  The relation is not an order: for p = 2,
[1,[[1,[1,3]]]] and [3,[1,3],[[1,[1,3]]]] are each below the other, so
prudent_compare calls such a pair incomparable.

For simple values the prudent order has a closed form.  Writing p_j for
the mover's own base and q_j for another player's, the coordinates

    p_0 -> top,   p_j -> asc((j-1)/2) for odd j, desc(j/2) for even j,
    q_j -> asc(j/2) for even j, desc((j+1)/2) for odd j

sort into one chain: asc(0) < asc(1) < ... < desc(2) < desc(1) < top,
with values sharing a coordinate mutually incomparable.  Incomparable
simples merge to the mover's own member of their coordinate group.
prudent_simplify ranks an option by one integer, e = j for p_j and
e = j + 1 for q_j: odd e is asc((e-1)/2), even e is desc(e/2) and e = 0
the top, so options tie exactly when their e is equal, and a tie merges
to p_e.

A class gap settles all three relations: the value of the lower class
is below.  For the selfish and indifferent relations that is (M).  For
the prudent order it is a lemma, by induction on the
pair.  If class(x) < class(y), the strict selfish clause holds.  If
class(x) > class(y), it fails, and each clause that pairs options has
a pairing (a, b) with a above b by class, so that by induction a < b
fails and b < a holds: when y is a loss, so are its options, and x and
some option of x hold p; when y is mixed, x and its options are wins,
and some option of y lacks p.  Each relation settles a class gap and a
pair of leaves before it builds a memo key, and its loops probe the
memo before they recurse.  Rewriting keeps outcome sets, so prune drops
every option below the top class for the player uncompared.

No relation memo outlives its caller.  leq, compare, prudent_less and
prudent_compare memoize in dicts of their own, freed when they return.
prune memoizes in the memo it is given, which walk hands to
pruning_fold's step, so a census regime's or a solve's relation entries
are freed with its EvalCache.  That memo is a dict of tables: walk keeps
one per (fold, mover), keyed on the state, each relation one under its
function, and the line kind one of run moves under game_core.run_moves.
Without a memo prune starts afresh.

The prudent order is the OR of four clauses, each a pure function of
(x, y, p): option against whole, whole against option, option against
option, and the strict selfish clause, x <= y and not y <= x.  The
strict clause holds exactly when x = [y], the wrapper whose one option
is y, so the relation needs no selfish walk.  If x = [y], then x <= y
by the option-against-whole rule, and y <= x fails by antisymmetry,
since x is not y.  The converse is the option lemma: if the strict
clause holds and no option clause does, then x = [y].  A leaf is <=
only itself within its class, so x has options.  Pairing a value with
itself gives neither a < b nor b < a, and a pairing a <= b of distinct
values is, by antisymmetry, strict and so a prudent witness.  If every
option of x is <= every option of y, no pairing defeats option against
option and it fails only if every pairing is of one value with itself,
which makes x = y.  Otherwise every option of x is <= y, every option
other than y is a witness for option against whole, and that clause
fails only when y is x's one option.  So _pless tests x = [y] right
after its class-gap and leaf exits, and then runs the option clauses.

An indifferent player does not care which opponent wins.  That collapses
every losing leaf into one symbol; comparisons run over the collapsed
trees with the identity, class and option-against-whole rules of the
selfish relation plus a mirrored clause, whole against option: x <= y
when x is <= every option of y.  That turns each coordinate group into
an equality class of one chain.  The selfish option-against-option
clause would add nothing here.  Let x and y share a class, with every
option a of x <= every option b of y.  By (M), class(a) <= class(b) for
every b, and class(y) is at least the least class(b), since y's leaves
are its options' leaves.  So either class(a) < class(y), or the classes
are equal and the mirrored clause gives a <= y; either way every option
of x is <= y, and option against whole already holds.

The indifferent relation is a preorder.  (M) holds as before, since
both structural clauses relate values of one class only.  Transitivity,
x <= y <= z implies x <= z, goes by induction on the sum of the three
heights, with identity and class gaps settled as for the selfish
relation.  If every option a of x is <= y, then a <= y <= z gives
a <= z.  Otherwise x is <= every option b of y: either every b is <= z,
and x <= b <= z, or y is <= every option c of z, and x <= y <= c gives
x <= c.  It is not antisymmetric, so a strict comparison still walks
both ways; with no dominance cycles, prune keeps an option here too.
An option v equivalent to an unbeaten option u is unbeaten: were w
strictly above v, then u <= v <= w, and w <= u would give w <= v, so w
would be strictly above u.
"""

from __future__ import annotations

import enum
import functools
from itertools import product
from typing import Any, Callable, Collection, Hashable, Iterable, NamedTuple, Optional

from .values import (
    GameValue,
    NormalizationProfile,
    SimpleValue,
    check_simple,
    choice,
    leaf,
    normalize,
)


class Comparison(enum.Enum):
    LESS = "less"
    GREATER = "greater"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


class ChainError(RuntimeError):
    """A set of simples straddled chain coordinates; an internal bug."""


def _check_perspective(p: int, players: int) -> None:
    # ranks[0] reads every value as a loss and ranks stops at 9, so any
    # other p would read a wrong class or raise IndexError; a p above the
    # player count is no player of the game, and True, though it equals 1,
    # is no player id.
    top = min(players, 9)
    if type(p) is not int or not 1 <= p <= top:
        raise ValueError(f"perspective must be a player id 1..{top}, got {p!r}")


def _check_winners(players: int, *values: GameValue) -> None:
    # The rewrites take the player count's rules, so a value with a
    # winner beyond it would be compared as a value of another game.
    top = max(max(v.outcomes) for v in values)
    if top > players:
        raise ValueError(f"winner {top} exceeds player count {players}")


def _table(memo: dict, tag: Hashable) -> dict:
    # One table of the memo: a walk's results under (fold, mover), a
    # relation's entries under the relation, run moves under run_moves.
    got = memo.get(tag)
    if got is None:
        got = memo[tag] = {}
    return got


def _prepare(v: GameValue, players: int = 3) -> GameValue:
    # Comparisons are defined on fully rewritten values; every caller has
    # refused a winner above the player count.
    if players == 3:
        return normalize(v, NormalizationProfile.L2, 3)
    return normalize(v, NormalizationProfile.L1, players)


# ---------------------------------------------------------------------------
# the selfish relation


def _leq(x: GameValue, y: GameValue, p: int, table: dict) -> bool:
    if x is y:
        return True
    cx, cy = x.ranks[p], y.ranks[p]
    if cx != cy:
        return cx < cy  # (M) of the module docstring
    xs, ys = x.children, y.children
    if xs is None:
        return False
    key = (x, y, p)
    got = table.get(key)
    if got is not None:
        return got
    for a in xs:  # every option of x below y
        ca = a.ranks[p]
        if ca == cy:
            got = table.get((a, y, p))
            if not (_leq(a, y, p, table) if got is None else got):
                break
        elif ca > cy:
            break
    else:
        table[key] = True
        return True
    result = ys is not None
    if result:  # every option of x below every option of y
        for a, b in product(xs, ys):
            ca, cb = a.ranks[p], b.ranks[p]
            if ca == cb:
                got = table.get((a, b, p))
                if not (_leq(a, b, p, table) if got is None else got):
                    result = False
                    break
            elif ca > cb:
                result = False
                break
    table[key] = result
    return result


def leq(x: GameValue, y: GameValue, p: int, base: str = "selfish", players: int = 3) -> bool:
    """Whether x <= y for player p under the selfish or indifferent base,
    both values of a game of `players` players."""
    _check_perspective(p, players)
    _check_winners(players, x, y)
    x, y = _prepare(x, players), _prepare(y, players)
    if base == "selfish":
        return _leq(x, y, p, {})
    if base != "indifferent":
        raise ValueError(f"unknown comparison base {base!r}")
    quotients: dict = {}
    return _ext_leq(_quotient(x, p, quotients), _quotient(y, p, quotients), {})


def compare(
    x: GameValue, y: GameValue, p: int, base: str = "selfish", players: int = 3
) -> Comparison:
    """Full comparison under the given base relation, both values of a
    game of `players` players."""
    _check_perspective(p, players)
    _check_winners(players, x, y)
    x, y = _prepare(x, players), _prepare(y, players)
    if base == "selfish":
        # Antisymmetry (module docstring): only identical values are equal.
        if x is y:
            return Comparison.EQUAL
        memo: dict = {}
        if _leq(x, y, p, memo):
            return Comparison.LESS
        return Comparison.GREATER if _leq(y, x, p, memo) else Comparison.INCOMPARABLE
    if base != "indifferent":
        raise ValueError(f"unknown comparison base {base!r}")
    quotients: dict = {}
    x, y = _quotient(x, p, quotients), _quotient(y, p, quotients)
    memo = {}
    fwd, bwd = _ext_leq(x, y, memo), _ext_leq(y, x, memo)
    if fwd and bwd:
        return Comparison.EQUAL
    if fwd:
        return Comparison.LESS
    if bwd:
        return Comparison.GREATER
    return Comparison.INCOMPARABLE


# ---------------------------------------------------------------------------
# the prudent relation


def _pless(x: GameValue, y: GameValue, p: int, table: dict) -> bool:
    if x is y:
        return False
    cx, cy = x.ranks[p], y.ranks[p]
    if cx != cy:
        return cx < cy  # the class-gap lemma of the module docstring
    xs, ys = x.children, y.children
    if xs is None and ys is None:
        return False  # distinct leaves of one class
    if xs == (y,):
        return True  # [y] < y, the strict selfish clause (module docstring)
    key = (x, y, p)
    got = table.get(key)
    if got is not None:
        return got
    result = xs is not None and _pless_options(xs, (y,), p, table)
    if not result and ys is not None:
        result = _pless_options((x,), ys, p, table)
    if not result and xs is not None and ys is not None:
        result = _pless_options(xs, ys, p, table)
    table[key] = result
    return result


def _pless_options(
    xs: tuple[GameValue, ...], ys: tuple[GameValue, ...], p: int, table: dict
) -> bool:
    # Every pairing weaker or incomparable, at least one strictly weaker.
    witness = False
    for a, b in product(xs, ys):
        ca, cb = a.ranks[p], b.ranks[p]
        if ca == cb:
            got = table.get((a, b, p))
            if _pless(a, b, p, table) if got is None else got:
                witness = True
                continue
            got = table.get((b, a, p))
            if _pless(b, a, p, table) if got is None else got:
                return False
        elif ca > cb:  # b < a and not a < b, by the class-gap lemma
            return False
        else:
            witness = True
    return witness


def prudent_less(x: GameValue, y: GameValue, p: int) -> bool:
    """Whether a prudent player p discards x when y is available; the
    prudent order is defined for three players."""
    _check_perspective(p, 3)
    _check_winners(3, x, y)
    return _pless(_prepare(x), _prepare(y), p, {})


def prudent_compare(x: GameValue, y: GameValue, p: int) -> Comparison:
    """Full comparison of x and y under player p's prudent order.

    Both values, of a three-player game, are fully rewritten first.  LESS
    means p discards x when y is available, GREATER the reverse, EQUAL
    that they rewrite to one value, and INCOMPARABLE anything else: the
    order is not asymmetric (module docstring), so a pair below each
    other is incomparable.
    """
    _check_perspective(p, 3)
    _check_winners(3, x, y)
    x = _prepare(x)
    y = _prepare(y)
    if x is y:
        return Comparison.EQUAL
    memo: dict = {}
    fwd = _pless(x, y, p, memo)
    bwd = _pless(y, x, p, memo)
    if fwd and not bwd:
        return Comparison.LESS
    if bwd and not fwd:
        return Comparison.GREATER
    return Comparison.INCOMPARABLE


# ---------------------------------------------------------------------------
# the closed form on simple values


class ChainCoordinate(NamedTuple):
    """Position of a simple value in the prudent chain for some player.

    kind "asc" coordinates rise with index, "desc" coordinates fall with
    index, every asc sits below every desc, and "top" beats everything.
    """

    kind: str
    index: int

    @property
    def sort_key(self) -> tuple[int, int]:
        if self.kind == "asc":
            return (0, self.index)
        if self.kind == "desc":
            return (1, -self.index)
        return (2, 0)


def _chain_rank(s: SimpleValue, p: int) -> int:
    # The rank e of the module docstring: j for p_j, j + 1 for q_j.
    return s[1] if s[0] == p else s[1] + 1


def chain_coordinate(s: SimpleValue, p: int) -> ChainCoordinate:
    """Where the simple value s sits in player p's prudent chain."""
    _check_perspective(p, 3)
    e = _chain_rank(check_simple(s), p)
    if e == 0:
        return ChainCoordinate("top", 0)
    return ChainCoordinate("asc" if e % 2 else "desc", e // 2)


def simple_compare(a: SimpleValue, b: SimpleValue, p: int) -> Comparison:
    """Closed-form prudent comparison of two simple values."""
    _check_perspective(p, 3)
    a, b = check_simple(a), check_simple(b)
    if a == b:
        return Comparison.EQUAL
    ca = chain_coordinate(a, p)
    cb = chain_coordinate(b, p)
    if ca == cb:
        return Comparison.INCOMPARABLE
    return Comparison.LESS if ca.sort_key < cb.sort_key else Comparison.GREATER


def merge_incomparable_simples(simples: Iterable[SimpleValue], p: int) -> SimpleValue:
    """Collapse pairwise incomparable simples into one simple value.

    A singleton is its own merge.  A wider set must share one chain
    coordinate; the merge is player p's own member of that group: for
    asc(k) the value p_(2k+1), for desc(k) the value p_(2k).
    """
    _check_perspective(p, 3)
    got = {check_simple(s) for s in simples}
    if not got:
        raise ValueError("cannot merge an empty set of simples")
    if len(got) == 1:
        return next(iter(got))
    ranks = {_chain_rank(s, p) for s in got}
    if len(ranks) != 1:
        coords = sorted({chain_coordinate(s, p) for s in got})
        raise ChainError(f"simples {sorted(got)} span coordinates {coords}")
    # Only p_0 sits at the top, so the group is asc or desc, and p_e is
    # p_(2k+1) for asc(k), p_(2k) for desc(k).
    (e,) = ranks
    return SimpleValue(p, e)


# ---------------------------------------------------------------------------
# one fold per regime


class Fold:
    """How one regime folds a game, one node at a time.

    leaf maps the winner of a finished game to its result, and step maps
    the list of a node's option results (walk), its mover and walk's memo
    (for the relation memos, which only the pruning folds read) to the
    node's result.
    cutoff says that leaf(mover) among the options decides the step, so
    walk stops there (solver module docstring).  A record and a mover tag
    one walk table in the memo, the record hashed by identity, so one
    memo serves many folds.  Slots, not a tuple: walk reads the fields
    and hashes the record per node.
    """

    __slots__ = ("leaf", "step", "cutoff")

    def __init__(self, leaf: Callable, step: Callable, cutoff: bool) -> None:
        self.leaf, self.step, self.cutoff = leaf, step, cutoff


# A value tree, as a kind of game (walk): a choice's options are the
# mover's moves, a leaf names its winner, and a singleton is a pass, its
# one option under the next mover.
def TREE(v: GameValue, mover: int, last: int, memo: dict) -> Any:
    return v.children or v.winner


def walk(state: Any, mover: int, fold: Fold, kind: Callable, memo: dict, players: int) -> Any:
    """Fold the game at state, mover to move, the way fold's regime plays
    it: bottom-up, the turn rotating one player per move.

    kind(state, mover, last, memo), with last the player who moved before
    the mover, is the kind of game.  It returns the states the mover's
    moves leave, empty when the mover must pass, or, when the game is
    over, its winner as an int: last for a position, a leaf's own winner
    for a value tree (TREE).  A pass is one option, the same state under
    the next mover.  The line kind keeps its run moves in memo.

    memo is a dict of tables.  walk keeps its results in one table per
    (fold, mover), keyed on the state, and returns a stored result at
    once; pass the same dict to share work between walks.  The step gets
    memo too: the pruning folds' prune keeps its relation tables there,
    each under its relation's function (module docstring).  The step sees
    its options' results as a list in move order, repeats included.  Each
    step reads only their set, but the order fixes the order in which
    selfish prune fills its relation memos; indifferent prune compares in
    text order.
    """
    table = memo.get((fold, mover))  # _table, inline: it runs per node
    if table is None:
        table = memo[fold, mover] = {}
    got = table.get(state)
    if got is not None:
        return got
    children = kind(state, mover, (mover - 2) % players + 1, memo)
    if isinstance(children, int):
        return fold.leaf(children)
    after = mover % players + 1
    cutoff = fold.cutoff
    win = fold.leaf(mover) if cutoff else None
    results = []
    for child in children or (state,):
        got = walk(child, after, fold, kind, memo, players)
        if cutoff and got == win:  # the cutoff (solver module docstring)
            break
        results.append(got)
    else:
        got = fold.step(results, mover, memo)
    table[state] = got
    return got


def prudent_step(simples: Iterable[SimpleValue], mover: int, memo: dict) -> SimpleValue:
    """The simple value a prudent mover reaches from options that have
    collapsed to the given simples: one pass with the integer rank e of
    the module docstring.  Two options at the best e differ when their
    bases do, and then merge to p_e.  It reads no memo, and checks
    neither the mover nor the simples: it is the PRUDENT fold's step, run
    once per position on the fold's own results.
    """
    best = -1  # below every rank
    tie = False
    for s in simples:
        base = s[0]
        e = s[1] if base == mover else s[1] + 1  # _chain_rank, inline
        if e & 1:  # asc: above a lower asc only
            higher = best & 1 and e > best
        else:  # desc: above every asc, and above a larger desc
            higher = best & 1 or e < best
        if higher:
            best, kept, tie = e, s, False
        elif e == best and base != kept[0]:
            tie = True
    return SimpleValue(mover, best) if tie else kept


# Raw play: a game's value is the canonical choice over its options'.
RAW = Fold(leaf, lambda options, mover, memo: choice(options), False)
# Prudent play (three players): a finished game is the simple w_0, one
# shared value per winner, read by index.
_PRUDENT_LEAVES = (None, *(SimpleValue(w, 0) for w in (1, 2, 3)))
PRUDENT = Fold(_PRUDENT_LEAVES.__getitem__, prudent_step, True)
# Indifferent play, by the leaf lemma (solver module docstring): the
# mover's own win if an option gives it, else the least option winner.
INDIFFERENT = Fold(lambda w: w, lambda ws, mover, memo: mover if mover in ws else min(ws), True)


# One record per (mode, profile, players), of which there are a few dozen:
# the census asks for it once per root.
@functools.cache
def pruning_fold(mode: str, profile: NormalizationProfile, players: int) -> Fold:
    """The fold of selfish or indifferent play over value trees: at each
    level prune drops the options the mover discards, and the choice over
    the survivors is rewritten with the profile.  A pass is a singleton
    level, which prune leaves alone.  The step hands walk's memo to prune
    for its relation tables.
    """

    def step(options: Collection[GameValue], mover: int, memo: dict) -> GameValue:
        return normalize(choice(prune(options, mover, mode, players, memo)), profile, players)

    return Fold(leaf, step, False)


def prudent_simplify(
    v: GameValue,
    mover: int,
    memo: Optional[dict] = None,
) -> SimpleValue:
    """Collapse a value tree to the one simple value prudent play reaches.

    The PRUDENT fold, walked over the value as a TREE: the mover owns the
    top-level choice and the turn rotates one player per level down; a
    singleton level is a pass and is absorbed.  At each choice the
    options collapse recursively, the mover keeps the ones at the best
    chain coordinate, and the survivors merge (prudent_step); the walk
    stops at the mover's own win.  The board evaluator's prudent mode
    walks positions instead, and reaches the same simple (solver module
    docstring); the census collapses raw values here.  memo is walk's; a
    call without one starts afresh.

    Wrapper levels carry turn information, so collapsing singletons
    around simples (rule 1, profile L2) beforehand may change the
    result: for mover 1, [[2,3]] passes to player 2, who takes 2, while
    its rewrite [2,3] is 1_1.  Rules 2 and 3 (L1) never change it.  Rule 2
    strips three passes, which hand the turn back to the same mover, and
    a pass collapses to its one option.  Rule 3 gives a host list the
    options of a list behind two passes.  That list's mover is the
    host's mover, and prudent_step over A and B together equals
    prudent_step over A and prudent_step(B): the best rank survives, and
    a tie at that rank merges to p_e either way.  So an L0 or L1 rewrite
    collapses as the value itself does.
    """
    if type(mover) is not int or not 1 <= mover <= 3:
        raise ValueError(f"mover {mover} out of range for three players")
    if not v.outcomes <= {1, 2, 3}:
        raise ValueError("prudent simplification is defined for three players")
    return walk(v, mover, PRUDENT, TREE, {} if memo is None else memo, 3)


# ---------------------------------------------------------------------------
# the indifferent relation, over loss-collapsed trees


_WIN = 1
_LOSS = 2


def _quotient(v: GameValue, p: int, table: dict) -> GameValue:
    """Relabel leaves to p's eye: own wins stay 1, every loss becomes 2.

    Collapsing makes sibling losses merge, so the result is again
    canonical and all downstream comparisons can fix perspective 1.
    """
    if v.children is None:
        return leaf(_WIN) if v.winner == p else leaf(_LOSS)
    key = (v, p)
    got = table.get(key)
    if got is None:
        got = table[key] = choice(_quotient(c, p, table) for c in v.children)
    return got


def _ext_leq(x: GameValue, y: GameValue, table: dict) -> bool:
    # Option against whole and its mirror, whole against option: x below
    # every option of y also puts x below y.  Without the mirror, wrappers
    # block the equalities an indifferent player is supposed to see.  The
    # selfish option-against-option clause is implied (module docstring).
    if x is y:
        return True
    cx, cy = x.ranks[_WIN], y.ranks[_WIN]
    if cx != cy:
        return cx < cy
    xs, ys = x.children, y.children
    if xs is None and ys is None:
        return False
    key = (x, y)
    got = table.get(key)
    if got is not None:
        return got
    result = False
    if xs is not None:  # every option of x below y
        for a in xs:
            got = table.get((a, y))
            if not (_ext_leq(a, y, table) if got is None else got):
                break
        else:
            result = True
    if not result and ys is not None:  # x below every option of y
        for b in ys:
            got = table.get((x, b))
            if not (_ext_leq(x, b, table) if got is None else got):
                break
        else:
            result = True
    table[key] = result
    return result


# ---------------------------------------------------------------------------
# pruning dominated options


def prune(
    options: Iterable[GameValue],
    p: int,
    mode: str = "selfish",
    players: int = 3,
    memo: Optional[dict] = None,
) -> set[GameValue]:
    """Drop options a selfish or indifferent player would never pick.

    Keeps every option not strictly below another.  Options below the
    top class for p drop uncompared, and the rest are compared as their
    fully rewritten forms (loss-collapsed for an indifferent player), in
    the order given for a selfish player and in `order` for an
    indifferent one; the options themselves stay as given, for the
    caller owns them.  Both orders are transitive (module docstring), so
    some option always survives.  In indifferent mode, options the
    player cannot tell apart additionally collapse to the least in
    `order`, which is text order: loss-blind players take the least
    winner, so among losses the player labels decide.  The relations
    memoize in memo, which may hold other entries too (module
    docstring); without one the call starts afresh.
    """
    opts = list(dict.fromkeys(options))
    if not opts:
        raise ValueError("cannot prune an empty set of options")
    if mode not in ("selfish", "indifferent"):
        raise ValueError(f"unknown preference mode {mode!r}")
    _check_perspective(p, players)
    _check_winners(players, *opts)
    if memo is None:
        memo = {}
    top = max(v.ranks[p] for v in opts)
    best = [v for v in opts if v.ranks[p] == top]
    if len(best) == 1:
        return set(best)
    if mode == "selfish":
        # Antisymmetry: for distinct rewritten values, < is <= alone.
        table = _table(memo, _leq)
        proxy = {v: _prepare(v, players) for v in best}
        return {
            v
            for v, a in proxy.items()
            if not any(b is not a and _leq(a, b, p, table) for b in proxy.values())
        }
    # An option equivalent to an unbeaten one is unbeaten, by transitivity
    # (module docstring), so one pass in `order` keeps the least of each
    # class of unbeaten options.
    quotients, table = _table(memo, _quotient), _table(memo, _ext_leq)
    ranked = sorted(best, key=lambda v: v.order)
    proxies = [_quotient(_prepare(v, players), p, quotients) for v in ranked]
    return {
        v
        for i, (v, a) in enumerate(zip(ranked, proxies))
        if not any(
            _ext_leq(a, b, table) and (j < i or not _ext_leq(b, a, table))
            for j, b in enumerate(proxies)
        )
    }

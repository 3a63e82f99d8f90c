"""Game values for N-player normal-play games.

A value is either a leaf, naming the player who made the last move and
therefore wins, or a choice node listing the values the player to move
can reach.  Choice nodes behave like sets: order does not matter and
duplicates collapse.  A choice with a single leaf option is identified
with that leaf (the mover has no real decision about the winner), but a
singleton around a wider choice is kept, because it shifts whose turn it
is when the inner decision is made.  [1,3] and [[1,3]] are different
values; [[[3]]] and 3 are the same.

Values are interned: structurally equal trees are the same object, so
equality is identity and sets and cache keys stay cheap.  Construction
always canonicalizes (sorts children, drops duplicates, collapses leaf
singletons).  Children sort in the lexicographic order of their printed
forms, so rendering a canonical value reproduces reference printouts
byte for byte.

That order needs no text.  Each node carries an `order` key, (0, w) for
the leaf w and (1, *child keys, (2,)) for a choice, and keys sort
exactly as printed forms do.  Printed forms are prefix-free: a leaf is
one digit, and a choice's text ends at the bracket that closes its
first '['.  So two choices' forms first differ inside the first pair of
children that differ, and that pair decides, as it does between two
key tuples.  A digit sorts before '[', as 0 before 1.  When one child
list is a prefix of the other, ',' sorts before ']', so the longer list
is the smaller, and the end marker (2,) sorts above every key.  Keys
compare recursively, so for options that agree deeper than the
interpreter's recursion limit choice sorts by text, the same order.

The printed form, `text`, is built only when read, from the children's,
and cached on each node it was built for; so is the bar form.  Both are
built on an explicit stack, at any depth.

Each node also carries its outcome set, the players who win some leaf,
and `ranks`, indexed by player 0..9: ranks[p] is p's outcome class, 0
for a loss (p wins no leaf), 1 for mixed and 2 for a win (p wins every
leaf).  Both are shared by every value with the same outcome set.

On top of the raw trees live three rewrite rules that preserve outcome
structure for an N-player game; normalize applies them to a fixed point:

* rule 2 removes N nested singleton wrappers around any value,
* rule 3 splices a list wrapped in N-1 singletons into its host list,
* rule 1 drops a singleton wrapper around a simple value (3 players).

Simple values are the family written ``a_i`` (bar notation): ``a_0`` is
the leaf ``a`` and ``a_{i+1}`` is the choice between the other two
players' values at exponent ``i``.  ``1_1`` is [2,3], ``1_2`` is
[[1,3],[1,2]] and so on.
"""

from __future__ import annotations

import enum
import operator
from typing import Iterable, NamedTuple, Optional


class ValueSyntaxError(ValueError):
    """Raised when a value string cannot be parsed."""


class SimpleValue(NamedTuple):
    """The simple value base_exponent, e.g. SimpleValue(1, 2) for 1_2."""

    base: int
    exponent: int

    def __str__(self) -> str:
        return str(self.base) if self.exponent == 0 else f"{self.base}_{self.exponent}"


class NormalizationProfile(enum.IntEnum):
    """How aggressively values are rewritten.

    L0 only canonicalizes (dedup, sort, leaf-singleton collapse).
    L1 adds rules 2 and 3, the wrapper-count rewrites.
    L2 adds rule 1, identifying [x] with x for simple x.
    """

    L0 = 0
    L1 = 1
    L2 = 2


# Pinned by the calibration experiment against the published unique-value
# counts over board lengths 2..9: the selfish column matches L1 exactly on
# every length and L2 on none past 6 (see scripts/calibrate_profile.py and
# reports/syntactic_discrepancy.md for the full grading).
DEFAULT_PROFILE = NormalizationProfile.L1


class GameValue:
    """An interned game value tree.  Use leaf() and choice() to build.

    `order` sorts values as their printed forms sort (module docstring),
    and `text`, the printed form, is built on first read.
    """

    __slots__ = ("winner", "children", "outcomes", "ranks", "order", "_text", "_simple", "_bar")

    winner: Optional[int]
    children: Optional[tuple["GameValue", ...]]
    outcomes: frozenset[int]
    ranks: tuple[int, ...]
    order: tuple

    def __init__(self, winner, children, outcomes, order, text=None):
        self.winner = winner
        self.children = children
        got = _OUTCOMES.get(outcomes)
        if got is None:  # the first value with this outcome set
            top = 2 if len(outcomes) == 1 else 1
            got = (outcomes, tuple(top if p in outcomes else 0 for p in range(10)))
            _OUTCOMES[outcomes] = got
        self.outcomes, self.ranks = got
        self.order = order
        # A leaf prints as its digit in both styles; a choice waits for a read.
        self._text = self._bar = text
        self._simple = _UNRESOLVED

    @property
    def text(self) -> str:
        """The bracket form, e.g. [1,[2,3]]."""
        text = self._text
        return text if text is not None else _build(self, False)

    # Interning makes structural equality identity equality; the default
    # object __eq__ and __hash__ are exactly right.

    def __repr__(self) -> str:
        return render_value(self)

    def __reduce__(self):
        # Rebuilding interns again, node by node, at any depth.
        if self.children is None:
            return (leaf, (self.winner,))
        return (choice, (self.children,))


_UNRESOLVED = object()
_LEAVES: dict[int, GameValue] = {}
_CHOICES: dict[tuple[GameValue, ...], GameValue] = {}
# One (outcomes, ranks) pair per distinct outcome set, shared by every value.
_OUTCOMES: dict[frozenset[int], tuple[frozenset[int], tuple[int, ...]]] = {}


def leaf(winner: int) -> GameValue:
    """The value of a finished game won by `winner`."""
    got = _LEAVES.get(winner)
    if got is not None:
        return got
    # Not isinstance: True equals 1, and would intern a leaf printed True.
    if type(winner) is not int or not 1 <= winner <= 9:
        raise ValueError(f"leaf winner must be a player id 1..9, got {winner!r}")
    v = GameValue(winner, None, frozenset((winner,)), (0, winner), str(winner))
    _LEAVES[winner] = v
    return v


_BY_ORDER = operator.attrgetter("order")
_BY_TEXT = operator.attrgetter("text")
_END = (2,)  # closes a choice's key, above every key


def choice(options: Iterable[GameValue]) -> GameValue:
    """The value of a position whose mover can reach the given values."""
    uniq = set(options)
    if not uniq:
        raise ValueError("a choice needs at least one option")
    if len(uniq) == 1:
        (only,) = uniq
        if only.children is None:
            return only
    try:
        kids = tuple(sorted(uniq, key=_BY_ORDER))
    except RecursionError:
        # Keys compare recursively, down to where two options first
        # differ; texts give the same order at any depth.
        kids = tuple(sorted(uniq, key=_BY_TEXT))
    got = _CHOICES.get(kids)
    if got is not None:
        return got
    outcomes = frozenset().union(*(c.outcomes for c in kids))
    v = GameValue(None, kids, outcomes, (1, *map(_BY_ORDER, kids), _END))
    _CHOICES[kids] = v
    return v


# ---------------------------------------------------------------------------
# rewrite rules


def _unwrap_exact(v: GameValue, levels: int) -> Optional[GameValue]:
    """Strip exactly `levels` singleton choice wrappers, else None."""
    cur = v
    for _ in range(levels):
        if cur.children is None or len(cur.children) != 1:
            return None
        cur = cur.children[0]
    return cur


_NORMAL_CACHE: dict[tuple[GameValue, int, int], GameValue] = {}
_PROFILES = frozenset(NormalizationProfile)


def normalize(
    v: GameValue,
    profile: NormalizationProfile = DEFAULT_PROFILE,
    players: int = 3,
) -> GameValue:
    """Rewrite v to its fixed point under the profile's rules.

    Rules are applied bottom-up, at each node in the order rule 2, rule 3,
    then (at L2) rule 1, until nothing changes.  The result is idempotent
    and has the same outcome set as v.  A profile that equals none of L0,
    L1 and L2 is refused.
    """
    if profile not in _PROFILES:
        raise ValueError(f"unknown normalization profile {profile!r}")
    if profile == NormalizationProfile.L2 and players != 3:
        raise ValueError("rule1 needs simple values, which are defined for 3 players")
    # L0 only canonicalizes, which interning has done: v is its own rewrite.
    if v.children is None or profile == NormalizationProfile.L0:
        return v
    level = int(profile)
    got = _NORMAL_CACHE.get((v, level, players))
    return got if got is not None else _normalize(v, level, players)


def _normalize(v: GameValue, level: int, players: int) -> GameValue:
    # normalize on a choice node, at profile level 1 or 2; callers probe
    # the memo.
    kids = v.children
    normed = []
    for c in kids:
        if c.children is not None:
            got = _NORMAL_CACHE.get((c, level, players))
            c = got if got is not None else _normalize(c, level, players)
        normed.append(c)
    # A node whose children all rewrite to themselves is its own canonical
    # rebuild: skip the sort in choice.
    node = v if all(map(operator.is_, normed, kids)) else choice(normed)
    while node.children is not None:
        inner = _unwrap_exact(node, players) if len(node.children) == 1 else None
        if inner is not None:
            node = inner
            continue
        spliced: list[GameValue] = []
        changed = False
        for c in node.children:
            # players - 1 >= 1 wrappers start with a singleton.
            mid = None
            if players == 1 or c.children is not None and len(c.children) == 1:
                mid = _unwrap_exact(c, players - 1)
            if mid is not None and mid.children is not None:
                spliced.extend(mid.children)
                changed = True
            else:
                spliced.append(c)
        if changed:
            node = choice(spliced)
            continue
        if level == 2 and len(node.children) == 1:
            only = node.children[0]
            if match_simple(only) is not None:
                node = only
                continue
        break
    _NORMAL_CACHE[v, level, players] = node
    return node


# ---------------------------------------------------------------------------
# simple (bar) values


_EXPANSIONS: dict[SimpleValue, GameValue] = {}


def check_simple(s: SimpleValue) -> SimpleValue:
    """s as a SimpleValue, refused with ValueError when no three-player
    game has it: a base outside 1..3 or a negative exponent.  A bool or a
    float, for either, is refused too."""
    s = SimpleValue(*s)
    if type(s.base) is not int or type(s.exponent) is not int:
        raise ValueError(f"a simple value holds two ints, got {s!r}")
    if s.base not in (1, 2, 3):
        raise ValueError(f"simple values are defined for players 1..3, got base {s.base}")
    if s.exponent < 0:
        raise ValueError("simple value exponent must be >= 0")
    return s


def expand_simple(s: SimpleValue) -> GameValue:
    """The game value written s.base with s.exponent bars (3 players)."""
    s = check_simple(s)
    got = _EXPANSIONS.get(s)
    if got is not None:
        return got
    if s.exponent == 0:
        v = leaf(s.base)
    else:
        others = [b for b in (1, 2, 3) if b != s.base]
        v = choice(expand_simple(SimpleValue(b, s.exponent - 1)) for b in others)
    _EXPANSIONS[s] = v
    return v


def match_simple(v: GameValue) -> Optional[SimpleValue]:
    """The SimpleValue whose expansion is v, or None.

    Leaves match with exponent 0.  A two-option choice matches when both
    options are simple with the same exponent and distinct bases in
    {1,2,3}; the match is then the third player, one exponent up.
    """
    cached = v._simple
    if cached is not _UNRESOLVED:
        return cached
    result: Optional[SimpleValue] = None
    if v.children is None:
        result = SimpleValue(v.winner, 0)
    elif len(v.children) == 2:
        m1 = match_simple(v.children[0])
        m2 = match_simple(v.children[1])
        if (
            m1 is not None
            and m2 is not None
            and m1.exponent == m2.exponent
            and m1.base != m2.base
            and {m1.base, m2.base} <= {1, 2, 3}
        ):
            result = SimpleValue(6 - m1.base - m2.base, m1.exponent + 1)
    v._simple = result
    return result


# ---------------------------------------------------------------------------
# text form: digits, brackets, and bar atoms like 2_1


# Bounds on value text.  normalize and the relations recurse once per
# level, so nesting must stay well inside the interpreter's recursion
# limit; and the printed form of a_j has about 2**(j+2) characters.
MAX_DEPTH = 128
MAX_EXPONENT = 16
# Error messages quote at most this many characters of the input text.
MAX_QUOTED = 40


def quote(text: str) -> str:
    """repr(text), cut to its first MAX_QUOTED characters."""
    if len(text) <= MAX_QUOTED:
        return repr(text)
    return f"{text[:MAX_QUOTED]!r}... ({len(text)} characters)"


def parse_value(text: str, players: int = 3) -> GameValue:
    """Parse a value string.

    Grammar: value = atom | '[' value (',' value)* ']'; an atom is a
    player digit, optionally followed by '_' and an exponent, which
    denotes the expansion of that simple value.  Whitespace is ignored
    between tokens, not inside an atom.  The parsed tree is
    canonicalized.  Brackets may nest at most MAX_DEPTH deep and
    exponents may be at most MAX_EXPONENT.

    One scan, left to right: `stack` holds the item lists of the open
    brackets, and a closing bracket turns the innermost into a choice.
    """
    n = len(text)
    spaced = text.split() != [text]  # else no whitespace test per token
    stack: list[list[GameValue]] = []
    pos = 0
    while True:
        # A value starts here.
        if spaced:
            while pos < n and text[pos].isspace():
                pos += 1
        if pos >= n:
            raise _syntax_error("unexpected end of input", pos, text)
        ch = text[pos]
        if ch == "[":
            if len(stack) == MAX_DEPTH:
                raise _syntax_error(f"brackets nest deeper than {MAX_DEPTH}", pos, text)
            stack.append([])
            pos += 1
            continue
        if not "0" <= ch <= "9":
            raise _syntax_error(f"unexpected character {ch!r}", pos, text)
        base = ord(ch) - 48
        if base == 0 or base > players:
            raise _syntax_error(f"player digit must be 1..{players}", pos, text)
        pos += 1
        v = leaf(base)
        if pos < n and text[pos] == "_":
            pos += 1
            start = pos
            exponent = 0
            while pos < n and "0" <= text[pos] <= "9":
                exponent = 10 * exponent + ord(text[pos]) - 48
                if exponent > MAX_EXPONENT:
                    raise _syntax_error(f"bar exponent above {MAX_EXPONENT}", pos, text)
                pos += 1
            if start == pos:
                raise _syntax_error("expected an exponent after '_'", pos, text)
            if exponent > 0:
                if players != 3:
                    raise _syntax_error("bar values need a 3-player game", pos, text)
                v = expand_simple(SimpleValue(base, exponent))
        # The value v ends here: close every bracket that ends with it.
        while True:
            if spaced:
                while pos < n and text[pos].isspace():
                    pos += 1
            if not stack:
                if pos != n:
                    raise _syntax_error("trailing input", pos, text)
                return v
            items = stack[-1]
            items.append(v)
            ch = text[pos] if pos < n else ""
            pos += 1
            if ch == ",":
                break
            if ch != "]":
                raise _syntax_error("expected ',' or ']'", pos - 1, text)
            stack.pop()
            v = choice(items)


def _syntax_error(msg: str, pos: int, text: str) -> ValueSyntaxError:
    return ValueSyntaxError(f"{msg} at offset {pos} in {quote(text)}")


def render_value(v: GameValue, style: str = "brackets", players: int = 3) -> str:
    """Serialize a value of a game of `players` players;
    parse_value(text, players) inverts this.

    style "brackets" prints the raw tree.  style "bar" prints simple
    subtrees as base_exponent atoms and falls back to brackets around
    non-simple nodes; each node caches its bar text, like `text`.  Bar
    atoms are a three-player notation (expand_simple), so for any other
    player count bar style prints brackets.
    """
    if style == "brackets" or style == "bar" and players != 3:
        return v.text
    if style == "bar":
        return v._bar if v._bar is not None else _build(v, True)
    raise ValueError(f"unknown render style {style!r}")


def _build(v: GameValue, bar: bool) -> str:
    """v's bracket text, or its bar text if bar, cached on v and on every
    node below it that had none.

    Children come first, on an explicit stack, so a node joins its
    children's cached texts and nothing recurses; a bar node is matched
    as simple only after its children are.
    """
    stack = [v]
    while stack:
        node = stack[-1]
        if (node._bar if bar else node._text) is None:
            kids = node.children
            todo = [c for c in kids if (c._bar if bar else c._text) is None]
            if todo:
                stack += todo
                continue
            if not bar:
                node._text = "[" + ",".join([c._text for c in kids]) + "]"
            else:
                m = match_simple(node)
                node._bar = str(m) if m is not None else "[" + ",".join([c._bar for c in kids]) + "]"
        stack.pop()
    return v._bar if bar else v._text

"""Golden data and shared verification routines for the test suite.

The VALUE_* constants are reference results for specific boards, player 1
to move, quoted verbatim (spaces stripped) so regressions show up as raw
string diffs.  The *_violations helpers run whole ordering suites and
return human-readable descriptions of every failure, so a test can assert
the list is empty and still print exactly what broke.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Callable, Iterable, NamedTuple, Optional

from hypothesis import strategies as st

from nclobber.enumeration import _alphabet, _has_move, generate_boards
from nclobber.game_core import (
    Position,
    apply_move,
    legal_moves,
    movers_mask,
    parse_board,
)
from nclobber.preferences import (
    ChainError,
    _LOSS,
    _WIN,
    _check_perspective,
    _ext_leq,
    _prepare,
    _quotient,
    Comparison,
    chain_coordinate,
    compare,
    merge_incomparable_simples,
    prudent_compare,
    prudent_less,
    prune,
    simple_compare,
)
from nclobber.solver import Class, EvalCache, EvalResult, Raw, Simple, evaluate
from nclobber.values import (
    MAX_DEPTH,
    MAX_EXPONENT,
    GameValue,
    NormalizationProfile,
    SimpleValue,
    ValueSyntaxError,
    choice,
    expand_simple,
    leaf,
    match_simple,
    normalize,
    quote,
)

# ---------------------------------------------------------------------------
# reference values for the worked-example boards (1xn, player 1 starts)

VALUE_213 = "1"
VALUE_12223 = "[[1,3]]"
VALUE_123213 = "[[1,3],[1,[1,2]],[2,3]]"
VALUE_1232132321 = "[[[1, 3, [3, [[1, 3]]], [[1, 3, [2, 3]], [2, 3, [1, 2]]], [[[1, 2]]]], [3, [2, 3], [2, [1, 3]], [[1, 2]]], [3, [3, [1, 3]], [3, [[1, 3]]], [[1, 3], [2, 3]], [[1, 3]]], [3, [[1, 2], [2, 3]]], [[1, 3], [3, [1, 2], [[1, 2]]], [[1, 2, 3], [1, 2, [2, 3]]]], [[1, 3], [3, [1, 2], [[1, 2]]], [[1, 3], [2, 3, [2, 3]], [2, 3]]]], [[2, [1, 3], [2, 3], [[1, 3]]], [2, [3, [1, 3]]], [3, [1, [2, 3]], [[1, 3, [2, 3]]], [[1, 3], [[1, 2]]], [[2, 3], [[1, 3]]]], [[1, 3], [1, [2, 3]], [3, [2, 3]], [[2, 3]]], [[1, [1, 2, 3], [2, 3, [2, 3]]], [2, 3], [2, [[1, 2]]]], [[2, 3], [2, [1, 2]], [[1, 2, [2, 3]], [1, 2]]]], [[2, [2, 3]], [2, [3, [1, 3]], [3, [2, 3]]], [2, [3, [1, 3]]], [3, [2, 3], [[1, 3]], [[2, 3], [[1, 3]]]], [[1, 2], [1, 3, [1, 3]], [2, 3]], [[1, 2], [2, 3]]], [[[1, 2], [1, [2, 3]], [2, 3]], [[1, 2], [2, 3]], [[1, 3, [1, 2]]], [[2, 3]], [[3, [1, 3]], [[1, 3]]]]]".replace(" ", "")

SELFISH_1232132321 = "[[[1,2]]]"
PRUDENT_1232132321 = SimpleValue(3, 1)
SELFISH_132323123 = "[[[1,2],[[2,3],[[1,3]]]],[[1,2],[[2,3]]],[[[2,3],[[1,3]]]]]"
# The reference worked example prints 3_2 here.  That contradicts the
# reference's own ordering chain (3_2 is below 3_1 for player 1, and the
# option collapsing to 3_1 is available), and the prudent census column
# only matches when the chain is followed, so this library answers 3_1.
PRUDENT_132323123_REFERENCE = SimpleValue(3, 2)
PRUDENT_132323123_COMPUTED = SimpleValue(3, 1)

# Reference census inventory for length-8 boards, player 1 to move.  The
# selfish census is presented with every simple value written as its
# atom, i.e. after also collapsing singletons around simples (rule 1),
# so tests compare modulo the L2 profile.
INVENTORY_8_SELFISH = frozenset(
    {"1", "2", "3", "1_1", "2_1", "3_1", "1_2", "2_2", "[2_1,2_2]"}
)
INVENTORY_8_PRUDENT = INVENTORY_8_SELFISH - {"[2_1,2_2]"}

# ---------------------------------------------------------------------------
# hypothesis strategies and small corpora


def value_trees(max_players: int = 3, max_leaves: int = 20) -> st.SearchStrategy:
    """Random interned value trees over players 1..max_players."""
    base = st.integers(1, max_players).map(leaf)
    return st.recursive(
        base,
        lambda inner: st.lists(inner, min_size=1, max_size=4).map(choice),
        max_leaves=max_leaves,
    )


MOVABLE_BOARDS: dict[int, tuple[str, ...]] = {
    n: tuple(generate_boards(n)) for n in range(2, 8)
}


def movable_board_strategy(max_n: int = 7) -> st.SearchStrategy:
    pool = [b for n in range(2, max_n + 1) for b in MOVABLE_BOARDS[n]]
    return st.sampled_from(pool)


# ---------------------------------------------------------------------------
# reference code: small definitions the library does not need


def canonicalize(v: GameValue) -> GameValue:
    """Rebuild a value bottom-up; identity on anything built by choice()."""
    if v.children is None:
        return v
    return choice(canonicalize(c) for c in v.children)


def next_active_player(
    shape: tuple[int, int], occupancy: bytes, after: int, players: int = 3
) -> Optional[int]:
    """The first player in rotation strictly after `after` who can move.

    Tries at most `players` candidates, so it wraps all the way around
    to `after` itself; returns None when nobody can move.
    """
    mask = movers_mask(shape, occupancy)
    for step in range(1, players + 1):
        cand = (after - 1 + step) % players + 1
        if mask & (1 << cand):
            return cand
    return None


def prudent_incomparable(x: GameValue, y: GameValue, p: int) -> bool:
    """Neither value prudently below the other (equal values included)."""
    return not prudent_less(x, y, p) and not prudent_less(y, x, p)


# ---------------------------------------------------------------------------
# ordering suites over simple values


def _others(p: int) -> tuple[int, int]:
    a, b = (x for x in (1, 2, 3) if x != p)
    return a, b


def base_ordering_violations(max_exponent: int = 8) -> list[str]:
    """Check the two opposing bases against the mover's own base.

    For every perspective p with opposing bases b and c, and every
    exponent i: b_i and c_i are prudently incomparable for p, and the
    strict order against p's own simple alternates with parity — even i
    puts b_i and c_i below p_i, odd i puts p_i below b_i and c_i.
    """
    bad = []
    for p in (1, 2, 3):
        b, c = _others(p)
        for i in range(max_exponent + 1):
            own = expand_simple(SimpleValue(p, i))
            eb = expand_simple(SimpleValue(b, i))
            ec = expand_simple(SimpleValue(c, i))
            if not prudent_incomparable(eb, ec, p):
                bad.append(f"{b}_{i} and {c}_{i} comparable for player {p}")
            if i % 2 == 0:
                pairs = [(eb, own, f"{b}_{i} < {p}_{i}"), (ec, own, f"{c}_{i} < {p}_{i}")]
            else:
                pairs = [(own, eb, f"{p}_{i} < {b}_{i}"), (own, ec, f"{p}_{i} < {c}_{i}")]
            for lo, hi, label in pairs:
                if not prudent_less(lo, hi, p):
                    bad.append(f"player {p}: expected {label}, not strict")
                if prudent_less(hi, lo, p):
                    bad.append(f"player {p}: {label} also holds reversed")
    return bad


def successor_incomparability_violations(max_exponent: int = 8) -> list[str]:
    """p's own simple of exponent i+1 is incomparable to either opposing
    simple of exponent i, for every perspective p."""
    bad = []
    for p in (1, 2, 3):
        b, c = _others(p)
        for i in range(max_exponent):
            own_up = expand_simple(SimpleValue(p, i + 1))
            for other in (b, c):
                against = expand_simple(SimpleValue(other, i))
                if not prudent_incomparable(own_up, against, p):
                    bad.append(
                        f"player {p}: {p}_{i + 1} comparable with {other}_{i}"
                    )
    return bad


def all_simples(max_exponent: int = 8) -> list[SimpleValue]:
    return [
        SimpleValue(base, exp)
        for base in (1, 2, 3)
        for exp in range(max_exponent + 1)
    ]


def closed_form_disagreements(max_exponent: int = 8) -> list[str]:
    """simple_compare must equal the prudent recursion on expansions,
    for every simple pair and every perspective."""
    bad = []
    simples = all_simples(max_exponent)
    for p in (1, 2, 3):
        for a in simples:
            for b in simples:
                fast = simple_compare(a, b, p)
                slow = prudent_compare(expand_simple(a), expand_simple(b), p)
                if fast is not slow:
                    bad.append(
                        f"player {p}: {a} vs {b}: chain says {fast.value}, "
                        f"recursion says {slow.value}"
                    )
    return bad


def indifferent_collapse_disagreements(max_exponent: int = 8) -> list[str]:
    """The indifferent relation keeps the prudent chain's strict order
    but turns each incomparable pair into an equality."""
    bad = []
    simples = all_simples(max_exponent)
    for p in (1, 2, 3):
        for a in simples:
            for b in simples:
                prudent = simple_compare(a, b, p)
                expected = (
                    Comparison.EQUAL
                    if prudent is Comparison.INCOMPARABLE
                    else prudent
                )
                got = compare(expand_simple(a), expand_simple(b), p, "indifferent")
                if got is not expected:
                    bad.append(
                        f"player {p}: {a} vs {b}: expected {expected.value}, "
                        f"got {got.value}"
                    )
    return bad


# ---------------------------------------------------------------------------
# the novelty filter and the palindrome count, by brute force


def board_passes(board: str, players: int = 3, movable: bool = True) -> bool:
    """Independent re-check that a board string is novel.

    movable=False drops the at-least-one-move condition and keeps the
    other three.
    """
    alphabet = _alphabet(players)
    if not board or any(ch not in alphabet for ch in board):
        return False
    if board[0] == "0" or board[-1] == "0" or "00" in board:
        return False
    if board < board[::-1]:
        return False
    if movable and not _has_move(board):
        return False
    return True


def _count_palindromes(n: int, players: int, movable: bool) -> int:
    # Palindromes are cheap to list outright: one free half-string.  A
    # palindrome is its own mirror, so the mirror condition passes it.
    half = (n + 1) // 2
    total = 0
    for head in itertools.product(_alphabet(players), repeat=half):
        s = "".join(head) + "".join(reversed(head[: n // 2]))
        if board_passes(s, players, movable):
            total += 1
    return total


# ---------------------------------------------------------------------------
# board walks


def reachable_occupancies(shape: tuple[int, int], occupancy: bytes, players: int = 3):
    """Every occupancy reachable by any sequence of moves by any players."""
    seen = {occupancy}
    queue = deque([occupancy])
    while queue:
        cur = queue.popleft()
        for player in range(1, players + 1):
            for move in legal_moves(shape, cur, player):
                nxt = apply_move(cur, move)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return seen


def isolation_violations(board: str, players: int = 3) -> list[str]:
    """Check that a player with no moves never regains one.

    Walks every reachable occupancy; whenever a player has no legal move,
    every single further move must leave them without one.  Empty-handed
    players count as stuck, so the check covers them too.
    """
    shape, occupancy = parse_board(board, players=players)
    bad = []
    for cur in reachable_occupancies(shape, occupancy, players):
        stuck = [
            p for p in range(1, players + 1) if not legal_moves(shape, cur, p)
        ]
        if not stuck:
            continue
        for player in range(1, players + 1):
            for move in legal_moves(shape, cur, player):
                nxt = apply_move(cur, move)
                for q in stuck:
                    if legal_moves(shape, nxt, q):
                        bad.append(
                            f"board {board}: player {q} had no move at "
                            f"{cur!r} but can move after {move} -> {nxt!r}"
                        )
    return bad


# ---------------------------------------------------------------------------
# the indifferent class ladder, by search


class Ladder(NamedTuple):
    """A loss-blind equality class on the whole ladder, relative to p.

    (True, 0) is the guaranteed win.  Other classes form one ladder;
    (False, j) means the class of an opposing simple value with exponent
    j (which also contains p's own simple of exponent j+1, since
    collapsing losses makes their trees literally identical).  The
    solver's Class names only win and other_0, the classes of a leaf.
    """

    mine: bool
    exponent: int

    def __str__(self) -> str:
        return "win" if self.mine else f"other_{self.exponent}"


def indifferent_class(v: GameValue, p: int, max_exponent: int) -> Optional[Ladder]:
    """Name the equality class of v for an indifferent player p.

    Returns None if no tier up to max_exponent matches, which evaluation
    of a three-player game can never produce.
    """
    _check_perspective(p, 9)
    q = quotient(_prepare(v), p)
    win = leaf(_WIN)
    memo: dict = {}
    if _ext_leq(q, win, memo) and _ext_leq(win, q, memo):
        return Ladder(True, 0)
    tier = leaf(_LOSS)  # an opposing leaf: exponent 0
    mine = win
    for j in range(max_exponent + 1):
        if _ext_leq(q, tier, memo) and _ext_leq(tier, q, memo):
            return Ladder(False, j)
        # Next loss tier: an option into the mover's tier and one staying put.
        mine, tier = tier, choice((mine, tier))
    return None


# ---------------------------------------------------------------------------
# every starting player at once


def evaluate_all_starts(board: str, mode: str = "raw") -> dict[int, EvalResult]:
    """Evaluate a three-player line board once per starting player 1..3,
    through one cache: memo keys carry the mover, so the starts share it."""
    dims, occupancy = parse_board(board)
    cache = EvalCache()
    return {
        start: evaluate(Position(dims, occupancy, start), mode, cache=cache)
        for start in (1, 2, 3)
    }


# ---------------------------------------------------------------------------
# reference evaluator: every mode applied position by position


def reference_evaluate(
    position: Position,
    mode: str,
    profile: NormalizationProfile,
    memo: dict,
    players: int = 3,
) -> EvalResult | Ladder:
    """Evaluate a position by walking the board once per mode.

    Each mode's simplification runs at every board position during the
    walk, instead of as a fold over the raw value.  memo maps resolved
    (occupancy, mover) pairs to results and must be kept per board
    shape, mode, profile and player count.  The root is assumed to have
    a move.
    """
    shape, occupancy, mover = position.shape, position.occupancy, position.mover
    if mode == "prudent":
        return Simple(_reference_prudent(shape, occupancy, mover, memo))
    value = _reference_tree(shape, occupancy, mover, mode, profile, memo, players)
    if mode == "indifferent":
        tokens = sum(1 for b in occupancy if b)
        named = indifferent_class(value, mover, tokens + 1)
        if named is None:
            raise ChainError("evaluation produced a value outside the class ladder")
        # A class deeper than other_0 has no Class, and mismatches evaluate.
        return Class(named.mine) if named.exponent == 0 else named
    return Raw(value)


def _reference_tree(
    shape: tuple[int, int],
    occupancy: bytes,
    mover: int,
    mode: str,
    profile: NormalizationProfile,
    memo: dict,
    players: int,
) -> GameValue:
    key = (occupancy, mover)
    got = memo.get(key)
    if got is not None:
        return got
    after = mover % players + 1
    options = set()
    if movers_mask(shape, occupancy) & (1 << mover):
        for move in legal_moves(shape, occupancy, mover):
            child = apply_move(occupancy, move)
            if movers_mask(shape, child) == 0:
                options.add(leaf(mover))
            else:
                options.add(
                    _reference_tree(shape, child, after, mode, profile, memo, players)
                )
        if mode in ("selfish", "indifferent"):
            options = prune(options, mover, mode, players)
    else:
        options.add(_reference_tree(shape, occupancy, after, mode, profile, memo, players))
    value = choice(options)
    if mode != "raw":
        value = normalize(value, profile, players)
    memo[key] = value
    return value


def _reference_prudent(
    shape: tuple[int, int], occupancy: bytes, mover: int, memo: dict
) -> SimpleValue:
    key = (occupancy, mover)
    got = memo.get(key)
    if got is not None:
        return got
    after = mover % 3 + 1
    if movers_mask(shape, occupancy) & (1 << mover):
        options: set[SimpleValue] = set()
        for move in legal_moves(shape, occupancy, mover):
            child = apply_move(occupancy, move)
            if movers_mask(shape, child) == 0:
                options.add(SimpleValue(mover, 0))
            else:
                options.add(_reference_prudent(shape, child, after, memo))
        best = max(chain_coordinate(s, mover).sort_key for s in options)
        survivors = {s for s in options if chain_coordinate(s, mover).sort_key == best}
        value = merge_incomparable_simples(survivors, mover)
    else:
        value = _reference_prudent(shape, occupancy, after, memo)
    memo[key] = value
    return value


# ---------------------------------------------------------------------------
# reference relations: the recursive kernels as they stood before the
# library's loops, each with its own memo


def _class_rank(v: GameValue, p: int) -> int:
    # 0 loss, 1 mixed, 2 win for player p.
    outs = v.outcomes
    if p in outs:
        return 2 if len(outs) == 1 else 1
    return 0


_REFERENCE_LEQ_CACHE: dict[tuple[GameValue, GameValue, int], bool] = {}
_REFERENCE_PLESS_CACHE: dict[tuple[GameValue, GameValue, int, bool], bool] = {}
_REFERENCE_EXT_CACHE: dict[tuple[GameValue, GameValue], bool] = {}
_REFERENCE_QUOT_CACHE: dict[tuple[GameValue, int], GameValue] = {}


def reference_selfish_leq(x: GameValue, y: GameValue, p: int) -> bool:
    """preferences._leq, through all() over generators."""
    if x is y:
        return True
    cx = _class_rank(x, p)
    cy = _class_rank(y, p)
    if cx != cy:
        return cx < cy
    if x.children is None:
        return False
    key = (x, y, p)
    got = _REFERENCE_LEQ_CACHE.get(key)
    if got is not None:
        return got
    result = all(reference_selfish_leq(xi, y, p) for xi in x.children)
    if not result and y.children is not None:
        result = all(
            reference_selfish_leq(xi, yj, p) for xi in x.children for yj in y.children
        )
    _REFERENCE_LEQ_CACHE[key] = result
    return result


def _reference_strict_less(x: GameValue, y: GameValue, p: int) -> bool:
    return reference_selfish_leq(x, y, p) and not reference_selfish_leq(y, x, p)


def reference_pless(
    x: GameValue, y: GameValue, p: int, option_against_option: bool = True
) -> bool:
    """preferences._pless, recursing on every pair whatever its classes.

    With option_against_option false, the relation drops that clause at
    every level and keeps the other three.
    """
    if x is y:
        return False
    key = (x, y, p, option_against_option)
    got = _REFERENCE_PLESS_CACHE.get(key)
    if got is not None:
        return got
    result = _reference_strict_less(x, y, p)
    if not result and x.children is not None:
        result = _reference_pless_options(x.children, (y,), p, option_against_option)
    if not result and y.children is not None:
        result = _reference_pless_options((x,), y.children, p, option_against_option)
    if (
        not result
        and option_against_option
        and x.children is not None
        and y.children is not None
    ):
        result = _reference_pless_options(x.children, y.children, p)
    _REFERENCE_PLESS_CACHE[key] = result
    return result


def _reference_pless_options(
    xs: tuple[GameValue, ...],
    ys: tuple[GameValue, ...],
    p: int,
    option_against_option: bool = True,
) -> bool:
    witness = False
    for xi in xs:
        for yj in ys:
            if reference_pless(xi, yj, p, option_against_option):
                witness = True
            elif reference_pless(yj, xi, p, option_against_option):
                return False
    return witness


def strict_clause_decides(x: GameValue, y: GameValue, p: int) -> bool:
    """Whether x < y for prudent p holds by the strict selfish clause
    alone: distinct values of one class, not both leaves, that no option
    clause orders."""
    if x is y or _class_rank(x, p) != _class_rank(y, p):
        return False
    xs, ys = x.children, y.children
    if xs is None and ys is None:
        return False
    if xs is not None and _reference_pless_options(xs, (y,), p):
        return False
    if ys is not None and _reference_pless_options((x,), ys, p):
        return False
    if xs is not None and ys is not None and _reference_pless_options(xs, ys, p):
        return False
    return _reference_strict_less(x, y, p)


def reference_ext_leq(x: GameValue, y: GameValue) -> bool:
    """preferences._ext_leq, through all() over generators."""
    if x is y:
        return True
    cx = _class_rank(x, _WIN)
    cy = _class_rank(y, _WIN)
    if cx != cy:
        return cx < cy
    if x.children is None and y.children is None:
        return False
    key = (x, y)
    got = _REFERENCE_EXT_CACHE.get(key)
    if got is not None:
        return got
    result = False
    if x.children is not None:
        result = all(reference_ext_leq(xi, y) for xi in x.children)
    if not result and y.children is not None:
        result = all(reference_ext_leq(x, yj) for yj in y.children)
    if not result and x.children is not None and y.children is not None:
        result = all(reference_ext_leq(xi, yj) for xi in x.children for yj in y.children)
    _REFERENCE_EXT_CACHE[key] = result
    return result


def quotient(v: GameValue, p: int) -> GameValue:
    """preferences._quotient, through a memo the reference kernels keep."""
    return _quotient(v, p, _REFERENCE_QUOT_CACHE)


def _reference_indifferent_strict(x: GameValue, y: GameValue, p: int) -> bool:
    qx = quotient(x, p)
    qy = quotient(y, p)
    return reference_ext_leq(qx, qy) and not reference_ext_leq(qy, qx)


def _reference_indifferent_equal(x: GameValue, y: GameValue, p: int) -> bool:
    qx = quotient(x, p)
    qy = quotient(y, p)
    return reference_ext_leq(qx, qy) and reference_ext_leq(qy, qx)


def reference_leq(x: GameValue, y: GameValue, p: int, base: str = "selfish") -> bool:
    """preferences.leq over the reference kernels and rewriting."""
    x = _reference_prepare(x)
    y = _reference_prepare(y)
    if base == "selfish":
        return reference_selfish_leq(x, y, p)
    return reference_ext_leq(quotient(x, p), quotient(y, p))


def reference_compare(x: GameValue, y: GameValue, p: int, base: str = "selfish") -> Comparison:
    """preferences.compare as two reference_leq calls."""
    fwd = reference_leq(x, y, p, base)
    bwd = reference_leq(y, x, p, base)
    if fwd and bwd:
        return Comparison.EQUAL
    if fwd:
        return Comparison.LESS
    if bwd:
        return Comparison.GREATER
    return Comparison.INCOMPARABLE


def reference_prudent_compare(x: GameValue, y: GameValue, p: int) -> Comparison:
    """preferences.prudent_compare over reference_pless."""
    x = _reference_prepare(x)
    y = _reference_prepare(y)
    if x is y:
        return Comparison.EQUAL
    fwd = reference_pless(x, y, p)
    bwd = reference_pless(y, x, p)
    if fwd and not bwd:
        return Comparison.LESS
    if bwd and not fwd:
        return Comparison.GREATER
    return Comparison.INCOMPARABLE


# ---------------------------------------------------------------------------
# reference parser, folds and run moves: the straightforward versions the
# library's fast paths replaced, kept to check those input for input


def reference_parse_value(text: str, players: int = 3) -> GameValue:
    """values.parse_value as a recursive descent, one call per node."""
    s = text
    n = len(s)
    pos = 0

    def skip_ws() -> None:
        nonlocal pos
        while pos < n and s[pos].isspace():
            pos += 1

    def fail(msg: str) -> ValueSyntaxError:
        return ValueSyntaxError(f"{msg} at offset {pos} in {quote(text)}")

    def parse_one(depth: int) -> GameValue:
        nonlocal pos
        skip_ws()
        if pos >= n:
            raise fail("unexpected end of input")
        ch = s[pos]
        if ch == "[":
            if depth == MAX_DEPTH:
                raise fail(f"brackets nest deeper than {MAX_DEPTH}")
            pos += 1
            items = [parse_one(depth + 1)]
            skip_ws()
            while pos < n and s[pos] == ",":
                pos += 1
                items.append(parse_one(depth + 1))
                skip_ws()
            if pos >= n or s[pos] != "]":
                raise fail("expected ',' or ']'")
            pos += 1
            return choice(items)
        if "0" <= ch <= "9":
            base = int(ch)
            if base == 0 or base > players:
                raise fail(f"player digit must be 1..{players}")
            pos += 1
            if pos < n and s[pos] == "_":
                pos += 1
                start = pos
                exponent = 0
                while pos < n and "0" <= s[pos] <= "9":
                    exponent = 10 * exponent + int(s[pos])
                    if exponent > MAX_EXPONENT:
                        raise fail(f"bar exponent above {MAX_EXPONENT}")
                    pos += 1
                if start == pos:
                    raise fail("expected an exponent after '_'")
                if exponent > 0 and players != 3:
                    raise fail("bar values need a 3-player game")
                if exponent == 0:
                    return leaf(base)
                return expand_simple(SimpleValue(base, exponent))
            return leaf(base)
        raise fail(f"unexpected character {ch!r}")

    v = parse_one(0)
    skip_ws()
    if pos != n:
        raise fail("trailing input")
    return v


def _reference_unwrap_exact(v: GameValue, levels: int) -> Optional[GameValue]:
    """Strip exactly `levels` singleton choice wrappers, else None."""
    cur = v
    for _ in range(levels):
        if cur.children is None or len(cur.children) != 1:
            return None
        cur = cur.children[0]
    return cur


_REFERENCE_NORMAL_CACHE: dict[tuple[GameValue, int, int], GameValue] = {}


def reference_normalize(
    v: GameValue,
    profile: NormalizationProfile = NormalizationProfile.L1,
    players: int = 3,
) -> GameValue:
    """values.normalize, rebuilding every node with choice."""
    if profile == NormalizationProfile.L2 and players != 3:
        raise ValueError("rule1 needs simple values, which are defined for 3 players")
    if v.children is None:
        return v
    key = (v, int(profile), players)
    got = _REFERENCE_NORMAL_CACHE.get(key)
    if got is not None:
        return got
    node = choice(reference_normalize(c, profile, players) for c in v.children)
    if profile >= NormalizationProfile.L1:
        while node.children is not None:
            inner = _reference_unwrap_exact(node, players)
            if inner is not None:
                node = inner
                continue
            spliced: list[GameValue] = []
            changed = False
            for c in node.children:
                mid = _reference_unwrap_exact(c, players - 1)
                if mid is not None and mid.children is not None:
                    spliced.extend(mid.children)
                    changed = True
                else:
                    spliced.append(c)
            if changed:
                node = choice(spliced)
                continue
            if profile == NormalizationProfile.L2 and len(node.children) == 1:
                only = node.children[0]
                if match_simple(only) is not None:
                    node = only
                    continue
            break
    _REFERENCE_NORMAL_CACHE[key] = node
    return node


def _reference_prepare(v: GameValue, players: int = 3) -> GameValue:
    # Comparisons are defined on fully rewritten values.
    if players == 3 and v.outcomes <= {1, 2, 3}:
        return reference_normalize(v, NormalizationProfile.L2, 3)
    return reference_normalize(v, NormalizationProfile.L1, players)


def reference_prune(
    options: Iterable[GameValue], p: int, mode: str = "selfish", players: int = 3
) -> set[GameValue]:
    """preferences.prune, comparing every pair of options."""
    opts = set(options)
    if not opts:
        raise ValueError("cannot prune an empty set of options")
    if mode == "selfish":
        strict: Callable[[GameValue, GameValue], bool] = lambda a, b: _reference_strict_less(
            a, b, p
        )
    elif mode == "indifferent":
        strict = lambda a, b: _reference_indifferent_strict(a, b, p)
    else:
        raise ValueError(f"unknown preference mode {mode!r}")
    proxy = {v: _reference_prepare(v, players) for v in opts}
    survivors = {
        v
        for v in opts
        if not any(strict(proxy[v], proxy[w]) for w in opts if proxy[w] is not proxy[v])
    }
    if not survivors:
        survivors = opts
    if mode == "indifferent" and len(survivors) > 1:
        merged: list[GameValue] = []
        for v in sorted(survivors, key=lambda v: v.text):
            if not any(_reference_indifferent_equal(proxy[v], proxy[rep], p) for rep in merged):
                merged.append(v)
        survivors = set(merged)
    return survivors


def reference_prune_fold(
    v: GameValue,
    mover: int,
    mode: str,
    profile: NormalizationProfile,
    players: int,
    memo: dict[tuple[GameValue, int], GameValue],
) -> GameValue:
    """preferences.pruning_fold walked over the value tree v, through the
    reference prune and normalize."""
    if v.children is None:
        return v
    key = (v, mover)
    got = memo.get(key)
    if got is None:
        after = mover % players + 1
        options = {
            reference_prune_fold(c, after, mode, profile, players, memo)
            for c in v.children
        }
        got = reference_normalize(
            choice(reference_prune(options, mover, mode, players)), profile, players
        )
        memo[key] = got
    return got


def reference_prudent_simplify(
    v: GameValue,
    mover: int,
    memo: Optional[dict[tuple[GameValue, int], SimpleValue]] = None,
) -> SimpleValue:
    """preferences.prudent_simplify through ChainCoordinate sort keys and
    merge_incomparable_simples."""
    if not 1 <= mover <= 3:
        raise ValueError(f"mover {mover} out of range for three players")
    if not v.outcomes <= {1, 2, 3}:
        raise ValueError("prudent simplification is defined for three players")
    if v.children is None:
        return SimpleValue(v.winner, 0)
    if memo is None:
        memo = {}
    key = (v, mover)
    got = memo.get(key)
    if got is None:
        after = mover % 3 + 1
        if len(v.children) == 1:
            got = reference_prudent_simplify(v.children[0], after, memo)
        else:
            options = {reference_prudent_simplify(c, after, memo) for c in v.children}
            best = max(chain_coordinate(s, mover).sort_key for s in options)
            kept = {s for s in options if chain_coordinate(s, mover).sort_key == best}
            got = merge_incomparable_simples(kept, mover)
        memo[key] = got
    return got


def _reference_live_runs(pieces: Iterable[bytes]) -> tuple[bytes, ...]:
    return tuple(sorted(max(r, r[::-1]) for r in pieces if r.strip(r[:1])))


def reference_run_moves(run: bytes, player: int) -> tuple[tuple[bytes, ...], ...]:
    """game_core.run_moves, canonicalizing each split through sorted()."""
    found: set[tuple[bytes, ...]] = set()
    for i in range(len(run) - 1):
        a, b = run[i], run[i + 1]
        if a == player != b:
            found.add(_reference_live_runs((run[:i], bytes((a,)) + run[i + 2 :])))
        elif b == player != a:
            found.add(_reference_live_runs((run[:i] + bytes((b,)), run[i + 2 :])))
    return tuple(sorted(found))


def cache_entries(cache: EvalCache) -> int:
    """How many entries cache holds: the sizes of every table of its
    memo, summed."""
    return sum(map(len, cache.entries.values()))


def walk_entries(cache: EvalCache) -> int:
    """How many results the walks keep in cache: the sizes of the memo's
    walk tables, those under (fold, mover), summed."""
    return sum(len(table) for tag, table in cache.entries.items() if isinstance(tag, tuple))


def reference_eval_graph(shape: tuple[int, int], occupancy: bytes, mover: int, cache) -> GameValue:
    """The move-by-move position walk that grid bitboards replaced:
    raw value of (occupancy, mover) on any board, through the move-level
    API, memoized in a table of cache.entries of its own, under this
    function, on (shape, occupancy, mover)."""
    key = (shape, occupancy, mover)
    table = cache.entries.setdefault(reference_eval_graph, {})
    got = table.get(key)
    if got is not None:
        return got
    players = cache.players
    mask = movers_mask(shape, occupancy)
    if not mask:
        # The game is over: the player before the mover moved last.
        return leaf((mover - 2) % players + 1)
    after = mover % players + 1
    options = set()
    if mask & (1 << mover):
        for move in legal_moves(shape, occupancy, mover):
            options.add(reference_eval_graph(shape, apply_move(occupancy, move), after, cache))
    else:
        # The mover passes: a forced continuation, one list level.
        options.add(reference_eval_graph(shape, occupancy, after, cache))
    value = table[key] = choice(options)
    return value

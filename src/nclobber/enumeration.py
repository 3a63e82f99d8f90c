"""1xn board enumeration: filters, exact counts, value censuses, tables.

The experiment sweeps every novel 1xn line board with player 1 to move
and counts the distinct values under four regimes:

  unsimplified   raw canonical trees
  syntactic      the raw trees rewritten with the normalization profile
  selfish        the raw trees folded with selfish pruning and rewriting
  prudent        the raw trees collapsed to simple values by prudent play

Each board is traversed once, into its raw value, and only the distinct
raw values go on: every regime is a fold of them (solver.fold_raw), and
each distinct result is rendered once.

Novelty filters (all on for the reference counts): no blank end cells,
no two adjacent blanks, only boards at least as large as their mirror
image, and at least one legal opening move for somebody.  The number of
filtered boards has a closed form — a transfer-matrix pass over (last
cell, movable-pair-seen) states, with palindromes counted explicitly to
undo the mirror halving — so census sizes are checkable without
generating a single board.

Censuses parallelize over boards: each worker collects the distinct raw
values of a disjoint slice, folds them itself and returns the rendered
value strings, which merge by set union, so reports are identical for
any worker count.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .game_core import Position, parse_board
from .solver import EvalCache, Folds, evaluate, fold_raw, render_result
from .values import DEFAULT_PROFILE, GameValue, NormalizationProfile

REGIMES = ("unsimplified", "syntactic", "selfish", "prudent")

# Reference counts for the 1xn experiment (published values; the golden
# data the acceptance gate pins against).
PUBLISHED_COUNTS: dict[str, dict[int, int]] = {
    "games": {
        2: 3, 3: 15, 4: 60, 5: 243, 6: 924, 7: 3609, 8: 13704,
        9: 52497, 10: 199329, 11: 758556, 12: 2878512, 13: 10949499,
    },
    "unsimplified": {
        2: 2, 3: 3, 4: 7, 5: 21, 6: 77, 7: 506, 8: 2408,
        9: 9777, 10: 36407, 11: 128345, 12: 434571, 13: 1441816,
    },
    "syntactic": {
        2: 2, 3: 3, 4: 7, 5: 21, 6: 77, 7: 501, 8: 2398,
        9: 9748, 10: 36326, 11: 128179, 12: 434274, 13: 1441334,
    },
    "selfish": {
        2: 2, 3: 3, 4: 4, 5: 5, 6: 7, 7: 8, 8: 9,
        9: 20, 10: 154, 11: 2163, 12: 30378, 13: 256975,
    },
    "prudent": {
        2: 2, 3: 3, 4: 4, 5: 5, 6: 7, 7: 8, 8: 8,
        9: 10, 10: 11, 11: 13, 12: 13, 13: 14,
    },
}


@dataclass(frozen=True)
class BoardFilter:
    """Which novelty filters board generation applies.

    All four default on, which reproduces the reference "games analysed"
    counts.  mirror_canonical keeps the boards that are lexicographically
    at least their reversal, one per reflection pair.
    """

    players: int = 3
    no_edge_zeros: bool = True
    no_double_zeros: bool = True
    mirror_canonical: bool = True
    movable: bool = True


def _alphabet(players: int) -> str:
    if not 1 <= players <= 9:
        raise ValueError(f"player count must be 1..9, got {players}")
    return "0" + "".join(str(d) for d in range(1, players + 1))


def _has_move(board: str) -> bool:
    return any(a != "0" != b and a != b for a, b in zip(board, board[1:]))


def board_passes(board: str, flt: BoardFilter = BoardFilter()) -> bool:
    """Independent re-check that a board string satisfies the filter."""
    alphabet = _alphabet(flt.players)
    if not board or any(ch not in alphabet for ch in board):
        return False
    if flt.no_edge_zeros and (board[0] == "0" or board[-1] == "0"):
        return False
    if flt.no_double_zeros and "00" in board:
        return False
    if flt.mirror_canonical and board < board[::-1]:
        return False
    if flt.movable and not _has_move(board):
        return False
    return True


def generate_boards(n: int, flt: BoardFilter = BoardFilter()) -> Iterator[str]:
    """All length-n boards passing the filter, in ascending text order."""
    if n < 1:
        raise ValueError("board length must be positive")
    alphabet = _alphabet(flt.players)
    last = n - 1
    buf: list[str] = []

    def rec(i: int) -> Iterator[str]:
        for ch in alphabet:
            if ch == "0":
                if flt.no_edge_zeros and (i == 0 or i == last):
                    continue
                if flt.no_double_zeros and i > 0 and buf[-1] == "0":
                    continue
            buf.append(ch)
            if i == last:
                s = "".join(buf)
                if (not flt.mirror_canonical or s >= s[::-1]) and (
                    not flt.movable or _has_move(s)
                ):
                    yield s
            else:
                yield from rec(i + 1)
            buf.pop()

    return rec(0)


def _count_linear(n: int, flt: BoardFilter) -> int:
    # One pass over (last cell, movable-pair-seen) states.
    symbols = range(flt.players + 1)
    state: dict[tuple[int, bool], int] = {}
    for c in symbols:
        if c == 0 and flt.no_edge_zeros:
            continue
        state[(c, False)] = state.get((c, False), 0) + 1
    for _ in range(n - 1):
        nxt: dict[tuple[int, bool], int] = {}
        for (prev, seen), ways in state.items():
            for c in symbols:
                if c == 0 and prev == 0 and flt.no_double_zeros:
                    continue
                key = (c, seen or (prev != 0 and c != 0 and c != prev))
                nxt[key] = nxt.get(key, 0) + ways
        state = nxt
    total = 0
    for (prev, seen), ways in state.items():
        if flt.no_edge_zeros and prev == 0:
            continue
        if flt.movable and not seen:
            continue
        total += ways
    return total


def _count_palindromes(n: int, flt: BoardFilter) -> int:
    # Palindromes are cheap to list outright: one free half-string.  A
    # palindrome is its own mirror, so the mirror filter passes it.
    half = (n + 1) // 2
    total = 0
    for head in itertools.product(_alphabet(flt.players), repeat=half):
        s = "".join(head) + "".join(reversed(head[: n // 2]))
        if board_passes(s, flt):
            total += 1
    return total


def count_boards(n: int, flt: BoardFilter = BoardFilter()) -> int:
    """How many boards generate_boards(n, flt) yields, without generating.

    Mirror canonicalization keeps one board per reflection pair, so the
    filtered total T and palindrome count P combine to (T + P) / 2.
    """
    if n < 1:
        raise ValueError("board length must be positive")
    total = _count_linear(n, flt)
    if not flt.mirror_canonical:
        return total
    return (total + _count_palindromes(n, flt)) // 2


# ---------------------------------------------------------------------------
# value censuses


@dataclass(frozen=True)
class EnumerationReport:
    """Census of distinct values over the filtered boards of one length."""

    board_length: int
    games_analysed: int
    unique_values: dict[str, int]
    value_inventory: Optional[dict[str, tuple[str, ...]]] = None


def _check_modes(modes: Sequence[str], players: int) -> tuple[str, ...]:
    out = tuple(modes)
    for m in out:
        if m not in REGIMES:
            raise ValueError(f"unknown census regime {m!r}; expected one of {REGIMES}")
    if "prudent" in out and players != 3:
        raise ValueError("the prudent regime is defined for exactly three players")
    if len(set(out)) != len(out):
        raise ValueError(f"duplicate regimes in {out}")
    return out


def raw_values(boards: Iterable[str], players: int = 3) -> set[GameValue]:
    """The distinct raw values of line boards of any lengths, player 1
    to move, through one cache."""
    roots: set[GameValue] = set()
    cache = EvalCache(players)
    for board in boards:
        graph, occupancy = parse_board(board, players=players)
        position = Position(graph, occupancy, 1)
        roots.add(evaluate(position, "raw", cache=cache, players=players).value)
    return roots


def _census_chunk(args: tuple) -> dict[str, set[str]]:
    """Distinct rendered values per regime over one batch of boards."""
    boards, modes, profile_level, players = args
    profile = NormalizationProfile(profile_level)
    roots = raw_values(boards, players)
    folds: Folds = {}
    out: dict[str, set[str]] = {}
    for m in modes:
        mode = "raw" if m == "unsimplified" else m
        results = {fold_raw(raw, 1, mode, profile, players, folds) for raw in roots}
        out[m] = {render_result(result, "bar") for result in results}
    return out


def enumerate_values(
    n: int,
    modes: Sequence[str] = REGIMES,
    profile: NormalizationProfile = DEFAULT_PROFILE,
    workers: int = 1,
    collect_inventory: Optional[bool] = None,
    players: int = 3,
) -> EnumerationReport:
    """Evaluate every filtered 1xn board, player 1 to move, per regime.

    collect_inventory defaults to on for n <= 10, where keeping the
    sorted value lists costs little and makes count diffs diagnosable.
    Workers split the boards into slices with independent caches, run
    by at most one process per CPU; the merged report does not depend on
    the worker count.
    """
    modes = _check_modes(modes, players)
    if collect_inventory is None:
        collect_inventory = n <= 10
    boards = list(generate_boards(n, BoardFilter(players=players)))
    chunks = [boards[i::workers] for i in range(workers)]
    payloads = [(chunk, modes, int(profile), players) for chunk in chunks if chunk]
    if len(payloads) <= 1:
        partials = [_census_chunk(p) for p in payloads]
    else:
        processes = min(len(payloads), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=processes) as pool:
            partials = list(pool.map(_census_chunk, payloads))
    merged: dict[str, set[str]] = {m: set() for m in modes}
    for part in partials:
        for m, values in part.items():
            merged[m].update(values)
    counts = {m: len(values) for m, values in merged.items()}
    inventory = (
        {m: tuple(sorted(values)) for m, values in merged.items()}
        if collect_inventory
        else None
    )
    return EnumerationReport(n, len(boards), counts, inventory)


def render_reports(
    reports: Sequence[EnumerationReport],
    fmt: str = "csv",
    modes: Optional[Sequence[str]] = None,
) -> str:
    """Serialize censuses; csv columns are n,games,<one per regime>."""
    if modes is None:
        modes = tuple(reports[0].unique_values) if reports else REGIMES
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "games", *modes])
        for rep in reports:
            writer.writerow(
                [rep.board_length, rep.games_analysed]
                + [rep.unique_values[m] for m in modes]
            )
        return buf.getvalue().rstrip("\n")
    if fmt == "json":
        payload = []
        for rep in reports:
            entry: dict = {
                "board_length": rep.board_length,
                "games_analysed": rep.games_analysed,
                "unique_values": {m: rep.unique_values[m] for m in modes},
            }
            if rep.value_inventory is not None:
                entry["inventory"] = {
                    m: list(rep.value_inventory[m]) for m in modes
                }
            payload.append(entry)
        return json.dumps(payload, indent=2)
    raise ValueError(f"unknown report format {fmt!r}")

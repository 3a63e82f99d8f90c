"""1xn board enumeration: board generation, exact counts, value censuses.

The experiment sweeps every novel 1xn line board with player 1 to move
and counts the distinct values under four regimes:

  unsimplified   raw canonical trees
  syntactic      the raw trees rewritten with the normalization profile
  selfish        the raw trees folded with selfish pruning and rewriting
  prudent        the raw trees collapsed to simple values by prudent play

A board is novel when it has no blank end cell, no two adjacent blanks,
is at least as large as its mirror image, and has at least one legal
opening move for somebody.  The number of novel boards has a closed
form — a transfer-matrix pass over (last cell, movable-pair-seen)
states, run on the board length and on its halves, whose counts give
the palindromes that undo the mirror halving (count_boards) — so
census sizes are checkable without generating a single board.

A census builds no board either.  A line position's value depends only
on its live-run key (game_core.line_runs), and many boards share one,
so run_keys lists the keys of the novel boards directly and each key is
traversed once, into its raw value (solver.evaluate_runs).  Only the
distinct raw values go on: every regime is a fold of them
(solver.fold_raw), one regime at a time, each through a cache that is
freed when the regime is done.  The key list is dropped before the folds.

Results are rendered only when they are listed or merged across
workers.  Values are interned, so equal results are equal objects, and
bar rendering is injective: a census with no inventory in one process
counts its distinct results and renders none.  With an inventory each
distinct result is rendered once.

Censuses parallelize over keys: the sorted keys are cut into one slice
per process, each process collects the distinct raw values of its
slice, folds them itself and returns the rendered value strings, which
merge by set union, so reports are identical for any worker count.
The process pool is imported only when a census runs more than one worker.
"""

from __future__ import annotations

import itertools
import os
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .solver import EvalCache, evaluate_runs, fold_raw, render_result
from .values import DEFAULT_PROFILE, GameValue, NormalizationProfile

REGIMES = ("unsimplified", "syntactic", "selfish", "prudent")


def _alphabet(players: int) -> str:
    if not 1 <= players <= 9:
        raise ValueError(f"player count must be 1..9, got {players}")
    return "0" + "".join(str(d) for d in range(1, players + 1))


def _has_move(board: str) -> bool:
    return any(a != "0" != b and a != b for a, b in zip(board, board[1:]))


def generate_boards(n: int, players: int = 3) -> Iterator[str]:
    """All novel length-n boards, in ascending text order."""
    if n < 1:
        raise ValueError("board length must be positive")
    alphabet = _alphabet(players)
    last = n - 1
    buf: list[str] = []

    def rec(i: int) -> Iterator[str]:
        for ch in alphabet:
            if ch == "0" and (i == 0 or i == last or buf[-1] == "0"):
                continue
            buf.append(ch)
            if i == last:
                s = "".join(buf)
                if s >= s[::-1] and _has_move(s):
                    yield s
            else:
                yield from rec(i + 1)
            buf.pop()

    return rec(0)


def run_keys(n: int, players: int = 3) -> list[tuple[bytes, ...]]:
    """The distinct live-run keys (game_core.line_runs) of the novel
    length-n boards, in ascending order, without building a board.

    A novel board is non-empty segments joined by single blanks; its
    live segments, read the larger way round, are its key.  With W the
    sum of (length + 1) over the key's runs, the one-colour segments and
    their blanks fill the other n + 1 - W cells: none when W = n + 1, and
    two or more when W <= n - 1 (one segment fills any such room).  A
    board and its mirror share their key, and a board has a move exactly
    when its key is non-empty.

    The runs are listed over every colouring of up to n cells, so a
    census with more colourings than the paper's largest row, 3 ** 13,
    is refused before that walk.
    """
    if n < 1:
        raise ValueError("board length must be positive")
    _alphabet(players)
    if players**n > 3**13:
        raise ValueError(
            f"a census of {n} cells for {players} players is too large: "
            f"{players}**{n} colourings exceed 3**13"
        )
    # Every canonical live run of length 2..n, by length, then bytes.
    runs = [
        run
        for m in range(2, n + 1)
        for run in map(bytes, itertools.product(range(1, players + 1), repeat=m))
        if run >= run[::-1] and run.strip(run[:1])
    ]
    keys: list[tuple[bytes, ...]] = []
    chosen: list[bytes] = []

    # Each multiset of runs once, chosen in list order; room is n + 1 - W.
    def extend(start: int, room: int) -> None:
        if chosen and room != 1:
            keys.append(tuple(sorted(chosen)))
        for j in range(start, len(runs)):
            run = runs[j]
            if len(run) >= room:
                break
            chosen.append(run)
            extend(j, room - len(run) - 1)
            chosen.pop()

    extend(0, n + 1)
    keys.sort()
    return keys


def _count_linear(n: int, players: int, movable: bool) -> int:
    # L(n) of count_boards: one pass over (last cell, movable-pair-seen)
    # states, before the mirror halving.
    symbols = range(players + 1)
    state: dict[tuple[int, bool], int] = {(c, False): 1 for c in symbols if c != 0}
    for _ in range(n - 1):
        nxt: dict[tuple[int, bool], int] = {}
        for (prev, seen), ways in state.items():
            for c in symbols:
                if c == 0 and prev == 0:
                    continue
                key = (c, seen or (prev != 0 and c != 0 and c != prev))
                nxt[key] = nxt.get(key, 0) + ways
        state = nxt
    total = 0
    for (prev, seen), ways in state.items():
        if prev == 0:
            continue
        if movable and not seen:
            continue
        total += ways
    return total


def count_boards(n: int, players: int = 3, movable: bool = True) -> int:
    """How many boards generate_boards(n, players) yields, without
    generating them; movable=False also counts the boards without a move.

    With L(m) the strings of length m that have occupied ends, no two
    adjacent blanks and, if movable, a movable pair, the mirror
    condition keeps one board per reflection pair, so L(n) and the
    palindrome count P(n) combine to (L(n) + P(n)) / 2.  A palindrome is
    fixed by its first ceil(n/2) cells, and every other pair mirrors a
    pair among them, except at the middle.  For n = 2k the middle pair
    is a cell beside its own copy: occupied, and never a move, so
    P = L(k).  For n = 2k + 1 the middle cell is a token, which ends a
    half of k + 1 cells, or a blank between two equal tokens, after a
    half of k cells: P = L(k + 1) + L(k) for k >= 1, and P(1) = L(1).
    """
    if n < 1:
        raise ValueError("board length must be positive")
    _alphabet(players)
    half = n // 2
    palindromes = _count_linear(n - half, players, movable)
    if n % 2 and half:
        palindromes += _count_linear(half, players, movable)
    return (_count_linear(n, players, movable) + palindromes) // 2


# ---------------------------------------------------------------------------
# value censuses


class EnumerationReport(NamedTuple):
    """Census of distinct values over the filtered boards of one length."""

    board_length: int
    games_analysed: int
    unique_values: dict[str, int]
    value_inventory: Optional[dict[str, tuple[str, ...]]] = None


def _check_modes(modes: Optional[Sequence[str]], players: int) -> tuple[str, ...]:
    if modes is None:  # prudent play is defined for three players only
        return tuple(m for m in REGIMES if m != "prudent" or players == 3)
    out = tuple(modes)
    for m in out:
        if m not in REGIMES:
            raise ValueError(f"unknown census regime {m!r}; expected one of {REGIMES}")
    if "prudent" in out and players != 3:
        raise ValueError("the prudent regime is defined for exactly three players")
    if len(set(out)) != len(out):
        raise ValueError(f"duplicate regimes in {out}")
    return out


def raw_values(keys: Iterable[tuple[bytes, ...]], players: int = 3) -> set[GameValue]:
    """The distinct raw values, player 1 to move, of line positions
    given by their live-run keys (run_keys), through one cache.

    Every run is a shorter line, so keys of different lengths share
    memo entries.
    """
    cache = EvalCache(players)
    return {evaluate_runs(key, 1, cache) for key in keys}


def _results(roots: set[GameValue], m: str, profile: NormalizationProfile, players: int) -> set:
    """One regime's distinct results over the raw values roots, through a
    cache that is freed on return.  Values are interned, so equal
    results are equal objects, and bar rendering is injective: there are
    as many results as distinct renderings.
    """
    mode = "raw" if m == "unsimplified" else m
    cache = EvalCache(players)
    return {fold_raw(raw, 1, mode, profile, cache) for raw in roots}


def _rendered(
    roots: set[GameValue], modes: Sequence[str], profile: NormalizationProfile, players: int
) -> dict[str, set[str]]:
    """Each regime's distinct results over roots, rendered in bar style
    (brackets outside three-player games)."""
    return {
        m: {render_result(r, "bar", players) for r in _results(roots, m, profile, players)}
        for m in modes
    }


def _census_chunk(args: tuple) -> dict[str, set[str]]:
    """Distinct rendered values per regime over one batch of keys."""
    keys, modes, profile, players = args
    return _rendered(raw_values(keys, players), modes, profile, players)


def enumerate_values(
    n: int,
    modes: Optional[Sequence[str]] = None,
    profile: NormalizationProfile = DEFAULT_PROFILE,
    workers: int = 1,
    collect_inventory: Optional[bool] = None,
    players: int = 3,
) -> EnumerationReport:
    """Evaluate every novel 1xn board, player 1 to move, per regime.

    modes defaults to every regime defined for the player count: all of
    REGIMES for three players, all but prudent otherwise.  The report's
    unique_values, and its inventory, list the regimes in modes order.
    collect_inventory defaults to on for n <= 10, where keeping the
    sorted value lists costs little and makes count diffs diagnosable.
    The sorted run keys are cut into min(workers, CPUs) slices with
    independent caches, one process each; the merged report does not
    depend on the worker count.  One process renders results only when
    it lists them; without an inventory it counts them.  Workers cost
    memory: they hand back the text of every result, so a census on more
    than one renders every value.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    modes = _check_modes(modes, players)
    if collect_inventory is None:
        collect_inventory = n <= 10
    games = count_boards(n, players)
    keys = run_keys(n, players)
    # A slice per process, and none of them empty.
    k = min(workers, os.cpu_count() or 1, len(keys))
    if k <= 1:
        roots = raw_values(keys, players)
        del keys  # the folds need only the raw values
        if not collect_inventory:
            counts = {m: len(_results(roots, m, profile, players)) for m in modes}
            return EnumerationReport(n, games, counts)
        merged = _rendered(roots, modes, profile, players)
    else:
        payloads = [(keys[i::k], modes, profile, players) for i in range(k)]
        del keys
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=k) as pool:
            partials = list(pool.map(_census_chunk, payloads))
        merged = {m: set().union(*(part[m] for part in partials)) for m in modes}
    counts = {m: len(values) for m, values in merged.items()}
    inventory = (
        {m: tuple(sorted(values)) for m, values in merged.items()}
        if collect_inventory
        else None
    )
    return EnumerationReport(n, games, counts, inventory)


def render_reports(reports: Sequence[EnumerationReport], fmt: str = "csv") -> str:
    """Serialize censuses of the same regimes; csv columns are
    n,games,<one per regime>, in the order the first report lists its
    regimes (all of REGIMES when there is no report)."""
    import csv
    import io
    import json
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

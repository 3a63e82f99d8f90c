#!/usr/bin/env python3
"""Digest every solve of the novel line boards up to a length, and of a
fixed sample of grid boards.

For each player count, and each mode defined for it, print two lines:
the number of solves and a sha256 over their rendered results, first
for lines, then for grids.  The line boards are the live-run keys of
the novel 1xn boards for n = 2..max-n (enumeration.run_keys), each
solved as its runs joined by single blanks.  The grid boards are a
seeded sample of GRID_BOARDS boards for each of GRID_SHAPES, 2x2 to 3x4
and a thin 6x1; a board with no opening move digests as "no move".
Every board is solved once for every start, through
solver.evaluate_text.  Two checkouts that print the same lines give the
same answer to every one of these solves, which is how a refactor shows
it changed no output.

Usage:
    python3 scripts/solve_digest.py --max-n 9
    python3 scripts/solve_digest.py --players 2 4 5 --max-n 7
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys

from nclobber.enumeration import run_keys
from nclobber.solver import MODES, EvalCache, NoMoveError, evaluate_text, render_result

GRID_SHAPES = [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (3, 4), (6, 1)]
GRID_BOARDS = 40  # per shape


def digest(players: int, mode: str, max_n: int) -> tuple[int, str]:
    """(solves, sha256 hex) over every key up to max_n and every start."""
    keys = sorted({key for n in range(2, max_n + 1) for key in run_keys(n, players)})
    cache = EvalCache(players)
    sha = hashlib.sha256()
    solves = 0
    for key in keys:
        board = "0".join("".join(map(str, run)) for run in key)
        for start in range(1, players + 1):
            result = evaluate_text(board, start, mode, players=players, cache=cache)
            sha.update(f"{board} {start} {render_result(result)}\n".encode())
            solves += 1
    return solves, sha.hexdigest()


def grid_digest(players: int, mode: str) -> tuple[int, str]:
    """(solves, sha256 hex) over the grid sample and every start."""
    rng = random.Random(f"solve-digest-grids:{players}")
    tokens = "0" + "123456789"[:players]
    cache = EvalCache(players)
    sha = hashlib.sha256()
    solves = 0
    for rows, cols in GRID_SHAPES:
        for _ in range(GRID_BOARDS):
            board = "".join(rng.choice(tokens) for _ in range(rows * cols))
            for start in range(1, players + 1):
                try:
                    result = evaluate_text(
                        board, start, mode, players=players, shape=(rows, cols), cache=cache
                    )
                    text = render_result(result)
                except NoMoveError:
                    text = "no move"
                sha.update(f"{board} {rows}x{cols} {start} {text}\n".encode())
                solves += 1
    return solves, sha.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--players", type=int, nargs="+", default=[3], help="player counts (default: 3)"
    )
    parser.add_argument("--max-n", type=int, default=9, help="longest board length (default: 9)")
    args = parser.parse_args(argv)
    for players in args.players:
        for mode in MODES:
            if mode == "prudent" and players != 3:
                continue  # prudent play is defined for three players only
            solves, hexdigest = digest(players, mode, args.max_n)
            print(
                f"players={players} mode={mode} max_n={args.max_n} "
                f"solves={solves} sha256={hexdigest}",
                flush=True,
            )
            solves, hexdigest = grid_digest(players, mode)
            print(
                f"players={players} mode={mode} grids={len(GRID_SHAPES) * GRID_BOARDS} "
                f"solves={solves} sha256={hexdigest}",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Digest every solve of the novel line boards up to a length.

For each player count, and each mode defined for it, print one line:
the number of solves and a sha256 over their rendered results.  The
boards are the live-run keys of the novel 1xn boards for n = 2..max-n
(enumeration.run_keys), each solved as its runs joined by single
blanks, once for every start, through solver.evaluate_text.  Two
checkouts that print the same lines give the same answer to every one
of these solves, which is how a refactor shows it changed no output.

Usage:
    python3 scripts/solve_digest.py --max-n 9
    python3 scripts/solve_digest.py --players 2 4 5 --max-n 7
"""

from __future__ import annotations

import argparse
import hashlib
import sys

from nclobber.enumeration import run_keys
from nclobber.solver import MODES, EvalCache, evaluate_text, render_result


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
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded inputs and expected outcomes for the benchmark workloads.

census-n9      one four-regime `enumerate_values(9)` call, workers=1
solve-stream   in-process `nclobber solve` requests on lines and grids
value-algebra  in-process `nclobber simplify` / `compare` requests

Each request stream sends one fixed request set, built from a fixed pool
seed, whose outcomes are pinned in goldens.json.gz.  The run seed sets
the order the requests are sent in (and, through bench/run.py, the hash
seed), so every seed is checked against goldens and seeds differ in
order and hashing rather than in how much work a pass holds.  A request
is an argv list for `nclobber.cli.main`.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import random
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
GOLDENS = BENCH_DIR / "goldens.json.gz"

WORKLOADS = ("census-n9", "solve-stream", "value-algebra")

MODES = ("raw", "syntactic", "selfish", "indifferent", "prudent")

SOLVE_POOL_SIZE = 1000
ALGEBRA_POOL_SIZE = 2999  # plus the over-deep text: 3000 requests a pass

# Deeper than the default recursion limit of 1000.
DEEP_NESTING = 3000
DEEP_TEXT = "[" * DEEP_NESTING + "1" + "]" * DEEP_NESTING

CENSUS_N = 9
CENSUS_REGIMES = ("unsimplified", "syntactic", "selfish", "prudent")


# ---------------------------------------------------------------------------
# solve-stream


def _line_board(rng: random.Random) -> str:
    # Dense: every cell holds a token except rare single interior blanks.
    n = rng.randint(11, 13)
    cells: list[str] = []
    for i in range(n):
        if 0 < i < n - 1 and cells[-1] != "0" and rng.random() < 0.08:
            cells.append("0")
        else:
            cells.append(rng.choice("123"))
    return "".join(cells)


def _grid_board(rng: random.Random, rows: int, cols: int) -> str:
    return "".join(
        "0" if rng.random() < 0.15 else rng.choice("123") for _ in range(rows * cols)
    )


def _frozen_grid(rng: random.Random, rows: int, cols: int) -> str:
    # One player's tokens and blanks only: nobody has an opening move.
    owner = rng.choice("123")
    return "".join(owner if rng.random() < 0.7 else "0" for _ in range(rows * cols))


def solve_pool() -> list[list[str]]:
    """The fixed solve-request pool: 80% lines of length 11-13, 20% grids.

    Entry i asks for mode MODES[i % 5]; render style varies where it
    does not change what the consistency checks compare.
    """
    rng = random.Random("solve-pool-v1")
    pool: list[list[str]] = []
    for i in range(SOLVE_POOL_SIZE):
        mode = MODES[i % len(MODES)]
        roll = rng.random()
        if roll < 0.80:
            argv = ["solve", _line_board(rng)]
        else:
            rows, cols = (2, 5) if roll < 0.88 else (3, 3) if roll < 0.96 else (3, 4)
            board = (
                _frozen_grid(rng, rows, cols)
                if rng.random() < 0.03
                else _grid_board(rng, rows, cols)
            )
            argv = ["solve", board, "--grid", f"{rows}x{cols}"]
        argv += ["--mode", mode, "--start", str(rng.randint(1, 3))]
        if mode in ("raw", "selfish") and rng.random() < 0.3:
            argv += ["--render", "bar"]
        pool.append(argv)
    return pool


def solve_requests(seed: int) -> list[tuple[int, list[str]]]:
    """(pool index, argv) for one pass; modes cycle through all five."""
    rng = random.Random(f"solve-stream:{seed}")
    by_mode = [list(range(k, SOLVE_POOL_SIZE, len(MODES))) for k in range(len(MODES))]
    for indices in by_mode:
        rng.shuffle(indices)
    pool = solve_pool()
    order = [by_mode[j % len(MODES)][j // len(MODES)] for j in range(SOLVE_POOL_SIZE)]
    return [(i, pool[i]) for i in order]


# ---------------------------------------------------------------------------
# value-algebra


def _value_text(rng: random.Random, depth: int, root: bool = False) -> str:
    if depth == 0 or (not root and rng.random() < 0.3):
        base = rng.choice("123")
        if rng.random() < 0.3:
            return f"{base}_{rng.randint(1, 5)}"
        return base
    width = rng.choices((1, 2, 3), weights=(25, 45, 30))[0]
    return "[" + ",".join(_value_text(rng, depth - 1) for _ in range(width)) + "]"


def _malformed(rng: random.Random, text: str) -> str:
    kind = rng.randrange(3)
    if kind == 0:  # unbalanced brackets
        return "[" + text if text[-1] != "]" else text[:-1]
    if kind == 1:  # a player digit the 3-player game does not have
        digits = [
            i for i, ch in enumerate(text) if ch in "123" and text[i - 1 : i] != "_"
        ]
        i = rng.choice(digits)
        return text[:i] + "4" + text[i + 1 :]
    return text + rng.choice((",1", "]", " 2"))  # trailing input


def algebra_pool() -> list[list[str]]:
    """The fixed simplify/compare pool; about 2% of texts are malformed."""
    rng = random.Random("value-algebra-pool-v1")
    pool: list[list[str]] = []

    def text() -> str:
        t = _value_text(rng, rng.randint(3, 8), root=True)
        return _malformed(rng, t) if rng.random() < 0.013 else t

    for i in range(ALGEBRA_POOL_SIZE):
        p = str(rng.randint(1, 3))
        if i % 2 == 0:
            mode = ("raw", "selfish", "indifferent", "prudent")[(i // 2) % 4]
            argv = ["simplify", text(), "--mode", mode]
            if mode != "raw":
                argv += ["--perspective", p]
            if rng.random() < 0.3:
                argv += ["--render", "bar"]
        else:
            relation = ("base", "prudent", "indifferent")[(i // 2) % 3]
            argv = ["compare", text(), text(), "-p", p, "--relation", relation]
        pool.append(argv)
    return pool


def algebra_requests(seed: int) -> list[tuple[int, list[str]]]:
    """(pool index, argv) for one pass, plus one over-deep text (index -1)."""
    rng = random.Random(f"value-algebra:{seed}")
    pool = algebra_pool()
    out = list(enumerate(pool))
    rng.shuffle(out)
    out.insert(rng.randrange(len(out) + 1), (-1, ["simplify", DEEP_TEXT]))
    return out


# ---------------------------------------------------------------------------
# expected outcomes


def outcome_digest(code, stdout: str) -> str:
    """What goldens pin for one request: its exit code and its stdout."""
    return hashlib.blake2b(f"{code}\0{stdout}".encode(), digest_size=4).hexdigest()


def pool_digest(pool: list[list[str]]) -> str:
    return hashlib.sha256(json.dumps(pool).encode()).hexdigest()


def load_goldens() -> dict:
    with gzip.open(GOLDENS, "rt", encoding="utf-8") as handle:
        return json.load(handle)


def inventory_digest(values) -> str:
    return hashlib.sha256("\n".join(values).encode()).hexdigest()

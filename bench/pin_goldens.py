"""Pin the expected outcomes of every benchmark input in goldens.json.gz.

    python3 bench/pin_goldens.py

Runs each request pool once through `nclobber.cli.main` and the n=9
census once, and records what the program answers.  Run it only on a
commit whose outputs are known to be right: from then on the benchmark
counts every difference as a failed request.  A pool request that
raises is refused rather than pinned.
"""

from __future__ import annotations

import collections
import gzip
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402
from worker import _import_program, _send  # noqa: E402


def _pin_pool(main, pool: list[list[str]]) -> dict:
    outcomes = []
    codes: collections.Counter = collections.Counter()
    for argv in pool:
        code, stdout, stderr, error = _send(main, argv)
        if error is not None:
            raise SystemExit(f"pool request {argv!r} raised {error}; refusing to pin")
        if stderr.count("\n") != (1 if code == 3 else 0):
            raise SystemExit(f"pool request {argv!r} wrote {stderr!r} to stderr")
        codes[code] += 1
        outcomes.append(workloads.outcome_digest(code, stdout))
    print(f"  exit codes: {dict(codes)}")
    return {"pool_sha256": workloads.pool_digest(pool), "outcomes": outcomes}


def main() -> int:
    nclobber = _import_program()
    goldens = {}
    print("census-n9")
    report = nclobber.enumeration.enumerate_values(workloads.CENSUS_N, workers=1)
    goldens["census-n9"] = {
        "games": report.games_analysed,
        "unique": dict(report.unique_values),
        "inventory_sha256": {
            regime: workloads.inventory_digest(report.value_inventory[regime])
            for regime in workloads.CENSUS_REGIMES
        },
    }
    print(f"  games={report.games_analysed} {dict(report.unique_values)}")
    print("solve-stream")
    goldens["solve-stream"] = _pin_pool(nclobber.cli.main, workloads.solve_pool())
    print("value-algebra")
    goldens["value-algebra"] = _pin_pool(nclobber.cli.main, workloads.algebra_pool())
    data = json.dumps(goldens, separators=(",", ":")).encode()
    workloads.GOLDENS.write_bytes(gzip.compress(data, mtime=0))
    print(f"wrote {workloads.GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

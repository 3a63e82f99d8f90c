#!/usr/bin/env python3
"""Reproduce the 1xn census table, with per-length timing.

Lengths up to 10 run in seconds (about 5 s for n = 10); n = 11 takes
about 17 s, and n = 12 takes 74 s at 611 MB in a process of its own.
The whole run up to 12 took 101 s and peaked at 661 MB in one process,
and up to 13 it took 387 s (271 s for n = 13) at 2.4 GB (a 2-vCPU Xeon
VM with 8 GB, Python 3.11.7).  13 is long-running (the census there
traverses about 1.7 million run keys, for eleven million boards), so the
default stops at 10.  The
games column is closed-form and printed for the full 2..13 range
regardless.

Usage:
    python3 scripts/reproduce_table.py --max-n 10 --jobs 1 --out table.csv
"""

from __future__ import annotations

import argparse
import sys
import time

from nclobber.enumeration import (
    REGIMES,
    count_boards,
    enumerate_values,
    render_reports,
)
from published_counts import PUBLISHED_COUNTS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=10, help="largest census length")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    parser.add_argument("--out", default=None, help="also write the csv here")
    args = parser.parse_args(argv)

    print("closed-form games column (published reference in parentheses):")
    for n in range(2, 14):
        got = count_boards(n)
        ref = PUBLISHED_COUNTS["games"][n]
        flag = "" if got == ref else "   <-- differs; see reports/"
        print(f"  n={n:2d}  {got:>10d}  ({ref}){flag}")
    print()

    reports = []
    for n in range(2, args.max_n + 1):
        t0 = time.perf_counter()
        report = enumerate_values(n, REGIMES, workers=args.jobs, collect_inventory=False)
        dt = time.perf_counter() - t0
        reports.append(report)
        cells = "  ".join(f"{m}={report.unique_values[m]}" for m in REGIMES)
        print(f"n={n:2d}  games={report.games_analysed:<7d} {cells}  [{dt:.1f}s]")

    csv_text = render_reports(reports, "csv")
    print()
    print(csv_text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(csv_text + "\n")
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

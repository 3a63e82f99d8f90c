"""One pass of one benchmark workload, in a fresh interpreter.

    python3 bench/worker.py --workload solve-stream --seed 1 --trace 0 --check 1

Imports nclobber from the checkout's src/, builds the pass's inputs,
times the pass with a single closed-loop client while it samples the
machine's speed (bench/speed.py), then checks every output against
goldens.  With --check 1 it also cross-checks solve
results against the raw value (outside the timed phase).  The last
stdout line is one JSON object; bench/run.py aggregates passes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402
from speed import Speedometer, clock  # noqa: E402

SRC = workloads.BENCH_DIR.parent / "src"


def _import_program():
    sys.path.insert(0, str(SRC))
    import nclobber
    import nclobber.cli  # the package does not import its CLI module

    if not Path(nclobber.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"worker: imported nclobber from {nclobber.__file__}, not {SRC}")
    return nclobber


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_census(nclobber, meter: Speedometer, tick: bool) -> dict:
    with meter.ticking() if tick else contextlib.nullcontext():
        kernel_s, start = meter.overhead_s, clock()
        report = nclobber.enumeration.enumerate_values(workloads.CENSUS_N, workers=1)
        end, kernel_s = clock(), meter.overhead_s - kernel_s
    wall = end - start - kernel_s
    at_ref = wall * meter.factor(start, end) if tick else wall
    rss = _peak_rss_mb()
    pinned = workloads.load_goldens()["census-n9"]
    problems = []
    if report.games_analysed != pinned["games"]:
        problems.append(f"games {report.games_analysed} != {pinned['games']}")
    for regime in workloads.CENSUS_REGIMES:
        got = report.unique_values.get(regime)
        if got != pinned["unique"][regime]:
            problems.append(f"{regime} count {got} != {pinned['unique'][regime]}")
        inventory = (report.value_inventory or {}).get(regime, ())
        if workloads.inventory_digest(inventory) != pinned["inventory_sha256"][regime]:
            problems.append(f"{regime} inventory digest differs")
    return {
        "wall_s": wall,
        "ref_s": at_ref,
        "latencies_ms": [at_ref * 1e3],
        "peak_rss_mb": rss,
        "attempted": 1,
        "failed": 1 if problems else 0,
        "wrong": 1 if problems else 0,
        "problems": problems,
    }


def _send(main, argv: list[str]) -> tuple:
    """One request: (exit code or None if it raised, stdout, stderr, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is this request's outcome
            code, error = None, type(exc).__name__
    return code, out.getvalue(), err.getvalue(), error


def _run_stream(
    nclobber, workload: str, seed: int, meter: Speedometer
) -> tuple[dict, list, dict]:
    requests = (
        workloads.solve_requests(seed)
        if workload == "solve-stream"
        else workloads.algebra_requests(seed)
    )
    cli = nclobber.cli
    outcomes = []
    spans = []
    meter.sample()
    for _, argv in requests:
        meter.maybe_sample()
        t0 = clock()
        outcomes.append(_send(cli.main, argv))
        spans.append((t0, clock()))
    meter.sample()
    latencies = [(t1 - t0) * meter.factor(t0, t1) * 1e3 for t0, t1 in spans]
    rss = _peak_rss_mb()

    goldens = workloads.load_goldens()[workload]
    pool = workloads.solve_pool() if workload == "solve-stream" else workloads.algebra_pool()
    if workloads.pool_digest(pool) != goldens["pool_sha256"]:
        raise SystemExit(f"worker: the {workload} pool differs from the pinned one")
    bad: dict[int, str] = {}  # request position -> what went wrong
    for pos, ((idx, argv), (code, stdout, stderr, error)) in enumerate(
        zip(requests, outcomes)
    ):
        lines = stderr.count("\n")
        if idx < 0:
            # Specified rather than pinned: a domain error, reported on one line.
            ok = code == 3 and stdout == "" and lines == 1
        else:
            ok = workloads.outcome_digest(code, stdout) == goldens["outcomes"][idx]
            ok = ok and lines == (1 if code == 3 else 0)
            if ok and code == 3 and argv[0] == "solve":
                ok = "no initial move" in stderr
        if not ok:
            bad[pos] = error or f"exit {code}, output differs from goldens"
    result = {
        "wall_s": sum(t1 - t0 for t0, t1 in spans),
        "ref_s": sum(latencies) / 1e3,
        "latencies_ms": latencies,
        "peak_rss_mb": rss,
        "attempted": len(requests),
    }
    return result, list(zip(requests, outcomes)), bad


def _cross_check_solve(answered: list, bad: dict[int, str]) -> int:
    """syntactic == normalize(raw) and prudent == prudent_simplify(raw, start).

    Marks each disagreeing request in bad; returns how many were checked.
    """
    from nclobber.game_core import Position, parse_board
    from nclobber.preferences import prudent_simplify
    from nclobber.solver import evaluate
    from nclobber.values import normalize

    checked = 0
    for pos, ((_, argv), (code, stdout, _, _)) in enumerate(answered):
        opts = dict(zip(argv[2::2], argv[3::2]))
        mode = opts["--mode"]
        if code != 0 or mode not in ("syntactic", "prudent"):
            continue
        shape = tuple(map(int, opts["--grid"].split("x"))) if "--grid" in opts else "line"
        graph, occupancy = parse_board(argv[1], shape=shape)
        start = int(opts["--start"])
        raw = evaluate(Position(graph, occupancy, start), "raw").value
        if mode == "syntactic":
            want = normalize(raw).text
        else:
            want = str(prudent_simplify(raw, start))
        checked += 1
        if stdout.strip() != want:
            bad.setdefault(pos, f"{mode} value differs from the one derived from raw")
    return checked


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    nclobber = _import_program()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    meter = Speedometer()
    if args.workload == "census-n9":
        # Kernel samples taken inside traced spans would count as their self time.
        result = _run_census(nclobber, meter, tick=tracer is None)
        if tracer is not None:
            result["layers"] = tracer.report()
    else:
        result, answered, bad = _run_stream(nclobber, args.workload, args.seed, meter)
        if tracer is not None:
            result["layers"] = tracer.report()
        if args.check and args.workload == "solve-stream":
            result["cross_checked"] = _cross_check_solve(answered, bad)
        result["failed"] = len(bad)
        # A request that raised produced no output; any other miss is wrong.
        result["wrong"] = sum(1 for pos in bad if answered[pos][1][3] is None)
        result["problems"] = [
            f"request {pos} {' '.join(answered[pos][0][1])[:60]!r}: {why}"
            for pos, why in sorted(bad.items())[:5]
        ]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

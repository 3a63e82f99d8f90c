"""The nclobber benchmark: one command, three workloads, checked outputs.

    python3 bench/run.py --workload census-n9 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Run it from the root of a source checkout; it imports nclobber from
src/ and writes nothing outside the checkout.  Each pass of a workload
runs in a fresh interpreter (bench/worker.py) whose PYTHONHASHSEED is
derived from --seed, because set iteration over interned values follows
str hashing.  Passes repeat until --seconds have elapsed, and at least
MIN_PASSES times unless that would overrun the run's 150 s budget; the
first pass also runs the solve cross-checks.  Every timing is read at
reference speed from machine-speed samples taken as it runs (see
bench/speed.py), and the figures are medians over passes.  With
--trace 1 the run makes one untraced and one traced pass and reports
per-layer metrics instead.

Every metric is printed by name with its unit.  The last stdout line is
{"correct", "attempted", "failed", "metrics"}; with --out the full
record (run conditions and per-pass figures) is also written as JSON.
See bench/NOTES.md for what each metric and workload is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402
from speed import Speedometer, clock  # noqa: E402

SETUP_SAMPLES = 8  # taken before the first pass and again after each pass
# A stream request's latency is the median of its repeats, and three
# repeats let that median pass over one disturbed repeat.  The census is
# a single request.
MIN_PASSES = {"census-n9": 2, "solve-stream": 3, "value-algebra": 3}
RUN_BUDGET_S = 150  # a run must end within 180 s
PASS_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "pass_s": "s",
    "req_p50_ms": "ms",
    "req_p99_ms": "ms",
    "req_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "fraction",
}


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a wrong answer)."""


def layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio") or name == "trace_overhead":
        return "ratio"
    return "count"


def hash_seed(seed: int) -> int:
    digest = hashlib.sha256(f"nclobber-bench:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _env(seed: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed(seed))
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(seed: int, meter: Speedometer) -> list[float]:
    """Times of interpreter start plus `import nclobber`, at reference speed.

    The wait blocks until the child exits: Popen.wait(timeout) polls
    with growing sleeps, which would round every sample up to a poll.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        meter.sample()
        start = clock()
        child = subprocess.Popen(
            [sys.executable, "-c", "import nclobber"], env=_env(seed), cwd=ROOT
        )
        watchdog = threading.Timer(PASS_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            code = child.wait()
        finally:
            watchdog.cancel()
        end = clock()
        meter.sample()
        samples.append((end - start) * meter.factor(start, end))
        if code != 0:
            raise BenchError(f"`import nclobber` exited {code}")
    return samples


def run_pass(workload: str, seed: int, trace: bool, check: bool) -> dict:
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(int(trace)),
        "--check", str(int(check)),
    ]
    try:
        done = subprocess.run(
            cmd, env=_env(seed), cwd=ROOT, capture_output=True, text=True,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass exceeded {PASS_TIMEOUT_S} s")
    if done.returncode != 0:
        tail = "\n".join(done.stderr.strip().splitlines()[-5:])
        raise BenchError(f"{workload} pass exited {done.returncode}:\n{tail}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(passes: list[dict], setup: list[float]) -> dict[str, float]:
    """Medians over passes of timings read at reference speed.

    Every pass sends the same requests in the same order, so a request's
    latency is the median of its repeats.
    """
    latencies = [
        statistics.median(repeats) for repeats in zip(*(p["latencies_ms"] for p in passes))
    ]
    pass_s = statistics.median(p["ref_s"] for p in passes)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "pass_s": pass_s,
        "req_p50_ms": statistics.median(latencies),
        "req_p99_ms": nearest_rank(latencies, 0.99),
        "req_per_s": len(latencies) / pass_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setup),
        "ok_frac": 1 - failed / attempted,
    }


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
    except OSError:  # no git on this machine
        return None
    return done.stdout.strip() or None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    record = {
        "workload": workload,
        "seed": seed,
        "hash_seed": hash_seed(seed),
        "seconds": seconds,
        "trace": int(trace),
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }
    if trace:
        plain = run_pass(workload, seed, trace=False, check=False)
        traced = run_pass(workload, seed, trace=True, check=False)
        passes = [plain, traced]
        metrics = dict(traced["layers"])
        metrics["trace_overhead"] = traced["wall_s"] / plain["wall_s"]
        units = {name: layer_unit(name) for name in metrics}
    else:
        meter = Speedometer()
        setup = measure_setup(seed, meter)
        passes = []
        start = time.monotonic()
        while True:
            passes.append(run_pass(workload, seed, trace=False, check=not passes))
            setup += measure_setup(seed, meter)
            elapsed = time.monotonic() - start
            if elapsed >= seconds and len(passes) >= MIN_PASSES[workload]:
                break
            if elapsed * (len(passes) + 1) / len(passes) > RUN_BUDGET_S:
                break  # one more pass would not end in time
        metrics = end_to_end(passes, setup)
        units = END_TO_END_UNITS
    record["loadavg_end"] = os.getloadavg()
    record["passes"] = [
        {k: v for k, v in p.items() if k not in ("latencies_ms", "layers")}
        for p in passes
    ]
    record["attempted"] = sum(p["attempted"] for p in passes)
    record["failed"] = sum(p["failed"] for p in passes)
    record["correct"] = all(p["wrong"] == 0 for p in passes)
    record["metrics"] = {name: {"value": v, "unit": units[name]} for name, v in metrics.items()}
    return record


def print_record(record: dict) -> None:
    print(
        f"{record['workload']}: seed {record['seed']} (hash seed {record['hash_seed']}),"
        f" {len(record['passes'])} passes, {record['attempted']} outputs checked,"
        f" {record['failed']} failed"
        f" (failed_frac {record['failed'] / record['attempted']:.6f}),"
        f" correct={record['correct']}"
    )
    for p in record["passes"]:
        for problem in p.get("problems", []):
            print(f"  problem: {problem}")
    walls = " ".join(f"{p['wall_s']:.3f}/{p['ref_s']:.3f}" for p in record["passes"])
    print(f"  pass wall/reference-speed seconds: {walls}")
    for name, metric in record["metrics"].items():
        print(f"  {name:<42} {metric['value']:>14.6g} {metric['unit']}")
    conditions = {
        k: record[k]
        for k in ("commit", "src_sha256", "python", "nproc", "loadavg_start", "loadavg_end")
    }
    print(f"  conditions: {json.dumps(conditions)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the full record(s) here")
    args = parser.parse_args(argv)

    if not (SRC / "nclobber" / "__init__.py").is_file():
        print(f"run.py: no nclobber sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            records.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
            print_record(records[-1])
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}.{name}": metric
            for r in records
            for name, metric in r["metrics"].items()
        }
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in records),
                "attempted": sum(r["attempted"] for r in records),
                "failed": sum(r["failed"] for r in records),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

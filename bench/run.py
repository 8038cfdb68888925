"""Closed-loop benchmark of the clusteralg package: one caller, one query at a time.

    python3 bench/run.py --workload finite-orbits --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src.  A run
sets up (import, generation of the warm-ups and the first cycle, one
warm-up query per kind) for itself.  It then answers whole cycles of
queries, generating each cycle when it reaches it, until at least
--seconds of query time and MIN_QUERIES queries have been spent, and
checks every answer.  query_p50_ms and query_p90_ms are the means, over
the cycles, of each cycle's quantiles (see cycle_quantiles).  Between
cycles, spread over the run, it times the same set-up in SETUP_REPEATS
fresh interpreters, from spawning each to its first query being ready,
and reports the median as setup_s.  With --trace 1 it instead answers
cycles untraced for a third of --seconds, replays the same cycles with
every layer traced, reports per-layer metrics and writes the spans to
.bench_trace/.  The last line of standard output is one JSON object:
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = "clusteralg"
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
# at least ten samples beyond p90
MIN_QUERIES = 110
# stop starting new cycles after this much wall time, whatever the counts
WALL_LIMIT_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def import_package():
    """Import the package from ./src, never from anywhere else."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise ImportError(f"no {PACKAGE} sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = importlib.import_module(PACKAGE)
    if Path(lib.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        raise ImportError(f"{PACKAGE} resolved outside {SRC}: {lib.__file__}")
    return lib


def execute(lib, query: dict, tracer=None) -> tuple[float, str | None]:
    """Time one query and check its answer: (seconds, None or failure reason)."""
    span = tracer.begin_query(query["kind"]) if tracer is not None else None
    t0 = time.perf_counter()
    try:
        result = workloads.run_query(lib, query)
    except Exception as exc:  # a failing query is counted, never fatal
        elapsed = time.perf_counter() - t0
        problem = f"raised {type(exc).__name__}: {exc}"
    else:
        elapsed = time.perf_counter() - t0
        problem = None
    finally:
        if span is not None:
            tracer.end_query(span)
    if problem is None:
        try:
            problem = workloads.check(lib, query, result)
        except Exception as exc:  # a crashing check is a failed answer
            problem = f"check raised {type(exc).__name__}: {exc}"
    return elapsed, problem


class Tally:
    """Latency samples and failures of the queries answered so far."""

    def __init__(self):
        self.samples: list[float] = []
        self.failures: list[str] = []

    def run(self, lib, queries, tracer=None) -> float:
        busy = 0.0
        for q in queries:
            elapsed, problem = execute(lib, q, tracer)
            busy += elapsed
            self.samples.append(elapsed)
            if problem is not None:
                self.failures.append(f"{q['kind']}/{q['family']}: {problem}")
        return busy


def set_up(workload: str, seed: int):
    """Import, generate the warm-ups and the first cycle, and answer the
    warm-ups; returns (lib, first cycle, warm-up failures)."""
    lib = import_package()
    warm = Tally()
    warm.run(lib, workloads.warmups(workload, seed))
    return lib, workloads.cycle(workload, seed, 0), warm.failures


def cycle_quantiles(per_cycle: list[list[float]]) -> tuple[float, float]:
    """(p50, p90) in ms: the means over cycles of each cycle's quantiles.

    Every cycle holds the whole slot mix, so each cycle's quantile
    estimates the same latency quantile.  The speed of a shared host
    drifts in spells of tens of seconds; a quantile of the pooled samples
    jumps with whichever speed holds most of the samples near it, while
    the mean over cycles follows the share of each spell smoothly, as
    queries_per_s does.
    """
    deciles = [
        statistics.quantiles([s * 1000 for s in c], n=10, method="inclusive") for c in per_cycle
    ]
    return statistics.fmean(d[4] for d in deciles), statistics.fmean(d[8] for d in deciles)


def time_fresh_set_up(workload: str, seed: int) -> float:
    """Seconds from spawning an interpreter to its first query being ready."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed), "--set-up-only",
    ]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise RuntimeError(f"set-up in a fresh interpreter failed (exit {proc.returncode})")
    return elapsed


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    lib, first, warm_failures = set_up(workload, seed)
    # trace runs report no end-to-end metrics, so they skip the set-up timing
    setups = 0 if trace else SETUP_REPEATS
    setup_times: list[float] = []

    cycles = [first]
    per_cycle: list[list[float]] = []
    tally = Tally()
    started = time.perf_counter()
    busy = 0.0
    target = seconds / 3 if trace else seconds
    min_queries = 1 if trace else MIN_QUERIES
    while True:
        start = len(tally.samples)
        busy += tally.run(lib, cycles[-1])
        per_cycle.append(tally.samples[start:])
        # spread over the run, the set-ups meet the host in the states the queries meet
        while len(setup_times) < setups and busy >= target * len(setup_times) / setups:
            setup_times.append(time_fresh_set_up(workload, seed))
        if busy >= target and len(tally.samples) >= min_queries:
            break
        if time.perf_counter() - started > WALL_LIMIT_S:
            break
        cycles.append(workloads.cycle(workload, seed, len(cycles)))
    done = len(cycles)
    setup_times += [time_fresh_set_up(workload, seed) for _ in range(setups - len(setup_times))]

    report = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "cycles": done,
        "warmup_failures": warm_failures,
    }
    if trace:
        tracer = tracing.Tracer()
        tracer.install(PACKAGE)
        traced = Tally()
        for queries in cycles:
            traced.run(lib, queries, tracer)
        tracer.uninstall()
        tally.samples += traced.samples
        tally.failures += traced.failures
        report["metrics"] = tracer.metrics(busy)
        out_dir = ROOT / ".bench_trace"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"{workload}.spans.tsv.gz"
        tracer.dump(path)
        report["spans"] = len(tracer.s_start)
        report["span_file"] = str(path.relative_to(ROOT))
        report["layer_self_s"] = tracer.layer_self_ns() / 1e9
        report["traced_wall_s"] = tracer.wall_ns() / 1e9
    else:
        p50, p90 = cycle_quantiles(per_cycle)
        values = {
            "setup_s": statistics.median(setup_times),
            "queries_per_s": len(tally.samples) / busy,
            "query_p50_ms": p50,
            "query_p90_ms": p90,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        report["metrics"] = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        report["beyond_p90"] = sum(1 for s in tally.samples if s * 1000 > p90)
        report["busy_s"] = busy
    report["attempted"] = len(tally.samples)
    report["failed"] = len(tally.failures)
    report["failures"] = tally.failures[:20]
    return report


def print_report(report: dict) -> None:
    attempted, failed = report["attempted"], report["failed"]
    print(
        f"workload {report['workload']}  seed {report['seed']}  trace {int(report['trace'])}"
        f"  cycles {report['cycles']}"
    )
    if not report["trace"]:
        m = report["metrics"]
        print(f"  setup_s        {m['setup_s'][0]:12.4f} s     median of {SETUP_REPEATS} fresh interpreters")
        print(
            f"  queries_per_s  {m['queries_per_s'][0]:12.4f} 1/s   "
            f"{attempted} queries in {report['busy_s']:.2f} s of query time"
        )
        per = f"mean of {report['cycles']} cycles' quantiles, {attempted} samples"
        print(f"  query_p50_ms   {m['query_p50_ms'][0]:12.4f} ms    {per}")
        print(
            f"  query_p90_ms   {m['query_p90_ms'][0]:12.4f} ms    "
            f"{per}, {report['beyond_p90']} beyond p90"
        )
        print(f"  failed_frac    {failed / attempted:12.4f} 1     {failed} of {attempted} queries")
        print(f"  peak_rss_mb    {m['peak_rss_mb'][0]:12.4f} MB    ru_maxrss of this process")
    else:
        for name, (value, unit) in report["metrics"].items():
            print(f"  {name:50s} {value:14.6f} {unit}")
        print(
            f"  layer self time {report['layer_self_s']:.4f} s of traced wall time "
            f"{report['traced_wall_s']:.4f} s; the rest is tracing overhead and untraced time"
        )
        print(f"  failed_frac    {failed / attempted:.4f} ({failed} of {attempted} queries)")
        print(f"  {report['spans']} spans written to {report['span_file']}")
    for line in report["warmup_failures"] + report["failures"]:
        print(f"  FAILED {line}")


def result_line(report: dict) -> str:
    metrics = {
        name: {"value": value, "unit": unit} for name, (value, unit) in report["metrics"].items()
    }
    correct = report["failed"] == 0 and not report["warmup_failures"]
    return json.dumps(
        {
            "correct": correct,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": metrics,
        }
    )


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is that workload's own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--set-up-only", action="store_true",
        help="set up, print 'ready' and exit; used to time set-up in a fresh interpreter",
    )
    args = parser.parse_args(argv)
    if args.set_up_only:
        # warm-up failures are counted by the run that times this set-up
        set_up(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if args.seconds is None or args.seconds <= 0:
        parser.error("--seconds must be a positive number")
    if args.workload == "all":
        return run_all(args)
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_report(report)
    print(result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

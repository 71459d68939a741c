"""Run one workload of the sepdeut benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a sepdeut checkout; the program is imported from
./src.  Every run starts fresh worker processes (worker.py), one at a
time:

--trace 0   one uncounted warm-up set-up, SETUP_PROBES set-up probes, then
            one timed run of whole rounds for S seconds.  Prints the
            end-to-end metrics; setup_s is the probes' median.
--trace 1   the workload's fixed number of rounds twice, untraced and
            then traced, so the counts repeat exactly for a seed.  Prints
            the per-layer metrics and the tracing overhead.  S is unused.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Run outputs and trace files go
to .perfbench_out/ in the current directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_ROOT = ".perfbench_out"
WORKLOADS = ("observables", "fit", "grids", "validate")
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 150
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


class RunError(RuntimeError):
    """A worker process failed; the run has no result."""


def child(workload: str, seed: int, mode: str, limit=None) -> dict:
    """Start one worker, wait for it, and return its JSON result."""
    out_dir = tempfile.mkdtemp(prefix=f"{workload}-{mode}-", dir=OUT_ROOT)
    launched = time.monotonic()
    argv = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), mode,
            repr(launched), out_dir]
    if limit is not None:
        argv.append(repr(limit))
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunError(f"{mode} worker did not finish within {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RunError(f"{mode} worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median_hd(values) -> float:
    """Harrell-Davis estimate of the median: a Beta-weighted mean of the order statistics.

    Fit costs come in near-discrete levels (whole Newton iterations), and
    the sample median of a few dozen jumps between levels from run to run;
    this estimate of the same median moves smoothly.
    """
    from scipy.special import betainc

    n = len(values)
    a = (n + 1) / 2.0
    cdf = [float(betainc(a, a, i / n)) for i in range(n + 1)]
    return sum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], sorted(values)))


def p50_by_kind(kinds, values) -> float:
    """Geometric mean over operation kinds of each kind's median.

    A workload mixes kinds of unequal cost, so one median over all
    would fall in the gap between two kinds and jump with the extremes
    of each; the per-kind medians do not.
    """
    by_kind = {}
    for kind, v in zip(kinds, values):
        by_kind.setdefault(kind, []).append(v)
    meds = [median_hd(v) for v in by_kind.values()]
    return math.exp(sum(math.log(m) for m in meds) / len(meds))


def tail(values):
    """(percentile, value) of the highest listed percentile with ten samples beyond it."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0:
            return p, statistics.quantiles(values, n=1000, method="inclusive")[int(p * 10) - 1]
    return None


def end_to_end(workload: str, seed: int, seconds: float):
    warm = child(workload, seed, "probe")  # fills the byte-code cache; not counted
    setups = [child(workload, seed, "probe")["setup_s"] for _ in range(SETUP_PROBES)]
    run = child(workload, seed, "timed", seconds)
    ok = [i for i, bad in enumerate(run["failed"]) if not bad]
    ref_ms = [run["ref_s"][i] * 1e3 for i in ok]
    wall_ms = [run["wall_s"][i] * 1e3 for i in ok]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ref_ops_per_s": (len(ok) / sum(run["ref_s"]), "1/s"),
        "ref_latency_ms_p50": (p50_by_kind([run["kinds"][i] for i in ok], ref_ms), "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    info = {
        "raw_ops_per_s": (len(ok) / sum(run["wall_s"]), "1/s"),
        "raw_latency_ms_p50": (statistics.median(wall_ms), "ms"),
        "kernel_ms_p50": (statistics.median(run["kernel_s"]) * 1e3, "ms"),
        "setup_wall_s_warmup": (warm["setup_wall_s"], "s"),
        "samples": (len(ref_ms), "count"),
    }
    t = tail(ref_ms)
    if t is not None:
        info[f"ref_latency_ms_p{t[0]:g}"] = (t[1], "ms")
    return run, metrics, info


def traced(workload: str, seed: int):
    base = child(workload, seed, "rounds")
    run = child(workload, seed, "traced")
    metrics = {k: (v["value"], v["unit"]) for k, v in run["layers"].items()}
    overhead = 100.0 * (sum(run["ref_s"]) / sum(base["ref_s"]) - 1.0)
    metrics["trace.overhead_pct"] = (overhead, "%")
    same = base["outputs"] == run["outputs"]
    if not same:
        print("check failed: traced outputs differ from untraced ones", file=sys.stderr)
    run["correct"] = run["correct"] and base["correct"] and same
    run["failed"] = base["failed"] + run["failed"]
    info = {"trace_file": (run["trace_file"], "path"), "samples": (len(run["ref_s"]), "count")}
    return run, metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "sepdeut", "__init__.py")):
        print("perfbench: no src/sepdeut here; run from the root of a sepdeut checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_ROOT, exist_ok=True)
    try:
        if args.trace:
            run, metrics, info = traced(args.workload, args.seed)
        else:
            run, metrics, info = end_to_end(args.workload, args.seed, args.seconds)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name, (value, unit) in {**metrics, **info}.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{args.workload:12s} {name:42s} {shown} {unit}")
    print(json.dumps({
        "correct": bool(run["correct"]),
        "attempted": len(run["failed"]),
        "failed": sum(run["failed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

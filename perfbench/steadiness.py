"""Steadiness check: two sets of benchmark runs of one commit, compared.

    python3 perfbench/steadiness.py [--workloads a,b] [--first-seed S]

Run from the checkout root.  For each workload, runs set A and set B
alternately, RUNS runs each, every run with its own seed, using the
command, run length and bounds of BENCHMARK.json.  For each end-to-end
metric it prints both sets' medians and quartiles, the spread
(interquartile distance over the median) and whether

* each set's spread is within the metric's bound, and
* the two sets' medians differ by no more than the bound, either way,

and whether the share of failed operations is the same in both sets.
Exits 1 if any check fails.  Every run's JSON goes to
.perfbench_out/steadiness.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

#: runs in each of the two sets, per workload
RUNS = 10


def one_run(command, workload, seed, seconds) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"run failed ({proc.returncode}): {' '.join(argv)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def compare(bench: dict, results: dict) -> bool:
    ok = True
    for workload, sets in results.items():
        shares = {s: sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for s, runs in sets.items()}
        same_share = shares["A"] == shares["B"]
        ok &= same_share
        print(f"{workload}: failed share A {shares['A']:.6g}, B {shares['B']:.6g} "
              f"{'same' if same_share else 'DIFFERENT'}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = {s: spread([r["metrics"][name]["value"] for r in runs])
                     for s, runs in sets.items()}
            moved = stats["B"][1] / stats["A"][1] - 1.0
            checks = [abs(moved) <= bound, stats["A"][3] <= bound, stats["B"][3] <= bound]
            ok &= all(checks)
            print(f"  {name:20s} bound {bound:<5g} "
                  + "  ".join(f"{s}: q1 {q1:.5g} med {med:.5g} q3 {q3:.5g} spread {sp:.3f}"
                              for s, (q1, med, q3, sp) in stats.items())
                  + f"  B moved {moved:+.3f}  {'ok' if all(checks) else 'FAIL'}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma-separated; default all in BENCHMARK.json")
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args(argv)
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    os.makedirs(".perfbench_out", exist_ok=True)
    results = {w: {"A": [], "B": []} for w in names}
    seed = args.first_seed
    with open(os.path.join(".perfbench_out", "steadiness.jsonl"), "a") as log:
        for i in range(RUNS):
            for w in names:
                for s in ("A", "B") if i % 2 == 0 else ("B", "A"):
                    r = one_run(bench["command"], w, seed, bench["run_seconds"])
                    log.write(json.dumps({"workload": w, "set": s, "seed": seed, **r}) + "\n")
                    log.flush()
                    results[w][s].append(r)
                    seed += 1
    return 0 if compare(bench, results) else 1


if __name__ == "__main__":
    sys.exit(main())

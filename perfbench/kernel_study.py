"""How well each reference kernel tracks an operation as the CPU changes speed.

    python3 perfbench/kernel_study.py --op report|validate

Run from the checkout root.  Repeats one fixed operation for STUDY_S
seconds, timing each kernel of refclock.py right after it, then splits
the run into windows of WINDOW_S seconds.  For each window it takes the
median wall time of the operation and, for each kernel, the median of
(operation time / kernel time) over the window's pairs.  It prints the spread of those window medians
(interquartile distance and range, over the median): the kernel that
keeps its spread smallest is the one whose clock follows the operation.
This is how the kernels and their assignment to workloads were chosen.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.abspath("src"))

import argparse  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import refclock  # noqa: E402
from sepdeut import ModelParams, report, solve_normalisation  # noqa: E402
from sepdeut.transform_oracle import validate_transforms  # noqa: E402

STUDY_S = 120.0
WINDOW_S = 5.0


def _ops():
    A, B = solve_normalisation(1.0, 0.3, 3.0, 1.5)
    p = ModelParams(b1=1.0, b2=1.5, alpha=0.3, A=A, B=B)
    return {"report": lambda: report(p), "validate": lambda: validate_transforms(p)}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med, (max(values) - min(values)) / med


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--op", choices=("report", "validate"), required=True)
    args = parser.parse_args()
    op = _ops()[args.op]
    rows = []
    start = time.perf_counter()
    while time.perf_counter() - start < STUDY_S:
        t0 = time.perf_counter()
        op()
        wall = time.perf_counter() - t0
        rows.append((t0 - start, wall, {k: refclock.kernel_time(k) for k in refclock.KERNELS}))
    windows = {}
    for t, wall, ks in rows:
        windows.setdefault(int(t // WINDOW_S), []).append((wall, ks))
    windows = [w for w in windows.values() if len(w) >= 3]
    raw = [statistics.median(wall for wall, _ in w) for w in windows]
    print(f"{args.op}: {len(rows)} pairs in {len(windows)} windows of {WINDOW_S:g} s")
    print(f"  raw wall time       spread IQR {spread(raw)[0]:.3f}  range {spread(raw)[1]:.3f}")
    for k in refclock.KERNELS:
        ratio = [statistics.median(wall / ks[k] for wall, ks in w) for w in windows]
        kern = statistics.median(ks[k] for _, _, ks in rows)
        print(f"  op/{k:6s} kernel     spread IQR {spread(ratio)[0]:.3f}  range {spread(ratio)[1]:.3f}"
              f"   (kernel median {kern * 1e3:.2f} ms)")


if __name__ == "__main__":
    main()

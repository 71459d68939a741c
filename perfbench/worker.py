"""One workload run in a fresh process; started by run.py, never by hand.

    python3 perfbench/worker.py WORKLOAD SEED MODE LAUNCHED OUT_DIR [LIMIT]

MODE is `probe` (set up, time the set-up, stop), `timed` (whole rounds
until LIMIT seconds have passed), `rounds` (exactly LIMIT rounds) or
`traced` (exactly LIMIT rounds under span tracing).  LAUNCHED is the
parent's time.monotonic() just before it started this process, so a
probe's set-up time counts interpreter start.  Prints one JSON object on
stdout.

Order matters here: thread counts are pinned before numpy loads, and
scipy (through the checks) is imported only after set-up time and peak
memory have been read.
"""

import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.abspath("src"))

import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

import refclock  # noqa: E402
import workloads  # noqa: E402

#: the reference kernel of each workload, chosen by measurement
KERNEL = {"observables": "small", "fit": "small", "grids": "small", "validate": "array"}

#: the kernel that converts set-up time, in every workload.  Set-up is
#: interpreter start and imports; between the machine's speed states it
#: moves about 1.4x, as the array kernel does, where the small kernel
#: moves 1.8x and over-corrects (README.md).
SETUP_KERNEL = "array"

#: set-up kernel repetitions; their median converts set-up time
SETUP_KERNELS = 5

#: the fixed command that must give byte-identical CSV each time it runs
FIXED_GRID = {"command": "wavefunctions", "b1": 1.0, "b2": 2.0, "alpha": 0.23165,
              "ratio": 3.0, "flag": "--dr", "step": 0.05}


def _guarded(run, op, out_dir, index):
    """The operation's result, or None if it failed; a failure does not stop the run."""
    try:
        return run(op.args, out_dir, index)
    except workloads.OperationFailed as exc:
        print(f"operation {index} failed: {exc}", file=sys.stderr)
    except Exception:  # any other error of the program counts the same way
        traceback.print_exc(file=sys.stderr)
    return None


def _fixed_grid(out_dir, name):
    path = os.path.join(out_dir, name)
    status = workloads.sepdeut.cli.main(workloads.grid_argv(FIXED_GRID, path))
    with open(path, "rb") as f:
        return status, path, f.read()


def main(argv):
    workload, seed, mode, launched, out_dir = argv[:5]
    limit = float(argv[5]) if len(argv) > 5 else workloads.TRACE_ROUNDS[argv[0]]
    seed, launched = int(seed), float(launched)
    kernel = KERNEL[workload]
    clock = refclock.Clock(kernel)
    run = workloads.RUN[workload]
    rounds = workloads.rounds(workload, seed)
    first_round = next(rounds)

    # set-up ends when the fixed set-up operation completes.  Only probes
    # time it, so no set-up kernel's arrays count in a timed run's peak memory.
    run(workloads.SETUP[workload].args, out_dir, -1)
    if mode == "probe":
        setup_wall = time.monotonic() - launched
        setup_kernel = statistics.median(
            refclock.kernel_time(SETUP_KERNEL) for _ in range(SETUP_KERNELS))
        return {"setup_s": refclock.reference(setup_wall, setup_kernel, SETUP_KERNEL),
                "setup_wall_s": setup_wall}

    fixed_before = _fixed_grid(out_dir, "fixed-before.csv") if workload == "grids" else None
    tracer = None
    if mode == "traced":
        import spans

        tracer = spans.Tracer()
        tracer.install()
        clock.slice = tracer.wrap_handler("clock", clock.slice)
    ops, outs, walls, kernels = [], [], [], []
    start = time.perf_counter()
    for n_rounds, round_ops in enumerate(itertools.chain([first_round], rounds), 1):
        for op in round_ops:
            if tracer is not None:
                tracer.op_id = len(ops)
            out, wall, k = clock.time(_guarded, run, op, out_dir, len(ops))
            ops.append(op)
            outs.append(out)
            walls.append(wall)
            kernels.append(k)
        if mode == "timed" and time.perf_counter() - start >= limit:
            break
        if mode != "timed" and n_rounds >= limit:
            break
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    fixed_after = _fixed_grid(out_dir, "fixed-after.csv") if workload == "grids" else None

    import checks  # scipy loads here, after set-up time and peak memory are read

    fails = []
    for i, (op, out) in enumerate(zip(ops, outs)):
        if out is None:
            continue
        if workload == "grids":
            problems = checks.check_grids(op.args, out, i)
        else:
            problems = getattr(checks, f"check_{workload}")(op.args, out)
        fails += [f"op {i} ({op.kind}, {op.args}): {p}" for p in problems]
    if fixed_before is not None:
        if fixed_before[0] != 0 or fixed_before[2] != fixed_after[2]:
            fails.append("the fixed wavefunctions command gave different CSV bytes")
        fails += [f"fixed command: {p}" for p in
                  checks.check_grids(FIXED_GRID, {"status": fixed_before[0], "path": fixed_before[1]}, 0)]
    for line in fails[:20]:
        print(f"check failed: {line}", file=sys.stderr)

    scale = [refclock.NOMINAL_S[kernel] / k for k in kernels]
    result = dict(
        kinds=[op.kind for op in ops],
        wall_s=walls,
        kernel_s=kernels,
        ref_s=[w * s for w, s in zip(walls, scale)],
        failed=[out is None for out in outs],
        correct=not fails,
        peak_rss_mb=peak_rss_mb,
        outputs=[_digest(workload, out) for out in outs],
    )
    if tracer is not None:
        import spans

        result["layers"] = spans.layer_metrics(tracer, scale, outs)
        result["trace_file"] = spans.save(
            tracer, os.path.join(os.path.dirname(out_dir), f"trace-{workload}-{seed}.npz"))
    return result


def _digest(workload, out):
    """A hash of what an operation returned: its values, or its output file."""
    if out is None:
        return None
    if workload in ("grids", "validate"):
        with open(out["path"], "rb") as f:
            data = f.read()
    else:
        data = repr(sorted(out.items())).encode()
    return hashlib.sha256(data).hexdigest()


if __name__ == "__main__":
    out_dir = sys.argv[5]
    try:
        print(json.dumps(main(sys.argv[1:])))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

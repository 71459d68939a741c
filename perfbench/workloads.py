"""The four workloads: seeded inputs and the operation each input drives.

A workload is a list of rounds.  Every round holds the same kinds of
operation, so a run made of whole rounds has the same mix whatever its
length.  Each kind draws its inputs from a Halton sequence shifted by
offsets from a `random.Random` seeded with the workload name and the
seed: a seed fixes every input, no input repeats within a run, and every
run covers the parameter box evenly.  The cost of an operation depends
strongly on where in the box it falls (equal-range `report` takes 13 to
42 ms across alpha*b), so independent random draws would make each run's
median depend on which points its seed happened to pick.

Operations call sepdeut through module attributes looked up at call time,
so the span wrappers of `spans.Tracer.install` see them.  Checks live in
`checks.py`, which imports scipy; nothing here does.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

import sepdeut
import sepdeut.cli

ALPHA_FIT = 0.23165

# parameter box shared by observables, grids and validate
B1_RANGE = (0.8, 2.0)
ALPHA_RANGE = (0.2, 0.5)
RATIO_RANGE = (0.5, 6.0)
GAP_RANGE = (0.1, 1.0)

# validate works within VALIDATE_JITTER (relative) of these (b1, b2, alpha,
# ratio), not over the whole box: at about 6% of the box's points the
# transform oracle's cutoff doubling moves the integral by more than its
# 1e-8 tolerance and validate exits 3 (CHANGES.md, FOUND).  That move
# oscillates with the phase of the cutoff against the ranges, which a 1%
# change of b turns through whole periods; over random points of each
# base's +-1% box it stayed below 3e-9 for every base here.
VALIDATE_JITTER = 1e-2
VALIDATE_BASES = (
    (0.9, 0.9, 0.25, 1.0),
    (1.1, 1.55, 0.28, 0.7),
    (1.2, 1.2, 0.45, 4.0),
    (1.0, 1.9, 0.3, 2.5),
    (1.475, 1.475, 0.23165, 3.0),
    (1.3, 1.9, 0.4, 5.0),
    (1.9, 1.9, 0.35, 5.5),
    (1.9, 2.8, 0.48, 3.5),
)

# fit targets
FEASIBLE_RRMS = (1.95, 2.20)
FEASIBLE_Q = (0.22, 0.32)
INFEASIBLE_RRMS = (0.4, 0.8)
INFEASIBLE_Q = (2.0, 6.0)
START_B = (0.9, 2.0)
START_RATIO = (1.0, 5.0)
FEASIBLE_PER_ROUND = 8

# CLI grids: (subcommand, step flag, step); ends are the CLI defaults
GRIDS = (
    ("wavefunctions", "--dr", 0.05),
    ("momentum", "--dk", 0.02),
    ("wavefunctions", "--dr", 0.025),
    ("momentum", "--dk", 0.01),
)
GRID_ENDS = {"wavefunctions": ("--r-max", 12.0), "momentum": ("--k-max", 5.0)}


class OperationFailed(RuntimeError):
    """The CLI exited with a status meaning the operation did not complete."""


@dataclass(frozen=True)
class Op:
    """One operation: its kind (the median is taken per kind) and its input."""

    kind: str
    args: dict


def _radical_inverse(i: int, base: int) -> float:
    f, r = 1.0, 0.0
    while i:
        f /= base
        r += f * (i % base)
        i //= base
    return r


class Sampler:
    """Points of [lo, hi) boxes from a randomly shifted Halton sequence."""

    _PRIMES = (2, 3, 5, 7)

    def __init__(self, rng: random.Random, *limits):
        self.limits = limits
        self.shift = [rng.random() for _ in limits]
        self.index = 0

    def __call__(self) -> list:
        self.index += 1
        return [lo + (hi - lo) * ((_radical_inverse(self.index, p) + s) % 1.0)
                for p, s, (lo, hi) in zip(self._PRIMES, self.shift, self.limits)]


def _point_sampler(rng, unequal: bool):
    box = Sampler(rng, B1_RANGE, ALPHA_RANGE, RATIO_RANGE, GAP_RANGE if unequal else (0.0, 0.0))

    def point():
        b1, alpha, ratio, gap = box()
        return {"b1": b1, "b2": b1 + gap if unequal else b1, "alpha": alpha, "ratio": ratio}
    return point


def _kind(base: str, a: dict) -> str:
    """`base`, `-s` and how many of alpha*b1, alpha*b2 lie below 0.5.

    Below 0.5 the modified Bessel functions are summed from their series,
    and an equal-range report costs about 44 ms there against 24 ms above;
    with these strata as separate kinds no per-kind median falls in the
    gap between two cost levels.
    """
    return f"{base}-s{(a['alpha'] * a['b1'] < 0.5) + (a['alpha'] * a['b2'] < 0.5)}"


def _observables_rounds(rng):
    equal, unequal = _point_sampler(rng, False), _point_sampler(rng, True)
    while True:
        a, b = equal(), unequal()
        yield [Op(_kind("equal", a), a), Op(_kind("unequal", b), b)]


def _fit_sampler(rng, feasible: bool):
    r_lim, q_lim = (FEASIBLE_RRMS, FEASIBLE_Q) if feasible else (INFEASIBLE_RRMS, INFEASIBLE_Q)
    box = Sampler(rng, r_lim, q_lim, START_B, START_RATIO)

    def target():
        r_rms, q, start_b, start_ratio = box()
        return {"r_rms": r_rms, "Q": q, "start_b": start_b, "start_ratio": start_ratio,
                "alpha": ALPHA_FIT, "feasible": feasible}
    return target


def _fit_rounds(rng):
    feasible, infeasible = _fit_sampler(rng, True), _fit_sampler(rng, False)
    # two kinds: an infeasible target ends in the fallback grid scan and
    # costs about ten feasible fits
    while True:
        yield ([Op("feasible", feasible()) for _ in range(FEASIBLE_PER_ROUND)]
               + [Op("infeasible", infeasible())])


def _grids_rounds(rng):
    kinds = [(f"{command}{step}-{'unequal' if unequal else 'equal'}",
              {"command": command, "flag": flag, "step": step}, _point_sampler(rng, unequal))
             for command, flag, step in GRIDS for unequal in (False, True)]
    while True:
        ops = []
        for base, grid, point in kinds:
            a = point()
            ops.append(Op(_kind(base, a), {**a, **grid}))
        yield ops


def _validate_rounds(rng):
    def near(v):
        return v * (1.0 + rng.uniform(-VALIDATE_JITTER, VALIDATE_JITTER))

    while True:
        ops = []
        for b1, b2, alpha, ratio in VALIDATE_BASES:
            args = {"b1": near(b1), "alpha": near(alpha), "ratio": near(ratio)}
            args["b2"] = args["b1"] if b2 == b1 else near(b2)
            ops.append(Op("equal" if b2 == b1 else "unequal", args))
        yield ops


_ROUNDS = {
    "observables": _observables_rounds,
    "fit": _fit_rounds,
    "grids": _grids_rounds,
    "validate": _validate_rounds,
}

# The operation that ends set-up, at the default point of the CLI.  It is the
# same in every run, so set-up time does not depend on which input a seed
# draws first (a fit's first target alone moves it between 0.2 and 0.8 s).
_DEFAULT = {"b1": 1.475, "b2": 1.475, "alpha": 0.23165, "ratio": 3.0}
SETUP = {
    "observables": Op("setup", _DEFAULT),
    "fit": Op("setup", {"r_rms": 2.08, "Q": 0.286, "start_b": 1.2, "start_ratio": 2.0,
                        "alpha": ALPHA_FIT, "feasible": True}),
    "grids": Op("setup", {**_DEFAULT, "command": "wavefunctions", "flag": "--dr", "step": 0.05}),
    "validate": Op("setup", _DEFAULT),
}

#: rounds a traced run makes, so its counts repeat exactly for a seed
TRACE_ROUNDS = {"observables": 40, "fit": 1, "grids": 3, "validate": 1}


def rounds(workload: str, seed: int):
    """Endless iterator over the workload's rounds for this seed."""
    return _ROUNDS[workload](random.Random(f"{workload}:{seed}"))


# ---------------------------------------------------------------------------
# operations: each returns what the checks need

def _param_flags(a: dict) -> list:
    return ["--b1", repr(a["b1"]), "--b2", repr(a["b2"]),
            "--alpha", repr(a["alpha"]), "--ratio", repr(a["ratio"])]


def run_observables(a: dict, out_dir: str, index: int):
    A, B = sepdeut.observables.solve_normalisation(a["b1"], a["alpha"], a["ratio"], a["b2"])
    rep = sepdeut.observables.report(sepdeut.model.ModelParams(
        b1=a["b1"], b2=a["b2"], alpha=a["alpha"], A=A, B=B))
    return {"A": A, "B": B, **{k: getattr(rep, k) for k in
                               ("P_S", "P_D", "A_S", "A_D", "eta", "r_rms", "Q", "probability_path")}}


def run_fit(a: dict, out_dir: str, index: int):
    res = sepdeut.fitting.fit_parameters(
        sepdeut.fitting.FitTargets(r_rms=a["r_rms"], Q=a["Q"]),
        a["alpha"],
        initial=(a["start_b"], a["start_ratio"]),
    )
    return {"b": res.b, "ratio": res.ratio, "A": res.A, "B": res.B,
            "residual_norm": res.residual_norm, "iterations": res.iterations,
            "converged": res.converged}


def grid_argv(a: dict, path: str) -> list:
    end_flag, end = GRID_ENDS[a["command"]]
    return [a["command"], *_param_flags(a), end_flag, repr(end), a["flag"], repr(a["step"]),
            "--output", path]


def run_grids(a: dict, out_dir: str, index: int):
    path = os.path.join(out_dir, f"op{index}.csv")
    status = sepdeut.cli.main(grid_argv(a, path))
    if status != 0:
        raise OperationFailed(f"{a['command']} exited with status {status}")
    return {"status": status, "path": path}


def run_validate(a: dict, out_dir: str, index: int):
    path = os.path.join(out_dir, f"op{index}.txt")
    status = sepdeut.cli.main(["validate", *_param_flags(a), "--output", path])
    if status not in (0, 1):  # 1 means a check failed, and the report says which
        raise OperationFailed(f"validate exited with status {status}")
    return {"status": status, "path": path}


RUN = {
    "observables": run_observables,
    "fit": run_fit,
    "grids": run_grids,
    "validate": run_validate,
}

"""Tests of the benchmark's own parts: oracle, span arithmetic, tracing.

Run with `PYTHONPATH=src python3 -m pytest perfbench` from the checkout
root; pytest puts this directory on sys.path, as running run.py does.
"""

import numpy as np
import pytest

import checks
import oracle
import spans
import workloads
from sepdeut import ModelParams, report, solve_normalisation

ALPHA = 0.23165

#: the layers each workload must reach; README.md explains the choice
LAYERS_BY_WORKLOAD = {
    "observables": ("specfun", "quadrature", "wf_coordinate", "wf_momentum", "observables"),
    "fit": ("specfun", "quadrature", "wf_coordinate", "observables", "fitting"),
    "grids": ("specfun", "quadrature", "wf_coordinate", "wf_momentum", "observables", "cli"),
    "validate": ("specfun", "quadrature", "wf_coordinate", "wf_momentum", "observables",
                 "transform_oracle", "cli"),
}


# ---------------------------------------------------------------------------
# oracle

def test_oracle_reproduces_paper_figures():
    m = oracle.moments(1.475, 1.475, ALPHA)
    A, B = oracle.strengths(m, 3.0)
    obs = oracle.observables(m, A, B)
    assert abs(A - 0.905) <= 0.001 and abs(B - 1.57) <= 0.01
    assert abs(obs["P_S"] + obs["P_D"] - 1.0) <= 1e-12
    assert abs(obs["P_D"] - 0.04) <= 0.005
    assert abs(obs["r_rms"] - 2.08) <= 0.01
    assert abs(obs["Q"] - 0.286) <= 0.002
    assert abs(obs["eta"] - 0.022) <= 0.0005


@pytest.mark.parametrize("b1, b2, alpha, ratio", [
    (1.475, 1.475, ALPHA, 3.0), (1.0, 2.0, ALPHA, 3.0), (0.8, 1.1, 0.5, 1.0)])
def test_oracle_agrees_with_report(b1, b2, alpha, ratio):
    A, B = solve_normalisation(b1, alpha, ratio, b2)
    rep = report(ModelParams(b1=b1, b2=b2, alpha=alpha, A=A, B=B))
    want = oracle.observables(oracle.moments(b1, b2, alpha), A, B)
    for key in ("P_S", "P_D", "A_S", "A_D", "eta", "r_rms", "Q"):
        assert abs(getattr(rep, key) - want[key]) <= 1e-10, key


def test_oracle_moments_converged_under_doubling():
    m1 = oracle.moments(0.8, 1.8, 0.2)
    m2 = oracle.moments(0.8, 1.8, 0.2, k_max=2 * oracle.MOMENT_K_MAX)
    for key in ("n_s", "n_d", "r_s", "r_d", "x"):
        assert abs(getattr(m1, key) - getattr(m2, key)) <= 1e-10 * abs(getattr(m2, key)), key


def test_quadrupole_bound_holds():
    # |Q| <= 0.4 r_rms^2, approached when w ~ sqrt(2) u; try S- and D-heavy mixes
    for b1, b2, alpha in ((1.475, 1.475, ALPHA), (0.8, 1.8, 0.5), (2.0, 2.0, 0.2)):
        m = oracle.moments(b1, b2, alpha)
        for ratio in (0.0, 0.5, 3.0, 30.0, 1e4):
            obs = oracle.observables(m, *oracle.strengths(m, ratio))
            assert abs(obs["Q"]) <= oracle.q_bound(obs["r_rms"])


def test_transform_matches_outer_tail():
    m = oracle.moments(1.0, 2.0, ALPHA)
    A, B = oracle.strengths(m, 3.0)
    a_s, a_d = oracle.asymptotic(1.0, 2.0, ALPHA, A, B)
    for r in (3.5, 6.0):
        u, w = oracle.coordinate(r, 1.0, 2.0, ALPHA, A, B)
        u_t, w_t = oracle.outer_tail(r, ALPHA, a_s, a_d)
        assert abs(u - u_t) <= 1e-8 and abs(w - w_t) <= 1e-8


def test_infeasible_targets_are_provably_infeasible():
    rounds = workloads.rounds("fit", 7)
    targets = [op.args for _ in range(5) for op in next(rounds) if not op.args["feasible"]]
    assert len(targets) == 5
    for t in targets:
        assert t["Q"] > oracle.q_bound(t["r_rms"])


# ---------------------------------------------------------------------------
# span arithmetic

def test_self_times_subtract_direct_children():
    #  0 [0, 100)  ->  1 [10, 30), 2 [40, 70)  ->  3 [45, 50)
    start = np.array([0, 10, 40, 45])
    end = np.array([100, 30, 70, 50])
    parent = np.array([-1, 0, 0, 2])
    assert spans.self_times(start, end, parent).tolist() == [50, 20, 25, 5]
    # self times of a tree add up to the root's duration
    assert spans.self_times(start, end, parent).sum() == 100


def test_handler_spans_join_their_parent():
    tracer = spans.Tracer()
    slice_ = tracer.wrap_handler("clock", lambda: sum(range(1000)))

    def outer():
        slice_()
        return sum(range(1000))

    tracer.wrap("specfun", outer)()
    a = tracer.arrays()
    assert a["parent"].tolist() == [-1, 0]
    assert a["layers"][a["name_id"]].tolist() == ["specfun", "clock"]
    own = spans.self_times(a["start"], a["end"], a["parent"])
    assert own[0] == (a["end"][0] - a["start"][0]) - (a["end"][1] - a["start"][1])


def test_ancestor_named():
    name_id = np.array([0, 1, 2, 1, 2])
    parent = np.array([-1, 0, 1, -1, 3])
    assert spans.ancestor_named(name_id, parent, 1).tolist() == [-1, 1, 1, 3, 3]


# ---------------------------------------------------------------------------
# tracing

def _first_ops(workload, n, seed=3):
    ops = []
    for rnd in workloads.rounds(workload, seed):
        ops += [op for op in rnd if op.args.get("feasible", True)]
        if len(ops) >= n:
            return ops[:n]


def _run(workload, ops, out_dir, tracer=None):
    outs = []
    if tracer is not None:
        tracer.install()
    try:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = i
            out = workloads.RUN[workload](op.args, str(out_dir), i)
            if "path" in out:
                with open(out["path"], "rb") as f:
                    out = {**out, "bytes": f.read()}
            outs.append(out)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return outs


@pytest.mark.parametrize("workload, n_ops", [("observables", 2), ("fit", 1), ("grids", 2), ("validate", 2)])
def test_traced_run_reaches_layers_and_changes_no_output(workload, n_ops, tmp_path):
    ops = _first_ops(workload, n_ops)
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    plain = _run(workload, ops, tmp_path / "plain")
    tracer = spans.Tracer()
    traced = _run(workload, ops, tmp_path / "traced", tracer)
    for p, t in zip(plain, traced):
        p = {k: v for k, v in p.items() if k != "path"}
        t = {k: v for k, v in t.items() if k != "path"}
        assert p == t
    metrics = spans.layer_metrics(tracer, [1.0] * len(ops), [])
    for layer in LAYERS_BY_WORKLOAD[workload]:
        assert metrics[f"{layer}.self_ms_per_op"]["value"] > 0, layer
    calls = {
        "specfun": "specfun.calls_per_op",
        "quadrature": "quadrature.integrals_per_op",
        "wf_coordinate": "wf_coordinate.calls_per_op",
        "wf_momentum": "wf_momentum.calls_per_op",
        "transform_oracle": "transform_oracle.transforms_per_op",
        "observables": "observables.normalisation_solves_per_op",
        "fitting": "fitting.residual_evals_per_fit",
    }
    for layer in LAYERS_BY_WORKLOAD[workload]:
        if layer in calls:
            assert metrics[calls[layer]]["value"] > 0, layer
    # the wrappers are gone again
    import sepdeut.observables
    assert not hasattr(sepdeut.observables.report, "__wrapped__")


def test_checks_pass_on_program_output(tmp_path):
    ops = _first_ops("observables", 2)
    for op, out in zip(ops, _run("observables", ops, tmp_path)):
        assert checks.check_observables(op.args, out) == []
    out = dict(_run("observables", ops[:1], tmp_path)[0])
    out["Q"] *= 1.0 + 1e-6
    assert checks.check_observables(ops[0].args, out) != []


def test_checks_catch_a_wrong_grid_row(tmp_path):
    op = _first_ops("grids", 1)[0]
    out = _run("grids", [op], tmp_path)[0]
    assert checks.check_grids(op.args, out, 0) == []
    lines = out["bytes"].decode().splitlines()
    fields = lines[-1].split(",")
    fields[1] = repr(float(fields[1]) * (1.0 + 1e-6))
    lines[-1] = ",".join(fields)
    with open(out["path"], "w") as f:
        f.write("\n".join(lines) + "\n")
    assert checks.check_grids(op.args, out, 0) != []


# ---------------------------------------------------------------------------
# steadiness check

@pytest.mark.parametrize("b_value, agree", [(1.05, True), (0.95, True), (1.5, False), (0.6, False)])
def test_steadiness_bounds_a_median_moved_either_way(b_value, agree):
    import steadiness

    bench = {"end_to_end": [{"name": "m", "unit": "1/s", "better": "higher", "bound": 0.2}]}

    def runs(value):
        return [{"attempted": 10, "failed": 0, "metrics": {"m": {"value": value, "unit": "1/s"}}}
                for _ in range(4)]

    assert steadiness.compare(bench, {"w": {"A": runs(1.0), "B": runs(b_value)}}) is agree

import math
import random

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from sepdeut import fitting
from sepdeut.fitting import MAX_EVALUATIONS, FitResult, FitTargets, fit_parameters
from sepdeut.model import ModelParams
from sepdeut.observables import _moments, report, solve_normalisation

ALPHA = 0.23165

# converged solution of the (2.08, 0.286) target pair
B_SOLUTION = 1.4759826567469249
RATIO_SOLUTION = 3.0015438195696557


def test_targets_validation():
    t = FitTargets(r_rms=2.08, Q=0.286)
    assert t.r_rms == 2.08
    FitTargets(r_rms=1.0, Q=0.0)  # a vanishing quadrupole target is legal
    with pytest.raises(ValueError):
        FitTargets(r_rms=0.0, Q=0.286)
    with pytest.raises(ValueError):
        FitTargets(r_rms=2.0, Q=-0.1)
    with pytest.raises(ValueError):
        FitTargets(r_rms=float("nan"), Q=0.1)


def test_alpha_validation():
    with pytest.raises(ValueError):
        fit_parameters(FitTargets(r_rms=2.08, Q=0.286), alpha=-1.0)


@pytest.mark.parametrize("start", [(1.2, 2.0), (0.8, 1.0), (2.2, 6.0)])
def test_converges_from_spread_starts(start):
    res = fit_parameters(FitTargets(r_rms=2.08, Q=0.286), ALPHA, initial=start)
    assert res.converged
    assert res.residual_norm <= 1e-6
    assert res.b == pytest.approx(B_SOLUTION, abs=1e-5)
    assert res.ratio == pytest.approx(RATIO_SOLUTION, abs=1e-4)
    assert res.B**2 / res.A**2 == pytest.approx(res.ratio, rel=1e-12)


def test_solution_reproduces_targets():
    res = fit_parameters(FitTargets(r_rms=2.08, Q=0.286), ALPHA)
    p = ModelParams(b1=res.b, b2=res.b, alpha=ALPHA, A=res.A, B=res.B)
    rep = report(p)
    assert rep.r_rms == pytest.approx(2.08, abs=1e-5)
    assert rep.Q == pytest.approx(0.286, abs=1e-5)
    assert rep.P_S + rep.P_D == pytest.approx(1.0, abs=1e-10)


def test_round_trip_recovery():
    # manufacture targets at a known point, then recover it from far away
    b_true, ratio_true = 1.3, 2.5
    A, B = solve_normalisation(b_true, ALPHA, ratio_true)
    p = ModelParams(b1=b_true, b2=b_true, alpha=ALPHA, A=A, B=B)
    rep = report(p)
    res = fit_parameters(FitTargets(r_rms=rep.r_rms, Q=rep.Q), ALPHA, initial=(1.0, 1.0))
    assert res.converged
    assert res.b == pytest.approx(b_true, abs=1e-5)
    assert res.ratio == pytest.approx(ratio_true, abs=1e-5)


def test_zero_quadrupole_target_drives_ratio_to_zero():
    # the root sits on the rho = 0 edge, where h grows like sqrt(rho)
    res = fit_parameters(FitTargets(r_rms=2.0, Q=0.0), ALPHA, initial=(1.5, 1.0))
    assert res.converged
    assert res.iterations <= MAX_EVALUATIONS
    assert res.ratio == pytest.approx(0.0, abs=1e-6)
    assert res.B == pytest.approx(0.0, abs=1e-3)


def test_infeasible_targets_report_failure():
    # (0.6, 4.0) has Q* > 0.4 r*^2, which no wavefunction reaches
    for r_rms, q in [(0.1, 0.286), (0.6, 4.0)]:
        res = fit_parameters(FitTargets(r_rms=r_rms, Q=q), ALPHA)
        assert isinstance(res, FitResult)
        assert not res.converged
        assert res.residual_norm > 1e-6
        assert res.iterations <= MAX_EVALUATIONS


def test_start_independence():
    results = [
        fit_parameters(FitTargets(r_rms=2.08, Q=0.286), ALPHA, initial=s)
        for s in [(1.2, 2.0), (0.9, 4.5), (2.0, 1.5)]
    ]
    bs = [r.b for r in results]
    ratios = [r.ratio for r in results]
    assert max(bs) - min(bs) < 1e-4
    assert max(ratios) - min(ratios) < 1e-4


# Targets with the (b, ratio) of their smallest-ratio root, and the second
# root each one has, with a larger ratio.
OTHER_ALPHAS = [
    # alpha, r*, Q*, (b, ratio), (b, ratio) of the larger-ratio root
    (0.23165, 3.0, 0.87, (3.421311, 0.827040), (3.291614, 64.62673)),
    (0.5, 1.5, 0.2188, (1.807191, 0.641918), (1.685570, 53.09562)),
    (1.0, 2.08, 0.417, (3.390377, 0.102482), (2.908434, 8.418975)),
    # smallest-ratio roots within 0.11 fm in b of the other root
    (0.23165, 2.08, 0.76, (1.782987, 35.334607), (1.858595, 52.38073)),
    (0.23165, 3.0, 1.7, (3.373257, 7.374607), (3.341514, 16.06958)),
    (0.23165, 2.08, 0.752545079, (1.767150, 32.618464), (1.872, 56.41627)),
]


@pytest.mark.parametrize("alpha, r_rms, q, want, other", OTHER_ALPHAS)
def test_smallest_ratio_root_at_other_alphas(alpha, r_rms, q, want, other):
    res = fit_parameters(FitTargets(r_rms=r_rms, Q=q), alpha)
    assert res.converged
    assert res.b == pytest.approx(want[0], abs=1e-5)
    assert res.ratio == pytest.approx(want[1], abs=1e-5)
    # the other root is real: it meets both targets too
    A, B = solve_normalisation(other[0], alpha, other[1])
    rep = report(ModelParams(b1=other[0], b2=other[0], alpha=alpha, A=A, B=B))
    assert rep.r_rms == pytest.approx(r_rms, rel=1e-5)
    assert rep.Q == pytest.approx(q, rel=1e-4)
    assert other[1] > res.ratio


def test_iterations_count_moment_evaluations(monkeypatch):
    # a batched call counts as its number of records
    records = []
    moments = fitting._moments

    def counted(b1, b2, alpha):
        records.append(len(b1) if np.ndim(b1) else 1)
        return moments(b1, b2, alpha)

    monkeypatch.setattr(fitting, "_moments", counted)
    res = fit_parameters(FitTargets(r_rms=2.08, Q=0.286), ALPHA)
    assert res.iterations == sum(records) <= MAX_EVALUATIONS
    assert sum(records) >= fitting._NODES


def test_node_sweep_is_batched(monkeypatch):
    # the nodes' records come from one radial-wavefunction call and one
    # integral per block of records; the polish evaluates one record a call
    import sepdeut.observables as obs

    sizes = {"uw": [], "integrals": []}
    uw, integrate = obs.uw_coordinate, obs.integrate_panels

    def uw_counted(r, p):
        sizes["uw"].append(1 if isinstance(p, ModelParams) else len(p))
        return uw(r, p)

    def integrate_counted(f, scheme):
        first = scheme.breakpoints[0]
        sizes["integrals"].append(len(first) if isinstance(first, tuple) else 1)
        return integrate(f, scheme)

    monkeypatch.setattr(obs, "uw_coordinate", uw_counted)
    monkeypatch.setattr(obs, "integrate_panels", integrate_counted)
    res = fit_parameters(FitTargets(r_rms=2.08, Q=0.286), ALPHA)
    sweep = [min(obs._BLOCK, fitting._NODES - i) for i in range(0, fitting._NODES, obs._BLOCK)]
    for calls in sizes.values():
        assert calls[:len(sweep)] == sweep
        assert calls[len(sweep):] == [1] * (res.iterations - fitting._NODES)


@pytest.mark.parametrize("r_rms, q", [(2.0, 1e-6), (2.0, 1e-8), (2.08, 1e-6)])
def test_small_quadrupole_targets_converge(r_rms, q):
    # the ratio of the smallest-ratio root is about 6e-11 (Q* = 1e-6): from
    # rho = num/den, which crosses zero there, no double b gives Q to 1e-6
    res = fit_parameters(FitTargets(r_rms=r_rms, Q=q), ALPHA)
    assert res.converged
    assert res.residual_norm <= fitting.TOLERANCE
    assert res.ratio < 1e-9


def test_round_trip_from_random_points():
    # targets made at random (alpha, b, ratio) with b/r* inside the searched
    # window [0.1, 2]; the fit may find another root, but not one of larger ratio
    rng = random.Random(20261)
    made = 0
    while made < 60:
        alpha, b = rng.uniform(0.1, 1.5), rng.uniform(0.5, 3.5)
        ratio = math.exp(rng.uniform(math.log(1e-3), math.log(100.0)))
        A, B = solve_normalisation(b, alpha, ratio)
        rep = report(ModelParams(b1=b, b2=b, alpha=alpha, A=A, B=B))
        if rep.Q < 0 or not 0.1 <= b / rep.r_rms <= 2.0:
            continue
        made += 1
        res = fit_parameters(FitTargets(r_rms=rep.r_rms, Q=rep.Q), alpha)
        assert res.converged, (alpha, b, ratio)
        assert res.ratio <= ratio * (1 + 1e-9) + 1e-12, (alpha, b, ratio, res.ratio)


@pytest.mark.parametrize("r_rms, q", [(2.08, 0.286), (2.08, 0.76), (3.0, 1.7), (0.6, 4.0)])
@pytest.mark.parametrize("alpha", [ALPHA, 1.0])
@pytest.mark.parametrize("lam", [0.25, 0.5, 2.0, 4.0])
def test_fit_scales_with_the_range(r_rms, q, alpha, lam):
    # (b, alpha, r_rms, Q) -> (lam b, alpha/lam, lam r_rms, lam^2 Q) keeps the ratio
    base = fit_parameters(FitTargets(r_rms=r_rms, Q=q), alpha)
    res = fit_parameters(FitTargets(r_rms=lam * r_rms, Q=lam * lam * q), alpha / lam)
    assert (res.converged, res.iterations) == (base.converged, base.iterations)
    if lam in (0.25, 4.0):
        assert (res.b, res.ratio, res.residual_norm) == (lam * base.b, base.ratio, base.residual_norm)
    else:
        # the strengths carry sqrt(lam), inexact here, which can reorder
        # near-ties among the residuals (up to 6e-15 measured)
        assert res.b == pytest.approx(lam * base.b, rel=1e-14, abs=0.0)
        assert res.ratio == pytest.approx(base.ratio, rel=1e-14, abs=0.0)


def _near_tangent_edge(r_rms):
    """(b, Q) where Q(b) along the r_rms curve is largest: there the two
    roots merge, and past it no target is met."""

    def q_on_curve(b):
        m = _moments(b, b, ALPHA)
        rho = (4 * r_rms**2 * m.N_S - m.R_S) / (m.R_D - 4 * r_rms**2 * m.N_D)
        return m.Q(*m.strengths(rho))

    edge = minimize_scalar(lambda b: -q_on_curve(b), bounds=(1.75, 1.9), method="bounded",
                           options={"xatol": 1e-9})
    return edge.x, -edge.fun


def test_near_tangent_targets():
    r_rms = 2.08
    b_edge, q_edge = _near_tangent_edge(r_rms)
    assert 0.768 < q_edge < 0.7682
    res = fit_parameters(FitTargets(r_rms=r_rms, Q=q_edge - 1e-6), ALPHA)
    assert res.converged
    assert res.b == pytest.approx(b_edge, abs=1e-3)
    res = fit_parameters(FitTargets(r_rms=r_rms, Q=q_edge + 1e-3), ALPHA)
    assert not res.converged
    assert res.iterations <= MAX_EVALUATIONS


@pytest.mark.parametrize("excess", [1e-8, 5e-7])
def test_just_past_the_near_tangent_edge(excess):
    # the interpolant's roots have left the real axis; the minimum of |F| at
    # the merge point still meets the targets within TOLERANCE (residual
    # 5.4e-9 and 2.7e-7), one record past the nodes
    b_edge, q_edge = _near_tangent_edge(2.08)
    res = fit_parameters(FitTargets(r_rms=2.08, Q=q_edge + excess), ALPHA)
    assert res.converged
    assert res.residual_norm <= fitting.TOLERANCE
    assert res.b == pytest.approx(b_edge, abs=1e-6)
    assert res.iterations == fitting._NODES + 1

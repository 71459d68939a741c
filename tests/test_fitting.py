import math

import pytest

from sepdeut import fitting
from sepdeut.fitting import MAX_EVALUATIONS, FitResult, FitTargets, fit_parameters
from sepdeut.model import ModelParams
from sepdeut.observables import report, solve_normalisation

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


# Targets at other alphas, with (b, ratio) as a 2-D Newton solve of both
# targets finds them, and the second root each one has at smaller b with
# a much larger ratio: a scan that took the first crossing in b would
# return that one.
OTHER_ALPHAS = [
    # alpha, r*, Q*, (b, ratio), (b, ratio) of the larger-ratio root
    (0.23165, 3.0, 0.87, (3.421311, 0.827040), (3.291614, 64.62673)),
    (0.5, 1.5, 0.2188, (1.807191, 0.641918), (1.685570, 53.09562)),
    (1.0, 2.08, 0.417, (3.390377, 0.102482), (2.908434, 8.418975)),
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
    assert other[0] < res.b and other[1] > res.ratio


def test_window_narrower_than_the_scan_step(monkeypatch):
    # At (0.23165, 3.0, 0.87) rho >= 0 only for b/r* in [1.0863, 1.1435];
    # a scan at 0.05, 0.15, ..., 1.95 puts no point inside that window.
    # Its cell [1.05, 1.15] shows no sign change of h, only sign changes
    # of rho's numerator and denominator, which mark the window's edges.
    monkeypatch.setattr(fitting, "_SCAN", tuple(0.05 + 0.1 * i for i in range(20)))
    target = FitTargets(r_rms=3.0, Q=0.87)
    res = fit_parameters(target, ALPHA)
    assert res.converged
    assert res.b == pytest.approx(3.421311, abs=1e-5)
    assert res.ratio == pytest.approx(0.827040, abs=1e-5)
    # without bisecting the edge cells the window is missed
    monkeypatch.setattr(fitting, "_EDGE_DEPTH", 0)
    assert not fit_parameters(target, ALPHA).converged


def test_iterations_count_moment_evaluations(monkeypatch):
    calls = []
    moments = fitting._moments

    def counted(*args):
        calls.append(args)
        return moments(*args)

    monkeypatch.setattr(fitting, "_moments", counted)
    res = fit_parameters(FitTargets(r_rms=2.08, Q=0.286), ALPHA)
    assert res.iterations == len(calls) <= MAX_EVALUATIONS
    assert len(calls) >= len(fitting._SCAN)

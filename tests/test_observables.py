import math
import warnings

import numpy as np
import pytest

from sepdeut.fitting import FitTargets, fit_parameters
from sepdeut.model import EPS_REGION, ModelParams, Region, _region_masks
from sepdeut.observables import (
    ObservablesReport,
    _moments,
    _rms_core,
    asymptotic_normalisations,
    ds_ratio,
    probabilities_closed,
    probabilities_coordinate,
    probabilities_numeric,
    radial_scheme,
    report,
    solve_normalisation,
)
from sepdeut.quadrature import PANEL_ORDER, QuadratureScheme, integrate_panels, momentum_scheme
from sepdeut.specfun import mod_sph_bessel_i
from sepdeut.wf_coordinate import uw_coordinate
from sepdeut.wf_momentum import uw_momentum

ALPHA = 0.23165
B_RANGE = 1.475

# 40-digit reference values at the equal-range point, unit strengths
PS_UNIT = 1.1749416997098542864
PD_UNIT = 0.015380762046701560072
# solved normalisations at ratio = 3.0
A_STAR = 0.90495551732122255
B_STAR = 1.5674289345901346
# observables at the solved point
P_S_STAR = 0.96221202908660991
P_D_STAR = 0.037787970913390086
A_S_STAR = 0.94072550049286094
A_D_STAR = 0.020812187463652414
ETA_STAR = 0.022123549805706957
R_RMS_STAR = 2.0795902273783678
Q_STAR = 0.28556533806745384


def _unit_params():
    return ModelParams(b1=B_RANGE, b2=B_RANGE, alpha=ALPHA, A=1.0, B=1.0)


def _solved_params():
    A, B = solve_normalisation(B_RANGE, ALPHA, 3.0)
    return ModelParams(b1=B_RANGE, b2=B_RANGE, alpha=ALPHA, A=A, B=B)


def test_closed_probabilities_frozen():
    ps, pd = probabilities_closed(_unit_params())
    assert ps == pytest.approx(PS_UNIT, rel=1e-13)
    assert pd == pytest.approx(PD_UNIT, rel=1e-13)


def test_closed_rejects_unequal_ranges():
    p = ModelParams(b1=1.0, b2=2.0, alpha=ALPHA, A=1.0, B=1.0)
    with pytest.raises(ValueError, match="equal ranges"):
        probabilities_closed(p)


@pytest.mark.parametrize("b1, b2", [(B_RANGE, B_RANGE), (1.0, 2.0)])
def test_quadrature_pairs_equal_per_channel_integrals(b1, b2):
    # one stacked integral per path sums each channel exactly as its own
    # one-row integral does
    p = ModelParams(b1=b1, b2=b2, alpha=ALPHA, A=0.9, B=1.5)
    k_scheme, r_scheme = momentum_scheme(p), radial_scheme(p)
    assert probabilities_numeric(p) == (
        integrate_panels(lambda k: k * k * uw_momentum(k, p)[0] ** 2, k_scheme),
        integrate_panels(lambda k: k * k * uw_momentum(k, p)[1] ** 2, k_scheme),
    )
    assert probabilities_coordinate(p) == (
        integrate_panels(lambda r: uw_coordinate(r, p)[0] ** 2, r_scheme),
        integrate_panels(lambda r: uw_coordinate(r, p)[1] ** 2, r_scheme),
    )


@pytest.mark.parametrize("x", [0.2, 0.29, 0.31, 0.44, 0.46, 1.0, 2.0])
def test_closed_vs_numeric_across_bracket_regimes(x):
    # x = alpha*b sweeps across both series/direct switch points
    b = x / ALPHA
    p = ModelParams(b1=b, b2=b, alpha=ALPHA, A=1.0, B=1.0)
    ps_c, pd_c = probabilities_closed(p)
    ps_n, pd_n = probabilities_numeric(p)
    assert abs(ps_c - ps_n) / ps_c < 1e-8
    assert abs(pd_c - pd_n) / pd_c < 1e-6


def test_momentum_and_coordinate_norms_agree():
    for b1, b2 in [(B_RANGE, B_RANGE), (1.0, 2.0), (0.8, 1.1)]:
        p = ModelParams(b1=b1, b2=b2, alpha=ALPHA, A=0.9, B=1.5)
        (ps_k, pd_k), (ps_r, pd_r) = probabilities_numeric(p), probabilities_coordinate(p)
        assert abs(ps_k - ps_r) < 1e-7
        assert abs(pd_k - pd_r) < 1e-7


def test_solve_normalisation_frozen():
    A, B = solve_normalisation(B_RANGE, ALPHA, 3.0)
    assert A == pytest.approx(A_STAR, rel=1e-12)
    assert B == pytest.approx(B_STAR, rel=1e-12)
    assert B * B / (A * A) == pytest.approx(3.0, rel=1e-12)


def test_solve_normalisation_pure_s():
    A, B = solve_normalisation(B_RANGE, ALPHA, 0.0)
    assert B == 0.0
    assert A == pytest.approx(1.0 / math.sqrt(PS_UNIT), rel=1e-12)


def test_solve_normalisation_unequal_ranges():
    A, B = solve_normalisation(1.0, ALPHA, 2.0, 2.0)
    p = ModelParams(b1=1.0, b2=2.0, alpha=ALPHA, A=A, B=B)
    total = sum(probabilities_numeric(p))
    assert total == pytest.approx(1.0, abs=1e-10)


def test_solve_normalisation_rejects_negative_ratio():
    with pytest.raises(ValueError):
        solve_normalisation(B_RANGE, ALPHA, -0.5)


def test_probability_sum_after_normalisation():
    p = _solved_params()
    assert sum(probabilities_closed(p)) == pytest.approx(1.0, abs=1e-10)


def test_probability_scaling_is_quadratic():
    p1 = _unit_params()
    p2 = ModelParams(b1=B_RANGE, b2=B_RANGE, alpha=ALPHA, A=3.0, B=0.5)
    (ps1, pd1), (ps2, pd2) = probabilities_closed(p1), probabilities_closed(p2)
    assert ps2 == pytest.approx(9.0 * ps1, rel=1e-14)
    assert pd2 == pytest.approx(0.25 * pd1, rel=1e-14)


def test_asymptotics_frozen():
    p = _solved_params()
    A_S, A_D = asymptotic_normalisations(p)
    assert A_S == pytest.approx(A_S_STAR, rel=1e-12)
    assert A_D == pytest.approx(A_D_STAR, rel=1e-12)
    assert ds_ratio(p) == pytest.approx(ETA_STAR, rel=1e-12)


def test_asymptotics_small_alpha_limit():
    # i0, i1 -> their leading terms, so A_S -> A as alpha -> 0
    p = ModelParams(b1=B_RANGE, b2=B_RANGE, alpha=1e-8, A=0.7, B=1.0)
    A_S, _ = asymptotic_normalisations(p)
    assert A_S == pytest.approx(0.7, rel=1e-14)


def test_ds_ratio_degenerate_cases():
    both_zero = ModelParams(b1=1.0, b2=1.0, alpha=0.2, A=0.0, B=0.0)
    assert ds_ratio(both_zero) == 0.0
    s_only_zero = ModelParams(b1=1.0, b2=1.0, alpha=0.2, A=0.0, B=1.0)
    with pytest.raises(ValueError):
        ds_ratio(s_only_zero)


def test_rms_and_q_frozen():
    p = _solved_params()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = report(p)
    assert rep.r_rms == pytest.approx(R_RMS_STAR, rel=1e-12)
    assert rep.Q == pytest.approx(Q_STAR, rel=1e-12)


def test_rms_and_q_panel_doubling():
    # report's r_rms and Q agree with the same observables integrated on
    # report's breakpoints at twice the panel order
    p = _solved_params()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = report(p)
    doubled = QuadratureScheme(2 * PANEL_ORDER, radial_scheme(p).breakpoints)
    r2 = integrate_panels(lambda r: r * r * (uw_coordinate(r, p) ** 2).sum(axis=0), doubled)

    def q_integrand(r):
        u, w = uw_coordinate(r, p)
        return r * r * w * (math.sqrt(8.0) * u - w)

    assert abs(rep.r_rms - 0.5 * math.sqrt(r2)) < 1e-9
    assert abs(rep.Q - integrate_panels(q_integrand, doubled) / 20.0) < 1e-9


def test_three_figure_strengths_do_not_warn():
    # the rounded values leave |P_S + P_D - 1| ~ 2e-4, inside the band
    p = ModelParams(b1=B_RANGE, b2=B_RANGE, alpha=ALPHA, A=0.905, B=1.57)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report(p)


def test_unit_strengths_warn():
    with pytest.warns(UserWarning, match="not normalised"):
        report(_unit_params())


def test_report_closed_path():
    p = _solved_params()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = report(p)
    assert isinstance(rep, ObservablesReport)
    assert rep.probability_path == "closed"
    assert rep.P_S == pytest.approx(P_S_STAR, rel=1e-12)
    assert rep.P_D == pytest.approx(P_D_STAR, rel=1e-12)
    assert rep.r_rms == pytest.approx(R_RMS_STAR, rel=1e-12)
    assert rep.Q == pytest.approx(Q_STAR, rel=1e-12)


def test_report_numeric_path_and_keys():
    A, B = solve_normalisation(1.0, ALPHA, 2.5, 2.0)
    p = ModelParams(b1=1.0, b2=2.0, alpha=ALPHA, A=A, B=B)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = report(p)
    assert rep.probability_path == "numeric"
    assert rep.P_S + rep.P_D == pytest.approx(1.0, abs=1e-9)
    d = rep.to_dict()
    assert set(d) == {
        "P_S",
        "P_D",
        "A_S_per_sqrt_fm",
        "A_D_per_sqrt_fm",
        "eta",
        "r_rms_fm",
        "Q_fm2",
        "probability_path",
    }


def test_report_warns_once_when_unnormalised():
    with pytest.warns(UserWarning) as rec:
        report(_unit_params())
    assert len([w for w in rec if issubclass(w.category, UserWarning)]) == 1


@pytest.mark.parametrize("b1, b2", [(1.475, 1.475), (1.0, 2.0)])
@pytest.mark.parametrize("normalised", [True, False])
def test_quadratic_form_matches_direct_integrals(b1, b2, normalised):
    # report reads r_rms and Q off the unit-strength moments; integrate
    # the observables directly from u and w at the actual strengths, on
    # report's own panels and on the same panels at twice the order
    A, B = solve_normalisation(b1, ALPHA, 3.0, b2) if normalised else (1.0, 1.0)
    p = ModelParams(b1=b1, b2=b2, alpha=ALPHA, A=A, B=B)

    def direct(scheme):
        r2 = integrate_panels(lambda r: r * r * (uw_coordinate(r, p) ** 2).sum(axis=0), scheme)

        def q_integrand(r):
            u, w = uw_coordinate(r, p)
            return r * r * w * (math.sqrt(8.0) * u - w)

        return 0.5 * math.sqrt(r2), integrate_panels(q_integrand, scheme) / 20.0

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = report(p)
    scheme = radial_scheme(p)
    r_rms, q = direct(scheme)
    assert rep.r_rms == pytest.approx(r_rms, rel=1e-13)
    assert rep.Q == pytest.approx(q, rel=1e-13)
    r_rms, q = direct(QuadratureScheme(2 * PANEL_ORDER, scheme.breakpoints))
    assert abs(rep.r_rms - r_rms) < 1e-9
    assert abs(rep.Q - q) < 1e-9


def test_report_evaluates_each_region_branch_once(monkeypatch):
    # one branch call per region, on that region's panels and no other node
    import sepdeut.observables as obs

    fn = obs.branch
    for b1, b2 in ((B_RANGE, B_RANGE), (1.0, 2.0)):
        A, B = solve_normalisation(b1, ALPHA, 3.0, b2)
        p = ModelParams(b1=b1, b2=b2, alpha=ALPHA, A=A, B=B)
        calls = []
        monkeypatch.setattr(obs, "branch", lambda region, r, q, d=0: calls.append((region, r)) or fn(region, r, q, d))
        report(p)
        monkeypatch.undo()
        regions = [Region.MIDDLE, Region.OUTER] if p.equal_range else list(Region)
        assert [region for region, _ in calls] == regions
        assert [r.size for _, r in calls] == [PANEL_ORDER] * (len(regions) - 1) + [40 * PANEL_ORDER]
        for region, r in calls:
            assert _region_masks(r, p)[list(Region).index(region)].all()


# equal and unequal ranges, gaps either side of EPS_REGION, and the small-gap point
MASKED_POINTS = [(1.475, 1.475, 0.23165), (1.0, 2.0, 0.23165), (1.2, 1.2 + 0.9 * EPS_REGION, 0.3),
                 (1.2, 1.2 + 1.1 * EPS_REGION, 0.3), (0.8630907246683204, 1.009481874289787, 0.200069984570407)]


@pytest.mark.parametrize("b1, b2, alpha", MASKED_POINTS)
def test_radial_integrals_equal_masked_integrands(b1, b2, alpha):
    # integrating each region's branch on its own panels gives the doubles
    # of one integrand that sorts every node into its region
    def masked(rows, q):
        return integrate_panels(lambda r: rows(r, *uw_coordinate(r, q)), radial_scheme(q)).tolist()

    def moments(r, u, w):
        r2 = r * r
        return np.stack([r2 * u * u, r2 * w * w, r2 * u * w])

    p = ModelParams(b1=b1, b2=b2, alpha=alpha, A=0.9, B=1.5)
    assert list(probabilities_coordinate(p)) == masked(lambda r, u, w: np.square((u, w)), p)
    # one record, and one block of several, each column its record's integral
    units = [ModelParams(b1=b1, b2=b2, alpha=alpha * s, A=1.0, B=1.0) for s in (1.0, 1.3, 0.7)]
    assert _rms_core(units[0]).tolist() == masked(moments, units[0])
    block = _rms_core(units)
    assert block.shape == (3, len(units))
    for i, q in enumerate(units):
        assert block[:, i].tolist() == masked(moments, q)


@pytest.mark.parametrize("alpha", [0.05, 0.23165, 1.0, 3.0])
def test_batched_records_equal_one_record_calls(alpha):
    # alpha*b on a log grid, and on both sides of the series cuts of the
    # closed norms (0.3, 1.5) and of the branch profiles (0.5)
    s = sorted(np.geomspace(1e-3, 50.0, 17).tolist() + [0.29, 0.31, 0.49, 0.51, 1.49, 1.51])
    bs = [x / alpha for x in s]

    def fields(m):
        return m.N_S, m.N_D, m.R_S, m.R_D, m.X, m.path

    assert [fields(m) for m in _moments(bs, bs, alpha)] == [fields(_moments(b, b, alpha)) for b in bs]
    # one _rms_core call over all of them, more records than a block
    units = [ModelParams(b1=b, b2=b, alpha=alpha, A=1.0, B=1.0) for b in bs]
    assert _rms_core(units).T.tolist() == [_rms_core(unit).tolist() for unit in units]


def test_report_evaluates_the_asymptotic_normalisations_once(monkeypatch):
    import sepdeut.observables as obs

    p = _solved_params()
    calls = []
    fn = obs._outer_coefficients
    monkeypatch.setattr(obs, "_outer_coefficients", lambda q, d: calls.append(d) or fn(q, d))
    rep = report(p)
    assert calls == [0]
    monkeypatch.undo()
    assert (rep.A_S, rep.A_D) == asymptotic_normalisations(p)
    assert rep.eta == ds_ratio(p)
    # the outer branch's coefficients are the Bessel products, bit for bit
    a, b = p.alpha * p.b1, p.alpha * p.b2
    assert asymptotic_normalisations(p) == (p.A * mod_sph_bessel_i(0, a) * mod_sph_bessel_i(0, b),
                                            p.B * mod_sph_bessel_i(1, a) * mod_sph_bessel_i(1, b))


# `report` and the default fit, frozen with repr at the golden points of
# test_cli: a speed-up that moves the last digits of r_rms or Q fails here
# while every physics tolerance above still passes.
FROZEN_REPORTS = {
    (1.475, 1.475, 0.23165, 3.0): ObservablesReport(
        P_S=0.9622120290866111, P_D=0.037787970913389285, A_S=0.9407255004928512, A_D=0.020812187463652192,
        eta=0.022123549805706952, r_rms=2.0795902273783473, Q=0.285565338067451, probability_path="closed"),
    (1.0, 2.0, 0.23165, 3.0): ObservablesReport(
        P_S=0.97428236024978, P_D=0.02571763975022024, A_S=0.9746236346723832, A_D=0.019777333622721813,
        eta=0.02029227787952208, r_rms=2.1421591699612685, Q=0.2704327864733468, probability_path="numeric"),
    (0.8613, 1.0119, 0.4415, 5.268): ObservablesReport(
        P_S=0.9199775477713175, P_D=0.08002245222868236, A_S=1.3755027746237405, A_D=0.058255563692538405,
        eta=0.042352196423939475, r_rms=1.1575398946502873, Q=0.14164094179780093, probability_path="numeric"),
    (0.5, 0.5, 0.8, 3.0): ObservablesReport(
        P_S=0.9536115525646768, P_D=0.04638844743532318, A_S=1.854070277498809, A_D=0.05589719568088467,
        eta=0.03014836943305704, r_rms=0.6338181367894928, Q=0.03252737849876809, probability_path="closed"),
}


@pytest.mark.parametrize("point", sorted(FROZEN_REPORTS))
def test_report_frozen_digits(point):
    b1, b2, alpha, ratio = point
    A, B = solve_normalisation(b1, alpha, ratio, b2)
    got = report(ModelParams(b1=b1, b2=b2, alpha=alpha, A=A, B=B)).to_dict()
    frozen = FROZEN_REPORTS[point].to_dict()
    assert got.pop("probability_path") == frozen.pop("probability_path")
    assert got == pytest.approx(frozen, rel=1e-15, abs=0.0)


def test_fit_frozen_digits():
    res = fit_parameters(FitTargets(2.08, 0.286), 0.23165)
    assert (res.iterations, res.converged) == (22, True)
    assert (res.b, res.ratio, res.A, res.B) == pytest.approx(
        (1.475982656746916, 3.0015438195697546, 0.9051059329455043, 1.5680927818243886), rel=1e-15, abs=0.0)
    # a residual of O(1) quantities at round-off: absolute, not relative
    assert res.residual_norm == pytest.approx(2.5620531337503612e-15, rel=0.0, abs=1e-15)

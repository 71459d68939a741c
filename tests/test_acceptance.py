"""Acceptance gate: one test per release criterion, at the stated tolerances.

Each test prints a single `criterion N: ... PASS/FAIL` line (visible with
pytest -s, and in the failure report otherwise) so the whole gate reads as a
checklist.  Tolerances here are the contract values, not the tighter margins
the unit tests use.
"""

import math

import numpy as np
import pytest

from sepdeut.fitting import FitTargets, fit_parameters
from sepdeut.model import ModelParams, Region
from sepdeut.observables import (
    asymptotic_normalisations,
    ds_ratio,
    probabilities_closed,
    probabilities_coordinate,
    probabilities_numeric,
    radial_scheme,
    report,
    solve_normalisation,
)
from sepdeut.quadrature import PANEL_ORDER, QuadratureScheme, integrate_panels
from sepdeut.transform_oracle import validate_transforms
from sepdeut.wf_coordinate import branch, uw_coordinate

ALPHA = 0.23165
B_RANGE = 1.475
RANGE_PAIRS = [(1.475, 1.475), (1.0, 2.0), (0.8, 1.1)]


def _verdict(number, description, ok):
    print(f"criterion {number}: {description} {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {description}"


def _solved_params():
    A, B = solve_normalisation(B_RANGE, ALPHA, 3.0)
    return ModelParams(b1=B_RANGE, b2=B_RANGE, alpha=ALPHA, A=A, B=B)


def test_criterion_1_normalisation_reproduction():
    A, B = solve_normalisation(B_RANGE, ALPHA, 3.0)
    ok = abs(A - 0.905) <= 0.001 and abs(B - 1.57) <= 0.01
    _verdict(1, f"A = {A:.5f} (0.905 +/- 0.001), B = {B:.5f} (1.57 +/- 0.01)", ok)


def test_criterion_2_probabilities():
    p = _solved_params()
    ps_c, pd_c = probabilities_closed(p)
    ps_n, pd_n = probabilities_numeric(p)
    ok = (
        abs(ps_c - 0.96) <= 0.005
        and abs(pd_c - 0.04) <= 0.005
        and abs(ps_c - ps_n) / ps_c <= 1e-8
        and abs(pd_c - pd_n) / pd_c <= 1e-6
    )
    _verdict(
        2,
        f"P_S = {ps_c:.5f}, P_D = {pd_c:.5f}; closed/quadrature rel devs "
        f"{abs(ps_c - ps_n) / ps_c:.1e}, {abs(pd_c - pd_n) / pd_c:.1e}",
        ok,
    )


def test_criterion_3_asymptotics():
    p = _solved_params()
    A_S, A_D = asymptotic_normalisations(p)
    eta = ds_ratio(p)
    ok = abs(A_S - 0.941) <= 0.001 and abs(A_D - 0.0208) <= 0.0002 and abs(eta - 0.022) <= 0.0005
    _verdict(3, f"A_S = {A_S:.5f}, A_D = {A_D:.6f}, eta = {eta:.6f}", ok)


def test_criterion_4_observables_stable_under_doubling():
    # report against r_rms and Q integrated directly on its panels at twice the order
    p = _solved_params()
    rep = report(p)
    r1, q1 = rep.r_rms, rep.Q
    doubled = QuadratureScheme(2 * PANEL_ORDER, radial_scheme(p).breakpoints)

    def integrands(r):
        u, w = uw_coordinate(r, p)
        return np.stack([r * r * (u * u + w * w), r * r * w * (math.sqrt(8.0) * u - w)])

    r2_moment, q_moment = integrate_panels(integrands, doubled)
    r2, q2 = 0.5 * math.sqrt(r2_moment), q_moment / 20.0
    ok = (
        abs(r1 - 2.08) <= 0.01
        and abs(q1 - 0.286) <= 0.002
        and abs(r1 - r2) < 1e-6
        and abs(q1 - q2) < 1e-6
    )
    _verdict(
        4,
        f"r_rms = {r1:.5f} fm, Q = {q1:.5f} fm^2; doubling shifts "
        f"{abs(r1 - r2):.1e}, {abs(q1 - q2):.1e}",
        ok,
    )


def test_criterion_5_fit_recovery():
    targets = FitTargets(r_rms=2.08, Q=0.286)
    starts = [(1.2, 2.0), (0.8, 1.0), (2.2, 6.0)]
    results = [fit_parameters(targets, ALPHA, initial=s) for s in starts]
    bs = [r.b for r in results]
    ratios = [r.ratio for r in results]
    ok = (
        all(r.converged for r in results)
        and all(abs(b - 1.475) <= 0.01 for b in bs)
        and all(abs(rho - 3.0) <= 0.15 for rho in ratios)
        and max(bs) - min(bs) <= 1e-4
        and max(ratios) - min(ratios) <= 1e-4
    )
    _verdict(
        5,
        f"b in [{min(bs):.6f}, {max(bs):.6f}] (1.475 +/- 0.01), "
        f"ratio in [{min(ratios):.6f}, {max(ratios):.6f}] (3.0 +/- 0.15) from {len(starts)} starts",
        ok,
    )


def test_criterion_6_branch_continuity():
    worst_value, worst_deriv = 0.0, 0.0
    for b1, b2 in RANGE_PAIRS:
        p = ModelParams(b1=b1, b2=b2, alpha=ALPHA, A=0.9, B=1.5)
        boundaries = []
        if not p.equal_range:
            boundaries.append((p.delta, Region.INNER, Region.MIDDLE))
        boundaries.append((p.range_sum, Region.MIDDLE, Region.OUTER))
        for r0, lo, hi in boundaries:
            values = zip(*(branch(region, r0, p, d).tolist() for d in (0, 1) for region in (lo, hi)))
            for a, b, da, db in values:
                worst_value = max(worst_value, abs(a - b) / max(abs(a), abs(b)))
                worst_deriv = max(worst_deriv, abs(da - db) / max(abs(da), abs(db)))
    ok = worst_value <= 1e-10 and worst_deriv <= 1e-8
    _verdict(
        6,
        f"boundary value rel dev {worst_value:.1e} (tol 1e-10), "
        f"one-sided derivative rel dev {worst_deriv:.1e} (tol 1e-8)",
        ok,
    )


def test_criterion_7_transform_oracle_equivalence():
    worst = 0.0
    for b1, b2 in RANGE_PAIRS:
        p = ModelParams(b1=b1, b2=b2, alpha=ALPHA, A=0.9, B=1.5)
        rep = validate_transforms(p)
        worst = max(worst, rep.max_abs_dev_u, rep.max_abs_dev_w)
    ok = worst <= 1e-7
    _verdict(7, f"max |numeric - analytic| = {worst:.1e} on the r grid (tol 1e-7)", ok)


def test_criterion_8_parseval_and_norm():
    worst = 0.0
    for b1, b2 in RANGE_PAIRS:
        p = ModelParams(b1=b1, b2=b2, alpha=ALPHA, A=0.9, B=1.5)
        (ps_k, pd_k), (ps_r, pd_r) = probabilities_numeric(p), probabilities_coordinate(p)
        worst = max(worst, abs(ps_k - ps_r), abs(pd_k - pd_r))
    total = sum(probabilities_closed(_solved_params()))
    ok = worst <= 1e-7 and abs(total - 1.0) <= 1e-10
    _verdict(
        8,
        f"Parseval dev {worst:.1e} (tol 1e-7); P_S + P_D - 1 = {total - 1.0:.1e} (tol 1e-10)",
        ok,
    )


def test_criterion_9_equal_range_limit():
    d = 1e-4
    # relative D-wave differences carry an exact 2*(d/r)^2 floor near the
    # origin, so the grid samples (0, 12] from 0.25 fm outward
    r = np.arange(1, 49) * 0.25
    pe = ModelParams(b1=B_RANGE + d / 2, b2=B_RANGE + d / 2, alpha=ALPHA, A=1.0, B=1.0)
    pn = ModelParams(b1=B_RANGE, b2=B_RANGE + d, alpha=ALPHA, A=1.0, B=1.0)
    dev_u, dev_w = np.max(np.abs(uw_coordinate(r, pn) - uw_coordinate(r, pe)) / np.abs(uw_coordinate(r, pe)),
                          axis=1).tolist()
    ok = dev_u <= 1e-6 and dev_w <= 1e-6
    _verdict(
        9,
        f"b2 = b1 + 1e-4 vs equal-range: u rel dev {dev_u:.1e}, w rel dev {dev_w:.1e} (tol 1e-6)",
        ok,
    )

import math

import numpy as np
import pytest

from sepdeut.model import ModelParams, Region, region_of
from sepdeut.specfun import _horner, mod_sph_bessel_k
from sepdeut.wf_coordinate import (
    _G_SERIES,
    _SINH_MINUS_SERIES,
    _g,
    _sinh_minus,
    branch_value,
    du_dr,
    dw_dr,
    u_coordinate,
    w_coordinate,
)

ALPHA = 0.23165

# Reference values from a 40-digit direct Fourier-Bessel transform of the
# momentum wavefunctions (unit strengths A = B = 1), covering all three
# regions for each range pair.
REFERENCE_GRID = {
    (1.475, 1.475): [
        (0.25, 0.11567803959060255, 0.0017756799281083592),
        (0.5, 0.21737645177979451, 0.0069627227155917845),
        (1.0, 0.38015334909768528, 0.025996465075574088),
        (2.0, 0.54994920396606417, 0.077195220370147294),
        (3.0, 0.51882719765464935, 0.076400087631023221),
        (5.0, 0.32644806663706945, 0.024294306288201833),
        (8.0, 0.16293003495079871, 0.0072679678137035373),
    ],
    (1.0, 2.0): [
        (0.25, 0.079400155614801809, -4.3129023155489325e-06),
        (0.5, 0.15906668248454316, -3.4528021038947244e-05),
        (1.0, 0.32026969973244218, -0.000277018958565909),
        (2.0, 0.53224263726042696, 0.050848272705852),
        (3.0, 0.52178462561280017, 0.070475536280765237),
        (5.0, 0.32830889167384671, 0.022410370423907072),
        (8.0, 0.16385877161449752, 0.0067043631129829582),
    ],
    (0.8, 1.1): [
        (0.25, 0.17725901607130344, -1.2025039645423652e-05),
        (0.5, 0.34374703067541404, 0.0069576245079974711),
        (1.0, 0.57548488162042979, 0.048083019685298763),
        (2.0, 0.63968195803266977, 0.071526425067173482),
        (3.0, 0.50741089150797046, 0.030491363148082109),
        (5.0, 0.31926488293627794, 0.009695885678061699),
        (8.0, 0.15934491225889709, 0.0029006543425248545),
    ],
}

RANGE_PAIRS = sorted(REFERENCE_GRID)


def _params(b1, b2, A=1.0, B=1.0):
    return ModelParams(b1=b1, b2=b2, alpha=ALPHA, A=A, B=B)


@pytest.mark.parametrize("pair", RANGE_PAIRS)
def test_against_transform_reference(pair):
    p = _params(*pair)
    for r, u_ref, w_ref in REFERENCE_GRID[pair]:
        assert u_coordinate(r, p) == pytest.approx(u_ref, rel=5e-12)
        assert w_coordinate(r, p) == pytest.approx(w_ref, rel=5e-12)


@pytest.mark.parametrize("pair", RANGE_PAIRS)
def test_branch_continuity(pair):
    p = _params(*pair, A=0.9, B=1.5)
    boundaries = []
    if not p.equal_range:
        boundaries.append((p.delta, Region.INNER, Region.MIDDLE))
    boundaries.append((p.range_sum, Region.MIDDLE, Region.OUTER))
    for r0, lo, hi in boundaries:
        for channel in ("u", "w"):
            a = float(branch_value(channel, lo, r0, p))
            b = float(branch_value(channel, hi, r0, p))
            assert abs(a - b) / max(abs(a), abs(b)) < 1e-10


@pytest.mark.parametrize("pair", RANGE_PAIRS)
def test_one_sided_derivatives_match(pair):
    p = _params(*pair, A=0.9, B=1.5)
    boundaries = []
    if not p.equal_range:
        boundaries.append((p.delta, Region.INNER, Region.MIDDLE))
    boundaries.append((p.range_sum, Region.MIDDLE, Region.OUTER))
    for r0, lo, hi in boundaries:
        for deriv in (du_dr, dw_dr):
            d_lo = deriv(r0, p, lo)
            d_hi = deriv(r0, p, hi)
            assert abs(d_lo - d_hi) / max(abs(d_lo), abs(d_hi)) < 1e-8


def test_near_equal_ranges_approach_equal_formulas():
    # b2 - b1 = 1e-4 against the equal-range point at the midpoint range.
    # The two D-waves genuinely differ by ~2*(delta/r)^2 in relative terms,
    # so the grid starts at r = 0.25 where that floor is ~3e-7.
    d = 1e-4
    r = np.arange(1, 49) * 0.25
    pe = _params(1.475 + d / 2, 1.475 + d / 2)
    pn = _params(1.475, 1.475 + d)
    u_rel = np.abs(u_coordinate(r, pn) - u_coordinate(r, pe)) / np.abs(u_coordinate(r, pe))
    w_rel = np.abs(w_coordinate(r, pn) - w_coordinate(r, pe)) / np.abs(w_coordinate(r, pe))
    assert np.max(u_rel) < 1e-6
    assert np.max(w_rel) < 1e-6


def test_outer_region_is_pure_exponential():
    from sepdeut.specfun import mod_sph_bessel_i

    p = _params(1.0, 2.0, A=0.9, B=1.5)
    r = np.linspace(3.5, 11.0, 40)
    scaled = u_coordinate(r, p) * np.exp(ALPHA * r)
    expected = p.A * mod_sph_bessel_i(0, ALPHA * p.b1) * mod_sph_bessel_i(0, ALPHA * p.b2)
    assert np.max(np.abs(scaled - expected)) < 1e-13


def test_inner_d_wave_is_negative_for_unequal_ranges():
    p = _params(1.0, 2.0)
    for r in (0.2, 0.5, 0.9, 0.999):
        assert w_coordinate(r, p) < 0.0
        assert u_coordinate(r, p) > 0.0
    # and it crosses back to positive in the middle region
    assert w_coordinate(2.0, p) > 0.0


def test_frozen_value_at_outer_boundary():
    p = _params(1.475, 1.475, A=0.905, B=1.57)
    assert u_coordinate(2.95, p) == pytest.approx(0.47500866213727057, rel=5e-14)


def test_analytic_derivative_s_channel():
    # middle region, equal ranges: u'(r) = A/(2 a b^2) (e^(-ar) - e^(-2ab) cosh(ar))
    p = _params(1.475, 1.475, A=0.905, B=1.57)
    a, b = ALPHA, 1.475
    r = 1.0
    expected = p.A / (2.0 * a * b * b) * (math.exp(-a * r) - math.exp(-2.0 * a * b) * math.cosh(a * r))
    assert du_dr(r, p) == pytest.approx(expected, rel=1e-11)


def test_analytic_derivative_d_channel_outer():
    from sepdeut.specfun import mod_sph_bessel_i

    p = _params(1.0, 2.0, A=0.9, B=1.5)
    a = ALPHA
    c = p.B * mod_sph_bessel_i(1, a * p.b1) * mod_sph_bessel_i(1, a * p.b2)
    r = 5.0
    x = a * r
    expected = -c * a * math.exp(-x) * (1.0 + 3.0 / x + 6.0 / x**2 + 6.0 / x**3)
    assert dw_dr(r, p) == pytest.approx(expected, rel=1e-11)


def test_derivative_limit_at_origin():
    # u'(0+) = A (1 - e^(-2ab)) / (2 a b^2); the slope u'' = -A/(2b^2)
    # moves the numerical value by ~2e-7 at r = 1e-6
    p = _params(1.475, 1.475, A=0.905, B=1.57)
    a, b = ALPHA, 1.475
    limit = p.A * (1.0 - math.exp(-2.0 * a * b)) / (2.0 * a * b * b)
    assert du_dr(1e-6, p) == pytest.approx(limit, abs=1e-6)


def test_derivative_rejects_nonpositive_radius():
    p = _params(1.475, 1.475)
    with pytest.raises(ValueError):
        du_dr(0.0, p)
    with pytest.raises(ValueError):
        dw_dr(-1.0, p)


def test_values_at_origin():
    p = _params(1.0, 2.0)
    assert u_coordinate(0.0, p) == 0.0
    assert w_coordinate(0.0, p) == 0.0
    with pytest.raises(ValueError):
        u_coordinate(-0.5, p)
    with pytest.raises(ValueError):
        w_coordinate(float("nan"), p)


def test_strength_scaling():
    r = np.linspace(0.1, 10.0, 25)
    p1 = _params(1.0, 2.0, A=1.0, B=1.0)
    p2 = _params(1.0, 2.0, A=2.0, B=0.25)
    assert np.allclose(u_coordinate(r, p2), 2.0 * u_coordinate(r, p1), rtol=1e-15)
    assert np.allclose(w_coordinate(r, p2), 0.25 * w_coordinate(r, p1), rtol=1e-15)


def test_scalar_array_consistency():
    p = _params(0.8, 1.1, A=0.9, B=1.5)
    r = np.array([0.1, 0.3, 1.7, 2.5])
    vec_u = u_coordinate(r, p)
    vec_w = w_coordinate(r, p)
    for i, ri in enumerate(r):
        assert vec_u[i] == u_coordinate(float(ri), p)
        assert vec_w[i] == w_coordinate(float(ri), p)


def test_branch_value_rejects_unknown_channel():
    p = _params(1.475, 1.475)
    with pytest.raises(ValueError):
        branch_value("v", Region.MIDDLE, 1.0, p)


# Both paths of each bracket helper must agree across the switch at 0.5,
# on the same band as the j_l / i_l check in test_specfun.  The closed
# form of g cancels 3/x^2 against the pole of x*k2(x) down to O(x^2/8)
# and loses ~3 digits near x = 0.35, hence its looser tolerance.
SWITCH_BAND = np.linspace(0.35, 0.65, 61)


def test_g_series_and_closed_agree_in_switch_band():
    x = SWITCH_BAND
    closed = x * mod_sph_bessel_k(2, x) - 3.0 / (x * x) + 0.5
    series = x * x * _horner(_G_SERIES, x)
    assert np.max(np.abs(series - closed) / np.abs(closed)) < 5e-12
    assert np.max(np.abs(_g(x) - closed) / np.abs(closed)) < 5e-12


def test_sinh_minus_series_and_closed_agree_in_switch_band():
    for y in SWITCH_BAND:
        closed = math.sinh(y) - y
        series = y**3 * _horner(_SINH_MINUS_SERIES, y * y)
        assert abs(series - closed) < 1e-14 * abs(closed)
        assert abs(_sinh_minus(y) - closed) < 1e-14 * abs(closed)

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special

from sepdeut.observables import (
    _PD_PIECES,
    _PD_SERIES,
    _PD_SERIES_CUT,
    _PS_PIECES,
    _PS_SERIES,
    _PS_SERIES_CUT,
)
from sepdeut.specfun import (
    _I_PIECES,
    _I_SERIES,
    _SERIES_CUT,
    _bessel_series,
    _exact_series,
    _i_closed,
    _j_closed,
    mod_sph_bessel_i,
    mod_sph_bessel_k,
    sph_bessel_j,
)
from sepdeut.wf_coordinate import _G_PIECES, _G_SERIES, _SINH_MINUS_PIECES, _SINH_MINUS_SERIES

# High-precision reference values (40-digit arithmetic, rounded to double).
J2_AT_1 = 0.062035052011373861
I0_AT_0342 = 1.0196083228142183
K2_AT_0342 = 73.57057131125946

# every generated series table: (pieces, leading power, step, table, cut)
SERIES_TABLES = {
    **{f"i{l}": (_I_PIECES[l], 2 * l + 1, 2, _I_SERIES[l], _SERIES_CUT) for l in range(3)},
    "sinh_minus": (_SINH_MINUS_PIECES, 3, 2, _SINH_MINUS_SERIES, _SERIES_CUT),
    "g": (_G_PIECES, 4, 1, _G_SERIES, _SERIES_CUT),
    "P_S": (_PS_PIECES, 4, 1, _PS_SERIES, _PS_SERIES_CUT),
    "P_D": (_PD_PIECES, 9, 1, _PD_SERIES, _PD_SERIES_CUT),
}


def test_small_argument_limits():
    assert sph_bessel_j(0, 0.0) == 1.0
    assert sph_bessel_j(1, 0.0) == 0.0
    assert sph_bessel_j(2, 0.0) == 0.0
    assert mod_sph_bessel_i(0, 0.0) == 1.0
    assert mod_sph_bessel_i(1, 0.0) == 0.0
    assert mod_sph_bessel_i(2, 0.0) == 0.0


def test_frozen_values():
    assert sph_bessel_j(2, 1.0) == pytest.approx(J2_AT_1, rel=5e-15)
    assert mod_sph_bessel_i(0, 0.342) == pytest.approx(I0_AT_0342, rel=1e-15)
    assert mod_sph_bessel_k(2, 0.342) == pytest.approx(K2_AT_0342, rel=1e-15)
    # k1(1) = 2/e exactly
    assert mod_sph_bessel_k(1, 1.0) == pytest.approx(2.0 / math.e, rel=1e-15)
    assert mod_sph_bessel_k(0, 1.0) == pytest.approx(1.0 / math.e, rel=1e-15)


def test_j0_zero_at_pi():
    assert abs(sph_bessel_j(0, math.pi)) < 1e-16


@pytest.mark.parametrize("l", [0, 1, 2])
def test_series_and_closed_agree_in_switch_band(l):
    # both evaluation paths must agree where either could be active; the
    # closed form for l = 2 cancels O(3/x^3) terms down to O(x^2/15) near
    # x = 0.35, losing ~3 digits, so its tolerance is correspondingly looser
    tol = 1e-13 if l < 2 else 5e-12
    x = np.linspace(0.35, 0.65, 61)
    for closed, sign in ((_j_closed, -1.0), (_i_closed, 1.0)):
        a = closed(l, x)
        b = _bessel_series(l, x, sign)
        assert np.max(np.abs(a - b) / np.abs(a)) < tol


@pytest.mark.parametrize("name", sorted(SERIES_TABLES))
def test_series_truncation_below_one_ulp(name):
    # the first exact term a table leaves out, at the table's cut, must be
    # below 2^-52 of the leading term there
    pieces, leading_power, step, table, cut = SERIES_TABLES[name]
    n = len(table)
    exact = _exact_series(pieces, leading_power, n + 1, step)
    assert tuple(float(c) for c in exact[:n]) == table
    assert abs(exact[n]) * Fraction(cut) ** (step * n) < Fraction(1, 2**52) * abs(exact[0])


def test_series_generator_rejects_uncancelled_leading_terms():
    # sinh x alone has no x^3 leading power: its x^1 term survives
    with pytest.raises(AssertionError, match="leading zeros"):
        _exact_series(_I_PIECES[0], 3, 4, 2)


def test_wronskian_identity():
    # i0*k1 + i1*k0 = 1/x^2 in this normalisation
    x = np.logspace(-3, 1, 200)
    lhs = (
        mod_sph_bessel_i(0, x) * mod_sph_bessel_k(1, x)
        + mod_sph_bessel_i(1, x) * mod_sph_bessel_k(0, x)
    )
    assert np.max(np.abs(lhs * x * x - 1.0)) < 1e-12


def test_monotonicity():
    x = np.linspace(0.05, 8.0, 400)
    for l in (0, 1, 2):
        i = mod_sph_bessel_i(l, x)
        assert np.all(np.diff(i) > 0)
        k = mod_sph_bessel_k(l, x)
        assert np.all(np.diff(k) < 0)
    j0 = sph_bessel_j(0, np.linspace(0.01, math.pi - 0.01, 200))
    assert np.all(np.diff(j0) < 0)


@pytest.mark.parametrize("l", [0, 1, 2])
def test_against_scipy(l):
    x = np.concatenate([np.linspace(1e-4, 0.49, 40), np.linspace(0.5, 12.0, 60)])
    assert sph_bessel_j(l, x) == pytest.approx(scipy.special.spherical_jn(l, x), rel=1e-13, abs=1e-15)
    assert mod_sph_bessel_i(l, x) == pytest.approx(scipy.special.spherical_in(l, x), rel=1e-13)
    # scipy's spherical_kn carries an extra factor pi/2
    xk = np.linspace(0.05, 12.0, 60)
    ours = mod_sph_bessel_k(l, xk)
    assert ours == pytest.approx(scipy.special.spherical_kn(l, xk) / (math.pi / 2.0), rel=1e-13)


def test_domain_errors():
    for f in (lambda x: sph_bessel_j(0, x), lambda x: mod_sph_bessel_i(1, x)):
        with pytest.raises(ValueError):
            f(-0.5)
        with pytest.raises(ValueError):
            f(float("nan"))
    with pytest.raises(ValueError):
        mod_sph_bessel_k(0, 0.0)
    with pytest.raises(ValueError):
        mod_sph_bessel_k(1, -1.0)
    with pytest.raises(ValueError):
        sph_bessel_j(3, 1.0)


def test_scalar_and_array_shapes():
    out = sph_bessel_j(1, 0.3)
    assert isinstance(out, float)
    arr = sph_bessel_j(1, np.array([0.1, 0.6, 2.0]))
    assert arr.shape == (3,)
    # mixed small/large arguments route through both paths in one call
    mixed = mod_sph_bessel_i(2, np.array([0.01, 0.499, 0.501, 5.0]))
    assert np.all(np.isfinite(mixed))
    assert np.all(np.diff(mixed) > 0)

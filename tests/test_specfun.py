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
from sepdeut.wf_coordinate import (
    _DG_PIECES,
    _DG_SERIES,
    _G_PIECES,
    _G_SERIES,
    _SINH_MINUS_PIECES,
    _SINH_MINUS_SERIES,
)

# High-precision reference values (40-digit arithmetic, rounded to double).
J2_AT_1 = 0.062035052011373861
I0_AT_0342 = 1.0196083228142183
K2_AT_0342 = 73.57057131125946

# every generated series table: (pieces, leading power, step, table, cut)
SERIES_TABLES = {
    **{f"i{l}": (_I_PIECES[l], 2 * l + 1, 2, _I_SERIES[l], _SERIES_CUT) for l in range(3)},
    "sinh_minus": (_SINH_MINUS_PIECES, 3, 2, _SINH_MINUS_SERIES, _SERIES_CUT),
    "g": (_G_PIECES, 4, 1, _G_SERIES, _SERIES_CUT),
    "g'": (_DG_PIECES, 4, 1, _DG_SERIES, _SERIES_CUT),
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

    def j_closed(l, x):
        return _j_closed(l, x, np.sin(x), np.cos(x))

    for closed, sign in ((j_closed, -1.0), (_i_closed, 1.0)):
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


def test_j_is_series_below_the_cut_and_closed_form_from_it():
    # pins each element to the expression that must produce it, so the
    # single- and multi-order forms cannot drift together
    x = np.array([0.0, 0.3, np.nextafter(_SERIES_CUT, 0.0), _SERIES_CUT, np.nextafter(_SERIES_CUT, 1.0), 2.0, 1e3])
    small = x < _SERIES_CUT
    for l in (0, 1, 2):
        got = sph_bessel_j(l, x)
        assert got[small].tolist() == _bessel_series(l, x[small], -1.0).tolist()
        big = x[~small]
        assert got[~small].tolist() == _j_closed(l, big, np.sin(big), np.cos(big)).tolist()
        two = np.array([2.0])
        assert sph_bessel_j(l, 2.0) == _j_closed(l, two, np.sin(two), np.cos(two))[0]


def test_multi_order_j_equals_single_order_calls():
    below = np.nextafter(_SERIES_CUT, 0.0)
    x = np.array([0.0, 1e-3, 0.3, below, _SERIES_CUT, np.nextafter(_SERIES_CUT, 1.0), 0.7, 2.0, 1e3, 3.7e4])
    for xs in (x, x[4:], x[:4]):  # both paths, closed only, series only
        stacked = sph_bessel_j((0, 1, 2), xs)
        assert stacked.shape == (3,) + xs.shape
        for l, row in enumerate(stacked):
            assert row.tolist() == sph_bessel_j(l, xs).tolist()
    assert sph_bessel_j((2, 0), x.reshape(2, 5))[0].tolist() == sph_bessel_j(2, x).reshape(2, 5).tolist()
    assert sph_bessel_j((0,), x)[0].tolist() == sph_bessel_j(0, x).tolist()
    for xi in (0.0, below, 2.0):
        assert sph_bessel_j((0, 1, 2), xi).tolist() == [sph_bessel_j(l, xi) for l in (0, 1, 2)]
    with pytest.raises(ValueError):
        sph_bessel_j((0, 3), 1.0)
    with pytest.raises(ValueError):
        sph_bessel_j((0, 2), -1.0)


def test_scalar_and_array_shapes():
    out = sph_bessel_j(1, 0.3)
    assert isinstance(out, float)
    arr = sph_bessel_j(1, np.array([0.1, 0.6, 2.0]))
    assert arr.shape == (3,)
    # mixed small/large arguments route through both paths in one call
    mixed = mod_sph_bessel_i(2, np.array([0.01, 0.499, 0.501, 5.0]))
    assert np.all(np.isfinite(mixed))
    assert np.all(np.diff(mixed) > 0)


def _scalar_arguments():
    rng = np.random.default_rng(20261019)
    random = np.concatenate([rng.uniform(0.0, 2.0, 6000), np.exp(rng.uniform(math.log(1e-300), math.log(700.0), 4000))])
    edges = np.array([0.0, np.nextafter(_SERIES_CUT, 0.0), _SERIES_CUT, np.nextafter(_SERIES_CUT, 1.0), 1e-300, 700.0])
    return np.concatenate([random, edges])


@pytest.mark.parametrize("l", [0, 1, 2])
@pytest.mark.parametrize("kind", [float, np.float64])
def test_scalar_call_equals_one_element_array_call(l, kind):
    # the float path skips the masks and must still give the array's doubles
    xs = _scalar_arguments()
    with np.errstate(all="ignore"):  # i2 overflows at 700, k_l at 1e-300
        for f, args in ((mod_sph_bessel_i, xs), (mod_sph_bessel_k, xs[xs > 0])):
            scalar = [f(l, kind(x)) for x in args.tolist()]
            assert all(type(v) is float for v in scalar)
            array = [f(l, np.array([x]))[0] for x in args.tolist()]
            assert [v.hex() for v in scalar] == [float(v).hex() for v in array]


def test_scalar_call_does_not_reach_the_mask_split(monkeypatch):
    import sepdeut.specfun as specfun

    def no_split(*args):
        raise AssertionError("scalar argument reached _split")

    monkeypatch.setattr(specfun, "_split", no_split)
    for x in (0.0, 0.3, _SERIES_CUT, 2.0, np.float64(0.3), np.float64(2.0), 1, np.array(0.3)):
        for l in (0, 1, 2):
            assert isinstance(mod_sph_bessel_i(l, x), float)
            if x > 0:
                assert isinstance(mod_sph_bessel_k(l, x), float)
    with pytest.raises(AssertionError, match="_split"):
        mod_sph_bessel_i(0, np.array([0.3]))


@pytest.mark.parametrize("kind", [float, np.float64, np.array, lambda x: np.array([x, 1.0])])
def test_scalar_domain_errors_match_the_array_path(kind):
    for x, message in ((math.nan, "finite"), (math.inf, "finite"), (-1.0, "non-negative")):
        with pytest.raises(ValueError, match=message):
            mod_sph_bessel_i(1, kind(x))
    for x, message in ((math.nan, "finite"), (-math.inf, "finite"), (-1.0, "diverges"), (0.0, "diverges")):
        with pytest.raises(ValueError, match=message):
            mod_sph_bessel_k(1, kind(x))

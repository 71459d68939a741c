import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
import scipy.special

from sepdeut import observables, specfun, wf_coordinate
from sepdeut.specfun import (
    _i,
    _I_PIECES,
    _SERIES_CUT,
    _ExpPoly,
    _exact_series,
    _j_closed,
    _polys_by_rate,
    mod_sph_bessel_i,
    mod_sph_bessel_k,
    sph_bessel_j,
)

# High-precision reference values (40-digit arithmetic, rounded to double).
J2_AT_1 = 0.062035052011373861
I0_AT_0342 = 1.0196083228142183
K2_AT_0342 = 73.57057131125946


def _exp_polys():
    """Every _ExpPoly that specfun, wf_coordinate and observables build, by
    name: `_P_S` as "P_S", and the members of the tuple `_i` as "i0", "i1", ..."""
    found = {}
    for module in (specfun, wf_coordinate, observables):
        for name, value in vars(module).items():
            for i, e in enumerate(value) if isinstance(value, tuple) else [("", value)]:
                if isinstance(e, _ExpPoly):
                    found[f"{name.lstrip('_')}{i}"] = e
    return found


EXP_POLYS = _exp_polys()


def test_every_table_is_found():
    assert sorted(EXP_POLYS) == ["C0", "P0", "P_D", "P_S", "S2", "g", "i0", "i1", "i2", "xi2"]


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
    j = (_j_closed(l, x, np.sin(x), np.cos(x)), _i[l].series_at(x, -x * x))
    i = (_i[l].closed(x), _i[l].series_at(x, x * x))
    for a, b in (j, i):
        assert np.max(np.abs(a - b) / np.abs(a)) < tol


@pytest.mark.parametrize("name", sorted(EXP_POLYS))
def test_series_truncation_below_one_ulp(name):
    # the first exact term a table leaves out, at the table's cut, must be
    # below 2^-52 of the leading term there
    e = EXP_POLYS[name]
    n = e.n_terms
    exact = _exact_series(e.pieces, e.leading_power, n + 1, e.step)
    assert tuple(float(c) for c in exact[:n]) == e.series
    assert abs(exact[n]) * Fraction(e.cut) ** (e.step * n) < Fraction(1, 2**52) * abs(exact[0])
    # and of the slope's series, the value's term by term: c_m x^k -> k c_m x^(k-1)
    powers = [e.leading_power - e.p + e.step * m for m in range(n + 1)]
    slope = [k * c for k, c in zip(powers, exact) if k]
    assert tuple(float(c) for c in slope[:-1]) == e.slope_series
    assert abs(slope[-1]) * Fraction(e.cut) ** (e.step * (len(slope) - 1)) < Fraction(1, 2**52) * abs(slope[0])


# largest relative gap between series and closed form, value and slope,
# over [0.7 cut, 1.3 cut], as measured and rounded up: from 2.2e-16 (i0) to
# 1.5e-11 (the slope of P_D's series at 1.3 times its cut of 1.5)
BAND_TOL = {
    "P_D": (2.5e-12, 1.5e-11), "P_S": (2e-13, 2e-14),
    "i0": (5e-16, 1e-14), "i1": (1e-14, 2e-14), "i2": (2e-12, 2e-12),
    "C0": (1e-13, 5e-15), "g": (5e-13, 5e-13), "P0": (2e-11, 5e-13),
    "S2": (3e-13, 3e-14), "xi2": (2e-12, 1e-12),
}


@pytest.mark.parametrize("name", sorted(EXP_POLYS))
def test_series_and_closed_agree_around_the_cut(name):
    e = EXP_POLYS[name]
    x = np.linspace(0.7 * e.cut, 1.3 * e.cut, 121)
    t = x * x if e.step == 2 else x
    for d, tol in enumerate(BAND_TOL[name]):
        series, closed = e.series_at(x, t, d), e.closed(x, d)
        assert np.max(np.abs(series - closed) / np.abs(closed)) < tol, d


def _reference(e, x, d):
    """40-digit value (d = 0) or slope (d = 1) of e's pieces at the double x."""
    with localcontext() as ctx:
        ctx.prec = 40
        x = Decimal(x)
        total = Decimal(0)
        for scale, poly, rate in e.pieces:
            coeffs = [Decimal(scale) * Decimal(c) for c in poly]
            value = sum(c * x**j for j, c in enumerate(coeffs))
            if d:  # (P' + (rate - p/x) P) exp(rate x) / x^p
                value = sum(j * c * x ** (j - 1) for j, c in enumerate(coeffs) if j) + (rate - e.p / x) * value
            total += value * (rate * x).exp()
        return total / x**e.p


# largest relative error of value and slope against 40-digit arithmetic on
# 200 log-spaced points from the cut to 40.  Where a hand-written function
# was replaced, the bound is its error on the same grid, and the table is
# no worse: P_S 3.2e-14 (table 1.5e-14), i1 2.6e-15 (1.4e-15), i2 and x i2
# 1.35e-13 (9.6e-14), (x i2)' 8.7e-14 (7.3e-14), g 9.4e-14 (7.5e-14),
# g' 8.0e-14 (7.0e-14).  i0 is worse there, within its round-off: 1.8e-16
# (2.7e-16, about one ulp).  P_D's cut lies at 1.5, past where its closed
# form cancels x^9 out of terms of 300.  The bounds are the measured
# errors, rounded up.
ERROR_TOL = {
    "P_D": (1.8e-15, 8e-16), "P_S": (3.2e-14, 4e-15),
    "i0": (3.5e-16, 2e-15), "i1": (2.6e-15, 5e-15), "i2": (1.35e-13, 2e-13),
    "C0": (2e-14, 1e-15), "g": (9.4e-14, 8e-14), "P0": (1e-12, 1e-13),
    "S2": (5e-14, 6e-15), "xi2": (1.35e-13, 8.7e-14),
}


@pytest.mark.parametrize("name", sorted(EXP_POLYS))
def test_value_and_slope_against_40_digits(name):
    e = EXP_POLYS[name]
    for d, tol in enumerate(ERROR_TOL[name]):
        for x in np.geomspace(e.cut, 40.0, 200).tolist():
            ref = _reference(e, x, d)
            assert abs((Decimal(e(x, d)) - ref) / ref) < tol, (x, d)


def test_p_d_below_its_cut_against_40_digits():
    # the series of P_D on 200 log-spaced points from 0.01 to its cut;
    # the 40-digit closed form keeps 19 digits through the cancellation
    e = EXP_POLYS["P_D"]
    for d, tol in enumerate((2.5e-15, 8e-15)):
        for x in np.geomspace(0.01, e.cut, 200)[:-1].tolist():
            ref = _reference(e, x, d)
            assert abs((Decimal(e(x, d)) - ref) / ref) < tol, (x, d)


def test_generated_slope_of_g_is_the_hand_expansion():
    # g'(x) = (x k2)'(x) + 6/x^3, and x^3 g' = 6 - e^-x (x^3+3x^2+6x+6):
    # the expansion derived by hand before the slopes were generated
    hand = ((-1, (6, 6, 3, 1), -1), (1, (6,), 0))
    g = wf_coordinate._g
    assert g.slope_polys == _polys_by_rate(hand)
    assert g.slope_series == tuple(float(c) for c in _exact_series(hand, 4, g.n_terms))


@pytest.mark.parametrize("name", sorted(EXP_POLYS))
def test_scalar_call_equals_one_element_array_call_for_every_table(name):
    e = EXP_POLYS[name]
    x = np.concatenate([np.geomspace(1e-3, 40.0, 300), [np.nextafter(e.cut, 0.0), e.cut]])
    for d in (0, 1):
        assert [e(v, d) for v in x.tolist()] == e(x, d).tolist()


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
        assert got[small].tolist() == _i[l].series_at(x[small], -x[small] * x[small]).tolist()
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

import itertools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from sepdeut.model import ModelParams, Region, region_of
from sepdeut.quadrature import PANEL_ORDER, QuadratureScheme, integrate_panels
from sepdeut.specfun import mod_sph_bessel_k
from sepdeut.wf_coordinate import _C0, _P0, _S2, _g, _middle_coefficients, branch, uw_coordinate

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


def _slopes(r, p):
    """(du/dr, dw/dr) at r > 0 from the formula of the region holding r."""
    return branch(region_of(r, p), r, p, 1).tolist()


@pytest.mark.parametrize("pair", RANGE_PAIRS)
def test_against_transform_reference(pair):
    p = _params(*pair)
    for r, u_ref, w_ref in REFERENCE_GRID[pair]:
        u, w = uw_coordinate(r, p).tolist()
        assert u == pytest.approx(u_ref, rel=5e-12)
        assert w == pytest.approx(w_ref, rel=5e-12)


@pytest.mark.parametrize("pair", RANGE_PAIRS)
def test_branch_continuity(pair):
    p = _params(*pair, A=0.9, B=1.5)
    boundaries = []
    if not p.equal_range:
        boundaries.append((p.delta, Region.INNER, Region.MIDDLE))
    boundaries.append((p.range_sum, Region.MIDDLE, Region.OUTER))
    for r0, lo, hi in boundaries:
        for a, b in zip(branch(lo, r0, p).tolist(), branch(hi, r0, p).tolist()):
            assert abs(a - b) / max(abs(a), abs(b)) < 1e-10


@pytest.mark.parametrize("pair", RANGE_PAIRS)
def test_one_sided_derivatives_match(pair):
    p = _params(*pair, A=0.9, B=1.5)
    boundaries = []
    if not p.equal_range:
        boundaries.append((p.delta, Region.INNER, Region.MIDDLE))
    boundaries.append((p.range_sum, Region.MIDDLE, Region.OUTER))
    for r0, lo, hi in boundaries:
        for d_lo, d_hi in zip(branch(lo, r0, p, 1).tolist(), branch(hi, r0, p, 1).tolist()):
            assert abs(d_lo - d_hi) / max(abs(d_lo), abs(d_hi)) < 1e-10


def test_near_equal_ranges_approach_equal_formulas():
    # b2 - b1 = 1e-4 against the equal-range point at the midpoint range.
    # The two D-waves genuinely differ by ~2*(delta/r)^2 in relative terms,
    # so the grid starts at r = 0.25 where that floor is ~3e-7.
    d = 1e-4
    r = np.arange(1, 49) * 0.25
    pe = _params(1.475 + d / 2, 1.475 + d / 2)
    pn = _params(1.475, 1.475 + d)
    u_rel, w_rel = np.abs(uw_coordinate(r, pn) - uw_coordinate(r, pe)) / np.abs(uw_coordinate(r, pe))
    assert np.max(u_rel) < 1e-6
    assert np.max(w_rel) < 1e-6


def test_outer_region_is_pure_exponential():
    from sepdeut.specfun import mod_sph_bessel_i

    p = _params(1.0, 2.0, A=0.9, B=1.5)
    r = np.linspace(3.5, 11.0, 40)
    scaled = uw_coordinate(r, p)[0] * np.exp(ALPHA * r)
    expected = p.A * mod_sph_bessel_i(0, ALPHA * p.b1) * mod_sph_bessel_i(0, ALPHA * p.b2)
    assert np.max(np.abs(scaled - expected)) < 1e-13


def test_inner_d_wave_is_negative_for_unequal_ranges():
    p = _params(1.0, 2.0)
    for r in (0.2, 0.5, 0.9, 0.999):
        u, w = uw_coordinate(r, p).tolist()
        assert w < 0.0
        assert u > 0.0
    # and it crosses back to positive in the middle region
    assert uw_coordinate(2.0, p)[1] > 0.0


def test_frozen_value_at_outer_boundary():
    p = _params(1.475, 1.475, A=0.905, B=1.57)
    assert uw_coordinate(2.95, p)[0] == pytest.approx(0.47500866213727057, rel=5e-14)


def test_analytic_derivative_s_channel():
    # middle region, equal ranges: u'(r) = A/(2 a b^2) (e^(-ar) - e^(-2ab) cosh(ar))
    p = _params(1.475, 1.475, A=0.905, B=1.57)
    a, b = ALPHA, 1.475
    r = 1.0
    expected = p.A / (2.0 * a * b * b) * (math.exp(-a * r) - math.exp(-2.0 * a * b) * math.cosh(a * r))
    assert _slopes(r, p)[0] == pytest.approx(expected, rel=1e-11)


def test_analytic_derivative_d_channel_outer():
    from sepdeut.specfun import mod_sph_bessel_i

    p = _params(1.0, 2.0, A=0.9, B=1.5)
    a = ALPHA
    c = p.B * mod_sph_bessel_i(1, a * p.b1) * mod_sph_bessel_i(1, a * p.b2)
    r = 5.0
    x = a * r
    expected = -c * a * math.exp(-x) * (1.0 + 3.0 / x + 6.0 / x**2 + 6.0 / x**3)
    assert _slopes(r, p)[1] == pytest.approx(expected, rel=1e-11)


def test_derivative_limit_at_origin():
    # u'(r) = A/(2 a b^2) (e^(-ar) - e^(-2ab) cosh(ar)), which tends to
    # u'(0+) = A (1 - e^(-2ab)) / (2 a b^2)
    p = _params(1.475, 1.475, A=0.905, B=1.57)
    a, b = ALPHA, 1.475
    r = 1e-6
    exact = p.A / (2.0 * a * b * b) * (math.exp(-a * r) - math.exp(-2.0 * a * b) * math.cosh(a * r))
    limit = p.A * (1.0 - math.exp(-2.0 * a * b)) / (2.0 * a * b * b)
    assert _slopes(r, p)[0] == pytest.approx(exact, rel=1e-12)
    assert _slopes(r, p)[0] == pytest.approx(limit, rel=1e-6)


# Middle-region slopes of w (A = B = 1) from 40-digit mpmath differentiation
# of the closed-form branch, as (b1, b2, alpha, r, dw/dr).  w is near its
# maximum at both radii, so the slope is small against the bracket's terms.
MIDDLE_SLOPES = [
    (0.9790944134483095, 1.8393549207531361, 0.24236072254141028, 2.5217793336095506, 0.0008522441287325285),
    (1.4984535865517072, 1.4984535865517072, 0.25762423832975206, 2.578561373260177, -0.0001709333015067012),
]


@pytest.mark.parametrize("b1, b2, alpha, r, slope", MIDDLE_SLOPES, ids=["unequal", "equal"])
def test_middle_slope_against_reference(b1, b2, alpha, r, slope):
    p = ModelParams(b1=b1, b2=b2, alpha=alpha, A=1.0, B=1.0)
    assert region_of(r, p) is Region.MIDDLE
    assert _slopes(r, p)[1] == pytest.approx(slope, rel=5e-10)


# The branches solve y'' = (l(l+1)/r^2 + alpha^2) y - strength * S(r) with
# S = 0 outside the middle region, S_C = 1/(2 b1 b2) for u and
# S_T(r) = [2(b1^2 + b2^2) + r^2 - 3(b2^2 - b1^2)^2/r^2] / (16 b1^2 b2^2) for w.
RADIAL_POINTS = [
    (1.475, 1.475, 0.23165),
    (1.0, 2.0, 0.23165),
    (1.0, 2.0, 0.5),
    (0.8, 0.8, 0.5),
    (0.8613, 1.0119, 0.4415),
    (0.8, 1.3, 0.23),
    (1.0, 1.0, 5.0),
]


def _source(channel, region, p, r):
    if region is not Region.MIDDLE:
        return 0.0
    bb = p.b1 * p.b1 * p.b2 * p.b2
    if channel == "u":
        return 1.0 / (2.0 * p.b1 * p.b2)
    return (2.0 * (p.b1**2 + p.b2**2) + r * r - 3.0 * (p.b2**2 - p.b1**2) ** 2 / (r * r)) / (16.0 * bb)


@pytest.mark.parametrize("b1, b2, alpha", RADIAL_POINTS)
def test_branches_solve_radial_equation(b1, b2, alpha):
    # weak form on 8 sub-panels of each region (the outer one cut at ten
    # decay lengths): y'(r2) - y'(r1) = integral of y'' over [r1, r2].
    # Worst measured residual 1.6e-12 of the larger end slope (w, middle).
    p = ModelParams(b1=b1, b2=b2, alpha=alpha, A=1.0, B=1.0)
    edges = [0.0] + ([] if p.equal_range else [p.delta]) + [p.range_sum, p.range_sum + 10.0 / alpha]
    regions = [Region.MIDDLE, Region.OUTER] if p.equal_range else list(Region)
    for lo, hi, region in zip(edges, edges[1:], regions):
        for row, (channel, ll) in enumerate((("u", 0.0), ("w", 6.0))):

            def y2(r):
                return (ll / (r * r) + alpha * alpha) * branch(region, r, p)[row] - _source(channel, region, p, r)

            ends = np.linspace(lo, hi, 9)
            ends[0] = max(ends[0], 1e-300)  # a slope needs r > 0; the profiles are smooth at 0
            for r1, r2 in zip(ends, ends[1:]):
                d1, d2 = float(branch(region, r1, p, 1)[row]), float(branch(region, r2, p, 1)[row])
                integral = integrate_panels(y2, QuadratureScheme(PANEL_ORDER, (r1, r2)))
                assert abs(d2 - d1 - integral) <= 5e-11 * max(abs(d1), abs(d2)), (channel, region, r1)


# j_l(z) as terms c * z^p * trig(z): the spherical Bessel functions' trig expansion
_J_TRIG = {
    0: [(1.0, -1, "sin")],
    1: [(1.0, -2, "sin"), (-1.0, -1, "cos")],
    2: [(3.0, -3, "sin"), (-1.0, -1, "sin"), (-3.0, -2, "cos")],
}


def _triple_bessel_source(l, lp, b1, b2, r):
    """r (2/pi) Integral_0^inf k^2 j_l(b1 k) j_l(b2 k) j_lp(r k) dk, by scipy.

    The head [0, K] is an ordinary adaptive quadrature.  Past K each
    product of three trig expansions is a sum of k^p cos(w k) and
    k^p sin(w k) terms, with w = |+-b1 +- b2 +- r|, integrated to infinity
    with quad's Fourier weights.
    """
    from scipy.integrate import quad
    from scipy.special import spherical_jn

    cut = 4.0 * math.pi / min(b1, b2, r)
    head = quad(lambda k: k * k * spherical_jn(l, b1 * k) * spherical_jn(l, b2 * k) * spherical_jn(lp, r * k),
                0.0, cut, limit=400, epsabs=1e-14, epsrel=1e-13)[0]
    terms = {}
    for factors in itertools.product(_J_TRIG[l], _J_TRIG[l], _J_TRIG[lp]):
        c, p = 1.0, 2
        phases = []
        for (cf, pf, trig), a in zip(factors, (b1, b2, r)):
            c, p = c * cf * a**pf, p + pf
            # cos(a k) = (e^{iak} + e^{-iak})/2, sin(a k) = (e^{iak} - e^{-iak})/(2i)
            phases.append([(0.5, a), (0.5, -a)] if trig == "cos" else [(-0.5j, a), (0.5j, -a)])
        for (z1, w1), (z2, w2), (z3, w3) in itertools.product(*phases):
            z, w = c * z1 * z2 * z3, w1 + w2 + w3
            # Re(z e^{iwk}) = Re z cos(|w| k) - sign(w) Im z sin(|w| k)
            terms[(abs(w), p, "cos")] = terms.get((abs(w), p, "cos"), 0.0) + z.real
            terms[(abs(w), p, "sin")] = terms.get((abs(w), p, "sin"), 0.0) - z.imag * math.copysign(1.0, w)
    tail = 0.0
    for (w, p, trig), coef in terms.items():
        if coef:
            assert w > 1e-9, "a zero frequency: r sits on a region boundary"
            tail += coef * quad(lambda k: k**p, cut, np.inf, weight=trig, wvar=w, limlst=100)[0]
    return r * (2.0 / math.pi) * (head + tail)


@pytest.mark.parametrize("b1, b2, r", [
    (1.0, 2.0, 1.5), (1.0, 2.0, 2.7), (1.475, 1.475, 1.0), (0.8613, 1.0119, 0.5), (0.8613, 1.0119, 1.8),
    (1.0, 2.0, 0.5), (1.0, 2.0, 3.5), (1.475, 1.475, 3.2),
])
def test_sources_are_triple_bessel_integrals(b1, b2, r):
    # S_C and S_T of the radial equation are the transforms of the form-factor
    # products: u from j0 j0 and j0, w from j1 j1 and j2 (zero outside the
    # middle region).  Worst measured error 3.7e-10 of 1/(2 b1 b2).
    p = _params(b1, b2)
    region = region_of(r, p)
    for channel, l, lp in (("u", 0, 0), ("w", 1, 2)):
        got = _triple_bessel_source(l, lp, b1, b2, r)
        assert abs(got - _source(channel, region, p, r)) <= 1e-8 / (2.0 * b1 * b2), (channel, region)


def test_derivative_rejects_nonpositive_radius():
    p = _params(1.475, 1.475)
    with pytest.raises(ValueError):
        branch(Region.MIDDLE, 0.0, p, 1)
    with pytest.raises(ValueError):
        branch(Region.MIDDLE, -1.0, p, 1)


def test_values_at_origin():
    p = _params(1.0, 2.0)
    assert uw_coordinate(0.0, p).tolist() == [0.0, 0.0]
    with pytest.raises(ValueError):
        uw_coordinate(-0.5, p)
    with pytest.raises(ValueError):
        uw_coordinate(float("nan"), p)


def test_strength_scaling():
    r = np.linspace(0.1, 10.0, 25)
    p1 = _params(1.0, 2.0, A=1.0, B=1.0)
    p2 = _params(1.0, 2.0, A=2.0, B=0.25)
    assert np.allclose(uw_coordinate(r, p2), [[2.0], [0.25]] * uw_coordinate(r, p1), rtol=1e-15)


def test_scalar_array_consistency():
    p = _params(0.8, 1.1, A=0.9, B=1.5)
    r = np.array([0.1, 0.3, 1.7, 2.5])
    vec = uw_coordinate(r, p)
    for i, ri in enumerate(r):
        assert vec[:, i].tolist() == uw_coordinate(float(ri), p).tolist()


# equal, unequal and nearly equal ranges (equal within EPS_REGION)
UW_POINTS = [(1.475, 1.475, 0.23165), (1.0, 2.0, 0.23165), (0.8613, 1.0119, 0.4415), (1.2, 1.2 + 5e-10, 0.3)]


def _boundary_radii(p):
    """Radii on, next to and between the region boundaries of p."""
    inner, outer = p.delta, p.range_sum
    return np.array([0.0, 0.5 * inner, inner, np.nextafter(inner, 1.0), 0.5 * (inner + outer),
                     outer, np.nextafter(outer, 9.0), 2.0 * outer, 12.0])


@pytest.mark.parametrize("b1, b2, alpha", UW_POINTS)
def test_uw_coordinate_rows_equal_single_channel_calls(b1, b2, alpha):
    # each row is the call with the other channel's strength switched off,
    # and at every radius the formula of the region holding it
    p = ModelParams(b1=b1, b2=b2, alpha=alpha, A=0.9, B=1.5)
    r = _boundary_radii(p)
    expected = {Region.MIDDLE, Region.OUTER} if p.equal_range else set(Region)
    assert {region_of(x, p) for x in r.tolist()} == expected
    uw = uw_coordinate(r, p)
    assert uw.shape == (2,) + r.shape
    assert uw[0].tolist() == uw_coordinate(r, ModelParams(b1=b1, b2=b2, alpha=alpha, A=0.9, B=0.0))[0].tolist()
    assert uw[1].tolist() == uw_coordinate(r, ModelParams(b1=b1, b2=b2, alpha=alpha, A=0.0, B=1.5))[1].tolist()
    assert uw_coordinate(r.reshape(3, 3), p).tolist() == uw.reshape(2, 3, 3).tolist()
    for i, x in enumerate(r.tolist()):
        pair = uw_coordinate(x, p)
        assert pair.shape == (2,)
        assert pair.tolist() == uw[:, i].tolist() == branch(region_of(x, p), x, p).tolist()
    for bad in (-0.5, float("nan"), float("inf"), [1.0, -1.0]):
        messages = set()
        for f in (uw_coordinate, lambda r, p: branch(Region.MIDDLE, r, p)):
            with pytest.raises(ValueError) as err:
                f(bad, p)
            messages.add(str(err.value))
        assert len(messages) == 1


def test_uw_coordinate_batch_rows_equal_single_records():
    # one call over records of equal and unequal ranges, one row of radii
    # each: every region's profiles run once for the records with points there
    records = [ModelParams(b1=b1, b2=b2, alpha=alpha, A=0.9, B=1.5) for b1, b2, alpha in UW_POINTS]
    rows = np.array([_boundary_radii(p) for p in records])
    batch = uw_coordinate(rows, records)
    assert batch.shape == (2,) + rows.shape
    for i, p in enumerate(records):
        assert batch[:, i].tolist() == uw_coordinate(rows[i], p).tolist()
    assert uw_coordinate(rows[1:2], records[1:2]).tolist() == batch[:, 1:2].tolist()
    with pytest.raises(ValueError, match="leading axis"):
        uw_coordinate(rows[:2], records)


def test_branch_rejects_unknown_region_and_bad_radii():
    p = _params(1.0, 2.0)
    for region in ("middle", None, 1):
        with pytest.raises(ValueError, match="no branch"):
            branch(region, 1.0, p)
    with pytest.raises(ValueError, match="no branch"):
        branch(Region.MIDDLE, 1.0, p, 2)
    for region in Region:
        for d in (0, 1):
            with pytest.raises(ValueError, match=">= 0"):
                branch(region, -1e-300, p, d)
            with pytest.raises(ValueError, match="finite"):
                branch(region, [1.0, math.inf], p, d)
        with pytest.raises(ValueError, match="r > 0"):
            branch(region, [1.0, 0.0], p, 1)
    assert branch(Region.INNER, 0.0, p).tolist() == [0.0, 0.0]  # r = 0 is inner at unequal ranges
    assert branch(Region.OUTER, np.ones((2, 3)), p, 1).shape == (2, 2, 3)


# Both paths of each bracket helper must agree across the switch at 0.5,
# on the same band as the j_l / i_l check in test_specfun, and with the
# bracket written out by hand.  The closed form of g cancels 3/x^2 against
# the pole of x*k2(x) down to O(x^2/8) and loses ~3 digits near x = 0.35,
# hence its looser tolerance.
SWITCH_BAND = np.linspace(0.35, 0.65, 61)


def test_g_series_and_closed_agree_in_switch_band():
    x = SWITCH_BAND
    closed = x * mod_sph_bessel_k(2, x) - 3.0 / (x * x) + 0.5
    series = _g.series_at(x, x)
    assert np.max(np.abs(series - closed) / np.abs(closed)) < 5e-12
    assert np.max(np.abs(_g(x) - closed) / np.abs(closed)) < 5e-12


def test_dg_series_and_closed_agree_in_switch_band():
    # g'(x) = (x k2)'(x) + 6/x^3 cancels 6/x^3 down to O(x/4)
    x = SWITCH_BAND
    closed = -np.exp(-x) * (1.0 + 3.0 / x + 6.0 / x**2 + 6.0 / x**3) + 6.0 / x**3
    series = _g.series_at(x, x, 1)
    assert np.max(np.abs(series - closed) / np.abs(closed)) < 5e-12
    assert np.max(np.abs(_g(x, 1) - closed) / np.abs(closed)) < 5e-12


def test_gap_tables_series_and_closed_agree_in_switch_band():
    # C0, P0 and S2 of the middle w's coefficients, written out by hand:
    # they vanish like y^4 to y^6, so the hand forms lose up to ~4 digits
    # (measured: 9.5e-12, P0)
    for y in SWITCH_BAND.tolist():
        e, s = math.exp(y), math.sinh(0.5 * y)
        hand = {
            _C0: 2.0 * y * y - 4.0 + (2.0 - 2.0 * y) * e + (2.0 + 2.0 * y) / e,
            _P0: 12.0 * (y - 1.0) * e - 12.0 * (y + 1.0) / e + 24.0 - 12.0 * y * y - 3.0 * y**4,
            _S2: s * s - 0.25 * y * y,
        }
        for table, closed in hand.items():
            series = table.series_at(y, y * y)
            for value in (series, table(y)):
                assert abs(value - closed) < 2e-11 * abs(closed)


# The FOUND point of the middle w near the inner boundary at a small gap:
# (b1, b2, alpha), with y = alpha*(b2 - b1) = 0.0293.  The w coefficients'
# pole and const were 3.6e-14 and 6.2e-15 off, relative, when summed from
# O(1)*y^4 terms, and the middle branch's w was 3.3e-11 off the inner one
# at r = b2 - b1.
SMALL_GAP = (0.8630907246683204, 1.009481874289787, 0.200069984570407)


def _gap_coefficients_50_digits(p):
    """(const, pole) at the coefficients' own doubles y and alpha^2 b1 b2, to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        y, ab = Decimal(p.alpha * p.delta), Decimal(p.alpha * p.alpha * (p.b1 * p.b2))
        sinh = (y.exp() - (-y).exp()) / 2
        sinh_half_sq = ((y / 2).exp() - (-y / 2).exp()) ** 2 / 4
        const = 2 * y * y - 8 * (ab - 1) * sinh_half_sq - 4 * y * sinh
        pole = 24 * y * (sinh - y) + 48 * (ab - 1) * (sinh_half_sq - y * y / 4) - 3 * y**4
        return const, pole


def test_middle_w_is_continuous_at_a_small_gap():
    b1, b2, alpha = SMALL_GAP
    p = ModelParams(b1=b1, b2=b2, alpha=alpha, A=1.0, B=1.0)
    *_, const, pole, _, _ = _middle_coefficients(p, 0)
    const_ref, pole_ref = _gap_coefficients_50_digits(p)
    # measured: 1.8e-16 and 1.4e-16
    assert abs((Decimal(const) - const_ref) / const_ref) < 5e-16
    assert abs((Decimal(pole) - pole_ref) / pole_ref) < 5e-16
    # the value and slope gaps of w at r = b2 - b1, as validate reports them;
    # measured: 4.1e-13 and 9.9e-13
    r0 = p.delta
    (_, w_in), (_, w_mid) = branch(Region.INNER, r0, p), branch(Region.MIDDLE, r0, p)
    (_, s_in), (_, s_mid) = branch(Region.INNER, r0, p, 1), branch(Region.MIDDLE, r0, p, 1)
    assert abs(w_in - w_mid) / max(abs(w_in), abs(w_mid)) < 1e-12
    assert abs(s_in - s_mid) / max(abs(s_in), abs(s_mid)) < 2e-12

import math

import numpy as np
import pytest

from sepdeut.model import ModelParams
from sepdeut.observables import radial_scheme, solve_normalisation
from sepdeut.quadrature import (
    PANEL_ORDER,
    QuadratureError,
    QuadratureScheme,
    gauss_legendre_rule,
    integrate_panels,
    momentum_scheme,
)
from sepdeut.wf_coordinate import uw_coordinate
from sepdeut.wf_momentum import uw_momentum


def test_rule_low_orders():
    nodes, weights = gauss_legendre_rule(2)
    assert nodes == pytest.approx([-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)], rel=1e-15)
    assert weights == pytest.approx([1.0, 1.0], rel=1e-15)
    for n in (2, 10, 40, 128):
        _, w = gauss_legendre_rule(n)
        assert math.fsum(w.tolist()) == pytest.approx(2.0, abs=1e-14)


def test_rule_order_limits():
    with pytest.raises(ValueError):
        gauss_legendre_rule(1)
    with pytest.raises(ValueError):
        gauss_legendre_rule(129)


def test_rule_polynomial_exactness():
    # n points integrate degree 2n-1 exactly
    nodes, weights = gauss_legendre_rule(3)
    assert float(weights @ nodes**4) == pytest.approx(2.0 / 5.0, abs=1e-15)
    assert float(weights @ nodes**5) == pytest.approx(0.0, abs=1e-15)


def test_integrate_panels_polynomial():
    scheme = QuadratureScheme(panel_order=5, breakpoints=(0.0, 1.0, 3.0))
    assert integrate_panels(lambda x: x * x, scheme) == pytest.approx(9.0, rel=1e-14)


def test_integrate_panels_requires_valid_scheme():
    with pytest.raises(ValueError):
        QuadratureScheme(panel_order=1, breakpoints=(0.0, 1.0))
    with pytest.raises(ValueError):
        QuadratureScheme(panel_order=4, breakpoints=(0.0,))
    with pytest.raises(ValueError):
        QuadratureScheme(panel_order=4, breakpoints=(0.0, 2.0, 1.0))


def test_integrand_is_called_once_on_every_node():
    p = ModelParams(b1=1.0, b2=2.0, alpha=0.25, A=1.0, B=1.0)
    for scheme in (radial_scheme(p), momentum_scheme(p), QuadratureScheme(3, (0.0, 1.0))):
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.exp(-x)

        integrate_panels(f, scheme)
        assert sizes == [(len(scheme.breakpoints) - 1) * scheme.panel_order]


@pytest.mark.parametrize("b1, b2", [(1.475, 1.475), (1.0, 2.0)])
def test_stacked_integrand_sums_each_row(b1, b2):
    # a (3, n) integrand gives, row by row, the sums of one-row integrands
    p = ModelParams(b1=b1, b2=b2, alpha=0.23165, A=1.0, B=1.0)
    scheme = radial_scheme(p)
    rows = [
        lambda r: r * r * uw_coordinate(r, p)[0] ** 2,
        lambda r: r * r * uw_coordinate(r, p)[1] ** 2,
        lambda r: r * r * uw_coordinate(r, p).prod(axis=0),
    ]
    stacked = integrate_panels(lambda r: np.stack([f(r) for f in rows]), scheme)
    assert stacked.shape == (3,)
    for got, f in zip(stacked, rows):
        want = integrate_panels(f, scheme)
        assert abs(got - want) <= 1e-15 * abs(want)


def test_stacked_integrand_names_the_bad_abscissa():
    scheme = QuadratureScheme(panel_order=4, breakpoints=(0.0, 1.0, 2.0))

    def f(x):
        bad = np.where(x > 1.5, np.nan, x)
        return np.stack([x, bad])

    with pytest.raises(QuadratureError, match="non-finite at x = "):
        integrate_panels(f, scheme)


def _per_panel_loop(f, scheme):
    """Reference: one integrand call per panel, as a plain loop."""
    nodes, weights = gauss_legendre_rule(scheme.panel_order)
    pieces = []
    for a, b in zip(scheme.breakpoints, scheme.breakpoints[1:]):
        half = 0.5 * (b - a)
        pieces.append(half * float(weights @ f(a + half * (nodes + 1.0))))
    return math.fsum(pieces)


@pytest.mark.parametrize("b1, b2", [(1.475, 1.475), (1.0, 2.0)])
def test_batched_sum_matches_per_panel_loop(b1, b2):
    alpha, ratio = 0.23165, 3.0
    A, B = solve_normalisation(b1, alpha, ratio, b2)
    p = ModelParams(b1=b1, b2=b2, alpha=alpha, A=A, B=B)

    def q_integrand(r):
        u, w = uw_coordinate(r, p)
        return r**4 * w * (math.sqrt(8.0) * u - w)

    cases = [
        (radial_scheme(p), lambda r: r * r * (uw_coordinate(r, p) ** 2).sum(axis=0)),
        (radial_scheme(p), q_integrand),
        (momentum_scheme(p), lambda k: k * k * uw_momentum(k, p)[0] ** 2),
        (momentum_scheme(p), lambda k: k * k * uw_momentum(k, p)[1] ** 2),
    ]
    for scheme, f in cases:
        assert integrate_panels(f, scheme) == pytest.approx(_per_panel_loop(f, scheme), rel=1e-15)


def test_nonfinite_integrand_is_reported():
    scheme = QuadratureScheme(panel_order=8, breakpoints=(0.0, 2.0))
    with pytest.raises(QuadratureError, match="non-finite at x ="):
        integrate_panels(lambda x: np.where(x > 1.0, np.nan, 1.0), scheme)


def test_batched_scheme_sums_each_integral_as_its_own_scheme():
    # one integrand call for m integrals; each equals its one-integral scheme
    for b1s in ([1.0, 1.7, 3.0], [0.5, 0.5, 0.5]):  # equal ranges, then unequal
        ps = [ModelParams(b1=b1, b2=b2, alpha=alpha, A=1.0, B=1.0)
              for b1, b2, alpha in zip(b1s, (1.0, 1.7, 3.0), (0.25, 0.5, 1.3))]
        scheme = radial_scheme(ps)
        assert len(scheme.breakpoints) == len(radial_scheme(ps[0]).breakpoints)
        shapes = []

        def f(r):
            shapes.append(r.shape)
            return np.stack([r * np.exp(-r), r * r * np.exp(-r)])

        got = integrate_panels(f, scheme)
        assert shapes == [(len(ps), (len(scheme.breakpoints) - 1) * scheme.panel_order)]
        assert got.shape == (2, len(ps))
        for i, p in enumerate(ps):
            assert got[:, i].tolist() == integrate_panels(f, radial_scheme(p)).tolist()


def test_batched_scheme_validation():
    assert QuadratureScheme(4, ((0.0, 0.0), (1.0, 2.0))).breakpoints == ((0.0, 0.0), (1.0, 2.0))
    with pytest.raises(ValueError):
        QuadratureScheme(4, ((0.0, 0.0), (1.0, 0.0)))
    with pytest.raises(ValueError):
        QuadratureScheme(4, ((0.0, 0.0), (1.0, 2.0, 3.0)))
    with pytest.raises(ValueError):
        radial_scheme([ModelParams(b1=1.0, b2=1.0, alpha=0.25, A=1.0, B=1.0),
                       ModelParams(b1=1.0, b2=2.0, alpha=0.25, A=1.0, B=1.0)])


def test_radial_scheme_breakpoints():
    p = ModelParams(b1=1.0, b2=2.0, alpha=0.25, A=1.0, B=1.0)
    s = radial_scheme(p)
    assert s.breakpoints[0] == 0.0
    assert p.delta in s.breakpoints
    assert p.range_sum in s.breakpoints
    assert s.breakpoints[-1] == pytest.approx(p.range_sum + 40.0 / p.alpha)
    # equal ranges drop the inner boundary
    pe = ModelParams(b1=1.5, b2=1.5, alpha=0.25, A=1.0, B=1.0)
    se = radial_scheme(pe)
    assert se.breakpoints[1] == pe.range_sum


def test_momentum_scheme_breakpoints():
    p = ModelParams(b1=1.0, b2=2.0, alpha=0.25, A=1.0, B=1.0)
    s = momentum_scheme(p)
    pts = np.array(s.breakpoints)
    assert pts[0] == 0.0
    assert pts[-1] == 80.0
    assert np.all(np.diff(pts) > 0)
    # form-factor zero spacing pi/b2 must appear among the breakpoints
    assert any(abs(x - math.pi / 2.0) < 1e-12 for x in pts)


def test_momentum_scheme_resolves_integrand():
    # doubling the panel order must not move a smooth k-space integral
    p = ModelParams(b1=1.475, b2=1.475, alpha=0.23165, A=1.0, B=1.0)

    def f(k):
        return k * k * np.exp(-0.1 * k * k)

    scheme = momentum_scheme(p)
    a = integrate_panels(f, scheme)
    b = integrate_panels(f, QuadratureScheme(2 * PANEL_ORDER, scheme.breakpoints))
    assert abs(a - b) < 1e-12

import math

import numpy as np
import pytest

from sepdeut import transform_oracle
from sepdeut.model import ModelParams, Region, region_of
from sepdeut.observables import solve_normalisation
from sepdeut.quadrature import _panel_sums
from sepdeut.specfun import sph_bessel_j
from sepdeut.transform_oracle import (
    _CHUNK_PANELS,
    DEFAULT_K_MAX,
    DEFAULT_R_GRID,
    TransformConvergenceError,
    bessel_transform,
    validate_transforms,
)
from sepdeut.wf_coordinate import u_coordinate, w_coordinate
from sepdeut.wf_momentum import u_momentum, w_momentum

ALPHA = 0.23165


def _params(b1, b2, A=0.9, B=1.5):
    return ModelParams(b1=b1, b2=b2, alpha=ALPHA, A=A, B=B)


def test_yukawa_closed_form():
    # f(k) = sqrt(2/pi)/(k^2+a^2) transforms to e^(-a r).  The amplitude
    # decays only like k^-2, far slower than the model wavefunctions, so
    # the doubling tolerance has to be loosened accordingly.
    a = 0.7
    f = lambda k: math.sqrt(2.0 / math.pi) / (k * k + a * a)
    for r in (1.0, 2.0, 4.0):
        got = bessel_transform(0, f, r, convergence_tol=1e-3)
        assert got == pytest.approx(math.exp(-a * r), abs=5e-4)


@pytest.mark.parametrize("pair", [(1.475, 1.475), (1.0, 2.0), (0.8, 1.1)])
def test_transforms_match_piecewise_branches(pair):
    p = _params(*pair)
    rep = validate_transforms(p)
    assert rep.max_abs_dev_u < 1e-7
    assert rep.max_abs_dev_w < 1e-7
    assert rep.r_grid == DEFAULT_R_GRID
    for point in rep.points:
        assert point.region is region_of(point.r, p)


def test_single_point_transform_both_channels():
    p = _params(1.0, 2.0)
    r = 0.5  # inner region: the D-wave is negative here
    spacing = math.pi / (r + p.range_sum)
    u = bessel_transform(0, lambda k: u_momentum(k, p), r, zero_spacing=spacing)
    w = bessel_transform(2, lambda k: w_momentum(k, p), r, zero_spacing=spacing)
    assert u == pytest.approx(u_coordinate(r, p), abs=1e-8)
    assert w == pytest.approx(w_coordinate(r, p), abs=1e-8)
    assert w < 0.0


def test_zero_strength_transforms_to_zero():
    p = ModelParams(b1=1.0, b2=2.0, alpha=ALPHA, A=0.0, B=0.0)
    got = bessel_transform(0, lambda k: u_momentum(k, p), 1.0)
    assert got == 0.0


def test_panel_order_doubling_stability():
    p = _params(1.475, 1.475)
    r = 2.0
    spacing = math.pi / (r + p.range_sum)
    a = bessel_transform(0, lambda k: u_momentum(k, p), r, zero_spacing=spacing, panel_order=40)
    b = bessel_transform(0, lambda k: u_momentum(k, p), r, zero_spacing=spacing, panel_order=80)
    assert abs(a - b) < 1e-10


def test_slow_decay_raises_convergence_error():
    # k^-2 amplitude at the default 1e-8 tolerance cannot converge
    f = lambda k: 1.0 / (k * k + 1.0)
    with pytest.raises(TransformConvergenceError, match="not converged"):
        bessel_transform(0, f, 1.0)


def test_argument_validation():
    f = lambda k: np.exp(-k * k)
    with pytest.raises(ValueError):
        bessel_transform(1, f, 1.0)  # only l = 0 and l = 2 exist here
    with pytest.raises(ValueError):
        bessel_transform((0, 1), f, 1.0)
    with pytest.raises(ValueError):
        bessel_transform((), f, 1.0)
    with pytest.raises(ValueError):
        bessel_transform(0, f, 0.0)
    with pytest.raises(ValueError):
        bessel_transform(0, f, 1.0, zero_spacing=-2.0)


def test_report_covers_requested_grid():
    p = _params(1.475, 1.475)
    rep = validate_transforms(p, r_grid=(1.0, 4.0))
    assert rep.r_grid == (1.0, 4.0)
    assert len(rep.points) == 2
    assert rep.max_abs_dev_u == max(pt.dev_u for pt in rep.points)


def _unchunked_transform(l, f, r, spacing):
    """One channel the way the oracle used to integrate it: every fine
    panel in one integrand call, single-order j_l, fine cutoff only."""
    n = max(1, math.ceil(2.0 * DEFAULT_K_MAX / spacing))
    left = np.linspace(0.0, n * spacing, n + 1)[:-1]
    half = 0.5 * spacing
    sums = _panel_sums(lambda k: k * k * np.asarray(f(k), dtype=float) * sph_bessel_j(l, k * r), left, half, 40)
    return math.sqrt(2.0 / math.pi) * r * (half * math.fsum(sums.tolist()))


@pytest.mark.parametrize(
    "point, radii",
    [
        ((1.475, 1.475, 0.23165, 3.0), (0.25, 3.0)),  # the default point
        ((1.0, 2.0, 0.23165, 3.0), (0.5, 2.0)),  # inner and middle
        ((0.8613, 1.0119, 0.4415, 5.268), (0.25, 2.0)),  # near b2 - b1; middle and outer
        ((1.0, 1.0, 0.4, 3.0), (0.5, 2.5)),  # equal ranges, alpha*b < 0.5
    ],
)
def test_stacked_chunked_transform_is_bit_identical_to_per_channel(point, radii, monkeypatch):
    b1, b2, alpha, ratio = point
    A, B = solve_normalisation(b1, alpha, ratio, b2)
    p = ModelParams(b1=b1, b2=b2, alpha=alpha, A=A, B=B)
    got = []

    def recorded(*args, **kwargs):
        got.append(bessel_transform(*args, **kwargs))
        return got[-1]

    monkeypatch.setattr(transform_oracle, "bessel_transform", recorded)
    rep = validate_transforms(p, r_grid=radii)
    want = []
    for r in radii:
        spacing = math.pi / (r + p.range_sum)
        want.append((
            _unchunked_transform(0, lambda k: u_momentum(k, p), r, spacing),
            _unchunked_transform(2, lambda k: w_momentum(k, p), r, spacing),
        ))
    assert got == want
    for pt, (ur, wr) in zip(rep.points, want):
        assert pt.region is region_of(pt.r, p)
        assert pt.dev_u == abs(ur - u_coordinate(pt.r, p))
        assert pt.dev_w == abs(wr - w_coordinate(pt.r, p))


def test_integrand_sees_one_chunk_at_a_time_and_each_node_once():
    sizes = []

    def f(k):
        sizes.append(k.size)
        return np.exp(-k * k)

    spacing = 0.3
    bessel_transform(0, f, 1.0, zero_spacing=spacing)
    n_fine = math.ceil(2.0 * DEFAULT_K_MAX / spacing)
    assert n_fine > 3 * _CHUNK_PANELS
    assert max(sizes) == _CHUNK_PANELS * 40
    assert sum(sizes) == n_fine * 40  # the coarse cutoff is not evaluated again


def test_stacked_orders_equal_single_order_calls():
    def rows(k):
        return np.stack([np.exp(-k * k), k * np.exp(-k)])

    stacked = bessel_transform((0, 2), rows, 1.5, zero_spacing=0.4)
    single = (
        bessel_transform(0, lambda k: np.exp(-k * k), 1.5, zero_spacing=0.4),
        bessel_transform(2, lambda k: k * np.exp(-k), 1.5, zero_spacing=0.4),
    )
    assert isinstance(single[0], float)
    assert stacked == single


def test_each_stacked_order_keeps_the_doubling_gate():
    def rows(k):
        return np.stack([np.exp(-k * k), 1.0 / (k * k + 1.0)])

    with pytest.raises(TransformConvergenceError, match=r"l = 2\) at r = 1.0 not converged"):
        bessel_transform((0, 2), rows, 1.0)

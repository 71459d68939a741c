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
    _K_CUT,
    DEFAULT_R_GRID,
    TransformConvergenceError,
    _hankel,
    _tail,
    bessel_transform,
    validate_transforms,
)
from sepdeut.wf_coordinate import uw_coordinate
from sepdeut.wf_momentum import uw_momentum

ALPHA = 0.23165

# transform against branches, anywhere in the validate box: the worst of
# seven 24-point scans was 1.7e-13, and of a 150-point scan 1.3e-13
BRANCH_TOL = 2e-12


def _params(b1, b2, A=0.9, B=1.5):
    return ModelParams(b1=b1, b2=b2, alpha=ALPHA, A=A, B=B)


@pytest.mark.parametrize("pair", [(1.475, 1.475), (1.0, 2.0), (0.8, 1.1)])
def test_transforms_match_piecewise_branches(pair):
    p = _params(*pair)
    rep = validate_transforms(p)
    assert rep.max_abs_dev_u < BRANCH_TOL
    assert rep.max_abs_dev_w < BRANCH_TOL
    # the report holds the largest per-radius gaps over the grid, which
    # spans all three regions
    gaps = []
    for r in DEFAULT_R_GRID:
        ur, wr = bessel_transform(p, r)
        u, w = uw_coordinate(r, p).tolist()
        gaps.append((abs(ur - u), abs(wr - w)))
    assert (rep.max_abs_dev_u, rep.max_abs_dev_w) == tuple(max(column) for column in zip(*gaps))
    regions = {region_of(r, p) for r in DEFAULT_R_GRID}
    assert regions == ({Region.MIDDLE, Region.OUTER} if p.equal_range else set(Region))


def test_validate_box_scan_converges():
    # b1, alpha and ratio span the benchmark's validate box, half the points
    # with equal ranges; a 1280 fm^-1 cutoff without a tail missed the
    # doubling gate at 6 % of such points
    rng = np.random.default_rng(1)
    worst = 0.0
    for i in range(24):
        b1, alpha, ratio = rng.uniform(0.8, 2.0), rng.uniform(0.2, 0.5), rng.uniform(0.5, 6.0)
        b2 = b1 if i % 2 == 0 else b1 + rng.uniform(0.1, 1.0)
        A, B = solve_normalisation(b1, alpha, ratio, b2)
        rep = validate_transforms(ModelParams(b1=b1, b2=b2, alpha=alpha, A=A, B=B))
        worst = max(worst, rep.max_abs_dev_u, rep.max_abs_dev_w)
    assert worst < BRANCH_TOL


def test_single_point_transform_both_channels():
    p = _params(1.0, 2.0)
    r = 0.5  # inner region: the D-wave is negative here
    u, w = bessel_transform(p, r)
    assert (u, w) == pytest.approx(uw_coordinate(r, p).tolist(), abs=1e-12)
    assert w < 0.0


def test_zero_strength_transforms_to_zero():
    p = ModelParams(b1=1.0, b2=2.0, alpha=ALPHA, A=0.0, B=0.0)
    assert bessel_transform(p, 1.0) == (0.0, 0.0)


def test_panel_order_doubling_stability(monkeypatch):
    p = _params(1.475, 1.475)
    a = bessel_transform(p, 2.0)
    monkeypatch.setattr(transform_oracle, "PANEL_ORDER", 80)
    b = bessel_transform(p, 2.0)
    assert abs(a[0] - b[0]) < 1e-14
    assert abs(a[1] - b[1]) < 1e-14


def test_slow_decay_raises_convergence_error(monkeypatch):
    # without its tail the k^-3 integrand cannot pass the doubling gate
    monkeypatch.setattr(transform_oracle, "_tail", lambda params, r, k_cuts: np.zeros((2, len(k_cuts))))
    with pytest.raises(TransformConvergenceError, match=r"l = 0\) at r = 1.0 not converged"):
        bessel_transform(_params(1.0, 2.0), 1.0)


def test_cutoff_follows_large_alpha():
    # at K = 20 fm^-1 the ray from K passes i alpha = 50i too closely for
    # the tail panels, and the doubling gate tripped at r = 1
    A, B = solve_normalisation(1.0, 50.0, 3.0, 2.0)
    p = ModelParams(b1=1.0, b2=2.0, alpha=50.0, A=A, B=B)
    u, _ = bessel_transform(p, 1.0)
    assert u == pytest.approx(uw_coordinate(1.0, p)[0], abs=1e-12)


def test_argument_validation():
    p = _params(1.0, 2.0)
    for r in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            bessel_transform(p, r)


def _unchunked_transform(l, f, r, spacing, tail):
    """One channel as a reference: every fine panel in one integrand call,
    single-order j_l, fine cutoff only, plus the given tail."""
    n = 2 * math.ceil(_K_CUT / spacing)
    left = spacing * np.arange(n)
    half = 0.5 * spacing
    sums = _panel_sums(lambda k: k * k * np.asarray(f(k), dtype=float) * sph_bessel_j(l, k * r), left, half, 40)
    return math.sqrt(2.0 / math.pi) * r * (half * math.fsum(sums.tolist()) + tail)


@pytest.mark.parametrize(
    "point, radii",
    [
        ((1.475, 1.475, 0.23165, 3.0), (0.25, 3.0)),  # the default point
        ((1.0, 2.0, 0.23165, 3.0), (0.5, 2.0)),  # inner and middle
        ((0.8613, 1.0119, 0.4415, 5.268), (0.25, 2.0)),  # near b2 - b1; middle and outer
        ((1.0, 1.0, 0.4, 3.0), (0.5, 2.5)),  # equal ranges, alpha*b < 0.5
    ],
)
def test_stacked_chunked_transform_is_bit_identical_to_per_channel(point, radii):
    b1, b2, alpha, ratio = point
    A, B = solve_normalisation(b1, alpha, ratio, b2)
    p = ModelParams(b1=b1, b2=b2, alpha=alpha, A=A, B=B)
    want = []
    for r in radii:
        spacing = math.pi / (r + p.range_sum)
        tail_u, tail_w = _tail(p, r, (2 * math.ceil(_K_CUT / spacing) * spacing,))[:, 0].tolist()
        want.append((
            _unchunked_transform(0, lambda k: uw_momentum(k, p)[0], r, spacing, tail_u),
            _unchunked_transform(2, lambda k: uw_momentum(k, p)[1], r, spacing, tail_w),
        ))
    assert [bessel_transform(p, r) for r in radii] == want


def test_integrand_sees_one_chunk_at_a_time_and_each_node_once(monkeypatch):
    sizes = []

    def recorded(k, params):
        sizes.append(k.size)
        return uw_momentum(k, params)

    monkeypatch.setattr(transform_oracle, "uw_momentum", recorded)
    r = 12.0
    p = _params(2.0, 2.0)
    bessel_transform(p, r)
    n_fine = 2 * math.ceil(_K_CUT * (r + p.range_sum) / math.pi)
    assert n_fine > 3 * _CHUNK_PANELS
    assert max(sizes) == _CHUNK_PANELS * 40
    assert sum(sizes) == n_fine * 40  # the coarse cutoff is not evaluated again


def test_stacked_orders_equal_single_order_calls():
    # each channel of the stacked transform is the transform with the
    # other channel switched off, bit for bit
    u, w = bessel_transform(_params(1.0, 2.0), 1.5)
    assert bessel_transform(_params(1.0, 2.0, B=0.0), 1.5) == (u, 0.0)
    assert bessel_transform(_params(1.0, 2.0, A=0.0), 1.5) == (0.0, w)


def test_each_stacked_order_keeps_the_doubling_gate(monkeypatch):
    # the u tail stays, the w tail is dropped: only l = 2 misses the gate
    def u_tail_only(params, r, k_cuts):
        return _tail(params, r, k_cuts) * np.array([[1.0], [0.0]])

    monkeypatch.setattr(transform_oracle, "_tail", u_tail_only)
    with pytest.raises(TransformConvergenceError, match=r"l = 2\) at r = 1.0 not converged"):
        bessel_transform(_params(1.0, 2.0), 1.0)


@pytest.mark.parametrize("l", [0, 1, 2])
def test_hankel_split_reproduces_sph_bessel_j(l):
    # the closed forms lose digits below x ~ 2, hence the floor on K min(b1, r)
    x = np.geomspace(2.0, 1e3, 4001)
    split = 0.5 * (np.exp(1j * x) * _hankel(l, x, 1) + np.exp(-1j * x) * _hankel(l, x, -1))
    scale = np.maximum(np.abs(sph_bessel_j(l, x)), 1.0 / x)
    assert np.max(np.abs(split - sph_bessel_j(l, x)) / scale) <= 1e-15


@pytest.mark.parametrize(
    "pair, r",
    [
        ((1.0, 2.0), 1.3),  # generic
        ((1.0, 1.0), 2.0),  # omega = b1 + b2 - r = 0 exactly
        ((1.0, 3.0), 2.0),  # omega = b1 - b2 + r = 0 exactly
        ((1.0, 2.0), 1.0 + 1e-12),  # |omega| = |b1 - b2 + r| ~ 1e-12
    ],
)
def test_tail_difference_matches_brute_force(pair, r):
    p = _params(*pair)
    tails = _tail(p, r, (20.0, 200.0))
    spacing = math.pi / (r + p.range_sum)
    n = math.ceil(180.0 / spacing)
    half = 90.0 / n
    left = 20.0 + 2.0 * half * np.arange(n)
    sums = _panel_sums(lambda k: k * k * uw_momentum(k, p) * sph_bessel_j((0, 2), k * r), left, half, 40)
    for row, (at_20, at_200) in zip(sums.tolist(), tails.tolist()):
        assert abs((at_20 - at_200) - half * math.fsum(row)) <= 1e-16


def test_tail_falls_like_k_cubed():
    # each term oscillates like cos(omega K) K^-3, so compare the largest
    # |tail| over a few periods at each decade of K
    p = _params(1.0, 2.0)
    envelope = [np.max(np.abs(_tail(p, 1.3, K * np.linspace(1.0, 1.5, 8)))) for K in (1e3, 1e4, 1e5)]
    assert envelope[1] <= envelope[0] / 100
    assert envelope[2] <= envelope[1] / 100

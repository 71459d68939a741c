import math

import numpy as np
import pytest

from sepdeut.model import EPS_REGION, ModelParams, Region, _region_masks, region_of


def test_canonical_ordering_swaps_ranges():
    p = ModelParams(b1=2.0, b2=1.0, alpha=0.3, A=1.0, B=1.0)
    assert p.b1 == 1.0
    assert p.b2 == 2.0
    assert p.delta == 1.0
    assert p.range_sum == 3.0


def test_validation_reports_every_violation():
    with pytest.raises(ValueError) as exc:
        ModelParams(b1=-1.0, b2=2.0, alpha=-0.2, A=1.0, B=-3.0)
    msg = str(exc.value)
    assert "b1" in msg and "alpha" in msg and "B" in msg


def test_zero_strengths_allowed():
    p = ModelParams(b1=1.0, b2=1.0, alpha=0.2, A=0.0, B=0.0)
    assert p.A == 0.0 and p.B == 0.0


@pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
def test_ranges_must_be_positive_finite(bad):
    with pytest.raises(ValueError):
        ModelParams(b1=bad, b2=1.0, alpha=0.2, A=1.0, B=1.0)


def test_equal_range_band():
    p = ModelParams(b1=1.0, b2=1.0 + 5e-10, alpha=0.2, A=1.0, B=1.0)
    assert p.equal_range
    q = ModelParams(b1=1.0, b2=1.0 + 2 * EPS_REGION, alpha=0.2, A=1.0, B=1.0)
    assert not q.equal_range


def test_region_classification():
    p = ModelParams(b1=1.0, b2=2.0, alpha=0.2, A=1.0, B=1.0)
    assert region_of(0.0, p) is Region.INNER
    assert region_of(1.0, p) is Region.INNER      # boundary goes to the lower region
    assert region_of(1.0 + 1e-12, p) is Region.MIDDLE
    assert region_of(3.0, p) is Region.MIDDLE
    assert region_of(3.0 + 1e-12, p) is Region.OUTER
    assert region_of(50.0, p) is Region.OUTER


def test_region_equal_range_has_no_inner():
    p = ModelParams(b1=1.475, b2=1.475, alpha=0.23165, A=1.0, B=1.0)
    assert region_of(0.0, p) is Region.MIDDLE
    assert region_of(2.95, p) is Region.MIDDLE
    assert region_of(2.951, p) is Region.OUTER


def test_region_monotone_in_r():
    p = ModelParams(b1=0.8, b2=1.1, alpha=0.23165, A=1.0, B=1.0)
    order = {Region.INNER: 0, Region.MIDDLE: 1, Region.OUTER: 2}
    seen = [order[region_of(0.01 * i, p)] for i in range(500)]
    assert seen == sorted(seen)


@pytest.mark.parametrize("b1, b2", [(1.0, 2.0), (1.475, 1.475), (1.0, 1.0 + 0.5 * EPS_REGION)])
def test_region_masks_match_scalar_region_of(b1, b2):
    # a grid holding both boundaries exactly, and the doubles either side of them
    p = ModelParams(b1=b1, b2=b2, alpha=0.23165, A=1.0, B=1.0)
    edges = [p.delta, p.range_sum]
    grid = np.concatenate([np.arange(0, 161) * 0.025, edges,
                           np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    grid = grid[grid >= 0]
    masks = _region_masks(grid, p)
    assert (np.sum(masks, axis=0) == 1).all()
    labels = np.select(masks, list(Region)).tolist()
    assert labels == [region_of(r, p) for r in grid.tolist()]


def test_region_rejects_bad_radius():
    p = ModelParams(b1=1.0, b2=2.0, alpha=0.2, A=1.0, B=1.0)
    with pytest.raises(ValueError):
        region_of(-0.1, p)
    with pytest.raises(ValueError):
        region_of(math.inf, p)


def test_dict_round_trip():
    p = ModelParams(b1=1.0, b2=2.0, alpha=0.23165, A=0.9, B=1.5)
    d = p.to_dict()
    assert set(d) == {"b1_fm", "b2_fm", "alpha_inv_fm", "A", "B"}
    q = ModelParams.from_dict(d)
    assert q == p


def test_from_dict_missing_key():
    with pytest.raises(ValueError, match="missing"):
        ModelParams.from_dict({"b1_fm": 1.0, "b2_fm": 2.0, "alpha_inv_fm": 0.2})


def test_frozen():
    p = ModelParams(b1=1.0, b2=2.0, alpha=0.2, A=1.0, B=1.0)
    with pytest.raises(Exception):
        p.b1 = 3.0

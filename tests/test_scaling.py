"""The model's scale invariance, checked bit for bit.

At fixed strengths A and B, u and w depend on r, b1, b2 and alpha only
through alpha*r, alpha*b1 and alpha*b2.  So (r, b1, b2, alpha) ->
(lam r, lam b1, lam b2, alpha/lam) leaves u and w unchanged, divides their
slopes by lam, multiplies the norms N by lam and the moments R_S, R_D
and X by lam^3.  With lam a power of two every scaling is exact in
binary, so the program must reproduce it with ==.
"""

import numpy as np
import pytest

from sepdeut.model import ModelParams, region_of
from sepdeut.observables import _moments
from sepdeut.wf_coordinate import branch, uw_coordinate

POINTS = [(1.475, 1.475, 0.23165), (1.0, 2.0, 0.23165), (0.8, 1.3, 0.5), (0.8631, 1.0095, 0.2001),
          (1.2, 1.2, 3.0)]
LAMBDAS = [0.25, 0.5, 2.0, 4.0]


def _scaled(b1, b2, alpha, lam):
    return ModelParams(b1=lam * b1, b2=lam * b2, alpha=alpha / lam, A=0.9, B=1.5)


def _radii(b1, b2):
    """777 radii over [0, 3 (b1 + b2)], with both region boundaries among them."""
    r = np.linspace(0.0, 3.0 * (b1 + b2), 775)
    return np.sort(np.concatenate([r, [abs(b2 - b1), b1 + b2]]))


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("b1, b2, alpha", POINTS)
def test_wavefunctions_scale_exactly(b1, b2, alpha, lam):
    p, q = _scaled(b1, b2, alpha, 1.0), _scaled(b1, b2, alpha, lam)
    r = _radii(b1, b2)
    assert uw_coordinate(lam * r, q).tolist() == uw_coordinate(r, p).tolist()
    for x in r[r > 0].tolist():
        slopes = branch(region_of(x, p), x, p, 1)
        assert (lam * branch(region_of(lam * x, q), lam * x, q, 1)).tolist() == slopes.tolist()


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("b1, b2, alpha", POINTS)
def test_moments_scale_exactly(b1, b2, alpha, lam):
    m, s = _moments(b1, b2, alpha), _moments(lam * b1, lam * b2, alpha / lam)
    assert (s.R_S, s.R_D, s.X) == (lam**3 * m.R_S, lam**3 * m.R_D, lam**3 * m.X)
    assert s.path == m.path
    if m.path == "closed":
        assert (s.N_S, s.N_D) == (lam * m.N_S, lam * m.N_D)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="unequal-range norms come from k-space, cut at a fixed 80 fm^-1 (ROADMAP item 3)")
def test_unequal_range_norms_scale_exactly():
    # measured off by 8.9e-12 (N_S) and 3.4e-10 (N_D) relative; item 3's
    # r-space norms make this pass
    m, s = _moments(1.0, 2.0, 0.5), _moments(2.0, 4.0, 0.25)
    assert (s.N_S, s.N_D) == (2.0 * m.N_S, 2.0 * m.N_D)

"""Form factors and momentum-space wavefunctions.

Both evaluators return the two channels stacked, S above D, and are
vectorized over k.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ModelParams
from .specfun import sph_bessel_j

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def form_factors(k, params: ModelParams):
    """g_C(k) = j0(b1 k) j0(b2 k) and g_T(k) = j1(b1 k) j1(b2 k) stacked,
    shape (2,) + shape(k); g_T ~ b1 b2 k^2 / 9 at small k.

    One j_0, j_1 evaluation per distinct range (one in all when b1 == b2
    exactly).
    """
    j_b1 = sph_bessel_j((0, 1), params.b1 * k)
    j_b2 = j_b1 if params.b2 == params.b1 else sph_bessel_j((0, 1), params.b2 * k)
    return j_b1 * j_b2


def uw_momentum(k, params: ModelParams):
    """u(k) = A sqrt(2/pi) g_C(k) / (k^2 + alpha^2) and w(k), the same with
    B and g_T, stacked, shape (2,) + shape(k); w(0) = 0."""
    strengths = np.reshape((params.A, params.B), (2,) + (1,) * np.ndim(k))
    return strengths * SQRT_2_OVER_PI * form_factors(k, params) / (k * k + params.alpha**2)

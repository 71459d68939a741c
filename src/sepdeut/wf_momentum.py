"""Form factors and momentum-space wavefunctions.

All evaluators are vectorized over k.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ModelParams
from .specfun import sph_bessel_j

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _amplitude(strength, form_factor, k, params: ModelParams):
    """strength*sqrt(2/pi)*form_factor/(k^2+alpha^2)."""
    return strength * SQRT_2_OVER_PI * form_factor / (k * k + params.alpha**2)


def form_factor_central(k, params: ModelParams):
    """Central (S-channel) form factor j0(b1*k) * j0(b2*k)."""
    return sph_bessel_j(0, params.b1 * k) * sph_bessel_j(0, params.b2 * k)


def form_factor_tensor(k, params: ModelParams):
    """Tensor (D-channel) form factor j1(b1*k) * j1(b2*k); ~ b1*b2*k^2/9 at small k."""
    return sph_bessel_j(1, params.b1 * k) * sph_bessel_j(1, params.b2 * k)


def u_momentum(k, params: ModelParams):
    """S-channel momentum wavefunction A*sqrt(2/pi)*g_C(k)/(k^2+alpha^2)."""
    return _amplitude(params.A, form_factor_central(k, params), k, params)


def w_momentum(k, params: ModelParams):
    """D-channel momentum wavefunction B*sqrt(2/pi)*g_T(k)/(k^2+alpha^2); w(0)=0."""
    return _amplitude(params.B, form_factor_tensor(k, params), k, params)


def uw_momentum(k, params: ModelParams):
    """u(k) and w(k) stacked, shape (2,) + shape(k).

    The same doubles as u_momentum and w_momentum, from one j_0, j_1
    evaluation per distinct range (one in all when b1 == b2 exactly).
    """
    j_b1 = sph_bessel_j((0, 1), params.b1 * k)
    j_b2 = j_b1 if params.b2 == params.b1 else sph_bessel_j((0, 1), params.b2 * k)
    strengths = np.reshape((params.A, params.B), (2,) + (1,) * np.ndim(k))
    return _amplitude(strengths, j_b1 * j_b2, k, params)

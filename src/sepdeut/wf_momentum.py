"""Form factors and momentum-space wavefunctions.

All evaluators are vectorized over k.
"""

from __future__ import annotations

import math
from .model import ModelParams
from .specfun import sph_bessel_j

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def form_factor_central(k, params: ModelParams):
    """Central (S-channel) form factor j0(b1*k) * j0(b2*k)."""
    return sph_bessel_j(0, params.b1 * k) * sph_bessel_j(0, params.b2 * k)


def form_factor_tensor(k, params: ModelParams):
    """Tensor (D-channel) form factor j1(b1*k) * j1(b2*k); ~ b1*b2*k^2/9 at small k."""
    return sph_bessel_j(1, params.b1 * k) * sph_bessel_j(1, params.b2 * k)


def u_momentum(k, params: ModelParams):
    """S-channel momentum wavefunction A*sqrt(2/pi)*g_C(k)/(k^2+alpha^2)."""
    return params.A * SQRT_2_OVER_PI * form_factor_central(k, params) / (k * k + params.alpha**2)


def w_momentum(k, params: ModelParams):
    """D-channel momentum wavefunction B*sqrt(2/pi)*g_T(k)/(k^2+alpha^2); w(0)=0."""
    return params.B * SQRT_2_OVER_PI * form_factor_tensor(k, params) / (k * k + params.alpha**2)

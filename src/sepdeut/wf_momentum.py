"""Form factors, momentum-space wavefunctions and potential kernels.

All evaluators are vectorized over k.
"""

from __future__ import annotations

import math
from .model import ModelParams, PotentialStrengths
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


def potential_kernel(channel: str, k, kprime, params: ModelParams, strengths: PotentialStrengths):
    """Separable kernel V(k, k') for one channel.

    central:  -(lambda_C/M) * g_C(k) * g_C(k')   (attractive)
    tensor:   +(lambda_T/M) * g_T(k) * g_T(k')
    """
    if channel == "central":
        return -strengths.lambdaC_over_M * form_factor_central(k, params) * form_factor_central(kprime, params)
    if channel == "tensor":
        return strengths.lambdaT_over_M * form_factor_tensor(k, params) * form_factor_tensor(kprime, params)
    raise ValueError(f"channel must be 'central' or 'tensor', got {channel!r}")

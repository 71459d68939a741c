"""Direct Fourier-Bessel transforms cross-checking the analytic branches.

u(r) and w(r) have closed piecewise forms, but every branch is also the
transform

    f_l(r) = sqrt(2/pi) * r * Integral_0^inf k^2 f_l(k) j_l(k r) dk

of the momentum amplitude.  This module evaluates that integral by brute
force so the piecewise algebra can be validated against something that
knows nothing about region boundaries.

The integrand oscillates like cos(k*(r + b1 + b2)) at large k, so panels
are tied to the zero spacing pi/(r + b1 + b2): one Gauss panel per
half-oscillation resolves the tail.  The integrand decays only like
k^-3 (the form-factor product contributes k^-2 beyond both ranges, the
propagator k^-2, against the k^2 measure times r-independent
oscillation), so the cutoff must be generous; the default reaches the
1e-8 doubling agreement demanded below.  Convergence is checked by
doubling the cutoff, never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, Region, region_of
from .quadrature import _panel_sums
from .specfun import sph_bessel_j
from .wf_coordinate import u_coordinate, w_coordinate
from .wf_momentum import u_momentum, w_momentum

#: radii probed by validate_transforms (fm) — spread over all three regions
DEFAULT_R_GRID = (0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0)

DEFAULT_K_MAX = 1280.0


class TransformConvergenceError(RuntimeError):
    """Doubling the momentum cutoff moved the transform too much."""


@dataclass(frozen=True)
class TransformPoint:
    r: float
    region: Region
    dev_u: float
    dev_w: float


@dataclass(frozen=True)
class TransformReport:
    r_grid: tuple
    max_abs_dev_u: float
    max_abs_dev_w: float
    points: tuple


def bessel_transform(
    l: int,
    f_of_k,
    r: float,
    *,
    zero_spacing: float | None = None,
    k_max: float = DEFAULT_K_MAX,
    panel_order: int = 40,
    convergence_tol: float = 1e-8,
) -> float:
    """sqrt(2/pi) * r * Integral_0^inf k^2 f(k) j_l(k r) dk, l in {0, 2}.

    Parameters
    ----------
    f_of_k : callable
        Vectorized momentum amplitude; must decay fast enough that the
        tail beyond 2*k_max is below convergence_tol.
    zero_spacing : float, optional
        Asymptotic spacing of integrand zeros; defaults to pi/r, but a
        product of form factors oscillates on the tighter scale
        pi/(r + b1 + b2), which callers should pass.
    convergence_tol : float
        Raise TransformConvergenceError if doubling k_max shifts the
        result by more than this.
    """
    if l not in (0, 2):
        raise ValueError(f"l must be 0 or 2, got {l!r}")
    if not (math.isfinite(r) and r > 0):
        raise ValueError(f"r must be finite and > 0, got {r!r}")
    spacing = math.pi / r if zero_spacing is None else float(zero_spacing)
    if not spacing > 0:
        raise ValueError("zero_spacing must be > 0")

    def integrand(k):
        return k * k * np.asarray(f_of_k(k), dtype=float) * sph_bessel_j(l, k * r)

    def integral(cutoff: float) -> float:
        n_panels = max(1, math.ceil(cutoff / spacing))
        left = np.linspace(0.0, n_panels * spacing, n_panels + 1)[:-1]
        half = 0.5 * spacing
        return half * math.fsum(_panel_sums(integrand, left, half, panel_order).tolist())

    coarse = integral(k_max)
    fine = integral(2.0 * k_max)
    if abs(fine - coarse) > convergence_tol:
        raise TransformConvergenceError(
            f"transform at r = {r} not converged: doubling k_max = {k_max} "
            f"moved the integral by {abs(fine - coarse):.3e} (tol {convergence_tol:.1e})"
        )
    return math.sqrt(2.0 / math.pi) * r * fine


def validate_transforms(
    params: ModelParams,
    r_grid=DEFAULT_R_GRID,
    *,
    k_max: float = DEFAULT_K_MAX,
    panel_order: int = 40,
) -> TransformReport:
    """Compare the piecewise u, w against the direct transform on a grid.

    r = 0 is excluded by construction (the transform carries an explicit
    factor r and both sides vanish there).
    """
    points = []
    spacing_scale = params.range_sum
    for r in r_grid:
        spacing = math.pi / (r + spacing_scale)
        ur = bessel_transform(
            0, lambda k: u_momentum(k, params), r,
            zero_spacing=spacing, k_max=k_max, panel_order=panel_order,
        )
        wr = bessel_transform(
            2, lambda k: w_momentum(k, params), r,
            zero_spacing=spacing, k_max=k_max, panel_order=panel_order,
        )
        points.append(
            TransformPoint(
                r=float(r),
                region=region_of(r, params),
                dev_u=abs(ur - u_coordinate(r, params)),
                dev_w=abs(wr - w_coordinate(r, params)),
            )
        )
    return TransformReport(
        r_grid=tuple(float(r) for r in r_grid),
        max_abs_dev_u=max(p.dev_u for p in points),
        max_abs_dev_w=max(p.dev_w for p in points),
        points=tuple(points),
    )

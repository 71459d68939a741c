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

Both integrals come from one pass over the fine panels of the doubled
cutoff: the coarse integral is the sum over the prefix of those panels
that reaches k_max, so no node is evaluated twice.  The fine panels go
to the integrand in chunks of a fixed number of panels, which bounds
the arrays' size, and the two channels u (l = 0) and w (l = 2) share
each chunk's nodes, form factors and spherical Bessel evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, Region, region_of
from .quadrature import PANEL_ORDER, _panel_sums
from .specfun import sph_bessel_j
from .wf_coordinate import uw_coordinate
from .wf_momentum import uw_momentum

#: radii probed by validate_transforms (fm) — spread over all three regions
DEFAULT_R_GRID = (0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0)

DEFAULT_K_MAX = 1280.0

# fine panels per integrand call.  At panel order 40 a chunk holds 2560
# nodes per order, so each temporary array is about 20 kB and stays in
# cache, where a whole transform's 1e5-odd nodes made every temporary a
# fresh multi-megabyte allocation.  Of 32 to 256 panels, 64 ran validate
# fastest on a 2-core x86-64 machine.
_CHUNK_PANELS = 64


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
    l,
    f_of_k,
    r: float,
    *,
    zero_spacing: float | None = None,
    k_max: float = DEFAULT_K_MAX,
    panel_order: int = PANEL_ORDER,
    convergence_tol: float = 1e-8,
):
    """sqrt(2/pi) * r * Integral_0^inf k^2 f(k) j_l(k r) dk, l in {0, 2}.

    Parameters
    ----------
    l : int or tuple of int
        The order, or a tuple of orders transformed together: `f_of_k`
        then returns one row per order, j_l(k r) for all of them comes
        from one multi-order call, and the result is a tuple of floats.
    f_of_k : callable
        Vectorized momentum amplitude; must decay fast enough that the
        tail beyond 2*k_max is below convergence_tol.
    zero_spacing : float, optional
        Asymptotic spacing of integrand zeros; defaults to pi/r, but a
        product of form factors oscillates on the tighter scale
        pi/(r + b1 + b2), which callers should pass.
    convergence_tol : float
        Raise TransformConvergenceError if doubling k_max shifts any
        order's result by more than this.
    """
    orders = l if isinstance(l, tuple) else (l,)
    if not orders or any(m not in (0, 2) for m in orders):
        raise ValueError(f"l must be 0 or 2, got {l!r}")
    if not (math.isfinite(r) and r > 0):
        raise ValueError(f"r must be finite and > 0, got {r!r}")
    spacing = math.pi / r if zero_spacing is None else float(zero_spacing)
    if not spacing > 0:
        raise ValueError("zero_spacing must be > 0")

    def integrand(k):
        return k * k * np.asarray(f_of_k(k), dtype=float) * sph_bessel_j(l, k * r)

    half = 0.5 * spacing
    n_fine = max(1, math.ceil(2.0 * k_max / spacing))
    n_coarse = max(1, math.ceil(k_max / spacing))
    left = np.linspace(0.0, n_fine * spacing, n_fine + 1)[:-1]
    sums = np.concatenate(
        [
            _panel_sums(integrand, left[i:i + _CHUNK_PANELS], half, panel_order)
            for i in range(0, n_fine, _CHUNK_PANELS)
        ],
        axis=-1,
    ).reshape(len(orders), n_fine)
    values = []
    for order, row in zip(orders, sums.tolist()):
        coarse = half * math.fsum(row[:n_coarse])
        fine = half * math.fsum(row)
        if abs(fine - coarse) > convergence_tol:
            raise TransformConvergenceError(
                f"transform (l = {order}) at r = {r} not converged: doubling k_max = {k_max} "
                f"moved the integral by {abs(fine - coarse):.3e} (tol {convergence_tol:.1e})"
            )
        values.append(math.sqrt(2.0 / math.pi) * r * fine)
    return tuple(values) if isinstance(l, tuple) else values[0]


def validate_transforms(params: ModelParams, r_grid=DEFAULT_R_GRID) -> TransformReport:
    """Compare the piecewise u, w against the direct transform on a grid.

    r = 0 is excluded by construction (the transform carries an explicit
    factor r and both sides vanish there).  Each radius is one transform
    of both channels.
    """
    points = []
    spacing_scale = params.range_sum
    for r in r_grid:
        spacing = math.pi / (r + spacing_scale)
        ur, wr = bessel_transform((0, 2), lambda k: uw_momentum(k, params), r, zero_spacing=spacing)
        u, w = uw_coordinate(r, params).tolist()
        points.append(
            TransformPoint(
                r=float(r),
                region=region_of(r, params),
                dev_u=abs(ur - u),
                dev_w=abs(wr - w),
            )
        )
    return TransformReport(
        r_grid=tuple(float(r) for r in r_grid),
        max_abs_dev_u=max(p.dev_u for p in points),
        max_abs_dev_w=max(p.dev_w for p in points),
        points=tuple(points),
    )

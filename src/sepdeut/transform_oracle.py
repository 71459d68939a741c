"""Direct Fourier-Bessel transforms cross-checking the analytic branches.

u(r) and w(r) have closed piecewise forms, but every branch is also the
transform

    f_l(r) = sqrt(2/pi) * r * Integral_0^inf k^2 f_l(k) j_l(k r) dk

of the momentum amplitude, with l = 0 for u and l = 2 for w.  This module
evaluates that integral without knowing the region boundaries, so the
piecewise algebra is validated against something independent of it.

The integral is split at a cutoff K, rounded up to a whole panel.  The
head, [0, K], is summed over Gauss panels of `uw_momentum` and
`sph_bessel_j`, one panel per half-oscillation pi/(r + b1 + b2).  The
panels go to the integrand in chunks of a fixed number, which bounds the
arrays' size, and u and w share each chunk's nodes, form factors and
spherical Bessel evaluation.

The tail, [K, inf), decays only like k^-3, so truncating it would need
cutoffs of thousands of fm^-1; it is integrated exactly instead.  Each
j_l(z) is e^{iz} and e^{-iz} times a polynomial in 1/z (`_hankel`), so
the integrand splits into eight terms, each e^{i omega k} times a
rational function of k, with omega = +-b1 +- b2 +- r.  They come in
conjugate pairs.  Each term is integrated along the vertical ray
k = K + i d t (t >= 0, d the sign of omega), on which it decays like
e^{-|omega| t} |k|^-3 and no longer oscillates.  The rotation is exact by
Cauchy's theorem: the poles k = 0 and +-i alpha have Re k = 0 < K, so the
quarter-plane between the real ray and the vertical one holds none, and
the arc at infinity vanishes because the term falls like |k|^-3 while
|e^{i omega k}| <= 1 there, at omega = 0 too (b1 = b2 = 1 at r = 2).  The
closed forms subtract terms of size (K z)^-n, z in {b1, b2, r}, so
K min(b1, r) must stay above about 2; K = 20 fm^-1 gives 5 or more on
validate's grid.  The ray passes the pole i alpha at a distance K, which
a Gauss panel resolves only while K is not far below alpha, so K is
max(20 fm^-1, alpha).

Convergence is checked by doubling K, never assumed.  The head to K is a
prefix of the panels that reach 2K, so no node is evaluated twice, and
each of the two cutoffs gets its own tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams
from .quadrature import PANEL_ORDER, _panel_sums
from .specfun import sph_bessel_j
from .wf_coordinate import uw_coordinate
from .wf_momentum import SQRT_2_OVER_PI, uw_momentum

#: radii probed by validate_transforms (fm) — spread over all three regions
DEFAULT_R_GRID = (0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0)

# least coarse cutoff of the head (fm^-1); the fine cutoff is twice the
# coarse one
_K_CUT = 20.0

# largest change of either integral between the two cutoffs
_TOL = 1e-12

# x-panels of the rotated tail: a term decays on x ~ 1, or like x^-3 when
# omega = 0, where the part past 8^10 is about 1/(2 b1 b2 r (K 8^10)^2)
_TAIL_EDGES = np.array([0.0] + [8.0**n for n in range(11)])

# fine panels per integrand call.  At panel order 40 a chunk holds 2560
# nodes per order, so each temporary array is about 20 kB and stays in
# cache, where a whole transform's 1e5-odd nodes made every temporary a
# fresh multi-megabyte allocation.  Of 32 to 256 panels, 64 ran validate
# fastest on a 2-core x86-64 machine.
_CHUNK_PANELS = 64


class TransformConvergenceError(RuntimeError):
    """Doubling the momentum cutoff moved the transform too much."""


@dataclass(frozen=True)
class TransformReport:
    max_abs_dev_u: float
    max_abs_dev_w: float


def _hankel(l: int, z, s: int):
    """h_l(z, s), with j_l(z) = (e^{iz} h_l(z, +1) + e^{-iz} h_l(z, -1)) / 2."""
    si_z = s * 1j / z
    if l == 0:
        return -si_z
    if l == 1:
        return -(1.0 + si_z) / z
    return si_z * (1.0 + 3.0 * si_z - 3.0 / (z * z))


def _tail(params: ModelParams, r: float, k_cuts):
    """Integral_K^inf k^2 (u(k) j_0(k r), w(k) j_2(k r)) dk for each K in k_cuts.

    Returns shape (2, len(k_cuts)): a row for u and one for w.
    j_a(b1 k) j_a(b2 k) j_l(r k) is 1/8 of the sum over (s1, s2, s3) of
    e^{i omega k} h_a(b1 k, s1) h_a(b2 k, s2) h_l(r k, s3), omega =
    s1 b1 + s2 b2 + s3 r; the terms with s1 = -1 are the conjugates of
    those with s1 = +1.  Each term runs along k = K + step * x, x >= 0,
    step = i d / (|omega| + 1/K).
    """
    b1, b2, alpha = params.b1, params.b2, params.alpha
    cuts = np.asarray(k_cuts, dtype=float)[:, None]
    terms = []
    for s2 in (1, -1):
        for s3 in (1, -1):
            omega = b1 + s2 * b2 + s3 * r
            terms.append((s2, s3, omega, (1j if omega >= 0 else -1j) / (abs(omega) + 1.0 / cuts)))

    def integrand(x):
        u = w = 0.0
        for s2, s3, omega, step in terms:
            k = cuts + step * x
            k2 = k * k
            common = step * k2 / (k2 + alpha * alpha) * np.exp(1j * omega * k)
            u = u + common * _hankel(0, b1 * k, 1) * _hankel(0, b2 * k, s2) * _hankel(0, r * k, s3)
            w = w + common * _hankel(1, b1 * k, 1) * _hankel(1, b2 * k, s2) * _hankel(2, r * k, s3)
        return np.stack([u.real, w.real])

    half = 0.5 * np.diff(_TAIL_EDGES)
    sums = _panel_sums(integrand, _TAIL_EDGES[:-1], half[:, None], PANEL_ORDER)
    strengths = np.array([[params.A], [params.B]])
    return (half * sums).sum(axis=-1) * strengths * (0.25 * SQRT_2_OVER_PI)


def bessel_transform(params: ModelParams, r: float):
    """(u(r), w(r)) as sqrt(2/pi) * r * Integral_0^inf k^2 f_l(k) j_l(k r) dk.

    f_0 = u(k) and f_2 = w(k) from `uw_momentum`.  Raises
    TransformConvergenceError if, in either channel, head plus tail at
    the fine cutoff differs from head plus tail at the coarse one by more
    than _TOL.
    """
    if not (math.isfinite(r) and r > 0):
        raise ValueError(f"r must be finite and > 0, got {r!r}")
    spacing = math.pi / (r + params.range_sum)
    half = 0.5 * spacing
    k_cut = max(_K_CUT, params.alpha)
    n_coarse = math.ceil(k_cut / spacing)
    edges = spacing * np.arange(2 * n_coarse + 1)
    left = edges[:-1]

    def integrand(k):
        return k * k * uw_momentum(k, params) * sph_bessel_j((0, 2), k * r)

    sums = np.concatenate(
        [
            _panel_sums(integrand, left[i:i + _CHUNK_PANELS], half, PANEL_ORDER)
            for i in range(0, left.size, _CHUNK_PANELS)
        ],
        axis=-1,
    )
    tails = _tail(params, r, (edges[n_coarse], edges[-1]))
    values = []
    for order, row, (coarse_tail, fine_tail) in zip((0, 2), sums.tolist(), tails.tolist()):
        coarse = half * math.fsum(row[:n_coarse]) + coarse_tail
        fine = half * math.fsum(row) + fine_tail
        if abs(fine - coarse) > _TOL:
            raise TransformConvergenceError(
                f"transform (l = {order}) at r = {r} not converged: doubling the cutoff "
                f"{k_cut} fm^-1 moved the integral by {abs(fine - coarse):.3e} (tol {_TOL:.1e})"
            )
        values.append(SQRT_2_OVER_PI * r * fine)
    return tuple(values)


def validate_transforms(params: ModelParams) -> TransformReport:
    """Compare the piecewise u, w against the direct transform on DEFAULT_R_GRID.

    r = 0 is excluded by construction (the transform carries an explicit
    factor r and both sides vanish there).  Each radius is one transform
    of both channels.
    """
    dev_u = dev_w = 0.0
    for r in DEFAULT_R_GRID:
        ur, wr = bessel_transform(params, r)
        u, w = uw_coordinate(r, params).tolist()
        dev_u, dev_w = max(dev_u, abs(ur - u)), max(dev_w, abs(wr - w))
    return TransformReport(max_abs_dev_u=dev_u, max_abs_dev_w=dev_w)

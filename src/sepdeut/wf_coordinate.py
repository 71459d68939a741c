"""Piecewise analytic coordinate-space wavefunctions u(r), w(r).

The compact spherical-Bessel form factors split the radial line into
three analytic regions with boundaries at b2-b1 and b1+b2:

  inner   r <= b2-b1 : growing solutions  (alpha r) i_l(alpha r)
  middle  in between : particular + homogeneous mix
  outer   r >= b1+b2 : decaying solutions (alpha r) k_l(alpha r)

For equal ranges the inner interval is empty and the middle branch covers
[0, 2b].  Two numerical traps hide in the D-channel middle bracket and are
handled by exact algebraic regroupings rather than extra precision:

* the 1/(alpha r)^2 pieces of the bracket cancel analytically; the
  combination g(x) = x*k2(x) - 3/x^2 + 1/2 = x^2/8 - x^3/15 + ... is
  evaluated by series below x = 0.5 (closed form loses ~4 digits there,
  all of them near the origin);
* the r-independent bracket coefficients are differences of O(1)
  quantities that shrink like (b2-b1)^2 and (b2-b1)^4; they are
  rearranged into explicitly small factors (sinh(y)-y and
  sinh^2(y/2)-(y/2)^2 groupings) so nearly-equal ranges keep full
  precision.

The series for g and for sinh(y)-y, like the i2 series behind x*i2(x),
come from the exact-rational generator `specfun._exact_series`, fed the
same exp-polynomial that the closed form evaluates, and switch at the
same cut, 0.5.

The inner D-channel coefficient carries a minus sign: the direct
numerical transform of the momentum wavefunction is negative below
b2-b1, and continuity with the middle branch at r = b2-b1 fixes the
same sign.  The inner D-wave dips below zero whenever b1 != b2.

Branch evaluators are exposed individually (`branch_value`) because the
continuity suite and the one-sided derivatives need each formula's
natural analytic continuation slightly outside its own region.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ModelParams, Region, region_of
from .quadrature import differentiate
from .specfun import (
    _SERIES_CUT,
    _horner,
    _series_table,
    _split,
    mod_sph_bessel_i,
    mod_sph_bessel_k,
)

#: default step for Richardson derivative stencils (fm)
DERIVATIVE_STEP = 1e-3

# sinh y - y = e^y/2 - e^-y/2 - y = y^3 * sum_m c_m y^(2m)
_SINH_MINUS_PIECES = ((0.5, (1,), 1), (-0.5, (1,), -1), (-1, (0, 1), 0))
_SINH_MINUS_SERIES = _series_table(_SINH_MINUS_PIECES, 3, 8, 2)

# g(x) = x*k2(x) - 3/x^2 + 1/2: the 1/x^2 poles of the middle bracket
# cancel inside this combination.  x^2 g = e^-x (x^2+3x+3) - 3 + x^2/2,
# so g(x) = x^2 * sum_m c_m x^m.
_G_PIECES = ((1, (3, 3, 1), -1), (1, (-3, 0, 0.5), 0))
_G_SERIES = _series_table(_G_PIECES, 4, 15)


# ---------------------------------------------------------------------------
# stable scalar helpers for the bracket coefficients

def _sinh_minus(y: float) -> float:
    """sinh(y) - y without cancellation (series below the cut)."""
    if abs(y) >= _SERIES_CUT:
        return math.sinh(y) - y
    return y**3 * _horner(_SINH_MINUS_SERIES, y * y)


def _sinh_sq_minus(t: float) -> float:
    """sinh(t)^2 - t^2, factored as (sinh t - t)(sinh t + t)."""
    return _sinh_minus(t) * (math.sinh(t) + t)


# ---------------------------------------------------------------------------
# array-aware radial profile pieces, valid for any real argument so the
# derivative stencils may cross r = 0

def _xi2(x):
    """x * i2(x); odd because i2 is even."""
    xa = np.asarray(x, dtype=float)
    return xa * mod_sph_bessel_i(2, np.abs(xa))


def _xk2(x):
    """x * k2(x) = exp(-x)*(1 + 3/x + 3/x^2); needs x > 0."""
    xa = np.asarray(x, dtype=float)
    return np.exp(-xa) * (1.0 + 3.0 / xa + 3.0 / (xa * xa))


def _g(x):
    return _split(
        np.asarray(x, dtype=float),
        lambda s: s * s * _horner(_G_SERIES, s),
        lambda s: _xk2(s) - 3.0 / (s * s) + 0.5,
    )


# ---------------------------------------------------------------------------
# the six analytic branches

def _u_inner(r, p: ModelParams):
    al = p.alpha
    c = p.A * mod_sph_bessel_i(0, al * p.b1) * mod_sph_bessel_k(0, al * p.b2)
    return c * np.sinh(al * np.asarray(r, dtype=float))


def _u_middle(r, p: ModelParams):
    al = p.alpha
    x = al * np.asarray(r, dtype=float)
    cosh_gap = 2.0 * math.sinh(0.5 * al * p.delta) ** 2  # cosh(alpha*delta) - 1
    es = math.exp(-al * p.range_sum)
    bracket = -np.expm1(-x) - cosh_gap * np.exp(-x) - es * np.sinh(x)
    return p.A / (2.0 * al * al * p.b1 * p.b2) * bracket


def _u_outer(r, p: ModelParams):
    al = p.alpha
    c = p.A * mod_sph_bessel_i(0, al * p.b1) * mod_sph_bessel_i(0, al * p.b2)
    return c * np.exp(-al * np.asarray(r, dtype=float))


def _w_inner(r, p: ModelParams):
    al = p.alpha
    # minus sign: fixed by continuity with the middle branch at r = b2-b1
    # and confirmed by the numerical transform of the momentum amplitude
    c = -p.B * mod_sph_bessel_i(1, al * p.b1) * mod_sph_bessel_k(1, al * p.b2)
    return c * _xi2(al * np.asarray(r, dtype=float))


def _w_middle(r, p: ModelParams):
    al = p.alpha
    x = al * np.asarray(r, dtype=float)
    b1b2 = p.b1 * p.b2
    y = al * p.delta
    ab_m1 = al * al * b1b2 - 1.0
    # r-independent coefficients, grouped so near-equal ranges do not
    # cancel: each piece is explicitly O(y^2) or better where it must be
    const = 2.0 * (al * p.delta) ** 2 - 8.0 * ab_m1 * math.sinh(0.5 * y) ** 2 - 4.0 * y * math.sinh(y)
    pole = 24.0 * y * _sinh_minus(y) + 48.0 * ab_m1 * _sinh_sq_minus(0.5 * y) - 3.0 * y**4
    growth = math.exp(-al * p.range_sum) * (al * al * b1b2 + al * p.range_sum + 1.0)
    bracket = const + x * x + 8.0 * (ab_m1 * math.cosh(y) + y * math.sinh(y)) * _g(x) - 8.0 * growth * _xi2(x)
    if pole != 0.0:
        bracket = bracket + pole / (x * x)
    return p.B / (16.0 * al**4 * b1b2 * b1b2) * bracket


def _w_outer(r, p: ModelParams):
    al = p.alpha
    c = p.B * mod_sph_bessel_i(1, al * p.b1) * mod_sph_bessel_i(1, al * p.b2)
    return c * _xk2(al * np.asarray(r, dtype=float))


_BRANCHES = {
    ("u", Region.INNER): _u_inner,
    ("u", Region.MIDDLE): _u_middle,
    ("u", Region.OUTER): _u_outer,
    ("w", Region.INNER): _w_inner,
    ("w", Region.MIDDLE): _w_middle,
    ("w", Region.OUTER): _w_outer,
}


def branch_value(channel: str, region: Region, r, params: ModelParams):
    """One region's formula evaluated at arbitrary r (analytic continuation).

    Needed wherever two adjacent branches must be compared at or near a
    boundary; ordinary evaluation should go through u_coordinate /
    w_coordinate, which dispatch by region.
    """
    try:
        f = _BRANCHES[(channel, region)]
    except KeyError:
        raise ValueError(f"no branch {channel!r} / {region!r}") from None
    return f(r, params)


def _piecewise(channel: str, r, params: ModelParams):
    ra = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(ra)):
        raise ValueError("r must be finite")
    if np.any(ra < 0):
        raise ValueError("r must be >= 0")
    scalar = ra.ndim == 0
    ra = np.atleast_1d(ra)
    if params.equal_range:
        inner = np.zeros(ra.shape, dtype=bool)
        middle = ra <= params.range_sum
    else:
        inner = ra <= params.delta
        middle = (ra > params.delta) & (ra <= params.range_sum)
    outer = ~(inner | middle)
    out = np.empty_like(ra)
    for region, mask in ((Region.INNER, inner), (Region.MIDDLE, middle), (Region.OUTER, outer)):
        if np.any(mask):
            out[mask] = branch_value(channel, region, ra[mask], params)
    return float(out[0]) if scalar else out


def u_coordinate(r, params: ModelParams):
    """S-channel reduced radial wavefunction u(r), vectorized over r >= 0."""
    return _piecewise("u", r, params)


def w_coordinate(r, params: ModelParams):
    """D-channel reduced radial wavefunction w(r), vectorized over r >= 0."""
    return _piecewise("w", r, params)


def _derivative(channel: str, r: float, params: ModelParams, region):
    if not r > 0:
        raise ValueError(f"derivative needs r > 0, got {r!r}")
    if region is None:
        region = region_of(r, params)

    def f(rr):
        return float(branch_value(channel, region, rr, params))

    return differentiate(f, r, DERIVATIVE_STEP)


def du_dr(r: float, params: ModelParams, region: Region | None = None) -> float:
    """du/dr at r > 0, differentiating a single branch's continuation.

    `region` selects which branch; by default the one containing r.  The
    stencil never mixes branches, so one-sided derivatives at a boundary
    are obtained by passing the two adjacent regions explicitly.
    """
    return _derivative("u", r, params, region)


def dw_dr(r: float, params: ModelParams, region: Region | None = None) -> float:
    """dw/dr at r > 0; see du_dr."""
    return _derivative("w", r, params, region)

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

The series for g, g' and sinh(y)-y, like the i2 series behind x*i2(x),
come from the exact-rational generator `specfun._exact_series`, fed the
same exp-polynomial that the closed form evaluates, and switch at the
same cut, 0.5.

The inner D-channel coefficient carries a minus sign: the direct
numerical transform of the momentum wavefunction is negative below
b2-b1, and continuity with the middle branch at r = b2-b1 fixes the
same sign.  The inner D-wave dips below zero whenever b1 != b2.

`uw_coordinate` evaluates both channels over one region split;
`u_coordinate` and `w_coordinate` are its one-row cases.

Branch evaluators are exposed individually (`branch_value`) because the
continuity checks compare two adjacent formulas at their shared boundary;
`du_dr` and `dw_dr` give each formula's exact slope there.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ModelParams, Region, _region_masks, region_of
from .specfun import (
    _SERIES_CUT,
    _horner,
    _series_table,
    _split,
    mod_sph_bessel_i,
    mod_sph_bessel_k,
)

# sinh y - y = e^y/2 - e^-y/2 - y = y^3 * sum_m c_m y^(2m)
_SINH_MINUS_PIECES = ((0.5, (1,), 1), (-0.5, (1,), -1), (-1, (0, 1), 0))
_SINH_MINUS_SERIES = _series_table(_SINH_MINUS_PIECES, 3, 8, 2)

# g(x) = x*k2(x) - 3/x^2 + 1/2: the 1/x^2 poles of the middle bracket
# cancel inside this combination.  x^2 g = e^-x (x^2+3x+3) - 3 + x^2/2,
# so g(x) = x^2 * sum_m c_m x^m.
_G_PIECES = ((1, (3, 3, 1), -1), (1, (-3, 0, 0.5), 0))
_G_SERIES = _series_table(_G_PIECES, 4, 15)

# g'(x) = (x k2)'(x) + 6/x^3, and x^3 g' = 6 - e^-x (x^3+3x^2+6x+6),
# so g'(x) = x * sum_m c_m x^m.
_DG_PIECES = ((-1, (6, 6, 3, 1), -1), (1, (6,), 0))
_DG_SERIES = _series_table(_DG_PIECES, 4, 15)


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
# array-aware radial profile pieces of x >= 0 and their x-derivatives (d = 1)

def _xi2(x, d=0):
    """x * i2(x), or its derivative x * i1(x) - 2 * i2(x)."""
    xa = np.asarray(x, dtype=float)
    if d:
        return xa * mod_sph_bessel_i(1, xa) - 2.0 * mod_sph_bessel_i(2, xa)
    return xa * mod_sph_bessel_i(2, xa)


def _xk2(x, d=0):
    """x * k2(x) = exp(-x)*(1 + 3/x + 3/x^2), or its derivative; needs x > 0."""
    xa = np.asarray(x, dtype=float)
    if d:
        return -np.exp(-xa) * (1.0 + 3.0 / xa + 6.0 / (xa * xa) + 6.0 / (xa * xa * xa))
    return np.exp(-xa) * (1.0 + 3.0 / xa + 3.0 / (xa * xa))


def _g(x, d=0):
    """g(x), or its derivative g'(x) = (x k2)'(x) + 6/x^3."""
    xa = np.asarray(x, dtype=float)
    if d:
        return _split(xa, lambda s: s * _horner(_DG_SERIES, s), lambda s: _xk2(s, 1) + 6.0 / (s * s * s))
    return _split(xa, lambda s: s * s * _horner(_G_SERIES, s), lambda s: _xk2(s) - 3.0 / (s * s) + 0.5)


# ---------------------------------------------------------------------------
# the six analytic branches: d = 0 gives the value, d = 1 the exact
# r-derivative from the same coefficients; alpha**d is dx/dr (1.0 for d = 0)

def _u_inner(r, p: ModelParams, d=0):
    al = p.alpha
    c = p.A * mod_sph_bessel_i(0, al * p.b1) * mod_sph_bessel_k(0, al * p.b2)
    x = al * np.asarray(r, dtype=float)
    return c * al * np.cosh(x) if d else c * np.sinh(x)


def _gap(p: ModelParams) -> float:
    """b2 - b1, or 0 when the ranges count as equal (as in `_region_masks`)."""
    return 0.0 if p.equal_range else p.delta


def _u_middle(r, p: ModelParams, d=0):
    al = p.alpha
    x = al * np.asarray(r, dtype=float)
    cosh_gap = 2.0 * math.sinh(0.5 * al * _gap(p)) ** 2  # cosh(alpha*delta) - 1
    es = math.exp(-al * p.range_sum)
    if d:
        bracket = (1.0 + cosh_gap) * np.exp(-x) - es * np.cosh(x)
    else:
        bracket = -np.expm1(-x) - cosh_gap * np.exp(-x) - es * np.sinh(x)
    return p.A / (2.0 * al * al * p.b1 * p.b2) * al**d * bracket


def _u_outer(r, p: ModelParams, d=0):
    al = p.alpha
    c = p.A * mod_sph_bessel_i(0, al * p.b1) * mod_sph_bessel_i(0, al * p.b2)
    return c * (-al) ** d * np.exp(-al * np.asarray(r, dtype=float))


def _w_inner(r, p: ModelParams, d=0):
    al = p.alpha
    # minus sign: fixed by continuity with the middle branch at r = b2-b1
    # and confirmed by the numerical transform of the momentum amplitude
    c = -p.B * mod_sph_bessel_i(1, al * p.b1) * mod_sph_bessel_k(1, al * p.b2)
    return c * al**d * _xi2(al * np.asarray(r, dtype=float), d)


def _w_middle(r, p: ModelParams, d=0):
    al = p.alpha
    x = al * np.asarray(r, dtype=float)
    b1b2 = p.b1 * p.b2
    y = al * _gap(p)
    ab_m1 = al * al * b1b2 - 1.0
    # r-independent coefficients, grouped so near-equal ranges do not
    # cancel: each piece is explicitly O(y^2) or better where it must be.
    # Ranges equal within EPS_REGION take y = 0, which drops the pole:
    # r = 0 lies in this region then, where pole / x^2 would divide by 0.
    const = 2.0 * y**2 - 8.0 * ab_m1 * math.sinh(0.5 * y) ** 2 - 4.0 * y * math.sinh(y)
    pole = 24.0 * y * _sinh_minus(y) + 48.0 * ab_m1 * _sinh_sq_minus(0.5 * y) - 3.0 * y**4
    growth = math.exp(-al * p.range_sum) * (al * al * b1b2 + al * p.range_sum + 1.0)
    mix = ab_m1 * math.cosh(y) + y * math.sinh(y)
    if d:
        bracket = 2.0 * x + 8.0 * mix * _g(x, 1) - 8.0 * growth * _xi2(x, 1)
    else:
        bracket = const + x * x + 8.0 * mix * _g(x) - 8.0 * growth * _xi2(x)
    if pole != 0.0:
        bracket = bracket + (-2.0 * pole / (x * x * x) if d else pole / (x * x))
    return p.B / (16.0 * al**4 * b1b2 * b1b2) * al**d * bracket


def _w_outer(r, p: ModelParams, d=0):
    al = p.alpha
    c = p.B * mod_sph_bessel_i(1, al * p.b1) * mod_sph_bessel_i(1, al * p.b2)
    return c * al**d * _xk2(al * np.asarray(r, dtype=float), d)


_BRANCHES = {
    ("u", Region.INNER): _u_inner,
    ("u", Region.MIDDLE): _u_middle,
    ("u", Region.OUTER): _u_outer,
    ("w", Region.INNER): _w_inner,
    ("w", Region.MIDDLE): _w_middle,
    ("w", Region.OUTER): _w_outer,
}


def branch_value(channel: str, region: Region, r, params: ModelParams):
    """One region's formula evaluated at r >= 0, inside its region or not.

    Needed wherever two adjacent branches must be compared at a boundary;
    ordinary evaluation should go through u_coordinate / w_coordinate,
    which dispatch by region.
    """
    try:
        f = _BRANCHES[(channel, region)]
    except KeyError:
        raise ValueError(f"no branch {channel!r} / {region!r}") from None
    return f(r, params)


def _piecewise(channels: tuple, r, params: ModelParams):
    """Rows of the channels' values at r, from one validation and one region split."""
    ra = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(ra)):
        raise ValueError("r must be finite")
    if np.any(ra < 0):
        raise ValueError("r must be >= 0")
    r1 = np.atleast_1d(ra)
    out = np.empty((len(channels),) + r1.shape)
    for region, mask in zip(Region, _region_masks(r1, params)):
        if np.any(mask):
            rm = r1[mask]
            for row, channel in zip(out, channels):
                row[mask] = _BRANCHES[(channel, region)](rm, params)
    return out[:, 0] if ra.ndim == 0 else out


def uw_coordinate(r, params: ModelParams):
    """u(r) and w(r) stacked, shape (2,) + shape(r): the doubles of
    u_coordinate and w_coordinate from one shared region split."""
    return _piecewise(("u", "w"), r, params)


def u_coordinate(r, params: ModelParams):
    """S-channel reduced radial wavefunction u(r), vectorized over r >= 0."""
    out = _piecewise(("u",), r, params)[0]
    return float(out) if np.ndim(out) == 0 else out


def w_coordinate(r, params: ModelParams):
    """D-channel reduced radial wavefunction w(r), vectorized over r >= 0."""
    out = _piecewise(("w",), r, params)[0]
    return float(out) if np.ndim(out) == 0 else out


def _derivative(channel: str, r: float, params: ModelParams, region):
    if not r > 0:
        raise ValueError(f"derivative needs r > 0, got {r!r}")
    region = region_of(r, params) if region is None else Region(region)
    return float(_BRANCHES[(channel, region)](r, params, 1))


def du_dr(r: float, params: ModelParams, region: Region | None = None) -> float:
    """Exact du/dr at r > 0, from a single branch's formula.

    `region` selects which branch; by default the one containing r.  One-
    sided derivatives at a boundary are obtained by passing the two
    adjacent regions explicitly.
    """
    return _derivative("u", r, params, region)


def dw_dr(r: float, params: ModelParams, region: Region | None = None) -> float:
    """dw/dr at r > 0; see du_dr."""
    return _derivative("w", r, params, region)

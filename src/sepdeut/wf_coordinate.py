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

`uw_coordinate` evaluates u and w together over one region split.  Each
branch is a set of r-independent coefficients of one record, computed
with scalar math, times a profile in x = alpha*r; the profiles take the
coefficients as scalars or as one value per point.  So `uw_coordinate`
also takes a sequence of records with one row of radii each, and runs
every region's profiles once for all of them; one record is the one-row
case.

`branch` evaluates one region's formula on its own, or its exact slope,
because the continuity checks compare two adjacent formulas at their
shared boundary.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ModelParams, Region, _region_masks
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


def _xk2(x, e, d=0):
    """x * k2(x) = e*(1 + 3/x + 3/x^2) with e = exp(-x), or its derivative; needs x > 0."""
    if d:
        return -e * (1.0 + 3.0 / x + 6.0 / (x * x) + 6.0 / (x * x * x))
    return e * (1.0 + 3.0 / x + 3.0 / (x * x))


def _g(x, d=0):
    """g(x), or its derivative g'(x) = (x k2)'(x) + 6/x^3."""
    xa = np.asarray(x, dtype=float)
    if d:
        return _split(xa, lambda s: s * _horner(_DG_SERIES, s),
                      lambda s: _xk2(s, np.exp(-s), 1) + 6.0 / (s * s * s))
    return _split(xa, lambda s: s * s * _horner(_G_SERIES, s),
                  lambda s: _xk2(s, np.exp(-s)) - 3.0 / (s * s) + 0.5)


# ---------------------------------------------------------------------------
# the three regions' branches, each split in two: r-independent
# coefficients of one record (scalar math), and profiles in x = alpha*r
# that take the coefficients as scalars or as one value per point, so
# one profile call serves many records.  d = 0 gives the value, d = 1 the
# exact r-derivative from the same coefficients; alpha**d, dx/dr, is
# folded into the scales.  Each profile returns the rows (u, w).

def _inner_coefficients(p: ModelParams, d):
    al = p.alpha
    u = p.A * mod_sph_bessel_i(0, al * p.b1) * mod_sph_bessel_k(0, al * p.b2) * al**d
    # minus sign: fixed by continuity with the middle branch at r = b2-b1
    # and confirmed by the numerical transform of the momentum amplitude
    w = -p.B * mod_sph_bessel_i(1, al * p.b1) * mod_sph_bessel_k(1, al * p.b2) * al**d
    return u, w


def _inner(x, d, u_scale, w_scale):
    return u_scale * (np.cosh(x) if d else np.sinh(x)), w_scale * _xi2(x, d)


def _gap(p: ModelParams) -> float:
    """b2 - b1, or 0 when the ranges count as equal (as in `_region_masks`)."""
    return 0.0 if p.equal_range else p.delta


def _middle_coefficients(p: ModelParams, d):
    al = p.alpha
    cosh_gap = 2.0 * math.sinh(0.5 * al * _gap(p)) ** 2  # cosh(alpha*delta) - 1
    es = math.exp(-al * p.range_sum)
    b1b2 = p.b1 * p.b2
    y = al * _gap(p)
    ab_m1 = al * al * b1b2 - 1.0
    # r-independent w coefficients, grouped so near-equal ranges do not
    # cancel: each piece is explicitly O(y^2) or better where it must be.
    # Ranges equal within EPS_REGION take y = 0, which drops the pole:
    # r = 0 lies in this region then, where pole / x^2 would divide by 0.
    const = 2.0 * y**2 - 8.0 * ab_m1 * math.sinh(0.5 * y) ** 2 - 4.0 * y * math.sinh(y)
    pole = 24.0 * y * _sinh_minus(y) + 48.0 * ab_m1 * _sinh_sq_minus(0.5 * y) - 3.0 * y**4
    growth = es * (al * al * b1b2 + al * p.range_sum + 1.0)
    mix = ab_m1 * math.cosh(y) + y * math.sinh(y)
    return (p.A / (2.0 * al * al * p.b1 * p.b2) * al**d, cosh_gap, es,
            p.B / (16.0 * al**4 * b1b2 * b1b2) * al**d, const, pole, growth, mix)


def _middle(x, d, u_scale, cosh_gap, es, w_scale, const, pole, growth, mix):
    if d:
        u = (1.0 + cosh_gap) * np.exp(-x) - es * np.cosh(x)
        w = 2.0 * x + 8.0 * mix * _g(x, 1) - 8.0 * growth * _xi2(x, 1)
    else:
        u = -np.expm1(-x)
        if cosh_gap.any():  # 0.0 at equal ranges
            u = u - cosh_gap * np.exp(-x)
        u = u - es * np.sinh(x)
        w = const + x * x + 8.0 * mix * _g(x) - 8.0 * growth * _xi2(x)
    if pole.any():
        xp = np.where(pole != 0.0, x, 1.0)  # keeps r = 0 of equal ranges finite
        w = w + (-2.0 * pole / (xp * xp * xp) if d else pole / (xp * xp))
    return u_scale * u, w_scale * w


def _outer_coefficients(p: ModelParams, d):
    al = p.alpha
    u = p.A * mod_sph_bessel_i(0, al * p.b1) * mod_sph_bessel_i(0, al * p.b2) * (-al) ** d
    w = p.B * mod_sph_bessel_i(1, al * p.b1) * mod_sph_bessel_i(1, al * p.b2) * al**d
    return u, w


def _outer(x, d, u_scale, w_scale):
    e = np.exp(-x)  # shared by both channels
    return u_scale * e, w_scale * _xk2(x, e, d)


_REGIONS = {
    Region.INNER: (_inner_coefficients, _inner),
    Region.MIDDLE: (_middle_coefficients, _middle),
    Region.OUTER: (_outer_coefficients, _outer),
}


def _radii(r, d=0) -> np.ndarray:
    """r as a float array, checked: finite and >= 0, and > 0 for a slope (d = 1)."""
    ra = np.asarray(r, dtype=float)
    if not np.isfinite(ra).all():
        raise ValueError("r must be finite")
    if (ra < 0).any():
        raise ValueError("r must be >= 0")
    if d and not (ra > 0).all():
        raise ValueError("a slope needs r > 0")
    return ra


def branch(region: Region, r, params: ModelParams, d=0):
    """Rows (u, w) of one region's formula at r, inside its region or not.

    Shape (2,) + shape(r).  With d = 1 the rows are the formula's exact
    r-slopes, so passing the two regions that meet at a boundary gives the
    one-sided values and slopes there.
    """
    if region not in _REGIONS or d not in (0, 1):
        raise ValueError(f"no branch for region {region!r} and derivative order {d!r}")
    coefficients, profiles = _REGIONS[region]
    x = params.alpha * _radii(r, d)
    return np.array(profiles(x, d, *np.array(coefficients(params, d))))


def uw_coordinate(r, params):
    """u(r) and w(r) stacked, shape (2,) + shape(r), from one region split.

    `params` may also be a sequence of m records, with r of shape (m, ...)
    holding each record's radii: each region's profiles then run once for
    all records, and give every record the doubles of its one-record call.
    """
    ra = _radii(r)
    batch = not isinstance(params, ModelParams)
    records = tuple(params) if batch else (params,)
    if batch and not (ra.ndim and len(ra) == len(records)):
        raise ValueError(f"r needs a leading axis of {len(records)} records, got shape {ra.shape}")
    r2 = ra.reshape(len(records), -1)
    out = np.empty((2,) + r2.shape)
    for region, mask in zip(Region, _region_masks(r2, records if batch else params)):
        counts = mask.sum(axis=1).tolist()
        present = [i for i, n in enumerate(counts) if n]
        if not present:
            continue
        coefficients, profiles = _REGIONS[region]
        # alpha and the coefficients, one column per record: one record's
        # as scalars, several records' repeated over each record's points
        columns = np.array([(records[i].alpha, *coefficients(records[i], 0)) for i in present]).T
        alpha, *coefs = np.repeat(columns, [counts[i] for i in present], axis=1) if batch else columns[:, 0]
        for row, values in zip(out, profiles(alpha * r2[mask], 0, *coefs)):
            row[mask] = values
    return out.reshape((2,) + ra.shape)

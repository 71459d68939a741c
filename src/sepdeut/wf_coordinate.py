"""Piecewise analytic coordinate-space wavefunctions u(r), w(r).

The compact spherical-Bessel form factors split the radial line into
three analytic regions with boundaries at b2-b1 and b1+b2:

  inner   r <= b2-b1 : growing solutions  (alpha r) i_l(alpha r)
  middle  in between : particular + homogeneous mix
  outer   r >= b1+b2 : decaying solutions (alpha r) k_l(alpha r)

For equal ranges the inner interval is empty and the middle branch covers
[0, 2b].  Two numerical traps hide in the D-channel middle bracket and are
handled by exact algebraic regroupings rather than extra precision, each
a `specfun._ExpPoly` table that sums its exact series below 0.5:

* the 1/(alpha r)^2 pieces of the bracket cancel analytically; the
  combination g(x) = x*k2(x) - 3/x^2 + 1/2 = x^2/8 - x^3/15 + ... is the
  table `_g` (its closed form loses ~4 digits near the origin);
* the r-independent bracket coefficients are differences of O(1)
  quantities that shrink like (b2-b1)^2 and (b2-b1)^4; each is one table
  in y = alpha*(b2-b1) that vanishes like y^4 or y^6, plus a term with no
  cancellation, so nearly-equal ranges keep full precision.

The inner and middle D-waves read x*i2(x) from its table too, `_xi2`, and
every profile's slope is its table's generated slope.

The inner D-channel coefficient carries a minus sign: the direct
numerical transform of the momentum wavefunction is negative below
b2-b1, and continuity with the middle branch at r = b2-b1 fixes the
same sign.  The inner D-wave dips below zero whenever b1 != b2.

`branch` is the one evaluator of a region's formula, its values or its
exact slopes.  Each branch is a set of r-independent coefficients of one
record, computed with scalar math, times a profile in x = alpha*r; the
profiles take the coefficients as scalars or as one column per record.
So `branch` also takes a sequence of records with one row of radii each,
and runs the region's profiles once for all of them.  The radial
integrals call it once per region, on that region's panels; the
continuity checks compare two adjacent formulas at their shared
boundary.  `uw_coordinate` sorts arbitrary radii of one record into
their regions and calls `branch` on each.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ModelParams, Region, _region_masks
from .specfun import _I_PIECES, _ExpPoly, mod_sph_bessel_i, mod_sph_bessel_k

# x * i2(x), from the pieces of x^3 i2(x)
_xi2 = _ExpPoly(_I_PIECES[2], 2, 5, 8, 2)

# g(x) = x*k2(x) - 3/x^2 + 1/2: the 1/x^2 poles of the middle bracket
# cancel inside this combination.  x^2 g = e^-x (x^2+3x+3) - 3 + x^2/2,
# so g(x) = x^2 * sum_m c_m x^m.
_g = _ExpPoly(((1, (3, 3, 1), -1), (1, (-3, 0, 0.5), 0)), 2, 4, 15)

# The middle w's r-independent coefficients, in y = alpha*(b2 - b1), are
# const = C0(y) - 8 alpha^2 b1 b2 sinh^2(y/2) and
# pole = P0(y) + 48 alpha^2 b1 b2 S2(y), where each table is even in y and
# vanishes like its leading power, so near-equal ranges keep full precision:
# C0 = 2y^2 - 4 + (2-2y) e^y + (2+2y) e^-y            = -y^4/2 + ...
# P0 = 12(y-1) e^y - 12(y+1) e^-y + 24 - 12y^2 - 3y^4  = O(y^6)
# S2 = sinh^2(y/2) - y^2/4 = (e^y + e^-y - 2 - y^2)/4  = y^4/48 + ...
_C0 = _ExpPoly(((2, (1, -1), 1), (2, (1, 1), -1), (1, (-4, 0, 2), 0)), 0, 4, 8, 2)
_P0 = _ExpPoly(((12, (-1, 1), 1), (-12, (1, 1), -1), (1, (24, 0, -12, 0, -3), 0)), 0, 6, 8, 2)
_S2 = _ExpPoly(((0.25, (1,), 1), (0.25, (1,), -1), (-0.25, (2, 0, 1), 0)), 0, 4, 8, 2)


# ---------------------------------------------------------------------------
# array-aware radial profile pieces of x >= 0 and their x-derivatives (d = 1)

def _xk2(x, e, d=0):
    """x * k2(x) = e*(1 + 3/x + 3/x^2) with e = exp(-x), or its derivative; needs x > 0."""
    if d:
        return -e * (1.0 + 3.0 / x + 6.0 / (x * x) + 6.0 / (x * x * x))
    return e * (1.0 + 3.0 / x + 3.0 / (x * x))


# ---------------------------------------------------------------------------
# the three regions' branches, each split in two: r-independent
# coefficients of one record (scalar math), and profiles in x = alpha*r
# that take the coefficients as scalars or as one column per record, so
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
    y = al * _gap(p)
    sinh_sq = math.sinh(0.5 * y) ** 2
    cosh_gap = 2.0 * sinh_sq  # cosh(alpha*delta) - 1
    es = math.exp(-al * p.range_sum)
    b1b2 = p.b1 * p.b2
    ab = al * al * b1b2
    # Ranges equal within EPS_REGION take y = 0, which drops the pole:
    # r = 0 lies in this region then, where pole / x^2 would divide by 0.
    # The tables vanish at y = 0, so equal ranges skip them.
    const = _C0(y) - 8.0 * ab * sinh_sq if y else 0.0
    pole = _P0(y) + 48.0 * ab * _S2(y) if y else 0.0
    growth = es * (ab + al * p.range_sum + 1.0)
    mix = (ab - 1.0) * math.cosh(y) + y * math.sinh(y)
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
    i_b1 = [mod_sph_bessel_i(l, al * p.b1) for l in (0, 1)]
    # equal ranges evaluate i_0 and i_1 once, as form_factors does j_0, j_1
    i_b2 = i_b1 if p.b2 == p.b1 else [mod_sph_bessel_i(l, al * p.b2) for l in (0, 1)]
    u = p.A * i_b1[0] * i_b2[0] * (-al) ** d
    w = p.B * i_b1[1] * i_b2[1] * al**d
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


def branch(region: Region, r, params, d=0):
    """Rows (u, w) of one region's formula at r, inside its region or not.

    Shape (2,) + shape(r).  With d = 1 the rows are the formula's exact
    r-slopes, so passing the two regions that meet at a boundary gives the
    one-sided values and slopes there.  `params` may also be a sequence of
    m records, with r of shape (m, ...) holding each record's radii: the
    coefficients then come as one column per record, and every row is the
    doubles of its record's own call.
    """
    if region not in _REGIONS or d not in (0, 1):
        raise ValueError(f"no branch for region {region!r} and derivative order {d!r}")
    coefficients, profiles = _REGIONS[region]
    ra = _radii(r, d)
    if isinstance(params, ModelParams):
        columns = np.array((params.alpha, *coefficients(params, d)))
    elif ra.ndim and len(ra) == len(params):
        columns = np.array([(p.alpha, *coefficients(p, d)) for p in params]).T
        columns = columns.reshape(columns.shape + (1,) * (ra.ndim - 1))
    else:
        raise ValueError(f"r needs a leading axis of {len(params)} records, got shape {ra.shape}")
    alpha, *coefs = columns
    return np.array(profiles(alpha * ra, d, *coefs))


def uw_coordinate(r, params: ModelParams):
    """u(r) and w(r) stacked, shape (2,) + shape(r): at each radius, the
    `branch` of the region holding it."""
    ra = _radii(r)
    flat = ra.reshape(-1)
    out = np.empty((2, flat.size))
    for region, mask in zip(Region, _region_masks(flat, params)):
        if mask.any():
            out[:, mask] = branch(region, flat[mask], params)
    return out.reshape((2,) + ra.shape)

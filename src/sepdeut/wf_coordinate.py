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
`u_coordinate` and `w_coordinate` are its one-row cases.  Each branch is
a set of r-independent coefficients of one record, computed with scalar
math, times a profile in x = alpha*r; the profiles take the coefficients
as scalars or as one value per point.  So `uw_coordinate` also takes a
sequence of records with one row of radii each, and runs every region's
profiles once for all of them; one record is the one-row case.

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
# folded into the scales.  A channel not asked gets zeros for coefficients,
# and each profile returns one row per channel asked.

def _inner_coefficients(p: ModelParams, d, channels):
    al = p.alpha
    u = w = 0.0
    if "u" in channels:
        u = p.A * mod_sph_bessel_i(0, al * p.b1) * mod_sph_bessel_k(0, al * p.b2) * al**d
    if "w" in channels:
        # minus sign: fixed by continuity with the middle branch at r = b2-b1
        # and confirmed by the numerical transform of the momentum amplitude
        w = -p.B * mod_sph_bessel_i(1, al * p.b1) * mod_sph_bessel_k(1, al * p.b2) * al**d
    return u, w


def _inner(x, d, channels, u_scale, w_scale):
    return [u_scale * (np.cosh(x) if d else np.sinh(x)) if channel == "u" else w_scale * _xi2(x, d)
            for channel in channels]


def _gap(p: ModelParams) -> float:
    """b2 - b1, or 0 when the ranges count as equal (as in `_region_masks`)."""
    return 0.0 if p.equal_range else p.delta


def _middle_coefficients(p: ModelParams, d, channels):
    al = p.alpha
    cosh_gap = 2.0 * math.sinh(0.5 * al * _gap(p)) ** 2  # cosh(alpha*delta) - 1
    es = math.exp(-al * p.range_sum)
    u = (p.A / (2.0 * al * al * p.b1 * p.b2) * al**d, cosh_gap, es)
    if "w" not in channels:
        return (*u, 0.0, 0.0, 0.0, 0.0, 0.0)
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
    return (*u, p.B / (16.0 * al**4 * b1b2 * b1b2) * al**d, const, pole, growth, mix)


def _middle(x, d, channels, u_scale, cosh_gap, es, w_scale, const, pole, growth, mix):
    rows = []
    for channel in channels:
        if channel == "u" and d:
            bracket = (1.0 + cosh_gap) * np.exp(-x) - es * np.cosh(x)
        elif channel == "u":
            bracket = -np.expm1(-x)
            if cosh_gap.any():  # 0.0 at equal ranges
                bracket = bracket - cosh_gap * np.exp(-x)
            bracket = bracket - es * np.sinh(x)
        else:
            if d:
                bracket = 2.0 * x + 8.0 * mix * _g(x, 1) - 8.0 * growth * _xi2(x, 1)
            else:
                bracket = const + x * x + 8.0 * mix * _g(x) - 8.0 * growth * _xi2(x)
            if pole.any():
                xp = np.where(pole != 0.0, x, 1.0)  # keeps r = 0 of equal ranges finite
                bracket = bracket + (-2.0 * pole / (xp * xp * xp) if d else pole / (xp * xp))
        rows.append((u_scale if channel == "u" else w_scale) * bracket)
    return rows


def _outer_coefficients(p: ModelParams, d, channels):
    al = p.alpha
    u = w = 0.0
    if "u" in channels:
        u = p.A * mod_sph_bessel_i(0, al * p.b1) * mod_sph_bessel_i(0, al * p.b2) * (-al) ** d
    if "w" in channels:
        w = p.B * mod_sph_bessel_i(1, al * p.b1) * mod_sph_bessel_i(1, al * p.b2) * al**d
    return u, w


def _outer(x, d, channels, u_scale, w_scale):
    e = np.exp(-x)  # shared by both channels
    return [u_scale * e if channel == "u" else w_scale * _xk2(x, e, d) for channel in channels]


_REGIONS = {
    Region.INNER: (_inner_coefficients, _inner),
    Region.MIDDLE: (_middle_coefficients, _middle),
    Region.OUTER: (_outer_coefficients, _outer),
}


def _branch(channel: str, region: Region):
    coefficients, profiles = _REGIONS[region]

    def branch(r, p: ModelParams, d=0):
        x = p.alpha * np.asarray(r, dtype=float)
        return profiles(x, d, (channel,), *np.array(coefficients(p, d, (channel,))))[0]

    return branch


_BRANCHES = {(channel, region): _branch(channel, region) for channel in ("u", "w") for region in Region}


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


def _piecewise(channels: tuple, r, params):
    """Rows of the channels' values at r, from one validation and one region split.

    `params` is one record, or a sequence of records, one per entry of r's
    leading axis: each region's profiles then run once for all records,
    and give every record the doubles of its one-record call.
    """
    ra = np.asarray(r, dtype=float)
    if not np.isfinite(ra).all():
        raise ValueError("r must be finite")
    if (ra < 0).any():
        raise ValueError("r must be >= 0")
    batch = not isinstance(params, ModelParams)
    records = tuple(params) if batch else (params,)
    if batch and not (ra.ndim and len(ra) == len(records)):
        raise ValueError(f"r needs a leading axis of {len(records)} records, got shape {ra.shape}")
    r2 = ra.reshape(len(records), -1)
    out = np.empty((len(channels),) + r2.shape)
    for region, mask in zip(Region, _region_masks(r2, records if batch else params)):
        counts = mask.sum(axis=1).tolist()
        present = [i for i, n in enumerate(counts) if n]
        if not present:
            continue
        coefficients, profiles = _REGIONS[region]
        # alpha and the coefficients, one column per record: one record's
        # as scalars, several records' repeated over each record's points
        columns = np.array([(records[i].alpha, *coefficients(records[i], 0, channels)) for i in present]).T
        alpha, *coefs = np.repeat(columns, [counts[i] for i in present], axis=1) if batch else columns[:, 0]
        for row, values in zip(out, profiles(alpha * r2[mask], 0, channels, *coefs)):
            row[mask] = values
    return out.reshape((len(channels),) + ra.shape)


def uw_coordinate(r, params):
    """u(r) and w(r) stacked, shape (2,) + shape(r): the doubles of
    u_coordinate and w_coordinate from one shared region split.

    `params` may also be a sequence of m records, with r of shape (m, ...)
    holding each record's radii: one call then evaluates every record.
    """
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

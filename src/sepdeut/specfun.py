"""Stable evaluation of spherical Bessel functions of orders 0..2.

j_l, i_l and k_l are all simple sin/cos/exp combinations, but for l >= 1
the closed forms subtract nearly equal terms near the origin and lose
roughly 2*log10(1/x) digits (j2 and i2 are worst).  Below the switch
point 0.5 each function is therefore evaluated from its Taylor series
instead; the k_l have no such cancellation and use the closed forms
everywhere.

Every small-argument series in the package, here and in `wf_coordinate`
and `observables`, comes from one generator, `_exact_series`: it expands
the same exp-polynomial that the closed form sums (scale * poly(x) *
exp(rate*x) pieces) in exact rationals, asserts that the cancelled
leading terms vanish, and hands the surviving coefficients to Horner's
rule.  The i_l tables come from x^(l+1) i_l(x); j_l reads the same
tables at -x^2.

All evaluators accept scalars or numpy arrays and return matching shapes.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

#: series below this argument, closed form at and above it
_SERIES_CUT = 0.5


def _exp_poly_coeffs(scale, poly, rate, n_max):
    """Exact Taylor coefficients of scale * poly(x) * exp(rate*x)."""
    exp = [Fraction(rate) ** n / math.factorial(n) for n in range(n_max + 1)]
    out = [Fraction(0)] * (n_max + 1)
    for j, pj in enumerate(poly):
        c = Fraction(scale) * Fraction(pj)
        for n in range(j, n_max + 1):
            out[n] += c * exp[n - j]
    return out


def _exact_series(pieces, leading_power, n_terms, step=1):
    """Exact c_0..c_{n_terms-1} of the pieces' sum, x^leading_power * sum_m c_m x^(step*m).

    Each piece (scale, poly, rate) is scale * poly(x) * exp(rate*x) with
    poly ascending; scale and poly hold integers or dyadic floats such as
    0.5, which convert to rationals exactly.  Every coefficient below
    `leading_power` or off the step must vanish; the assertion guards the
    pieces against slips.
    """
    n_max = leading_power + step * (n_terms - 1)
    total = [sum(col) for col in zip(*(_exp_poly_coeffs(*p, n_max) for p in pieces))]
    assert not any(
        c for n, c in enumerate(total) if n < leading_power or (n - leading_power) % step
    ), "series lost its leading zeros"
    return total[leading_power::step]


def _series_table(pieces, leading_power, n_terms, step=1):
    """The coefficients of `_exact_series` rounded to doubles."""
    return tuple(float(c) for c in _exact_series(pieces, leading_power, n_terms, step))


def _horner(coeffs, x):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# x^(l+1) i_l(x): sinh x, x cosh x - sinh x, (x^2+3) sinh x - 3x cosh x
_I_PIECES = (
    ((0.5, (1,), 1), (-0.5, (1,), -1)),
    ((0.5, (-1, 1), 1), (0.5, (1, 1), -1)),
    ((0.5, (3, -3, 1), 1), (-0.5, (3, 3, 1), -1)),
)

# i_l(x) = x^l * sum_m c_m (x^2)^m and j_l(x) = x^l * sum_m c_m (-x^2)^m
_I_SERIES = tuple(_series_table(p, 2 * l + 1, 8, 2) for l, p in enumerate(_I_PIECES))


def _j_closed(l: int, x: np.ndarray) -> np.ndarray:
    if l == 0:
        return np.sin(x) / x
    if l == 1:
        return np.sin(x) / (x * x) - np.cos(x) / x
    return (3.0 / (x * x * x) - 1.0 / x) * np.sin(x) - 3.0 * np.cos(x) / (x * x)


def _i_closed(l: int, x: np.ndarray) -> np.ndarray:
    if l == 0:
        return np.sinh(x) / x
    if l == 1:
        return np.cosh(x) / x - np.sinh(x) / (x * x)
    return ((x * x + 3.0) * np.sinh(x) - 3.0 * x * np.cosh(x)) / (x * x * x)


def _check_order(l: int) -> int:
    if l not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {l!r}")
    return l


def _split(x: np.ndarray, series, closed) -> np.ndarray:
    """series(x) where |x| < _SERIES_CUT, closed(x) elsewhere."""
    small = np.abs(x) < _SERIES_CUT
    out = np.empty_like(x)
    if np.any(small):
        out[small] = series(x[small])
    if not np.all(small):
        out[~small] = closed(x[~small])
    return out


def _bessel_series(l: int, x: np.ndarray, sign: float) -> np.ndarray:
    """x^l * sum_m c_m (sign*x^2)^m: i_l for sign = +1, j_l for sign = -1."""
    return x**l * _horner(_I_SERIES[l], sign * x * x)


def _split_eval(l, x, closed, sign):
    xa = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xa)):
        raise ValueError("argument must be finite")
    if np.any(xa < 0):
        raise ValueError("argument must be non-negative")
    out = _split(np.atleast_1d(xa), lambda s: _bessel_series(l, s, sign), lambda s: closed(l, s))
    return float(out[0]) if xa.ndim == 0 else out


def sph_bessel_j(l: int, x):
    """Spherical Bessel function j_l(x), l in {0, 1, 2}, x >= 0."""
    return _split_eval(_check_order(l), x, _j_closed, -1.0)


def mod_sph_bessel_i(l: int, x):
    """Modified spherical Bessel function i_l(x), l in {0, 1, 2}, x >= 0.

    Convention: i0 = sinh(x)/x, so i_l(x) ~ x^l/(2l+1)!! at the origin.
    """
    return _split_eval(_check_order(l), x, _i_closed, 1.0)


def mod_sph_bessel_k(l: int, x):
    """Decaying modified spherical Bessel function k_l(x), x > 0.

    Convention: k0 = exp(-x)/x, k1 = exp(-x)(x+1)/x^2,
    k2 = exp(-x)(x^2+3x+3)/x^3 -- a factor 2/pi smaller than the scipy
    convention for spherical_kn.  No series fallback is needed: every
    term is positive, the growth at small x is genuine.
    """
    _check_order(l)
    xa = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xa)):
        raise ValueError("argument must be finite")
    if np.any(xa <= 0):
        raise ValueError("argument must be > 0 (k_l diverges at the origin)")
    scalar = xa.ndim == 0
    xa = np.atleast_1d(xa)
    e = np.exp(-xa)
    if l == 0:
        out = e / xa
    elif l == 1:
        out = e * (xa + 1.0) / (xa * xa)
    else:
        out = e * (xa * (xa + 3.0) + 3.0) / (xa * xa * xa)
    return float(out[0]) if scalar else out

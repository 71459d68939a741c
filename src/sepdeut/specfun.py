"""Stable evaluation of spherical Bessel functions of orders 0..2, and the
exp-polynomial tables behind the package's cancelling closed forms.

j_l, i_l and k_l are all simple sin/cos/exp combinations, but for l >= 1
the closed forms subtract nearly equal terms near the origin and lose
roughly 2*log10(1/x) digits (j2 and i2 are worst).  Below the switch
point 0.5 each function is therefore evaluated from its Taylor series
instead; the k_l have no such cancellation and use the closed forms
everywhere.

Every closed form of the package that cancels near the origin, here and
in `wf_coordinate` and `observables`, is one `_ExpPoly` table: x^-p times
a sum of scale * poly(x) * exp(rate*x) pieces, built once at import.
Below its cut it sums its series, which `_exact_series` expands from the
pieces in exact rationals, asserting that the cancelled leading terms
vanish; at and above the cut it sums the pieces themselves.  Its exact
slope is generated from the same table: pieces x P' + rate x P - p P over
x^(p+1), and the series differentiated term by term.  So no value,
series or slope is written out twice.  The i_l are the tables of
x^(l+1) i_l(x); j_l reads their series at -x^2 and keeps its own sin/cos
closed form.

`sph_bessel_j` also takes a tuple of orders and returns one row per
order, sharing a single sin, cos and series/closed split across them;
a single order is the one-row case of the same code, so each row is
bit-identical to the single-order call.  The transform oracle evaluates
j_0 and j_1 of the form factors, and j_0 and j_2 of the transform
kernel, this way.

All evaluators accept scalars or numpy arrays and return matching shapes.
A scalar argument to i_l, k_l or a table skips the array checks and
masks: the same formulas run with numpy on the float (not `math`, whose
exp differs from numpy's by 1 ulp on many arguments), so it gives the
one-element array's double in one or two microseconds.
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


def _horner(coeffs, x):
    """The polynomial with these coefficients, highest power first, at x."""
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * x + c
    return acc


def _power(x, n):
    """x^n for n >= 1 by repeated multiplication: the same double for a float and an array."""
    out = x
    for _ in range(n - 1):
        out = out * x
    return out


def _polys_by_rate(pieces):
    """{rate: exact ascending coefficients of the sum of that rate's scale * poly}."""
    out = {}
    for scale, poly, rate in pieces:
        acc = out.setdefault(rate, [])
        acc.extend([Fraction(0)] * (len(poly) - len(acc)))
        for j, c in enumerate(poly):
            acc[j] += Fraction(scale) * Fraction(c)
    return out


def _slope_poly(poly, rate, p):
    """Q = x P' + rate x P - p P, so that (P e^(rate x) / x^p)' = Q e^(rate x) / x^(p+1)."""
    out = [(j - p) * c for j, c in enumerate(poly)] + [Fraction(0)]
    for j, c in enumerate(poly):
        out[j + 1] += rate * c
    while len(out) > 1 and not out[-1]:
        out.pop()
    return out


class _ExpPoly:
    """f(x) = x^-p * (sum of the pieces), x >= 0, built once from its pieces.

    Each piece (scale, poly, rate) is scale * poly(x) * exp(rate*x) as in
    `_exact_series`.  Below `cut`, f is its exact series,
    x^(leading_power - p) * sum_m c_m x^(step*m) with `n_terms` terms
    rounded to doubles; at or above it, the pieces themselves, each rate's
    polynomials summed exactly into one.  f(x, 1) is the exact slope from
    the same table: pieces x P' + rate x P - p P over x^(p+1), and the
    series differentiated term by term in exact rationals.  A float
    argument skips the masks and gives the double of a one-element array.
    """

    def __init__(self, pieces, p, leading_power, n_terms, step=1, cut=_SERIES_CUT):
        self.pieces, self.p, self.leading_power, self.n_terms, self.step, self.cut = (
            pieces, p, leading_power, n_terms, step, cut)
        exact = _exact_series(pieces, leading_power, n_terms, step)
        powers = [leading_power - p + step * m for m in range(n_terms)]
        skip = 0 if powers[0] else 1  # a constant leading term has no slope
        self.series = _floats(exact)
        self.slope_series = _floats(c * n for c, n in zip(exact[skip:], powers[skip:]))
        polys = _polys_by_rate(pieces)
        self.slope_polys = {rate: _slope_poly(poly, rate, p) for rate, poly in polys.items()}
        # per order d: (power of x before the series, the series highest term
        # first, power of x dividing the closed form, the closed form's table)
        self._forms = (
            (powers[0], self.series[::-1], p, _closed_table(polys)),
            (powers[skip] - 1, self.slope_series[::-1], p + 1, _closed_table(self.slope_polys)),
        )

    def series_at(self, x, t, d=0):
        """x^(leading_power - p - d) * sum_m c_m t^m: the series, at t = x^step or another t."""
        power, coeffs, _, _ = self._forms[d]
        s = _horner(coeffs, t)
        return _power(x, power) * s if power else s

    def closed(self, x, d=0):
        """The pieces at x: each rate's polynomial by Horner's rule, times its exponential.

        Horner's rule is written out here, not called: a call per rate
        is a large share of the float path's cost."""
        _, _, p, table = self._forms[d]
        total = 0.0
        for rate, lead, rest in table:
            term = lead
            for c in rest:
                term = term * x + c
            total = total + (term * np.exp(rate * x) if rate else term)
        return total / _power(x, p) if p else total

    def __call__(self, x, d=0):
        """f(x), or its slope for d = 1; x a float or a float array."""
        if isinstance(x, float):
            return float(self.series_at(x, x * x if self.step == 2 else x, d) if x < self.cut else self.closed(x, d))
        return _split(x, self.cut, lambda s: self.series_at(s, s * s if self.step == 2 else s, d),
                      lambda s: self.closed(s, d))


def _floats(coeffs):
    return tuple(float(c) for c in coeffs)


def _closed_table(polys):
    """((rate, leading coefficient, the others highest power first), ...) from {rate: poly}."""
    return tuple((rate, float(poly[-1]), _floats(poly[-2::-1])) for rate, poly in polys.items())


# x^(l+1) i_l(x): sinh x, x cosh x - sinh x, (x^2+3) sinh x - 3x cosh x
_I_PIECES = (
    ((0.5, (1,), 1), (-0.5, (1,), -1)),
    ((0.5, (-1, 1), 1), (0.5, (1, 1), -1)),
    ((0.5, (3, -3, 1), 1), (-0.5, (3, 3, 1), -1)),
)

# i_l(x) = x^l * sum_m c_m (x^2)^m, and j_l(x) = x^l * sum_m c_m (-x^2)^m
# from the same table
_i = tuple(_ExpPoly(pieces, l + 1, 2 * l + 1, 8, 2) for l, pieces in enumerate(_I_PIECES))


def _j_closed(l: int, x: np.ndarray, sin: np.ndarray, cos: np.ndarray) -> np.ndarray:
    """Closed-form j_l(x) from sin(x) and cos(x); j_0 reads only sin."""
    if l == 0:
        return sin / x
    if l == 1:
        return sin / (x * x) - cos / x
    return (3.0 / (x * x * x) - 1.0 / x) * sin - 3.0 * cos / (x * x)


def _check_order(l: int) -> int:
    if l not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {l!r}")
    return l


def _split(x: np.ndarray, cut, series, closed) -> np.ndarray:
    """series(x) where x < cut, closed(x) elsewhere."""
    small = x < cut
    out = np.empty_like(x)
    if small.any():
        out[small] = series(x[small])
    if not small.all():
        out[~small] = closed(x[~small])
    return out


def _checked_argument(x, zero_ok=True):
    """x as a float if it is a scalar, else as a float array; finite, and
    >= 0 (> 0 unless zero_ok).  A float skips the array reductions."""
    if not isinstance(x, float):
        x = np.asarray(x, dtype=float)
        x = float(x) if x.ndim == 0 else x
    if isinstance(x, float):
        finite, low = math.isfinite(x), (x < 0 if zero_ok else x <= 0)
    else:
        finite, low = np.isfinite(x).all(), (x < 0 if zero_ok else x <= 0).any()
    if not finite:
        raise ValueError("argument must be finite")
    if low:
        raise ValueError("argument must be " + ("non-negative" if zero_ok else "> 0 (k_l diverges at the origin)"))
    return x


def _j_orders(orders: tuple, x):
    """Rows j_l(x) for l in `orders`, sharing one sin, cos and series/closed split."""
    xa = _checked_argument(x)
    x1 = np.atleast_1d(xa)
    small = x1 < _SERIES_CUT
    out = np.empty((len(orders),) + x1.shape)
    if np.any(small):
        s = x1[small]
        for row, l in zip(out, orders):
            row[small] = _i[l].series_at(s, -s * s)
    if not np.all(small):
        big = ~small
        c = x1[big]
        sin = np.sin(c)
        cos = np.cos(c) if any(orders) else None
        for row, l in zip(out, orders):
            row[big] = _j_closed(l, c, sin, cos)
    return out[:, 0] if np.ndim(xa) == 0 else out


def sph_bessel_j(l, x):
    """Spherical Bessel function j_l(x), l in {0, 1, 2}, x >= 0.

    `l` may also be a tuple of orders: the result then stacks one row
    per order, shape (len(l),) + shape(x), each element the same double
    the single-order call gives, from one sin, one cos and one
    series/closed split shared by all orders.
    """
    if isinstance(l, tuple):
        return _j_orders(tuple(_check_order(m) for m in l), x)
    out = _j_orders((_check_order(l),), x)[0]
    return float(out) if np.ndim(out) == 0 else out


def mod_sph_bessel_i(l: int, x):
    """Modified spherical Bessel function i_l(x), l in {0, 1, 2}, x >= 0.

    Convention: i0 = sinh(x)/x, so i_l(x) ~ x^l/(2l+1)!! at the origin.
    """
    _check_order(l)
    xa = _checked_argument(x)
    return _i[l](xa)


def mod_sph_bessel_k(l: int, x):
    """Decaying modified spherical Bessel function k_l(x), x > 0.

    Convention: k0 = exp(-x)/x, k1 = exp(-x)(x+1)/x^2,
    k2 = exp(-x)(x^2+3x+3)/x^3 -- a factor 2/pi smaller than the scipy
    convention for spherical_kn.  No series fallback is needed: every
    term is positive, the growth at small x is genuine.
    """
    _check_order(l)
    xa = _checked_argument(x, zero_ok=False)
    e = np.exp(-xa)
    if l == 0:
        out = e / xa
    elif l == 1:
        out = e * (xa + 1.0) / (xa * xa)
    else:
        out = e * (xa * (xa + 3.0) + 3.0) / (xa * xa * xa)
    return float(out) if isinstance(xa, float) else out

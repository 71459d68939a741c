"""Gauss-Legendre panel integration.

The integrands in this package are piecewise-analytic products of
exponentials, low-degree polynomials and slow oscillations, so fixed-order
Gauss-Legendre panels between known breakpoints beat any adaptive scheme;
the only care needed is placing breakpoints at the region boundaries and
at the zeros of the oscillatory factors.

An integral evaluates its integrand once: the nodes of all panels are
built as one array, passed to the integrand in a single call, checked for
non-finite values, and reduced panel by panel with a matrix-vector product
against the weights.  The integrands are vectorized special functions, so
the cost of an integral is arithmetic on its nodes rather than Python call
overhead per panel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import EPS_REGION, ModelParams

#: Gauss-Legendre points per panel of every scheme this package builds
PANEL_ORDER = 40

# k-space cutoff (fm^-1) of the probability integrals
_K_MAX = 80.0


class QuadratureError(RuntimeError):
    """An integrand returned a non-finite value, or a rule misbehaved."""


@dataclass(frozen=True)
class QuadratureScheme:
    panel_order: int
    breakpoints: tuple

    def __post_init__(self):
        n = int(self.panel_order)
        if n < 2:
            raise ValueError(f"panel_order must be >= 2, got {n}")
        pts = tuple(float(b) for b in self.breakpoints)
        if len(pts) < 2:
            raise ValueError("need at least two breakpoints")
        if any(b2 <= b1 for b1, b2 in zip(pts, pts[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "panel_order", n)
        object.__setattr__(self, "breakpoints", pts)


@lru_cache(maxsize=32)
def gauss_legendre_rule(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Returns cached arrays; treat them as read-only.
    """
    if not 2 <= n <= 128:
        raise ValueError(f"rule order must be in [2, 128], got {n}")
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _panel_sums(f, left, half, order: int):
    """Gauss-Legendre sums of f over the panels [left, left + 2*half].

    `half` is one half-width per panel, as a column (n, 1), or one for
    all panels.  Every node of every panel goes to `f` in one array, so
    `f` is called exactly once.  `f` returns one value per node, or a
    (k, n) stack of k integrands on the n nodes.  Returns the unscaled
    sum over each panel's nodes, shape (n_panels,) or (k, n_panels); the
    caller multiplies by the half-widths.
    """
    nodes, weights = gauss_legendre_rule(order)
    x = (left[:, None] + half * (nodes + 1.0)).ravel()
    vals = np.asarray(f(x), dtype=float)
    if vals.shape[-1:] != x.shape:
        vals = np.broadcast_to(vals, x.shape)
    finite = np.isfinite(vals).reshape(-1, x.size).all(axis=0)
    if not finite.all():
        raise QuadratureError(f"integrand is non-finite at x = {x[~finite][0]!r}")
    return vals.reshape(vals.shape[:-1] + (-1, order)) @ weights


def integrate_panels(f, scheme: QuadratureScheme) -> float:
    """Sum Gauss-Legendre panel integrals over consecutive breakpoints.

    `f` must accept a numpy array of abscissae and return matching values;
    it is called once, on the nodes of all panels together.  An `f` that
    returns a (k, n) stack of integrands gives an array of k integrals,
    each summed exactly as a one-row integrand would be.
    """
    edges = np.array(scheme.breakpoints)
    half = 0.5 * np.diff(edges)
    sums = _panel_sums(f, edges[:-1], half[:, None], scheme.panel_order)
    if sums.ndim == 1:
        return math.fsum((half * sums).tolist())
    return np.array([math.fsum(row) for row in (half * sums).tolist()])


def radial_scheme(params: ModelParams) -> QuadratureScheme:
    """Panels for semi-infinite r-space observable integrals.

    Breakpoints at the region boundaries (piecewise-analytic integrands),
    then one decay length 1/alpha per panel out to 40 decay lengths past
    the outer boundary, where the exp(-2*alpha*r) envelope puts the
    dropped tail far below every tolerance used here.
    """
    pts = [0.0]
    if not params.equal_range:
        pts.append(params.delta)
    pts.append(params.range_sum)
    width = 1.0 / params.alpha
    pts.extend(params.range_sum + i * width for i in range(1, 41))
    return QuadratureScheme(PANEL_ORDER, tuple(pts))


def momentum_scheme(params: ModelParams) -> QuadratureScheme:
    """Panels for k-space probability integrals.

    Breakpoints at the form-factor zeros k = n*pi/max(b1, b2), with two
    extra panels [0, alpha, 3*alpha] resolving the 1/(k^2+alpha^2)^2 peak.
    The integrands decay like k^-6; truncation at _K_MAX = 80 fm^-1 drops
    3e-12 of P_S and 2e-10 of P_D at b = 1.475 fm, alpha = 0.23165 fm^-1,
    and up to 4e-9 of P_D at b = 0.8 fm.
    """
    spacing = math.pi / max(params.b1, params.b2)
    pts = [0.0]
    for p in (params.alpha, 3.0 * params.alpha):
        if p < _K_MAX and p > pts[-1] + EPS_REGION:
            pts.append(p)
    n = 1
    while n * spacing < _K_MAX:
        if n * spacing > pts[-1] + EPS_REGION:
            pts.append(n * spacing)
        n += 1
    pts.append(_K_MAX)
    return QuadratureScheme(PANEL_ORDER, tuple(pts))

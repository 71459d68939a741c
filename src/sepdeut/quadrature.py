"""Gauss-Legendre panel integration.

The integrands in this package are piecewise-analytic products of
exponentials, low-degree polynomials and slow oscillations, so fixed-order
Gauss-Legendre panels between known breakpoints beat any adaptive scheme;
the only care needed is placing breakpoints at the region boundaries and
at the zeros of the oscillatory factors.  The r-space panels live with
their integrands in `observables`.

An integral evaluates its integrand once: the nodes of all panels are
built as one array, passed to the integrand in a single call, checked for
non-finite values, and reduced panel by panel with a matrix-vector product
against the weights.  The integrands are vectorized special functions, so
the cost of an integral is arithmetic on its nodes rather than Python call
overhead per panel.
"""

from __future__ import annotations

import math
import operator
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
    """Panel order and breakpoints of one integral, or of a batch of them.

    Each breakpoint is a float, or for a batch of m integrals over equally
    many panels a tuple of m floats, its value in each integral.
    """

    panel_order: int
    breakpoints: tuple

    def __post_init__(self):
        n = int(self.panel_order)
        if n < 2:
            raise ValueError(f"panel_order must be >= 2, got {n}")
        pts = tuple(self.breakpoints)
        if len(pts) < 2:
            raise ValueError("need at least two breakpoints")
        if isinstance(pts[0], tuple):
            pts = tuple(tuple(map(float, b)) for b in pts)
            rows = list(zip(*pts, strict=True))
        else:
            pts = tuple(map(float, pts))
            rows = [pts]
        if not all(all(map(operator.lt, row, row[1:])) for row in rows):
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

    `left` holds the n panels' left ends, shape (n,), or those of m
    batched integrals, shape (m, n); `half` holds their half-widths with
    a trailing axis of one, shape (n, 1) or (m, n, 1), or is one for all
    panels.  Every node of every panel goes to `f` in one array, so `f`
    is called exactly once, on nodes of shape (n*order,) or
    (m, n*order).  `f` returns one value per node, or a (k, ...) stack of
    k integrands on the nodes.  Returns the unscaled sum over each panel's
    nodes, shape left.shape or (k,) + left.shape; the caller multiplies by
    the half-widths.  Each integral's (n, order) block is reduced by its
    own product with the weights, so a batched integral's sums are the
    doubles of its one-integral call.
    """
    nodes, weights = gauss_legendre_rule(order)
    x = (left[..., None] + half * (nodes + 1.0)).reshape(left.shape[:-1] + (-1,))
    vals = np.asarray(f(x), dtype=float)
    if vals.shape[-x.ndim:] != x.shape:
        vals = np.broadcast_to(vals, x.shape)
    finite = np.isfinite(vals).reshape(-1, x.size).all(axis=0)
    if not finite.all():
        raise QuadratureError(f"integrand is non-finite at x = {x.ravel()[~finite][0]!r}")
    return vals.reshape(vals.shape[:vals.ndim - x.ndim] + left.shape + (order,)) @ weights


def integrate_panels(f, scheme: QuadratureScheme):
    """Sum Gauss-Legendre panel integrals over consecutive breakpoints.

    `f` must accept a numpy array of abscissae and return matching values;
    it is called once, on the nodes of all panels together.  An `f` that
    returns a (k, n) stack of integrands gives an array of k integrals,
    each summed exactly as a one-row integrand would be.  A batched scheme
    of m integrals hands `f` the nodes as m rows and gives m integrals,
    shape (m,) or (k, m), each the double of its one-integral scheme.
    """
    edges = np.array(scheme.breakpoints).T
    half = 0.5 * np.diff(edges)
    sums = half * _panel_sums(f, edges[..., :-1], half[..., None], scheme.panel_order)
    totals = np.array([math.fsum(row) for row in sums.reshape(-1, sums.shape[-1]).tolist()])
    return float(totals[0]) if sums.ndim == 1 else totals.reshape(sums.shape[:-1])


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

"""Observables of the separable deuteron model, computed apart from sepdeut.

Nothing here imports sepdeut.  Special functions come from scipy.special
and every integral is a Gauss-Legendre sum over k written out below, so
the benchmark can check the program's outputs against a second
computation that shares none of its special functions, quadrature or
wavefunction branches.

Everything is evaluated in momentum space, where the model is explicit:

    u(k) = A sqrt(2/pi) j0(b1 k) j0(b2 k) / (k^2 + alpha^2)
    w(k) = B sqrt(2/pi) j1(b1 k) j1(b2 k) / (k^2 + alpha^2)

    P_S   = Int k^2 u^2 dk,   P_D = Int k^2 w^2 dk
    r_rms^2 = 1/4 Int [k^2 (u'^2 + w'^2) + 6 w^2] dk
    Q     = -1/20 Int {sqrt(8) [k^2 u' w' + 3 k w u'] + k^2 w'^2 + 6 w^2} dk
    A_S   = A i0(alpha b1) i0(alpha b2),   A_D = B i1(alpha b1) i1(alpha b2)

Each observable is a quadratic form in (A, B), so one set of
unit-strength moments serves every ratio (B/A)^2.  Coordinate-space
values come from the Bessel transform

    u(r) = sqrt(2/pi) r Int k^2 u(k) j0(k r) dk,
    w(r) = sqrt(2/pi) r Int k^2 w(k) j2(k r) dk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_legendre, spherical_in, spherical_jn

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
ROOT8 = math.sqrt(8.0)

#: Gauss-Legendre points per panel
ORDER = 40
#: momentum cutoff of the moment integrals; their integrands fall like k^-6
MOMENT_K_MAX = 200.0
#: momentum cutoff of the Bessel transform; its integrand falls only like k^-3
TRANSFORM_K_MAX = 1280.0

_NODES, _WEIGHTS = roots_legendre(ORDER)


def _panel_rule(edges: np.ndarray):
    """Nodes and weights of ORDER-point Gauss-Legendre panels between edges."""
    a, b = edges[:-1, None], edges[1:, None]
    half = 0.5 * (b - a)
    k = (a + half * (_NODES[None, :] + 1.0)).ravel()
    wts = (half * _WEIGHTS[None, :]).ravel()
    return k, wts


def _moment_rule(b1: float, b2: float, alpha: float, k_max: float):
    """Panels doubling in width from alpha up to one oscillation, then uniform.

    The geometric panels resolve the (k^2 + alpha^2)^-2 peak; beyond it
    each panel spans one period pi/(b1 + b2) of the fastest oscillation.
    """
    width = math.pi / (b1 + b2)
    edges = [0.0]
    step = alpha
    while edges[-1] + step < width:
        edges.append(edges[-1] + step)
        step *= 2.0
    n = math.ceil((k_max - edges[-1]) / width)
    edges.extend(edges[-1] + width * np.arange(1, n + 1))
    return _panel_rule(np.asarray(edges))


def _amplitudes(k, b1: float, b2: float, alpha: float):
    """Unit-strength u(k), w(k) and their k-derivatives."""
    x1, x2 = b1 * k, b2 * k
    j0a, j0b = spherical_jn(0, x1), spherical_jn(0, x2)
    j1a, j1b = spherical_jn(1, x1), spherical_jn(1, x2)
    dj0a, dj0b = -j1a, -j1b  # j0' = -j1
    dj1a = spherical_jn(1, x1, derivative=True)
    dj1b = spherical_jn(1, x2, derivative=True)
    prop = 1.0 / (k * k + alpha * alpha)
    g_c, g_t = j0a * j0b, j1a * j1b
    dg_c = b1 * dj0a * j0b + b2 * j0a * dj0b
    dg_t = b1 * dj1a * j1b + b2 * j1a * dj1b
    u = SQRT_2_OVER_PI * g_c * prop
    w = SQRT_2_OVER_PI * g_t * prop
    du = SQRT_2_OVER_PI * (dg_c * prop - 2.0 * k * g_c * prop * prop)
    dw = SQRT_2_OVER_PI * (dg_t * prop - 2.0 * k * g_t * prop * prop)
    return u, w, du, dw


@dataclass(frozen=True)
class Moments:
    """Unit-strength integrals at one (b1, b2, alpha).

    n_s = Int k^2 u1^2, n_d = Int k^2 w1^2,
    r_s = Int k^2 u1'^2, r_d = Int (k^2 w1'^2 + 6 w1^2),
    x = Int (k^2 u1' w1' + 3 k w1 u1').
    """

    b1: float
    b2: float
    alpha: float
    n_s: float
    n_d: float
    r_s: float
    r_d: float
    x: float


def moments(b1: float, b2: float, alpha: float, *, k_max: float = MOMENT_K_MAX) -> Moments:
    k, wts = _moment_rule(b1, b2, alpha, k_max)
    u, w, du, dw = _amplitudes(k, b1, b2, alpha)
    k2 = k * k
    return Moments(
        b1=b1,
        b2=b2,
        alpha=alpha,
        n_s=float(wts @ (k2 * u * u)),
        n_d=float(wts @ (k2 * w * w)),
        r_s=float(wts @ (k2 * du * du)),
        r_d=float(wts @ (k2 * dw * dw + 6.0 * w * w)),
        x=float(wts @ (k2 * du * dw + 3.0 * k * w * du)),
    )


def strengths(m: Moments, ratio: float):
    """(A, B) with P_S + P_D = 1 at (B/A)^2 = ratio."""
    A = 1.0 / math.sqrt(m.n_s + ratio * m.n_d)
    return A, math.sqrt(ratio) * A


def asymptotic(b1: float, b2: float, alpha: float, A: float, B: float):
    """(A_S, A_D), the coefficients of the outer-region tails."""
    a_s = A * spherical_in(0, alpha * b1) * spherical_in(0, alpha * b2)
    a_d = B * spherical_in(1, alpha * b1) * spherical_in(1, alpha * b2)
    return float(a_s), float(a_d)


def observables(m: Moments, A: float, B: float) -> dict:
    """P_S, P_D, A_S, A_D, eta, r_rms and Q at strengths (A, B)."""
    a_s, a_d = asymptotic(m.b1, m.b2, m.alpha, A, B)
    return {
        "P_S": A * A * m.n_s,
        "P_D": B * B * m.n_d,
        "A_S": a_s,
        "A_D": a_d,
        "eta": a_d / a_s,
        "r_rms": 0.5 * math.sqrt(A * A * m.r_s + B * B * m.r_d),
        "Q": -(ROOT8 * A * B * m.x + B * B * m.r_d) / 20.0,
    }


def coordinate(r: float, b1: float, b2: float, alpha: float, A: float, B: float,
               *, k_max: float = TRANSFORM_K_MAX):
    """(u(r), w(r)) by direct Bessel transform, r > 0.

    Panels span half a period pi/(r + b1 + b2) of the integrand's
    fastest oscillation.
    """
    width = math.pi / (r + b1 + b2)
    n = math.ceil(k_max / width)
    k, wts = _panel_rule(width * np.arange(n + 1))
    _, _, u, w = momentum_rows(k, b1, b2, alpha, 1.0, 1.0)
    k2 = k * k
    pre = SQRT_2_OVER_PI * r
    u_r = pre * A * float(wts @ (k2 * u * spherical_jn(0, k * r)))
    w_r = pre * B * float(wts @ (k2 * w * spherical_jn(2, k * r)))
    return u_r, w_r


def momentum_rows(k, b1: float, b2: float, alpha: float, A: float, B: float):
    """(g_C, g_T, u(k), w(k)) on an array of k."""
    k = np.asarray(k, dtype=float)
    g_c = spherical_jn(0, b1 * k) * spherical_jn(0, b2 * k)
    g_t = spherical_jn(1, b1 * k) * spherical_jn(1, b2 * k)
    prop = SQRT_2_OVER_PI / (k * k + alpha * alpha)
    return g_c, g_t, A * g_c * prop, B * g_t * prop


def outer_tail(r, alpha: float, a_s: float, a_d: float):
    """u, w in the outer region: A_S e^(-ar) and A_D e^(-ar)(1 + 3/(ar) + 3/(ar)^2)."""
    x = alpha * np.asarray(r, dtype=float)
    e = np.exp(-x)
    return a_s * e, a_d * e * (1.0 + 3.0 / x + 3.0 / (x * x))


def region(r: float, b1: float, b2: float) -> str:
    """Region label of r; ranges closer than 1e-9 fm count as equal."""
    lo, hi = min(b1, b2), max(b1, b2)
    if hi - lo >= 1e-9 and r <= hi - lo:
        return "inner"
    return "middle" if r <= lo + hi else "outer"


def q_bound(r_rms: float) -> float:
    """Largest |Q| any (u, w) with this r_rms can give: 0.4 r_rms^2.

    From sqrt(8)|u w| + w^2 <= 2 (u^2 + w^2) under the r^2 moments.
    """
    return 0.4 * r_rms * r_rms

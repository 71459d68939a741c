"""Fit of (b, ratio) to a target (r_rms, Q) pair, as the roots of one
pole-free function of b.

Equal ranges are assumed.  Every observable is a quadratic form in the
strengths over the unit-strength moments of one range b (see
`observables._Moments`).  With t = B/A, the r_rms target fixes the ratio

    t^2 = num / den,  num = 4 r*^2 N_S - R_S,  den = R_D - 4 r*^2 N_D,

and the Q target is the quadratic a t^2 - beta t + c = 0, with
a = R_D + 20 Q* N_D, beta = sqrt(8) X and c = 20 Q* N_S.  Eliminating t,
both targets hold exactly where

    F(b) = 8 num den X^2 - (num R_D + 20 Q* (N_S den + num N_D))^2 = 0

(X > 0).  F has no pole where den = 0.  It is homogeneous of degree two
in the S moments and in the D moments, so it is divided by (N_S N_D)^2:
that leaves its roots, and leaves a function of the channels' mean squared
radii that a polynomial of low degree resolves.  Undivided, F falls by
decades across the window at alpha = 1, and the last of 20 Chebyshev
coefficients reach 1e-4 of the largest instead of 1e-9.

F is sampled at `_NODES` Chebyshev points on b/r* in [0.1, 2], whose
moment records are one batched pass (`observables._moments` on all the
nodes' ranges, a few records per radial quadrature), and the
roots of its interpolant are the eigenvalues of the colleague matrix
(`numpy.polynomial.chebyshev.chebroots`).  Real roots, and near-real
complex pairs (two roots about to merge where the targets stop being
feasible), are taken in order of the interpolated num/den and polished by
secant steps on F, the first from the interpolant's slope.  At each point
the ratio is t^2, with t the root of the Q quadratic nearer sqrt(num/den):
the small root 2c / (beta + sqrt(disc)) where Q* -> 0 makes num/den
ill-conditioned, the large root (beta + sqrt(disc)) / (2a) for roots of
large ratio.  The first polished root whose residual norm is at most
`TOLERANCE` is returned, so the root returned is the one with the
smallest ratio.

`iterations` counts moment records, batched or not, at most
`MAX_EVALUATIONS`; the node count and the tolerance are fixed, like the
panel order of the moments.  No start is needed: `initial` is accepted
and ignored, and the CLI has no start flags (`--start-b`,
`--start-ratio`).  When no polished root meets `TOLERANCE`, one more
record is taken where the interpolant's |F| is least in the window (a
real root of F', or an end): just past a near-tangent edge, where the two
roots have merged and left the real axis, that point still meets the
targets.  With no root, converged = False is returned at the evaluated
point of smallest residual norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev

from .observables import _moments, solve_normalisation

#: Chebyshev nodes on b/r* in [0.1, 2].  At 20 the last two coefficients
#: of F's interpolant are at most 1.3e-9 of its largest over 559 feasible
#: targets (16: 4.7e-8, 24: 3.7e-11), and each of those targets, and of
#: 3000 more with alpha in [0.05, 3], is met at a ratio no larger than the
#: one it was made from; at 16 nodes one of them is not.
_NODES = 20
#: residual norm a root must reach
TOLERANCE = 1e-6
#: moment records a fit may take: the nodes, then polishing
MAX_EVALUATIONS = _NODES + 60


@dataclass(frozen=True)
class FitTargets:
    """Target rms radius (fm) and quadrupole moment (fm^2)."""

    r_rms: float
    Q: float

    def __post_init__(self):
        problems = []
        if not (math.isfinite(self.r_rms) and self.r_rms > 0):
            problems.append(f"r_rms must be finite and > 0, got {self.r_rms!r}")
        if not (math.isfinite(self.Q) and self.Q >= 0):
            problems.append(f"Q must be finite and >= 0, got {self.Q!r}")
        if problems:
            raise ValueError("invalid targets: " + "; ".join(problems))
        object.__setattr__(self, "r_rms", float(self.r_rms))
        object.__setattr__(self, "Q", float(self.Q))


@dataclass(frozen=True)
class FitResult:
    b: float
    ratio: float
    A: float
    B: float
    residual_norm: float
    iterations: int
    converged: bool


def fit_parameters(targets: FitTargets, alpha: float, initial=(1.2, 2.0)) -> FitResult:
    """Solve r_rms(b, ratio) = target, Q(b, ratio) = target.

    Returns the root with the smallest ratio; `initial` is ignored.
    """
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and > 0, got {alpha!r}")
    r_target, q_target = targets.r_rms, targets.Q
    r2 = 4.0 * r_target * r_target
    q20 = 20.0 * q_target
    q_scale = q_target if q_target > 0 else 1.0
    records: list[tuple] = []  # (residual norm, b, ratio), one per moment record

    def F(b: float, m):
        """F / (N_S N_D)^2, num and den at b from its moment record m; records the point."""
        num = r2 * m.N_S - m.R_S
        den = m.R_D - r2 * m.N_D
        g = num * m.R_D + q20 * (m.N_S * den + num * m.N_D)
        a, beta, c = m.R_D + q20 * m.N_D, math.sqrt(8.0) * m.X, q20 * m.N_S
        sqrt_disc = math.sqrt(max(beta * beta - 4.0 * a * c, 0.0))
        rho = num / den if den else math.inf
        # the root nearer sqrt(rho): the small one below the two roots' mean
        small = rho * 4.0 * a * a < beta * beta
        t = 2.0 * c / (beta + sqrt_disc) if small else (beta + sqrt_disc) / (2.0 * a)
        A, B = m.strengths(t * t)
        records.append((math.hypot((m.r_rms(A, B) - r_target) / r_target,
                                   (m.Q(A, B) - q_target) / q_scale), b, t * t))
        return (8.0 * num * den * m.X * m.X - g * g) / (m.N_S * m.N_D) ** 2, num, den

    def F_at(b: float) -> float:
        return F(b, _moments(b, b, alpha))[0]

    def F_nodes(xs):
        # the nodes' records come from batched moment evaluations
        bs = b_of(xs).tolist()
        return np.array([F(b, m) for b, m in zip(bs, _moments(bs, bs, alpha))])

    def b_of(x):
        return r_target * (1.05 + 0.95 * x)

    coef = chebyshev.chebinterpolate(F_nodes, _NODES - 1)
    f = coef[:, 0]
    # an error of relative size `tail` moves a double root by about its
    # square root, so a pair that close to the axis may be two real roots
    tail = np.abs(f[-2:]).max() / np.abs(f).max()
    z = chebyshev.chebroots(f)
    x = np.unique(z.real[(np.abs(z.real) <= 1.0) & (np.abs(z.imag) <= math.sqrt(tail))])
    rho = chebyshev.chebval(x, coef[:, 1]) / chebyshev.chebval(x, coef[:, 2])
    slope = (chebyshev.chebval(x, chebyshev.chebder(f)) / (0.95 * r_target)).tolist()

    lo, hi = b_of(-1.0), b_of(1.0)
    root = None
    for i in np.argsort(rho):
        if len(records) >= MAX_EVALUATIONS:
            break
        start = len(records)
        b0 = float(b_of(x[i]))
        f0 = F_at(b0)
        b1, step = b0 - f0 / slope[i], math.inf
        while len(records) < MAX_EVALUATIONS and lo <= b1 <= hi and 0 < abs(b1 - b0) < step:
            step = abs(b1 - b0)
            f1 = F_at(b1)
            if f1 == f0:
                break
            b0, f0, b1 = b1, f1, b1 - f1 * (b1 - b0) / (f1 - f0)
        best = min(records[start:])
        if best[0] <= TOLERANCE:
            root = best
            break

    if root is None and len(records) < MAX_EVALUATIONS:
        # past a near-tangent edge the two roots leave the real axis: the
        # best point is then where |F| is least, a real root of F' or an
        # end of the window
        z = chebyshev.chebroots(chebyshev.chebder(f))
        x = np.append(z.real[(z.imag == 0) & (np.abs(z.real) <= 1.0)], (-1.0, 1.0))
        F_at(float(b_of(x[np.argmin(np.abs(chebyshev.chebval(x, f)))])))
    norm, b, ratio = root or min(records)
    A, B = solve_normalisation(b, alpha, ratio)
    return FitResult(b=b, ratio=ratio, A=A, B=B, residual_norm=norm,
                     iterations=len(records), converged=norm <= TOLERANCE)

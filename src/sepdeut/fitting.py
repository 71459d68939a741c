"""Fit of (b, ratio) to a target (r_rms, Q) pair, as a 1-D root in b.

Equal ranges are assumed.  Every observable is a quadratic form in the
strengths over the unit-strength moments of one range b (see
`observables._Moments`), so the r_rms target fixes the ratio (B/A)^2,

    rho(b) = (4 r*^2 N_S - R_S) / (R_D - 4 r*^2 N_D),

and what is left is h(b) = Q(b, rho(b)) - Q* = 0.  Where rho < 0, h =
rho - Q*: both forms are -Q* at rho = 0, so h is continuous there.  Where
the denominator vanishes rho jumps from +inf to -inf, but h is negative on
both sides (Q -> -R_D / (20 N_D) < 0 <= Q*), so a pole is never a root.

h is scanned at b/r* = 0.1, 0.2, ..., 2.  A cell is a candidate if h, or
the numerator or denominator of rho, changes sign across it; the latter
marks an edge of a window rho >= 0, which may be narrower than the cell.
Candidates are taken in order of the smallest ratio at their ends (0 for a
cell holding the rho = 0 edge) and dropped once that reaches the best root,
so the root returned is the one with the smallest ratio.  A sign change of
h is refined by safeguarded secant steps; an edge cell without one is
bisected, at most `_EDGE_DEPTH` times.

A root is a point whose residual norm is at most `TOLERANCE`, and
`iterations` counts moment evaluations, at most `MAX_EVALUATIONS`; both
are fixed, like the panel order of the moments.  No start is needed:
`initial` is accepted and ignored, and the CLI has no start flags
(`--start-b`, `--start-ratio`).  With no root, converged = False is
returned at the evaluated point of smallest residual norm (ratio clipped
at 0): the scan bracketed none.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .observables import _moments, solve_normalisation

#: scanned ranges, in units of the target radius
_SCAN = tuple(0.1 * i for i in range(1, 21))
#: bisections of an edge cell that shows no sign change of h
_EDGE_DEPTH = 3
#: residual norm a root must reach
TOLERANCE = 1e-6
#: moment evaluations a fit may make: the scan, then 60 for edge
#: bisections and root refinement together
MAX_EVALUATIONS = len(_SCAN) + 60
# refinement stops once the residual norm is this far below TOLERANCE
_REFINE_MARGIN = 1e-4


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


@dataclass(frozen=True)
class _Point:
    """One moment evaluation: rho's numerator and denominator, h, and the
    residual norm at the ratio max(rho, 0)."""

    b: float
    num: float
    den: float
    rho: float
    h: float
    norm: float

    @property
    def ratio(self) -> float:
        return max(self.rho, 0.0)


def _changes(p: _Point, q: _Point, field: str) -> bool:
    return (getattr(p, field) < 0) != (getattr(q, field) < 0)


def fit_parameters(targets: FitTargets, alpha: float, initial=(1.2, 2.0)) -> FitResult:
    """Solve r_rms(b, ratio) = target, Q(b, ratio) = target.

    Returns the root with the smallest ratio; `initial` is ignored.
    """
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and > 0, got {alpha!r}")
    r_target, q_target = targets.r_rms, targets.Q
    r2 = 4.0 * r_target * r_target
    q_scale = q_target if q_target > 0 else 1.0
    evaluated: list[_Point] = []

    def point(b: float) -> _Point:
        m = _moments(b, b, alpha)
        num = r2 * m.N_S - m.R_S
        den = m.R_D - r2 * m.N_D
        rho = num / den if den != 0 else -math.inf
        A, B = m.strengths(max(rho, 0.0))
        q = m.Q(A, B)
        h = q - q_target if rho >= 0 else rho - q_target
        norm = math.hypot((m.r_rms(A, B) - r_target) / r_target, (q - q_target) / q_scale)
        p = _Point(b, num, den, rho, h, norm)
        evaluated.append(p)
        return p

    def refine(lo: _Point, hi: _Point) -> _Point:
        """Shrink a bracket of h by secant steps through the two latest
        points, bisecting whenever a step leaves the bracket half next to
        the best point or fails to halve the step before last.  Returns
        the point of smallest residual norm seen."""
        best = min(lo, hi, key=lambda p: p.norm)
        prev, cur, other = lo, hi, lo  # h(cur) and h(other) differ in sign
        step = before = math.inf
        while best.norm > _REFINE_MARGIN * TOLERANCE and len(evaluated) < MAX_EVALUATIONS:
            if not _changes(cur, other, "h"):
                other = prev
            if abs(other.h) < abs(cur.h):
                prev, cur, other = cur, other, cur
            half = 0.5 * (other.b - cur.b)
            b = cur.b + half
            if cur.h != prev.h:
                secant = cur.b - cur.h * (cur.b - prev.b) / (cur.h - prev.h)
                if 0 < (secant - cur.b) / half < 1 and abs(secant - cur.b) <= 0.5 * before:
                    b = secant
            if b in (cur.b, other.b):
                break
            before, step = step, abs(b - cur.b)
            prev, cur = cur, point(b)
            best = min(best, cur, key=lambda p: p.norm)
        return best

    candidates: list = []

    def consider(p: _Point, q: _Point, depth: int):
        edge = _changes(p, q, "num") or _changes(p, q, "den")
        if not (edge or _changes(p, q, "h")):
            return
        lowest = 0.0 if _changes(p, q, "num") else min(x.ratio for x in (p, q) if x.rho >= 0)
        heapq.heappush(candidates, (lowest, p.b, depth, p, q))

    scan = [point(t * r_target) for t in _SCAN]
    for p, q in zip(scan, scan[1:]):
        consider(p, q, 0)

    root = None
    while candidates and len(evaluated) < MAX_EVALUATIONS:
        lowest, _, depth, p, q = heapq.heappop(candidates)
        if root is not None and lowest >= root.ratio:
            break
        if _changes(p, q, "h"):
            found = refine(p, q)
            if found.norm <= TOLERANCE and (root is None or found.ratio < root.ratio):
                root = found
        elif depth < _EDGE_DEPTH:
            mid = point(0.5 * (p.b + q.b))
            consider(p, mid, depth + 1)
            consider(mid, q, depth + 1)

    best = root if root is not None else min(evaluated, key=lambda p: p.norm)
    A, B = solve_normalisation(best.b, alpha, best.ratio)
    return FitResult(b=best.b, ratio=best.ratio, A=A, B=B, residual_norm=best.norm,
                     iterations=len(evaluated), converged=best.norm <= TOLERANCE)

"""Channel probabilities, asymptotic normalisations, r_rms, Q, and reports.

For equal ranges the probability integrals have closed forms: each is a
prefactor times a bracket in x = alpha*b mixing a polynomial with
exp(-2x) and exp(-4x) terms.  The brackets vanish like x^4 (S) and x^9
(D) while their individual terms stay O(1), so below their cuts, 0.3 and
1.5, they are summed from their Taylor series instead.  Each bracket is
one `specfun._ExpPoly` table, whose series the package's one series
generator expands from the same pieces as the closed form, in exact
rationals and with the leading-term cancellation asserted.

Unequal ranges take the quadrature path over the momentum-space
wavefunctions (smooth, k^-6 decay).  Each path is one function returning
(P_S, P_D): `probabilities_closed`, `probabilities_numeric` and its
Parseval partner over the coordinate-space branches,
`probabilities_coordinate`; a quadrature path integrates both channels
in one call.

The rms radius and quadrupole moment come from three radial moments of
the coordinate-space branches at unit strengths, integrated together;
with the two norm integrals they form one moment record, over which
every observable is a quadratic form in the strengths (A, B).  `report`
is their one entry point.  Every quadrature runs at the package's one
panel order, `quadrature.PANEL_ORDER`.

The r-space panels, `radial_scheme`, live here with the integrands that
rely on their layout: one panel per region below the outer boundary, so
`_radial_integrals` calls each region's `wf_coordinate.branch` once, on
that region's nodes, with no region masks.

Records at many ranges, such as the fit's Chebyshev nodes, are batched:
`_moments` takes sequences of ranges and integrates the radial moments of
`_BLOCK` records per `_rms_core` call, from one `branch` call per region
and one integral over all their panels.  Each record is the double of
its one-record call, which is the one-row case of the same code.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, Region
from .quadrature import PANEL_ORDER, QuadratureScheme, integrate_panels, momentum_scheme
from .specfun import _ExpPoly
from .wf_coordinate import _outer_coefficients, branch
from .wf_momentum import uw_momentum

_NORMALISATION_WARN_TOL = 1e-3

#: moment records per batched `_rms_core` call.  At three, the largest
#: array of a batch, its three stacked integrands (3 x 3 x 1640 doubles,
#: 118 KB), stays below glibc's default 128 KiB mmap threshold.  Measured
#: on Linux, larger batches fault in fresh pages, 650-840 minor faults per
#: fit at five or more records (about 2 at three), and run slower per record.
_BLOCK = 3


# The equal-range brackets in x = alpha*b.  Below their cuts the closed
# forms lose digits to cancellation and the series takes over.  D's closed
# form cancels x^9 out of terms of about 300, so its cut lies at 1.5: its
# value stays within 6e-15 and its slope within 2e-14 of 60-digit arithmetic.
# S: 8x - 9 + 4*(2x+3)*exp(-2x) - (4x+3)*exp(-4x) = x^4 * sum_m c_m x^m
_P_S = _ExpPoly(((1, (-9, 8), 0), (4, (3, 2), -2), (-1, (3, 4), -4)), 0, 4, 23, cut=0.3)

# D: 56x^5 - 135x^4 - 80x^3 + 450x^2 - 315
#    - 60*(x+1)^2*(2x^3+3x^2-7)*exp(-2x)
#    - 15*(x+1)^3*(4x^2+7x+7)*exp(-4x)   = x^9 * sum_m c_m x^m
_P_D = _ExpPoly(
    (
        (1, (-315, 0, 450, -80, -135, 56), 0),
        (-60, (-7, -14, -4, 8, 7, 2), -2),
        (-15, (7, 28, 46, 40, 19, 4), -4),
    ),
    0, 9, 36, cut=1.5,
)


def probabilities_closed(params: ModelParams):
    """(P_S, P_D), closed forms; equal ranges only."""
    if not params.equal_range:
        raise ValueError("probabilities_closed has a closed form only for equal ranges (b1 == b2)")
    al, b = params.alpha, params.b1
    return (
        params.A**2 / (16.0 * al**5 * b**4) * _P_S(al * b),
        params.B**2 / (240.0 * al**9 * b**8) * _P_D(al * b),
    )


def probabilities_numeric(params: ModelParams):
    """(P_S, P_D) over k^2 u(k)^2 and k^2 w(k)^2; any ranges."""

    def f(k):
        return k * k * uw_momentum(k, params) ** 2

    return tuple(integrate_panels(f, momentum_scheme(params)).tolist())


def probabilities_coordinate(params: ModelParams):
    """(P_S, P_D) over u(r)^2 and w(r)^2 (Parseval partner of the k form)."""
    return tuple(_radial_integrals(params, lambda r, u, w: np.square((u, w))).tolist())


def radial_scheme(params) -> QuadratureScheme:
    """Panels for semi-infinite r-space observable integrals.

    Breakpoints at the region boundaries (piecewise-analytic integrands),
    so each region below b1 + b2 is one panel, then one decay length 1/alpha per panel out to 40 decay lengths past
    the outer boundary, where the exp(-2*alpha*r) envelope puts the
    dropped tail far below every tolerance used here.  A sequence of
    parameter records, all equal or all unequal ranges, gives the batched
    scheme of their integrals.
    """
    if isinstance(params, ModelParams):
        return QuadratureScheme(PANEL_ORDER, _radial_breakpoints(params))
    return QuadratureScheme(PANEL_ORDER, tuple(zip(*map(_radial_breakpoints, params), strict=True)))


def _radial_breakpoints(params: ModelParams) -> tuple:
    outer = params.range_sum
    width = 1.0 / params.alpha
    inner = () if params.equal_range else (params.delta,)
    return (0.0, *inner, outer, *(outer + i * width for i in range(1, 41)))


def _radial_integrals(params, rows):
    """Integrals of the stack rows(r, u, w) over `radial_scheme(params)`,
    from one `branch` call per region on that region's panels."""
    first = params if isinstance(params, ModelParams) else params[0]
    regions = (Region.MIDDLE, Region.OUTER) if first.equal_range else tuple(Region)
    cuts = PANEL_ORDER * np.arange(1, len(regions))  # node index where each region after the first starts

    def f(r):
        parts = np.split(r, cuts, axis=-1)
        u, w = np.concatenate([branch(region, part, params) for region, part in zip(regions, parts)], axis=-1)
        return rows(r, u, w)

    return integrate_panels(f, radial_scheme(params))


def _probabilities(params: ModelParams):
    """(P_S, P_D, path) for the current A, B; closed path when available."""
    if params.equal_range:
        return (*probabilities_closed(params), "closed")
    return (*probabilities_numeric(params), "numeric")


def _strengths(N_S: float, N_D: float, ratio: float):
    """A, B with A^2 N_S + B^2 N_D = 1 and (B/A)^2 = ratio >= 0."""
    denom = N_S + ratio * N_D
    if not (math.isfinite(denom) and denom > 0):
        raise ValueError(f"degenerate normalisation: pS + ratio*pD = {denom!r}")
    A = 1.0 / math.sqrt(denom)
    return A, math.sqrt(ratio) * A


def solve_normalisation(
    b1: float,
    alpha: float,
    ratio: float,
    b2: float | None = None,
):
    """A, B making P_S + P_D = 1 at a prescribed ratio = (B/A)^2.

    The norm is quadratic in the strengths, so with the unit-strength
    channel integrals N_S, N_D of the moment record the solution is
    A = 1/sqrt(N_S + ratio*N_D).  Only those two moments are computed.
    """
    if not ratio >= 0:
        raise ValueError(f"ratio must be >= 0, got {ratio!r}")
    unit = ModelParams(b1=b1, b2=b1 if b2 is None else b2, alpha=alpha, A=1.0, B=1.0)
    N_S, N_D, _ = _probabilities(unit)
    return _strengths(N_S, N_D, ratio)


def _rms_core(units) -> np.ndarray:
    """Radial moments (R_S, R_D, X) = integrals of r^2 (u^2, w^2, u w).

    `units` is a record with A = B = 1, or a sequence of m such records,
    all equal or all unequal ranges: one integral then serves them all,
    and the moments come as shape (3, m), each column the doubles of its
    record's own call.
    """

    def rows(r, u, w):
        out = np.empty((3,) + r.shape)  # r^2 u u, r^2 w w, r^2 u w, with no temporaries
        r2 = np.multiply(r, r, out=out[1])
        np.multiply(r2, u, out=out[0])
        np.multiply(out[0], w, out=out[2])
        out[0] *= u
        r2 *= w
        r2 *= w
        return out

    return _radial_integrals(units, rows)


@dataclass(frozen=True)
class _Moments:
    """Unit-strength (A = B = 1) moments at one (b1, b2, alpha).

    u is proportional to A and w to B, so every observable is a quadratic
    form in the strengths over these five numbers:

        P_S = A^2 N_S,  P_D = B^2 N_D,
        r_rms = sqrt(A^2 R_S + B^2 R_D) / 2,
        Q = (sqrt(8) A B X - B^2 R_D) / 20.
    """

    N_S: float
    N_D: float
    R_S: float
    R_D: float
    X: float
    path: str

    def strengths(self, ratio: float):
        return _strengths(self.N_S, self.N_D, ratio)

    def r_rms(self, A: float, B: float) -> float:
        return 0.5 * math.sqrt(A * A * self.R_S + B * B * self.R_D)

    def Q(self, A: float, B: float) -> float:
        return (math.sqrt(8.0) * A * B * self.X - B * B * self.R_D) / 20.0


def _moments(b1, b2, alpha: float):
    """The moment record at (b1, b2, alpha).

    With b1 and b2 equal-length sequences, the list of their records: the
    radial moments come from one `_rms_core` call per `_BLOCK` records,
    and a single record is the one-row case of the same code.
    """
    batch = np.ndim(b1) > 0
    units = [ModelParams(b1=x, b2=y, alpha=alpha, A=1.0, B=1.0)
             for x, y in (zip(b1, b2, strict=True) if batch else [(b1, b2)])]
    if batch:
        radial = np.hstack([_rms_core(units[i:i + _BLOCK]) for i in range(0, len(units), _BLOCK)]).T.tolist()
    else:
        radial = [_rms_core(units[0]).tolist()]
    records = []
    for unit, (R_S, R_D, X) in zip(units, radial):
        N_S, N_D, path = _probabilities(unit)
        records.append(_Moments(N_S, N_D, R_S, R_D, X, path))
    return records if batch else records[0]


def asymptotic_normalisations(params: ModelParams):
    """(A_S, A_D): coefficients of exp(-alpha*r) and its D-type tail.

    These are the outer branch's coefficients: u -> A_S e^(-ar),
    w -> A_D e^(-ar) (1 + 3/(ar) + 3/(ar)^2).
    """
    return _outer_coefficients(params, 0)


def ds_ratio(params: ModelParams) -> float:
    """eta = A_D / A_S; 0 for a pure S state, error if only A_S vanishes."""
    return _eta(*asymptotic_normalisations(params))


def _eta(A_S: float, A_D: float) -> float:
    if A_S == 0.0:
        if A_D == 0.0:
            return 0.0
        raise ValueError("D/S ratio undefined: A_S = 0 with A_D != 0")
    return A_D / A_S


@dataclass(frozen=True)
class ObservablesReport:
    """Bound-state observable set for one parameter point."""

    P_S: float
    P_D: float
    A_S: float
    A_D: float
    eta: float
    r_rms: float
    Q: float
    probability_path: str

    def to_dict(self) -> dict:
        return {
            "P_S": self.P_S,
            "P_D": self.P_D,
            "A_S_per_sqrt_fm": self.A_S,
            "A_D_per_sqrt_fm": self.A_D,
            "eta": self.eta,
            "r_rms_fm": self.r_rms,
            "Q_fm2": self.Q,
            "probability_path": self.probability_path,
        }


def report(params: ModelParams) -> ObservablesReport:
    """All observables at once; r_rms and Q assume a unit norm, and a
    UserWarning says so once when A, B miss it."""
    m = _moments(params.b1, params.b2, params.alpha)
    A, B = params.A, params.B
    total = A**2 * m.N_S + B**2 * m.N_D
    if abs(total - 1.0) > _NORMALISATION_WARN_TOL:
        warnings.warn(
            f"wavefunction is not normalised: P_S + P_D = {total:.6f}; "
            f"r_rms and Q assume a unit norm",
            UserWarning,
            stacklevel=2,
        )
    A_S, A_D = asymptotic_normalisations(params)
    return ObservablesReport(
        P_S=A * A * m.N_S,
        P_D=B * B * m.N_D,
        A_S=A_S,
        A_D=A_D,
        eta=_eta(A_S, A_D),
        r_rms=m.r_rms(A, B),
        Q=m.Q(A, B),
        probability_path=m.path,
    )

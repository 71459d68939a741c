"""Channel probabilities, asymptotic normalisations, r_rms, Q, and reports.

For equal ranges the probability integrals have closed forms: each is a
prefactor times a bracket in x = alpha*b mixing a polynomial with
exp(-2x) and exp(-4x) terms.  The brackets vanish like x^4 (S) and x^9
(D) while their individual terms stay O(1), so below a switch point they
are summed from their Taylor series instead.  The series coefficients
come from the package's one series generator, `specfun._exact_series`,
which expands the same exp-polynomial pieces as the closed forms in
exact rationals and asserts the leading-term cancellation, guarding
both against transcription slips.

Unequal ranges take the quadrature path over the momentum-space
wavefunctions (smooth, k^-6 decay).  The rms radius and quadrupole moment
come from three radial moments of the coordinate-space branches at unit
strengths, integrated together; with the two norm integrals they form
one moment record, over which every observable is a quadratic form in
the strengths (A, B).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import ModelParams
from .quadrature import integrate_panels, momentum_scheme, radial_scheme
from .specfun import _horner, _series_table, mod_sph_bessel_i
from .wf_coordinate import u_coordinate, w_coordinate
from .wf_momentum import u_momentum, w_momentum

# Below these values of x = alpha*b the closed brackets lose more than
# half their digits to cancellation and the series takes over.  Measured
# crossover: at the cut the two paths agree to ~1e-12 relative.
_PS_SERIES_CUT = 0.3
_PD_SERIES_CUT = 0.45

_NORMALISATION_WARN_TOL = 1e-3


# S bracket: 8x - 9 + 4*(2x+3)*exp(-2x) - (4x+3)*exp(-4x), polynomials ascending
_PS_PIECES = ((1, (-9, 8), 0), (4, (3, 2), -2), (-1, (3, 4), -4))
_PS_SERIES = _series_table(_PS_PIECES, 4, 23)

# D bracket: 56x^5 - 135x^4 - 80x^3 + 450x^2 - 315
#            - 60*(x+1)^2*(2x^3+3x^2-7)*exp(-2x)
#            - 15*(x+1)^3*(4x^2+7x+7)*exp(-4x)
_PD_PIECES = (
    (1, (-315, 0, 450, -80, -135, 56), 0),
    (-60, (-7, -14, -4, 8, 7, 2), -2),
    (-15, (7, 28, 46, 40, 19, 4), -4),
)
_PD_SERIES = _series_table(_PD_PIECES, 9, 22)


def _pS_bracket(x: float) -> float:
    if x < _PS_SERIES_CUT:
        return x**4 * _horner(_PS_SERIES, x)
    e2 = math.exp(-2.0 * x)
    e4 = math.exp(-4.0 * x)
    return math.fsum([8.0 * x, -9.0, 8.0 * x * e2, 12.0 * e2, -4.0 * x * e4, -3.0 * e4])


def _pD_bracket(x: float) -> float:
    if x < _PD_SERIES_CUT:
        return x**9 * _horner(_PD_SERIES, x)
    e2 = math.exp(-2.0 * x)
    e4 = math.exp(-4.0 * x)
    p2 = ((((2.0 * x + 7.0) * x + 8.0) * x - 4.0) * x - 14.0) * x - 7.0
    p3 = ((((4.0 * x + 19.0) * x + 40.0) * x + 46.0) * x + 28.0) * x + 7.0
    return math.fsum(
        [
            56.0 * x**5,
            -135.0 * x**4,
            -80.0 * x**3,
            450.0 * x * x,
            -315.0,
            -60.0 * p2 * e2,
            -15.0 * p3 * e4,
        ]
    )


def _require_equal_range(params: ModelParams, what: str):
    if not params.equal_range:
        raise ValueError(f"{what} has a closed form only for equal ranges (b1 == b2)")


def prob_S_closed(params: ModelParams) -> float:
    """S-channel norm integral, closed form; equal ranges only."""
    _require_equal_range(params, "prob_S_closed")
    al, b = params.alpha, params.b1
    return params.A**2 / (16.0 * al**5 * b**4) * _pS_bracket(al * b)


def prob_D_closed(params: ModelParams) -> float:
    """D-channel norm integral, closed form; equal ranges only."""
    _require_equal_range(params, "prob_D_closed")
    al, b = params.alpha, params.b1
    return params.B**2 / (240.0 * al**9 * b**8) * _pD_bracket(al * b)


def prob_S_numeric(params: ModelParams, *, panel_order: int = 40) -> float:
    """S-channel norm integral over k^2 u(k)^2; any ranges."""
    scheme = momentum_scheme(params, panel_order=panel_order)
    return integrate_panels(lambda k: k * k * u_momentum(k, params) ** 2, scheme)


def prob_D_numeric(params: ModelParams, *, panel_order: int = 40) -> float:
    """D-channel norm integral over k^2 w(k)^2; any ranges."""
    scheme = momentum_scheme(params, panel_order=panel_order)
    return integrate_panels(lambda k: k * k * w_momentum(k, params) ** 2, scheme)


def prob_S_coordinate(params: ModelParams, *, panel_order: int = 40) -> float:
    """S-channel norm integral over u(r)^2 (Parseval partner of the k form)."""
    scheme = radial_scheme(params, panel_order=panel_order)
    return integrate_panels(lambda r: u_coordinate(r, params) ** 2, scheme)


def prob_D_coordinate(params: ModelParams, *, panel_order: int = 40) -> float:
    """D-channel norm integral over w(r)^2 (Parseval partner of the k form)."""
    scheme = radial_scheme(params, panel_order=panel_order)
    return integrate_panels(lambda r: w_coordinate(r, params) ** 2, scheme)


def _probabilities(params: ModelParams, *, panel_order: int = 40):
    """(P_S, P_D, path) for the current A, B; closed path when available."""
    if params.equal_range:
        return prob_S_closed(params), prob_D_closed(params), "closed"
    return (
        prob_S_numeric(params, panel_order=panel_order),
        prob_D_numeric(params, panel_order=panel_order),
        "numeric",
    )


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
    *,
    panel_order: int = 40,
):
    """A, B making P_S + P_D = 1 at a prescribed ratio = (B/A)^2.

    The norm is quadratic in the strengths, so with the unit-strength
    channel integrals N_S, N_D of the moment record the solution is
    A = 1/sqrt(N_S + ratio*N_D).  Only those two moments are computed.
    """
    if not ratio >= 0:
        raise ValueError(f"ratio must be >= 0, got {ratio!r}")
    unit = ModelParams(b1=b1, b2=b1 if b2 is None else b2, alpha=alpha, A=1.0, B=1.0)
    N_S, N_D, _ = _probabilities(unit, panel_order=panel_order)
    return _strengths(N_S, N_D, ratio)


def _rms_core(unit: ModelParams, panel_order: int) -> np.ndarray:
    """Radial moments (R_S, R_D, X) = integrals of r^2 (u^2, w^2, u w).

    `unit` carries A = B = 1.  One integrand call evaluates u and w once
    on every node and returns the three integrands stacked.
    """

    def f(r):
        u = u_coordinate(r, unit)
        w = w_coordinate(r, unit)
        r2 = r * r
        return np.stack([r2 * u * u, r2 * w * w, r2 * u * w])

    return integrate_panels(f, radial_scheme(unit, panel_order=panel_order))


@dataclass(frozen=True)
class _Moments:
    """Unit-strength (A = B = 1) moments at one (b1, b2, alpha, panel_order).

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


def _moments(b1: float, b2: float, alpha: float, panel_order: int) -> _Moments:
    unit = ModelParams(b1=b1, b2=b2, alpha=alpha, A=1.0, B=1.0)
    N_S, N_D, path = _probabilities(unit, panel_order=panel_order)
    R_S, R_D, X = _rms_core(unit, panel_order)
    return _Moments(N_S, N_D, float(R_S), float(R_D), float(X), path)


def asymptotic_normalisations(params: ModelParams):
    """(A_S, A_D): coefficients of exp(-alpha*r) and its D-type tail.

    These are exactly the outer-branch coefficients: u -> A_S e^(-ar),
    w -> A_D e^(-ar) (1 + 3/(ar) + 3/(ar)^2).
    """
    al = params.alpha
    A_S = params.A * mod_sph_bessel_i(0, al * params.b1) * mod_sph_bessel_i(0, al * params.b2)
    A_D = params.B * mod_sph_bessel_i(1, al * params.b1) * mod_sph_bessel_i(1, al * params.b2)
    return A_S, A_D


def ds_ratio(params: ModelParams) -> float:
    """eta = A_D / A_S; 0 for a pure S state, error if only A_S vanishes."""
    A_S, A_D = asymptotic_normalisations(params)
    if A_S == 0.0:
        if A_D == 0.0:
            return 0.0
        raise ValueError("D/S ratio undefined: A_S = 0 with A_D != 0")
    return A_D / A_S


def _normalised_moments(params: ModelParams, panel_order: int) -> _Moments:
    """The moment record at params' ranges, warning if A, B miss a unit norm."""
    m = _moments(params.b1, params.b2, params.alpha, panel_order)
    total = params.A**2 * m.N_S + params.B**2 * m.N_D
    if abs(total - 1.0) > _NORMALISATION_WARN_TOL:
        warnings.warn(
            f"wavefunction is not normalised: P_S + P_D = {total:.6f}; "
            f"r_rms and Q assume a unit norm",
            UserWarning,
            stacklevel=3,
        )
    return m


def rms_radius(params: ModelParams, *, panel_order: int = 40) -> float:
    """Point-nucleon rms half-separation (fm); assumes unit norm (warns if not)."""
    return _normalised_moments(params, panel_order).r_rms(params.A, params.B)


def quadrupole_moment(params: ModelParams, *, panel_order: int = 40) -> float:
    """Quadrupole moment (fm^2); assumes unit norm (warns if not)."""
    return _normalised_moments(params, panel_order).Q(params.A, params.B)


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


def report(params: ModelParams, *, panel_order: int = 40) -> ObservablesReport:
    """All observables at once, warning once if the norm is off."""
    m = _normalised_moments(params, panel_order)
    A, B = params.A, params.B
    A_S, A_D = asymptotic_normalisations(params)
    return ObservablesReport(
        P_S=A * A * m.N_S,
        P_D=B * B * m.N_D,
        A_S=A_S,
        A_D=A_D,
        eta=ds_ratio(params),
        r_rms=m.r_rms(A, B),
        Q=m.Q(A, B),
        probability_path=m.path,
    )

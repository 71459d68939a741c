"""Separable-potential model of the deuteron with spherical-Bessel form factors.

The package evaluates the S- and D-channel wavefunctions of a rank-one
separable nucleon-nucleon interaction in momentum and coordinate space,
checks the piecewise analytic coordinate-space branches against a direct
numerical Fourier-Bessel transform, and computes the standard bound-state
observables (channel probabilities, asymptotic normalisations, D/S ratio,
rms radius, quadrupole moment) together with a two-parameter fit of the
range and normalisation ratio to a target (r_rms, Q) pair.

Units are fm-based throughout with hbar = c = 1: lengths in fm, momenta
in fm^-1, wavefunction normalisations in fm^-1/2, Q in fm^2.
"""

from .model import EPS_REGION, ModelParams, Region, region_of
from .observables import (
    ObservablesReport,
    asymptotic_normalisations,
    ds_ratio,
    quadrupole_moment,
    report,
    rms_radius,
    solve_normalisation,
)
from .fitting import FitResult, FitTargets, fit_parameters

__version__ = "0.1.0"

__all__ = [
    "EPS_REGION",
    "FitResult",
    "FitTargets",
    "ModelParams",
    "ObservablesReport",
    "Region",
    "asymptotic_normalisations",
    "ds_ratio",
    "fit_parameters",
    "quadrupole_moment",
    "region_of",
    "report",
    "rms_radius",
    "solve_normalisation",
]

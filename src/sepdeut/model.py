"""Parameter records, region bookkeeping and JSON (de)serialisation.

Everything downstream assumes the canonical ordering b2 >= b1; the record
enforces it by swapping at construction, so callers may pass the ranges in
either order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Below this range difference (fm) the two ranges are treated as equal:
# the inner region collapses to an empty interval.
EPS_REGION = 1e-9


class Region(Enum):
    INNER = "inner"
    MIDDLE = "middle"
    OUTER = "outer"


@dataclass(frozen=True)
class ModelParams:
    """Physical inputs plus the two channel normalisation constants.

    Attributes
    ----------
    b1, b2 : float
        Range parameters in fm, stored with b2 >= b1 (swapped if needed).
    alpha : float
        Bound-state wavenumber in fm^-1.
    A, B : float
        S- and D-channel normalisations in fm^-1/2.
    """

    b1: float
    b2: float
    alpha: float
    A: float
    B: float

    def __post_init__(self):
        values = {name: float(getattr(self, name)) for name in ("b1", "b2", "alpha", "A", "B")}
        problems = []
        for name in ("b1", "b2", "alpha"):
            v = values[name]
            if not (math.isfinite(v) and v > 0):
                problems.append(f"{name} must be finite and > 0, got {v!r}")
        for name in ("A", "B"):
            v = values[name]
            if not (math.isfinite(v) and v >= 0):
                problems.append(f"{name} must be finite and >= 0, got {v!r}")
        if problems:
            raise ValueError("invalid parameters: " + "; ".join(problems))
        if values["b2"] < values["b1"]:
            values["b1"], values["b2"] = values["b2"], values["b1"]
        for name, v in values.items():
            object.__setattr__(self, name, v)

    @property
    def delta(self) -> float:
        """Inner boundary b2 - b1 (fm)."""
        return self.b2 - self.b1

    @property
    def range_sum(self) -> float:
        """Outer boundary b1 + b2 (fm)."""
        return self.b1 + self.b2

    @property
    def equal_range(self) -> bool:
        return self.delta < EPS_REGION

    def to_dict(self) -> dict:
        return {
            "b1_fm": self.b1,
            "b2_fm": self.b2,
            "alpha_inv_fm": self.alpha,
            "A": self.A,
            "B": self.B,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelParams":
        try:
            return cls(
                b1=d["b1_fm"],
                b2=d["b2_fm"],
                alpha=d["alpha_inv_fm"],
                A=d["A"],
                B=d["B"],
            )
        except KeyError as exc:
            raise ValueError(f"parameter dictionary is missing key {exc}") from None


def _edges(params: ModelParams):
    """Outer and inner region boundaries; no radius lies at or below the
    inner one, -inf, when the ranges are equal."""
    return params.range_sum, (-math.inf if params.equal_range else params.delta)


def _region_masks(r, params):
    """Boolean masks (inner, middle, outer) over radii r.

    Boundary points belong to the lower region by convention; the branch
    formulas agree there, so either choice would be consistent.  For equal
    ranges the inner interval is empty and small r falls in the middle.
    `params` may also be a sequence of records, one per entry of r's
    leading axis.
    """
    r = np.asarray(r, dtype=float)
    if isinstance(params, ModelParams):
        outer, inner = _edges(params)
    else:
        outer, inner = np.array([_edges(p) for p in params]).T.reshape((2, -1) + (1,) * (r.ndim - 1))
    lower = r <= outer
    inner = r <= inner
    return inner, lower & ~inner, ~lower


def region_of(r: float, params: ModelParams) -> Region:
    """Classify a radius into inner / middle / outer.

    Boundary points belong to the lower region; for equal ranges small r
    reports MIDDLE (see `_region_masks`, which also serves arrays).
    """
    if not (math.isfinite(r) and r >= 0):
        raise ValueError(f"r must be finite and >= 0, got {r!r}")
    return next(region for region, mask in zip(Region, _region_masks(r, params)) if mask)

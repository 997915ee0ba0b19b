"""SIR compartment model: state, parameters, and the controlled/uncontrolled dynamics.

The population is split into susceptible (S), infected (I) and recovered (R)
fractions with constant total n = S + I + R.  Three rate functions on plain
floats are provided:

* ``uncontrolled_rates``         dS = -beta*S*I,        dI = beta*S*I - mu*I
* ``vaccination_rates``          adds a vaccination rate u moving S directly to R
* ``treatment_education_rates``  adds treatment u1 (I -> R) and an educational
  campaign u2 (S -> R)

All three conserve S + I + R exactly (the R component is computed as the
balance of the other two, so the float sum of the derivative is exactly 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EpidemicState",
    "ModelParams",
    "uncontrolled_rates",
    "vaccination_rates",
    "treatment_education_rates",
]


@dataclass(frozen=True)
class EpidemicState:
    """Compartment fractions (S, I, R) at one instant.

    Also used for state derivatives, which are not subject to the
    non-negativity/conservation invariants; use :meth:`validate` to check a
    point that is supposed to be a state.
    """

    s: float
    i: float
    r: float

    def as_array(self) -> np.ndarray:
        return np.array([self.s, self.i, self.r], dtype=float)

    def validate(self, n: float = 1.0, tol: float = 1e-9) -> None:
        """Raise ValueError unless components are >= -tol and sum to n +- tol."""
        for name, v in (("s", self.s), ("i", self.i), ("r", self.r)):
            if not np.isfinite(v) or v < -tol:
                raise ValueError(f"compartment {name}={v} violates non-negativity")
        total = self.s + self.i + self.r
        if abs(total - n) > tol:
            raise ValueError(f"compartments sum to {total}, expected {n}")


@dataclass(frozen=True)
class ModelParams:
    """Transmission/recovery rates (per day) and total population."""

    beta: float
    mu: float
    n: float = 1.0

    def __post_init__(self):
        for name in ("beta", "mu", "n"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive, got {v}")


# Rate functions on plain floats, the single source of the model formulas.
# Each returns (dS, dI, dR); the third component balances the first two so
# the float sum is exactly zero.  R does not enter the rates.


def uncontrolled_rates(s: float, i: float, beta: float, mu: float) -> tuple[float, float, float]:
    infection = beta * s * i
    ds = -infection
    di = infection - mu * i
    return ds, di, -(ds + di)


def vaccination_rates(
    s: float, i: float, beta: float, mu: float, u: float
) -> tuple[float, float, float]:
    infection = beta * s * i
    ds = -infection - u * s
    di = infection - mu * i
    return ds, di, -(ds + di)


def treatment_education_rates(
    s: float, i: float, beta: float, mu: float, u1: float, u2: float
) -> tuple[float, float, float]:
    infection = beta * s * i
    ds = -infection - u2 * s
    di = infection - (mu + u1) * i
    return ds, di, -(ds + di)

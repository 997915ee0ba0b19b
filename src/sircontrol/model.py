"""SIR compartment model: state, parameters, and the drain-form dynamics.

The population N = S + I + R, the initial state's sum, is conserved and split
into susceptible (S), infected (I) and recovered (R).  Every intervention moves
a compartment into R, so every scenario is one SIR field in *drain form*:

    dS = -beta*S*I - a*S,    dI = beta*S*I - (mu + v)*I,    dR = a*S + (mu + v)*I

S drains into R at rate ``a(t)`` (vaccination or education) and I at rate
``mu + v(t)`` (recovery plus treatment).  :class:`Drains` says which control
column is ``a`` and which is ``v``; a drain a layout lacks has rate 0, which
gives the same bits as leaving its term out.  ``treatment_education_rates``
is the one rate law; the forward RK4 loop in :mod:`sircontrol.integrate`
writes the same law inline as ``d = -dS = beta*S*I + a*S`` and
``-dR = dI - d``, exact negations of the terms below, with the same bits.

The R component is computed as the balance of the other two, so the float
sum of the derivative is exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "EpidemicState",
    "ModelParams",
    "Drains",
    "treatment_education_rates",
]


# Smallest compartment, as a fraction of the population, of a forward sweep
# that is not treated as a blow-up.  From x0 >= 0 at drain rates a, mu + v >= 0
# the exact dynamics stay >= 0, so there such a state means RK4 is unstable on
# this grid (on 3 steps a trial reaches I = -1e12); else they can cross it too.
_ADMISSIBLE_TOL = 1e-9


@dataclass(frozen=True)
class EpidemicState:
    """Compartments (S, I, R) at one instant, such as an initial state; checked at construction:
    ValueError unless each is finite, they sum to a finite positive population N, and each
    is at least ``-_ADMISSIBLE_TOL * N`` (rounding noise), the forward sweep's floor.
    """

    s: float
    i: float
    r: float

    def __post_init__(self):
        for name, v in zip("sir", (self.s, self.i, self.r)):
            if not np.isfinite(v):
                raise ValueError(f"compartment {name}={v} must be finite")
        n = self.s + self.i + self.r  # the population
        if not 0.0 < n < np.inf:
            raise ValueError(f"compartments sum to {n}, not a finite positive population")
        floor = -_ADMISSIBLE_TOL * n  # integrate_forward's floor, bit for bit
        for name, v in zip("sir", (self.s, self.i, self.r)):
            if v < floor:
                raise ValueError(f"compartment {name}={v} is below {floor:g} (population {n:g})")


@dataclass(frozen=True)
class ModelParams:
    """Transmission and recovery rates (per day), checked finite and positive."""

    beta: float
    mu: float

    def __post_init__(self):
        for name in ("beta", "mu"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive, got {v}")


class Drains(NamedTuple):
    """Control columns that drain S (rate ``a``) and I (rate ``v``) into R; None: no such drain."""

    s: int | None = None
    i: int | None = None

    @property
    def channels(self) -> int:
        """Number of control columns the layout reads."""
        return (self.s is not None) + (self.i is not None)

    def split(self, u: np.ndarray, absent):
        """``(a, v)``: the columns ``u[:, c]`` of ``u`` that drain S and I, or ``absent``."""
        return tuple(absent if c is None else u[:, c] for c in self)

    def join(self, a, v) -> list:
        """The S-drain and I-drain values ``a`` and ``v`` in control-column order."""
        columns = [None] * self.channels
        for c, x in zip(self, (a, v)):
            if c is not None:
                columns[c] = x
        return columns


def treatment_education_rates(s, i, beta: float, mu: float, v, a) -> tuple:
    """``(dS, dI, dR)`` with S draining at rate ``a`` and I at ``mu + v``, on floats or arrays.

    Named for strategy 3, whose treatment ``u1`` is ``v`` and education
    ``u2`` is ``a``; with ``v = 0`` it is the vaccination law, and with both
    at 0 the uncontrolled one, bit for bit.  R does not enter the rates.
    """
    infection = beta * s * i
    ds = -infection - a * s
    di = infection - (mu + v) * i
    return ds, di, -(ds + di)

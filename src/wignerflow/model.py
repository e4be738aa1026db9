"""The two separable prey-predator Hamiltonians.

Both models are of the form H(x, k) = K(k) + V(x) on dimensionless phase
space, with the species map y = e^-x (predator), z = e^-k (prey) and the
equilibrium at the origin (y = z = 1).

    LV:   H = a x + k + a e^-x + e^-k
    Toda: H = cosh k + a cosh x
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, UsageError

__all__ = [
    "HamiltonianKind",
    "SeparableHamiltonian",
    "PhasePoint",
    "SpeciesPair",
    "energy",
    "species_from_phase",
]


class HamiltonianKind(Enum):
    LV = "lv"
    TODA = "toda"


@dataclass(frozen=True)
class PhasePoint:
    """Dimensionless phase-space point (position x, momentum k)."""

    x: float
    k: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.k)):
            raise DomainError("phase point coordinates must be finite")


@dataclass(frozen=True)
class SpeciesPair:
    """Normalized predator (y) and prey (z) populations."""

    y: float
    z: float

    def __post_init__(self):
        if not (self.y > 0.0 and self.z > 0.0):
            raise DomainError("species populations must be positive")


@dataclass(frozen=True)
class SeparableHamiltonian:
    """Model selector plus the anisotropy parameter a > 0."""

    kind: HamiltonianKind
    a: float = 1.0

    def __post_init__(self):
        if not isinstance(self.kind, HamiltonianKind):
            raise UsageError("kind must be a HamiltonianKind")
        if not (isinstance(self.a, (int, float)) and self.a > 0.0
                and math.isfinite(self.a)):
            raise DomainError("anisotropy parameter a must be positive and finite")

    def kinetic(self, k):
        if self.kind is HamiltonianKind.TODA:
            return np.cosh(k)
        return k + np.exp(-k)

    def potential(self, x):
        if self.kind is HamiltonianKind.TODA:
            return self.a * np.cosh(x)
        return self.a * (x + np.exp(-x))


def energy(h, x, k):
    """H(x, k); bounded below by 1 + a with equality only at the origin."""
    return h.kinetic(np.asarray(k, dtype=float)) + h.potential(np.asarray(x, dtype=float))


def species_from_phase(p):
    """Map a phase point to populations: y = e^-x, z = e^-k."""
    return SpeciesPair(y=math.exp(-p.x), z=math.exp(-p.k))

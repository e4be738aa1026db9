"""The two separable prey-predator Hamiltonians.

Both models are of the form H(x, k) = K(k) + V(x) on dimensionless phase
space, with the species map y = e^-x (predator), z = e^-k (prey) and the
equilibrium at the origin (y = z = 1).

    LV:   H = a x + k + a e^-x + e^-k
    Toda: H = cosh k + a cosh x
"""

import math
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


class PhasePoint:
    """Dimensionless phase-space point (position x, momentum k)."""

    def __init__(self, x, k):
        if not (math.isfinite(x) and math.isfinite(k)):
            raise DomainError("phase point coordinates must be finite")
        self.x, self.k = x, k


class SpeciesPair:
    """Normalized predator (y) and prey (z) populations."""

    def __init__(self, y, z):
        if not (y > 0.0 and z > 0.0):
            raise DomainError("species populations must be positive")
        self.y, self.z = y, z


class SeparableHamiltonian:
    """Model selector plus the anisotropy parameter a > 0."""

    def __init__(self, kind, a=1.0):
        if not isinstance(kind, HamiltonianKind):
            raise UsageError("kind must be a HamiltonianKind")
        if not (isinstance(a, (int, float)) and a > 0.0 and math.isfinite(a)):
            raise DomainError("anisotropy parameter a must be positive and finite")
        self.kind, self.a = kind, a

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

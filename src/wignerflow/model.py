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


class HamiltonianKind(Enum):
    LV = "lv"
    TODA = "toda"


class PhasePoint:
    """Dimensionless phase-space point (position x, momentum k)."""

    def __init__(self, x, k):
        if not (math.isfinite(x) and math.isfinite(k)):
            raise DomainError("phase point coordinates must be finite")
        self.x, self.k = x, k


class SeparableHamiltonian:
    """Model selector plus the anisotropy parameter a > 0."""

    def __init__(self, kind, a=1.0):
        if not isinstance(kind, HamiltonianKind):
            raise UsageError("kind must be a HamiltonianKind")
        if not (isinstance(a, (int, float)) and a > 0.0 and math.isfinite(a)):
            raise DomainError("anisotropy parameter a must be positive and finite")
        self.kind, self.a = kind, a


def energy(h, x, k):
    """H(x, k) = K(k) + V(x); bounded below by 1 + a with equality only at
    the origin.  Beyond the float range it is inf, which the callers'
    domain checks name."""
    x, k = np.asarray(x, dtype=float), np.asarray(k, dtype=float)
    with np.errstate(over="ignore"):
        if h.kind is HamiltonianKind.TODA:
            return np.cosh(k) + h.a * np.cosh(x)
        return k + np.exp(-k) + h.a * (x + np.exp(-x))

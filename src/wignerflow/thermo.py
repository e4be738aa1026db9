"""Canonical (thermal) ensemble for the Toda-like Hamiltonian.

Classical Maxwell-Boltzmann distribution with Bessel-form partition function,
the quadratic-order corrected stationary distribution and its currents, the
flow-divergence quantifier, and internal energy / heat capacity at both
orders, in closed form from the Bessel derivative identities.  The corrected
quantities live on the validity domain Z_ST > 0; its boundary beta*(a) is
located once by bisection to float resolution and quoted in errors.

The partition functions and observables are scalar closed forms on
``math`` alone (with ``scalar``), so a ``thermo`` process loads no numpy;
the grid forms import it when they run.
"""

import math
import sys
from functools import cached_property, lru_cache

from .errors import DomainError, NumericalError, UsageError, ValidityError
from .scalar import bessel_k, bisect

__all__ = [
    "ThermalEnsembleParams",
    "ThermalObservables",
    "z0_closed",
    "z_st_closed",
    "beta_star",
    "w0",
    "epsilon_correction",
    "w_st2",
    "currents_td",
    "div_w_td",
    "observables",
    "quadrature_box",
]


def _require_arguments(beta, a):
    """Bessel arguments beta and a beta that are positive and finite."""
    if not (beta > 0.0 and 0.0 < a * beta < math.inf):
        raise DomainError(f"a beta = {a * beta!r} at beta = {beta}, a = {a}: "
                          "the partition functions need beta > 0 and "
                          "0 < a beta < inf")


def z0_closed(beta, a):
    """Classical partition function Z0 = 4 K0(beta) K0(a beta)."""
    _require_arguments(beta, a)
    return 4.0 * bessel_k(0, beta) * bessel_k(0, a * beta)


def z_st_closed(beta, a):
    """Corrected partition function
    Z_ST = 4 [K0(beta) K0(a beta) - (a beta^2 / 24) K1(beta) K1(a beta)].

    Positive only below beta*(a); the sign is checked by callers.
    """
    _require_arguments(beta, a)
    return 4.0 * (bessel_k(0, beta) * bessel_k(0, a * beta)
                  - a * beta * beta / 24.0 * bessel_k(1, beta) * bessel_k(1, a * beta))


@lru_cache(maxsize=None)
def beta_star(a):
    """Validity boundary: the root of Z_ST(beta, a) = 0.

    The bracket [1e-3, 1] is halved downwards or doubled upwards until it
    holds the sign change, then bisected until its midpoint equals one of
    its ends (about 55 evaluations of Z_ST).  The upper end is returned:
    Z_ST(beta*) <= 0, and Z_ST > 0 at the float just below it.
    Where Z0 has underflowed at that end, as for a = 1e300 or a = 1e-300,
    the zero found is the underflow of Z_ST rather than its sign change,
    and NumericalError is raised.
    """
    lo, hi = 1e-3, 1.0
    while not z_st_closed(lo, a) > 0.0:
        lo, hi = 0.5 * lo, lo
    while z_st_closed(hi, a) > 0.0:
        lo, hi = hi, 2.0 * hi
    lo, hi = bisect(lambda beta: z_st_closed(beta, a) > 0.0, lo, hi)
    if z0_closed(hi, a) < sys.float_info.min:
        raise NumericalError(
            f"beta*(a={a}) is out of reach: Z0 underflows at beta = {hi}, "
            f"so the sign of Z_ST there is lost")
    return hi


class ThermalEnsembleParams:
    """Inverse temperature, anisotropy, expansion order ('classical' or
    'h2') and the partition functions there: z0, on first use, and the
    z_st that order h2 was checked against (None at classical order).
    Reading z0 where it underflows to 0 raises ValidityError."""

    def __init__(self, beta, a=1.0, order="classical"):
        if not (isinstance(beta, (int, float)) and beta > 0.0
                and math.isfinite(beta)):
            raise DomainError("beta must be positive and finite")
        if not (a > 0.0 and math.isfinite(a)):
            raise DomainError("a must be positive and finite")
        if order not in ("classical", "h2"):
            raise UsageError("order must be 'classical' or 'h2'")
        self.beta, self.a, self.order = beta, a, order
        self.z_st = None
        if order == "h2":
            self.z_st = z_st = z_st_closed(beta, a)
            if math.isnan(z_st):
                raise ValidityError(
                    f"Z_ST is NaN at beta = {beta}, a = {a}: a beta^2 "
                    f"overflows where the Bessel factors underflow to 0")
            if not z_st > 0.0:
                raise ValidityError(
                    f"Z_ST <= 0 at beta = {beta}: the quadratic-order "
                    f"ensemble is valid only for beta < beta*(a={a}) = "
                    f"{beta_star(a):.6f}")

    @cached_property
    def z0(self):
        z0 = z0_closed(self.beta, self.a)
        if not z0 > 0.0:
            raise ValidityError(f"Z0 underflows to {z0!r} at beta = "
                                f"{self.beta}, a = {self.a}")
        return z0


def w0(params, x, k):
    """Classical Maxwell-Boltzmann weight exp(-beta H_T) / Z0; normalized.
    Where Z0 has underflowed to 0 the weight is undefined: ValidityError."""
    import numpy as np
    x = np.asarray(x, dtype=float)
    k = np.asarray(k, dtype=float)
    b, a, z0 = params.beta, params.a, params.z0
    return np.exp(-b * (a * np.cosh(x) + np.cosh(k))) / z0


def epsilon_correction(params, x, k):
    """Quadratic-order relative correction: even in (x, k) -> (-x, -k) and
    equal to -a beta^2 / 8 at the origin."""
    import numpy as np
    x = np.asarray(x, dtype=float)
    k = np.asarray(k, dtype=float)
    b, a = params.beta, params.a
    return (a * b * b / 8.0 * np.cosh(k) * np.cosh(x)
            * (b / 3.0 * (a * np.tanh(x) * np.sinh(x)
                          + np.tanh(k) * np.sinh(k)) - 1.0))


def w_st2(params, x, k):
    """Corrected stationary distribution (Z0/Z_ST) W0 (1 + eps); normalized."""
    if params.order != "h2":
        raise UsageError("w_st2 requires order='h2' parameters")
    pref = params.z0 / params.z_st
    return pref * w0(params, x, k) * (1.0 + epsilon_correction(params, x, k))


def currents_td(params, x, k):
    """Thermal current components (J_x, J_k).

    Classical order gives (sinh k, -a sinh x) W0; the h2 order adds the
    printed quadratic-order bracket and eps corrections.  J_x vanishes on
    k = 0 and J_k on x = 0 at either order.
    """
    import numpy as np
    x = np.asarray(x, dtype=float)
    k = np.asarray(k, dtype=float)
    b, a = params.beta, params.a
    w = w0(params, x, k)
    if params.order == "classical":
        return np.sinh(k) * w, -a * np.sinh(x) * w
    eps = epsilon_correction(params, x, k)
    jx = np.sinh(k) * (1.0 + eps - a * b / 24.0
                       * (a * b * np.sinh(x) ** 2 - np.cosh(x))) * w
    jk = -a * np.sinh(x) * (1.0 + eps - b / 24.0
                            * (b * np.sinh(k) ** 2 - np.cosh(k))) * w
    return jx, jk


def div_w_td(params, x, k):
    """Flow-divergence quantifier of the corrected thermal velocity field:

        div w = (a beta^2 / 12) sinh x sinh k [a cosh x - cosh k].

    Vanishes on both axes and, for a = 1, on |x| = |k|; a nonzero value marks
    the departure from divergence-free classical transport.
    """
    import numpy as np
    x = np.asarray(x, dtype=float)
    k = np.asarray(k, dtype=float)
    b, a = params.beta, params.a
    return (a * b * b / 12.0 * np.sinh(x) * np.sinh(k)
            * (a * np.cosh(x) - np.cosh(k)))


# the grid table of fieldgrid.sample_field: quantity -> (closed form,
# component as fieldgrid._evaluate reads it); none is masked
GRID_QUANTITIES = {
    "w0": (w0, None),
    "w_st2": (w_st2, None),
    "jx": (currents_td, 0),
    "jk": (currents_td, 1),
    "j": (currents_td, (0, 1)),
    "divw": (div_w_td, None),
}


class ThermalObservables:
    """Partition functions, internal energy and heat capacity at one order."""

    def __init__(self, z0, z_st, energy, heat_capacity, order):
        self.z0, self.z_st, self.energy = z0, z_st, energy
        self.heat_capacity, self.order = heat_capacity, order


def _bessel_log_slopes(u):
    """u d/du and u^2 d^2/du^2 of ln K0(u) and of ln K1(u), from K0' = -K1
    and K1' = -K0 - K1/u.  With u = s beta they are the beta d/dbeta and
    beta^2 d^2/dbeta^2 of ln K_n(s beta).  Only the ratios u K1/K0 and
    u K0/K1 enter, so no term leaves the float range where the slopes stay
    in it."""
    k0, k1 = bessel_k(0, u), bessel_k(1, u)
    rho, tau = u * k1 / k0, u * k0 / k1
    return ((-rho, u * u + rho - rho * rho),
            (-tau - 1.0, u * u - tau * tau - tau + 1.0))


def observables(params):
    """Internal energy E = -Z'/Z and heat capacity
    C = beta^2 (Z''/Z - (Z'/Z)^2), primes being beta-derivatives.

    Both are closed forms at both orders, built from K0' = -K1 and
    K1' = -K0 - K1/x; there is no finite difference, so they hold up to the
    validity boundary.  They read the partition functions that params
    carry, whose Z_ST was checked at order h2 and whose Z0 refuses to
    underflow to 0 (ValidityError).
    """
    b, a, order, z0 = params.beta, params.a, params.order, params.z0
    z_st = params.z_st if order == "h2" else z_st_closed(b, a)
    k0_b, k1_b = _bessel_log_slopes(b)
    k0_ab, k1_ab = _bessel_log_slopes(a * b)
    # g1 = beta Z'/Z and g2 = beta^2 (ln Z)'', first for Z0 = 4 K0(b) K0(ab)
    g1, g2 = k0_b[0] + k0_ab[0], k0_b[1] + k0_ab[1]
    if order == "h2":
        # Z_ST = Z0 - Zc with Zc = (a beta^2 / 6) K1(beta) K1(a beta)
        zc = z0 - z_st
        c1, c2 = 2.0 + k1_b[0] + k1_ab[0], -2.0 + k1_b[1] + k1_ab[1]
        g1, m2 = ((z0 * g1 - zc * c1) / z_st,
                  (z0 * (g2 + g1 * g1) - zc * (c2 + c1 * c1)) / z_st)
        g2 = m2 - g1 * g1
    return ThermalObservables(z0=z0, z_st=z_st, energy=-g1 / b,
                              heat_capacity=g2, order=order)


def quadrature_box(beta, a, tail=37.0):
    """Half-widths (x_max, k_max) beyond which exp(-beta H) is below
    e^-tail times its peak; used to truncate plane integrals."""
    return (math.acosh(1.0 + tail / (a * beta)),
            math.acosh(1.0 + tail / beta))

"""Independent numerical oracles used across the test suite.

Everything here deliberately avoids the code paths it is used to check:
plane integrals use tensor Gauss-Legendre rules instead of the adaptive
engine, the Bessel functions come from the adaptive engine on their
integral representation instead of the series and continued fraction, the
Toda period comes from a time-of-flight quadrature of the level
curve rather than from orbit integration, and the complete elliptic integral
of the first kind is reduced from the quartic turning-point form by hand.
"""

import math

import numpy as np

from wignerflow.specfun import QuadratureSpec, integrate_1d
from wignerflow.thermo import quadrature_box

TIGHT = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12, max_subdivisions=2000)


BESSEL_QUAD = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-13, max_subdivisions=400)


def bessel_k_quadrature(order, x):
    """K_order(x), order 0 or 1, from the integral representation

        K_nu(x) = e^-x Int_0^inf e^{-x(cosh t - 1)} cosh(nu t) dt,

    with cosh t - 1 = 2 sinh^2(t/2) to keep the exponent exact near t = 0."""
    def integrand(t):
        if t > 700.0:
            return 0.0
        s = math.sinh(0.5 * t)
        w = 2.0 * x * s * s
        if w > 745.0:
            return 0.0
        base = math.exp(-w)
        return base if order == 0 else base * math.cosh(t)

    return math.exp(-x) * integrate_1d(integrand, 0.0, math.inf, BESSEL_QUAD)


def gauss_legendre_2d(f, x_max, k_max, n=160):
    """Tensor Gauss-Legendre integral of f(x, k) over the centered box."""
    u, w = np.polynomial.legendre.leggauss(n)
    xs = u * x_max
    ks = u * k_max
    wx = w * x_max
    wk = w * k_max
    grid = f(xs[None, :], ks[:, None])
    return float(wk @ grid @ wx)


def thermal_plane_integral(f, beta, a, n=200, tail=37.0):
    """Plane integral of a thermally localized integrand, box-truncated where
    exp(-beta H) is below e^-tail of its peak."""
    x_max, k_max = quadrature_box(beta, a, tail)
    return gauss_legendre_2d(f, x_max, k_max, n)


def toda_time_of_flight(eps, a=1.0):
    """Orbital period of the Toda system from the level-curve quadrature.

    On the quarter orbit from (0, k_max) to (x_max, 0), dx/dtau = sinh k with
    cosh k = eps - a cosh x, so T = 4 Int_0^{x_max} dx / sqrt((eps - a cosh x)^2 - 1).
    The substitution x = x_max - s^2 removes the turning-point singularity.
    """
    if eps <= 1.0 + a:
        raise ValueError("closed orbits need eps > 1 + a")
    x_max = math.acosh((eps - 1.0) / a)

    def integrand(s):
        x = x_max - s * s
        u = eps - a * math.cosh(x)
        return 2.0 * s / math.sqrt(u * u - 1.0)

    quarter = integrate_1d(integrand, 0.0, math.sqrt(x_max),
                           QuadratureSpec(1e-12, 1e-10, 2000))
    return 4.0 * quarter


def toda_period_elliptic(eps):
    """Closed-form period for a = 1 via the standard reduction of
    Int dT / sqrt(T (eps - T) (T+ - T) (T - T-)) between the middle roots:
    T = 4 K(m) / T+ with m = eps sqrt(eps^2 - 4) / T+^2 (parameter form).

    The arithmetic-geometric mean computes K(m) here so that the oracle does
    not depend on the package's elliptic routine.
    """
    s = math.sqrt(eps * eps - 4.0)
    t_plus = 0.5 * (eps + s)
    m = eps * s / (t_plus * t_plus)
    a_agm, b_agm = 1.0, math.sqrt(1.0 - m)
    for _ in range(80):
        if abs(a_agm - b_agm) <= 1e-15 * a_agm:
            break
        a_agm, b_agm = 0.5 * (a_agm + b_agm), math.sqrt(a_agm * b_agm)
    k_complete = math.pi / (2.0 * a_agm)
    return 4.0 * k_complete / t_plus


def im_erf_contour(alpha, chi):
    """Im Erf(alpha(chi + i/2)) by direct quadrature along the vertical leg:
    Im erf(x + iy) = (2/sqrt(pi)) e^{-x^2} Int_0^y e^{t^2} cos(2 x t) dt."""
    x = alpha * chi
    y = 0.5 * alpha
    val = integrate_1d(lambda t: math.exp(t * t) * math.cos(2.0 * x * t),
                       0.0, y, TIGHT)
    return 2.0 / math.sqrt(math.pi) * math.exp(-x * x) * val


def erfi_maclaurin(u, terms=60):
    """erfi(u) = (2/sqrt(pi)) sum u^{2n+1} / (n! (2n+1))."""
    total = 0.0
    fact = 1.0
    for n in range(terms):
        if n > 0:
            fact *= n
        total += u ** (2 * n + 1) / (fact * (2 * n + 1))
    return 2.0 / math.sqrt(math.pi) * total


def fit_power(xs, ys):
    """Least-squares exponent of y ~ x^p on a log-log scale."""
    xs = np.log(np.asarray(xs, dtype=float))
    ys = np.log(np.abs(np.asarray(ys, dtype=float)))
    return float(np.polyfit(xs, ys, 1)[0])

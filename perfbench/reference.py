"""Reference values computed apart from the package, with scipy and mpmath.

Nothing here imports ``wignerflow``.  The Gaussian-flow kernel comes from
``scipy.special.wofz``/``erf``, the thermal partition functions from
``scipy.special.k0``/``k1`` and, for the exact derivatives of ln Z, from
``mpmath.besselk``; periods come from ``scipy.special.ellipk`` and
``scipy.integrate.quad``; trajectories from ``scipy.integrate.solve_ivp``.
"""

import math
from functools import lru_cache

import mpmath
import numpy as np
from scipy import integrate, optimize, special

SQRT_PI = math.sqrt(math.pi)
TRUST_FACTOR = 6.0


# ---------------------------------------------------------------------------
# Gaussian ensemble
# ---------------------------------------------------------------------------

def kernel_f(alpha, chi):
    """F(chi) = Im erf(alpha (chi + i/2))."""
    chi = np.asarray(chi, dtype=float)
    return special.erf(alpha * (chi + 0.5j)).imag


def kernel_f_prime(alpha, chi):
    """dF/dchi = Im[(2 alpha / sqrt(pi)) exp(-alpha^2 (chi + i/2)^2)]."""
    chi = np.asarray(chi, dtype=float)
    z = alpha * (chi + 0.5j)
    return (2.0 * alpha / SQRT_PI * np.exp(-z * z)).imag


def kernel_s(alpha, chi):
    """S(chi) = e^{alpha^2 chi^2} F(chi), from the Faddeeva function.

    erf(z) = 1 - e^{-z^2} w(iz) with z = alpha(|chi| + i/2) gives
    S = -Im[e^{alpha^2/4 - i alpha^2 |chi|} w(-alpha/2 + i alpha |chi|)];
    S is even, and |chi| keeps w in the upper half-plane.
    """
    c = np.abs(np.asarray(chi, dtype=float))
    phase = np.exp(alpha * alpha / 4.0 - 1j * alpha * alpha * c)
    return -(phase * special.wofz(-alpha / 2.0 + 1j * alpha * c)).imag


def kernel_s_prime(alpha, chi):
    """dS/dchi = 2 alpha^2 chi S + e^{alpha^2 chi^2} F'(chi)."""
    chi = np.asarray(chi, dtype=float)
    scaled_fp = (2.0 * alpha / SQRT_PI
                 * np.exp(alpha * alpha / 4.0 - 1j * alpha * alpha * chi)).imag
    return 2.0 * alpha * alpha * chi * kernel_s(alpha, chi) + scaled_fp


def gaussian_grid(quantity, alpha, a, xs, ks):
    """A Gaussian-ensemble quantity on the grid xs x ks, shape (nk, nx[, 2]),
    built from separable 1-D factors."""
    x = np.asarray(xs)[None, :]
    k = np.asarray(ks)[:, None]
    c = SQRT_PI / alpha
    gauss_x = np.exp(-alpha * alpha * x * x)
    gauss_k = np.exp(-alpha * alpha * k * k)
    if quantity == "divj":
        pref = alpha / SQRT_PI
        return (pref * kernel_f_prime(alpha, x) * np.sinh(k) * gauss_k
                - a * pref * kernel_f_prime(alpha, k) * np.sinh(x) * gauss_x)
    if quantity == "j":
        pref = alpha / SQRT_PI
        jx = pref * kernel_f(alpha, x) * np.sinh(k) * gauss_k
        jk = -a * pref * kernel_f(alpha, k) * np.sinh(x) * gauss_x
        return np.stack(np.broadcast_arrays(jx, jk), axis=-1)
    if quantity == "w":
        wx = c * kernel_s(alpha, x) * np.sinh(k)
        wk = -a * c * kernel_s(alpha, k) * np.sinh(x)
        return np.stack(np.broadcast_arrays(wx, wk), axis=-1)
    if quantity == "divw":
        return (c * kernel_s_prime(alpha, x) * np.sinh(k)
                - a * c * kernel_s_prime(alpha, k) * np.sinh(x))
    if quantity == "vort":
        return -c * (a * kernel_s(alpha, k) * np.cosh(x)
                     + kernel_s(alpha, x) * np.cosh(k))
    raise ValueError(f"no reference for gaussian quantity {quantity!r}")


def trust_mask(alpha, xs, ks):
    lim = TRUST_FACTOR / alpha
    return (np.abs(np.asarray(ks))[:, None] <= lim) & (
        np.abs(np.asarray(xs))[None, :] <= lim)


def kernel_zeros(alpha, upper, probes=4000):
    """Positive zeros of F on (0, upper], by sign scan of S plus brentq."""
    grid = np.linspace(0.0, upper, probes + 1)
    vals = kernel_s(alpha, grid)
    zeros = []
    for i in range(probes):
        if vals[i] == 0.0 and grid[i] > 0.0:
            zeros.append(float(grid[i]))
        elif (vals[i] > 0.0) != (vals[i + 1] > 0.0):
            zeros.append(optimize.brentq(lambda c: float(kernel_s(alpha, c)),
                                         grid[i], grid[i + 1], xtol=1e-15,
                                         rtol=1e-15))
    return zeros


def velocity_jacobian(alpha, a, x, k):
    """Jacobian of w at (x, k) from the analytic S and S'."""
    c = SQRT_PI / alpha
    sx, sk = float(kernel_s(alpha, x)), float(kernel_s(alpha, k))
    spx, spk = float(kernel_s_prime(alpha, x)), float(kernel_s_prime(alpha, k))
    return np.array([[c * spx * math.sinh(k), c * sx * math.cosh(k)],
                     [-a * c * sk * math.cosh(x), -a * c * spk * math.sinh(x)]])


# ---------------------------------------------------------------------------
# thermal ensemble
# ---------------------------------------------------------------------------

def z0(beta, a):
    return 4.0 * special.k0(beta) * special.k0(a * beta)


def z_st(beta, a):
    return 4.0 * (special.k0(beta) * special.k0(a * beta)
                  - a * beta * beta / 24.0 * special.k1(beta)
                  * special.k1(a * beta))


def beta_star(a):
    """Root of Z_ST(beta, a) = 0 by brentq."""
    hi = 1.0
    while z_st(hi, a) > 0.0:
        hi *= 2.0
    return optimize.brentq(lambda b: z_st(b, a), 1e-3, hi, xtol=1e-15,
                           rtol=1e-15)


def epsilon_correction(beta, a, x, k):
    return (a * beta * beta / 8.0 * np.cosh(k) * np.cosh(x)
            * (beta / 3.0 * (a * np.tanh(x) * np.sinh(x)
                             + np.tanh(k) * np.sinh(k)) - 1.0))


def thermal_grid(quantity, beta, a, xs, ks):
    """Quadratic-order thermal quantities, shape (nk, nx[, 2])."""
    x = np.asarray(xs)[None, :]
    k = np.asarray(ks)[:, None]
    w0 = np.exp(-beta * (a * np.cosh(x) + np.cosh(k))) / z0(beta, a)
    eps = epsilon_correction(beta, a, x, k)
    if quantity == "w_st2":
        return z0(beta, a) / z_st(beta, a) * w0 * (1.0 + eps)
    if quantity == "j":
        jx = np.sinh(k) * (1.0 + eps - a * beta / 24.0
                           * (a * beta * np.sinh(x) ** 2 - np.cosh(x))) * w0
        jk = -a * np.sinh(x) * (1.0 + eps - beta / 24.0
                                * (beta * np.sinh(k) ** 2 - np.cosh(k))) * w0
        return np.stack(np.broadcast_arrays(jx, jk), axis=-1)
    raise ValueError(f"no reference for thermal quantity {quantity!r}")


_MP_DPS = 30


@lru_cache(maxsize=None)
def _bessel_orders(arg):
    """K_0 .. K_5 at ``arg`` (mpmath): two besselk calls, then the upward
    recurrence K_{n+1} = K_{n-1} + (2n/x) K_n, which is stable for K."""
    with mpmath.workdps(_MP_DPS):
        x = mpmath.mpf(arg)
        ks = [mpmath.besselk(0, x), mpmath.besselk(1, x)]
        for n in range(1, 5):
            ks.append(ks[n - 1] + 2 * n / x * ks[n])
        return ks


def _bessel_derivs(order, scale, beta):
    """[K_order(scale beta), d/dbeta, ..., d^4/dbeta^4]."""
    with mpmath.workdps(_MP_DPS):
        ks = _bessel_orders(float(scale * beta))
        out = []
        for j in range(5):
            total = mpmath.mpf(0)
            for i in range(j + 1):
                total += mpmath.binomial(j, i) * ks[abs(order - j + 2 * i)]
            out.append(mpmath.mpf(scale) ** j * (-0.5) ** j * total)
        return out


def _mul(f, g):
    return [sum(mpmath.binomial(n, i) * f[i] * g[n - i] for i in range(n + 1))
            for n in range(5)]


def log_z_derivatives(beta, a, order):
    """[ln Z, d/dbeta, ..., d^4/dbeta^4] of Z0 (classical) or Z_ST (h2),
    exact to mpmath precision."""
    with mpmath.workdps(_MP_DPS):
        b = mpmath.mpf(beta)
        am = mpmath.mpf(a)
        z = _mul(_bessel_derivs(0, 1.0, beta), _bessel_derivs(0, a, beta))
        if order == "h2":
            m = [am * b * b / 24, am * b / 12, am / 12, 0, 0]
            corr = _mul(m, _mul(_bessel_derivs(1, 1.0, beta),
                                _bessel_derivs(1, a, beta)))
            z = [p - q for p, q in zip(z, corr)]
        z = [4 * v for v in z]
        r = [v / z[0] for v in z]
        l1 = r[1]
        l2 = r[2] - l1 ** 2
        l3 = r[3] - 3 * r[2] * r[1] + 2 * r[1] ** 3
        l4 = (r[4] - 4 * r[3] * r[1] - 3 * r[2] ** 2 + 12 * r[2] * r[1] ** 2
              - 6 * r[1] ** 4)
        return [float(mpmath.log(z[0])), float(l1), float(l2), float(l3),
                float(l4)], float(z[0])


# ---------------------------------------------------------------------------
# classical orbits
# ---------------------------------------------------------------------------

def toda_period_isotropic(eps):
    """Period of the a = 1 Toda orbit at energy eps: 4 K(m) / T+ with
    m = eps sqrt(eps^2 - 4) / T+^2 (the two-middle-roots reduction)."""
    s = math.sqrt(eps * eps - 4.0)
    t_plus = 0.5 * (eps + s)
    return 4.0 * special.ellipk(eps * s / (t_plus * t_plus)) / t_plus


def toda_period(eps, a):
    """Toda period for any a by time of flight over a quarter orbit:
    T = 4 Int_0^{x_max} dx / sqrt((eps - a cosh x)^2 - 1), with
    x = x_max - s^2 to remove the turning-point singularity."""
    x_max = math.acosh((eps - 1.0) / a)

    def f(s):
        u = eps - a * math.cosh(x_max - s * s)
        return 2.0 * s / math.sqrt(u * u - 1.0)

    val, _ = integrate.quad(f, 0.0, math.sqrt(x_max), epsabs=1e-14,
                            epsrel=1e-13, limit=200)
    return 4.0 * val


def lv_start(eps, a):
    """Positive root x of a (x + e^-x) = eps - 1: the k = 0 section point."""
    target = (eps - 1.0) / a
    return optimize.brentq(lambda x: x + math.exp(-x) - target, 0.0,
                           target + 1.0, xtol=1e-15, rtol=1e-15)


def lv_period(eps, a=1.0):
    """LV period by time of flight.  On H = eps, k solves k + e^-k = u(x)
    with u = eps - a (x + e^-x); the two roots are k = u + W_b(-e^-u) for
    the Lambert-W branches b = 0 (k+ >= 0) and b = -1 (k- <= 0), and
    dx/dtau = 1 - e^-k, so
    T = Int_{x_min}^{x_max} [1/(1 - e^-k+) - 1/(1 - e^-k-)] dx.  Each half
    x in [x_min, 0] and [0, x_max] is substituted x = x_edge -+ s^2."""
    x_hi = lv_start(eps, a)
    target = (eps - 1.0) / a
    x_lo = optimize.brentq(lambda x: x + math.exp(-x) - target, -target - 1.0,
                           0.0, xtol=1e-15, rtol=1e-15)

    def speed_sum(x):
        u = eps - a * (x + math.exp(-x))
        e = -math.exp(-u)
        k_plus = u + special.lambertw(e, 0).real
        k_minus = u + special.lambertw(e, -1).real
        return 1.0 / -math.expm1(-k_plus) - 1.0 / -math.expm1(-k_minus)

    def upper(s):
        return 2.0 * s * speed_sum(x_hi - s * s)

    def lower(s):
        return 2.0 * s * speed_sum(x_lo + s * s)

    opts = {"epsabs": 1e-14, "epsrel": 1e-12, "limit": 400}
    a_val, _ = integrate.quad(upper, 0.0, math.sqrt(x_hi), **opts)
    b_val, _ = integrate.quad(lower, 0.0, math.sqrt(-x_lo), **opts)
    return a_val + b_val


def linear_sine_period(eps):
    """The literal closed-form period 8 sqrt 2 K_ls(kappa) /
    sqrt(eps + sqrt(eps^2 - 4) - 2), K_ls = 4 Int_0^{pi/2} (1 - kappa
    sin t)^{-1/2} dt, with kappa = 2 eps s / (eps (eps + s) - 2)."""
    s = math.sqrt(eps * eps - 4.0)
    kappa = 2.0 * eps * s / (eps * (eps + s) - 2.0)
    val, _ = integrate.quad(lambda t: 1.0 / math.sqrt(1.0 - kappa * math.sin(t)),
                            0.0, 0.5 * math.pi, epsabs=1e-14, epsrel=1e-13)
    return 8.0 * math.sqrt(2.0) * 4.0 * val / math.sqrt(eps + s - 2.0), kappa


# ---------------------------------------------------------------------------
# semiclassical trajectories
# ---------------------------------------------------------------------------

def quantum_invariant(alpha, a, reach, deg=96):
    """Q(x, k) = a A(x) + A(k), A(chi) = Int_0^chi sinh u / S(u) du, which
    the field w = (c S(x) sinh k, -a c S(k) sinh x) conserves exactly.
    A is the integral of a Chebyshev interpolant of sinh u / S(u) on
    [-reach, reach]; returns a vectorized Q."""
    cheb = np.polynomial.Chebyshev.interpolate(
        lambda u: np.sinh(u) / kernel_s(alpha, u), deg, domain=[-reach, reach])
    anti = cheb.integ(lbnd=0.0)

    def q(x, k):
        return a * anti(np.asarray(x)) + anti(np.asarray(k))

    return q


def quantum_path(alpha, a, x0, k0, taus):
    """Integrate dxi/dtau = w(xi) with DOP853 (rtol 1e-12) at ``taus``."""
    c = SQRT_PI / alpha

    def rhs(_, y):
        x, k = y
        return [c * float(kernel_s(alpha, x)) * math.sinh(k),
                -a * c * float(kernel_s(alpha, k)) * math.sinh(x)]

    sol = integrate.solve_ivp(rhs, (0.0, float(taus[-1])), [x0, k0],
                              method="DOP853", rtol=1e-12, atol=1e-13,
                              t_eval=taus)
    if not sol.success:
        raise RuntimeError(sol.message)
    return sol.y[0], sol.y[1]

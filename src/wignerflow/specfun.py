"""Self-contained special-function kernel and adaptive quadrature engine.

Everything downstream (closed-form currents, elliptic parameterizations)
is built on the functions here and in ``scalar``, which holds the Bessel
functions K0, K1 and the bisection on ``math`` alone; both names still
resolve here, on first access.  The elliptic integrals and Jacobi
functions share one arithmetic-geometric mean.  The quadrature engine
evaluates the time-of-flight periods and doubles as the test suite's
independent oracle.  All evaluations are pure: identical inputs give
bit-identical outputs.
"""

import heapq
import math

import numpy as np

from .errors import DomainError, NumericalError, UsageError


def __getattr__(name):
    # bessel_k and bisect moved to the numpy-free scalar module; importing
    # this module does not load it
    if name in ("bessel_k", "bisect"):
        from . import scalar
        return getattr(scalar, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# adaptive Gauss-Kronrod quadrature
# ---------------------------------------------------------------------------

class QuadratureSpec:
    """Tolerances and subdivision budget for :func:`integrate_1d`."""

    def __init__(self, abs_tol=1e-12, rel_tol=1e-10, max_subdivisions=2000):
        if not (abs_tol > 0.0 and rel_tol > 0.0):
            raise UsageError("quadrature tolerances must be strictly positive")
        if max_subdivisions < 1:
            raise UsageError("max_subdivisions must be >= 1")
        self.abs_tol, self.rel_tol = abs_tol, rel_tol
        self.max_subdivisions = max_subdivisions


# 15-point Kronrod extension of 7-point Gauss (nodes on [-1, 1], positive half).
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_NODES = np.concatenate((-_XGK[:7], _XGK[7:], _XGK[6::-1]))
_WEIGHTS_K = np.concatenate((_WGK[:7], _WGK[7:], _WGK[6::-1]))
# Gauss points sit at the odd Kronrod indices.
_GAUSS_IDX = np.array([1, 3, 5, 7, 9, 11, 13])
_WEIGHTS_G = np.concatenate((_WG[:3], _WG[3:], _WG[2::-1]))


def _gk15(f, a, b):
    """One Gauss-Kronrod panel on [a, b]; returns (value, error estimate)."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fv = np.array([f(c + h * t) for t in _NODES.tolist()], dtype=float)
    vk = h * float(_WEIGHTS_K @ fv)
    vg = h * float(_WEIGHTS_G @ fv[_GAUSS_IDX])
    # QUADPACK-style sharpened error estimate
    resabs = h * float(_WEIGHTS_K @ np.abs(fv))
    resasc = h * float(_WEIGHTS_K @ np.abs(fv - vk / (2.0 * h)))
    err = abs(vk - vg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    noise = 50.0 * np.finfo(float).eps * resabs
    return vk, max(err, noise)


def _integrate_finite(f, lo, hi, spec):
    value, err = _gk15(f, lo, hi)
    heap = [(-err, 0, lo, hi, value, err)]
    total_v, total_e = value, err
    counter = 1
    for _ in range(spec.max_subdivisions):
        if total_e <= max(spec.abs_tol, spec.rel_tol * abs(total_v)):
            return total_v, total_e
        _, _, a, b, v, e = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            # interval at floating-point resolution, nothing left to split
            heapq.heappush(heap, (0.0, counter, a, b, v, e))
            counter += 1
            continue
        v1, e1 = _gk15(f, a, mid)
        v2, e2 = _gk15(f, mid, b)
        total_v += (v1 + v2) - v
        total_e += (e1 + e2) - e
        heapq.heappush(heap, (-e1, counter, a, mid, v1, e1))
        heapq.heappush(heap, (-e2, counter + 1, mid, b, v2, e2))
        counter += 2
    if total_e <= max(spec.abs_tol, spec.rel_tol * abs(total_v)):
        return total_v, total_e
    raise NumericalError(
        f"quadrature did not converge: estimate {total_v!r}, error bound {total_e:.3e}",
        payload=(total_v, total_e),
    )


def _decay_transform(f, anchor, sign):
    """Map [anchor, sign*inf) onto u in [0, 1) with t = anchor + sign*(-ln(1-u)).

    Suitable for integrands decaying at least exponentially; the Gauss-Kronrod
    nodes never touch u = 1.
    """

    def g(u):
        t = anchor - sign * math.log1p(-u)
        fv = f(t)
        if fv == 0.0:
            return 0.0
        return fv / (1.0 - u)

    return g


def integrate_1d(f, lo, hi, spec=None):
    """Adaptive quadrature of ``f`` over [lo, hi]; the limits may be infinite.

    Returns the integral estimate; raises NumericalError (carrying the best
    estimate and error bound) if the subdivision budget is exhausted before
    the tolerance is met.  Deterministic for fixed inputs.
    """
    spec = spec or QuadratureSpec()
    if math.isnan(lo) or math.isnan(hi):
        raise DomainError("quadrature limits must not be NaN")
    if lo == hi:
        return 0.0
    if lo > hi:
        return -integrate_1d(f, hi, lo, spec)
    lo_inf = math.isinf(lo)
    hi_inf = math.isinf(hi)
    if not lo_inf and not hi_inf:
        value, _ = _integrate_finite(f, lo, hi, spec)
        return value
    if lo_inf and hi_inf:
        half = QuadratureSpec(spec.abs_tol / 2.0, spec.rel_tol / 2.0,
                              spec.max_subdivisions)
        return integrate_1d(f, lo, 0.0, half) + integrate_1d(f, 0.0, hi, half)
    if hi_inf:
        value, _ = _integrate_finite(_decay_transform(f, lo, 1.0), 0.0, 1.0, spec)
        return value
    value, _ = _integrate_finite(_decay_transform(f, hi, -1.0), 0.0, 1.0, spec)
    return value


# ---------------------------------------------------------------------------
# elliptic integrals and Jacobi sn, cn
# ---------------------------------------------------------------------------

def _agm_levels(kc):
    """The arithmetic-geometric mean of 1 and kc, and the pairs (a_n, b_n)
    of the descending Landen recurrence before each of its halvings."""
    if not 0.0 < kc <= 1.0:
        raise DomainError(f"complementary modulus kc = {kc!r}: require "
                          f"0 < kc <= 1, that is parameter m = 1 - kc^2 in "
                          f"[0, 1)")
    a, b, steps = 1.0, float(kc), []
    # quadratic convergence; the 1e-15 floor keeps 1-ulp oscillation from
    # stalling the loop, and the residual (a-b)^2 term is ~1e-30 relative
    for _ in range(60):
        if abs(a - b) <= 1e-15 * a:
            break
        steps.append((a, b))
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b), steps


def elliptic_k_complete(*, kc):
    """Complete elliptic integral of the first kind K(m), m = 1 - kc^2.

    K(m) = Int_0^{pi/2} (1 - m sin^2 t)^{-1/2} dt = pi / (2 agm(1, kc)).
    The complementary modulus kc is the AGM's own start value, so a caller
    that knows 1 - m exactly keeps K accurate as m -> 1.
    """
    return math.pi / (2.0 * _agm_levels(kc)[0])


def _landen_phase(phi, kc):
    """(phi_N, 2^N, 2^N agm) of the descending Landen sequence from phi, at
    m = 1 - kc^2, with tan(phi_{n+1} - phi_n) = (b_n / a_n) tan phi_n:
    F(phi | m) = phi_N / (2^N agm) and K(m) = 2^N (pi/2) / (2^N agm)
    (Abramowitz & Stegun 17.5, 17.6)."""
    agm, steps = _agm_levels(kc)
    for a, b in steps:
        t = math.atan(b / a * math.tan(phi))
        phi += t + math.pi * round((phi - t) / math.pi)
    scale = 2.0 ** len(steps)
    return phi, scale, scale * agm


def elliptic_k_linear_sin(*, kc):
    """Complete elliptic-type integral with a linear sine in the integrand,

        4 Int_0^{pi/2} [1 - kappa sin(theta)]^{-1/2} dtheta,  kappa = 1 - kc^2,

    in closed form: 8 / sqrt(1 + kappa) (K(m) - F(pi/4 | m)), m =
    2 kappa / (1 + kappa), whose complementary modulus kc / sqrt(2 - kc^2)
    carries no cancellation as kappa -> 1, nor does K - F =
    (2^N pi/2 - phi_N) / (2^N agm) (``_landen_phase``).
    """
    if not 0.0 < kc <= 1.0:
        raise DomainError(f"kc = {kc!r}: require 0 < kc <= 1, that is "
                          f"kappa = 1 - kc^2 in [0, 1)")
    root = math.sqrt(2.0 - kc * kc)
    phi, scale, den = _landen_phase(0.25 * math.pi, kc / root)
    return 8.0 / root * (scale * 0.5 * math.pi - phi) / den


def jacobi_sn_cn(u, *, kc):
    """Jacobi elliptic (sn(u | m), cn(u | m)), m = 1 - kc^2, on a float or
    an array, each accurate relative to its own size.

    The Gauss transformation (Bulirsch 1965): cn/sn starts as agm cot t,
    t = agm(1, kc) u, and goes down the Landen levels with dn by products
    and sums of positive terms; both ratios are kept times sin t, so that
    none overflows where sn vanishes.  Near u = K, cot t = tan(agm (K - u))
    is the reflection cn(u) = kc sn(K - u) / dn(K - u), so cn is as accurate
    as K - u, where cos(am u) is rounded in absolute terms.
    """
    agm, steps = _agm_levels(kc)
    t = agm * np.asarray(u, dtype=float)
    s, c = np.sin(t), np.cos(t)
    s2 = s * s
    ratio, cot, dn = c, agm * c, 1.0
    for a, b in reversed(steps):
        prod = ratio * cot
        cot = cot * dn
        dn = (b * s2 + prod) / (a * s2 + prod)
        ratio = cot / a
    norm = np.hypot(cot, s)
    return s / norm, cot / norm


# ---------------------------------------------------------------------------
# Hermite polynomials (physicists' convention), odd orders
# ---------------------------------------------------------------------------

def hermite_odd(order, arg):
    """H_n(arg) for odd n >= 1 by the recurrence H_{n+1} = 2x H_n - 2n H_{n-1}."""
    if order < 1 or order % 2 == 0:
        raise UsageError("hermite_odd requires an odd order >= 1")
    h_prev = np.ones_like(np.asarray(arg, dtype=float))
    h = 2.0 * np.asarray(arg, dtype=float)
    for n in range(1, order):
        h, h_prev = 2.0 * np.asarray(arg, dtype=float) * h - 2.0 * n * h_prev, h
    if np.ndim(arg) == 0:
        return float(h)
    return h


# ---------------------------------------------------------------------------
# Faddeeva function and the offset imaginary error function
# ---------------------------------------------------------------------------

# Rational (Weideman) approximation of the Faddeeva function on the upper
# half-plane, 64 terms, ~1e-15 relative error on |Im z| <= 2: the scale ell
# and the coefficients in descending powers, the doubles that the FFT of
# the construction gives (tests/oracles.py), so that no process imports
# numpy.fft for them
_WEIDEMAN_ELL = math.sqrt(64 / math.sqrt(2.0))
_WEIDEMAN_COEF = (
    -1.1102230246251565e-16, -1.942890293094024e-16, -1.6653345369377348e-16,
    0.0, -8.326672684688674e-17, 0.0, -2.0816681711721685e-16,
    -2.8449465006019636e-16, -1.1102230246251565e-16, -2.0122792321330962e-16,
    -5.551115123125783e-17, -1.734723475976807e-17, 0.0, 9.627715291671279e-17,
    2.3418766925686896e-17, 3.165870343657673e-17, 7.654467337747661e-17,
    7.03376159399971e-17, 9.717161970901333e-17, -6.197909481649166e-17,
    1.5863825959241615e-16, 4.865099962770973e-16, -8.855116948707824e-16,
    -4.417626009263682e-15, -2.6578462531507983e-16, 3.288807271621852e-14,
    5.911638969536339e-14, -1.5497006588478766e-13, -7.920773182343549e-13,
    -3.9390109339467e-13, 5.8326306509782436e-12, 1.7501411697665753e-11,
    -6.470633436423956e-12, -1.7560602473733885e-10, -4.5339138480823207e-10,
    2.4434796065217287e-10, 5.186955758228821e-09, 1.5926813974737932e-08,
    7.435710901039703e-09, -1.361026123703508e-07, -6.650424120290089e-07,
    -1.554772278284668e-06, -7.564244114006555e-08, 1.7901801586069494e-05,
    0.00010227006798914739, 0.0003962745103980934, 0.0012549788049981303,
    0.0034602079481075333, 0.008565381413175907, 0.019380399024538263,
    0.04055284652958008, 0.0791165506760257, 0.14477859973586413,
    0.24963969994535562, 0.4070443030398735, 0.6293868343374367,
    0.9249760252638086, 1.294437751717516, 1.727506085787117, 2.20125657128641,
    2.680732639559084, 3.1224481894020366, 3.480496103985042,
    3.7141697931977022)

_ISQRTPI = 1.0 / math.sqrt(math.pi)


def _weideman_w(z):
    # Horner evaluation of the Weideman rational approximation, Im z >= 0,
    # elementwise on a complex ndarray (a Python complex works as well).
    iz = 1j * z
    rm = _WEIDEMAN_ELL - iz
    ratio = (_WEIDEMAN_ELL + iz) / rm
    p = 0j
    for c in _WEIDEMAN_COEF:
        p = p * ratio + c
    return 2.0 * p / (rm * rm) + _ISQRTPI / rm


def faddeeva_w(z):
    """Faddeeva function w(z) = e^{-z^2} erfc(-iz) for Im z >= 0.

    Accepts scalars or arrays; vectorized rational evaluation.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag < -1e-300):
        raise DomainError("faddeeva_w is implemented for Im z >= 0")
    w = _weideman_w(z)
    if w.ndim == 0:
        return complex(w)
    return w


# the largest alpha whose e^{(alpha/2)^2} is a float (about 53.28)
_ALPHA_MAX = 2.0 * math.sqrt(math.log(np.finfo(float).max))


def _im_erf_parts(alpha, chi):
    """Common core: returns (x, y, Im[e^{-2ixy} w(-y + ix)]) with x = alpha|chi|."""
    if not (isinstance(alpha, (int, float)) and math.isfinite(alpha) and alpha > 0.0):
        raise DomainError("alpha must be a positive finite real")
    if alpha > _ALPHA_MAX:
        raise DomainError(f"alpha = {alpha} exceeds {_ALPHA_MAX:.4f}, above "
                          f"which e^((alpha/2)^2) overflows")
    chi_arr = np.asarray(chi, dtype=float)
    if not np.all(np.isfinite(chi_arr)):
        raise DomainError("chi must be finite")
    x = alpha * np.abs(chi_arr)
    y = 0.5 * alpha
    w = faddeeva_w(-y + 1j * x)
    phase = np.exp(-2j * x * y)
    return x, y, np.imag(phase * w)


def im_erf_offset(alpha, chi):
    """F(chi) = Im Erf(alpha (chi + i/2)).

    Even in chi; F(0) = erfi(alpha/2) > 0.  By conjugation symmetry the
    current bracket Erf[alpha(chi - i/2)] - Erf[alpha(chi + i/2)] equals
    -2i F(chi), so this single real function carries the whole closed form.
    """
    x, y, core = _im_erf_parts(alpha, chi)
    out = -np.exp(y * y - x * x) * core
    if out.ndim == 0:
        return float(out)
    return out


def im_erf_offset_scaled(alpha, chi):
    """e^{(alpha chi)^2} * F(chi): the Gaussian-cancelled form of F.

    This is the factor the quantum velocity field needs; evaluating it through
    the Faddeeva function avoids forming the catastrophic product of a huge
    exponential with a vanishing F.
    """
    x, y, core = _im_erf_parts(alpha, chi)
    out = -math.exp(y * y) * core
    if out.ndim == 0:
        return float(out)
    return out


def _kernel_slope(alpha, chi, scaled):
    """S'(chi) = 2 alpha^2 chi S(chi) - (2 alpha/sqrt(pi)) e^{alpha^2/4}
    sin(alpha^2 chi), the derivative of S = ``im_erf_offset_scaled``, at a
    float chi where S is scaled."""
    al2 = alpha * alpha
    amp = 2.0 * alpha * _ISQRTPI * math.exp(0.25 * al2)
    return 2.0 * al2 * chi * scaled - amp * math.sin(al2 * chi)

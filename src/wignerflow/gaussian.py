"""Gaussian-ensemble Wigner flow for the Toda-like model, non-perturbative.

The closed forms rest on one scalar kernel, F(chi) = Im Erf[alpha(chi + i/2)]:
by conjugation symmetry the current bracket
Erf[alpha(chi - i/2)] - Erf[alpha(chi + i/2)] equals -2i F(chi), so

    J_x = + (alpha/sqrt(pi)) F(x) sinh(k) e^{-alpha^2 k^2}
    J_k = - (a alpha/sqrt(pi)) F(k) sinh(x) e^{-alpha^2 x^2}

    dJ_x/dx = -2   sinh(k) sin(alpha^2 x) e^{alpha^2/4} G
    dJ_k/dk = +2 a sinh(x) sin(alpha^2 k) e^{alpha^2/4} G

The overall sign is fixed by the classical limit: the eta = 0 term of the
current series is sinh(k) dG/dx = -2 alpha^2 x sinh(k) G, which the Hermite
generating identity extends to the sine form above with the minus sign.
(The same expressions are sometimes quoted with the opposite overall sign,
which contradicts their own leading term; the truncated series oracle
``series_currents`` pins the choice.)

The velocity field w = J/G is evaluated in the Gaussian-cancelled form
w_x = (sqrt(pi)/alpha) e^{alpha^2 x^2} F(x) sinh(k), the exponential absorbed
into the kernel, so no large-times-small product is formed; the RK4 reads
the kernel inline from the piecewise table of ``_kernel_table``.
"""

import functools
import math

import numpy as np

from .bracket import bisect
from .errors import DomainError, NumericalError, UsageError
from .model import HamiltonianKind, PhasePoint, SeparableHamiltonian, energy
from .specfun import (_kernel_slope, hermite_odd, im_erf_offset,
                      im_erf_offset_scaled)

SQRT_PI = math.sqrt(math.pi)

# the cancelled velocity form is well-conditioned for alpha*max(|x|,|k|) <= 6
TRUST_FACTOR = 6.0


class GaussianEnsembleParams:
    """Gaussian spread parameter alpha and Toda anisotropy a."""

    def __init__(self, alpha, a=1.0):
        if not (isinstance(alpha, (int, float)) and alpha > 0.0
                and math.isfinite(alpha + TRUST_FACTOR / alpha)):
            raise DomainError(f"alpha = {alpha} must be positive and finite, "
                              f"and so must 6/alpha")
        if not (a > 0.0 and math.isfinite(a)):
            raise DomainError("a must be positive and finite")
        self.alpha, self.a = alpha, a

    def trust_limit(self):
        return TRUST_FACTOR / self.alpha


def _check_trust(params, x, k):
    """(x, k) as float arrays; DomainError if any node lies outside the
    velocity trust region.  An empty array passes."""
    x = np.asarray(x, dtype=float)
    k = np.asarray(k, dtype=float)
    lim = params.trust_limit()
    if np.any(np.abs(x) > lim) or np.any(np.abs(k) > lim):
        raise DomainError(
            f"point outside the velocity trust region |x|,|k| <= {lim:.4f} "
            f"(alpha = {params.alpha})")
    return x, k


# ---------------------------------------------------------------------------
# Wigner function, purity
# ---------------------------------------------------------------------------

def gaussian_w(params, x, k):
    """Isotropic Gaussian Wigner function (alpha^2/pi) e^{-alpha^2 (x^2+k^2)}."""
    x = np.asarray(x, dtype=float)
    k = np.asarray(k, dtype=float)
    al2 = params.alpha * params.alpha
    return al2 / math.pi * np.exp(-al2 * (x * x + k * k))


def purity(params):
    """2 pi Int W^2 = alpha^2: above 1 the ensemble is a formal over-pure
    Gaussian rather than a physical state; reported, not rejected."""
    return params.alpha * params.alpha


# ---------------------------------------------------------------------------
# closed-form currents and their divergences
# ---------------------------------------------------------------------------

def currents_closed(params, x, k):
    """Error-function closed form of the Wigner current (J_x, J_k)."""
    x = np.asarray(x, dtype=float)
    k = np.asarray(k, dtype=float)
    al = params.alpha
    return _current(params, x, k, im_erf_offset(al, x), im_erf_offset(al, k))


def _current(params, x, k, fx, fk):
    """(J_x, J_k) at (x, k) from the kernel values fx = F(x), fk = F(k)."""
    al, a = params.alpha, params.a
    pref = al / SQRT_PI
    jx = pref * fx * np.sinh(k) * np.exp(-al * al * k * k)
    jk = -a * pref * fk * np.sinh(x) * np.exp(-al * al * x * x)
    return jx, jk


def div_currents_closed(params, x, k):
    """(dJ_x/dx, dJ_k/dk) in closed form; each vanishes on both axes."""
    x = np.asarray(x, dtype=float)
    k = np.asarray(k, dtype=float)
    al, a = params.alpha, params.a
    al2 = al * al
    env = 2.0 * math.exp(al2 / 4.0) * gaussian_w(params, x, k)
    return (-env * np.sinh(k) * np.sin(al2 * x),
            env * a * np.sinh(x) * np.sin(al2 * k))


def stationarity_div_j(params, x, k):
    """div J = -dW/dtau: the stationarity quantifier.  Identically zero on
    the diagonal x = k when a = 1."""
    djx, djk = div_currents_closed(params, x, k)
    return djx + djk


# ---------------------------------------------------------------------------
# quantum velocity field and its quantifiers
# ---------------------------------------------------------------------------

# pieces double until within _TABLE_TOL max|S| (1 + alpha^2 |chi|) of the
# array kernel, whose own error against mpmath grows with alpha^2 |chi|
_TABLE_TOL = 16.0 * np.finfo(float).eps
_TABLE_MAX_POINTS = 512 * 7 + 1  # 512 pieces: every alpha up to 17


@functools.lru_cache(maxsize=8)
def _kernel_table(alpha):
    """(scale, coef): S = im_erf_offset_scaled(alpha, .) on the trust
    interval |chi| <= limit = TRUST_FACTOR/alpha as a piecewise table, for
    the RK4 of the quantum velocity field, whose right-hand side
    ``_velocity_rhs`` evaluates it.

    Piece i = int(u), u = scale |chi|, scale = pieces/limit, holds in row i
    of coef the coefficients (constant first) of the degree-7 interpolant
    of S at its Chebyshev-Lobatto points, in t = u - i - 1/2; a |chi| beyond
    limit, as RK4 stages reach, takes the last piece.  One product with a
    fixed matrix fits all pieces.  NumericalError, naming alpha, if
    _TABLE_MAX_POINTS nodes fail.
    """
    limit = TRUST_FACTOR / alpha
    # 15 Chebyshev-Lobatto points on [-1, 1]: nodes (even), check points (odd)
    pts = -np.cos(np.pi * np.arange(15) / 14)
    fit = np.linalg.inv(np.vander(pts[::2], increasing=True)).T * 2.0 ** np.arange(8)
    check = np.vander(0.5 * pts[1::2], 8, increasing=True).T
    n = 1
    while 7 * n + 1 <= _TABLE_MAX_POINTS:
        chi = limit / n * (np.arange(n)[:, None] + 0.5 + 0.5 * pts)
        s = im_erf_offset_scaled(alpha, chi)
        # scaled by 2^-e into [0.5, 1), so that the fit cannot overflow
        e = math.frexp(float(np.max(np.abs(s))))[1]
        s = np.ldexp(s, -e)
        # fitted relative to the first node, not to round a piece's mean
        coef = (s[:, ::2] - s[:, :1]) @ fit
        coef[:, 0] += s[:, 0]
        tol = _TABLE_TOL * np.max(np.abs(s)) * (1.0 + alpha * alpha * chi)
        if np.all(np.abs(coef @ check - s[:, 1::2]) <= tol[:, 1::2]):
            break
        n *= 2
    else:
        raise NumericalError(
            f"scaled kernel table for alpha = {alpha} did not converge "
            f"within {_TABLE_MAX_POINTS} nodes")
    return n / limit, np.ldexp(coef, e)


def _velocity_rhs(params):
    """w as a scalar f(x, k) for the RK4, the one evaluator of
    ``_kernel_table``: its pieces, times c = sqrt(pi)/alpha, inline for x
    and for k.  Even in x and k bit for bit."""
    scale, coef = _kernel_table(params.alpha)
    rows = (SQRT_PI / params.alpha * coef).tolist()
    a, sinh, top = params.a, math.sinh, float(len(rows))
    last = len(rows) - 1

    def rhs(x, k):
        u = scale * abs(x)
        i = int(u) if u < top else last
        t = u - i - 0.5
        b, c, d, e, f, g, h, p = rows[i]  # Horner, constant first
        sx = b + t * (c + t * (d + t * (e + t * (f + t * (g + t * (h + t * p))))))
        u = scale * abs(k)
        i = int(u) if u < top else last
        t = u - i - 0.5
        b, c, d, e, f, g, h, p = rows[i]
        sk = b + t * (c + t * (d + t * (e + t * (f + t * (g + t * (h + t * p))))))
        return sx * sinh(k), -a * sk * sinh(x)

    return rhs


def _trusted(form):
    """A velocity-family closed form with DomainError where (x, k) leaves
    the trust region or where the value overflows inside it: sinh and cosh
    leave the float range past |chi| = 710, which the region reaches for
    alpha below about 0.0085.  sample_field runs the unchecked form,
    ``__wrapped__``: it masks the region itself and flags overflowing nodes
    valid = 0."""

    @functools.wraps(form)
    def checked(params, x, k):
        x, k = _check_trust(params, x, k)
        with np.errstate(over="ignore", invalid="ignore"):
            value = form(params, x, k)
        if not np.isfinite(value).all():
            raise DomainError(
                f"{form.__name__} overflows inside the trust region at "
                f"alpha = {params.alpha}, a = {params.a}")
        return value

    return checked


@_trusted
def velocity_w(params, x, k):
    """Quantum velocity w = J / G in the analytically cancelled form.

    w_x depends on x only through the scaled kernel and on k through sinh;
    the classical equilibrium at the origin survives: w(0, 0) = (0, 0).
    """
    al, a = params.alpha, params.a
    c = SQRT_PI / al
    wx = c * im_erf_offset_scaled(al, x) * np.sinh(k)
    wk = -a * c * im_erf_offset_scaled(al, k) * np.sinh(x)
    return wx, wk


@_trusted
def liouville_div_w(params, x, k):
    """div w, the quantumness (non-Liouville) quantifier, in closed form.

    Zero at the origin, nonzero generically; equals
    (W div J - J . grad W) / W^2 with the Gaussian cancelled analytically:
    2 e^{alpha^2/4} (D(x) sinh k - a D(k) sinh x), D = ``_kernel_slope``,
    with the exponential multiplied last, so that no term overflows.
    """
    al, a = params.alpha, params.a
    dx = _kernel_slope(al, x, im_erf_offset_scaled(al, x))
    dk = _kernel_slope(al, k, im_erf_offset_scaled(al, k))
    return 2.0 * (dx * np.sinh(k) - a * dk * np.sinh(x)) * math.exp(al * al / 4)


@_trusted
def vorticity(params, x, k):
    """z-component of the curl of the velocity field, dw_k/dx - dw_x/dk.

    The classical limit is minus the phase-space Laplacian of the
    Hamiltonian, -(a cosh x + cosh k).  The quantum value is exact: w_x
    depends on k only through sinh k and w_k on x only through sinh x, so
    the curl is -(sqrt(pi)/alpha) (a S(k) cosh x + S(x) cosh k) with S the
    scaled kernel e^{(alpha chi)^2} F(chi).
    """
    al, a = params.alpha, params.a
    c = SQRT_PI / al
    return -c * (a * im_erf_offset_scaled(al, k) * np.cosh(x)
                 + im_erf_offset_scaled(al, x) * np.cosh(k))


# the grid table of fieldgrid.sample_field: quantity -> (closed form,
# component as fieldgrid._evaluate reads it); the @_trusted velocity family
# is masked to the trust region, where its unchecked form runs
GRID_QUANTITIES = {
    "g": (gaussian_w, None),
    "jx": (currents_closed, 0),
    "jk": (currents_closed, 1),
    "j": (currents_closed, (0, 1)),
    "divj": (stationarity_div_j, None),
    "wx": (velocity_w, 0),
    "wk": (velocity_w, 1),
    "w": (velocity_w, (0, 1)),
    "divw": (liouville_div_w, None),
    "vort": (vorticity, None),
}


# ---------------------------------------------------------------------------
# truncated series reference for the divergences
# ---------------------------------------------------------------------------

def series_currents(params, x, k, eta_max):
    """(dJ_x/dx, dJ_k/dk) truncated at series order eta_max.

    eta_max = 0 is the classical divergence (sinh k dG/dx, -a sinh x dG/dk);
    the sum converges to the closed sine form as eta_max grows.
    """
    if eta_max > 25:
        raise UsageError("eta_max above 25 exceeds the factorial guard")
    if eta_max < 0:
        raise UsageError("eta_max must be >= 0")
    x = np.asarray(x, dtype=float)
    k = np.asarray(k, dtype=float)
    al, a = params.alpha, params.a
    g = gaussian_w(params, x, k)
    coeff = al  # alpha^{2 eta + 1} / (4^eta (2 eta + 1)!)
    djx = djk = 0.0
    for eta in range(eta_max + 1):
        if eta > 0:
            coeff *= al * al / (4.0 * (2.0 * eta) * (2.0 * eta + 1.0))
        sign = -1.0 if eta % 2 else 1.0
        djx += -sign * coeff * hermite_odd(2 * eta + 1, al * x) * np.sinh(k) * g
        djk += a * sign * coeff * hermite_odd(2 * eta + 1, al * k) * np.sinh(x) * g
    return djx, djk


# ---------------------------------------------------------------------------
# flow topology: circulation and stagnation points
# ---------------------------------------------------------------------------

def circulation_number(params, center, radius):
    """Circulation sense of the flow around a counterclockwise circle.

    Returns +1.0 when the velocity circulates the loop monotonically
    counterclockwise, -1.0 for monotonically clockwise, and 0.0 otherwise
    (saddles, nodes and loops that enclose no stagnation point all give 0:
    their tangential velocity component changes sign around the loop).  The
    +-1 values carry the measured direction-field winding, which is an
    integer to well below 1e-3 for any loop avoiding zeros of the field.
    """
    if radius <= 0.0:
        raise UsageError("radius must be positive")
    phi = 2.0 * math.pi * np.arange(720) / 720
    wx, wk = velocity_w(params, center.x + radius * np.cos(phi),
                        center.k + radius * np.sin(phi))
    speed = np.hypot(wx, wk)
    if np.min(speed) < 1e-12:
        raise NumericalError(
            "velocity magnitude below 1e-12 on the loop; shrink or expand "
            "the radius", payload=float(np.min(speed)))
    tangential = (-np.sin(phi) * wx + np.cos(phi) * wk) / speed
    # accumulated direction angle around the closed loop, wrapped per step
    theta = np.arctan2(wk, wx)
    dtheta = np.diff(np.concatenate([theta, theta[:1]]))
    dtheta = (dtheta + math.pi) % (2.0 * math.pi) - math.pi
    winding = float(np.sum(dtheta)) / (2.0 * math.pi)
    if np.min(tangential) > 0.0:
        return abs(winding)
    if np.max(tangential) < 0.0:
        return -abs(winding)
    return 0.0


# on 68 alphas from 0.52 to 53.28, where the kernel has zeros, the computed
# kernel is within 8 eps (|chi S'| + |S|) of S at the double alpha^2 it
# reads (test_specfun), so its sign is right more than about 8 eps chi from
# a zero: a point evaluated on one side lies within that of the zero, and a
# midpoint more than 16 eps chi past it has a certain sign; _ZERO_MARGIN
# chi, 32 eps chi, is twice that (on 57 alphas, every sign change of the
# scalar kernel lies within 1 eps chi of the bisection's zero)
_ZERO_MARGIN = 2.0 ** -47


def _kernel_zeros(params, upper):
    """Zeros of the current kernel F(chi) on (0, upper], to adjacent floats.

    F'(chi) = -(2 alpha/sqrt(pi)) e^{alpha^2/4} e^{-alpha^2 chi^2}
    sin(alpha^2 chi), so F is strictly monotone between the nodes
    n pi/alpha^2.  Each node interval, cut at upper, thus holds a zero
    exactly where the scaled kernel differs in sign at its ends, and
    ``_kernel_zero`` finds it."""
    al = params.alpha
    # where alpha^2 underflows, the first extremum of F is beyond any float
    step = math.pi / (al * al) if al * al > 0.0 else math.inf
    nodes = step * np.arange(math.ceil(upper / step))
    nodes = np.append(nodes[nodes < upper], upper)
    up = im_erf_offset_scaled(al, nodes) > 0.0
    return [_kernel_zero(al, float(nodes[i]), float(nodes[i + 1]), up[i])
            for i in np.flatnonzero(up[:-1] != up[1:])]


def _kernel_zero(alpha, lo, hi, positive):
    """The midpoint of the adjacent floats on which the bisection of
    [lo, hi] by the sign of the scaled kernel S stops; positive is whether
    S(lo) > 0.

    Newton's method, S/S' = (sqrt(pi)/(2 alpha)) (S/e^{alpha^2/4})/D with
    D = ``_kernel_slope``, safeguarded inside the bracket, first narrows it
    to [a, b], a and b evaluated on either side of the zero: a step that
    leaves the bracket or is more than half the step before it gives way to
    the midpoint, and each step overshoots by a quarter of the target
    width, so that the iterates fall on both sides.
    Then ``bisect`` runs on [lo, hi] again: a midpoint more than
    _ZERO_MARGIN chi outside [a, b] lies where the sign of S is certain, so
    only the midpoints within that margin call the kernel.  It thus stops
    on the bisection's own pair of floats, also where rounding flips the
    sign of S more than once next to the zero (at 14 of 3202 zeros for
    alpha in [0.1, 17]), where a Newton iteration run down to adjacent
    floats can end on another pair."""
    a, b = lo, hi
    chi = 0.5 * (a + b)
    step = before = b - a
    half, e4 = 0.5 * SQRT_PI / alpha, math.exp(0.25 * alpha * alpha)
    while b - a > _ZERO_MARGIN * b:
        value = im_erf_offset_scaled(alpha, chi)
        if (value > 0.0) == positive:
            a = chi
        else:
            b = chi
        slope = _kernel_slope(alpha, chi, value)
        before, step = step, half * (value / e4) / slope if slope else math.inf
        chi -= step + math.copysign(0.25 * _ZERO_MARGIN * b, step)
        if not a < chi < b or abs(step) > 0.5 * abs(before):
            step = 0.5 * (b - a)
            chi = a + step
    a -= _ZERO_MARGIN * b
    b += _ZERO_MARGIN * b
    lo, hi = bisect(lambda m: m < a or (
        m <= b and (im_erf_offset_scaled(alpha, m) > 0.0) == positive), lo, hi)
    return 0.5 * (lo + hi)


class StagnationPoint:
    """Located zero of the Wigner current with its circulation class:
    'vortex_cw' (the origin) or 'saddle_or_separatrix'."""

    def __init__(self, location, residual, circulation, kind):
        self.location, self.residual = location, residual
        self.circulation, self.kind = circulation, kind

    def row(self):
        """The point as one table or JSON row: x, k, residual, circulation
        and class."""
        return {"x": self.location.x, "k": self.location.k,
                "residual": self.residual, "circulation": self.circulation,
                "class": self.kind}


def find_stagnation_points(params, bbox):
    """All zeros of the current inside bbox = (x_lo, x_hi, k_lo, k_hi),
    sorted by (x, k), each with its residual |J| and exact class.

    The zero set is separable: J_x = 0 on {k = 0} and {F(x) = 0}, J_k = 0 on
    {x = 0} and {F(k) = 0}, so stagnation points are the origin plus the
    lattice of kernel-zero pairs (``_kernel_zeros``).  The linearisation of
    w = (c S(x) sinh k, -a c S(k) sinh x) fixes each class.  At the origin
    the Jacobian is [[0, c S(0)], [-a c S(0), 0]] with S(0) = erfi(alpha/2)
    > 0, a clockwise centre: circulation -1.0, class 'vortex_cw'.  At a
    kernel-zero pair S vanishes in both components, so the Jacobian is
    diagonal with real eigenvalues and no loop is circled monotonically:
    circulation 0.0, class 'saddle_or_separatrix'.  ``circulation_number``
    measures the same values on loops around the points.  The residual of
    each point is |J| from the closed form of ``currents_closed``, with F,
    which is even to the bit, evaluated once per distinct |coordinate|.
    """
    x_lo, x_hi, k_lo, k_hi = bbox
    if not (x_lo < x_hi and k_lo < k_hi):
        raise UsageError("bbox must satisfy x_lo < x_hi and k_lo < k_hi")
    _check_trust(params, (x_lo, x_hi), (k_lo, k_hi))
    upper = max(abs(x_lo), abs(x_hi), abs(k_lo), abs(k_hi))
    xs = [0.0] + [s * z for z in _kernel_zeros(params, upper)
                  for s in (+1.0, -1.0)]
    # axis points off the origin carry current
    coords = sorted({(cx, ck) for cx in xs for ck in xs
                     if (cx == 0.0) == (ck == 0.0)
                     and x_lo <= cx <= x_hi and k_lo <= ck <= k_hi})
    # |J| at a root is rounding noise, and numpy rounds a complex product on
    # 0-d and on 1-d arrays differently: F by one scalar call per |coordinate|
    with np.errstate(all="ignore"):
        kernel = {c: im_erf_offset(params.alpha, c)
                  for c in {abs(v) for pair in coords for v in pair}}
        residuals = [float(np.hypot(*_current(params, cx, ck,
                                              kernel[abs(cx)],
                                              kernel[abs(ck)])))
                     for cx, ck in coords]
    if not all(map(math.isfinite, residuals)):
        raise DomainError(f"the current leaves the float range at alpha = "
                          f"{params.alpha}, a = {params.a}")
    return [StagnationPoint(
                location=PhasePoint(cx, ck), residual=residual,
                circulation=-1.0 if cx == 0.0 else 0.0,
                kind="vortex_cw" if cx == 0.0 else "saddle_or_separatrix")
            for (cx, ck), residual in zip(coords, residuals)]


# ---------------------------------------------------------------------------
# semiclassical trajectories of the quantum velocity field
# ---------------------------------------------------------------------------

def integrate_quantum_trajectory(params, start, step, duration):
    """Integrate dxi/dtau = w(xi) from start and tabulate the classical Toda
    companion from the same start at the same times, in closed form
    (``classical.toda_orbit``); returns (quantum, classical).
    NumericalError if the quantum leg leaves the trust region (carrying the
    partial leg) or a stage overflows."""
    # imported here, so that field and stagnation never compile classical
    from .classical import Trajectory, _rk4, _time_grid, toda_orbit
    _check_trust(params, start.x, start.k)
    tau = _time_grid(step, duration)
    lim = params.trust_limit()

    def outside(x, k):
        return abs(x) > lim or abs(k) > lim

    flow = _velocity_rhs(params)
    try:
        xs, ks = _rk4(flow, start.x, start.k, step, len(tau) - 1, outside)
    except OverflowError:
        raise NumericalError(f"an RK4 stage left the float range at alpha = "
                             f"{params.alpha:g}, dt = {step:g}") from None
    tau = tau[:len(xs)]
    quantum = Trajectory(tau=tau, x=xs, k=ks, flow=flow)
    if outside(xs[-1], ks[-1]):
        raise NumericalError(
            f"quantum trajectory left the trust region at tau = {tau[-1]:.4f}",
            payload=quantum)
    model = SeparableHamiltonian(HamiltonianKind.TODA, params.a)
    return quantum, toda_orbit(model, energy(model, start.x, start.k), tau,
                               start)

"""Classical dynamics: Hamilton equations, exact orbital periods, closed-form
Toda orbits and energy-audited RK4 orbit integration.

The period of a closed orbit is not measured on a trajectory: ``period``
evaluates the time-of-flight integral T = (closed integral of)
dx / K'(k(x)) of the level curve (Landau & Lifshitz, Mechanics, section
11) from the energy gap g = eps - 1 - a.  ``measured_orbit`` tabulates the
orbit once, over the span it returns: a Toda orbit, for every a, in closed
form (``toda_orbit``), an LV orbit by the one fixed-step RK4 core,
``_rk4``, which also drives the quantum leg of ``gaussian``.

The isotropic Toda species have their own closed form,
``toda_species_series``, at the frequency T+/2 and parameter kappa.  The
closed-form summary keeps two period values side by side:
``period_formula`` is the paper's literal expression built on the
linear-sine elliptic integral, and ``period_ode`` is the exact orbital
period 4 K(kappa) / T+.  The two disagree (the formula diverges in the
harmonic limit where the period tends to 2 pi), so the ratio is reported
per energy and nothing is asserted about their equality.
"""

import math

import numpy as np

from .bracket import bisect
from .errors import DomainError, NumericalError, UsageError
from .model import HamiltonianKind, PhasePoint, SeparableHamiltonian, energy
from .specfun import (QuadratureSpec, _landen_phase, elliptic_k_complete,
                      elliptic_k_linear_sin, integrate_1d, jacobi_sn_cn)
from .tables import column_table


# RK4 steps per integration; a longer run is refused before any allocation
MAX_RK4_STEPS = 10_000_000

# an orbit whose energy drifts by more than ten times this fails its audit
DRIFT_TOLERANCE = 1e-8


def _rhs_scalar(h):
    """Hamilton's equations (dx/dtau, dk/dtau) = (dH/dk, -dH/dx) as a scalar
    function f(x, k), a bound once; f vanishes at the origin."""
    a, sinh, exp = h.a, math.sinh, math.exp
    if h.kind is HamiltonianKind.TODA:
        return lambda x, k: (sinh(k), -a * sinh(x))
    return lambda x, k: (1.0 - exp(-k), a * (exp(-x) - 1.0))


def section_start(h, eps):
    """Point on the k = 0 section (x > 0 side) of the level curve H = eps.
    With d = (eps - 1 - a)/a it solves 2 sinh^2(x/2) = d (Toda) or
    x + e^-x = 1 + d (LV), to a few ulps, since 1 + d is never rounded."""
    gap = eps - 1.0 - h.a
    if not gap > 0.0:
        raise DomainError(f"closed orbits require eps > 1 + a = {1.0 + h.a}")
    d = gap / h.a
    if h.kind is HamiltonianKind.LV:
        return PhasePoint(_lv_root(d, 1.0), 0.0)
    return PhasePoint(2.0 * math.asinh(math.sqrt(0.5 * d)), 0.0)


class OrbitSpec:
    """Parameters of one orbit integration run."""

    def __init__(self, model, eps, start, step=1e-3, duration=60.0):
        # equality holds only for the equilibrium point itself, which is a
        # valid degenerate trajectory when started from an explicit point
        if eps < 1.0 + model.a:
            raise DomainError(
                f"eps = {eps} violates the closed-orbit constraint "
                f"eps > 1 + a = {1.0 + model.a}")
        _require_span(step, duration)
        self.model, self.eps, self.start = model, eps, start
        self.step, self.duration = step, duration

    @classmethod
    def from_energy(cls, model, eps, **kw):
        return cls(model=model, eps=float(eps),
                   start=section_start(model, float(eps)), **kw)

    @classmethod
    def from_point(cls, model, start, **kw):
        return cls(model=model, eps=energy(model, start.x, start.k), start=start,
                   **kw)


class Trajectory:
    """Time-stamped samples (x, k), the species y = e^-x (predator), z = e^-k
    (prey), and flow(x, k) = (dx/dtau, dk/dtau), the field they follow."""

    def __init__(self, tau, x, k, flow, energy_residual=None):
        self.tau, self.x, self.k, self.flow = tau, x, k, flow
        self.y, self.z = np.exp(-x), np.exp(-k)
        self.energy_residual = energy_residual

    def __len__(self):
        return len(self.tau)

    @property
    def max_drift(self):
        if self.energy_residual is None:
            return None
        return float(np.max(np.abs(self.energy_residual)))

    def table(self):
        """Columns tau, x, k, y, z and, where present, energy_residual."""
        names = ("tau", "x", "k", "y", "z", "energy_residual")
        return column_table({n: getattr(self, n) for n in names
                             if getattr(self, n) is not None})


def _time_grid(step, duration):
    """The times tau = j step, j = 0 .. round(duration / step), of a run,
    once 0 < step < duration < inf and the step count is within the work
    budget."""
    _require_span(step, duration)
    n = duration / step
    _require_steps(n)
    return step * np.arange(round(n) + 1)


def _require_span(step, duration):
    """Refuse a run unless 0 < step < duration < inf."""
    if not 0.0 < step < duration < math.inf:
        raise DomainError(f"step = {step}, duration = {duration}: "
                          f"require 0 < step < duration < inf")


def _require_steps(n_steps):
    """Refuse more than MAX_RK4_STEPS steps before anything is allocated."""
    if n_steps > MAX_RK4_STEPS:
        raise UsageError(f"{n_steps:.3g} RK4 steps exceed the work budget of "
                         f"{MAX_RK4_STEPS} steps per integration")


def _rk4(f, x, k, h, n_steps, stop=None):
    """n_steps classical RK4 steps of (dx, dk)/dtau = f(x, k) from (x, k).

    Returns (xs, ks), the n_steps + 1 states.  A run that reaches a state
    where stop(x, k) holds ends there.
    """
    _require_steps(n_steps)
    xs, ks = np.empty(n_steps + 1), np.empty(n_steps + 1)
    xs[0], ks[0] = x, k
    h2 = 0.5 * h
    for i in range(1, n_steps + 1):
        d1x, d1k = f(x, k)
        d2x, d2k = f(x + h2 * d1x, k + h2 * d1k)
        d3x, d3k = f(x + h2 * d2x, k + h2 * d2k)
        d4x, d4k = f(x + h * d3x, k + h * d3k)
        x += h * (d1x + 2.0 * (d2x + d3x) + d4x) / 6.0
        k += h * (d1k + 2.0 * (d2k + d3k) + d4k) / 6.0
        xs[i], ks[i] = x, k
        if stop is not None and stop(x, k):
            return xs[:i + 1], ks[:i + 1]
    return xs, ks


def integrate_orbit(spec):
    """Fixed-step 4th-order integration of round(duration / step) steps
    with a per-run energy-drift audit.

    Raises NumericalError (carrying the trajectory) if the drift exceeds
    ten times ``DRIFT_TOLERANCE``, and NumericalError naming eps and the
    step if a stage overflows.
    """
    tau = _time_grid(spec.step, spec.duration)
    flow = _rhs_scalar(spec.model)
    try:
        xs, ks = _rk4(flow, spec.start.x, spec.start.k, spec.step,
                      len(tau) - 1)
    except OverflowError:
        raise NumericalError(
            f"an RK4 stage left the float range at eps = {spec.eps:g}, "
            f"dt = {spec.step:g}: the step is too coarse for this "
            f"energy") from None
    residual = energy(spec.model, xs, ks) - spec.eps
    return _audited(Trajectory(tau=tau, x=xs, k=ks, flow=flow,
                               energy_residual=residual))


def _audited(traj):
    """traj, once its energy drift is within ten times DRIFT_TOLERANCE;
    otherwise NumericalError carrying it."""
    if traj.max_drift > 10.0 * DRIFT_TOLERANCE:
        raise NumericalError(
            f"energy drift {traj.max_drift:.3e} exceeds 10 x tolerance "
            f"{DRIFT_TOLERANCE:.1e}", payload=traj)
    return traj


def _hermite(s, h, v0, v1, d0, d1):
    """The cubic Hermite interpolant at s in [0, 1] of a step of length h
    with end values v0, v1 and end rates d0, d1."""
    h00 = (1.0 + 2.0 * s) * (1.0 - s) ** 2
    h10 = s * (1.0 - s) ** 2
    h01 = s * s * (3.0 - 2.0 * s)
    h11 = s * s * (s - 1.0)
    return h00 * v0 + h10 * h * d0 + h01 * v1 + h11 * h * d1


def _hermite_crossing(t0, t1, x0, x1, d0, d1):
    """Zero of the cubic Hermite interpolant of x on [t0, t1] (x0, x1 straddle 0)."""
    h = t1 - t0
    lo, hi = bisect(lambda s: (_hermite(s, h, x0, x1, d0, d1) > 0.0)
                    == (x0 > 0.0), 0.0, 1.0)
    return t0 + h * 0.5 * (lo + hi)


def _rising(v):
    """Mask over the sample intervals i with v[i] < 0 <= v[i + 1]."""
    return (v[:-1] < 0.0) & (v[1:] >= 0.0)


def return_to_start(traj):
    """First full return of a closed orbit to its starting point.

    Detects the first crossing of k through its initial value in the initial
    direction of motion and on the starting side in x, then takes the
    crossing time and |x - x0| there on the cubic Hermite interpolants of k
    and x, rates from ``traj.flow``.  Where x moves faster than k at the
    start (k turns there, as on the k axis), x and k swap roles.  Returns
    (return_time, closure).
    """
    xs, ks, tau, flow = traj.x, traj.k, traj.tau, traj.flow
    rate = flow(xs[0], ks[0])
    if abs(rate[0]) > abs(rate[1]):
        xs, ks, rate = ks, xs, rate[::-1]
        flow = lambda k, x, f=flow: f(x, k)[::-1]
    x0, dk = xs[0], ks - ks[0]
    crossing = _rising(-dk if rate[1] < 0.0 else dk)
    crossing &= np.copysign(1.0, xs[:-1]) == math.copysign(1.0, x0)
    hits = np.flatnonzero(crossing[1:])
    if not len(hits):
        raise NumericalError("trajectory does not return to its section "
                             "within the integrated duration", payload=traj)
    i = hits[0] + 1
    h = tau[i + 1] - tau[i]
    (dx0, dk0), (dx1, dk1) = flow(xs[i], ks[i]), flow(xs[i + 1], ks[i + 1])
    t_star = _hermite_crossing(tau[i], tau[i + 1], dk[i], dk[i + 1], dk0, dk1)
    x_star = _hermite((t_star - tau[i]) / h, h, xs[i], xs[i + 1], dx0, dx1)
    return float(t_star), float(abs(x_star - x0))


# ---------------------------------------------------------------------------
# exact periods by time of flight
# ---------------------------------------------------------------------------

# the LV integrand below is analytic on its closed intervals, so the
# quadrature's error estimate is far above its actual error (a few 1e-16)
_PERIOD_QUAD = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-13,
                              max_subdivisions=200)


def _exp_tail(d):
    """e^d - 1 - d, to about two ulps, where expm1(d) - d would cancel: by
    its Taylor series for |d| <= 0.1, and up to |d| = 2 by the halving
    tail(d) = expm1(d/2)^2 + 2 tail(d/2), a sum of terms >= 0."""
    if abs(d) > 2.0:
        return math.expm1(d) - d
    if abs(d) > 0.1:
        t = math.expm1(0.5 * d)
        return t * t + 2.0 * _exp_tail(0.5 * d)
    t = 1.0
    for n in range(11, 2, -1):
        t = 1.0 + d * t / n
    return 0.5 * d * d * t


def _lv_root(g, side):
    """The root v of v + e^-v = 1 + g, g > 0, with the sign of side: a
    momentum branch k+- of the LV level curve, or (for g = (eps - 1 - a)/a)
    one of its turning points x+-.

    Halley's method on e^-v - 1 + v = g, started from the series
    v = +-p + p^2/6 +- p^3/36 in p = sqrt(2 g) for small g and from
    v+ = c - e^-c, v- = -ln(c + ln c) (c = 1 + g) for large g.  It
    converges cubically, so a step below 1e-7 |v| leaves an error far below
    float resolution; that takes at most three steps for g from 1e-15 to 1e3.
    """
    p = math.sqrt(2.0 * g)
    c = 1.0 + g
    if side > 0:
        v = p + p * p / 6.0 + p ** 3 / 36.0 if g <= 1.0 else c - math.exp(-c)
    else:
        v = -p + p * p / 6.0 - p ** 3 / 36.0 if g <= 3.0 else -math.log(
            c + math.log(c))
    for _ in range(8):
        f = _exp_tail(-v) - g
        if f == 0.0:
            return v
        slope = -math.expm1(-v)  # 1 - e^-v; the curvature is e^-v
        newton = f / slope  # Halley's factor: f e^-v / slope^2 overflows
        step = newton / (1.0 - 0.5 * newton * ((1.0 - slope) / slope))
        v -= step
        if abs(step) <= 1e-7 * abs(v):
            return v
    raise NumericalError(f"root of v + e^-v = 1 + {float(g)!r} did not "
                         f"converge")


def _toda_period_closed(a, gap):
    """The Toda period at the energy gap g = eps - 1 - a > 0.  In c = cosh x
    the time of flight is T = 4 Int_1^c1 dc / sqrt((c^2 - 1)((eps - a c)^2
    - 1)), a quartic with the real roots -1, 1 and c1,2 = (eps -+ 1)/a, so
    (Byrd & Friedman 1971, 252.00) T = 8 K(k_c) / (p q) with p = sqrt(g + 2),
    q = sqrt(g + 2 a) and k_c = 2 sqrt(a) / (p q): no difference to cancel,
    and no product that could overflow."""
    pq = math.sqrt(gap + 2.0) * math.sqrt(gap + 2.0 * a)
    return 8.0 * elliptic_k_complete(kc=2.0 * math.sqrt(a) / pq) / pq


def _lv_half_period(a, x_edge):
    """Time the LV orbit spends with x between 0 and its turning point
    x_edge, on both branches k+ > 0 (dx/dtau = 1 - e^-k > 0) and k- < 0.
    With x = x_edge - d, d = +-s^2, the gap
    g = k + e^-k - 1 = a (x_edge + e^-x_edge - x - e^-x)
      = a ((1 - e^-x_edge) d - e^-x_edge (e^d - 1 - d))
    has no cancellation.  From d = 1 on (x_edge > 1 only, so d <= x_edge)
    the last term is taken as e^(d - x_edge) - e^-x_edge (1 + d), which
    cannot overflow.  On the side x_edge < 0, where e^-x_edge and each term
    may leave the float range before g does, e^-x_edge is factored out."""
    side = math.copysign(1.0, x_edge)
    slope, curve = -math.expm1(-x_edge), math.exp(-x_edge)

    def dtau_ds(s):
        d = side * s * s
        if side < 0.0:
            g = a * (curve * (slope / curve * d - _exp_tail(d)))
        elif d < 1.0:
            g = a * (slope * d - curve * _exp_tail(d))
        else:
            g = a * (slope * d - math.exp(d - x_edge) + curve * (1.0 + d))
        return 2.0 * s * (1.0 / math.expm1(-_lv_root(g, -1.0))
                          - 1.0 / math.expm1(-_lv_root(g, 1.0)))

    return integrate_1d(dtau_ds, 0.0, math.sqrt(abs(x_edge)), _PERIOD_QUAD)


def period(model, eps):
    """Exact period of the closed orbit H = eps: the time of flight
    T = (closed integral of) dx / K'(k(x)) along the level curve, in closed
    form for Toda (``_toda_period_closed``), and for LV by quadrature on
    ``integrate_1d`` after a substitution x = x_edge -+ s^2 that removes the
    square-root singularity at each turning point, over the halves x > 0
    and x < 0, each on both momentum branches.  Both agree with
    high-precision evaluations to a few 1e-16 relative.  At eps = 1 + a,
    the equilibrium, it is the small-oscillation limit 2 pi / sqrt(a).
    """
    a = model.a
    if not 1.0 + a <= eps < math.inf:
        raise DomainError(f"eps = {eps}: a closed orbit needs "
                          f"1 + a = {1.0 + a} <= eps < inf")
    gap = eps - 1.0 - a
    if gap <= 0.0:  # the equilibrium, to rounding
        return 2.0 * math.pi / math.sqrt(a)
    if model.kind is HamiltonianKind.TODA:
        return _toda_period_closed(a, gap)
    return sum(_lv_half_period(a, _lv_root(gap / a, side))
               for side in (1.0, -1.0))


def measured_orbit(model, start, step, periods):
    """(period, trajectory): the exact period of the orbit through start
    (``period``) and the orbit over max(periods x period, 2 step) on the
    grid of round(duration / step) steps: ``toda_orbit`` for Toda, one
    ``integrate_orbit`` run for LV.

    The equilibrium (0, 0) is a fixed point with no period: it raises
    NumericalError before any integration.  periods must be positive and
    finite.
    """
    if not 0.0 < periods < math.inf:
        raise DomainError(f"periods = {periods}: require 0 < periods < inf, "
                          f"so that 0 < duration < inf")
    if start.x == 0.0 and start.k == 0.0:
        raise NumericalError("the start (0, 0) is the equilibrium, a fixed "
                             "point with no period")
    eps = float(energy(model, start.x, start.k))
    t = period(model, eps)
    duration = max(periods * t, 2.0 * step)
    if model.kind is HamiltonianKind.LV:
        return t, integrate_orbit(OrbitSpec(model, eps, start, step=step,
                                            duration=duration))
    return t, toda_orbit(model, eps, _time_grid(step, duration), start)


# ---------------------------------------------------------------------------
# closed-form Toda solutions
# ---------------------------------------------------------------------------

# toda_orbit holds H to about 2.6e-15 eps, rounding that above this energy
# could reach the drift audit's bound 10 DRIFT_TOLERANCE
TODA_ORBIT_EPS_MAX = 1e7


def _toda_phase(a, start, taus):
    """(x, k) at the times taus (an array) on the Toda orbit through
    start (x0, k0); rows at tau = 0 hold the start itself.  With the gap
    g = 2 sinh^2(k0/2) + 2a sinh^2(x0/2), p = sqrt(g + 2), q = sqrt(g + 2a),
    sn, cn at u = p q tau / 2 + u0 and kc = 2 sqrt(a)/(p q), D = 2 + g cn^2
    (Byrd & Friedman 256.00): x = 2 asinh(cn sqrt(g/D) p / sqrt(2a)),
    k = -2 asinh(sn sqrt(g/D)), where cn sqrt(g/D) <= 1 and nothing
    cancels.  sn(u0) : cn(u0) = -p sinh(k0/2) : sqrt(2a) sinh(x0/2) gives
    u0 = F(phi0), or 2K - F(phi0) for x0 < 0, phi0 = asin(sn(u0)), by atan2
    (no asin near +-1, no division by g)."""
    sk, sx = math.sinh(0.5 * start.k), math.sinh(0.5 * start.x)
    g = 2.0 * sk * sk + 2.0 * a * sx * sx
    p, q = math.sqrt(g + 2.0), math.sqrt(g + 2.0 * a)
    kc = min(1.0, 2.0 * math.sqrt(a) / (p * q))
    phi, scale, den = _landen_phase(
        math.atan2(-p * sk, math.sqrt(2.0 * a) * abs(sx)), kc)
    u0 = (phi if start.x >= 0.0 else scale * math.pi - phi) / den
    sn, cn = jacobi_sn_cn(0.5 * p * q * taus + u0, kc=kc)
    root = np.sqrt(g / (2.0 + g * cn * cn))
    # 0.0 + y turns a -0.0 into 0.0
    x = 0.0 + 2.0 * np.arcsinh(cn * root * (p / math.sqrt(2.0 * a)))
    k = 0.0 - 2.0 * np.arcsinh(sn * root)
    return np.where(taus == 0.0, start.x, x), np.where(taus == 0.0, start.k, k)


def toda_orbit(model, eps, taus, start=None):
    """The Toda orbit H = eps at the times taus from start (by default the
    section start), in closed form (``_toda_phase``): a Trajectory whose
    energy_residual H - eps is audited as in ``integrate_orbit``.  Energies
    above TODA_ORBIT_EPS_MAX are a DomainError."""
    if not eps <= TODA_ORBIT_EPS_MAX:
        raise DomainError(
            f"eps = {eps:g}: the closed-form Toda orbit holds H = eps to the "
            f"drift audit's {10.0 * DRIFT_TOLERANCE:g} only up to eps = "
            f"{TODA_ORBIT_EPS_MAX:g}")
    taus = np.asarray(taus, dtype=float)
    x, k = _toda_phase(model.a, section_start(model, eps) if start is None
                       else start, taus)
    return _audited(Trajectory(tau=taus, x=x, k=k, flow=_rhs_scalar(model),
                               energy_residual=energy(model, x, k) - eps))


# The species hold to 1e-9 relative up to this energy: against a 50-digit
# mpmath evaluation of the same waveform their error is at most 2.3e-14 up
# to eps = 1e4, 4.7e-14 up to 1e10 and 6e-13 at 1e150, since cn keeps its
# relative accuracy where it falls towards kc = T-^2, at T = T+.  Above
# about 1.3e154, eps^2 leaves the float range.
ISOTROPIC_EPS_MAX = 1e150


def _require_isotropic_energy(eps):
    if not 2.0 < eps <= ISOTROPIC_EPS_MAX:
        raise DomainError(f"eps = {eps}: the isotropic closed form requires "
                          f"2 < eps <= {ISOTROPIC_EPS_MAX:g}, the energy up "
                          f"to which its species hold to 1e-9")


def amplitude_bounds(eps):
    """T+- = (eps +- sqrt(eps^2 - 4))/2, the roots of T^2 - eps T + 1.
    T- is taken as 1/T+ (T+ T- = 1), which does not cancel as eps grows."""
    _require_isotropic_energy(eps)
    t_plus = 0.5 * (eps + math.sqrt(eps * eps - 4.0))
    return t_plus, 1.0 / t_plus


def kappa_of_eps(eps):
    """Elliptic argument kappa(eps) = 2 eps sqrt(eps^2-4) / (eps(eps + sqrt(eps^2-4)) - 2)."""
    _require_isotropic_energy(eps)
    s = math.sqrt(eps * eps - 4.0)
    return 2.0 * eps * s / (eps * (eps + s) - 2.0)


def toda_species_series(eps, taus):
    """Species (y, z) of the isotropic Toda dynamics at taus (a float or an
    array), started at the lower turning point y = z = T-, in closed form.

    The sum T = (y + z)/2 obeys Tdot^2 = T (T - eps)(T - T+)(T - T-).  Its
    four-real-root reduction (Byrd & Friedman 1971; DLMF 22) is the paper's
    waveform T = 2 / (s (1 - 2 sn^2) + eps), s = sqrt(eps^2 - 4), with
    sn = sn(T+ tau / 2 | kappa), read as T = 1 / (T- + s cn^2) so that no
    difference cancels; kc = sqrt(1 - kappa) = T-^2 exactly.  With
    q = s sn cn T, q^2 = (T+ - T)(T - T-) and y z = T^2 / (1 + q^2), so for
    r = sqrt(1 + q^2) the larger species is T (1 + |q|/r) and the smaller
    T / (r (r + |q|)).  The prey z is the larger where sn cn >= 0, on the
    rising half of T.
    """
    t_plus, t_minus = amplitude_bounds(eps)
    s = math.sqrt(eps * eps - 4.0)
    sn, cn = jacobi_sn_cn(0.5 * t_plus * np.asarray(taus, dtype=float),
                          kc=1.0 / (t_plus * t_plus))
    t_val = 1.0 / (t_minus + s * cn * cn)
    q = s * sn * cn * t_val
    r = np.sqrt(1.0 + q * q)
    big = t_val * (1.0 + np.abs(q) / r)
    small = t_val / (r * (r + np.abs(q)))
    return np.where(q >= 0.0, small, big), np.where(q >= 0.0, big, small)


class TodaClosedForm:
    """Closed-form summary for one isotropic energy."""

    def __init__(self, eps, kappa, t_plus, t_minus, period_formula,
                 period_ode, period_ratio):
        self.eps, self.kappa = eps, kappa
        self.t_plus, self.t_minus = t_plus, t_minus
        self.period_formula, self.period_ode = period_formula, period_ode
        self.period_ratio = period_ratio


def toda_closed_period(eps):
    """Fill the closed-form summary: amplitude bounds, kappa, the paper's
    closed-form period 8 sqrt(2) K_linsin(kappa) / sqrt(eps + s - 2), the
    exact period (``period``, by time of flight; its key stays period_ode)
    and their ratio."""
    t_plus, t_minus = amplitude_bounds(eps)
    s = math.sqrt(eps * eps - 4.0)
    period_formula = (8.0 * math.sqrt(2.0)
                      * elliptic_k_linear_sin(kc=1.0 / (t_plus * t_plus))
                      / math.sqrt(eps + s - 2.0))
    period_ode = period(SeparableHamiltonian(HamiltonianKind.TODA, 1.0), eps)
    return TodaClosedForm(
        eps=eps, kappa=kappa_of_eps(eps), t_plus=t_plus, t_minus=t_minus,
        period_formula=period_formula, period_ode=period_ode,
        period_ratio=period_formula / period_ode)

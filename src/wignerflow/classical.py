"""Classical dynamics: Hamilton equations, energy-audited orbit integration,
period detection, and the closed-form isotropic Toda solution.

Every trajectory, classical or quantum, in (x, k) or in the species (y, z),
comes from one fixed-step RK4 core, ``_rk4``; ``measured_orbit`` measures a
period and returns the orbit over several periods from one integration.

The closed-form machinery keeps two period values side by side:
``period_formula`` is the literal closed-form expression built on the
linear-sine elliptic integral, and ``period_ode`` is the measured orbital
period.  The two disagree (the formula diverges in the harmonic limit where
the measured period tends to 2 pi), so the ratio is reported per energy and
nothing is asserted about their equality.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, NumericalError, UsageError
from .model import (HamiltonianKind, PhasePoint, SeparableHamiltonian,
                    SpeciesPair, energy)
from .specfun import (EllipticConvention, bisect, elliptic_k_complete,
                      elliptic_k_linear_sin, jacobi_sn)

__all__ = [
    "OrbitSpec",
    "Trajectory",
    "TodaClosedForm",
    "hamilton_rhs",
    "section_start",
    "integrate_orbit",
    "orbit_period",
    "measured_orbit",
    "toda_parametric_T",
    "toda_species_analytic",
    "toda_t_ode",
    "lv_t_ode",
    "constraint_residual",
    "toda_closed_period",
]


# RK4 steps per integration; a longer run is refused before any allocation
MAX_RK4_STEPS = 10_000_000


def hamilton_rhs(h, p):
    """(dx/dtau, dk/dtau) = (dH/dk, -dH/dx); vanishes at the origin."""
    return _rhs_scalar(h)(p.x, p.k)


def _rhs_scalar(h):
    """Hamilton's equations as a scalar function f(x, k), a bound once."""
    a, sinh, exp = h.a, math.sinh, math.exp
    if h.kind is HamiltonianKind.TODA:
        return lambda x, k: (sinh(k), -a * sinh(x))
    return lambda x, k: (1.0 - exp(-k), a * (exp(-x) - 1.0))


def section_start(h, eps):
    """Point on the k = 0 section (x > 0 side) of the level curve H = eps."""
    if eps <= 1.0 + h.a:
        raise DomainError(f"closed orbits require eps > 1 + a = {1.0 + h.a}")
    if h.kind is HamiltonianKind.TODA:
        return PhasePoint(math.acosh((eps - 1.0) / h.a), 0.0)
    # positive root of a (x + e^-x) = eps - 1
    target = (eps - 1.0) / h.a
    lo, hi = bisect(lambda x: x + math.exp(-x) < target, 0.0, target + 1.0)
    return PhasePoint(0.5 * (lo + hi), 0.0)


@dataclass(frozen=True)
class OrbitSpec:
    """Parameters of one orbit integration run."""

    model: SeparableHamiltonian
    eps: float
    start: PhasePoint
    step: float = 1e-3
    duration: float = 60.0
    drift_tolerance: float = 1e-8

    def __post_init__(self):
        # equality holds only for the equilibrium point itself, which is a
        # valid degenerate trajectory when started from an explicit point
        if self.eps < 1.0 + self.model.a:
            raise DomainError(
                f"eps = {self.eps} violates the closed-orbit constraint "
                f"eps > 1 + a = {1.0 + self.model.a}")
        if not 0.0 < self.step < self.duration < math.inf:
            raise DomainError(f"step = {self.step}, duration = "
                              f"{self.duration}: require 0 < step < "
                              f"duration < inf")

    @classmethod
    def from_energy(cls, model, eps, **kw):
        return cls(model=model, eps=float(eps),
                   start=section_start(model, float(eps)), **kw)

    @classmethod
    def from_point(cls, model, start, **kw):
        return cls(model=model, eps=energy(model, start.x, start.k), start=start,
                   **kw)


@dataclass
class Trajectory:
    """Time-stamped phase-space samples with derived species values."""

    tau: np.ndarray
    x: np.ndarray
    k: np.ndarray
    y: np.ndarray
    z: np.ndarray
    energy_residual: np.ndarray | None = None
    eps: float | None = None
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.tau)

    @property
    def max_drift(self):
        if self.energy_residual is None:
            return None
        return float(np.max(np.abs(self.energy_residual)))


def _rk4(f, x, k, h, n_steps, stop=None):
    """n_steps classical RK4 steps of (dx, dk)/dtau = f(x, k) from (x, k).

    Returns (xs, ks, dxs, dks): the n_steps + 1 states and f at each.  A run
    that reaches a state where stop(x, k) holds ends there, and the row of
    that state carries zero derivatives.
    """
    if n_steps > MAX_RK4_STEPS:
        raise UsageError(f"{n_steps} RK4 steps exceed the work budget of "
                         f"{MAX_RK4_STEPS} steps per integration")
    xs, ks, dxs, dks = (np.empty(n_steps + 1) for _ in range(4))
    h2 = 0.5 * h
    for i in range(n_steps):
        d1x, d1k = f(x, k)
        xs[i], ks[i], dxs[i], dks[i] = x, k, d1x, d1k
        d2x, d2k = f(x + h2 * d1x, k + h2 * d1k)
        d3x, d3k = f(x + h2 * d2x, k + h2 * d2k)
        d4x, d4k = f(x + h * d3x, k + h * d3k)
        x += h * (d1x + 2.0 * (d2x + d3x) + d4x) / 6.0
        k += h * (d1k + 2.0 * (d2k + d3k) + d4k) / 6.0
        if stop is not None and stop(x, k):
            xs[i + 1], ks[i + 1], dxs[i + 1], dks[i + 1] = x, k, 0.0, 0.0
            return xs[:i + 2], ks[:i + 2], dxs[:i + 2], dks[:i + 2]
    dx, dk = f(x, k)
    xs[n_steps], ks[n_steps], dxs[n_steps], dks[n_steps] = x, k, dx, dk
    return xs, ks, dxs, dks


def _orbit_from(spec, rows=None):
    """The run under spec: a fresh one, or from rows = (xs, ks, dxs, dks) of
    an earlier run from spec.start, their prefix or their continuation from
    the last state.  Each step depends on the state alone, so both equal the
    fresh run bit for bit.  Raises NumericalError (carrying the trajectory)
    if the energy drift exceeds ten times the declared tolerance.
    """
    n = max(1, int(round(spec.duration / spec.step)))
    f = _rhs_scalar(spec.model)
    if rows is None:
        rows = _rk4(f, spec.start.x, spec.start.k, spec.step, n)
    elif n >= len(rows[0]):
        more = _rk4(f, float(rows[0][-1]), float(rows[1][-1]), spec.step,
                    n + 1 - len(rows[0]))
        rows = [np.concatenate([r[:-1], m]) for r, m in zip(rows, more)]
    else:  # copies, so that the longer arrays can be freed
        rows = [r[:n + 1].copy() for r in rows]
    xs, ks, dxs, dks = rows
    residual = energy(spec.model, xs, ks) - spec.eps
    traj = Trajectory(tau=spec.step * np.arange(n + 1), x=xs, k=ks,
                      y=np.exp(-xs), z=np.exp(-ks), energy_residual=residual,
                      eps=spec.eps, meta={"model": spec.model, "step": spec.step,
                                          "dx": dxs, "dk": dks})
    if traj.max_drift > 10.0 * spec.drift_tolerance:
        raise NumericalError(
            f"energy drift {traj.max_drift:.3e} exceeds 10 x tolerance "
            f"{spec.drift_tolerance:.1e}", payload=traj)
    return traj


def integrate_orbit(spec):
    """Fixed-step 4th-order integration with a per-run energy-drift audit.

    Raises NumericalError (carrying the partial trajectory) if the drift
    exceeds ten times the declared tolerance.
    """
    return _orbit_from(spec)


def _hermite_crossing(t0, t1, x0, x1, d0, d1):
    """Zero of the cubic Hermite interpolant of x on [t0, t1] (x0, x1 straddle 0)."""
    h = t1 - t0

    def before(s):
        h00 = (1.0 + 2.0 * s) * (1.0 - s) ** 2
        h10 = s * (1.0 - s) ** 2
        h01 = s * s * (3.0 - 2.0 * s)
        h11 = s * s * (s - 1.0)
        val = h00 * x0 + h10 * h * d0 + h01 * x1 + h11 * h * d1
        return (val > 0.0) == (x0 > 0.0)

    lo, hi = bisect(before, 0.0, 1.0)
    return t0 + h * 0.5 * (lo + hi)


def _rising(v):
    """Mask over the sample intervals i with v[i] < 0 <= v[i + 1]."""
    return (v[:-1] < 0.0) & (v[1:] >= 0.0)


def section_crossings(traj):
    """Times at which x crosses its equilibrium value 0 with dx/dtau > 0.

    The x = 0 line is transversal for both models (dx/dtau = K'(k) != 0 off
    the equilibrium), which is what makes it usable as a period-counting
    section; on the k = 0 line dx/dtau vanishes identically instead.
    """
    xs, ks, tau = traj.x, traj.k, traj.tau
    dxs = traj.meta["dx"]
    on = (xs[:-1] == 0.0) & (ks[:-1] > 0.0)
    return [tau[i] if on[i] else
            _hermite_crossing(tau[i], tau[i + 1], xs[i], xs[i + 1],
                              dxs[i], dxs[i + 1])
            for i in np.flatnonzero(on | (_rising(xs) & (xs[1:] != 0.0)))]


def return_to_start(traj):
    """First full return of a closed orbit to its starting point.

    Detects the first crossing of k through its initial value in the initial
    direction of motion and on the starting side in x, then interpolates the
    crossing time and position.  Returns (return_time, closure_distance).
    """
    xs, ks, tau = traj.x, traj.k, traj.tau
    dks = traj.meta["dk"]
    x0, dk = xs[0], ks - ks[0]
    crossing = _rising(-dk if dks[0] < 0.0 else dk)
    crossing &= np.copysign(1.0, xs[:-1]) == math.copysign(1.0, x0)
    hits = np.flatnonzero(crossing[1:])
    if not len(hits):
        raise NumericalError("trajectory does not return to its section "
                             "within the integrated duration", payload=traj)
    i = hits[0] + 1
    t_star = _hermite_crossing(tau[i], tau[i + 1], dk[i], dk[i + 1],
                               dks[i], dks[i + 1])
    s = (t_star - tau[i]) / (tau[i + 1] - tau[i])
    x_star = xs[i] + s * (xs[i + 1] - xs[i])
    return float(t_star), float(abs(x_star - x0))


def orbit_period(spec):
    """Orbital period from interpolated section crossings.

    Reproducible to ~1e-6 relative under step halving; raises NumericalError
    when the duration does not contain a full revolution.
    """
    return _period(integrate_orbit(spec), spec.duration)


def _period(traj, duration):
    times = section_crossings(traj)
    if len(times) < 2:
        raise NumericalError(
            f"no complete section crossing within duration {duration}",
            payload=traj)
    return (times[-1] - times[0]) / (len(times) - 1)


def measured_orbit(model, start, step, periods):
    """(period, trajectory): the period of the orbit through start and the
    orbit over max(periods x period, 2 step), from one integration.

    A 40-unit probe, doubled up to 640 while it holds fewer than two section
    crossings, measures the period; the trajectory is the probe's prefix or
    its continuation.  A drift failure is raised at once: a longer run
    drifts no less.  periods must be positive and finite.
    """
    if not 0.0 < periods < math.inf:
        raise DomainError(f"periods = {periods}: require 0 < periods < inf, "
                          f"so that 0 < duration < inf")
    spec = OrbitSpec.from_point(model, start, step=step, duration=40.0)
    traj = integrate_orbit(spec)
    while len(section_crossings(traj)) < 2 and spec.duration < 640.0:
        spec = replace(spec, duration=2.0 * spec.duration)
        traj = _orbit_from(spec, (traj.x, traj.k, traj.meta["dx"],
                                  traj.meta["dk"]))
    period = _period(traj, spec.duration)
    rows = traj.x, traj.k, traj.meta["dx"], traj.meta["dk"]
    del traj  # the probe's derived columns are not needed past this point
    spec = replace(spec, duration=max(periods * period, 2.0 * step))
    return period, _orbit_from(spec, rows)


# ---------------------------------------------------------------------------
# closed-form isotropic Toda solution
# ---------------------------------------------------------------------------

def _require_isotropic_energy(eps):
    if not eps > 2.0:
        raise DomainError("the isotropic closed form requires eps > 2")


def amplitude_bounds(eps):
    """T+- = (eps +- sqrt(eps^2 - 4))/2, the roots of T^2 - eps T + 1."""
    _require_isotropic_energy(eps)
    s = math.sqrt(eps * eps - 4.0)
    return 0.5 * (eps + s), 0.5 * (eps - s)


def kappa_of_eps(eps):
    """Elliptic argument kappa(eps) = 2 eps sqrt(eps^2-4) / (eps(eps + sqrt(eps^2-4)) - 2)."""
    _require_isotropic_energy(eps)
    s = math.sqrt(eps * eps - 4.0)
    return 2.0 * eps * s / (eps * (eps + s) - 2.0)


def _lambda_literal(eps):
    s = math.sqrt(eps * eps - 4.0)
    return math.sqrt(eps + s - 2.0) / (2.0 * math.sqrt(2.0))


def toda_parametric_T(eps, tau, convention=EllipticConvention.PARAMETER):
    """Literal sn-parameterization of the species sum T(tau), isotropic model.

        T = 2 / (sqrt(eps^2-4) (1 - 2 sn(lambda tau | kappa)^2) + eps)

    T(0) = T- and the range over one period is exactly [T-, T+] under either
    reading of the second sn argument; the readings differ in wave shape and
    time scale, which resolve_convention measures against the integrated
    dynamics.
    """
    _require_isotropic_energy(eps)
    s = math.sqrt(eps * eps - 4.0)
    kap = kappa_of_eps(eps)
    sn = jacobi_sn(_lambda_literal(eps) * tau, kap, convention)
    return 2.0 / (s * (1.0 - 2.0 * sn * sn) + eps)


def _parametric_half_phase(eps, tau, convention):
    """True when tau falls in the rising half of the T oscillation."""
    kap = kappa_of_eps(eps)
    m = kap if convention is EllipticConvention.PARAMETER else kap * kap
    quarter = elliptic_k_complete(m)
    u = _lambda_literal(eps) * tau
    u -= 2.0 * quarter * math.floor(u / (2.0 * quarter))
    return u <= quarter


def toda_species_analytic(eps, tau, convention=EllipticConvention.PARAMETER):
    """Species pair from the closed form: y, z = T -+ sqrt(T^2 - T/(eps - T)).

    The discriminant vanishes at the turning points; values below -1e-12 are
    a numerical failure, smaller negatives are clamped to zero.  The branch
    assignment follows the oscillation phase: the prey z leads on the rising
    half (z >= y), the predator y on the falling half.
    """
    t_val = toda_parametric_T(eps, tau, convention)
    disc = t_val * t_val - t_val / (eps - t_val)
    if disc < -1e-12:
        raise NumericalError(f"species discriminant {disc:.3e} below clamp window")
    root = math.sqrt(max(disc, 0.0))
    sign = 1.0 if _parametric_half_phase(eps, tau, convention) else -1.0
    return SpeciesPair(y=t_val - sign * root, z=t_val + sign * root)


def _species_rhs_toda(y, z):
    return 0.5 * (y * z - y / z), 0.5 * (z / y - y * z)


def _species_rhs_lv(y, z):
    return y * z - y, z - y * z


def _species_series(rhs, y0, taus, step):
    """Species (y, z) at each of taus from y = z = y0 at tau = 0; each gap
    between samples is split into the fewest equal steps no longer than
    step.  Returns (y_array, z_array)."""
    ys, zs = np.empty(len(taus)), np.empty(len(taus))
    y = z = y0
    prev = 0.0
    for i, tau in enumerate(map(float, taus)):
        n = max(1, math.ceil(abs(tau - prev) / step))
        path = _rk4(rhs, y, z, (tau - prev) / n, n)
        y, z = ys[i], zs[i] = float(path[0][-1]), float(path[1][-1])
        prev = tau
    return ys, zs


def toda_t_ode(eps, tau, step=1e-3):
    """T(tau) = (y + z)/2 from direct integration of the isotropic species ODEs,
    started at the lower turning point y = z = T-."""
    ys, zs = toda_species_series(eps, [tau], step)
    return 0.5 * (ys[0] + zs[0])


def toda_species_series(eps, taus, step=1e-3):
    """Species waveforms (y, z) of the isotropic Toda dynamics on a time grid,
    started at the lower turning point.  Returns (y_array, z_array)."""
    _, t_minus = amplitude_bounds(eps)
    return _species_series(_species_rhs_toda, t_minus, taus, step)


def lv_t_ode(eps, tau, step=1e-3):
    """T(tau) = y + z for the isotropic LV system, started at its lower
    turning point y = z = e^-x0 with x0 the positive root of x + e^-x = eps/2."""
    if eps <= 2.0:
        raise DomainError("the isotropic LV closed orbit requires eps > 2")
    lo, hi = bisect(lambda x: x + math.exp(-x) < 0.5 * eps, 0.0, 0.5 * eps)
    ys, zs = _species_series(_species_rhs_lv, math.exp(-0.5 * (lo + hi)),
                             [tau], step)
    return ys[0] + zs[0]


def toda_constraint_rhs(eps, t_val):
    """Right-hand side of the squared-velocity constraint, Toda form:
    Tdot^2 = T^2 (T - eps)^2 + T (T - eps)."""
    d = t_val - eps
    return t_val * t_val * d * d + t_val * d


def lv_constraint_rhs(eps, t_val):
    """LV form: Tdot^2 = T^2 - 4 e^{T - eps}."""
    return t_val * t_val - 4.0 * math.exp(t_val - eps)


def constraint_residual(eps, tau, which="toda", t_of_tau=None, h=1e-4,
                        convention=EllipticConvention.PARAMETER):
    """Residual Tdot^2 - rhs(T) with Tdot by central differences of T(tau).

    ``t_of_tau`` selects the T source; the default is the ODE-derived T for
    both models (the literal sn parameterization fails this test, see
    resolve_convention).
    """
    if which == "toda":
        src = t_of_tau or (lambda t: toda_t_ode(eps, t))
        rhs = toda_constraint_rhs
    elif which == "lv":
        src = t_of_tau or (lambda t: lv_t_ode(eps, t))
        rhs = lv_constraint_rhs
    else:
        raise UsageError("which must be 'toda' or 'lv'")
    tdot = (src(tau + h) - src(tau - h)) / (2.0 * h)
    return tdot * tdot - rhs(eps, src(tau))


@dataclass(frozen=True)
class TodaClosedForm:
    """Closed-form summary for one isotropic energy."""

    eps: float
    kappa: float
    t_plus: float
    t_minus: float
    period_formula: float
    period_ode: float
    period_ratio: float
    convention: EllipticConvention
    lsq_parameter: float
    lsq_modulus: float
    residual_parameter: float
    residual_modulus: float
    t_source: str


def parametric_period(eps, convention):
    """Period in tau of the literal sn parameterization under one reading:
    sn^2 has period 2 K(m), so T repeats every 2 K(m) / lambda."""
    kap = kappa_of_eps(eps)
    m = kap if convention is EllipticConvention.PARAMETER else kap * kap
    return 2.0 * elliptic_k_complete(m) / _lambda_literal(eps)


def resolve_convention(eps, period_ode, ode_step=1e-3):
    """Measure both sn readings against the ODE-derived T(tau) = (y + z)/2.

    The constraint residual tests each reading literally (it fails for both:
    the literal frequency factor is inconsistent with the dynamics, so the
    waveforms run at the wrong speed).  The least-squares comparison is
    therefore phase-aligned - each reading is sampled over its own period and
    compared with the ODE waveform over the measured period - which isolates
    the wave shape and singles out the reading whose shape is dynamical.

    Returns (convention, lsq_parameter, lsq_modulus, res_parameter,
    res_modulus, t_source); t_source is 'ode' when neither reading satisfies
    the dynamical constraint to 1e-6.
    """
    taus = np.linspace(0.0, period_ode, 200)
    ys, zs = toda_species_series(eps, taus, ode_step)
    t_ode = 0.5 * (ys + zs)
    stats = {}
    for conv in (EllipticConvention.PARAMETER, EllipticConvention.MODULUS):
        stretch = parametric_period(eps, conv) / period_ode
        t_par = np.array([toda_parametric_T(eps, t * stretch, conv)
                          for t in taus])
        lsq = float(np.mean((t_par - t_ode) ** 2))
        mids = [0.31 * period_ode, 0.47 * period_ode, 0.73 * period_ode]
        res = max(abs(constraint_residual(
            eps, t, "toda",
            t_of_tau=lambda tt, c=conv: toda_parametric_T(eps, tt, c)))
            for t in mids)
        stats[conv] = (lsq, res)
    par, mod = (stats[EllipticConvention.PARAMETER],
                stats[EllipticConvention.MODULUS])
    if min(par[1], mod[1]) < 1e-6:
        # a reading satisfies the constraint outright: it wins
        chosen = (EllipticConvention.PARAMETER if par[1] <= mod[1]
                  else EllipticConvention.MODULUS)
    else:
        # neither does; decide by wave shape
        chosen = (EllipticConvention.PARAMETER if par[0] <= mod[0]
                  else EllipticConvention.MODULUS)
    t_source = "analytic" if stats[chosen][1] < 1e-6 else "ode"
    return chosen, par[0], mod[0], par[1], mod[1], t_source


def toda_closed_period(eps, step=1e-3):
    """Fill the closed-form summary: amplitude bounds, kappa, the literal
    closed-form period, the measured ODE period, and their ratio."""
    _require_isotropic_energy(eps)
    t_plus, t_minus = amplitude_bounds(eps)
    kap = kappa_of_eps(eps)
    s = math.sqrt(eps * eps - 4.0)
    period_formula = (8.0 * math.sqrt(2.0) * elliptic_k_linear_sin(kap)
                      / math.sqrt(eps + s - 2.0))
    model = SeparableHamiltonian(HamiltonianKind.TODA, 1.0)
    spec = OrbitSpec.from_energy(model, eps, step=step, duration=30.0)
    period_ode = orbit_period(spec)
    conv, lsq_p, lsq_m, res_p, res_m, t_source = resolve_convention(eps, period_ode)
    return TodaClosedForm(
        eps=eps, kappa=kap, t_plus=t_plus, t_minus=t_minus,
        period_formula=period_formula, period_ode=period_ode,
        period_ratio=period_formula / period_ode,
        convention=conv, lsq_parameter=lsq_p, lsq_modulus=lsq_m,
        residual_parameter=res_p, residual_modulus=res_m, t_source=t_source)

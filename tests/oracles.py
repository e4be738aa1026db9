"""Independent numerical oracles used across the test suite.

Everything here deliberately avoids the code paths it is used to check:
plane integrals use tensor Gauss-Legendre rules instead of the adaptive
engine, the Bessel functions come from the adaptive engine on their
integral representation instead of the series and continued fraction, the
Toda period comes from a time-of-flight quadrature of the level
curve rather than from orbit integration, the complete elliptic integral
of the first kind is reduced from the quartic turning-point form by hand,
and the isotropic Toda species come from RK4 on their own equations of
motion in place of the package's closed form.
The table writer and the marching squares appear here in their
one-record-at-a-time and one-cell-at-a-time forms, as references that the
package's column-at-a-time and whole-array versions must match exactly.
Likewise the section scans run one sample at a time and the bisections
run a fixed number of halvings; the kernel zeros are also found by a
plain bisection that counts its kernel calls.  The orbital
period is also measured the way the package once did, from the section
crossings of an RK4 orbit (``orbit_period``), and evaluated by time of
flight in 30-digit mpmath arithmetic (``period_time_of_flight_mp``; for
Toda from the energy gap in 40 digits, ``toda_period_mp``), against the
package's exact ``classical.period``.  The section starts come from
mpmath's acosh and Lambert W (``section_start_mp``).  The scaled kernel of
the quantum RK4 is evaluated point by point through the Weideman rational
approximation, in place of the package's per-alpha Chebyshev table.  The
classes of the stagnation points, exact from the linearised flow in the
package, are measured here as the winding of the velocity around a loop
about each point.  The Weideman coefficients, which the package writes out
as constants, are computed here the way they were derived.
"""

import cmath
import json
import math

import numpy as np

from wignerflow import classical
from wignerflow.errors import NumericalError, UsageError
from wignerflow.gaussian import circulation_number
from wignerflow.model import HamiltonianKind, PhasePoint, energy
from wignerflow.specfun import (QuadratureSpec, _weideman_w,
                                im_erf_offset_scaled, integrate_1d)
from wignerflow.thermo import quadrature_box, z0_closed, z_st_closed

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
    # 1 - m = 1 / T+^4 exactly (T+ T- = 1), so sqrt(1 - m) = 1 / T+^2
    # carries no cancellation as m -> 1
    a_agm, b_agm = 1.0, 1.0 / (t_plus * t_plus)
    for _ in range(80):
        if abs(a_agm - b_agm) <= 1e-15 * a_agm:
            break
        a_agm, b_agm = 0.5 * (a_agm + b_agm), math.sqrt(a_agm * b_agm)
    k_complete = math.pi / (2.0 * a_agm)
    return 4.0 * k_complete / t_plus


def toda_species_rk4(eps, taus, step):
    """Species (y, z) of the isotropic Toda dynamics at each of taus, by RK4
    on y' = (y z - y/z)/2, z' = (z/y - y z)/2 from the lower turning point
    y = z = T- at tau = 0; each gap between samples is split into the fewest
    equal steps no longer than step.  The reference for the closed form
    ``classical.toda_species_series``."""
    def rhs(y, z):
        return 0.5 * (y * z - y / z), 0.5 * (z / y - y * z)

    ys, zs = np.empty(len(taus)), np.empty(len(taus))
    y = z = 0.5 * (eps - math.sqrt(eps * eps - 4.0))
    prev = 0.0
    for i, tau in enumerate(map(float, taus)):
        n = max(1, math.ceil(abs(tau - prev) / step))
        path = classical._rk4(rhs, y, z, (tau - prev) / n, n)
        y, z = ys[i], zs[i] = float(path[0][-1]), float(path[1][-1])
        prev = tau
    return ys, zs


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


# ---------------------------------------------------------------------------
# model derivative and expansion oracles
# ---------------------------------------------------------------------------

def odd_derivative(h, side, order, coord):
    """Odd derivative of the kinetic (d/dk) or potential (d/dx) part.

    For the Toda model every odd derivative of cosh collapses to sinh; for the
    LV model d^n/dc^n e^-c = (-1)^n e^-c gives -e^-c at every odd order >= 3.
    """
    if side not in ("kinetic", "potential"):
        raise UsageError("side must be 'kinetic' or 'potential'")
    if order < 1 or order % 2 == 0:
        raise UsageError("odd_derivative requires an odd order >= 1")
    c = coord
    if h.kind is HamiltonianKind.TODA:
        base = math.sinh(c)
        return base if side == "kinetic" else h.a * base
    if side == "kinetic":
        return 1.0 - math.exp(-c) if order == 1 else -math.exp(-c)
    if order == 1:
        return h.a * (1.0 - math.exp(-c))
    return -h.a * math.exp(-c)


def harmonic_residual(h, p):
    """H minus its quadratic expansion (1 + a) + (a x^2 + k^2)/2 about the origin.

    Diagnostic only: O(x^4, k^4) for the even Toda model, O(x^3) for LV.
    """
    quad = (1.0 + h.a) + 0.5 * (h.a * p.x * p.x + p.k * p.k)
    return energy(h, p.x, p.k) - quad


# ---------------------------------------------------------------------------
# reference writer: one dict per row, one type-dispatched cell per value
# ---------------------------------------------------------------------------

def grid_records(grid):
    xs = grid.spec.x_nodes()
    ks = grid.spec.k_nodes()
    has_mask = grid.valid is not None
    for j in range(grid.spec.nk):
        for i in range(grid.spec.nx):
            rec = {"x": xs[i], "k": ks[j]}
            if grid.is_vector:
                rec["vx"] = grid.values[j, i, 0]
                rec["vk"] = grid.values[j, i, 1]
            else:
                rec["value"] = grid.values[j, i]
            if has_mask:
                rec["valid"] = int(grid.valid[j, i])
            yield rec


def trajectory_records(traj):
    has_res = traj.energy_residual is not None
    for i in range(len(traj)):
        rec = {"tau": traj.tau[i], "x": traj.x[i], "k": traj.k[i],
               "y": traj.y[i], "z": traj.z[i]}
        if has_res:
            rec["energy_residual"] = traj.energy_residual[i]
        yield rec


def stagnation_records(points):
    for s in points:
        yield {"x": s.location.x, "k": s.location.k, "residual": s.residual,
               "circulation": s.circulation, "class": s.kind}


def as_records(obj):
    """A grid / trajectory / stagnation list / record list as a list of
    flat dictionaries."""
    from wignerflow.classical import Trajectory
    from wignerflow.fieldgrid import FieldGrid
    from wignerflow.gaussian import StagnationPoint
    if isinstance(obj, FieldGrid):
        return list(grid_records(obj))
    if isinstance(obj, Trajectory):
        return list(trajectory_records(obj))
    if isinstance(obj, (list, tuple)):
        if all(isinstance(s, StagnationPoint) for s in obj) and obj:
            return list(stagnation_records(obj))
        if all(isinstance(r, dict) for r in obj):
            return list(obj)
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def _cell(v):
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def _json_value(v):
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_, int, np.integer)):
        return int(v)
    return float(v)


def export_records(obj, fmt, path):
    """Reference for ``fieldgrid.export_table``: CSV with 17-significant-digit
    floats, JSON through ``json.dump(..., indent=1)``; an empty table raises
    UsageError as CSV and is written as ``[]`` in JSON."""
    records = as_records(obj)
    if fmt == "csv":
        if not records:
            raise UsageError("refusing to write an empty table")
        header = list(records[0].keys())
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for rec in records:
                fh.write(",".join(_cell(rec[k]) for k in header) + "\n")
    else:
        data = [{k: _json_value(v) for k, v in rec.items()} for rec in records]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")


# ---------------------------------------------------------------------------
# reference marching squares: one Python pass over every cell
# ---------------------------------------------------------------------------

def _edge_point(xs, ks, values, edge):
    i, j, kind = edge
    v0 = values[j, i]
    if kind == "h":
        v1 = values[j, i + 1]
        t = 0.5 if v1 == v0 else v0 / (v0 - v1)
        return (xs[i] + t * (xs[i + 1] - xs[i]), ks[j])
    v1 = values[j + 1, i]
    t = 0.5 if v1 == v0 else v0 / (v0 - v1)
    return (xs[i], ks[j] + t * (ks[j + 1] - ks[j]))


_SEGMENT_TABLE = {
    # cell corner order: (i,j) (i+1,j) (i+1,j+1) (i,j+1); edges B,R,T,L
    1: [("L", "B")], 2: [("B", "R")], 3: [("L", "R")], 4: [("R", "T")],
    6: [("B", "T")], 7: [("L", "T")], 8: [("T", "L")],
    9: [("T", "B")], 11: [("T", "R")], 12: [("R", "L")],
    13: [("R", "B")], 14: [("B", "L")],
}


def zero_contours_per_cell(grid):
    """Reference for ``fieldgrid.zero_contours``: classifies one cell at a
    time in row-major order, then stitches the segments into polylines."""
    values = grid.values
    xs = grid.spec.x_nodes()
    ks = grid.spec.k_nodes()
    nk, nx = values.shape
    segments = []
    for j in range(nk - 1):
        for i in range(nx - 1):
            c0 = values[j, i] >= 0.0
            c1 = values[j, i + 1] >= 0.0
            c2 = values[j + 1, i + 1] >= 0.0
            c3 = values[j + 1, i] >= 0.0
            idx = (c0 * 1) | (c1 * 2) | (c2 * 4) | (c3 * 8)
            if idx in (0, 15):
                continue
            local = {"B": (i, j, "h"), "T": (i, j + 1, "h"),
                     "L": (i, j, "v"), "R": (i + 1, j, "v")}
            if idx in (5, 10):
                center = 0.25 * (values[j, i] + values[j, i + 1]
                                 + values[j + 1, i + 1] + values[j + 1, i])
                if idx == 5:
                    pairs = ([("L", "T"), ("B", "R")] if center >= 0.0
                             else [("L", "B"), ("R", "T")])
                else:
                    pairs = ([("B", "L"), ("T", "R")] if center >= 0.0
                             else [("B", "R"), ("T", "L")])
            else:
                pairs = _SEGMENT_TABLE[idx]
            for e0, e1 in pairs:
                segments.append((local[e0], local[e1]))
    adjacency = {}
    for seg in segments:
        a, b = seg
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    unused = {tuple(sorted((a, b))) for a, b in segments}

    def walk(start):
        chain = [start]
        current = start
        while True:
            nxt = None
            for cand in adjacency.get(current, ()):
                if tuple(sorted((current, cand))) in unused:
                    nxt = cand
                    break
            if nxt is None:
                return chain
            unused.discard(tuple(sorted((current, nxt))))
            chain.append(nxt)
            current = nxt

    endpoints = sorted({k for k, nbrs in adjacency.items() if len(nbrs) == 1})
    polylines = []
    for start in endpoints:
        if any(tuple(sorted((start, n))) in unused
               for n in adjacency.get(start, ())):
            polylines.append(walk(start))
    while unused:
        start = sorted(unused)[0][0]
        chain = walk(start)
        chain.append(chain[0])
        polylines.append(chain)
    return [np.array([_edge_point(xs, ks, values, e) for e in chain])
            for chain in polylines]


# ---------------------------------------------------------------------------
# orbit periods: measured on an RK4 orbit, and by 30-digit time of flight
# ---------------------------------------------------------------------------

def section_crossings(traj):
    """Times at which x crosses its equilibrium value 0 with dx/dtau > 0.

    The x = 0 line is transversal for both models (dx/dtau = K'(k) != 0 off
    the equilibrium), which is what makes it usable as a period-counting
    section; on the k = 0 line dx/dtau vanishes identically instead.  The
    rates dx/dtau at the ends of each crossing interval come from the flow.
    """
    xs, ks, tau, flow = traj.x, traj.k, traj.tau, traj.flow
    on = (xs[:-1] == 0.0) & (ks[:-1] > 0.0)
    return [tau[i] if on[i] else
            classical._hermite_crossing(tau[i], tau[i + 1], xs[i], xs[i + 1],
                                        flow(xs[i], ks[i])[0],
                                        flow(xs[i + 1], ks[i + 1])[0])
            for i in np.flatnonzero(on | (classical._rising(xs)
                                          & (xs[1:] != 0.0)))]


def orbit_period(spec):
    """Orbital period measured on the RK4 orbit of spec: the mean spacing
    of its interpolated section crossings.  Raises NumericalError when the
    duration does not contain a full revolution."""
    traj = classical.integrate_orbit(spec)
    times = section_crossings(traj)
    if len(times) < 2:
        raise NumericalError(
            f"no complete section crossing within duration {spec.duration}",
            payload=traj)
    return (times[-1] - times[0]) / (len(times) - 1)


def period_time_of_flight_mp(model, eps):
    """The period of the level curve H = eps in mpmath arithmetic, from the
    float eps and a as given.

    Toda: four quarter orbits, T = 4 Int_0^{x_max} dx / sinh k with
    cosh k = eps - a cosh x.  LV: on H = eps, k solves k + e^-k = u(x) with
    u = eps - a (x + e^-x), whose two roots are k = u + W_b(-e^-u) on the
    Lambert-W branches b = 0 (k+ >= 0) and b = -1 (k- <= 0), and the
    turning points solve x + e^-x = (eps - 1)/a the same way; with
    dx/dtau = 1 - e^-k, T = Int [1/(1 - e^-k+) - 1/(1 - e^-k-)] dx.  Each
    stretch between x = 0 and a turning point x_edge is substituted
    x = x_edge -+ s^2 and integrated by Gauss-Legendre ``mpmath.quad``.
    """
    import mpmath

    with mpmath.workdps(30):
        a, eps = mpmath.mpf(model.a), mpmath.mpf(eps)

        def stretch(speed_inv, x_edge):
            side = mpmath.sign(x_edge)
            return mpmath.quad(
                lambda s: 2 * s * speed_inv(x_edge - side * s * s),
                [0, mpmath.sqrt(abs(x_edge))], method="gauss-legendre")

        if model.kind is HamiltonianKind.TODA:
            def toda(x):
                u = eps - a * mpmath.cosh(x)
                return 1 / mpmath.sqrt(u * u - 1)

            return float(4 * stretch(toda, mpmath.acosh((eps - 1) / a)))

        def lv(x):
            u = eps - a * (x + mpmath.exp(-x))
            k_plus, k_minus = (u + mpmath.lambertw(-mpmath.exp(-u), b).real
                               for b in (0, -1))
            return 1 / mpmath.expm1(-k_minus) - 1 / mpmath.expm1(-k_plus)

        target = (eps - 1) / a
        return float(sum(
            stretch(lv, target + mpmath.lambertw(-mpmath.exp(-target), b).real)
            for b in (0, -1)))


def toda_period_mp(a, gap):
    """The Toda period at the energy gap g = eps - 1 - a, by a 40-digit
    time of flight from the float a and g as given.

    With c = cosh x = 1 + (g/a) sin^2 theta the quarter orbit is
    2 Int_0^{pi/2} dtheta / sqrt((2 a + g sin^2 theta)(2 + g cos^2 theta)),
    and t = tan theta = e^u makes it the smooth integral over the real line
    T = 8 Int e^u du / sqrt((2 a + (2 a + g) e^{2u}) (2 + g + 2 e^{2u})),
    split where each factor turns from constant to growing.  The integrand
    is scaled to at most 1, since ``mpmath.quad`` converges in absolute
    terms.
    """
    import mpmath

    with mpmath.workdps(40):
        a, g = mpmath.mpf(a), mpmath.mpf(gap)
        scale = mpmath.sqrt((2 * a + g) * (2 + g))

        def integrand(u):
            t2 = mpmath.exp(2 * u)
            return mpmath.sqrt(t2 / ((2 * a / (2 * a + g) + t2)
                                     * (1 + 2 * t2 / (2 + g))))

        knees = sorted(mpmath.log(v) / 2 for v in (2 * a / (2 * a + g),
                                                   (2 + g) / 2))
        return float(8 * mpmath.quad(integrand, [-mpmath.inf, *knees,
                                                 mpmath.inf]) / scale)


def toda_orbit_mp(a, start, taus):
    """(x, k, sensitivity) at taus on the Toda orbit through the float start,
    in 50-digit arithmetic from the float a, start and taus: the closed form
    x = 2 asinh(cn sqrt(g/D) sqrt((g + 2)/(2a))), k = -2 asinh(sn sqrt(g/D)),
    D = 2 + g cn^2, at u = p q tau / 2 + u0 and parameter 1 - 4a/(p q)^2,
    with g = cosh k0 + a cosh x0 - 1 - a, p q = sqrt((g + 2)(g + 2a)), and
    u0 from sn(u0) = -sqrt((g + 2)/g) tanh(k0/2): F(asin sn(u0)) for x0 >= 0,
    2K - F(asin sn(u0)) for x0 < 0, by mpmath's ellipf and ellipk.  The
    sensitivity is |u| max(|dx/du|, |dk/du|), dx/du = 2 sinh k / (p q) and
    dk/du = -2 a sinh x / (p q): how far a relative rounding of u moves
    the phase point."""
    import mpmath

    dps = 50
    with mpmath.workdps(dps):
        a, x0, k0 = (mpmath.mpf(v) for v in (a, start.x, start.k))
        g = mpmath.cosh(k0) + a * mpmath.cosh(x0) - 1 - a
        pq = mpmath.sqrt((g + 2) * (g + 2 * a))
        m = 1 - 4 * a / pq ** 2
        phi0 = mpmath.asin(-mpmath.sqrt((g + 2) / g) * mpmath.tanh(k0 / 2))
        u0 = mpmath.ellipf(phi0, m)
        if x0 < 0:
            u0 = 2 * mpmath.ellipk(m) - u0
        xs, ks, sens = [], [], []
        for tau in taus:
            u = pq * mpmath.mpf(float(tau)) / 2 + u0
            sn, cn = (mpmath.ellipfun(f, u, m=m) for f in ("sn", "cn"))
            root = mpmath.sqrt(g / (2 + g * cn * cn))
            x = 2 * mpmath.asinh(cn * root * mpmath.sqrt((g + 2) / (2 * a)))
            k = -2 * mpmath.asinh(sn * root)
            xs.append(x)
            ks.append(k)
            sens.append(float(abs(u) * 2 * max(abs(mpmath.sinh(k)),
                                               a * abs(mpmath.sinh(x))) / pq))
    return xs, ks, np.array(sens)


def section_start_mp(model, eps):
    """The x > 0 turning point of the level curve H = eps at k = 0, in
    40-digit arithmetic from the float eps and a as given: acosh((eps - 1)/a)
    for Toda, and for LV the root of x + e^-x = c = (eps - 1)/a,
    x = c + W_0(-e^-c)."""
    import mpmath

    with mpmath.workdps(40):
        c = (mpmath.mpf(eps) - 1) / mpmath.mpf(model.a)
        if model.kind is HamiltonianKind.TODA:
            return mpmath.acosh(c)
        return c + mpmath.lambertw(-mpmath.exp(-c), 0).real


def section_crossings_per_sample(traj):
    """section_crossings, one sample interval at a time."""
    xs, ks, tau, flow = traj.x, traj.k, traj.tau, traj.flow
    times = []
    for i in range(len(xs) - 1):
        if xs[i] == 0.0 and ks[i] > 0.0:
            times.append(tau[i])
        elif xs[i] < 0.0 < xs[i + 1]:
            times.append(classical._hermite_crossing(
                tau[i], tau[i + 1], xs[i], xs[i + 1], flow(xs[i], ks[i])[0],
                flow(xs[i + 1], ks[i + 1])[0]))
    return times


def return_to_start_per_sample(traj):
    """classical.return_to_start, one sample interval at a time; None where
    the trajectory does not return."""
    xs, ks, tau, flow = traj.x, traj.k, traj.tau, traj.flow
    dx, dk = flow(xs[0], ks[0])
    if abs(dx) > abs(dk):  # section on x = x0: x and k swap roles
        xs, ks, dk = ks, xs, dx
        flow = lambda k, x, f=flow: f(x, k)[::-1]
    k0, x0 = ks[0], xs[0]
    down = dk < 0.0
    x_side = math.copysign(1.0, x0)
    for i in range(1, len(ks) - 1):
        ki, kj = ks[i] - k0, ks[i + 1] - k0
        crossing = (ki > 0.0 >= kj) if down else (ki < 0.0 <= kj)
        if crossing and math.copysign(1.0, xs[i]) == x_side:
            (dxi, dki), (dxj, dkj) = flow(xs[i], ks[i]), flow(xs[i + 1],
                                                            ks[i + 1])
            t_star = classical._hermite_crossing(tau[i], tau[i + 1], ki, kj,
                                                 dki, dkj)
            h = tau[i + 1] - tau[i]
            x_star = classical._hermite((t_star - tau[i]) / h, h, xs[i],
                                        xs[i + 1], dxi, dxj)
            return float(t_star), float(abs(x_star - x0))
    return None


# ---------------------------------------------------------------------------
# bisections with a fixed number of halvings
# ---------------------------------------------------------------------------

def hermite_crossing_fixed(t0, t1, x0, x1, d0, d1):
    """Zero of the cubic Hermite interpolant on [t0, t1]: 60 halvings."""
    h = t1 - t0
    lo, hi = 0.0, 1.0
    flo = x0

    def val(s):
        h00 = (1.0 + 2.0 * s) * (1.0 - s) ** 2
        h10 = s * (1.0 - s) ** 2
        h01 = s * s * (3.0 - 2.0 * s)
        h11 = s * s * (s - 1.0)
        return h00 * x0 + h10 * h * d0 + h01 * x1 + h11 * h * d1

    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = val(mid)
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return t0 + h * 0.5 * (lo + hi)


def kernel_zeros_fixed(params, upper, probes):
    """Kernel zeros on (0, upper] from a scan of probes uniform cells, each
    sign change refined by 80 halvings (gaussian._kernel_zeros brackets
    between the extrema of F instead)."""
    al = params.alpha
    if upper <= 0.0:
        return []
    n = max(int(probes), 400)
    grid = np.linspace(0.0, upper, n + 1)
    vals = im_erf_offset_scaled(al, grid)
    zeros = []
    for i in range(n):
        v0, v1 = vals[i], vals[i + 1]
        if v0 == 0.0 and grid[i] > 0.0:
            zeros.append(float(grid[i]))
        elif (v0 > 0.0) != (v1 > 0.0):
            lo, hi = grid[i], grid[i + 1]
            flo = v0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                fm = im_erf_offset_scaled(al, float(mid))
                if (fm > 0.0) == (flo > 0.0):
                    lo, flo = mid, fm
                else:
                    hi = mid
            zeros.append(0.5 * (lo + hi))
    merged = []
    for z in zeros:
        if not merged or z - merged[-1] > 1e-9:
            merged.append(z)
    return merged


def kernel_zeros_bisect(params, upper):
    """gaussian._kernel_zeros by plain bisection: each extremum bracket of F
    halved by the sign of the scaled kernel until the midpoint equals an
    end.  Returns (zero, kernel calls) per zero, the zero the midpoint of
    the final pair of adjacent floats."""
    al = params.alpha
    step = math.pi / (al * al) if al * al > 0.0 else math.inf
    nodes = step * np.arange(math.ceil(upper / step))
    nodes = np.append(nodes[nodes < upper], upper)
    up = im_erf_offset_scaled(al, nodes) > 0.0
    out = []
    for i in np.flatnonzero(up[:-1] != up[1:]):
        lo, hi = float(nodes[i]), float(nodes[i + 1])
        calls = 0
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:
            calls += 1
            if (im_erf_offset_scaled(al, mid) > 0.0) == up[i]:
                lo = mid
            else:
                hi = mid
            mid = 0.5 * (lo + hi)
        out.append((0.5 * (lo + hi), calls))
    return out


def weideman_coefficients_fft(n_terms=64):
    """(ell, coefficients in descending powers) of the Weideman rational
    approximation of the Faddeeva function, by the FFT of its construction,
    which specfun writes out as constants."""
    m = 2 * n_terms
    k = np.arange(-m + 1, m)
    ell = math.sqrt(n_terms / math.sqrt(2.0))
    t = ell * np.tan(k * math.pi / (2 * m))
    f = np.concatenate(([0.0], np.exp(-t * t) * (ell * ell + t * t)))
    coef = np.real(np.fft.fft(np.fft.fftshift(f))) / (2.0 * m)
    return ell, tuple(coef[1:n_terms + 1][::-1].tolist())


def stagnation_windings(params, points, bbox):
    """circulation_number around each stagnation point, on a loop of one
    third of its nearest-neighbour distance (the shorter bbox side for a
    lone point), shrunk to 0.9 of its distance to the trust-region edge."""
    x_lo, x_hi, k_lo, k_hi = bbox
    lim = params.trust_limit()
    coords = [(s.location.x, s.location.k) for s in points]
    windings = []
    for cx, ck in coords:
        nn = min((math.hypot(cx - ox, ck - ok)
                  for ox, ok in coords if (ox, ok) != (cx, ck)),
                 default=min(x_hi - x_lo, k_hi - k_lo))
        radius = nn / 3.0
        max_r = lim - max(abs(cx), abs(ck))
        radius = min(radius, 0.9 * max_r) if max_r > 0.0 else radius
        windings.append(circulation_number(params, PhasePoint(cx, ck), radius))
    return windings


def beta_star_inline(a):
    """thermo.beta_star with its bisection written out: bracket, then halve
    until the midpoint equals an end; the upper end is the root."""
    lo, hi = 1e-3, 1.0
    while not z_st_closed(lo, a) > 0.0:
        lo, hi = 0.5 * lo, lo
    while z_st_closed(hi, a) > 0.0:
        lo, hi = hi, 2.0 * hi
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if z_st_closed(mid, a) > 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    if z0_closed(hi, a) < 2.2250738585072014e-308:
        raise NumericalError(f"beta*(a={a}) is out of reach")
    return hi


def scaled_kernel_weideman(alpha, chi):
    """im_erf_offset_scaled for one float chi on pure-Python complex
    arithmetic: the Weideman rational approximation, about 1e-15 relative."""
    x = alpha * abs(chi)
    y = 0.5 * alpha
    w = _weideman_w(complex(-y, x))
    phase = cmath.exp(complex(0.0, -2.0 * x * y))
    return -math.exp(y * y) * (phase * w).imag

"""Independent numerical oracles used across the test suite.

Everything here deliberately avoids the code paths it is used to check:
plane integrals use tensor Gauss-Legendre rules instead of the adaptive
engine, the Bessel functions come from the adaptive engine on their
integral representation instead of the series and continued fraction, the
Toda period comes from a time-of-flight quadrature of the level
curve rather than from orbit integration, and the complete elliptic integral
of the first kind is reduced from the quartic turning-point form by hand.
The table writer and the marching squares appear here in their
one-record-at-a-time and one-cell-at-a-time forms, as references that the
package's column-at-a-time and whole-array versions must match exactly.
"""

import json
import math

import numpy as np

from wignerflow.errors import UsageError
from wignerflow.model import HamiltonianKind, energy
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
    return energy(h, p) - quad


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

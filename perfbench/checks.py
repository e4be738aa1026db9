"""Output checks, run after the timed part of a benchmark run.

Each check reads the files one step wrote and compares them with
``reference.py`` (scipy, mpmath) or with a property the method must have.
A check raises ``CheckError`` with a message naming what differs.
Tolerances admit the measured error of today's method and of an exact
closed form alike; each one is stated next to the comparison it guards.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np

import reference as ref
from workloads import BBOX, GRID, WORKLOADS


class CheckError(Exception):
    pass


def _require(cond, msg):
    if not cond:
        raise CheckError(msg)


def _nodes(n=GRID, bbox=BBOX):
    return np.linspace(bbox[0], bbox[1], n), np.linspace(bbox[2], bbox[3], n)


def read_kv(text):
    """``key=value`` lines of a step's standard output, in order."""
    return [tuple(line.split("=", 1)) for line in text.splitlines()
            if "=" in line]


def read_table(path):
    """(header, rows as float array) of a CSV or JSON table."""
    path = Path(path)
    if path.suffix == ".json":
        records = json.loads(path.read_text(encoding="utf-8"))
        _require(records, f"{path.name}: empty table")
        header = list(records[0])
        return header, np.array([[float(r[c]) for c in header]
                                 for r in records])
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


# ---------------------------------------------------------------------------
# phase portraits
# ---------------------------------------------------------------------------

# quantity -> (vector, trust-masked) as documented in the README
_GAUSSIAN = {"divj": (False, False), "divw": (False, True),
             "vort": (False, True), "w": (True, True)}
_THERMAL = {"w_st2": (False, False), "j": (True, False)}

# Largest deviation from the reference, as a share of the grid's largest
# reference value.  The Weideman/erf kernels agree with scipy to ~1e-15;
# vort is a central difference with h = 1e-5 today (error ~2e-11 against
# the exact -(sqrt(pi)/alpha)(a S(k) cosh x + S(x) cosh k)); the thermal
# quantities inherit the 1e-13 tolerance of the package's Bessel quadrature.
GRID_RTOL = {"divj": 1e-12, "divw": 1e-12, "w": 1e-12, "vort": 1e-9,
             "w_st2": 1e-11, "j": 1e-11}


def check_grid(path, ensemble, quantity, n=GRID, bbox=BBOX, alpha=None,
               beta=None, a=1.0):
    vector, masked = (_GAUSSIAN if ensemble == "gaussian" else _THERMAL)[quantity]
    header, data = read_table(path)
    cols = ["x", "k"] + (["vx", "vk"] if vector else ["value"])
    cols += ["valid"] if masked else []
    _require(header == cols, f"{path.name}: columns {header}, expected {cols}")
    _require(data.shape == (n * n, len(cols)),
             f"{path.name}: {data.shape[0]} rows, expected {n * n}")
    xs, ks = _nodes(n, bbox)
    _require(np.array_equal(data[:, 0], np.tile(xs, n))
             and np.array_equal(data[:, 1], np.repeat(ks, n)),
             f"{path.name}: node coordinates are not the grid, x fastest")
    values = data[:, 2:4] if vector else data[:, 2]
    if ensemble == "gaussian":
        expect = ref.gaussian_grid(quantity, alpha, a, xs, ks)
    else:
        expect = ref.thermal_grid(quantity, beta, a, xs, ks)
    expect = expect.reshape(values.shape)
    if masked:
        mask = ref.trust_mask(alpha, xs, ks).ravel()
        _require(np.array_equal(data[:, -1], mask.astype(float)),
                 f"{path.name}: valid column differs from the trust mask")
        _require(not np.any(values[~mask]),
                 f"{path.name}: nodes outside the trust region hold values")
        values, expect = values[mask], expect[mask]
    scale = float(np.max(np.abs(expect)))
    err = np.abs(values - expect)
    worst = int(np.argmax(err.max(axis=-1) if vector else err))
    _require(float(err.max()) <= GRID_RTOL[quantity] * scale,
             f"{path.name}: {quantity} deviates by {float(err.max()):.3e} "
             f"(scale {scale:.3e}, tolerance {GRID_RTOL[quantity]:g} "
             f"relative) at row {worst}")
    return float(err.max()) / scale


def _edge_of(px, pk, xs, ks, tol):
    """The grid edge a contour vertex lies on: ((i0, j0), (i1, j1)) node
    index pairs, or None."""
    dx, dk = xs[1] - xs[0], ks[1] - ks[0]
    j = int(round((pk - ks[0]) / dk))
    if 0 <= j < len(ks) and abs(ks[j] - pk) <= tol:
        i = min(max(int(math.floor((px - xs[0]) / dx)), 0), len(xs) - 2)
        if xs[i] - tol <= px <= xs[i + 1] + tol:
            return (i, j), (i + 1, j)
    i = int(round((px - xs[0]) / dx))
    if 0 <= i < len(xs) and abs(xs[i] - px) <= tol:
        j = min(max(int(math.floor((pk - ks[0]) / dk)), 0), len(ks) - 2)
        if ks[j] - tol <= pk <= ks[j + 1] + tol:
            return (i, j), (i, j + 1)
    return None


def check_contours(path, alpha, a=1.0, n=GRID, bbox=BBOX):
    """Every vertex lies on a grid edge across which the scipy div J changes
    sign, at the linear-interpolation point; every edge with a clear sign
    change carries a vertex.  Node values within 1e-12 of the grid's scale
    (the a = 1 diagonal, the axes) count as either sign."""
    xs, ks = _nodes(n, bbox)
    v = ref.gaussian_grid("divj", alpha, a, xs, ks)
    amb = np.abs(v) <= 1e-12 * np.max(np.abs(v))
    pos = v >= 0.0
    with np.load(path) as npz:
        lines = [npz[key] for key in sorted(npz.files,
                                            key=lambda s: int(s.split("_")[1]))]
    _require(lines, f"{Path(path).name}: no contours")
    tol = 1e-12 * (bbox[1] - bbox[0])
    seen = set()
    for li, line in enumerate(lines):
        _require(line.ndim == 2 and line.shape[1] == 2 and len(line) >= 2,
                 f"contour {li}: malformed array {line.shape}")
        for px, pk in line:
            edge = _edge_of(px, pk, xs, ks, tol)
            _require(edge is not None,
                     f"contour {li}: vertex ({px:.6g}, {pk:.6g}) is on no "
                     f"grid edge")
            (i0, j0), (i1, j1) = edge
            v0, v1 = v[j0, i0], v[j1, i1]
            ambiguous = amb[j0, i0] or amb[j1, i1]
            _require(ambiguous or pos[j0, i0] != pos[j1, i1],
                     f"contour {li}: vertex ({px:.6g}, {pk:.6g}) on an edge "
                     f"without a sign change of div J")
            if not ambiguous:
                t = v0 / (v0 - v1)
                qx = xs[i0] + t * (xs[i1] - xs[i0])
                qk = ks[j0] + t * (ks[j1] - ks[j0])
                _require(math.hypot(px - qx, pk - qk) <= 1e-9,
                         f"contour {li}: vertex ({px:.6g}, {pk:.6g}) is off "
                         f"the zero crossing ({qx:.6g}, {qk:.6g})")
            seen.add(edge)
    clear = ~amb
    for axis, (a0, a1) in enumerate((((slice(None), slice(0, -1)),
                                      (slice(None), slice(1, None))),
                                     ((slice(0, -1), slice(None)),
                                      (slice(1, None), slice(None))))):
        change = (pos[a0] != pos[a1]) & clear[a0] & clear[a1]
        for j, i in zip(*np.nonzero(change)):
            edge = ((i, j), (i + 1, j)) if axis == 0 else ((i, j), (i, j + 1))
            _require(edge in seen, f"sign change of div J on edge {edge} "
                                   f"carries no contour vertex")
    return len(lines)


def _expected_circulation(alpha, a, x, k):
    """+-1 where the linearised flow rotates (complex eigenvalues), with the
    sign of its vorticity; 0 at saddles and nodes."""
    jac = ref.velocity_jacobian(alpha, a, x, k)
    tr, det = np.trace(jac), np.linalg.det(jac)
    if det > 0.0 and tr * tr < 4.0 * det:
        return float(np.sign(jac[1, 0] - jac[0, 1]))
    return 0.0


def check_stagnation(path, a, alpha_min, alpha_max, alpha_steps, grid,
                     threshold, bbox=BBOX):
    records = json.loads(Path(path).read_text(encoding="utf-8"))
    alphas = np.linspace(alpha_min, alpha_max, alpha_steps)
    _require(len(records) == alpha_steps,
             f"stagnation: {len(records)} sweep members, expected {alpha_steps}")
    upper = max(abs(v) for v in bbox)
    xs, ks = _nodes(grid, bbox)
    for rec, alpha in zip(records, alphas):
        alpha = float(alpha)
        _require(abs(rec["alpha"] - alpha) <= 1e-15,
                 f"stagnation: member alpha {rec['alpha']} != {alpha}")
        zeros = ref.kernel_zeros(alpha, upper)
        coords = [0.0] + [s * z for z in zeros for s in (1.0, -1.0)]
        lattice = sorted({(cx, ck) for cx in coords for ck in coords
                          if (cx == 0.0) == (ck == 0.0)
                          and bbox[0] <= cx <= bbox[1]
                          and bbox[2] <= ck <= bbox[3]})
        pts = sorted((p["x"], p["k"], p["circulation"], p["class"])
                     for p in rec["points"])
        _require(len(pts) == len(lattice),
                 f"stagnation alpha={alpha:.6g}: {len(pts)} points, the "
                 f"kernel-zero lattice has {len(lattice)}")
        for (px, pk, circ, cls), (lx, lk) in zip(pts, lattice):
            _require(math.hypot(px - lx, pk - lk) <= 1e-9,
                     f"stagnation alpha={alpha:.6g}: point ({px:.12g}, "
                     f"{pk:.12g}) is not the lattice point ({lx:.12g}, "
                     f"{lk:.12g})")
            jx, jk = ref.gaussian_grid("j", alpha, a, [px], [pk])[0, 0]
            _require(math.hypot(jx, jk) <= 1e-10,
                     f"stagnation alpha={alpha:.6g}: |J| = "
                     f"{math.hypot(jx, jk):.3e} at ({px:.6g}, {pk:.6g})")
            _require(abs(circ - round(circ)) <= 1e-3,
                     f"stagnation alpha={alpha:.6g}: circulation {circ} is "
                     f"not an integer")
            expect = _expected_circulation(alpha, a, lx, lk)
            _require(round(circ) == expect,
                     f"stagnation alpha={alpha:.6g}: circulation {circ} at "
                     f"({px:.6g}, {pk:.6g}), the linearised flow gives "
                     f"{expect:+.0f}")
            cls_expect = {1.0: "vortex_ccw", -1.0: "vortex_cw"}.get(
                expect, "saddle_or_separatrix")
            _require(cls == cls_expect,
                     f"stagnation alpha={alpha:.6g}: class {cls}, expected "
                     f"{cls_expect}")
        # envelope: nodes with |w| below the threshold, inside the trust region
        w = ref.gaussian_grid("w", alpha, a, xs, ks)
        speed = np.hypot(w[..., 0], w[..., 1])
        inside = ref.trust_mask(alpha, xs, ks)
        below = (speed < threshold) & inside
        sure = np.abs(speed - threshold) > 1e-12 * threshold
        listed = np.zeros_like(below)
        dx, dk = xs[1] - xs[0], ks[1] - ks[0]
        for ex, ek in rec.get("envelope_nodes", []):
            i, j = int(round((ex - xs[0]) / dx)), int(round((ek - ks[0]) / dk))
            _require(0 <= i < grid and 0 <= j < grid and xs[i] == ex
                     and ks[j] == ek and not listed[j, i],
                     f"stagnation alpha={alpha:.6g}: envelope node "
                     f"({ex}, {ek}) is not a distinct grid node")
            listed[j, i] = True
        bad = (listed != below) & sure
        _require(not bad.any(),
                 f"stagnation alpha={alpha:.6g}: {int(bad.sum())} envelope "
                 f"nodes disagree with |w| < {threshold}")


# ---------------------------------------------------------------------------
# thermal sweep
# ---------------------------------------------------------------------------

def check_thermo(path, stdout, order, a_values, beta_min, beta_max, steps):
    """Columns a,beta,z,energy,heat_capacity,valid.  z against scipy; E and
    C against exact mpmath derivatives of ln Z, within three times the error
    bound of a central difference of step h = beta 1e-4 (the method today;
    an exact form passes too):  E: h^2/6 |l'''| + delta/h,  C: beta^2
    (h^2/12 |l''''| + 4 delta/h^2), where l = ln Z and delta = 2e-14 c is
    the error of ln Z: ten times the measured 1e-15 relative error of the
    package's Bessel values, grown by the cancellation c = (Z+ + Z-)/Z of
    Z_ST = Z+ - Z- near beta* (c = 1 at classical order)."""
    header, data = read_table(path)
    cols = ["a", "beta", "z", "energy", "heat_capacity", "valid"]
    _require(header == cols, f"{Path(path).name}: columns {header}")
    betas = np.linspace(beta_min, beta_max, steps)
    _require(data.shape[0] == len(a_values) * steps,
             f"{Path(path).name}: {data.shape[0]} rows, expected "
             f"{len(a_values) * steps}")
    _require(np.array_equal(data[:, 0], np.repeat(a_values, steps))
             and np.array_equal(data[:, 1], np.tile(betas, len(a_values))),
             f"{Path(path).name}: (a, beta) rows are not the requested sweep")
    printed = {k: float(v) for k, v in read_kv(stdout)
               if k.startswith("beta_star_a")}
    worst = 0.0
    for a in a_values:
        star = ref.beta_star(a)
        key = f"beta_star_a{format(a, 'g')}"
        _require(key in printed, f"thermo: no {key} printed")
        _require(abs(printed[key] - star) <= 1e-10 * star,
                 f"thermo: {key} = {printed[key]!r}, brentq gives {star!r}")
        for a_row, beta, z, energy, heat, valid in data[data[:, 0] == a]:
            where = f"thermo {order} a={a:g} beta={beta:.6g}"
            if order == "classical":
                _require(valid == 1.0, f"{where}: classical row flagged invalid")
            elif valid == 0.0:
                # at or within a few finite-difference steps of beta*
                _require(beta >= star * (1.0 - 1e-3),
                         f"{where}: flagged invalid below beta* = {star:.6g}")
                _require(z == 0.0 and energy == 0.0 and heat == 0.0,
                         f"{where}: invalid row holds values")
                continue
            else:
                _require(valid == 1.0 and beta < star,
                         f"{where}: flagged valid beyond beta* = {star:.6g}")
            l, z_exact = ref.log_z_derivatives(beta, a, order)
            _require(abs(z - z_exact) <= 1e-11 * abs(z_exact),
                     f"{where}: Z = {z!r}, scipy/mpmath {z_exact!r}")
            h = beta * 1e-4
            delta = 2e-14 * (1.0 if order == "classical" else
                             (2.0 * ref.z0(beta, a) - z_exact) / z_exact)
            e_exact, c_exact = -l[1], beta * beta * l[2]
            tol_e = 3.0 * (h * h / 6.0 * abs(l[3]) + delta / h) \
                + 1e-12 * abs(e_exact)
            tol_c = 3.0 * beta * beta * (h * h / 12.0 * abs(l[4])
                                         + 4.0 * delta / (h * h)) \
                + 1e-12 * abs(c_exact)
            _require(abs(energy - e_exact) <= tol_e,
                     f"{where}: E = {energy!r}, exact {e_exact!r}, "
                     f"tolerance {tol_e:.2e}")
            _require(abs(heat - c_exact) <= tol_c,
                     f"{where}: C = {heat!r}, exact {c_exact!r}, "
                     f"tolerance {tol_c:.2e}")
            worst = max(worst, abs(energy - e_exact) / abs(e_exact),
                        abs(heat - c_exact) / abs(c_exact))
    return worst


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def _energy(model, a, x, k):
    if model == "toda":
        return np.cosh(k) + a * np.cosh(x)
    return a * x + k + a * np.exp(-x) + np.exp(-k)


def _species(name, data, x, k, y, z):
    _require(np.array_equal(data[:, y], np.exp(-data[:, x]))
             and np.array_equal(data[:, z], np.exp(-data[:, k])),
             f"{name}: species columns are not y = e^-x, z = e^-k")


def check_orbit(path, stdout, model, a, eps, dt, periods=3.0):
    """Rows tau,x,k,y,z,energy_residual: |H - eps| <= 1e-8 (the package's
    own drift audit bound; today 5e-14), y = e^-x, start on the k = 0
    section, three periods long; the printed period against
    4 K(m)/T+ (Toda, a = 1) or a time-of-flight quadrature (LV)."""
    name = Path(path).name
    header, data = read_table(path)
    _require(header == ["tau", "x", "k", "y", "z", "energy_residual"],
             f"{name}: columns {header}")
    period = ref.toda_period_isotropic(eps) if model == "toda" and a == 1.0 \
        else (ref.toda_period(eps, a) if model == "toda" else
              ref.lv_period(eps, a))
    kv = read_kv(stdout)
    printed = [float(v) for (k, v), (k0, v0) in zip(kv[1:], kv)
               if k == "period" and k0 == "eps" and float(v0) == eps]
    _require(len(printed) == 1, f"{name}: no printed period for eps={eps}")
    _require(abs(printed[0] - period) <= 1e-9 * period,
             f"{name}: period {printed[0]!r}, reference {period!r}")
    n = int(round(max(periods * printed[0], 2.0 * dt) / dt))
    _require(data.shape[0] == n + 1,
             f"{name}: {data.shape[0]} rows, expected {n + 1}")
    _require(np.allclose(data[:, 0], dt * np.arange(n + 1), rtol=0,
                         atol=1e-12), f"{name}: tau is not a uniform grid")
    x0 = math.acosh((eps - 1.0) / a) if model == "toda" else ref.lv_start(eps, a)
    _require(abs(data[0, 1] - x0) <= 1e-12 and data[0, 2] == 0.0,
             f"{name}: starts at ({data[0, 1]}, {data[0, 2]}), not the "
             f"k = 0 section point x = {x0!r}")
    h = _energy(model, a, data[:, 1], data[:, 2])
    drift = np.abs(h - eps)
    _require(drift.max() <= 1e-8, f"{name}: energy drift {drift.max():.3e} "
                                  f"at row {int(np.argmax(drift))}")
    _require(np.allclose(data[:, 5], h - eps, rtol=0, atol=1e-13),
             f"{name}: energy_residual column differs from H - eps")
    _species(name, data, 1, 2, 3, 4)
    return float(drift.max())


def check_analytic(path, summary_path, eps, samples=1000):
    """Rows tau,T,y,z over one measured period: the species identity
    (y + 1/y + z + 1/z)/2 = eps (today <= 2.9e-11; tolerance 1e-9); the
    summary's periods against 4 K(m)/T+ and against a quadrature of the
    literal linear-sine formula, which is 18-27 times the true period and
    is never compared with it."""
    name = Path(path).name
    header, data = read_table(path)
    _require(header == ["tau", "T", "y", "z"], f"{name}: columns {header}")
    _require(data.shape[0] == samples, f"{name}: {data.shape[0]} rows")
    summary = {s["eps"]: s for s in json.loads(
        Path(summary_path).read_text(encoding="utf-8"))}
    _require(eps in summary, f"analytic summary has no eps={eps}")
    s = summary[eps]
    period = ref.toda_period_isotropic(eps)
    _require(abs(s["period_ode"] - period) <= 1e-9 * period,
             f"{name}: period_ode {s['period_ode']!r}, 4K(m)/T+ {period!r}")
    formula, kappa = ref.linear_sine_period(eps)
    _require(abs(s["kappa"] - kappa) <= 1e-14 * kappa,
             f"{name}: kappa {s['kappa']!r}, expected {kappa!r}")
    _require(abs(s["period_formula"] - formula) <= 1e-10 * formula,
             f"{name}: period_formula {s['period_formula']!r}, quadrature "
             f"{formula!r}")
    _require(abs(s["period_ratio"] - s["period_formula"] / s["period_ode"])
             <= 1e-14 * s["period_ratio"], f"{name}: period_ratio")
    root = math.sqrt(eps * eps - 4.0)
    t_plus, t_minus = 0.5 * (eps + root), 0.5 * (eps - root)
    _require(abs(s["t_plus"] - t_plus) <= 1e-14 * t_plus
             and abs(s["t_minus"] - t_minus) <= 1e-13 * t_minus,
             f"{name}: amplitude bounds {s['t_plus']}, {s['t_minus']}")
    tau, t_col, y, z = data.T
    _require(np.allclose(tau, np.linspace(0.0, s["period_ode"], samples),
                         rtol=0, atol=1e-12), f"{name}: tau grid")
    _require(np.allclose(t_col, 0.5 * (y + z), rtol=1e-15, atol=0),
             f"{name}: T is not (y + z)/2")
    ident = np.abs(0.5 * (y + 1.0 / y + z + 1.0 / z) - eps)
    _require(ident.max() <= 1e-9, f"{name}: species identity off by "
                                  f"{ident.max():.3e} at row "
                                  f"{int(np.argmax(ident))}")
    _require(np.all((t_col >= t_minus - 1e-9) & (t_col <= t_plus + 1e-9)),
             f"{name}: T leaves [T-, T+]")
    return float(ident.max())


def read_trajectory(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        _require(header == ["kind", "tau", "x", "k", "y", "z"],
                 f"{Path(path).name}: columns {header}")
        kinds, rows = [], []
        for line in fh:
            kind, rest = line.split(",", 1)
            kinds.append(kind)
            rows.append(rest)
    data = np.array([r.split(",") for r in rows], dtype=float)
    return np.array(kinds), data


def check_trajectory(path, alpha, a, x0, k0, dt, ivp_tau=20.0):
    """Quantum rows conserve Q = a A(x) + A(k), A = Int_0 sinh u / S(u) du,
    to 1e-9 (today <= 1e-11), and match scipy DOP853 (rtol 1e-12) to 1e-8
    up to tau = 20 (today 1.7e-10); classical rows keep H to 1e-8.  Both
    blocks start at (x0, k0) on a uniform tau grid."""
    name = Path(path).name
    kinds, data = read_trajectory(path)
    _require(set(kinds) == {"quantum", "classical"},
             f"{name}: kinds {sorted(set(kinds))}")
    nq = int(np.sum(kinds == "quantum"))
    _require(np.all(kinds[:nq] == "quantum"),
             f"{name}: quantum rows are not one block")
    for label, block in (("quantum", data[:nq]), ("classical", data[nq:])):
        tau, x, k = block[:, 0], block[:, 1], block[:, 2]
        _require(np.allclose(tau, dt * np.arange(len(tau)), rtol=0,
                             atol=1e-12), f"{name}: {label} tau grid")
        _require(x[0] == x0 and k[0] == k0,
                 f"{name}: {label} block starts at ({x[0]}, {k[0]})")
        _species(f"{name} {label}", block, 1, 2, 3, 4)
    q_rows, c_rows = data[:nq], data[nq:]
    reach = 1.05 * float(np.max(np.abs(q_rows[:, 1:3])))
    q = ref.quantum_invariant(alpha, a, reach)
    drift = np.abs(q(q_rows[:, 1], q_rows[:, 2]) - q(x0, k0))
    _require(drift.max() <= 1e-9,
             f"{name}: quantum invariant drifts by {drift.max():.3e} at row "
             f"{int(np.argmax(drift))}")
    upto = q_rows[:, 0] <= ivp_tau + 1e-9
    ix, ik = ref.quantum_path(alpha, a, x0, k0, q_rows[upto, 0])
    dev = np.hypot(ix - q_rows[upto, 1], ik - q_rows[upto, 2])
    _require(dev.max() <= 1e-8,
             f"{name}: quantum path differs from solve_ivp by "
             f"{dev.max():.3e} at row {int(np.argmax(dev))}")
    eps = math.cosh(k0) + a * math.cosh(x0)
    h = np.abs(_energy("toda", a, c_rows[:, 1], c_rows[:, 2]) - eps)
    _require(h.max() <= 1e-8,
             f"{name}: classical energy drift {h.max():.3e}")
    return float(drift.max()), float(dev.max())


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _member_outputs(workdir, stdout, values):
    """The file of each sweep member, from the ``out=`` lines the command
    printed, one per member in the order given."""
    outs = [v for k, v in read_kv(stdout) if k == "out"]
    _require(len(outs) == len(values),
             f"{len(outs)} output files printed for {len(values)} sweep "
             f"members")
    return [(v, workdir / out) for v, out in zip(values, outs)]


def run_step_checks(workdir, step, stdout):
    p = step.params
    cmd = step.command
    out = workdir / p["out"]
    if cmd == "field":
        check_grid(out, p["ensemble"], p["quantity"], n=p["grid"],
                   bbox=p["bbox"], alpha=p.get("alpha"), beta=p.get("beta"),
                   a=p["a"])
    elif cmd == "contours":
        check_contours(out, p["alpha"], p["a"], n=p["grid"])
    elif cmd == "stagnation":
        check_stagnation(out, p["a"], p["alpha-min"], p["alpha-max"],
                         p["alpha-steps"], p["grid"], p["envelope-threshold"],
                         bbox=p["bbox"])
    elif cmd == "thermo":
        check_thermo(out, stdout, p["order"], p["a"], p["beta-min"],
                     p["beta-max"], p["steps"])
    elif cmd == "orbit":
        for eps, path in _member_outputs(workdir, stdout, p["eps"]):
            check_orbit(path, stdout, p["model"], p["a"], eps, p["dt"],
                        periods=p["periods"])
    elif cmd == "analytic":
        summary = workdir / (p["out"].rsplit(".", 1)[0] + "_summary.json")
        for eps, path in _member_outputs(workdir, stdout, p["eps"]):
            check_analytic(path, summary, eps, samples=p["samples"])
    elif cmd == "trajectory":
        for a, path in _member_outputs(workdir, stdout, p["a"]):
            check_trajectory(path, p["alpha"], a, p["x0"], p["k0"], p["dt"])
    else:
        raise CheckError(f"no check for step {cmd!r}")


def run_checks(workdir, steps, failed=()):
    """Check the outputs the steps left in ``workdir``; return the failure
    messages.  A step whose index is in ``failed`` did not finish, and is
    reported as a failure without reading its outputs."""
    problems = []
    for i, step in enumerate(steps):
        if i in failed:
            problems.append(f"step {i} ({step.command}) failed; its outputs "
                            f"are not checked")
            continue
        stdout = (workdir / f"step{i}.out").read_text(errors="replace")
        try:
            run_step_checks(workdir, step, stdout)
        except (CheckError, OSError, ValueError, KeyError) as exc:
            problems.append(f"step {i} ({step.command}): {exc}")
    return problems


def main(argv):
    """checks.py WORKDIR WORKLOAD SEED [FAILED...]: print the failures as a
    JSON list.  ``run.py`` calls it in a separate process, so that scipy
    and mpmath never enter the process that launches (and forks) the timed
    steps."""
    workdir, workload, seed = Path(argv[0]), argv[1], int(argv[2])
    failed = {int(i) for i in argv[3:]}
    print(json.dumps(run_checks(workdir, WORKLOADS[workload](seed), failed)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

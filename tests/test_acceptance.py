"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.  Criteria 7 and 8 fail by measurement:
see the assertion messages, which carry the observed values (the corrected
thermal construction is exactly divergence-free, so no finite-difference
divergence can exhibit the requested power law; and the h2/classical energy
gap at beta = 0.05 is 4.2e-3, limited by the logarithmic smallness of the
Bessel-ratio correction, not 1e-3).
"""

import json
import math
import time

import numpy as np
import pytest

from wignerflow.classical import (OrbitSpec, integrate_orbit,
                                  return_to_start, toda_closed_period,
                                  toda_species_series)
from wignerflow.gaussian import (GaussianEnsembleParams, currents_closed,
                                 div_currents_closed, find_stagnation_points,
                                 gaussian_w, integrate_quantum_trajectory,
                                 series_currents, stationarity_div_j,
                                 velocity_w)
from wignerflow.model import (HamiltonianKind, PhasePoint,
                              SeparableHamiltonian)
from wignerflow.specfun import QuadratureSpec, bessel_k, integrate_1d
from wignerflow.thermo import (ThermalEnsembleParams, currents_td,
                               epsilon_correction, observables, z0_closed,
                               z_st_closed)

from launcher import run_cli
from oracles import (fit_power, gauss_legendre_2d, orbit_period,
                     thermal_plane_integral, toda_time_of_flight)

TODA = SeparableHamiltonian(HamiltonianKind.TODA, 1.0)
LV = SeparableHamiltonian(HamiltonianKind.LV, 1.0)
ALPHAS = (2.0 ** -0.5, 1.0, 2.0 ** 0.5)


def report(cid, ok, detail):
    print(f"ACCEPTANCE {cid:>2}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {cid}: {detail}"


def test_criterion_01_energy_conservation():
    started = time.perf_counter()
    spec = OrbitSpec.from_energy(TODA, 2.5, step=1e-3, duration=60.0)
    traj = integrate_orbit(spec)
    elapsed = time.perf_counter() - started
    drift = traj.max_drift
    report("01", drift < 1e-8 and elapsed < 5.0,
           f"max |H - eps| = {drift:.2e} over 10 periods in {elapsed:.2f} s")


def test_criterion_02_analytic_species_identity():
    worst = 0.0
    for eps in (2.1, 2.5, 4.0, 6.0):
        period = toda_closed_period(eps).period_ode
        ys, zs = toda_species_series(eps, np.linspace(0.0, period, 1000))
        lhs = 0.5 * (ys + 1.0 / ys + zs + 1.0 / zs)
        worst = max(worst, float(np.max(np.abs(lhs - eps))))
    report("02", worst <= 1e-10, f"max level-curve residual = {worst:.2e}")


def test_criterion_03_harmonic_limit():
    devs = {}
    for name, model in (("toda", TODA), ("lv", LV)):
        spec = OrbitSpec.from_energy(model, 2.0001, step=1e-3, duration=30.0)
        period = orbit_period(spec)
        devs[name] = abs(period - 2.0 * math.pi) / (2.0 * math.pi)
    ok = all(d < 5e-3 for d in devs.values())
    report("03", ok, "relative deviation from 2 pi: "
           + ", ".join(f"{k} {v:.2e}" for k, v in devs.items()))


def test_criterion_04_period_cross_check():
    details = []
    ok = True
    for eps in (2.1, 2.5, 4.0, 6.0):
        closed = toda_closed_period(eps)
        ref = toda_time_of_flight(eps)
        rel = abs(closed.period_ode - ref) / ref
        ok = ok and rel <= 1e-5
        details.append(f"eps={eps}: ode-vs-quadrature {rel:.1e}, "
                       f"formula/ode ratio {closed.period_ratio:.3f}")
    report("04", ok, "; ".join(details))


def test_criterion_05_partition_function():
    worst = 0.0
    for beta in (0.5, 1.0, 2.0):
        for a in (0.5, 1.0, 2.0, 4.0):
            ref = thermal_plane_integral(
                lambda x, k: np.exp(-beta * (a * np.cosh(x) + np.cosh(k))),
                beta, a)
            worst = max(worst, abs(z0_closed(beta, a) - ref) / ref)
    report("05", worst < 1e-8, f"worst relative error = {worst:.2e}")


def test_criterion_06_corrected_partition_function():
    worst = 0.0
    checked = 0
    for beta in (0.5, 1.0, 2.0):
        for a in (0.5, 1.0, 2.0, 4.0):
            if z_st_closed(beta, a) <= 0.0:
                continue
            params = ThermalEnsembleParams(beta, a, "h2")

            def integrand(x, k):
                return (np.exp(-beta * (a * np.cosh(x) + np.cosh(k)))
                        * (1.0 + epsilon_correction(params, x, k)))

            ref = thermal_plane_integral(integrand, beta, a)
            worst = max(worst, abs(z_st_closed(beta, a) - ref) / abs(ref))
            checked += 1
    report("06", worst < 1e-6 and checked == 12,
           f"worst relative error = {worst:.2e} over {checked} grid points")


def test_criterion_07_internal_energy():
    obs = observables(ThermalEnsembleParams(1.0, 1.0))
    closed = 2.0 * bessel_k(1, 1.0) / bessel_k(0, 1.0)
    h = 1e-4
    fd = -(math.log(z0_closed(1.0 + h, 1.0))
           - math.log(z0_closed(1.0 - h, 1.0))) / (2.0 * h)
    clause1 = (abs(obs.energy - closed) < 1e-12
               and abs(obs.energy - fd) / obs.energy < 1e-6)
    cl = observables(ThermalEnsembleParams(0.05, 1.0))
    h2 = observables(ThermalEnsembleParams(0.05, 1.0, "h2"))
    gap = abs(h2.energy - cl.energy) / cl.energy
    clause2 = gap < 1e-3
    report("07", clause1 and clause2,
           f"closed-form vs finite differences ok = {clause1}; "
           f"h2/classical gap at beta = 0.05 is {gap:.2e} (required < 1e-3, "
           f"but beta^2 K1(beta) K1(a beta) tends to a constant, so the "
           f"correction decays only like 1/ln^2(1/beta))")


def test_criterion_08_thermal_stationarity_order():
    h = 1e-4
    x0, k0 = 0.7, 0.4
    betas = np.geomspace(0.05, 0.4, 9)
    divs = []
    for beta in betas:
        params = ThermalEnsembleParams(float(beta), 1.0, "h2")

        def jx(x, k):
            return currents_td(params, x, k)[0]

        def jk(x, k):
            return currents_td(params, x, k)[1]

        div = ((jx(x0 + h, k0) - jx(x0 - h, k0))
               + (jk(x0, k0 + h) - jk(x0, k0 - h))) / (2.0 * h)
        divs.append(abs(div))
    exponent = fit_power(betas, divs)
    report("08", exponent >= 3.5,
           f"fitted exponent = {exponent:.2f}, |div| in "
           f"[{min(divs):.1e}, {max(divs):.1e}]: the closed-form divergence "
           f"is identically zero, so the measurement sees only the h^2 "
           f"stencil error of an exactly stationary construction")


def test_criterion_09_series_vs_closed_form():
    worst = 0.0
    xs = np.linspace(-2.0, 2.0, 21)
    x, k = np.meshgrid(xs, xs)
    for alpha in ALPHAS:
        params = GaussianEnsembleParams(alpha)
        srs = series_currents(params, x, k, 12)
        cls = div_currents_closed(params, x, k)
        for s, c in zip(srs, cls):
            mask = np.abs(c) > 1e-30
            worst = max(worst, float(np.max(np.abs(s - c)[mask]
                                            / np.abs(c)[mask])))
            if np.any(~mask):
                worst = max(worst, float(np.max(np.abs(s[~mask]))))
    report("09", worst < 1e-6, f"worst relative deviation = {worst:.2e}")


def test_criterion_10_current_divergence_consistency():
    xs = np.linspace(-2.0, 2.0, 21)
    x, k = np.meshgrid(xs, xs)
    params = GaussianEnsembleParams(1.0)
    h = 1e-5
    fd = ((currents_closed(params, x + h, k)[0]
           - currents_closed(params, x - h, k)[0]) / (2.0 * h),
          (currents_closed(params, x, k + h)[1]
           - currents_closed(params, x, k - h)[1]) / (2.0 * h))
    cls = div_currents_closed(params, x, k)
    worst_fd = max(float(np.max(np.abs(fd[0] - cls[0]))),
                   float(np.max(np.abs(fd[1] - cls[1]))))
    rng = np.random.default_rng(7)
    worst_ftc = 0.0
    for x0, k0 in rng.uniform(-2.0, 2.0, size=(10, 2)):
        ref = integrate_1d(
            lambda xx: float(div_currents_closed(params, xx, k0)[0]),
            -9.0, float(x0), QuadratureSpec(1e-13, 1e-11, 2000))
        jx = currents_closed(params, float(x0), float(k0))[0]
        worst_ftc = max(worst_ftc, abs(jx - ref))
    report("10", worst_fd < 1e-6 and worst_ftc < 1e-8,
           f"max |finite difference - closed| = {worst_fd:.2e}; "
           f"max cumulative-quadrature deviation = {worst_ftc:.2e}")


def test_criterion_11_symmetry_suite():
    params = GaussianEnsembleParams(1.0)
    worst_diag = 0.0
    for t in np.linspace(-2.0, 2.0, 41):
        worst_diag = max(worst_diag,
                         abs(stationarity_div_j(params,
                                                float(t), float(t))))
    worst_parity = 0.0
    rng = np.random.default_rng(11)
    for x, k in rng.uniform(-2.0, 2.0, size=(50, 2)):
        jx, jk = currents_closed(params, x, k)
        jx_mx, jk_mx = currents_closed(params, -x, k)
        jx_mk, jk_mk = currents_closed(params, x, -k)
        worst_parity = max(
            worst_parity,
            abs(float(jx_mx - jx)), abs(float(jx_mk + jx)),
            abs(float(jk_mk - jk)), abs(float(jk_mx + jk)))
    report("11", worst_diag <= 1e-14 and worst_parity <= 1e-12,
           f"diagonal div J residual = {worst_diag:.1e}; "
           f"parity residual = {worst_parity:.1e}")


def test_criterion_12_classical_limit():
    params = GaussianEnsembleParams(0.2)
    worst = 0.0
    for x in np.linspace(-1.0, 1.0, 21):
        for k in np.linspace(-1.0, 1.0, 21):
            wx, wk = velocity_w(params, float(x), float(k))
            vx, vk = math.sinh(k), -math.sinh(x)
            worst = max(worst, math.hypot(wx - vx, wk - vk)
                        / (1.0 + math.hypot(vx, vk)))
    report("12", worst < 0.02, f"max scaled velocity deviation = {worst:.4f}")


def test_criterion_13_stagnation_topology():
    bbox = (-3.0, 3.0, -3.0, 3.0)
    counts = {}
    ok = True
    for alpha in (2.0 ** -0.5, 2.0 ** 0.5):
        points = find_stagnation_points(GaussianEnsembleParams(alpha), bbox)
        counts[alpha] = len(points)
        ok = ok and any(s.location.x == 0.0 and s.location.k == 0.0
                        for s in points)
        for s in points:
            ok = ok and min(abs(s.circulation - g)
                            for g in (-1.0, 0.0, 1.0)) < 1e-3
    ok = ok and counts[2.0 ** -0.5] < counts[2.0 ** 0.5]
    report("13", ok, f"counts on [-3,3]^2: "
           f"{counts[2.0 ** -0.5]} (broad) -> {counts[2.0 ** 0.5]} (peaked); "
           f"origin present, circulation integral")


def test_criterion_14_semiclassical_trajectories():
    params = GaussianEnsembleParams(1.0)
    classical_period = orbit_period(OrbitSpec.from_point(
        TODA, PhasePoint(0.6, 0.0), step=1e-3, duration=40.0))
    q, c = integrate_quantum_trajectory(params, PhasePoint(0.6, 0.0), 2e-3,
                                        10.0 * classical_period)
    bounded = (float(np.max(np.abs(q.x))) < 2.0
               and float(np.max(np.abs(q.k))) < 2.0)
    t_q, gap_q = return_to_start(q)
    dephasing = abs(t_q - classical_period)
    q0, _ = integrate_quantum_trajectory(params, PhasePoint(0.0, 0.0),
                                         2e-3, 1.0)
    fixed = (float(np.max(np.abs(q0.x))) < 1e-12
             and float(np.max(np.abs(q0.k))) < 1e-12)
    ok = bounded and gap_q < 1e-3 and dephasing > 1e-3 and fixed
    report("14", ok,
           f"bounded = {bounded}; closure = {gap_q:.1e}; quantum return "
           f"{t_q:.4f} vs classical period {classical_period:.4f}; "
           f"equilibrium fixed = {fixed}")


def test_criterion_15_purity():
    worst = 0.0
    for alpha in ALPHAS:
        params = GaussianEnsembleParams(alpha)
        val = 2.0 * math.pi * gauss_legendre_2d(
            lambda x, k: gaussian_w(params, x, k) ** 2,
            8.0 / alpha, 8.0 / alpha)
        worst = max(worst, abs(val - alpha * alpha))
    report("15", worst < 1e-8, f"max |2 pi Int W^2 - alpha^2| = {worst:.2e}")


def test_criterion_16_cli_determinism_and_exit_codes(tmp_path):
    blobs = {}
    for name, threads in (("r1.csv", "1"), ("r2.csv", "1"), ("r8.csv", "8")):
        res = run_cli(["field", "--quantity", "divw", "--grid", "31",
                       "--threads", threads, "--out", name], tmp_path)
        assert res.returncode == 0
        blobs[name] = (tmp_path / name).read_bytes()
    deterministic = (blobs["r1.csv"] == blobs["r2.csv"] == blobs["r8.csv"])

    for name in ("o1.csv", "o2.csv"):
        res = run_cli(["orbit", "--eps", "2.5", "--dt", "2e-3", "--periods",
                       "1", "--out", name], tmp_path)
        assert res.returncode == 0
    deterministic = deterministic and ((tmp_path / "o1.csv").read_bytes()
                                       == (tmp_path / "o2.csv").read_bytes())

    failures = {
        "orbit": (["orbit", "--eps", "1.5", "--out", "x.csv"], 3),
        "analytic": (["analytic", "--eps", "2.0", "--out", "x.csv"], 3),
        "thermo": (["thermo", "--beta-min", "4.6", "--beta-max", "5.0",
                    "--steps", "3", "--order", "h2", "--out", "x.csv"], 3),
        "field": (["field", "--quantity", "bogus", "--out", "x.csv"], 2),
        "stagnation": (["stagnation", "--alpha-max", "4.0", "--bbox", "-3",
                        "3", "-3", "3", "--out", "x.json"], 3),
        "trajectory": (["trajectory", "--x0", "7.0", "--out", "x.csv"], 3),
    }
    codes_ok = True
    details = []
    for name, (args, expected) in failures.items():
        res = run_cli(args, tmp_path)
        codes_ok = codes_ok and res.returncode == expected
        details.append(f"{name}:{res.returncode}")
    report("16", deterministic and codes_ok,
           f"byte-identical = {deterministic}; exit codes "
           + ", ".join(details))

"""The oracle suite behind ``wignerflow --selftest``: every check pits a
closed form against an independent numerical route.  Only ``--selftest``
loads this module.
"""

import json
import math

import numpy as np

from . import classical, gaussian, thermo
from .csvfloats import csv_rows, float_slots
from .gaussian import GaussianEnsembleParams
from .model import HamiltonianKind, SeparableHamiltonian
from .scalar import bessel_k
from .specfun import (QuadratureSpec, elliptic_k_complete, hermite_odd,
                      im_erf_offset, integrate_1d, jacobi_sn_cn)
from .thermo import ThermalEnsembleParams


def run():
    """Every check's name and whether it passed."""
    checks = {}

    quad = QuadratureSpec(1e-13, 1e-12, 2000)
    k0_spec = QuadratureSpec(1e-300, 1e-13, 2000)  # relative tolerance only

    def k0_quad(x):
        return integrate_1d(lambda t: math.exp(-x * math.cosh(t))
                            if t < 700 else 0.0, 0.0, math.inf, k0_spec)

    # one argument on each branch: Temme's series and the continued fraction
    checks["bessel_vs_quadrature"] = all(
        abs(k0_quad(x) - bessel_k(0, x)) < 1e-12 * bessel_k(0, x)
        for x in (1.0, 5.0))

    v = integrate_1d(lambda t: 1.0 / math.sqrt(1.0 - 0.5 * math.sin(t) ** 2),
                     0.0, math.pi / 2.0, quad)
    checks["elliptic_vs_quadrature"] = abs(
        v - elliptic_k_complete(kc=math.sqrt(0.5))) < 1e-12

    quarter = elliptic_k_complete(kc=math.sqrt(0.7))
    checks["sn_quarter_period"] = abs(
        jacobi_sn_cn(quarter, kc=math.sqrt(0.7))[0] - 1.0) < 1e-12

    x, y = 2.0, 0.5
    v = (2.0 / math.sqrt(math.pi)) * math.exp(-x * x) * integrate_1d(
        lambda t: math.exp(t * t) * math.cos(2.0 * x * t), 0.0, y, quad)
    checks["im_erf_vs_contour"] = abs(v - im_erf_offset(1.0, 2.0)) < 1e-10

    s, arg = 0.3, 0.7
    total = 0.0
    for eta in range(21):
        order = 2 * eta + 1
        total += hermite_odd(order, arg) * s ** order / math.factorial(order)
    ref = math.exp(-s * s) * math.sinh(2.0 * s * arg)
    checks["hermite_generating"] = abs(total - ref) < 1e-12

    params = ThermalEnsembleParams(1.0, 1.0)
    xm, km = thermo.quadrature_box(1.0, 1.0)
    u, w = np.polynomial.legendre.leggauss(160)
    gx = u * xm
    gk = u * km
    wx = w * xm
    wk = w * km
    grid = np.exp(-(np.cosh(gx)[None, :] + np.cosh(gk)[:, None]))
    z_quad = float(wk @ grid @ wx)
    checks["z0_vs_quadrature"] = (
        abs(z_quad - thermo.z0_closed(1.0, 1.0)) / z_quad < 1e-10)

    h = 1e-4
    ln_z = [math.log(thermo.z_st_closed(1.0 + d, 1.0)) for d in (-h, 0.0, h)]
    fd = (ln_z[2] - 2.0 * ln_z[1] + ln_z[0]) / (h * h)
    heat = thermo.observables(ThermalEnsembleParams(1.0, 1.0, "h2")).heat_capacity
    checks["heat_capacity_closed_vs_fd"] = abs(heat - fd) < 1e-6 * abs(heat)

    # the quantum RK4's right-hand side against the array path
    def kernel_table_error(alpha):
        params = GaussianEnsembleParams(alpha)
        chi = np.linspace(-params.trust_limit(), params.trust_limit(), 41)
        x, k = (c.ravel() for c in np.meshgrid(chi, chi))
        rhs = gaussian._velocity_rhs(params)
        got = np.array([rhs(*p) for p in zip(x.tolist(), k.tolist())]).T
        ref = np.array(gaussian.velocity_w(params, x, k))
        return np.max(np.abs(got - ref)) / np.max(np.abs(ref))

    checks["kernel_table_vs_faddeeva"] = all(
        kernel_table_error(alpha) <= 1e-13 for alpha in (0.25, 1.0, 2.7))

    # CSV float cells against format(): ties of round-half-even, every
    # power of ten with both neighbours, a subnormal, signed zeros and the
    # non-finite values
    ties = [(4 * 10 ** 15 + 2 * i + 1) / 4 for i in range(50)]
    tens = [float(f"1e{k}") for k in range(-300, 300)]
    values = np.array(
        ties + [-t for t in ties] + tens
        + [math.nextafter(t, d) for t in tens for d in (0.0, math.inf)]
        + [5e-324, 0.0, -0.0, math.nan, math.inf, -math.inf])
    checks["csv_cells_vs_format"] = (
        csv_rows([float_slots(values)])
        == "".join(f"{x:.17g}\n" for x in values.tolist()).encode())

    # JSON float cells against repr, as json names the non-finite values:
    # the same cells, powers of two and their neighbours, ties between two
    # shortest candidates and integral values
    twos = [math.ldexp(1.0, k) for k in range(-1074, 1024, 7)]
    values = np.concatenate([values, twos, np.nextafter(twos, math.inf),
                             8.0 + np.arange(1, 400, 2) * 2.0 ** -16,
                             np.arange(1.0, 2.0 ** 53, 2.0 ** 46) + 1.0])
    checks["json_cells_vs_repr"] = (
        csv_rows([float_slots(values, "json")])
        == "".join(json.dumps(x) + "\n" for x in values.tolist()).encode())

    g1 = GaussianEnsembleParams(1.0)
    srs = gaussian.series_currents(g1, 0.7, 0.4, 14)
    cls = gaussian.div_currents_closed(g1, 0.7, 0.4)
    checks["series_vs_closed"] = (
        abs(srs[0] - cls[0]) < 1e-12 and abs(srs[1] - cls[1]) < 1e-12)

    g02 = GaussianEnsembleParams(0.2)
    wv = gaussian.velocity_w(g02, 0.3, 0.2)
    ref = (math.sinh(0.2), -math.sinh(0.3))
    checks["velocity_classical_limit"] = (
        math.hypot(wv[0] - ref[0], wv[1] - ref[1]) < 0.01)

    g4 = GaussianEnsembleParams(0.8, 4.0)
    h = 1e-5
    fd = ((gaussian.velocity_w(g4, 0.7 + h, 0.4)[1]
           - gaussian.velocity_w(g4, 0.7 - h, 0.4)[1])
          - (gaussian.velocity_w(g4, 0.7, 0.4 + h)[0]
             - gaussian.velocity_w(g4, 0.7, 0.4 - h)[0])) / (2 * h)
    vort = gaussian.vorticity(g4, 0.7, 0.4)
    checks["vorticity_closed_vs_fd"] = abs(vort - fd) < 1e-8 * abs(vort)

    # RK4 integrates only LV orbits: the README's, at eps = 2.5
    lv = SeparableHamiltonian(HamiltonianKind.LV, 1.0)
    spec = classical.OrbitSpec.from_energy(lv, 2.5, step=1e-3, duration=12.0)
    traj = classical.integrate_orbit(spec)
    checks["orbit_energy_drift"] = traj.max_drift < 1e-10
    model = SeparableHamiltonian(HamiltonianKind.TODA, 1.0)

    def period_error(eps):
        # against 4 K(m) / T+ with m = eps sqrt(eps^2 - 4) / T+^2 (a = 1),
        # so sqrt(1 - m) = 1 / T+^2
        t_plus, _ = classical.amplitude_bounds(eps)
        ref = 4.0 * elliptic_k_complete(kc=1.0 / (t_plus * t_plus)) / t_plus
        return abs(classical.period(model, eps) - ref) / ref

    checks["period_tof_vs_elliptic"] = all(
        period_error(eps) <= 1e-13 for eps in (2.1, 2.5, 4.0, 6.0))

    return checks

import math
import re

import numpy as np
import pytest

from wignerflow import thermo
from wignerflow.errors import (DomainError, NumericalError, UsageError,
                              ValidityError)
from wignerflow.fieldgrid import GridSpec, sample_field
from wignerflow.model import PhasePoint
from wignerflow.thermo import (ThermalEnsembleParams, beta_star, currents_td,
                               div_w_td, epsilon_correction, observables, w0,
                               w_st2, z0_closed, z_st_closed)

from oracles import (bessel_k_quadrature, beta_star_inline, fit_power,
                     thermal_plane_integral)


def mp_z_st(mpmath, beta, a):
    """Z_ST / 4 in mpmath at the working precision."""
    k = mpmath.besselk
    return (k(0, beta) * k(0, a * beta)
            - a * beta * beta / 24 * k(1, beta) * k(1, a * beta))


def mp_observables(beta, a, order):
    """E = -(ln Z)' and C = beta^2 (ln Z)'' from a central difference of a
    60-digit ln Z with step 1e-20, exact to far below double precision."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        b, am = mpmath.mpf(beta), mpmath.mpf(a)

        def ln_z(x):
            if order == "classical":
                k = mpmath.besselk
                return mpmath.log(k(0, x) * k(0, am * x))
            return mpmath.log(mp_z_st(mpmath, x, am))

        h = mpmath.mpf(10) ** -20
        lm, l0, lp = ln_z(b - h), ln_z(b), ln_z(b + h)
        return (float(-(lp - lm) / (2 * h)),
                float(b * b * (lp - 2 * l0 + lm) / (h * h)))

P11 = ThermalEnsembleParams(1.0, 1.0)
H11 = ThermalEnsembleParams(1.0, 1.0, "h2")


class TestPartitionFunctions:
    def test_z0_bessel_values(self):
        assert abs(z0_closed(1.0, 1.0) - 0.7090463103836161) < 1e-12
        assert abs(z0_closed(2.0, 1.0) - 4.0 * 0.11389387274953344 ** 2) < 1e-12

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 4.0])
    def test_z0_vs_plane_quadrature(self, beta, a):
        ref = thermal_plane_integral(
            lambda x, k: np.exp(-beta * (a * np.cosh(x) + np.cosh(k))), beta, a)
        assert abs(z0_closed(beta, a) - ref) / ref < 1e-8

    def test_z_st_value(self):
        assert abs(z_st_closed(1.0, 1.0) - 0.6486642580896650) < 1e-12

    @pytest.mark.parametrize("partition", [z0_closed, z_st_closed])
    @pytest.mark.parametrize("beta, a, product", [
        (1e200, 1e200, "inf"), (1e-200, 1e-200, "0.0"),
        (1e300, 1e10, "inf"), (5e-324, 0.5, "0.0")])
    def test_a_beta_out_of_range_names_both(self, partition, beta, a,
                                            product):
        # bessel_k refused such a beta with "argument must be a finite real"
        # or "requires a positive argument", naming neither value
        with pytest.raises(DomainError) as info:
            partition(beta, a)
        assert str(info.value) == (
            f"a beta = {product} at beta = {beta}, a = {a}: the partition "
            f"functions need beta > 0 and 0 < a beta < inf")

    def test_z_st_ratio_tends_to_one(self):
        # the rate is only logarithmic: beta^2 K1(beta) K1(a beta) tends to a
        # constant while K0 K0 grows like ln^2, so the correction decays like
        # 1 / ln^2(1/beta) rather than beta^2
        gaps = [abs(z_st_closed(b, 1.0) / z0_closed(b, 1.0) - 1.0)
                for b in (0.2, 0.1, 0.05, 0.01)]
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
        assert gaps[-1] < 2e-3
        for beta, gap in zip((0.2, 0.1, 0.05, 0.01), gaps):
            bound = 1.0 / (24.0 * math.log(2.0 / beta) ** 2)
            assert gap < 3.0 * bound

    def test_z_st_root_bracket(self):
        # the measured boundary sits near 4.42 for a = 1 (the large-argument
        # shortcut K1 ~ K0 would put it at sqrt(24) ~ 4.9, which is off)
        assert z_st_closed(4.40, 1.0) > 0.0
        assert z_st_closed(4.45, 1.0) < 0.0
        assert abs(beta_star(1.0) - 4.422424159) < 1e-6

    def test_beta_star_reciprocal_scaling(self):
        # Z_ST is symmetric under (a, beta) -> (1/a, a beta)
        assert abs(beta_star(0.5) - 2.0 * beta_star(2.0)) < 1e-8

    @pytest.mark.parametrize("a", [1.0, 3e5, 1e6])
    def test_beta_star_against_mpmath_root(self, a, monkeypatch):
        # a = 3e5 and 1e6 put the root below the initial bracket end 1e-3
        mpmath = pytest.importorskip("mpmath")
        z_st = thermo.z_st_closed
        calls = []

        def counting(beta, a):
            calls.append(beta)
            return z_st(beta, a)

        monkeypatch.setattr(thermo, "z_st_closed", counting)
        star = beta_star.__wrapped__(a)
        assert len(calls) <= 80
        with mpmath.workdps(30):
            root = mpmath.findroot(
                lambda b: mp_z_st(mpmath, b, mpmath.mpf(a)),
                (star * (1.0 - 1e-6), star * (1.0 + 1e-6)), solver="bisect")
        assert abs(star - float(root)) <= 1e-13 * star
        assert z_st(star, a) <= 0.0 < z_st(star * (1.0 - 1e-15), a)

    @pytest.mark.parametrize("a", [1e300, 1e-300])
    def test_beta_star_out_of_float_range(self, a):
        # the root lies where K0 underflows; a zero of the underflowed Z_ST
        # is not a sign change
        with pytest.raises(NumericalError, match=re.escape(f"a={a}")):
            beta_star.__wrapped__(a)

    @pytest.mark.parametrize("a", [1e-3, 0.25, 0.5, 1.0, 2.0, 4.0, 3e5])
    def test_beta_star_matches_written_out_bisection(self, a):
        # the shared bisection helper runs the loop beta_star had inline
        assert beta_star.__wrapped__(a) == beta_star_inline(a)


class TestDistributions:
    def test_w0_peak_value(self):
        assert abs(w0(P11, 0.0, 0.0)
                   - math.exp(-2.0) / z0_closed(1.0, 1.0)) < 1e-15

    def test_w0_parity(self):
        assert w0(P11, 0.9, -0.4) == w0(P11, -0.9, 0.4)

    def test_w0_normalized(self):
        total = thermal_plane_integral(lambda x, k: w0(P11, x, k), 1.0, 1.0)
        assert abs(total - 1.0) < 1e-8

    def test_epsilon_at_origin(self):
        assert epsilon_correction(P11, 0.0, 0.0) == -0.125

    def test_epsilon_parity(self):
        assert (epsilon_correction(P11, 1.3, -0.7)
                == epsilon_correction(P11, -1.3, 0.7))

    def test_epsilon_mean_matches_partition_ratio(self):
        mean = thermal_plane_integral(
            lambda x, k: w0(P11, x, k) * epsilon_correction(P11, x, k),
            1.0, 1.0)
        ref = z_st_closed(1.0, 1.0) / z0_closed(1.0, 1.0) - 1.0
        assert abs(mean - ref) < 1e-6

    def test_w_st2_normalized(self):
        total = thermal_plane_integral(lambda x, k: w_st2(H11, x, k), 1.0, 1.0)
        assert abs(total - 1.0) < 1e-6

    def test_w_st2_approaches_w0_at_high_temperature(self):
        # the deviation is dominated by the log-suppressed normalization
        # shift Z0/Z_ST - 1, so it shrinks with beta but slower than beta^2
        betas = [0.4, 0.2, 0.1, 0.05]
        devs = []
        for beta in betas:
            params = ThermalEnsembleParams(beta, 1.0, "h2")
            xs = np.linspace(-2.0, 2.0, 21)
            w_corr = w_st2(params, xs[None, :], xs[:, None])
            w_free = w0(params, xs[None, :], xs[:, None])
            devs.append(np.max(np.abs(w_corr - w_free) / w_free))
        assert all(d1 > d2 for d1, d2 in zip(devs, devs[1:]))
        assert devs[-1] < 5e-3
        assert fit_power(betas, devs) > 0.8

    def test_validity_error_names_boundary(self):
        with pytest.raises(ValidityError) as err:
            ThermalEnsembleParams(4.95, 1.0, "h2")
        assert "4.42" in str(err.value)

    def test_nan_z_st_is_named_nan(self):
        # a beta^2 overflows where K0 and K1 underflow to 0: Z_ST is NaN,
        # which the check used to report as "Z_ST <= 0"
        assert math.isnan(z_st_closed(1e300, 1.0))
        with pytest.raises(ValidityError, match="Z_ST is NaN at beta = 1e"):
            ThermalEnsembleParams(1e300, 1.0, "h2")
        # observables reads the Z_ST the parameters checked
        params = ThermalEnsembleParams(1.0, 1.0, "h2")
        assert params.z_st == z_st_closed(1.0, 1.0)
        assert observables(params).z_st == params.z_st

    def test_z0_underflow_refused_with_one_message(self):
        # Z0 = 4 K0(800)^2 underflows to 0: every reader of params.z0 (a w0
        # grid, a current grid, a thermo row) refuses with the same text,
        # while divw, which reads no Z0, still samples
        params = ThermalEnsembleParams(800.0)
        spec = GridSpec(-1.0, 1.0, -1.0, 1.0, 3, 3)
        messages = set()
        for run in (lambda: sample_field(params, "w0", spec),
                    lambda: sample_field(params, "jx", spec),
                    lambda: observables(ThermalEnsembleParams(800.0))):
            with pytest.raises(ValidityError) as err:
                run()
            messages.add(str(err.value))
        assert messages == {"Z0 underflows to 0.0 at beta = 800.0, a = 1.0"}
        assert sample_field(params, "divw", spec).values.shape == (3, 3)

    def test_w_st2_requires_h2(self):
        with pytest.raises(UsageError):
            w_st2(P11, 0.0, 0.0)


class TestCurrents:
    def test_vanish_on_axes(self):
        assert currents_td(H11, 0.7, 0.0)[0] == 0.0
        assert currents_td(H11, 0.0, 0.7)[1] == 0.0

    def test_classical_order_reproduces_classical_currents(self):
        p = PhasePoint(0.5, -0.8)
        jx, jk = currents_td(P11, p.x, p.k)
        w = w0(P11, p.x, p.k)
        assert abs(jx - math.sinh(p.k) * w) < 1e-15
        assert abs(jk + math.sinh(p.x) * w) < 1e-15

    def test_correction_vanishes_linearly_with_beta(self):
        # the bracket carries a beta-linear piece +(a beta / 24) cosh x, so
        # the leading relative correction at (0.5, 0.5) is beta cosh(0.5)/24
        p = PhasePoint(0.5, 0.5)
        devs = {}
        for beta in (0.4, 0.05, 0.02):
            j_cl = currents_td(ThermalEnsembleParams(beta, 1.0), p.x, p.k)
            j_h2 = currents_td(ThermalEnsembleParams(beta, 1.0, "h2"), p.x, p.k)
            devs[beta] = abs(j_h2[0] - j_cl[0]) / abs(j_cl[0])
        assert devs[0.02] < devs[0.05] < devs[0.4]
        slope = devs[0.02] / 0.02
        assert abs(slope - math.cosh(0.5) / 24.0) < 0.15 * math.cosh(0.5) / 24.0

    def test_axis_parity(self):
        x, k = 0.8, 0.5
        jx_pp, jk_pp = currents_td(H11, x, k)
        jx_pm, jk_pm = currents_td(H11, x, -k)
        jx_mp, jk_mp = currents_td(H11, -x, k)
        assert abs(jx_pm + jx_pp) < 1e-12  # J_x odd in k
        assert abs(jx_mp - jx_pp) < 1e-12  # J_x even in x
        assert abs(jk_mp + jk_pp) < 1e-12  # J_k odd in x
        assert abs(jk_pm - jk_pp) < 1e-12  # J_k even in k


class TestFlowDivergence:
    def test_vanishes_on_axes_and_diagonal(self):
        assert div_w_td(H11, 0.9, 0.0) == 0.0
        assert div_w_td(H11, 0.0, 0.9) == 0.0
        assert div_w_td(H11, 0.8, 0.8) == 0.0

    def test_anisotropic_value(self):
        params = ThermalEnsembleParams(1.0, 4.0)
        ref = math.sinh(1.0) ** 2 * math.cosh(1.0)
        assert abs(div_w_td(params, 1.0, 1.0) - ref) < 1e-12

    def test_sign_flips_with_cosh_difference(self):
        params = ThermalEnsembleParams(1.0, 1.0)
        inner = div_w_td(params, 0.5, 1.5)
        outer = div_w_td(params, 1.5, 0.5)
        assert inner * outer < 0.0


class TestObservables:
    def test_classical_energy_closed_form(self):
        obs = observables(P11)
        assert abs(obs.energy - 2.8592507965208035) < 1e-10

    def test_classical_energy_vs_finite_differences(self):
        h = 1e-4
        lnz = lambda b: math.log(z0_closed(b, 1.0))
        fd = -(lnz(1.0 + h) - lnz(1.0 - h)) / (2.0 * h)
        obs = observables(P11)
        assert abs(obs.energy - fd) / obs.energy < 1e-6

    def test_classical_heat_capacity_vs_analytic(self):
        # second log-derivative of 4 K0(b) K0(ab) through Bessel recurrences
        from wignerflow.specfun import bessel_k
        b, a = 1.3, 1.0

        def d2_lnk0(u):
            k0, k1 = bessel_k(0, u), bessel_k(1, u)
            return 1.0 + k1 / (u * k0) - (k1 / k0) ** 2

        ref = b * b * (d2_lnk0(b) + a * a * d2_lnk0(a * b))
        obs = observables(ThermalEnsembleParams(b, a))
        assert abs(obs.heat_capacity - ref) / ref < 1e-6

    def test_orders_merge_at_high_temperature(self):
        # the relative energy gap closes with beta, but only at the
        # logarithmic rate the Bessel small-argument growth allows
        # (measured: 1.9e-2 at beta = 0.4 down to 4.2e-3 at beta = 0.05)
        gaps = []
        for beta in (0.4, 0.2, 0.1, 0.05):
            cl = observables(ThermalEnsembleParams(beta, 1.0))
            h2 = observables(ThermalEnsembleParams(beta, 1.0, "h2"))
            gaps.append(abs(h2.energy - cl.energy) / cl.energy)
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
        assert gaps[-1] < 5e-3

    @pytest.mark.parametrize("order", ["classical", "h2"])
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 4.0])
    def test_closed_form_vs_mpmath_derivatives(self, a, order):
        top = beta_star(a) * (1.0 - 1e-3)
        for beta in np.geomspace(0.05, top, 6):
            obs = observables(ThermalEnsembleParams(float(beta), a, order))
            energy, heat = mp_observables(float(beta), a, order)
            assert abs(obs.energy - energy) <= 1e-11 * abs(energy), beta
            assert abs(obs.heat_capacity - heat) <= 1e-11 * abs(heat), beta

    def test_near_boundary_closed_form(self):
        # Z_ST has cancelled to 1e-4 of Z0 here; a plain central second
        # difference of ln Z_ST bottoms out near 3e-6, so both sides of the
        # comparison are Richardson-extrapolated central differences
        b = beta_star(1.0) * (1.0 - 5e-5)
        obs = observables(ThermalEnsembleParams(b, 1.0, "h2"))
        assert math.isfinite(obs.energy) and math.isfinite(obs.heat_capacity)

        def ln_z(beta):
            return math.log(4.0 * (
                bessel_k_quadrature(0, beta) ** 2
                - beta * beta / 24.0 * bessel_k_quadrature(1, beta) ** 2))

        def differences(h):
            lm, l0, lp = ln_z(b - h), ln_z(b), ln_z(b + h)
            return (-(lp - lm) / (2.0 * h),
                    b * b * (lp - 2.0 * l0 + lm) / (h * h))

        h = b * 3e-7
        (e1, c1), (e2, c2) = differences(h), differences(2.0 * h)
        energy, heat = (4.0 * e1 - e2) / 3.0, (4.0 * c1 - c2) / 3.0
        assert abs(obs.energy - energy) < 1e-6 * abs(energy)
        assert abs(obs.heat_capacity - heat) < 1e-6 * abs(heat)
        for beta in (beta_star(1.0), beta_star(1.0) * 1.01):
            with pytest.raises(ValidityError):
                observables(ThermalEnsembleParams(beta, 1.0, "h2"))

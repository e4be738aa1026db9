import math

import numpy as np
import pytest

from wignerflow.classical import (OrbitSpec, constraint_residual, hamilton_rhs,
                                  integrate_orbit, lv_constraint_rhs,
                                  lv_t_ode, orbit_period, return_to_start,
                                  section_crossings, section_start,
                                  toda_closed_period, toda_constraint_rhs,
                                  toda_parametric_T, toda_species_analytic,
                                  toda_t_ode)
from wignerflow.errors import DomainError, NumericalError
from wignerflow.model import (HamiltonianKind, PhasePoint,
                              SeparableHamiltonian, energy)
from wignerflow.specfun import EllipticConvention

from oracles import toda_period_elliptic, toda_time_of_flight

TODA = SeparableHamiltonian(HamiltonianKind.TODA, 1.0)
LV = SeparableHamiltonian(HamiltonianKind.LV, 1.0)
TWO_PI = 2.0 * math.pi


class TestHamiltonEquations:
    def test_equilibria(self):
        assert hamilton_rhs(TODA, PhasePoint(0.0, 0.0)) == (0.0, 0.0)
        assert hamilton_rhs(LV, PhasePoint(0.0, 0.0)) == (0.0, 0.0)

    def test_toda_velocity_along_k(self):
        dx, dk = hamilton_rhs(TODA, PhasePoint(0.0, 1.0))
        assert dx == math.sinh(1.0) and dk == 0.0

    def test_matches_derivative_oracle(self):
        from oracles import odd_derivative
        for model in (TODA, LV):
            p = PhasePoint(0.7, -0.4)
            dx, dk = hamilton_rhs(model, p)
            assert abs(dx - odd_derivative(model, "kinetic", 1, p.k)) < 1e-15
            assert abs(dk + odd_derivative(model, "potential", 1, p.x)) < 1e-15


class TestOrbitIntegration:
    def test_energy_conservation_ten_periods(self):
        spec = OrbitSpec.from_energy(TODA, 2.5, step=1e-3, duration=60.0)
        traj = integrate_orbit(spec)
        assert traj.max_drift < 1e-8

    def test_small_amplitude_confinement(self):
        # harmonic amplitude sqrt(2 (eps - 2)) = 0.014
        spec = OrbitSpec.from_energy(TODA, 2.0001, step=1e-3, duration=20.0)
        traj = integrate_orbit(spec)
        assert np.max(np.abs(traj.x)) < 0.02
        assert np.max(np.abs(traj.k)) < 0.02

    def test_lv_poincare_return(self):
        spec = OrbitSpec.from_energy(LV, 2.5, step=1e-3, duration=40.0)
        traj = integrate_orbit(spec)
        t_ret, closure = return_to_start(traj)
        assert closure < 1e-6

    def test_toda_parity_of_point_set(self):
        # (x, k) -> (-x, -k) maps the trajectory onto itself (with tau shift)
        spec = OrbitSpec.from_energy(TODA, 2.5, step=1e-3, duration=12.0)
        traj = integrate_orbit(spec)
        pts = np.column_stack([traj.x, traj.k])
        sample = pts[:: len(pts) // 200]
        for x, k in -sample:
            d = np.min(np.hypot(pts[:, 0] - x, pts[:, 1] - k))
            assert d < 1e-6 + 2e-3  # one step spacing plus tolerance

    def test_drift_audit_failure_carries_partial(self):
        spec = OrbitSpec.from_energy(TODA, 6.0, step=0.2, duration=40.0,
                                     drift_tolerance=1e-12)
        with pytest.raises(NumericalError) as err:
            integrate_orbit(spec)
        assert err.value.payload is not None

    def test_closed_orbit_constraint(self):
        with pytest.raises(DomainError):
            OrbitSpec.from_energy(TODA, 1.5)
        with pytest.raises(DomainError):
            section_start(LV, 2.0)


class TestPeriod:
    @pytest.mark.parametrize("model", [TODA, LV], ids=["toda", "lv"])
    def test_harmonic_limit(self, model):
        spec = OrbitSpec.from_energy(model, 2.0001, step=1e-3, duration=30.0)
        period = orbit_period(spec)
        assert abs(period - TWO_PI) / TWO_PI < 5e-3

    @pytest.mark.parametrize("eps", [2.1, 2.5, 4.0, 6.0])
    def test_against_time_of_flight(self, eps):
        spec = OrbitSpec.from_energy(TODA, eps, step=1e-3, duration=30.0)
        period = orbit_period(spec)
        ref = toda_time_of_flight(eps)
        assert abs(period - ref) / ref < 1e-5

    def test_against_elliptic_reduction(self):
        # independently derived closed form for the isotropic period
        spec = OrbitSpec.from_energy(TODA, 2.5, step=1e-3, duration=30.0)
        assert abs(orbit_period(spec) - toda_period_elliptic(2.5)) < 1e-8

    def test_step_halving_reproducibility(self):
        p1 = orbit_period(OrbitSpec.from_energy(TODA, 2.5, step=1e-3,
                                                duration=30.0))
        p2 = orbit_period(OrbitSpec.from_energy(TODA, 2.5, step=5e-4,
                                                duration=30.0))
        assert abs(p1 - p2) / p1 < 1e-6

    def test_insufficient_duration(self):
        spec = OrbitSpec.from_energy(TODA, 2.5, step=1e-3, duration=2.0)
        with pytest.raises(NumericalError):
            orbit_period(spec)


class TestParametricSolution:
    def test_starts_at_lower_bound(self):
        assert toda_parametric_T(2.5, 0.0) == 0.5

    def test_range_is_amplitude_interval(self):
        taus = np.linspace(0.0, 40.0, 2000)
        vals = np.array([toda_parametric_T(2.5, float(t)) for t in taus])
        assert np.all(vals >= 0.5 - 1e-12)
        assert np.all(vals <= 2.0 + 1e-12)
        assert np.max(vals) > 1.999  # the upper bound is attained

    def test_domain(self):
        with pytest.raises(DomainError):
            toda_parametric_T(2.0, 1.0)

    def test_species_turning_point(self):
        sp = toda_species_analytic(2.5, 0.0)
        assert sp.y == 0.5 and sp.z == 0.5

    @pytest.mark.parametrize("eps", [2.1, 2.5, 4.0, 6.0])
    def test_level_curve_identity(self, eps):
        for tau in np.linspace(0.0, 10.0, 101):
            sp = toda_species_analytic(eps, float(tau))
            lhs = 0.5 * (sp.y + 1.0 / sp.y + sp.z + 1.0 / sp.z)
            assert abs(lhs - eps) < 1e-10

    def test_product_constraint(self):
        for tau in (0.3, 1.1, 2.9):
            eps = 2.5
            sp = toda_species_analytic(eps, tau)
            t_val = 0.5 * (sp.y + sp.z)
            assert abs(sp.y * sp.z * (eps - t_val) - t_val) < 1e-12


class TestDynamicalConstraint:
    def test_turning_points_are_roots(self):
        for eps in (2.1, 2.5, 4.0):
            s = math.sqrt(eps * eps - 4.0)
            for t_val in (0.5 * (eps + s), 0.5 * (eps - s)):
                assert abs(toda_constraint_rhs(eps, t_val)) < 1e-12

    def test_ode_t_satisfies_toda_constraint(self):
        for tau in (0.9, 1.7, 2.4):
            r = constraint_residual(2.5, tau, "toda")
            assert abs(r) < 1e-6

    def test_ode_t_satisfies_lv_constraint(self):
        for tau in (0.6, 1.1):
            r = constraint_residual(2.5, tau, "lv")
            assert abs(r) < 1e-6

    def test_lv_level_curve_identity(self):
        # with y + z = T and y z = e^{T - eps}: a y + z - ln(y^a z) = eps
        eps = 2.5
        t_val = lv_t_ode(eps, 0.8)
        disc = t_val * t_val - 4.0 * math.exp(t_val - eps)
        y = 0.5 * (t_val + math.sqrt(disc))
        z = 0.5 * (t_val - math.sqrt(disc))
        assert abs(y + z - math.log(y * z) - eps) < 1e-9

    def test_literal_parameterization_fails_constraint(self):
        # the literal frequency factor runs the waveform at the wrong speed,
        # so the sn form violates the constraint under either reading
        for conv in EllipticConvention:
            r = constraint_residual(
                2.5, 1.3, "toda",
                t_of_tau=lambda t, c=conv: toda_parametric_T(2.5, t, c))
            assert abs(r) > 1e-3


class TestClosedFormSummary:
    def test_amplitude_bounds_are_quadratic_roots(self):
        cf = toda_closed_period(2.5)
        assert cf.t_plus == 2.0 and cf.t_minus == 0.5
        assert abs(cf.t_plus * cf.t_minus - 1.0) < 1e-12
        assert abs(cf.t_plus + cf.t_minus - cf.eps) < 1e-12

    def test_kappa_value(self):
        cf = toda_closed_period(2.5)
        assert abs(cf.kappa - 0.9375) < 1e-15

    def test_period_fields(self):
        cf = toda_closed_period(2.5)
        assert abs(cf.period_ode - toda_time_of_flight(2.5)) / cf.period_ode < 1e-5
        assert cf.period_ratio > 0.0
        assert cf.period_formula == pytest.approx(
            cf.period_ratio * cf.period_ode)

    def test_parameter_reading_matches_wave_shape(self):
        cf = toda_closed_period(2.5)
        assert cf.convention is EllipticConvention.PARAMETER
        assert cf.lsq_parameter < 1e-10
        assert cf.lsq_modulus > 1e-4
        # neither reading satisfies the constraint literally
        assert cf.t_source == "ode"
        assert cf.residual_parameter > 1e-3
        assert cf.residual_modulus > 1e-3

    def test_domain(self):
        with pytest.raises(DomainError):
            toda_closed_period(2.0)


class TestSectionMachinery:
    def test_section_start_lies_on_level_curve(self):
        for model, eps in ((TODA, 2.5), (LV, 3.2)):
            p = section_start(model, eps)
            assert p.k == 0.0 and p.x > 0.0
            assert abs(energy(model, p) - eps) < 1e-9

    def test_crossings_are_transversal(self):
        spec = OrbitSpec.from_energy(TODA, 2.5, step=1e-3, duration=30.0)
        traj = integrate_orbit(spec)
        times = section_crossings(traj)
        assert len(times) >= 4
        gaps = np.diff(times)
        assert np.allclose(gaps, gaps[0], rtol=1e-6)

    def test_t_ode_consistency_between_routes(self):
        # species-ODE route agrees with the phase-space orbit route
        eps = 2.5
        spec = OrbitSpec.from_point(
            TODA, PhasePoint(math.log(2.0), math.log(2.0)),
            step=1e-3, duration=3.0)
        traj = integrate_orbit(spec)
        i = len(traj) // 2
        t_phase = 0.5 * (traj.y[i] + traj.z[i])
        t_species = toda_t_ode(eps, float(traj.tau[i]))
        assert abs(t_phase - t_species) < 1e-8

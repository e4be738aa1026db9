import math

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from wignerflow import classical
from wignerflow.classical import (ISOTROPIC_EPS_MAX, TODA_ORBIT_EPS_MAX,
                                  OrbitSpec, Trajectory, integrate_orbit,
                                  kappa_of_eps, measured_orbit, period,
                                  return_to_start, section_start,
                                  toda_closed_period, toda_orbit,
                                  toda_species_series)
from wignerflow.errors import DomainError, NumericalError, UsageError
from wignerflow.model import (HamiltonianKind, PhasePoint,
                              SeparableHamiltonian, energy)
from wignerflow.specfun import elliptic_k_complete, jacobi_sn_cn

from oracles import (hermite_crossing_fixed, orbit_period,
                     period_time_of_flight_mp, return_to_start_per_sample,
                     section_crossings, section_crossings_per_sample,
                     section_start_mp, toda_orbit_mp, toda_period_elliptic,
                     toda_period_mp, toda_species_rk4, toda_time_of_flight)

TODA = SeparableHamiltonian(HamiltonianKind.TODA, 1.0)
LV = SeparableHamiltonian(HamiltonianKind.LV, 1.0)
TWO_PI = 2.0 * math.pi


def hamilton_rhs(h, p):
    """(dx/dtau, dk/dtau) at p, from the RK4 core's right-hand side."""
    return classical._rhs_scalar(h)(p.x, p.k)


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
        assert closure <= 1e-12

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
        spec = OrbitSpec.from_energy(TODA, 6.0, step=0.2, duration=40.0)
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


class TestExactPeriod:
    """classical.period, the time-of-flight period, against independent
    oracles."""

    @pytest.mark.parametrize("eps", [2.0001, 2.1, 2.5, 4.0, 6.0, 10.0])
    def test_against_elliptic_reduction(self, eps):
        ref = toda_period_elliptic(eps)
        assert abs(period(TODA, eps) - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("gap", [1e-6, 0.5, 3.0])
    @pytest.mark.parametrize("a", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("kind", list(HamiltonianKind),
                             ids=lambda kind: kind.value)
    def test_against_mpmath_time_of_flight(self, kind, a, gap):
        pytest.importorskip("mpmath")
        model = SeparableHamiltonian(kind, a)
        ref = period_time_of_flight_mp(model, 1.0 + a + gap)
        assert abs(period(model, 1.0 + a + gap) - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("a", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("kind", list(HamiltonianKind),
                             ids=lambda kind: kind.value)
    def test_harmonic_limit(self, kind, a):
        # T = 2 pi / sqrt(a) (1 + O(eps - 1 - a)); the O() factor is below 1
        model = SeparableHamiltonian(kind, a)
        limit = 2.0 * math.pi / math.sqrt(a)
        assert period(model, 1.0 + a) == limit
        for gap in (1e-12, 1e-9, 1e-6):
            assert abs(period(model, 1.0 + a + gap) - limit) <= gap * limit

    @pytest.mark.parametrize("a", [1e-3, 0.25, 1.0, 4.0, 1e3, 1e8])
    def test_toda_closed_form_against_mpmath(self, a):
        # the quadrature it replaced was 9.5e-10 off at a = 1e8, failed to
        # converge at gap 1e100 and returned NaN at gap 1e300
        pytest.importorskip("mpmath")
        for gap in (1e-12, 1e-6, 1.0, 1e6, 1e100, 1e300):
            ref = toda_period_mp(a, gap)
            got = classical._toda_period_closed(a, gap)
            assert abs(got - ref) <= 1e-15 * ref, gap
        model = SeparableHamiltonian(HamiltonianKind.TODA, a)
        assert period(model, 1e300) == classical._toda_period_closed(
            a, 1e300 - 1.0 - a)

    def test_lv_far_turning_point(self):
        # x+ = 1000 and beyond: e^-x_edge (e^d - 1 - d) is evaluated without
        # forming e^d; on the k+ branch dx/dtau < 1, so T > x+ - x- > eps - 1
        pytest.importorskip("mpmath")
        ref = period_time_of_flight_mp(LV, 1e3)
        assert abs(period(LV, 1e3) - ref) <= 1e-12 * ref
        for eps in (1e6, 1e12):
            assert eps - 1.0 < period(LV, eps) < 1.01 * eps

    @pytest.mark.parametrize("a", [0.25, 1.0, 4.0])
    def test_lv_period_far_beyond_1e295(self, a):
        # Halley's step in _lv_root overflowed to inf / inf above eps ~ 1e295
        # and e^-x- times the x- stretch above ~2.5e305.  Here the period is
        # x+ - x- plus a positive rest of order ln(eps) from the stretches
        # near the turning points, 1e-297 of it: x+ - x- to rounding
        mpmath = pytest.importorskip("mpmath")
        model = SeparableHamiltonian(HamiltonianKind.LV, a)
        for eps in (1e300, 1e305):
            with mpmath.workdps(40):
                c = (mpmath.mpf(eps) - 1) / a
                x_plus, x_minus = (c + mpmath.lambertw(-mpmath.exp(-c), b).real
                                   for b in (0, -1))
                ref = float(x_plus - x_minus)
            assert abs(period(model, eps) - ref) <= 1e-15 * ref, eps

    @pytest.mark.parametrize("eps", [1.9, -math.inf, math.inf, math.nan])
    def test_domain(self, eps):
        with pytest.raises(DomainError, match="closed orbit needs"):
            period(TODA, eps)

    @settings(max_examples=12, deadline=None, database=None)
    @given(kind=st.sampled_from(list(HamiltonianKind)),
           a=st.floats(0.25, 4.0), gap=st.floats(1e-3, 3.0))
    def test_matches_rk4_measured_period(self, kind, a, gap):
        # at step 1e-3 the measured period is within 1.2e-12 of the exact
        # one over this range (a 0.25 .. 4, eps - 1 - a 0.01 .. 3)
        model = SeparableHamiltonian(kind, a)
        exact = period(model, 1.0 + a + gap)
        measured = orbit_period(OrbitSpec.from_energy(
            model, 1.0 + a + gap, step=1e-3, duration=2.5 * exact))
        assert abs(measured - exact) <= 1e-10 * exact


def _species_sum(eps, taus):
    ys, zs = toda_species_series(eps, taus)
    return 0.5 * (ys + zs)


def _toda_constraint_rhs(eps, t_val):
    """Tdot^2 = T (T - eps)(T - T+)(T - T-) = T^2 (T - eps)^2 + T (T - eps)."""
    d = t_val - eps
    return t_val * t_val * d * d + t_val * d


class TestParametricSolution:
    def test_starts_at_lower_bound(self):
        assert _species_sum(2.5, 0.0) == 0.5

    def test_range_is_amplitude_interval(self):
        vals = _species_sum(2.5, np.linspace(0.0, 40.0, 2000))
        assert np.all(vals >= 0.5 - 1e-12)
        assert np.all(vals <= 2.0 + 1e-12)
        assert np.max(vals) > 1.999  # the upper bound is attained

    def test_domain(self):
        with pytest.raises(DomainError):
            toda_species_series(2.0, 1.0)

    def test_energy_limit(self):
        ys, zs = toda_species_series(ISOTROPIC_EPS_MAX, [0.0, 0.01])
        assert np.all(np.isfinite(ys)) and np.all(np.isfinite(zs))
        with pytest.raises(DomainError, match=r"eps <= 1e\+150"):
            toda_species_series(math.nextafter(ISOTROPIC_EPS_MAX, math.inf),
                                0.0)

    def test_species_turning_point(self):
        ys, zs = toda_species_series(2.5, 0.0)
        assert ys == 0.5 and zs == 0.5

    @pytest.mark.parametrize("eps", [2.1, 2.5, 4.0, 6.0])
    def test_level_curve_identity(self, eps):
        ys, zs = toda_species_series(eps, np.linspace(0.0, 10.0, 101))
        lhs = 0.5 * (ys + 1.0 / ys + zs + 1.0 / zs)
        assert np.max(np.abs(lhs - eps)) < 1e-10

    def test_product_constraint(self):
        eps = 2.5
        ys, zs = toda_species_series(eps, np.array([0.3, 1.1, 2.9]))
        t_val = 0.5 * (ys + zs)
        assert np.max(np.abs(ys * zs * (eps - t_val) - t_val)) < 1e-12

    @pytest.mark.parametrize("eps", [2.1, 2.5, 4.0, 6.0])
    def test_matches_rk4_species(self, eps):
        # RK4 at dt = 2.5e-4 is within about 1e-13 of the closed form over
        # one period (1.5e-13 measured at eps = 6)
        taus = np.linspace(0.0, period(TODA, eps), 201)
        ys, zs = toda_species_series(eps, taus)
        ry, rz = toda_species_rk4(eps, taus, 2.5e-4)
        assert np.max(np.abs(ys - ry) / ry) <= 1e-11
        assert np.max(np.abs(zs - rz) / rz) <= 1e-11

    @pytest.mark.parametrize("eps", [1500.0, 1e6, 1e10])
    def test_species_against_mpmath(self, eps):
        # a second closed form: the general orbit through the lower turning
        # point x = k = ln T+, in 50 digits (its modulus is 2/eps, not
        # 1/T+^2); cn keeps its relative accuracy near T = T+, where the
        # amplitude form was 3.4e-16 eps^2 off.  Measured within 4.7e-14
        mpmath = pytest.importorskip("mpmath")
        t_plus, _ = classical.amplitude_bounds(eps)
        lower = PhasePoint(math.log(t_plus), math.log(t_plus))
        taus = np.linspace(0.0, period(TODA, eps), 41)
        ys, zs = toda_species_series(eps, taus)
        rx, rk, _ = toda_orbit_mp(1.0, lower, taus)
        with mpmath.workdps(50):
            err = max(abs(mpmath.mpf(float(v)) * mpmath.exp(r) - 1)
                      for vs, rs in ((ys, rx), (zs, rk))
                      for v, r in zip(vs, rs))
        assert err <= 1e-13

    @pytest.mark.parametrize("eps", [2.1, 2.5, 4.0, 6.0, 100.0, 1500.0])
    def test_table_closes(self, eps):
        # after one exact period both species are back at T- = 1/T+ (the
        # summary's (eps - s)/2 cancels at large eps: 2e-11 off at 1000)
        closed = toda_closed_period(eps)
        ys, zs = toda_species_series(eps, closed.period_ode)
        assert abs(ys * closed.t_plus - 1.0) <= 1e-13
        assert abs(zs * closed.t_plus - 1.0) <= 1e-13


class TestDynamicalConstraint:
    def test_turning_points_are_roots(self):
        for eps in (2.1, 2.5, 4.0):
            s = math.sqrt(eps * eps - 4.0)
            for t_val in (0.5 * (eps + s), 0.5 * (eps - s)):
                assert abs(_toda_constraint_rhs(eps, t_val)) < 1e-12

    def test_closed_form_satisfies_toda_constraint(self):
        # Tdot by central differences of the closed form: the h^2 error is
        # at most 1.1e-7 relative here
        h = 1e-4
        for eps in (2.1, 2.5, 4.0, 6.0):
            for tau in (0.9, 1.7, 2.4):
                t_lo, t_mid, t_hi = _species_sum(eps, [tau - h, tau, tau + h])
                tdot = (t_hi - t_lo) / (2.0 * h)
                rhs = _toda_constraint_rhs(eps, t_mid)
                assert abs(tdot * tdot - rhs) <= 1e-6 * rhs

    def test_literal_parameterization_fails_constraint(self):
        # the paper's frequency sqrt(eps + s - 2) / (2 sqrt 2) in place of
        # T+/2 runs the same waveform at the wrong speed, so it violates
        # the constraint
        eps, h, tau = 2.5, 1e-4, 1.3
        s = math.sqrt(eps * eps - 4.0)
        freq = math.sqrt(eps + s - 2.0) / (2.0 * math.sqrt(2.0))
        kc = math.sqrt(1.0 - kappa_of_eps(eps))
        sn = jacobi_sn_cn(freq * np.array([tau - h, tau, tau + h]), kc=kc)[0]
        t_lo, t_mid, t_hi = 2.0 / (s * (1.0 - 2.0 * sn * sn) + eps)
        tdot = (t_hi - t_lo) / (2.0 * h)
        assert abs(tdot * tdot - _toda_constraint_rhs(eps, t_mid)) > 1e-3


class TestClosedFormSummary:
    def test_amplitude_bounds_are_quadratic_roots(self):
        cf = toda_closed_period(2.5)
        assert cf.t_plus == 2.0 and cf.t_minus == 0.5
        assert abs(cf.t_plus * cf.t_minus - 1.0) < 1e-12
        assert abs(cf.t_plus + cf.t_minus - cf.eps) < 1e-12

    @pytest.mark.parametrize("eps", [100.0, 1000.0, 1500.0])
    def test_amplitude_bounds_against_mpmath(self, eps):
        # T- = 1/T+ has no cancellation; (eps - s)/2 was 2.1e-11 relative
        # off at eps = 1000
        mpmath = pytest.importorskip("mpmath")
        t_plus, t_minus = classical.amplitude_bounds(eps)
        with mpmath.workdps(30):
            s = mpmath.sqrt(mpmath.mpf(eps) ** 2 - 4)
            exact = ((eps + s) / 2, (eps - s) / 2)
            for value, ref in zip((t_plus, t_minus), exact):
                assert abs((value - ref) / ref) <= 1e-15

    def test_kappa_value(self):
        cf = toda_closed_period(2.5)
        assert abs(cf.kappa - 0.9375) < 1e-15

    def test_period_fields(self):
        cf = toda_closed_period(2.5)
        assert abs(cf.period_ode - toda_time_of_flight(2.5)) / cf.period_ode < 1e-5
        assert cf.period_ratio > 0.0
        assert cf.period_formula == pytest.approx(
            cf.period_ratio * cf.period_ode)

    def test_domain(self):
        with pytest.raises(DomainError):
            toda_closed_period(2.0)


class TestTodaOrbit:
    """toda_orbit, the closed-form Toda orbit for every a, against a 50-digit
    evaluation, the RK4 reference and its own invariants."""

    @staticmethod
    def _quarter_times(a, start):
        """Times at which u - u0 runs through 0, K/2, ..., 4K; from a
        section start they include u = K and u = 3K."""
        sk, sx = math.sinh(0.5 * start.k), math.sinh(0.5 * start.x)
        g = 2.0 * sk * sk + 2.0 * a * sx * sx
        pq = math.sqrt(g + 2.0) * math.sqrt(g + 2.0 * a)
        quarter = elliptic_k_complete(kc=2.0 * math.sqrt(a) / pq)
        return np.arange(9) * quarter / pq

    @pytest.mark.parametrize("a", [1e-3, 0.25, 1.0, 4.0, 1e3, 1e8])
    def test_species_against_mpmath(self, a):
        # species y = e^-x, z = e^-k to 1e-14 relative, beyond the phase
        # shift of a relative rounding of u itself, u |d(x, k)/du| ulps
        # (u |d(x, k)/du| reaches 1e3 here; measured within 5e-15 plus
        # 1.7 ulps of it)
        mpmath = pytest.importorskip("mpmath")
        starts = [PhasePoint(2.0 * math.asinh(math.sqrt(0.5 * g / a)), 0.0)
                  for g in (1e-12, 1e-6, 1e-3, 1.0, 1e2, 1e3)]
        starts += [PhasePoint(0.7, -0.2), PhasePoint(-0.4, 0.6),
                   PhasePoint(0.0, -0.5)]
        for start in starts:
            taus = self._quarter_times(a, start)
            x, k = classical._toda_phase(a, start, taus)
            rx, rk, sensitivity = toda_orbit_mp(a, start, taus)
            with mpmath.workdps(50):
                err = [max(abs(mpmath.expm1(mpmath.mpf(float(v)) - r))
                           for v, r in ((xi, rxi), (ki, rki)))
                       for xi, ki, rxi, rki in zip(x, k, rx, rk)]
            bound = 1e-14 + 2.0 * 2.0 ** -52 * sensitivity
            assert np.all(np.array(err, dtype=float) <= bound), (start.x,
                                                                 start.k)

    def test_matches_rk4_on_the_readme_orbit(self):
        # RK4 at dt = 2.5e-4 over three periods of a = 1, eps = 2.5: its
        # truncation error is 3.6e-13 / 4^4 (3.6e-13 at the README's
        # dt = 1e-3), and its rounding over 67,000 steps 5.3e-14
        spec = OrbitSpec.from_energy(TODA, 2.5, step=2.5e-4,
                                     duration=3.0 * period(TODA, 2.5))
        ref = integrate_orbit(spec)
        traj = toda_orbit(TODA, 2.5, ref.tau)
        assert np.max(np.abs(traj.x - ref.x)) <= 1e-13
        assert np.max(np.abs(traj.k - ref.k)) <= 1e-13

    @pytest.mark.parametrize("x0, k0", [(0.6, 0.3), (0.6, -0.3), (-0.6, 0.3),
                                        (-0.6, -0.3), (0.0, 0.8),
                                        (-0.5, 0.0), (-0.0, -0.7)])
    @pytest.mark.parametrize("a", [0.5, 2.0])
    def test_off_section_starts(self, a, x0, k0):
        # k0 of both signs and x0 < 0; the RK4 reference at step 5e-4 is
        # within 5.3e-14 of the closed form over 10 time units
        model = SeparableHamiltonian(HamiltonianKind.TODA, a)
        spec = OrbitSpec.from_point(model, PhasePoint(x0, k0), step=5e-4,
                                    duration=10.0)
        ref = integrate_orbit(spec)
        traj = toda_orbit(model, spec.eps, ref.tau, spec.start)
        assert np.max(np.abs(traj.x - ref.x)) <= 1e-12
        assert np.max(np.abs(traj.k - ref.k)) <= 1e-12
        # row 0 is the start itself, sign of zero included
        assert traj.x[:1].tobytes() == np.float64(x0).tobytes()
        assert traj.k[:1].tobytes() == np.float64(k0).tobytes()
        # the flow is Hamilton's equations of the model, a row at a time
        for x, k in zip(traj.x.tolist(), traj.k.tolist()):
            assert traj.flow(x, k) == (math.sinh(k), -a * math.sinh(x))

    def test_section_start_row_holds_positive_zero(self):
        traj = toda_orbit(TODA, 2.5, np.linspace(0.0, 1.0, 5))
        assert traj.x[0] == section_start(TODA, 2.5).x
        assert traj.k[:1].tobytes() == np.float64(0.0).tobytes()

    def test_equilibrium_gives_constant_rows(self):
        model = SeparableHamiltonian(HamiltonianKind.TODA, 3.0)
        taus = np.linspace(0.0, 50.0, 11)
        with np.errstate(all="raise"):  # g = 0 is never a divisor
            traj = toda_orbit(model, 4.0, taus, PhasePoint(0.0, 0.0))
        for name in ("x", "k", "energy_residual"):
            column = getattr(traj, name)
            assert column.tobytes() == np.zeros(11).tobytes(), name
        assert all(traj.flow(x, k) == (0.0, 0.0)
                   for x, k in zip(traj.x, traj.k))

    @pytest.mark.parametrize("a", [1e-3, 1.0, 1e3])
    def test_energy_residual_at_rounding_level(self, a):
        # measured at most 2.6e-15 eps
        model = SeparableHamiltonian(HamiltonianKind.TODA, a)
        for eps in (2.0 + a, 1e2 + a, 1e4, 2e6, TODA_ORBIT_EPS_MAX):
            taus = np.linspace(0.0, 3.0 * period(model, eps), 2001)
            traj = toda_orbit(model, eps, taus)
            assert traj.max_drift <= 1e-14 * eps, eps

    def test_energy_limit(self):
        toda_orbit(TODA, TODA_ORBIT_EPS_MAX, [0.0, 1e-6])
        with pytest.raises(DomainError, match="only up to eps = 1e"):
            toda_orbit(TODA, math.nextafter(TODA_ORBIT_EPS_MAX, math.inf),
                       [0.0])

    @pytest.mark.parametrize("eps", [1e3, 1e5, TODA_ORBIT_EPS_MAX])
    def test_diagonal_start_matches_species_series(self, eps):
        # from the lower turning point x = k = ln T+ the phase u0 comes from
        # atan2 next to am = -pi/2, where it loses accuracy as eps grows:
        # measured 1.6e-13 at 1e3, 1.5e-13 at 1e7, 1.1e-12 at 1e8 and
        # 4.3e-7 at 1e20, while H stays within 1e-14 eps.  This pins the
        # ceiling that an energy audit alone would not see.
        x0 = math.log(classical.amplitude_bounds(eps)[0])
        taus = np.linspace(0.0, 3.0 * period(TODA, eps), 3001)
        traj = toda_orbit(TODA, energy(TODA, x0, x0), taus,
                          PhasePoint(x0, x0))
        ys, zs = toda_species_series(eps, taus)
        assert np.max(np.abs(traj.x + np.log(ys))) <= 5e-13
        assert np.max(np.abs(traj.k + np.log(zs))) <= 5e-13


class TestSectionMachinery:
    def test_section_start_lies_on_level_curve(self):
        for model, eps in ((TODA, 2.5), (LV, 3.2)):
            p = section_start(model, eps)
            assert p.k == 0.0 and p.x > 0.0
            assert abs(energy(model, p.x, p.k) - eps) < 1e-9

    @pytest.mark.parametrize("a", [0.25, 1.0, 4.0, 3.0, 1000.0])
    def test_section_starts_match_mpmath(self, a):
        # d = (eps - 1 - a)/a is never added to 1: the old acosh((eps - 1)/a)
        # was 4.2% off at a = 1000, gap 1e-12, and a bisection on the
        # rounded x + e^-x 2.2e12 ulps off at gap 1e-12
        pytest.importorskip("mpmath")
        sweep = np.concatenate([1.0 + a + 10.0 ** -np.arange(1.0, 13.0),
                                np.linspace(1.0 + a, 1.0 + a + 40.0, 389)[1:]])
        assert len(sweep) == 400
        for kind in HamiltonianKind:
            model = SeparableHamiltonian(kind, a)
            for eps in sweep.tolist():
                got = section_start(model, eps)
                ref = section_start_mp(model, eps)
                assert got.k == 0.0
                assert abs(got.x - ref) <= 3.0 * math.ulp(float(ref)), (
                    kind, eps)

    def test_crossings_are_transversal(self):
        spec = OrbitSpec.from_energy(TODA, 2.5, step=1e-3, duration=30.0)
        traj = integrate_orbit(spec)
        times = section_crossings(traj)
        assert len(times) >= 4
        gaps = np.diff(times)
        assert np.allclose(gaps, gaps[0], rtol=1e-6)

    def test_closed_form_matches_phase_space_orbit(self):
        # the phase-space RK4 orbit from the lower turning point
        # y = z = T- = 1/2 (x = k = ln 2, eps = 2.5) carries the species
        # y = e^-x, z = e^-k of the closed form
        spec = OrbitSpec.from_point(
            TODA, PhasePoint(math.log(2.0), math.log(2.0)),
            step=1e-3, duration=6.0)
        traj = integrate_orbit(spec)
        ys, zs = toda_species_series(spec.eps, traj.tau)
        assert np.max(np.abs(traj.y - ys) / ys) < 1e-10
        assert np.max(np.abs(traj.z - zs) / zs) < 1e-10


class TestOneIntegration:
    """measured_orbit: the exact period and the orbit on the grid of
    round(max(periods x period, 2 step) / step) steps, bit for bit a fresh
    evaluation of the same span: one integrate_orbit run for LV, the closed
    form toda_orbit (no RK4 step) for Toda."""

    @staticmethod
    def _count_steps(monkeypatch):
        steps = []
        core = classical._rk4

        def counted(f, x, k, h, n_steps, stop=None):
            steps.append(n_steps)
            return core(f, x, k, h, n_steps, stop)

        monkeypatch.setattr(classical, "_rk4", counted)
        return steps

    @pytest.mark.parametrize("model, start, step, periods", [
        (TODA, section_start(TODA, 2.5), 1e-3, 3.0),
        (LV, section_start(LV, 2.2), 1e-3, 10.0),
        (SeparableHamiltonian(HamiltonianKind.LV, 4.0), PhasePoint(-0.3, 0.4),
         2e-3, 3.0),                                    # explicit start
        (SeparableHamiltonian(HamiltonianKind.TODA, 0.01),
         section_start(SeparableHamiltonian(HamiltonianKind.TODA, 0.01), 1.02),
         1e-2, 2.0),                                    # 126 time units
    ], ids=["toda", "lv", "explicit", "slow"])
    def test_one_run_matches_fresh_integration(self, monkeypatch, model,
                                               start, step, periods):
        steps = self._count_steps(monkeypatch)
        runs = []
        orbits = classical.integrate_orbit

        def counted_orbit(spec):
            runs.append(spec)
            return orbits(spec)

        monkeypatch.setattr(classical, "integrate_orbit", counted_orbit)
        t, traj = measured_orbit(model, start, step, periods)
        eps = energy(model, start.x, start.k)
        assert t == period(model, eps)
        duration = max(periods * t, 2.0 * step)
        n = round(duration / step)
        if model.kind is HamiltonianKind.TODA:
            # the closed form on the same step grid, with no RK4 step
            assert runs == [] and steps == []
            ref = toda_orbit(model, eps, step * np.arange(n + 1), start)
        else:
            assert len(runs) == 1 and runs[0].duration == duration
            assert steps == [n]
            ref = orbits(OrbitSpec.from_point(model, start, step=step,
                                              duration=duration))
        for name in ("tau", "x", "k", "y", "z", "energy_residual"):
            assert np.array_equal(getattr(traj, name), getattr(ref, name)), name

    def test_drift_failure_raised_by_the_single_run(self, monkeypatch):
        # an LV orbit: Toda rows are the closed form, with no step to drift
        steps = self._count_steps(monkeypatch)
        start = section_start(LV, 6.0)
        with pytest.raises(NumericalError, match="energy drift") as err:
            measured_orbit(LV, start, 0.2, 3.0)
        t = period(LV, energy(LV, start.x, start.k))
        assert steps == [round(3.0 * t / 0.2)]
        assert len(err.value.payload) == steps[0] + 1
        assert f"energy drift {err.value.payload.max_drift:.3e}" in str(err.value)

    @pytest.mark.parametrize("model", [TODA, LV], ids=["toda", "lv"])
    def test_equilibrium_refused_before_integrating(self, monkeypatch, model):
        steps = self._count_steps(monkeypatch)
        with pytest.raises(NumericalError, match="equilibrium"):
            measured_orbit(model, PhasePoint(0.0, 0.0), 0.05, 3.0)
        assert steps == []

    @pytest.mark.parametrize("periods", [0.0, -1.0, math.inf, math.nan])
    def test_non_positive_duration_refused_before_integrating(
            self, monkeypatch, periods):
        steps = self._count_steps(monkeypatch)
        with pytest.raises(DomainError, match="0 < periods < inf"):
            measured_orbit(TODA, section_start(TODA, 2.5), 1e-3, periods)
        assert steps == []


class TestWorkBudget:
    def test_step_budget_refused_before_allocation(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("allocated or evaluated past the budget")

        monkeypatch.setattr(classical.np, "empty", boom)
        with pytest.raises(UsageError, match="work budget of 10000000"):
            classical._rk4(boom, 0.5, 0.0, 1e-12, 4 * 10 ** 13)
        spec = OrbitSpec.from_energy(TODA, 2.5, step=1e-12, duration=40.0)
        with pytest.raises(UsageError, match="work budget"):
            integrate_orbit(spec)


    def test_toda_measured_orbit_refused_before_allocation(self,
                                                           monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("allocated or evaluated past the budget")

        monkeypatch.setattr(classical.np, "arange", boom)
        monkeypatch.setattr(classical, "toda_orbit", boom)
        with pytest.raises(UsageError, match="work budget of 10000000"):
            measured_orbit(TODA, section_start(TODA, 2.5), 1e-12, 3.0)


# the README members: the Toda orbit, the LV sweep (3 periods at dt 1e-3)
# and the trajectory's classical spans (ten periods from (0.6, 0) at 2e-3)
README_MEMBERS = (
    [(TODA, section_start(TODA, 2.5), 1e-3, 3.0)]
    + [(LV, section_start(LV, eps), 1e-3, 3.0)
       for eps in (2.5, 2.2, 2.1, 2.05, 2.01)]
    + [(SeparableHamiltonian(HamiltonianKind.TODA, a), PhasePoint(0.6, 0.0),
        2e-3, 10.0) for a in (0.25, 1.0, 4.0)])


class TestTimeGrid:
    @pytest.mark.parametrize("model, start, step, periods", README_MEMBERS,
                             ids=["toda", "lv2.5", "lv2.2", "lv2.1", "lv2.05",
                                  "lv2.01", "q0.25", "q1", "q4"])
    def test_rows_are_the_rounded_step_grid(self, model, start, step,
                                            periods):
        t = period(model, energy(model, start.x, start.k))
        duration = max(periods * t, 2.0 * step)
        grid = classical._time_grid(step, duration)
        assert np.array_equal(
            grid, step * np.arange(round(duration / step) + 1))
        assert np.array_equal(measured_orbit(model, start, step, periods)[1]
                              .tau, grid)


class TestOneBisection:
    def test_hermite_crossing_matches_fixed_count(self):
        # 60 halvings reach float resolution wherever the root s >= 2^-8;
        # below that the old answer is 2^-60 coarser in s
        rng = np.random.default_rng(7)
        for _ in range(2000):
            t0 = float(rng.uniform(0.0, 60.0))
            h = float(rng.choice([1e-3, 2e-3, 0.2]))
            x0 = -float(rng.uniform(1e-9, 1e-2))
            x1 = float(rng.uniform(1e-9, 1e-2))
            d0, d1 = (float(v) for v in rng.uniform(0.1, 3.0, 2))
            args = (t0, t0 + h, x0, x1, d0, d1)
            new = classical._hermite_crossing(*args)
            old = hermite_crossing_fixed(*args)
            if (old - t0) / h >= 2.0 ** -8:
                assert new == old
            else:
                assert abs(new - old) <= 2.0 ** -60 * h + math.ulp(new)


class TestCrossingScan:
    """The array scans pick the same sample intervals as the per-sample
    loops, so the returned times are bit-identical."""

    @staticmethod
    def _cases():
        lv4 = SeparableHamiltonian(HamiltonianKind.LV, 4.0)
        specs = [OrbitSpec.from_energy(TODA, 2.5, step=1e-3, duration=30.0),
                 OrbitSpec.from_energy(LV, 3.2, step=1e-3, duration=40.0),
                 OrbitSpec.from_point(TODA, PhasePoint(0.0, 0.8), step=1e-3,
                                      duration=20.0),
                 OrbitSpec.from_point(lv4, PhasePoint(-0.3, -0.4), step=2e-3,
                                      duration=20.0),
                 OrbitSpec.from_energy(TODA, 4.0, step=1e-3, duration=3.0)]
        trajs = [integrate_orbit(spec) for spec in specs]
        from wignerflow.gaussian import (GaussianEnsembleParams,
                                         integrate_quantum_trajectory)
        trajs.append(integrate_quantum_trajectory(
            GaussianEnsembleParams(1.0, 1.0), PhasePoint(0.6, 0.0), 2e-3,
            20.0)[0])
        # exact zeros on samples, and a step onto zero from below
        x = np.array([-1.0, 0.0, 1.0, 0.0, -1.0, -0.5, 0.0, 0.5, 1.0, 0.0])
        k = np.array([1.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0, 1.0, -1.0, 1.0])
        trajs.append(Trajectory(tau=np.arange(10.0), x=x, k=k,
                                flow=lambda x, k: (1.0, 1.0)))
        return trajs

    def test_section_crossings_match_per_sample_loop(self):
        for traj in self._cases():
            new = section_crossings(traj)
            old = section_crossings_per_sample(traj)
            assert new == old
            assert all(type(a) is type(b) for a, b in zip(new, old))

    def test_return_to_start_matches_per_sample_loop(self):
        returned = 0
        for traj in self._cases():
            old = return_to_start_per_sample(traj)
            if old is None:
                with pytest.raises(NumericalError, match="does not return"):
                    return_to_start(traj)
            else:
                assert return_to_start(traj) == old
                returned += 1
        assert returned >= 5

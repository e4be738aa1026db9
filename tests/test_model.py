import math

import numpy as np
import pytest

from wignerflow.classical import Trajectory
from wignerflow.errors import DomainError, UsageError
from wignerflow.model import (HamiltonianKind, PhasePoint, SeparableHamiltonian,
                              energy)

from oracles import harmonic_residual, odd_derivative

TODA = SeparableHamiltonian(HamiltonianKind.TODA, 1.0)
LV = SeparableHamiltonian(HamiltonianKind.LV, 1.0)


class TestEnergy:
    def test_origin_values(self):
        assert energy(TODA, 0.0, 0.0) == 2.0
        assert energy(LV, 0.0, 0.0) == 2.0

    def test_toda_at_log_two(self):
        # cosh(ln 2) = 5/4
        assert abs(energy(TODA, math.log(2.0), 0.0) - 2.25) < 1e-15

    def test_lower_bound_attained_only_at_origin(self):
        rng = np.random.default_rng(42)
        pts = rng.uniform(-3.0, 3.0, size=(10000, 2))
        for model in (TODA, LV):
            floor = 1.0 + model.a
            for x, k in pts:
                e = energy(model, x, k)
                assert e >= floor - 1e-12
                if e <= floor + 1e-12:
                    assert math.hypot(x, k) < 1e-5

    def test_toda_parity_lv_asymmetry(self):
        p, q = PhasePoint(0.8, -0.3), PhasePoint(-0.8, 0.3)
        assert energy(TODA, p.x, p.k) == energy(TODA, q.x, q.k)
        assert energy(LV, p.x, p.k) != energy(LV, q.x, q.k)

    def test_anisotropy_validation(self):
        with pytest.raises(DomainError):
            SeparableHamiltonian(HamiltonianKind.TODA, 0.0)
        with pytest.raises(DomainError):
            SeparableHamiltonian(HamiltonianKind.LV, -1.0)


class TestOddDerivative:
    def test_toda_kinetic_is_sinh_for_every_order(self):
        for order in range(1, 12, 2):
            assert odd_derivative(TODA, "kinetic", order, 0.0) == 0.0
            assert odd_derivative(TODA, "kinetic", order, 1.0) == math.sinh(1.0)

    def test_toda_potential_scales_with_a(self):
        model = SeparableHamiltonian(HamiltonianKind.TODA, 4.0)
        assert odd_derivative(model, "potential", 5, 0.7) == 4.0 * math.sinh(0.7)

    def test_lv_first_orders_vanish_at_equilibrium(self):
        assert odd_derivative(LV, "potential", 1, 0.0) == 0.0
        assert odd_derivative(LV, "kinetic", 1, 0.0) == 0.0

    @pytest.mark.parametrize("side", ["kinetic", "potential"])
    def test_against_finite_differences(self, side):
        # third derivative of each part by five-point second differences of
        # the first derivative
        h = 1e-3
        for model in (TODA, LV):
            for c in (-0.9, 0.3, 1.4):
                d1 = lambda u: odd_derivative(model, side, 1, u)
                ref = (d1(c + h) - 2.0 * d1(c) + d1(c - h)) / (h * h)
                val = odd_derivative(model, side, 3, c)
                assert abs(val - ref) < 5e-6

    def test_usage(self):
        with pytest.raises(UsageError):
            odd_derivative(TODA, "kinetic", 2, 0.5)
        with pytest.raises(UsageError):
            odd_derivative(TODA, "mixed", 1, 0.5)


def species_from_phase(x, k):
    """The species (y, z) a trajectory derives from one sample (x, k)."""
    traj = Trajectory(tau=np.zeros(1), x=np.array([x]), k=np.array([k]),
                      flow=None)
    return traj.y[0], traj.z[0]


class TestSpeciesMap:
    def test_equilibrium(self):
        y, z = species_from_phase(0.0, 0.0)
        assert y == 1.0 and z == 1.0

    def test_exponential_map(self):
        y, z = species_from_phase(math.log(2.0), 0.0)
        assert abs(y - 0.5) < 1e-15 and z == 1.0

    def test_negative_coordinates_grow_populations(self):
        y, z = species_from_phase(-1.0, -1.0)
        assert y == math.e and z == math.e


class TestHarmonicResidual:
    def test_expansion_point(self):
        assert harmonic_residual(TODA, PhasePoint(0.0, 0.0)) == 0.0
        assert harmonic_residual(LV, PhasePoint(0.0, 0.0)) == 0.0

    def test_toda_quartic_remainder(self):
        # cosh x - 1 - x^2/2 = x^4/24 + O(x^6)
        r = harmonic_residual(TODA, PhasePoint(0.1, 0.0))
        assert abs(r - 4.1680558035048e-06) < 1e-12

    def test_lv_cubic_remainder(self):
        # e^-x - 1 + x - x^2/2 = -x^3/6 + O(x^4)
        r = harmonic_residual(LV, PhasePoint(0.1, 0.0))
        assert abs(r - (-1.6258196404017166e-04)) < 1e-12
        assert abs(r + 0.1 ** 3 / 6.0) < 5e-6

    def test_model_correct_quadratic_for_anisotropy(self):
        # the residual stays cubic-order for a != 1
        model = SeparableHamiltonian(HamiltonianKind.TODA, 3.0)
        assert abs(harmonic_residual(model, PhasePoint(0.01, 0.01))) < 1e-8


class TestPhasePoint:
    def test_finite_required(self):
        with pytest.raises(DomainError):
            PhasePoint(math.inf, 0.0)
        with pytest.raises(DomainError):
            PhasePoint(0.0, math.nan)

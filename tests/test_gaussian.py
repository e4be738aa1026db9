import functools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wignerflow import gaussian
from wignerflow.errors import DomainError, NumericalError, UsageError
from wignerflow.gaussian import (GaussianEnsembleParams, circulation_number,
                                 currents_closed, div_currents_closed,
                                 find_stagnation_points, gaussian_w,
                                 integrate_quantum_trajectory,
                                 liouville_div_w, purity, series_currents,
                                 stationarity_div_j, velocity_w, vorticity)
from wignerflow.classical import measured_orbit, period, return_to_start
from wignerflow.fieldgrid import GridSpec, sample_field
from wignerflow.model import (HamiltonianKind, PhasePoint,
                              SeparableHamiltonian, energy)
from wignerflow.specfun import (_ALPHA_MAX, QuadratureSpec,
                                im_erf_offset_scaled, integrate_1d)

from oracles import (gauss_legendre_2d, kernel_zeros_bisect,
                     kernel_zeros_fixed, scaled_kernel_weideman,
                     stagnation_windings)

A1 = GaussianEnsembleParams(1.0)
POINT = PhasePoint(0.7, 0.4)
VORTICITY_CASES = [(1.0, 1.0, 0.7, 0.4), (0.5, 4.0, -1.3, 2.1),
                   (2.0, 0.25, 1.9, -0.6), (1.4, 2.0, -0.2, -2.5)]


class TestWignerFunction:
    def test_peak_value(self):
        assert gaussian_w(A1, 0.0, 0.0) == 1.0 / math.pi

    def test_normalized(self):
        total = gauss_legendre_2d(lambda x, k: gaussian_w(A1, x, k),
                                  8.0, 8.0)
        assert abs(total - 1.0) < 1e-10

    def test_radial_symmetry(self):
        assert gaussian_w(A1, 0.3, 0.4) == pytest.approx(
            gaussian_w(A1, 0.5, 0.0), rel=1e-12)


class TestPurity:
    @pytest.mark.parametrize("alpha,expected",
                             [(1.0, 1.0), (2.0 ** -0.5, 0.5), (2.0 ** 0.5, 2.0)])
    def test_closed_value(self, alpha, expected):
        assert abs(purity(GaussianEnsembleParams(alpha)) - expected) < 1e-14

    @pytest.mark.parametrize("alpha", [2.0 ** -0.5, 1.0, 2.0 ** 0.5])
    def test_quadrature_identity(self, alpha):
        params = GaussianEnsembleParams(alpha)
        val = 2.0 * math.pi * gauss_legendre_2d(
            lambda x, k: gaussian_w(params, x, k) ** 2,
            8.0 / alpha, 8.0 / alpha)
        assert abs(val - purity(params)) < 1e-8


class TestDivergences:
    def test_vanish_on_axes(self):
        assert div_currents_closed(A1, 0.0, 0.7) == (0.0, -0.0)
        djx, djk = div_currents_closed(A1, 0.7, 0.0)
        assert djx == -0.0 and djk == 0.0

    @pytest.mark.parametrize("alpha", [2.0 ** -0.5, 1.0, 2.0 ** 0.5])
    def test_series_oracle_on_grid(self, alpha):
        params = GaussianEnsembleParams(alpha)
        xs = np.linspace(-2.0, 2.0, 21)
        x, k = np.meshgrid(xs, xs)
        srs = series_currents(params, x, k, 12)
        cls = div_currents_closed(params, x, k)
        for s, c in zip(srs, cls):
            denom = np.maximum(np.abs(c), 1e-300)
            mask = np.abs(c) > 1e-30
            assert np.max(np.abs((s - c))[mask] / denom[mask]) < 1e-6
            assert np.max(np.abs(s[~mask])) < 1e-30  # exact zeros match

    def test_eta_zero_is_classical_divergence(self):
        djx, djk = series_currents(A1, POINT.x, POINT.k, 0)
        g = gaussian_w(A1, POINT.x, POINT.k)
        assert abs(djx + 2.0 * POINT.x * math.sinh(POINT.k) * g) < 1e-15
        assert abs(djk - 2.0 * POINT.k * math.sinh(POINT.x) * g) < 1e-15

    def test_small_amplitude_reduces_to_scaled_classical(self):
        # linearizing the sine gives e^{alpha^2/4} times the classical
        # divergence; the prefactor itself only drops out as alpha -> 0
        p = PhasePoint(0.02, 0.015)
        classical = -2.0 * p.x * math.sinh(p.k) * gaussian_w(A1, p.x, p.k)
        djx, _ = div_currents_closed(A1, p.x, p.k)
        assert abs(djx / classical - math.exp(0.25)) < 1e-3
        broad = GaussianEnsembleParams(0.2)
        classical = (-2.0 * 0.2 ** 2 * p.x * math.sinh(p.k)
                     * gaussian_w(broad, p.x, p.k))
        djx, _ = div_currents_closed(broad, p.x, p.k)
        assert abs(djx - classical) / abs(classical) < 0.012

    def test_series_terms_decay(self):
        # successive term magnitudes shrink monotonically beyond eta = 3
        prev = None
        for eta in range(3, 12):
            a = series_currents(A1, 2.0, 2.0, eta)
            b = series_currents(A1, 2.0, 2.0, eta - 1)
            term = abs(a[0] - b[0])
            if prev is not None:
                assert term < prev
            prev = term

    def test_eta_max_guard(self):
        with pytest.raises(UsageError):
            series_currents(A1, POINT.x, POINT.k, 26)


class TestCurrents:
    def test_zero_at_origin(self):
        assert currents_closed(A1, 0.0, 0.0) == (0.0, -0.0)

    def test_fundamental_theorem_oracle(self):
        jx, _ = currents_closed(A1, POINT.x, POINT.k)
        ref = integrate_1d(
            lambda xx: float(div_currents_closed(A1, xx, POINT.k)[0]),
            -9.0, POINT.x, QuadratureSpec(1e-13, 1e-11, 2000))
        assert abs(jx - ref) < 1e-8

    def test_profile_factorizes_in_x(self):
        # J_x / (sinh k e^{-alpha^2 k^2}) depends on x alone
        x = 0.9
        vals = []
        for k in (0.3, 1.1):
            jx, _ = currents_closed(A1, x, k)
            vals.append(jx / (math.sinh(k) * math.exp(-k * k)))
        assert abs(vals[0] - vals[1]) < 1e-14

    def test_classical_sign_near_origin(self):
        jx, _ = currents_closed(A1, 0.0, 0.5)
        assert jx > 0.0
        expected = (1.0 / math.sqrt(math.pi) * 0.614952094696511
                    * math.sinh(0.5) * math.exp(-0.25))
        assert abs(jx - expected) < 1e-12

    def test_parity_suite(self):
        x, k = 0.8, 0.5
        jx_pp, jk_pp = currents_closed(A1, x, k)
        jx_mp, jk_mp = currents_closed(A1, -x, k)
        jx_pm, jk_pm = currents_closed(A1, x, -k)
        assert abs(jx_mp - jx_pp) < 1e-15  # even in x
        assert abs(jx_pm + jx_pp) < 1e-15  # odd in k
        assert abs(jk_pm - jk_pp) < 1e-15  # even in k
        assert abs(jk_mp + jk_pp) < 1e-15  # odd in x


class TestStationarity:
    def test_diagonal_zero_for_isotropic(self):
        assert stationarity_div_j(A1, 0.9, 0.9) == 0.0
        assert stationarity_div_j(A1, 0.0, 0.0) == 0.0

    def test_matches_finite_differences_of_currents(self):
        h = 1e-5
        for p in (POINT, PhasePoint(-1.2, 0.3), PhasePoint(0.4, -1.6)):
            fd = ((currents_closed(A1, p.x + h, p.k)[0]
                   - currents_closed(A1, p.x - h, p.k)[0])
                  + (currents_closed(A1, p.x, p.k + h)[1]
                     - currents_closed(A1, p.x, p.k - h)[1])) / (2 * h)
            assert abs(stationarity_div_j(A1, p.x, p.k) - fd) < 1e-6


class TestVelocity:
    def test_fixed_point_at_origin(self):
        assert velocity_w(A1, 0.0, 0.0) == (0.0, -0.0)

    def test_equals_current_over_wigner(self):
        wx, wk = velocity_w(A1, POINT.x, POINT.k)
        jx, jk = currents_closed(A1, POINT.x, POINT.k)
        g = gaussian_w(A1, POINT.x, POINT.k)
        assert abs(wx - jx / g) < 1e-13
        assert abs(wk - jk / g) < 1e-13

    def test_parity(self):
        wx_pp, _ = velocity_w(A1, 0.8, 0.5)
        wx_mp, _ = velocity_w(A1, -0.8, 0.5)
        wx_pm, _ = velocity_w(A1, 0.8, -0.5)
        assert abs(wx_mp - wx_pp) < 1e-15
        assert abs(wx_pm + wx_pp) < 1e-15

    def test_classical_limit(self):
        params = GaussianEnsembleParams(0.2)
        worst = 0.0
        for x in np.linspace(-1.0, 1.0, 11):
            for k in np.linspace(-1.0, 1.0, 11):
                wx, wk = velocity_w(params, float(x), float(k))
                vx, vk = math.sinh(k), -math.sinh(x)
                scale = 1.0 + math.hypot(vx, vk)
                worst = max(worst, math.hypot(wx - vx, wk - vk) / scale)
        assert worst < 0.02

    @pytest.mark.parametrize("alpha", [0.0, -1.0, 5e-324, 1e-308, math.inf,
                                       math.nan])
    def test_alpha_with_an_infinite_trust_limit_refused(self, alpha):
        # 6/alpha is inf below about 3.3e-308: the kernel table's nodes
        # would be inf * 0
        with pytest.raises(DomainError, match="and so must 6/alpha"):
            GaussianEnsembleParams(alpha)
        assert GaussianEnsembleParams(4e-308).trust_limit() < math.inf

    def test_trust_region_guard(self):
        with pytest.raises(DomainError):
            velocity_w(A1, 6.5, 0.0)
        with pytest.raises(DomainError):
            velocity_w(GaussianEnsembleParams(2.0), 3.5, 0.0)

    @pytest.mark.parametrize("form, quantity", [
        (velocity_w, "w"), (liouville_div_w, "divw"), (vorticity, "vort")])
    def test_overflow_inside_trust_region_is_domain_error(self, form,
                                                          quantity):
        # alpha = 0.001 trusts |chi| <= 6000, but sinh and cosh leave the
        # float range past 710: the value was +-inf, with overflow warnings
        params = GaussianEnsembleParams(0.001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflows inside the "
                               "trust region at alpha = 0.001"):
                form(params, 6000.0, 6000.0)
            with pytest.raises(DomainError, match="overflows"):
                form(params, np.array([1.0, 6000.0]), 6000.0)
            assert np.all(np.isfinite(form(params, 700.0, -700.0)))
        # a grid over the same nodes still flags them instead of raising
        grid = sample_field(params, quantity,
                            GridSpec(-6000, 6000, -6000, 6000, 3, 3))
        assert grid.valid[1, 1] and not grid.valid[0, 0]


class TestLiouville:
    def test_zero_at_origin(self):
        assert liouville_div_w(A1, 0.0, 0.0) == 0.0

    def test_generically_nonzero(self):
        assert abs(liouville_div_w(A1, 0.5, 0.2)) > 1e-4

    def test_matches_velocity_finite_differences(self):
        h = 1e-5
        for p in (POINT, PhasePoint(1.3, -0.6)):
            fd = ((velocity_w(A1, p.x + h, p.k)[0]
                   - velocity_w(A1, p.x - h, p.k)[0])
                  + (velocity_w(A1, p.x, p.k + h)[1]
                     - velocity_w(A1, p.x, p.k - h)[1])) / (2 * h)
            assert abs(liouville_div_w(A1, p.x, p.k) - fd) < 1e-6

    def test_quotient_identity(self):
        # div w = (W div J - J . grad W) / W^2 with grad W = -2 alpha^2 (x, k) W
        p = POINT
        g = gaussian_w(A1, p.x, p.k)
        jx, jk = currents_closed(A1, p.x, p.k)
        div_j = stationarity_div_j(A1, p.x, p.k)
        ref = div_j / g + 2.0 * (p.x * jx + p.k * jk) / g
        assert abs(liouville_div_w(A1, p.x, p.k) - ref) < 1e-12

    @pytest.mark.parametrize("alpha", [1.0, 15.0, 53.25])
    def test_against_mpmath_slopes(self, alpha):
        # (sqrt(pi)/alpha) (S'(x) sinh k - a S'(k) sinh x) with S' by
        # 40-digit numerical differentiation, at the alpha whose square is
        # the double alpha^2, within 4 eps (1 + alpha^2 (|chi| + 1/4))
        # times its two terms' magnitudes, the slope's bound (at most 0.66,
        # 0.33 and 0.05 times eps (1 + ...) times them here); at 53.25 the
        # values reach 7.7e307, and at a = 4 the four unscaled terms overflow
        mpmath = pytest.importorskip("mpmath")
        lim = 6.0 / alpha
        with mpmath.workdps(40):
            al = mpmath.sqrt(mpmath.mpf(alpha * alpha))

            def slope(c):
                return mpmath.diff(lambda t: mpmath.exp((al * t) ** 2)
                                   * mpmath.im(mpmath.erf(al * (t + 0.5j))),
                                   mpmath.mpf(c))

            for a in (1.0, 4.0):
                params = GaussianEnsembleParams(alpha, a)
                for x, k in ((0.3, 0.7), (-0.55, 0.2), (0.9, -0.95),
                             (0.61, 0.43), (0.05, -0.8), (1.0, -0.97)):
                    x, k = x * lim, k * lim
                    c = mpmath.sqrt(mpmath.pi) / al
                    tx = c * slope(x) * mpmath.sinh(k)
                    tk = a * c * slope(k) * mpmath.sinh(x)
                    ref, terms = float(tx - tk), float(abs(tx) + abs(tk))
                    bound = (4.0 * np.finfo(float).eps * terms * (
                        1.0 + alpha * alpha * (max(abs(x), abs(k)) + 0.25)))
                    assert abs(liouville_div_w(params, x, k) - ref) <= bound

    @pytest.mark.parametrize("alpha", [53.25, 53.27, 53.28])
    def test_finite_up_to_the_largest_alpha(self, alpha):
        # 2 e^{alpha^2/4} is multiplied last, onto the bracket of scaled
        # slopes: the four unscaled terms overflowed in their sum
        lim = GaussianEnsembleParams(alpha).trust_limit()
        chi = np.linspace(-lim, lim, 41)
        for a in (1.0, 4.0):
            values = liouville_div_w(GaussianEnsembleParams(alpha, a),
                                     chi[None, :], chi[:, None])
            assert values.shape == (41, 41) and np.all(np.isfinite(values))

    def test_classical_limit_vanishes(self):
        params = GaussianEnsembleParams(0.2)
        p = PhasePoint(0.3, 0.2)
        wx, wk = velocity_w(params, p.x, p.k)
        assert (abs(liouville_div_w(params, p.x, p.k)) / math.hypot(wx, wk)
                < 0.02)


class TestVorticity:
    def test_quantum_approaches_classical(self):
        # the classical curl is minus the phase-space Laplacian of H
        params = GaussianEnsembleParams(0.2)
        p = PhasePoint(0.3, 0.2)
        vq = vorticity(params, p.x, p.k)
        vc = -(params.a * math.cosh(p.x) + math.cosh(p.k))
        assert abs(vq - vc) / abs(vc) < 0.02

    @pytest.mark.parametrize("alpha, a, x, k", VORTICITY_CASES)
    def test_closed_form_matches_velocity_differences(self, alpha, a, x, k):
        params = GaussianEnsembleParams(alpha, a)
        h = 1e-5
        fd = ((velocity_w(params, x + h, k)[1]
               - velocity_w(params, x - h, k)[1])
              - (velocity_w(params, x, k + h)[0]
                 - velocity_w(params, x, k - h)[0])) / (2.0 * h)
        closed = vorticity(params, x, k)
        assert abs(closed - fd) < 1e-8 * abs(closed)

    @pytest.mark.parametrize("alpha, a, x, k", VORTICITY_CASES)
    def test_closed_form_matches_mpmath_curl(self, alpha, a, x, k):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            def scaled(chi):
                return (mp.exp((alpha * chi) ** 2)
                        * mp.im(mp.erf(alpha * (chi + 0.5j))))

            c = mp.sqrt(mp.pi) / alpha
            dwk_dx = mp.diff(lambda t: -a * c * scaled(k) * mp.sinh(t), x)
            dwx_dk = mp.diff(lambda t: c * scaled(x) * mp.sinh(t), k)
            ref = float(dwk_dx - dwx_dk)
        closed = vorticity(GaussianEnsembleParams(alpha, a), x, k)
        assert abs(closed - ref) < 1e-12 * abs(ref)


class TestCirculation:
    def test_origin_is_clockwise_vortex(self):
        for alpha in (2.0 ** -0.5, 1.0, 2.0 ** 0.5):
            gamma = circulation_number(GaussianEnsembleParams(alpha),
                                       PhasePoint(0.0, 0.0), 0.3)
            assert abs(gamma + 1.0) < 1e-3

    def test_anisotropic_origin_still_integral(self):
        gamma = circulation_number(GaussianEnsembleParams(1.0, 4.0),
                                   PhasePoint(0.0, 0.0), 0.3)
        assert abs(gamma + 1.0) < 1e-3

    def test_enclosing_nothing_gives_zero(self):
        assert circulation_number(A1, PhasePoint(1.5, 1.5), 0.2) == 0.0

    def test_saddle_gives_zero(self):
        params = GaussianEnsembleParams(2.0 ** 0.5)
        pts = find_stagnation_points(params, (-3.0, 3.0, -3.0, 3.0))
        off_axis = [s for s in pts if s.location.x > 0 and s.location.k > 0]
        assert off_axis
        assert circulation_number(params, off_axis[0].location, 0.3) == 0.0

    def test_degenerate_loop_error(self):
        # a loop passing through the origin touches a zero of the field
        with pytest.raises(NumericalError):
            circulation_number(A1, PhasePoint(0.25, 0.0), 0.25)

    def test_radius_guard(self):
        with pytest.raises(UsageError):
            circulation_number(A1, PhasePoint(0.0, 0.0), 0.0)


README_SWEEP = [float(v) for v in np.linspace(0.25, 2.7, 10)]


def counted_kernel_zeros(params):
    """gaussian._kernel_zeros on the trust interval, and the scalar kernel
    calls that each zero took."""
    count, calls = [0, 0], []  # kernel calls, and where this zero began
    find = gaussian._kernel_zero

    def kernel(al, chi):
        count[0] += 1
        # a bisection of a float bracket ends within 1100 halvings: an
        # iteration that creeps fails here instead of hanging
        assert count[0] - count[1] <= 2200
        return im_erf_offset_scaled(al, chi)

    def zero(*args):
        count[1] = count[0]
        z = find(*args)
        calls.append(count[0] - count[1])
        return z

    with mock.patch.object(gaussian, "im_erf_offset_scaled", kernel), \
            mock.patch.object(gaussian, "_kernel_zero", zero):
        zeros = gaussian._kernel_zeros(params, 6.0 / params.alpha)
    return zeros, calls


class TestStagnationPoints:
    @pytest.mark.parametrize("alpha, upper", [
        (0.70710678, 8.0), (1.0, 5.0), (1.41421356, 4.0), (2.0, 3.0),
        (2.7, 2.2)] + [(alpha, 2.0) for alpha in README_SWEEP]
        + [(alpha, 6.0 / alpha) for alpha in README_SWEEP])
    def test_kernel_zeros_match_fixed_count(self, alpha, upper):
        # bisection to adjacent floats lands on the same zero from the
        # extremum brackets as from 80 halvings of an 800-probe cell
        from wignerflow.gaussian import _kernel_zeros
        params = GaussianEnsembleParams(alpha, 4.0)
        zeros = _kernel_zeros(params, upper)
        assert zeros == kernel_zeros_fixed(params, upper, 800)
        # one zero in each whole interval between extrema of F
        full = math.floor(upper * alpha * alpha / math.pi)
        assert full <= len(zeros) <= full + 1

    # the first four: rounding flips the sign of the kernel more than once
    # next to one of their zeros, so a search that stops on any sign change
    # within a few ulps can end on another pair than the bisection; then no
    # zero below alpha 0.5166, and from 53.13 on, where S' itself is no float
    @example(alpha=3.064912280701754)
    @example(alpha=5.182706766917292)
    @example(alpha=7.342857142857142)
    @example(alpha=9.41829573934837)
    @example(alpha=0.02)
    @example(alpha=0.52)
    @example(alpha=30.0)
    @example(alpha=53.13)
    @example(alpha=53.2)
    @example(alpha=_ALPHA_MAX)
    @settings(max_examples=60, deadline=None, database=None)
    @given(alpha=st.floats(0.02, _ALPHA_MAX))
    def test_kernel_zeros_match_bisection(self, alpha):
        """The zeros are the plain bisection's bit for bit, each found with
        exactly the bisection's scalar kernel calls, up to the largest alpha
        that the kernel accepts."""
        params = GaussianEnsembleParams(alpha)
        zeros, calls = counted_kernel_zeros(params)
        expected = kernel_zeros_bisect(params, 6.0 / alpha)
        assert [z.hex() for z in zeros] == [z.hex() for z, _ in expected]
        assert calls == [m for _, m in expected]

    @pytest.mark.parametrize("alpha, a, bbox", [
        (alpha, 4.0, (-2.0, 2.0, -2.0, 2.0)) for alpha in README_SWEEP] + [
        (2.7, 4.0, (-2.0, 2.0, -2.0, 2.0)),
        (1.5, 0.5, (-3.0, 3.0, -3.0, 3.0)),
        (2.0 ** 0.5, 1.0, (-3.0, 3.0, -3.0, 3.0)),
        (0.7071, 4.0, (-8.0, 8.0, -8.0, 8.0))])
    def test_residuals_are_the_closed_current(self, alpha, a, bbox):
        # one kernel value per coordinate, the same |J| as point by point
        params = GaussianEnsembleParams(alpha, a)
        pts = find_stagnation_points(params, bbox)
        assert pts  # the origin alone at the four smallest alpha of the sweep
        for s in pts:
            j = currents_closed(params, s.location.x, s.location.k)
            assert s.residual.hex() == float(np.hypot(*j)).hex()

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.7, 5.0, 10.0])
    def test_kernel_changes_sign_once_between_extrema(self, alpha):
        # the premise of the bracket scan: F' vanishes only at n pi/alpha^2,
        # so F, and the scaled kernel with it, changes sign at most once
        # between neighbouring nodes (here exactly once, on every interval
        # that starts inside the trust region)
        step = math.pi / (alpha * alpha)
        for n in range(math.ceil(6.0 / alpha / step)):
            chi = np.linspace(n * step, (n + 1) * step, 200)
            positive = im_erf_offset_scaled(alpha, chi) > 0.0
            assert np.count_nonzero(positive[1:] != positive[:-1]) == 1

    @pytest.mark.parametrize("alpha, a, bbox", [
        (2.7, 4.0, (-2.0, 2.0, -2.0, 2.0)),
        (1.5, 0.5, (-3.0, 3.0, -3.0, 3.0)),
        (2.0 ** 0.5, 1.0, (-3.0, 3.0, -3.0, 3.0)),
        (0.7071, 4.0, (-8.0, 8.0, -8.0, 8.0))])
    def test_classes_match_measured_winding(self, alpha, a, bbox):
        params = GaussianEnsembleParams(alpha, a)
        pts = find_stagnation_points(params, bbox)
        assert len(pts) > 1
        classes = {-1.0: "vortex_cw", 0.0: "saddle_or_separatrix",
                   1.0: "vortex_ccw"}
        for s, winding in zip(pts, stagnation_windings(params, pts, bbox)):
            assert abs(s.circulation - winding) <= 1e-13
            assert s.kind == classes[s.circulation]

    def test_origin_always_detected(self):
        for alpha in (2.0 ** -0.5, 1.0, 2.0 ** 0.5):
            pts = find_stagnation_points(GaussianEnsembleParams(alpha),
                                         (-3.0, 3.0, -3.0, 3.0))
            assert any(s.location.x == 0.0 and s.location.k == 0.0
                       for s in pts)

    def test_count_increases_with_alpha(self):
        n_wide = len(find_stagnation_points(
            GaussianEnsembleParams(2.0 ** -0.5), (-3.0, 3.0, -3.0, 3.0)))
        n_peaked = len(find_stagnation_points(
            GaussianEnsembleParams(2.0 ** 0.5), (-3.0, 3.0, -3.0, 3.0)))
        assert n_wide < n_peaked

    def test_residuals_and_circulation_classes(self):
        pts = find_stagnation_points(GaussianEnsembleParams(2.0 ** 0.5),
                                     (-3.0, 3.0, -3.0, 3.0))
        for s in pts:
            assert s.residual < 1e-10
            assert min(abs(s.circulation - g) for g in (-1.0, 0.0, 1.0)) < 1e-3
            assert s.kind in ("vortex_cw", "vortex_ccw", "saddle_or_separatrix")

    def test_sorted_deterministically(self):
        params = GaussianEnsembleParams(2.0 ** 0.5)
        a = find_stagnation_points(params, (-3.0, 3.0, -3.0, 3.0))
        b = find_stagnation_points(params, (-3.0, 3.0, -3.0, 3.0))
        assert [(s.location.x, s.location.k) for s in a] == \
               [(s.location.x, s.location.k) for s in b]
        coords = [(s.location.x, s.location.k) for s in a]
        assert coords == sorted(coords)

    def test_bbox_beyond_trust_rejected(self):
        with pytest.raises(DomainError):
            find_stagnation_points(GaussianEnsembleParams(4.0),
                                   (-3.0, 3.0, -3.0, 3.0))

    @pytest.mark.parametrize("bound", range(4))
    def test_any_one_bound_past_the_trust_limit_rejected(self, bound):
        params = GaussianEnsembleParams(2.0)  # trust limit 3
        bbox = [-3.0, 3.0, -3.0, 3.0]
        find_stagnation_points(params, bbox)
        bbox[bound] = math.copysign(math.nextafter(3.0, 4.0), bbox[bound])
        with pytest.raises(DomainError, match="trust region .* <= 3.0000 "
                                              r"\(alpha = 2.0\)"):
            find_stagnation_points(params, bbox)

    def test_asymmetric_bbox_filters(self):
        pts = find_stagnation_points(GaussianEnsembleParams(2.0 ** 0.5),
                                     (-0.5, 3.0, -3.0, 3.0))
        assert all(s.location.x >= -0.5 for s in pts)


class TestQuantumTrajectory:
    def test_equilibrium_is_fixed_point(self):
        q, c = integrate_quantum_trajectory(A1, PhasePoint(0.0, 0.0),
                                            1e-3, 1.0)
        assert np.max(np.abs(q.x)) < 1e-12
        assert np.max(np.abs(q.k)) < 1e-12
        assert np.max(np.abs(c.x)) < 1e-12

    def test_bounded_and_closes_with_dephasing(self):
        q, c = integrate_quantum_trajectory(A1, PhasePoint(0.6, 0.0),
                                            2e-3, 62.0)
        assert np.max(np.abs(q.x)) < 2.0 and np.max(np.abs(q.k)) < 2.0
        t_q, gap_q = return_to_start(q)
        t_c, gap_c = return_to_start(c)
        assert gap_q <= 1e-12 and gap_c <= 1e-12
        assert abs(t_q - t_c) > 1e-3  # the flows run at different speeds

    @pytest.mark.parametrize("a", [0.25, 1.0, 4.0])
    def test_legs_share_one_time_array(self, a):
        # a README member: ten classical periods from (0.6, 0) at dt 2e-3;
        # the classical leg is tabulated at the quantum leg's own times,
        # which are the round(duration / step) + 1 grid once it completes
        start = PhasePoint(0.6, 0.0)
        period, _ = measured_orbit(
            SeparableHamiltonian(HamiltonianKind.TODA, a), start, 2e-3, 10.0)
        span = 10.0 * period
        q, c = integrate_quantum_trajectory(GaussianEnsembleParams(1.0, a),
                                            start, 2e-3, span)
        assert np.array_equal(q.tau, c.tau)
        assert np.array_equal(
            c.tau, 2e-3 * np.arange(int(round(span / 2e-3)) + 1))

    @pytest.mark.parametrize("x0, k0", [(0.0, 0.5), (0.0, -0.5), (0.6, 0.0),
                                        (-0.6, 0.0)])
    @pytest.mark.parametrize("a", [0.25, 1.0, 4.0])
    def test_axis_starts_return(self, a, x0, k0):
        # on the k axis k turns at the start, so the section is x = x0
        model = SeparableHamiltonian(HamiltonianKind.TODA, a)
        t = period(model, float(energy(model, x0, k0)))
        q, c = integrate_quantum_trajectory(GaussianEnsembleParams(1.0, a),
                                            PhasePoint(x0, k0), 2e-3, 2.0 * t)
        t_q, gap_q = return_to_start(q)
        t_c, gap_c = return_to_start(c)
        assert abs(t_c - t) <= 1e-9
        assert gap_q <= 1e-12 and gap_c <= 1e-12

    @pytest.mark.parametrize("a", [0.25, 1.0, 4.0])
    def test_readme_members_close(self, a):
        # the README members: ten classical periods from (0.6, 0) at dt
        # 2e-3; x at the return is read off its Hermite interpolant, whose
        # O(dt^4) error is below rounding, so both orbits visibly close
        model = SeparableHamiltonian(HamiltonianKind.TODA, a)
        span = 10.0 * period(model, energy(model, 0.6, 0.0))
        q, c = integrate_quantum_trajectory(GaussianEnsembleParams(1.0, a),
                                            PhasePoint(0.6, 0.0), 2e-3, span)
        assert return_to_start(q)[1] <= 1e-12
        assert return_to_start(c)[1] <= 1e-12

    def test_leaving_trust_region_fails_with_partial(self):
        with pytest.raises(NumericalError) as err:
            integrate_quantum_trajectory(A1, PhasePoint(5.9, 0.0), 1e-2, 30.0)
        partial = err.value.payload
        assert partial is not None and len(partial) > 1

    def test_step_validation(self):
        with pytest.raises(DomainError):
            integrate_quantum_trajectory(A1, PhasePoint(0.5, 0.0), 0.0, 1.0)

    @pytest.mark.parametrize("alpha", [1e-3, 1.0, 2.7, 10.0])
    def test_fused_velocity_matches_array_path(self, alpha):
        params = GaussianEnsembleParams(alpha, 3.0)
        # sinh leaves the float range beyond 710; w is 5e12 at 30
        lim = min(params.trust_limit(), 30.0)
        x, k = np.random.default_rng(3).uniform(-lim, lim, (2, 400))
        rhs = gaussian._velocity_rhs(params)
        got = np.array([rhs(*p) for p in zip(x.tolist(), k.tolist())]).T
        ref = np.array(velocity_w(params, x, k))
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("alpha, start", [
        (1.0, (6.0, 0.3)), (1.0, (-6.0, -6.0)), (2.7, (0.1, 6.0 / 2.7))])
    def test_start_at_trust_edge_leaves_with_partial(self, alpha, start):
        # RK4 stages past the edge take the table's last piece; the run
        # stops at the first state outside, with the rows so far attached
        params = GaussianEnsembleParams(alpha, 1.0)
        with pytest.raises(NumericalError, match="left the trust region") \
                as err:
            integrate_quantum_trajectory(params, PhasePoint(*start), 1e-2,
                                         50.0)[0]
        partial = err.value.payload
        assert len(partial) >= 2
        assert (abs(partial.x[-1]) > params.trust_limit()
                or abs(partial.k[-1]) > params.trust_limit())


# the README trajectory members (ten classical periods, tau_max None) and
# the trajectories benchmark workload's seed-1 members (tau_max 10)
KERNEL_TABLE_MEMBERS = [(1.0, 0.25, 0.6, 0.0, None), (1.0, 1.0, 0.6, 0.0, None),
                        (1.0, 4.0, 0.6, 0.0, None),
                        (1.024, 0.502, 0.615, 0.0175, 10.0),
                        (1.024, 0.9733, 0.615, 0.0175, 10.0),
                        (1.024, 3.9802, 0.615, 0.0175, 10.0)]


class TestKernelTableTrajectories:
    """The quantum RK4 on the velocity field fused with the per-alpha kernel
    table against the same RK4 on the Weideman scalar kernel."""

    @pytest.mark.parametrize("alpha, a, x0, k0, tau_max", KERNEL_TABLE_MEMBERS)
    def test_rows_and_return_time_match_oracle(self, monkeypatch, alpha, a,
                                               x0, k0, tau_max):
        params = GaussianEnsembleParams(alpha, a)
        start = PhasePoint(x0, k0)
        if tau_max is None:
            period, _ = measured_orbit(
                SeparableHamiltonian(HamiltonianKind.TODA, a), start, 2e-3,
                10.0)
            tau_max = 10.0 * period
        table = integrate_quantum_trajectory(params, start, 2e-3, tau_max)[0]
        # the same RK4 on the velocity field with the Weideman kernel
        kernel = functools.partial(scaled_kernel_weideman, alpha)
        c = math.sqrt(math.pi) / alpha

        def weideman_rhs(x, k):
            return (c * kernel(x) * math.sinh(k),
                    -a * c * kernel(k) * math.sinh(x))

        monkeypatch.setattr(gaussian, "_velocity_rhs",
                            lambda p: weideman_rhs)
        oracle = integrate_quantum_trajectory(params, start, 2e-3, tau_max)[0]
        assert len(table) == len(oracle)
        assert np.max(np.abs(table.x - oracle.x)) <= 1e-12
        assert np.max(np.abs(table.k - oracle.k)) <= 1e-12
        t_table, _ = return_to_start(table)
        t_oracle, _ = return_to_start(oracle)
        assert abs(t_table - t_oracle) <= 1e-9

    def test_equilibrium_exactly_fixed(self):
        for alpha in (1e-3, 1.0, 2.7):
            q = integrate_quantum_trajectory(
                GaussianEnsembleParams(alpha, 4.0), PhasePoint(0.0, 0.0),
                1e-2, 1.0)[0]
            assert not q.x.any() and not q.k.any()

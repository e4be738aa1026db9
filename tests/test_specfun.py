import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wignerflow import gaussian, specfun
from wignerflow.errors import DomainError, NumericalError, UsageError
from wignerflow.gaussian import GaussianEnsembleParams, velocity_w
from wignerflow.thermo import linspace
from wignerflow.specfun import (QuadratureSpec, bessel_k, elliptic_k_complete,
                                elliptic_k_linear_sin, faddeeva_w, hermite_odd,
                                im_erf_offset, im_erf_offset_scaled,
                                integrate_1d, jacobi_sn_cn, _kernel_slope)

from oracles import (TIGHT, bessel_k_quadrature, erfi_maclaurin,
                     im_erf_contour, weideman_coefficients_fft)


class TestQuadrature:
    def test_gaussian(self):
        v = integrate_1d(lambda t: math.exp(-t * t), -math.inf, math.inf, TIGHT)
        assert abs(v - math.sqrt(math.pi)) < 1e-12

    def test_odd_integrand_vanishes(self):
        v = integrate_1d(lambda t: t * math.exp(-t * t), -math.inf, math.inf,
                         QuadratureSpec(1e-12, 1e-10, 2000))
        assert abs(v) < 1e-12

    @pytest.mark.parametrize("f", [lambda t: math.exp(-t * t),
                                   lambda t: math.cos(3 * t) / math.cosh(t),
                                   lambda t: math.exp(-(t - 1.3) ** 2 / 5)])
    def test_whole_line_is_its_two_half_lines(self, f):
        spec = QuadratureSpec(1e-12, 1e-10, 2000)
        half = QuadratureSpec(5e-13, 5e-11, 2000)
        whole = integrate_1d(f, -math.inf, math.inf, spec)
        assert whole == (integrate_1d(f, -math.inf, 0.0, half)
                         + integrate_1d(f, 0.0, math.inf, half))
        # and the sum of its two decay-transformed panels
        panels = [specfun._integrate_finite(
            specfun._decay_transform(f, 0.0, sign), 0.0, 1.0, half)[0]
            for sign in (-1.0, 1.0)]
        assert whole == panels[0] + panels[1]

    def test_matches_bessel_integral_representation(self):
        v = integrate_1d(lambda t: math.exp(-math.cosh(t)) if t < 700 else 0.0,
                         0.0, math.inf, TIGHT)
        assert abs(v - bessel_k(0, 1.0)) < 1e-12

    def test_budget_exhaustion_carries_estimate(self):
        spec = QuadratureSpec(1e-15, 1e-15, max_subdivisions=3)
        with pytest.raises(NumericalError) as err:
            integrate_1d(lambda t: math.sqrt(abs(t - 0.3718)), 0.0, 1.0, spec)
        estimate, bound = err.value.payload
        assert 0.3 < estimate < 0.5 and bound > 0.0

    def test_deterministic(self):
        f = lambda t: math.sin(3 * t) ** 2 * math.exp(-t)
        assert integrate_1d(f, 0.0, 5.0) == integrate_1d(f, 0.0, 5.0)

    def test_reversed_limits_flip_sign(self):
        assert integrate_1d(lambda t: t * t, 1.0, 0.0) == pytest.approx(
            -1.0 / 3.0, abs=1e-14)

    def test_spec_validation(self):
        with pytest.raises(UsageError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(UsageError):
            QuadratureSpec(max_subdivisions=0)


class TestBesselK:
    def test_k0_at_one(self):
        # oracle: quadrature of the defining integral at beta = 1
        ref = integrate_1d(lambda t: math.exp(-math.cosh(t)) if t < 700 else 0.0,
                           0.0, math.inf, TIGHT)
        assert abs(bessel_k(0, 1.0) - ref) / ref < 1e-12
        assert abs(bessel_k(0, 1.0) - 0.4210244382407083) < 1e-12

    def test_k1_at_one(self):
        ref = integrate_1d(
            lambda t: math.exp(-math.cosh(t)) * math.cosh(t) if t < 700 else 0.0,
            0.0, math.inf, TIGHT)
        assert abs(bessel_k(1, 1.0) - ref) / ref < 1e-12
        assert abs(bessel_k(1, 1.0) - 0.6019072301972346) < 1e-12

    def test_large_argument_asymptotics(self):
        beta = 30.0
        leading = math.sqrt(math.pi / (2.0 * beta)) * math.exp(-beta)
        ratio = bessel_k(0, beta) / leading
        assert abs(ratio - 1.0) < 1.0 / (8.0 * beta) * 1.2

    def test_branch_crossover_is_seamless(self):
        # Temme's series and Steed's continued fraction meet at x = 2
        for arg in (1.99, 2.0, 2.01):
            for order in (0, 1):
                ref = bessel_k_quadrature(order, arg)
                assert abs(bessel_k(order, arg) - ref) / ref < 1e-13

    def test_matches_quadrature_oracle(self):
        for arg in np.geomspace(1e-4, 60.0, 41):
            for order in (0, 1):
                ref = bessel_k_quadrature(order, float(arg))
                assert abs(bessel_k(order, float(arg)) - ref) / ref < 1e-13, arg

    def test_derivative_identity(self):
        # K1 = -dK0/dbeta, central differences
        h = 1e-5
        for beta in np.linspace(0.5, 4.0, 8):
            deriv = (bessel_k(0, beta + h) - bessel_k(0, beta - h)) / (2 * h)
            assert abs(-deriv - bessel_k(1, beta)) / bessel_k(1, beta) < 1e-6

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_k(0, 0.0)
        with pytest.raises(DomainError):
            bessel_k(1, -2.0)
        with pytest.raises(UsageError):
            bessel_k(2, 1.0)

    def test_overflow_is_domain_error(self):
        # K1(x) ~ 1/x leaves the float range below x ~ 5.6e-309; K0 ~ -ln x
        # stays finite down to the smallest subnormal
        with pytest.raises(DomainError):
            bessel_k(1, 1e-320)
        assert 744.0 < bessel_k(0, 5e-324) < 745.0
        assert bessel_k(0, 1e3) == 0.0 and bessel_k(1, 1e300) == 0.0

    @pytest.mark.parametrize("arg", [746.0, 8e307, 9e307, 1.7976931348623157e308])
    def test_underflow_to_zero_up_to_the_largest_float(self, arg):
        # the continued fraction's 2 (1 + x) overflows past 9e307
        assert bessel_k(0, arg) == 0.0 and bessel_k(1, arg) == 0.0


def _sn(u, m):
    return jacobi_sn_cn(u, kc=math.sqrt(1.0 - m))[0]


class TestEllipticK:
    def test_zero_parameter(self):
        assert abs(elliptic_k_complete(kc=1.0) - math.pi / 2.0) < 1e-15

    def test_half_parameter_vs_quadrature(self):
        ref = integrate_1d(
            lambda t: 1.0 / math.sqrt(1.0 - 0.5 * math.sin(t) ** 2),
            0.0, math.pi / 2.0, TIGHT)
        assert abs(elliptic_k_complete(kc=math.sqrt(0.5)) - ref) < 1e-12

    def test_monotone_in_parameter(self):
        assert elliptic_k_complete(kc=0.1) > elliptic_k_complete(kc=0.7)
        assert math.isfinite(elliptic_k_complete(kc=0.1))

    def test_domain(self):
        for kc in (0.0, -0.1, 1.1, math.nan):
            with pytest.raises(DomainError):
                elliptic_k_complete(kc=kc)

    def test_complementary_modulus_is_keyword_only(self):
        with pytest.raises(TypeError):
            elliptic_k_complete(0.5)


class TestLinearSineIntegral:
    def test_zero_kappa(self):
        assert abs(elliptic_k_linear_sin(kc=1.0) - 2.0 * math.pi) < 1e-15

    def test_half_kappa_vs_fixed_rule(self):
        # independent oracle: fixed high-order Gauss-Legendre on [0, pi/2]
        u, w = np.polynomial.legendre.leggauss(200)
        theta = 0.25 * math.pi * (u + 1.0)
        ref = 4.0 * 0.25 * math.pi * float(
            np.sum(w / np.sqrt(1.0 - 0.5 * np.sin(theta))))
        assert abs(elliptic_k_linear_sin(kc=math.sqrt(0.5)) - ref) < 1e-13

    def test_near_singular_kappa_finite(self):
        v = elliptic_k_linear_sin(kc=0.25)  # kappa = 0.9375
        assert math.isfinite(v) and v > 0.0

    @pytest.mark.parametrize("one_minus_kappa", [
        1.0, 0.75, 0.5, 0.0625, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
    def test_against_mpmath_quadrature(self, one_minus_kappa):
        # measured within 2.1e-16 relative; the integrand's peak near
        # pi/2 narrows to a width of sqrt(1 - kappa), so the 40-digit
        # reference splits the range at pi/2 - 10^-j
        mpmath = pytest.importorskip("mpmath")
        kc = math.sqrt(one_minus_kappa)
        with mpmath.workdps(40):
            kappa = 1 - mpmath.mpf(kc) ** 2
            ref = 4 * mpmath.quad(
                lambda t: 1 / mpmath.sqrt(1 - kappa * mpmath.sin(t)),
                [0] + [mpmath.pi / 2 - mpmath.mpf(10) ** -j
                       for j in range(1, 10)] + [mpmath.pi / 2])
        value = elliptic_k_linear_sin(kc=kc)
        assert abs(value - float(ref)) <= 1e-12 * float(ref)

    def test_domain(self):
        for kc in (0.0, 1.5, 2.0, math.nan):
            with pytest.raises(DomainError):
                elliptic_k_linear_sin(kc=kc)


class TestJacobiSn:
    def test_odd_at_zero(self):
        sn, cn = jacobi_sn_cn(0.0, kc=math.sqrt(0.3))
        assert sn == 0.0 and cn == 1.0

    def test_degenerate_parameter_is_sine(self):
        sn, cn = jacobi_sn_cn(0.7, kc=1.0)
        assert abs(sn - math.sin(0.7)) < 1e-15
        assert abs(cn - math.cos(0.7)) < 1e-15

    def test_quarter_period_identity(self):
        quarter = elliptic_k_complete(kc=math.sqrt(0.7))
        assert abs(_sn(quarter, 0.3) - 1.0) < 1e-12

    def test_bounded_and_periodic(self):
        m = 0.9375
        period = 4.0 * elliptic_k_complete(kc=0.25)
        u = np.linspace(-8.0, 8.0, 47)
        sn, cn = jacobi_sn_cn(u, kc=0.25)
        assert np.all(np.abs(sn) <= 1.0 + 1e-15)
        assert np.max(np.abs(sn * sn + cn * cn - 1.0)) < 1e-15
        assert np.max(np.abs(_sn(u + period, m) - sn)) < 1e-10

    @pytest.mark.parametrize("kc", [0.9, 0.25, 1e-3, 1e-6])
    def test_against_mpmath(self, kc):
        mpmath = pytest.importorskip("mpmath")
        quarter = elliptic_k_complete(kc=kc)
        u = np.linspace(-2.5 * quarter, 2.5 * quarter, 41)
        sn, cn = jacobi_sn_cn(u, kc=kc)
        with mpmath.workdps(30):
            m = 1 - mpmath.mpf(kc) ** 2
            for ui, s, c in zip(u, sn, cn):
                assert abs(s - float(mpmath.ellipfun("sn", ui, m=m))) < 1e-13
                assert abs(c - float(mpmath.ellipfun("cn", ui, m=m))) < 1e-13

    def test_array_matches_floats(self):
        u = np.linspace(-3.0, 3.0, 13)
        sn, cn = jacobi_sn_cn(u, kc=0.4)
        for ui, s, c in zip(u, sn, cn):
            assert jacobi_sn_cn(float(ui), kc=0.4) == (s, c)

    def test_domain(self):
        with pytest.raises(DomainError):
            jacobi_sn_cn(0.3, kc=0.0)
        with pytest.raises(TypeError):
            jacobi_sn_cn(0.3, 0.5)


class TestHermiteOdd:
    def test_first_order(self):
        assert hermite_odd(1, 0.3) == 0.6

    def test_third_order(self):
        # H3 = 8 x^3 - 12 x
        assert hermite_odd(3, 1.0) == -4.0

    def test_generating_identity(self):
        s, x = 0.3, 0.7
        total = 0.0
        for eta in range(21):
            n = 2 * eta + 1
            total += hermite_odd(n, x) * s ** n / math.factorial(n)
        ref = math.exp(-s * s) * math.sinh(2.0 * s * x)
        assert abs(total - ref) < 1e-12

    def test_usage(self):
        with pytest.raises(UsageError):
            hermite_odd(2, 0.5)
        with pytest.raises(UsageError):
            hermite_odd(-1, 0.5)


class TestImErfOffset:
    def test_value_at_origin_is_erfi_half(self):
        ref = erfi_maclaurin(0.5)
        assert abs(im_erf_offset(1.0, 0.0) - ref) < 1e-12
        assert abs(ref - 0.614952094696511) < 1e-12

    def test_even_in_chi(self):
        assert im_erf_offset(1.0, -0.8) == im_erf_offset(1.0, 0.8)

    @pytest.mark.parametrize("alpha", [0.4, 1.0, 2.0 ** 0.5, 2.7])
    def test_against_contour_quadrature(self, alpha):
        for chi in np.linspace(0.0, 6.0 / alpha, 13):
            ref = im_erf_contour(alpha, float(chi))
            assert abs(im_erf_offset(alpha, float(chi)) - ref) < 1e-10

    def test_spot_value(self):
        assert abs(im_erf_offset(1.0, 2.0) - im_erf_contour(1.0, 2.0)) < 1e-10

    def test_scaled_form_consistent(self):
        for chi in (0.0, 0.5, 1.5, 3.0):
            plain = im_erf_offset(1.3, chi)
            scaled = im_erf_offset_scaled(1.3, chi)
            assert abs(scaled * math.exp(-(1.3 * chi) ** 2) - plain) < 1e-14

    def test_zero_set_is_discrete(self):
        # finitely many sign changes on a bounded interval, separated gaps
        alpha = 2.0 ** 0.5
        grid = np.linspace(0.0, 8.0, 4001)
        vals = im_erf_offset_scaled(alpha, grid)
        flips = np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]
        assert 2 <= len(flips) <= 12
        assert np.all(np.diff(grid[flips]) > 0.5)

    @pytest.mark.parametrize("alpha", [1.0, 10.0, 15.0])
    def test_scaled_form_against_mpmath(self, alpha):
        # within 8 eps max|S| (1 + alpha^2 |chi|) on the trust interval:
        # the error grows with alpha^2 |chi| (on these points at most 3.3,
        # 27 and 44 eps max|S|, 2.3 times eps max|S| (1 + alpha^2 |chi|))
        mpmath = pytest.importorskip("mpmath")
        lim = 6.0 / alpha
        rng = np.random.default_rng(int(alpha))
        chi = np.concatenate([np.linspace(-lim, lim, 121),
                              rng.uniform(-lim, lim, 120)])
        with mpmath.workdps(40):
            a = mpmath.mpf(alpha)
            ref = np.array([float(mpmath.exp((a * c) ** 2)
                                  * mpmath.im(mpmath.erf(a * (c + 0.5j))))
                            for c in map(mpmath.mpf, chi.tolist())])
        bound = (8.0 * np.finfo(float).eps * np.max(np.abs(ref))
                 * (1.0 + alpha * alpha * np.abs(chi)))
        assert np.all(np.abs(im_erf_offset_scaled(alpha, chi) - ref) <= bound)

    @pytest.mark.parametrize("alpha, times", [
        (1.0, 4.0), (10.0, 4.0), (15.0, 4.0),
        (0.65, 8.0), (0.95, 8.0), (30.3, 8.0), (53.15, 8.0)])
    def test_scaled_form_as_accurate_as_chi(self, alpha, times):
        # within 4 eps (|chi S'| + |S|), the error that rounding chi alone
        # causes, at alpha 1, 10 and 15 (at most 3.16, 2.07 and 0.91 times
        # the scale), and within 8 eps for the alphas whose kernel has
        # zeros, 0.52 to 53.28 (at most 6.6, at 0.65, on 68 alphas there;
        # 1.13 and 0.97 here at 30.3 and 53.15): the growth with
        # alpha^2 |chi| is S's own sensitivity to chi.  S is taken at the
        # alpha whose square is the double alpha^2 that the kernel reads:
        # rounding alpha^2 shifts S as a whole (14 and 199 times the scale
        # at 30.3 and 53.15 against S at alpha), which moves its zeros but
        # flips no sign next to them.  |chi S'| is formed as |chi D|
        # (2 alpha/sqrt(pi)) e^{alpha^2/4}: at 53.15, S' itself is no float
        mpmath = pytest.importorskip("mpmath")
        chi, ref, slope = mpmath_kernel(mpmath, alpha)
        grad = (np.abs(chi * slope) * (2.0 * alpha / math.sqrt(math.pi))
                * math.exp(0.25 * alpha * alpha))
        bound = times * np.finfo(float).eps * (grad + np.abs(ref))
        assert np.all(np.isfinite(bound))
        assert np.all(np.abs(im_erf_offset_scaled(alpha, chi) - ref) <= bound)

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.7, 10.0, 15.0, 30.3, 53.15])
    def test_slope_against_mpmath(self, alpha):
        # the scaled slope D = sqrt(pi) alpha chi S/e^{alpha^2/4}
        # - sin(alpha^2 chi), from the computed S, within 4 eps (1 + alpha^2
        # (|chi| + 1/4)) times the magnitudes of its two terms, whose
        # arguments alpha^2 chi and alpha^2/4 are rounded (on these points
        # at most 2.49 eps (1 + alpha^2 (|chi| + 1/4)) times them, at 0.3;
        # 0.45 at 53.15).  The form is no guarantee where (alpha chi)^2 is
        # large, as S's own error grows with it: 11.0 and 7.4 times that
        # scale on the same kind of points at alpha 0.52 and 0.65, whose
        # |chi| reaches 11.5 and 9.2.  D only steers the Newton steps and
        # carries div w; at 53.15, S' = (2 alpha/sqrt(pi)) e^{alpha^2/4} D
        # is not a float
        mpmath = pytest.importorskip("mpmath")
        chi, ref, slope = mpmath_kernel(mpmath, alpha)
        al2 = alpha * alpha
        terms = (math.sqrt(math.pi) * alpha * np.abs(chi * ref)
                 / math.exp(0.25 * al2) + np.abs(np.sin(al2 * chi)))
        bound = (4.0 * np.finfo(float).eps * (1.0 + al2 * (np.abs(chi) + 0.25))
                 * terms)
        for c, b, d in zip(chi.tolist(), bound, slope):
            s = im_erf_offset_scaled(alpha, c)
            assert abs(_kernel_slope(alpha, c, s) - d) <= b
        # and the array call, on the array kernel's S
        arr = _kernel_slope(alpha, chi, im_erf_offset_scaled(alpha, chi))
        assert np.all(np.abs(arr - slope) <= bound)

    def test_domain(self):
        with pytest.raises(DomainError):
            im_erf_offset(0.0, 1.0)
        with pytest.raises(DomainError):
            im_erf_offset(1.0, math.nan)


def mpmath_kernel(mpmath, alpha):
    """(chi, S, D) on 241 points of the trust interval, S and its scaled
    derivative D = (sqrt(pi)/(2 alpha)) e^{-alpha^2/4} S' in 40-digit
    mpmath, S' by numerical differentiation, at the alpha whose square is
    the double alpha^2."""
    lim = 6.0 / alpha
    rng = np.random.default_rng(int(alpha))
    chi = np.concatenate([np.linspace(-lim, lim, 121),
                          rng.uniform(-lim, lim, 120)])
    with mpmath.workdps(40):
        a = mpmath.sqrt(mpmath.mpf(alpha * alpha))

        def scaled(c):
            return (mpmath.exp((a * c) ** 2)
                    * mpmath.im(mpmath.erf(a * (c + 0.5j))))

        points = list(map(mpmath.mpf, chi.tolist()))
        ref = np.array([float(scaled(c)) for c in points])
        unit = mpmath.sqrt(mpmath.pi) / (2 * a) * mpmath.exp(-a * a / 4)
        slope = np.array([float(unit * mpmath.diff(scaled, c))
                          for c in points])
    return chi, ref, slope


class TestFaddeeva:
    def test_weideman_constants_are_the_fft(self):
        # the constants are the doubles that the construction's FFT gives
        # with the installed numpy, bit for bit
        ell, coef = weideman_coefficients_fft()
        assert specfun._WEIDEMAN_ELL.hex() == ell.hex()
        assert [c.hex() for c in specfun._WEIDEMAN_COEF] == \
               [c.hex() for c in coef]

    def test_real_axis_matches_erfcx_series(self):
        # w(t) on the real axis has real part e^{-t^2}
        for t in (0.0, 0.5, 2.0, 6.0):
            assert abs(faddeeva_w(t).real - math.exp(-t * t)) < 1e-13

    def test_lower_half_plane_rejected(self):
        with pytest.raises(DomainError):
            faddeeva_w(1.0 - 1.0j)

    def test_pure_function(self):
        z = 0.3 + 1.7j
        assert faddeeva_w(z) == faddeeva_w(z)

    def test_array_shape_preserved(self):
        z = np.array([[0.5 + 0.5j, 1.0 + 1.0j], [2.0j, 0.1 + 0.0j]])
        assert faddeeva_w(z).shape == (2, 2)


class TestScaledKernelTable:
    """The table through its one evaluator, the quantum RK4's right-hand
    side ``gaussian._velocity_rhs``: w_x(chi, m) = c S(chi) sinh m and
    w_k(m, chi) = -a c S(chi) sinh m read S on the table at chi."""

    @pytest.mark.parametrize("alpha", [1e-3, 0.2, 1.0, 2.7, 5.0, 10.0, 15.0])
    def test_matches_array_kernel(self, alpha):
        params = GaussianEnsembleParams(alpha, 3.0)
        # sinh leaves the float range past 710, so no RK4 stage reads the
        # table beyond it
        m = min(params.trust_limit(), 700.0)
        chi = np.linspace(-m, m, 2001)
        rhs = gaussian._velocity_rhs(params)
        got = np.array([(rhs(c, m)[0], rhs(m, c)[1]) for c in chi.tolist()])
        ref = np.array([velocity_w(params, chi, m)[0],
                        velocity_w(params, m, chi)[1]]).T
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_even_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for alpha in (1e-3, 0.7, 1.0, 2.7, 10.0):
            params = GaussianEnsembleParams(alpha, 3.0)
            lim = min(params.trust_limit(), 700.0)
            rhs = gaussian._velocity_rhs(params)
            for x, k in rng.uniform(-lim, lim, (200, 2)).tolist():
                assert rhs(-x, k)[0] == rhs(x, k)[0]
                assert rhs(x, -k)[1] == rhs(x, k)[1]

    def test_built_once_per_alpha(self):
        table = gaussian._kernel_table
        assert table(1.0) is table(1.0)
        hits = table.cache_info().hits
        gaussian._velocity_rhs(GaussianEnsembleParams(1.0, 2.0))
        assert table.cache_info().hits == hits + 1

    def test_beyond_the_limit_takes_the_last_piece(self):
        # RK4 stages may overshoot the trust limit before the run stops
        params = GaussianEnsembleParams(1.0)
        rhs = gaussian._velocity_rhs(params)
        c = math.sqrt(math.pi) * math.sinh(0.3)
        edge = rhs(6.0, 0.3)[0]
        assert abs(edge - velocity_w(params, 6.0, 0.3)[0]) <= 1e-14 * c
        for chi in (6.0 + 1e-9, 6.5, 60.0):
            for value in (rhs(chi, 0.3)[0], rhs(0.3, chi)[1]):
                assert isinstance(value, float) and math.isfinite(value)
        assert rhs(6.0 + 1e-9, 0.3)[0] == pytest.approx(edge, abs=1e-8 * c)


class TestScaledKernelTableNonConvergence:
    @pytest.fixture(autouse=True)
    def fresh_tables(self):
        gaussian._kernel_table.cache_clear()
        yield
        gaussian._kernel_table.cache_clear()

    @pytest.mark.parametrize("name, value", [("_TABLE_MAX_POINTS", 9),
                                             ("_TABLE_TOL", 0.0)])
    def test_raises_naming_alpha(self, monkeypatch, name, value):
        monkeypatch.setattr(gaussian, name, value)
        with pytest.raises(NumericalError, match="alpha = 1.0 "):
            gaussian._kernel_table(1.0)


class TestLinspace:
    """thermo.linspace is numpy.linspace of two floats, bit for bit."""

    @staticmethod
    def same(start, stop, num):
        with np.errstate(all="ignore"):
            expected = np.linspace(start, stop, num)
        return (np.array(linspace(start, stop, num), dtype=float).tobytes()
                == expected.tobytes())

    @settings(max_examples=500, deadline=None)
    @given(st.floats(allow_nan=False, allow_subnormal=True),
           st.floats(allow_nan=False, allow_subnormal=True),
           st.integers(0, 100))
    def test_hypothesis(self, start, stop, num):
        assert self.same(start, stop, num)

    @pytest.mark.parametrize("start, stop, num", [
        (0.0, 5e-324, 10),  # the step underflows to 0
        (1.0, 1.0, 5),      # so does a zero span's
        (-0.0, -0.0, 3),
        (2.5, 7.0, 1),      # one point: start alone
        (3.0, -4.0, 0),
        (0.05, 4.5, 90),    # the README sweep
        (-1e308, 1e308, 7),  # the span overflows
    ])
    def test_branches(self, start, stop, num):
        assert self.same(start, stop, num)

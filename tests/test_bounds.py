"""Closed-form bounds: punctured-disk metric objects, Schottky bounds,
the elliptic-integral bound, quasiconformal Schwarz bounds, and the
Mori-type Holder quantities.
"""
import cmath
import math
import re

import numpy as np
import pytest

import landen_oracle
from gft import (
    BLOCH_B1,
    LANDAU_C,
    LATTICE_GAP_D,
    DomainError,
    eta_k,
    f_growth_bound,
    grotzsch_u,
    mori_holder_bound,
    mori_sin_bound,
    phi_k,
    product_P,
    qc_schwarz_bounds,
    rho_lower,
    schottky_F,
    schottky_classical,
    schottky_f0_window,
    schottky_sf,
    sigma_metric,
    theorem3_sfk,
    triple_angle,
    zeta_map,
)

M = 1.7976931348623157e308   # the largest double


class TestMetricObjects:
    def test_rho_lower_formula(self):
        z = 0.5
        assert rho_lower(z) == pytest.approx(
            1.0 / (z * (LANDAU_C - math.log(z))), rel=1e-15)

    def test_rho_lower_domain(self):
        for bad in (0.0, 1.0, 2.0):
            with pytest.raises(DomainError):
                rho_lower(bad)

    def test_rho_lower_overflow_raises(self):
        # 1/(5e-324 (C + 744.4)) = 2.7e320 is beyond the doubles
        with pytest.raises(DomainError, match="overflows a double"):
            rho_lower(5e-324)

    def test_rho_lower_subnormal_band_mpmath(self):
        # where |z| (C - ln|z|) is subnormal, 1/(C - ln|z|)/|z| keeps the bits
        # the product would lose: 2,000 seeded |z| log-uniform on
        # [7.8e-312, 3e-311], against 40-digit mpmath (4.8 ulps with the product)
        import mpmath
        rng = np.random.default_rng(20261025)
        with mpmath.workdps(40):
            for z in np.exp(rng.uniform(math.log(7.8e-312), math.log(3e-311), 2000)):
                z = float(z)
                expected = 1 / (mpmath.mpf(z) * (mpmath.mpf(LANDAU_C) - mpmath.log(z)))
                assert abs(rho_lower(z) - expected) <= 2.5 * math.ulp(float(expected)), z

    def test_rho_lower_keeps_its_bits_off_the_band(self):
        # elsewhere the one product and one division stay, bit for bit
        for z in (7.2e-309, 2.3e-308, 1e-300, 1e-20, 0.5, 0.999):
            assert rho_lower(z) == 1.0 / (z * (LANDAU_C - math.log(z)))

    @pytest.mark.parametrize("lo, hi", [(7.8e-312, 3e-311), (3e-311, 1e-307)])
    def test_sigma_metric_subnormal_band_mpmath(self, lo, hi):
        # below |z| ~ 8.9e-308 |zeta| ~ |z|/4 is subnormal, and below about
        # 3e-311 so is |z| |w| (4 - ln|zeta|): there sigma takes ln|z| -
        # ln|2(1 + w) - z| and divides twice.  2,000 seeded real |z| per band
        # against 40-digit mpmath (1.6 ulps on each; 18.2 and 4.5 through the
        # subnormals)
        import mpmath
        rng = np.random.default_rng(20261019)
        with mpmath.workdps(40):
            for z in np.exp(rng.uniform(math.log(lo), math.log(hi), 2000)):
                z = float(z)
                zm = mpmath.mpf(z)
                w = mpmath.sqrt(1 - zm)
                expected = 1 / (zm * w * (4 - mpmath.log(zm / (2 * (1 + w) - zm))))
                assert abs(sigma_metric(z) - expected) <= 2.5 * math.ulp(float(expected)), z

    @pytest.mark.parametrize("z", [9e-308, 1e-307, 1e-300, 1e-20, 0.01, -0.5, 0.3 + 0.2j,
                                   -3.0, 1e-200 - 1e-200j, 1e200 + 1j])
    def test_sigma_metric_keeps_its_bits_off_the_band(self, z):
        # elsewhere one quotient, one log, one product and one division
        # stay, bit for bit, so eq5_chain's margins do not move
        w = cmath.sqrt(1.0 - z)
        a = abs(z)
        assert sigma_metric(z) == 1.0 / (a * abs(w) * (4.0 - math.log(a / abs(2.0 * (1.0 + w) - z))))

    def test_zeta_map_values(self):
        # z = -3: w = 2, zeta = 1/3
        assert zeta_map(-3.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert zeta_map(0.0) == 0.0
        # a real z < 1 maps to a real zeta with a +0.0 imaginary part
        for z in (-3.0, 0.0, 0.5, -1e-6):
            assert math.copysign(1.0, zeta_map(z).imag) == 1.0

    @pytest.mark.parametrize("z", [1e-8, -1e-6, 1e-12j, 1e-4 + 1e-4j, 0.3 + 0.2j, -3.0,
                                   0.5 - 0.9j])
    def test_zeta_and_sigma_against_mpmath(self, z):
        # zeta = -z/(2(1 + w) - z) with w = sqrt(1-z) does not cancel near 0,
        # and sigma = 1/(|z| |w| (4 - ln|zeta|)) reads no zeta'
        import mpmath
        with mpmath.workdps(40):
            zm = mpmath.mpc(z)
            w = mpmath.sqrt(1 - zm)
            zeta = (w - 1) / (w + 1)
            sigma = abs(-1 / (w * (w + 1) ** 2) / zeta) / (4 - mpmath.log(abs(zeta)))
        assert abs(zeta_map(z) - complex(zeta)) <= 1e-15 * float(abs(zeta))
        assert sigma_metric(z) == pytest.approx(float(sigma), rel=1e-15, abs=0.0)

    def test_zeta_map_into_disk(self):
        for z in (-5.0, 0.5, 0.5 + 2.0j, -1.0 - 1.0j):
            assert abs(zeta_map(z)) < 1.0

    def test_zeta_map_rounding_stays_in_closed_disk(self):
        # -z/(2(1 + w) - z) itself rounds to |zeta| = 1 + 2^-52 here
        assert abs(zeta_map(1.0502746706616732e32 + 5.286571965404616e32j)) <= 1.0

    @pytest.mark.parametrize("lo, hi", [(0.0, 300.0), (30.0, 36.0)])
    def test_zeta_map_seeded_scan_stays_in_closed_disk(self, lo, hi):
        # |z| = 10^U(lo, hi).  The quotient -z/(2(1 + w) - z) rounds above 1
        # only near |z| ~ 1e33: for 30 of the narrow band's 20,000 points,
        # and about 1 in 36,000 over the wide band, which checks every
        # scale.  For |z| > 1 zeta_map takes 1/(1 - 2(1 + w)/z) instead
        rng = np.random.default_rng(20261019)
        n = 20_000
        mags = 10.0 ** rng.uniform(lo, hi, n)
        args = rng.uniform(-math.pi, math.pi, n)
        worst = max(abs(zeta_map(cmath.rect(m, t))) for m, t in zip(mags, args))
        assert worst <= 1.0

    @pytest.mark.parametrize("theta", [0.01, math.pi / 4, math.pi / 2, 3 * math.pi / 4, 3.1])
    def test_zeta_map_large_z_keeps_its_imaginary_digits(self, theta):
        # Im zeta ~ -Im(2/sqrt(-z)) shrinks like |z|^-1/2 while Re zeta -> 1:
        # the quotient -z/(2(1 + w) - z) lost it (7e-9 relative at |z| = 1e16,
        # exactly 0 from about 1e34), 1/(1 - 2(1 + w)/z) keeps it
        import mpmath
        rng = np.random.default_rng(20261019)
        mags = [10.0, 1.7e308, *10.0 ** rng.uniform(1.0, math.log10(1.7e308), 200)]
        with mpmath.workdps(70):
            for m in mags:
                z = cmath.rect(m, theta)
                expected = 1 - 2 / (1 + mpmath.sqrt(1 - mpmath.mpc(z)))
                zeta = zeta_map(z)
                assert abs(zeta.imag - float(expected.imag)) <= 1e-15 * abs(float(expected.imag)), z
                assert abs(zeta - complex(expected)) <= 1e-15 * float(abs(expected)), z

    def test_zeta_map_real_symmetry(self):
        z = 0.3 + 0.7j
        assert zeta_map(z.conjugate()) == pytest.approx(
            zeta_map(z).conjugate(), rel=1e-14)

    def test_zeta_map_cut(self):
        with pytest.raises(DomainError):
            zeta_map(2.0)

    def test_non_finite_z(self):
        for bad in (math.nan, complex(0.0, math.inf), complex(-math.inf, 1.0)):
            with pytest.raises(DomainError):
                zeta_map(bad)
            with pytest.raises(DomainError):
                sigma_metric(bad)

    def test_sigma_metric_value(self):
        assert sigma_metric(-3.0) == pytest.approx(0.03268863314770779, rel=1e-12)

    def test_sigma_metric_positive(self):
        for z in (-0.5, 0.2 + 0.4j, -2.0 + 1.0j):
            assert sigma_metric(z) > 0.0

    def test_sigma_metric_domain(self):
        with pytest.raises(DomainError):
            sigma_metric(0.0)
        with pytest.raises(DomainError):
            sigma_metric(1.5)

    @pytest.mark.parametrize("z", [1e300 + 0.4j, 0.3 + 1e300j])
    def test_sigma_metric_underflow_raises(self, z):
        # the density is about 1/(4 |z|^{3/2}) = 2.5e-451, not 0.0
        with pytest.raises(DomainError, match="underflows below the smallest normal double"):
            sigma_metric(z)

    @pytest.mark.parametrize("z", [complex(-M, -M), complex(M, M), complex(-M, M),
                                   complex(0.0, -M), complex(-M, 0.0)])
    def test_largest_doubles(self, z):
        # near the largest doubles |z| overflows in sigma, and the quotient's
        # own scaling overflows to NaN in zeta: sigma ~ |z|^-1.5 raises its
        # underflow, and zeta ~ 1 + 2(1 + w)/z keeps its tiny imaginary part
        import mpmath
        with pytest.raises(DomainError, match="underflows below the smallest normal double"):
            sigma_metric(z)
        with mpmath.workdps(40):
            # (w - 1)/(w + 1) = 1 - 2/(w + 1): its imaginary part is that of
            # 2/(w + 1) alone, with no cancellation at any precision
            expected = complex(1 - 2 / (1 + mpmath.sqrt(1 - mpmath.mpc(z))))
        zeta = zeta_map(z)
        assert abs(zeta) <= 1.0 and abs(zeta - expected) <= 1e-15
        assert zeta.imag == pytest.approx(expected.imag, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("z", [5e-324 + 5e-324j, 1e-320, 1e-315j])
    def test_sigma_metric_overflow_raises(self, z):
        # sigma ~ 1/(|z| (4 + ln(4/|z|))) lies beyond the largest double
        with pytest.raises(DomainError, match="density overflows a double"):
            sigma_metric(z)


class TestSchottky:
    def test_classical_at_origin(self):
        assert schottky_classical(0.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_classical_negative_ln_f0_clamped(self):
        # ln|f(0)| < 0 contributes only through max(.., 0)
        assert schottky_classical(-5.0, 0.5) == schottky_classical(0.0, 0.5)

    def test_classical_increasing_in_z(self):
        vals = [schottky_classical(1.0, z) for z in (0.0, 0.3, 0.6, 0.9)]
        assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_classical_domain(self):
        with pytest.raises(DomainError):
            schottky_classical(0.0, 1.0)

    @pytest.mark.parametrize("ln_f0", [math.nan, math.inf, -math.inf])
    def test_classical_non_finite_ln_f0(self, ln_f0):
        # a non-finite ln|f(0)| gives no bound (NaN would pass through max)
        with pytest.raises(DomainError, match="ln\\|f\\(0\\)\\| must be finite"):
            schottky_classical(ln_f0, 0.5)

    def test_classical_overflow_raises(self):
        with pytest.raises(DomainError, match="overflows a double"):
            schottky_classical(1.7976931348623157e308, 0.5)

    def test_classical_within_4_ulps_of_mpmath(self):
        # the literal (C + m)(1+|z|)/(1-|z|) - C cancels near |z| = 0, where
        # it gives 0 at |z| = 1e-300 and misses about half of these points by
        # more than 4 ulps.  4,000 seeded (ln|f(0)|, |z|), each drawn from a
        # mix of log-uniform and uniform ranges, against 60-digit mpmath
        import mpmath
        rng = np.random.default_rng(20261019)
        c = mpmath.mpf(LANDAU_C)
        with mpmath.workdps(60):
            for i in range(4000):
                ln_f0 = (0.0, -rng.uniform(0.0, 10.0), 10.0 ** rng.uniform(-300.0, 3.0))[i % 3]
                z = float(10.0 ** rng.uniform(-300.0, 0.0) if i % 2 else rng.uniform(1e-300, 1.0))
                ln_f0, zm = float(ln_f0), mpmath.mpf(z)
                expected = (max(ln_f0, 0.0) * (1 + zm) + 2 * c * zm) / (1 - zm)
                tol = 4.0 * math.ulp(float(expected))
                assert abs(schottky_classical(ln_f0, z) - expected) <= tol, (ln_f0, z)
        assert schottky_classical(0.0, 1e-300) == pytest.approx(2.0 * LANDAU_C * 1e-300,
                                                                rel=1e-15)

    def test_F_at_minus_one(self):
        # w = -1: q = 1/2, F = (1/2) ln 2
        v = schottky_F(-1.0)
        assert v.real == pytest.approx(0.5 * math.log(2.0), rel=1e-14)
        assert v.imag == pytest.approx(0.0, abs=1e-14)

    def test_F_omitted_values(self):
        with pytest.raises(DomainError):
            schottky_F(0.0)
        with pytest.raises(DomainError):
            schottky_F(1.0)

    @pytest.mark.parametrize("w", [complex(math.nan, 0.4), complex(math.inf, 0.4),
                                   complex(-math.inf, 0.4), complex(0.3, math.nan),
                                   complex(0.3, math.inf), complex(0.3, -math.inf)])
    def test_F_non_finite_w(self, w):
        # log and sqrt of a non-finite w give F = nan + nan i
        with pytest.raises(DomainError, match="w must be finite"):
            schottky_F(w)

    def test_sf_values(self):
        assert schottky_sf(0.0) == pytest.approx(math.exp(math.pi), rel=1e-14)
        assert schottky_sf(2.7) < math.inf
        with pytest.raises(DomainError):
            schottky_sf(-1.0)

    @pytest.mark.parametrize("f_abs", [2.72, 500.0, M, math.inf])
    def test_sf_overflow_raises(self, f_abs):
        # S_f = exp(pi e^{2|F|}) leaves the doubles from |F| ~ 2.71: DomainError,
        # not an infinite value
        with pytest.raises(DomainError, match="S_f overflows a double"):
            schottky_sf(f_abs)

    def test_growth_bound_theta_zero(self):
        assert f_growth_bound(2.5) == 2.5

    def test_growth_bound_within_4_ulps_of_mpmath(self):
        # ln(1/(1-theta)) loses its digits at small theta (it is 0 at
        # theta = 1e-20, where the bound is 7.3e-20); -log1p(-theta) keeps
        # them.  4,000 seeded (|F(0)|, theta) against 60-digit mpmath, with
        # the default d and B1
        import mpmath
        rng = np.random.default_rng(20261020)
        with mpmath.workdps(60):
            scale = mpmath.mpf(LATTICE_GAP_D) / mpmath.mpf(BLOCH_B1)
            for i in range(4000):
                f_abs = float((0.0, rng.uniform(0.0, 10.0), 10.0 ** rng.uniform(-300.0, 3.0))[i % 3])
                theta = float(10.0 ** rng.uniform(-300.0, 0.0) if i % 2 else rng.uniform(0.0, 1.0))
                expected = f_abs - scale * mpmath.log1p(-mpmath.mpf(theta))
                tol = 4.0 * math.ulp(float(expected))
                assert abs(f_growth_bound(f_abs, theta) - expected) <= tol, (f_abs, theta)
        assert f_growth_bound(0.0, 1e-20) == pytest.approx(
            LATTICE_GAP_D / BLOCH_B1 * 1e-20, rel=1e-15)

    def test_growth_bound_formula(self):
        expected = 1.0 + LATTICE_GAP_D / BLOCH_B1 * math.log(2.0)
        assert f_growth_bound(1.0, theta=0.5) == pytest.approx(expected, rel=1e-14)

    def test_growth_bound_finite_at_the_largest_inputs(self):
        # (d/B1) ln(1/(1-theta)) is at most 7.33 * 53 ln 2 < 270 at the
        # largest theta below 1, so no finite |F(0)| overflows the bound
        theta = 1.0 - 2.0 ** -53
        assert f_growth_bound(M, theta) == M
        assert f_growth_bound(0.0, theta) == pytest.approx(
            LATTICE_GAP_D / BLOCH_B1 * 53.0 * math.log(2.0), rel=1e-15)

    def test_growth_bound_matches_the_frexp_form(self):
        # the bound was once formed as ldexp(md/mb * ml, ed - eb + el) on the
        # frexp mantissas of d, B1 and the log; at the paper's d and B1 the
        # plain product gives the same bits on 100,000 seeded points
        rng = np.random.default_rng(20261023)
        (md, ed), (mb, eb) = math.frexp(LATTICE_GAP_D), math.frexp(BLOCH_B1)
        f_abs = np.where(rng.random(100_000) < 0.5, rng.uniform(0.0, 10.0, 100_000),
                         10.0 ** rng.uniform(-300.0, 300.0, 100_000))
        theta = np.where(rng.random(100_000) < 0.5, rng.uniform(0.0, 1.0, 100_000),
                         10.0 ** rng.uniform(-300.0, 0.0, 100_000))
        for f, t in zip(f_abs.tolist(), theta.tolist()):
            ml, el = math.frexp(-math.log1p(-t))
            assert f_growth_bound(f, t) == f + math.ldexp(md / mb * ml, ed - eb + el), (f, t)

    @pytest.mark.parametrize("keyword", ["d", "b1"])
    def test_growth_bound_takes_no_d_or_b1(self, keyword):
        # a b1 above Bloch's constant or a d below the lattice gap would no
        # longer give a bound, so neither is a parameter
        with pytest.raises(TypeError, match=keyword):
            f_growth_bound(1.0, 0.5, **{keyword: 1.0})

    def test_growth_bound_domain(self):
        for bad in (math.nan, math.inf, -1.0):
            with pytest.raises(DomainError):
                f_growth_bound(bad)

    def test_growth_bound_config_validation(self):
        with pytest.raises(DomainError, match="theta"):
            f_growth_bound(1.0, theta=1.0)

    def test_f0_window_normalization(self):
        # already normalized: alpha < 1 < beta
        assert schottky_f0_window(0.5, 2.0) == pytest.approx(math.log(4.0), rel=1e-14)
        # alpha >= 1 -> 1/(alpha+1); beta <= 1 -> beta+1
        assert schottky_f0_window(1.0, 2.0) == pytest.approx(math.log(4.0), rel=1e-14)
        assert schottky_f0_window(0.5, 1.0) == pytest.approx(math.log(4.0), rel=1e-14)
        with pytest.raises(DomainError):
            schottky_f0_window(0.0, 2.0)

    @pytest.mark.parametrize("alpha, beta", [(math.inf, 2.0), (0.5, math.inf),
                                             (math.nan, 2.0), (0.5, math.nan)])
    def test_f0_window_non_finite(self, alpha, beta):
        # alpha = inf would reach ln(1/(inf + 1)) = ln 0
        with pytest.raises(DomainError, match="positive and finite"):
            schottky_f0_window(alpha, beta)


def grid_lattice_gap(resolution: float) -> float:
    """Oracle for LATTICE_GAP_D: the largest distance from a grid point of
    [0, ln(sqrt2+1)] x [0, 2pi] to the omitted-value lattice.  A grid misses
    the sup by at most its diagonal, and never exceeds it."""
    width = math.log(math.sqrt(2.0) + 1.0)
    xs = [math.log(math.sqrt(n) + math.sqrt(n - 1)) for n in range(1, 80)]
    pts = [(sx * v, 2.0 * math.pi * m)
           for v in xs for sx in (1.0, -1.0) for m in (-1, 0, 1, 2)]
    lat = np.array([p for p in pts
                    if -6.0 < p[0] < width + 6.0 and -6.0 < p[1] < 2.0 * math.pi + 6.0])
    gx = np.arange(0.0, width + resolution / 2.0, resolution)
    gy = np.arange(0.0, 2.0 * math.pi + resolution / 2.0, resolution)
    best = -1.0
    for x in gx:
        d2 = np.full(gy.shape, np.inf)
        for lx, ly in lat:
            np.minimum(d2, (x - lx) ** 2 + (gy - ly) ** 2, out=d2)
        best = max(best, float(d2.max()))
    return math.sqrt(best)


class TestLatticeGap:
    def test_constant_reproducible_at_coarse_resolution(self):
        assert grid_lattice_gap(0.05) == pytest.approx(LATTICE_GAP_D, abs=0.05)

    @pytest.mark.parametrize("resolution", [0.05, 0.01, 0.003])
    def test_grid_never_exceeds_closed_form(self, resolution):
        assert grid_lattice_gap(resolution) <= LATTICE_GAP_D

    def test_fine_grid_within_resolution(self):
        gap = grid_lattice_gap(1e-3)
        assert LATTICE_GAP_D - 1e-3 <= gap <= LATTICE_GAP_D

    def test_closed_form_mpmath(self):
        import mpmath

        with mpmath.workdps(30):
            d = mpmath.sqrt(mpmath.pi ** 2 + mpmath.log(1 + mpmath.sqrt(2)) ** 2 / 4)
            assert abs(LATTICE_GAP_D - d) <= math.ulp(LATTICE_GAP_D)

    def test_bloch_constant(self):
        assert BLOCH_B1 == pytest.approx(math.sqrt(3.0) / 4.0, rel=1e-15)


class TestEtaAndProductBound:
    def test_symmetric_point_identity_dilatation(self):
        # at r = 1/sqrt2, r' = r, so both forms collapse to 1 at K = 1
        r = 1.0 / math.sqrt(2.0)
        assert eta_k(1.0, r) == pytest.approx(1.0, rel=1e-12)
        assert theorem3_sfk(1.0, r) == pytest.approx(1.0, rel=1e-10)

    def test_forms_agree_at_k1(self):
        # with K = 1 the two forms are the same expression
        for r in (0.2, 0.5, 0.9):
            assert theorem3_sfk(1.0, r) == pytest.approx(eta_k(1.0, r), rel=1e-10)

    def test_eta_frozen_value(self):
        assert eta_k(2.0, 0.5) == pytest.approx(85.57503961682671, rel=1e-10)

    @pytest.mark.parametrize("k, r, expected", [
        (1.0 / 16.0, 1.0 - 1e-6, 8.502263818033033459203930770409780290825e-06),
        (0.1, 0.99999, 1.837597864610471493341428967396049767004e-04),
    ])
    def test_eta_small_k_near_one(self, k, r, expected):
        # s = phi_K(r') is tiny and s' = phi_{1/K}(r) lies within ulps of 1;
        # oracle: 60-digit mpmath (Jacobi nome for phi, the Landen product for P)
        assert eta_k(k, r) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("k", [0.5, 1.5, 2.0, 4.0])
    @pytest.mark.parametrize("r", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_eta_closed_form(self, k, r):
        # eta_K(r) = (phi_{1/K}(r)/phi_K(r'))^2 e^{2(K-1/K)(u(r)+u(r'))}, from
        # P(s) = s' e^{u(s')} (1.6e-15 relative at worst here)
        rc = math.sqrt((1.0 - r) * (1.0 + r))
        expected = ((phi_k(1.0 / k, r).value / phi_k(k, rc).value) ** 2
                    * math.exp(2.0 * (k - 1.0 / k) * (grotzsch_u(r) + grotzsch_u(rc))))
        assert eta_k(k, r) == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_eta_positive_finite(self):
        for k in (1.0, 1.5, 2.0, 4.0):
            for r in (0.1, 0.5, 0.9):
                v = eta_k(k, r)
                assert math.isfinite(v) and v > 0.0

    @pytest.mark.parametrize("k, r, expected", [
        (0.5, 0.3, 0.0005560095347159861448552581150979824833813),
        (0.5, 0.9, 0.1825118082649213024366372413515585404169),
        (2.0, 0.3, 2.44897959183673452556385632504915894447),
        (2.0, 0.9, 360.0000000000001687538997430238513368076),
        (4.0, 0.3, 136.1363981190140312048126730072610686264),
        (4.0, 0.9, 2079360.999999521030002255659938261095042),
    ])
    def test_theorem3_mpmath_oracle(self, k, r, expected):
        # tests/landen_oracle.py at 60 digits: u by the AGM, phi_K and
        # phi_{1/K} by the Jacobi nome, over exact Landen moduli from r and
        # from r', each carrying its complement
        assert theorem3_sfk(k, r) == pytest.approx(expected, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("k, r", landen_oracle.GRID)
    def test_theorem3_exact_landen_oracle(self, k, r):
        assert theorem3_sfk(k, r) == pytest.approx(
            landen_oracle.theorem3_product(k, r), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("k, r", landen_oracle.GRID)
    def test_eta_is_the_swapped_product(self, k, r):
        # Theorem 3's product with K and 1/K swapped inside, the corrected form
        assert eta_k(k, r) == pytest.approx(
            landen_oracle.theorem3_product(k, r, swapped=True), rel=1e-13, abs=0.0)

    def test_theorem3_k2_closed_form(self):
        # at K = 2 the printed form is 4r/(1-r)^2
        for r in np.linspace(0.01, 0.99, 99):
            r = float(r)
            expected = 4.0 * r / (1.0 - r) ** 2
            assert theorem3_sfk(2.0, r) == pytest.approx(expected, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("fn, k", [(eta_k, 1000.0), (theorem3_sfk, 1000.0),
                                       (eta_k, 1e300), (theorem3_sfk, 1e300)])
    def test_overflow_raises(self, fn, k):
        # exp(2K u(r')) exceeds the largest double: DomainError, not OverflowError
        with pytest.raises(DomainError, match="overflows"):
            fn(k, 0.5)

    @pytest.mark.parametrize("fn, k, r", [(eta_k, 1e-300, 0.5), (theorem3_sfk, 1 / 16, 1e-300),
                                          (eta_k, 5e-324, 5e-324), (theorem3_sfk, 5e-324, 5e-324),
                                          (theorem3_sfk, 5e-324, 0.5)])
    def test_underflow_raises(self, fn, k, r):
        # the bound lies below the smallest normal double: DomainError, as
        # phi_k raises, rather than 0.0 or a subnormal
        with pytest.raises(DomainError, match="underflows.*smallest normal double"):
            fn(k, r)

    @pytest.mark.parametrize("fn, least", [(eta_k, 2.2e-212), (theorem3_sfk, 8.6e-211)])
    def test_benchmarked_corner_returns(self, fn, least):
        # K = 1/16, r = 1e-6 gives the smallest values of the kernel
        # benchmark's domain K in [1/16, 16], r in [1e-6, 1 - 1e-6]
        assert least < fn(1 / 16, 1e-6) < 1.01 * least

    def test_theorem3_finite(self):
        for k in (1.5, 2.0, 4.0):
            for r in (0.1, 0.5, 0.9):
                v = theorem3_sfk(k, r)
                assert math.isfinite(v) and v > 0.0


class TestQcSchwarz:
    def test_degenerate_at_k1(self):
        # |z|^1 P^0 is |z| exactly, with no K = 1 case
        for z in (1e-300, 0.01, 0.37, 0.99):
            lo, hi = qc_schwarz_bounds(1.0, z)
            assert lo == z and hi == z

    def test_ordering(self):
        for k in (1.5, 2.0, 4.0):
            for z in (0.1, 0.5, 0.9):
                lo, hi = qc_schwarz_bounds(k, z)
                assert lo < z < hi

    def test_frozen_value(self):
        lo, hi = qc_schwarz_bounds(2.0, 0.5)
        assert lo == pytest.approx(0.0670305658057711, rel=1e-13)
        assert hi == pytest.approx(1.3655844533396466, rel=1e-13)

    def test_formula(self):
        # P is read at |z|' = sqrt(1 - |z|^2), where P(|z|') = |z| e^{u(|z|)}
        k, z = 2.0, 0.5
        p = product_P(math.sqrt(1.0 - z * z))
        assert p == pytest.approx(z * math.exp(grotzsch_u(z)), rel=1e-14)
        lo, hi = qc_schwarz_bounds(k, z)
        assert lo == pytest.approx(z ** k * p ** (1.0 - k), rel=1e-14)
        assert hi == pytest.approx(z ** (1.0 / k) * p ** (1.0 - 1.0 / k), rel=1e-14)

    def test_holds_against_the_extremal(self):
        # the Hersch-Pfluger extremal is a K-qc self-map of the disk fixing 0
        # that takes r to phi_K(r), and its inverse is K-qc too: the upper
        # bound must reach phi_K(|z|) and the lower one stay below
        # phi_{1/K}(|z|).  P read at |z| missed them at 4,862 and 13,459 of
        # these 21,989 points
        upper = lower = 0
        for k in (1.001, 1.01, 1.1, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0):
            for i in range(1, 2000):
                z = i / 2000
                lo, hi = qc_schwarz_bounds(k, z)
                upper += hi < phi_k(k, z).value
                lower += lo > phi_k(1.0 / k, z).value
        assert (upper, lower) == (0, 0)

    def test_domain(self):
        with pytest.raises(DomainError):
            qc_schwarz_bounds(0.5, 0.5)
        with pytest.raises(DomainError):
            qc_schwarz_bounds(2.0, 1.0)
        for bad_k in (math.inf, math.nan):
            # K = inf would give the upper bound P(|z|) > 1
            with pytest.raises(DomainError):
                qc_schwarz_bounds(bad_k, 0.5)

    @pytest.mark.parametrize("k, z", [(1000.0, 0.5), (400.0, 0.5), (2.0, 1e-300),
                                      (1e6, 0.99), (1.0, 5e-324)])
    def test_underflowing_lower_bound_raises(self, k, z):
        # |z|^K P^{1-K} lies below the smallest normal double (at K = 400,
        # |z| = 1/2 it is 3.1e-349), where 0.0 or a subnormal would be
        # returned; eta_k and phi_k_product raise there too
        with pytest.raises(DomainError, match="lower bound underflows.*smallest normal double"):
            qc_schwarz_bounds(k, z)

    def test_lower_bound_just_above_the_smallest_normal_double(self):
        # 2^-353 P(sqrt3/2)^-352 = 3.2e-308, a normal double: returned; at
        # K = 354 the lower bound is 4.3e-309, a subnormal: raised
        p = product_P(math.sqrt(0.75))
        lo, hi = qc_schwarz_bounds(353.0, 0.5)
        assert lo == pytest.approx(0.5 ** 353 * p ** -352, rel=1e-12)
        assert 2.2250738585072014e-308 < lo < 4e-308 and 0.5 < hi < p
        with pytest.raises(DomainError, match="lower bound underflows"):
            qc_schwarz_bounds(354.0, 0.5)


@pytest.mark.parametrize("bad_k", [math.inf, math.nan, 0.5])
@pytest.mark.parametrize("bound, second", [(qc_schwarz_bounds, 0.5), (mori_sin_bound, 0.5),
                                           (mori_holder_bound, 0.0)])
def test_one_k_check(bound, second, bad_k):
    # the bounds stated for K >= 1 share one check and one message; the two
    # Mori bounds took K = inf before (16.0 and 2.0 at these points)
    with pytest.raises(DomainError, match=r"^K must be finite and >= 1, got "):
        bound(bad_k, second)


@pytest.mark.parametrize("bound, args, bad", [
    (schottky_classical, (0.0, 1.0), 1.0), (schottky_sf, (-0.5,), -0.5),
    (f_growth_bound, (1.0, 1.0), 1.0), (f_growth_bound, (-1.0,), -1.0),
    (zeta_map, (2.0,), 2 + 0j), (sigma_metric, (0.0,), 0j),
    (schottky_F, (1.0,), 1 + 0j), (triple_angle, (0.0, 0.0, 1.0, 0.0, 1.0, 1j), (0.0, 0.0, 1.0)),
    (triple_angle, (0.0, 1.0, 1j, 0.0, math.inf, 1j), (0.0, math.inf, 1j)),
])
def test_range_errors_name_the_value(bound, args, bad):
    with pytest.raises(DomainError, match=re.escape(f", got {bad!r}") + "$"):
        bound(*args)


class TestMori:
    def test_triple_angle_right_isoceles(self):
        t = (0.0, 1.0, 1.0j)
        a, b = triple_angle(*t, *t)
        assert a == pytest.approx(math.pi / 4.0, rel=1e-14)
        assert a == b

    def test_triple_angle_collinear_degenerate(self):
        # z1, z2 on opposite sides of z0: ratio = 1, angle = pi/2
        t = (0.0, -1.0, 1.0)
        a, _ = triple_angle(*t, *t)
        assert a == pytest.approx(math.pi / 2.0, rel=1e-14)

    @pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.nan), math.inf, -math.inf])
    def test_triple_points_finite(self, bad):
        # min(1, NaN) is 1, so a NaN point would give an angle of pi/2
        with pytest.raises(DomainError, match="must be finite"):
            triple_angle(0.0, 1.0, 1.0j, 0.0, bad, 1.0j)
        with pytest.raises(DomainError, match="must be finite"):
            triple_angle(bad, 1.0, 1.0j, 0.0, 1.0, 1.0j)

    def test_triple_points_distinct(self):
        # a coincident pair in the source triple, then in the image triple
        for points in ((0.0, 0.0, 1.0, 0.0, 1.0, 1.0j), (0.0, 1.0, 1.0j, 0.0, 1.0j, 1.0j)):
            with pytest.raises(DomainError, match="pairwise distinct"):
                triple_angle(*points)

    def test_sin_bound(self):
        # the raw bound may exceed 1
        assert mori_sin_bound(2.0, math.pi / 2.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert mori_sin_bound(2.0, 0.01) == pytest.approx(
            math.sqrt(2.0 * math.sin(0.01)), rel=1e-14)

    def test_holder_bound_variants(self):
        k, dz = 2.0, 0.1
        assert mori_holder_bound(k, dz) == pytest.approx(
            16.0 ** 0.5 * dz ** 0.5, rel=1e-14)
        assert mori_holder_bound(k, dz, "sixtyfour") == pytest.approx(
            64.0 ** 0.5 * dz ** 0.5, rel=1e-14)
        with pytest.raises(DomainError):
            mori_holder_bound(k, dz, "thirtytwo")

    def test_holder_bound_infinite_distance_raises(self):
        with pytest.raises(DomainError, match="finite and nonnegative"):
            mori_holder_bound(2.0, math.inf)

    def test_holder_bound_k1_is_identity(self):
        assert mori_holder_bound(1.0, 0.3) == pytest.approx(0.3, rel=1e-15)

    def test_domains(self):
        for call in (lambda: mori_sin_bound(2.0, 0.0), lambda: mori_sin_bound(2.0, 1.6),
                     lambda: mori_sin_bound(0.5, 1.0),
                     lambda: mori_holder_bound(2.0, -0.1),
                     lambda: mori_holder_bound(0.5, 0.1)):
            with pytest.raises(DomainError):
                call()

"""Closed-form bounds: punctured-disk metric objects, Schottky bounds,
the elliptic-integral bound, quasiconformal Schwarz bounds, and the
Mori-type Holder quantities.
"""
import cmath
import math

import numpy as np
import pytest

import landen_oracle
from gft import (
    BLOCH_B1,
    LANDAU_C,
    LATTICE_GAP_D,
    BoundConfig,
    DomainError,
    TriplePoints,
    eta_k,
    f_growth_bound,
    mori_h,
    mori_holder_bound,
    mori_sin_bound,
    mori_sin_bound_clamped,
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


class TestMetricObjects:
    def test_rho_lower_formula(self):
        z = 0.5
        assert rho_lower(z) == pytest.approx(
            1.0 / (z * (LANDAU_C - math.log(z))), rel=1e-15)

    def test_rho_lower_domain(self):
        for bad in (0.0, 1.0, 2.0):
            with pytest.raises(DomainError):
                rho_lower(bad)

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

    def test_sf_values(self):
        assert schottky_sf(0.0) == pytest.approx(math.exp(math.pi), rel=1e-14)
        assert schottky_sf(500.0) == math.inf
        with pytest.raises(DomainError):
            schottky_sf(-1.0)

    def test_growth_bound_theta_zero(self):
        assert f_growth_bound(2.5) == 2.5

    def test_growth_bound_formula(self):
        cfg = BoundConfig(theta=0.5)
        expected = 1.0 + LATTICE_GAP_D / BLOCH_B1 * math.log(2.0)
        assert f_growth_bound(1.0, cfg) == pytest.approx(expected, rel=1e-14)

    def test_growth_bound_domain(self):
        for bad in (math.nan, math.inf, -1.0):
            with pytest.raises(DomainError):
                f_growth_bound(bad)

    def test_growth_bound_config_validation(self):
        with pytest.raises(DomainError):
            BoundConfig(theta=1.0)
        with pytest.raises(DomainError):
            BoundConfig(bloch_lower=0.0)

    def test_f0_window_normalization(self):
        # already normalized: alpha < 1 < beta
        assert schottky_f0_window(0.5, 2.0) == pytest.approx(math.log(4.0), rel=1e-14)
        # alpha >= 1 -> 1/(alpha+1); beta <= 1 -> beta+1
        assert schottky_f0_window(1.0, 2.0) == pytest.approx(math.log(4.0), rel=1e-14)
        assert schottky_f0_window(0.5, 1.0) == pytest.approx(math.log(4.0), rel=1e-14)
        with pytest.raises(DomainError):
            schottky_f0_window(0.0, 2.0)


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

    @pytest.mark.parametrize("fn, k, r", [(eta_k, 1e-300, 0.5), (theorem3_sfk, 1 / 16, 1e-300)])
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
        for z in (0.01, 0.37, 0.99):
            lo, hi = qc_schwarz_bounds(1.0, z)
            assert lo == z and hi == z

    def test_ordering(self):
        for k in (1.5, 2.0, 4.0):
            for z in (0.1, 0.5, 0.9):
                lo, hi = qc_schwarz_bounds(k, z)
                assert lo < z < hi

    def test_frozen_value(self):
        lo, hi = qc_schwarz_bounds(2.0, 0.5)
        assert lo == pytest.approx(0.08455557033799073, rel=1e-13)
        assert hi == pytest.approx(1.2158609065929555, rel=1e-13)

    def test_formula(self):
        k, z = 2.0, 0.5
        p = product_P(z)
        lo, hi = qc_schwarz_bounds(k, z)
        assert lo == pytest.approx(z ** k * p ** (1.0 - k), rel=1e-14)
        assert hi == pytest.approx(z ** (1.0 / k) * p ** (1.0 - 1.0 / k), rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            qc_schwarz_bounds(0.5, 0.5)
        with pytest.raises(DomainError):
            qc_schwarz_bounds(2.0, 1.0)
        for bad_k in (math.inf, math.nan):
            # K = inf would give the upper bound P(|z|) > 1
            with pytest.raises(DomainError):
                qc_schwarz_bounds(bad_k, 0.5)


class TestMori:
    def test_triple_angle_right_isoceles(self):
        t = TriplePoints(0.0, 1.0, 1.0j)
        a, b = triple_angle(t, t)
        assert a == pytest.approx(math.pi / 4.0, rel=1e-14)
        assert a == b

    def test_triple_angle_collinear_degenerate(self):
        # z1, z2 on opposite sides of z0: ratio = 1, angle = pi/2
        t = TriplePoints(0.0, -1.0, 1.0)
        a, _ = triple_angle(t, t)
        assert a == pytest.approx(math.pi / 2.0, rel=1e-14)

    def test_triple_points_distinct(self):
        with pytest.raises(DomainError):
            TriplePoints(0.0, 0.0, 1.0)

    def test_mori_h(self):
        assert mori_h(2.0, math.pi / 2.0) == pytest.approx(1.0, rel=1e-15)
        assert mori_h(2.0, math.pi / 6.0) == pytest.approx(
            0.5 ** (-0.5), rel=1e-14)

    def test_sin_bound_and_clamp(self):
        raw = mori_sin_bound(2.0, math.pi / 2.0)
        assert raw == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert mori_sin_bound_clamped(2.0, math.pi / 2.0) == 1.0
        small = mori_sin_bound(2.0, 0.01)
        assert mori_sin_bound_clamped(2.0, 0.01) == small < 1.0

    def test_holder_bound_variants(self):
        k, dz = 2.0, 0.1
        assert mori_holder_bound(k, dz) == pytest.approx(
            16.0 ** 0.5 * dz ** 0.5, rel=1e-14)
        assert mori_holder_bound(k, dz, "sixtyfour") == pytest.approx(
            64.0 ** 0.5 * dz ** 0.5, rel=1e-14)
        with pytest.raises(DomainError):
            mori_holder_bound(k, dz, "thirtytwo")

    def test_holder_bound_k1_is_identity(self):
        assert mori_holder_bound(1.0, 0.3) == pytest.approx(0.3, rel=1e-15)

    def test_domains(self):
        for call in (lambda: mori_h(2.0, 0.0), lambda: mori_h(0.0, 1.0),
                     lambda: mori_h(-1.0, 1.0), lambda: mori_sin_bound(0.5, 1.0),
                     lambda: mori_holder_bound(2.0, -0.1),
                     lambda: mori_holder_bound(0.5, 0.1)):
            with pytest.raises(DomainError):
                call()

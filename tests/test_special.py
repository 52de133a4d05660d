"""Special-function kernels against independent oracles.

Reference values were computed with mpmath at 40 significant digits
(hyp2f1 / ellipk / ellipe / digamma) and are frozen here; the quadrature
cross-checks recompute the elliptic integrals with scipy's adaptive
quadrature at test time.
"""
import math
import random

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from gft import (
    APERY_A,
    EULER_GAMMA,
    LANDAU_C,
    ZETA3,
    DomainError,
    agm,
    apery_zeta3,
    digamma,
    elliptic_e,
    elliptic_k,
    elliptic_ka,
    euler_gamma,
    gauss_2f1_sym,
    landau_constant,
    ramanujan_R,
)

R_GRID = np.linspace(0.0, 0.999, 99)


def _k_quad(r: float) -> float:
    val, _ = quad(lambda t: 1.0 / math.sqrt(1.0 - (r * math.sin(t)) ** 2),
                  0.0, math.pi / 2.0, epsabs=1e-13, epsrel=1e-13)
    return val


def _e_quad(r: float) -> float:
    val, _ = quad(lambda t: math.sqrt(1.0 - (r * math.sin(t)) ** 2),
                  0.0, math.pi / 2.0, epsabs=1e-13, epsrel=1e-13)
    return val


class TestAgm:
    def test_fixed_point(self):
        assert agm(1.0, 1.0) == 1.0
        assert agm(3.0, 3.0) == 3.0

    def test_symmetry(self):
        assert agm(1.0, 0.2) == pytest.approx(agm(0.2, 1.0), rel=1e-15)

    def test_gauss_value(self):
        # M(1, sqrt 2), the reciprocal of Gauss's lemniscate constant
        assert agm(1.0, math.sqrt(2.0)) == pytest.approx(1.1981402347355923, rel=1e-14)

    def test_homogeneity(self):
        assert agm(2.0, 0.6) == pytest.approx(2.0 * agm(1.0, 0.3), rel=1e-14)


class TestEllipticIntegrals:
    def test_k_against_quadrature(self):
        for r in R_GRID:
            assert elliptic_k(float(r)) == pytest.approx(_k_quad(float(r)), rel=1e-10)

    def test_e_against_quadrature(self):
        for r in R_GRID:
            assert elliptic_e(float(r)) == pytest.approx(_e_quad(float(r)), rel=1e-10)

    @pytest.mark.parametrize("r, expected", [
        (0.1, 1.5747455615173560),
        (0.5, 1.6857503548125960),
        (0.9, 2.2805491384227702),
        (0.99, 3.3566005233611924),
    ])
    def test_k_frozen(self, r, expected):
        assert elliptic_k(r) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("r, expected", [
        (0.1, 1.5668619420216683),
        (0.5, 1.4674622093394272),
        (0.9, 1.1716970527816141),
        (0.99, 1.0284758090288040),
        (1.0, 1.0),
    ])
    def test_e_frozen(self, r, expected):
        assert elliptic_e(r) == pytest.approx(expected, rel=1e-13)

    def test_lemniscatic_point(self):
        r = 1.0 / math.sqrt(2.0)
        assert elliptic_k(r) == pytest.approx(1.8540746773013719, rel=1e-14)
        assert elliptic_e(r) == pytest.approx(1.3506438810476755, rel=1e-14)

    def test_legendre_relation(self):
        # E K' + E' K - K K' = pi/2
        for r in R_GRID[1:]:
            r = float(r)
            rc = math.sqrt((1.0 - r) * (1.0 + r))
            resid = (elliptic_e(r) * elliptic_k(rc) + elliptic_e(rc) * elliptic_k(r)
                     - elliptic_k(r) * elliptic_k(rc) - math.pi / 2.0)
            assert abs(resid) < 1e-10

    def test_domain(self):
        for call in (lambda: elliptic_k(1.0), lambda: elliptic_k(-0.1),
                     lambda: elliptic_e(-0.1), lambda: elliptic_e(1.5),
                     lambda: elliptic_ka(0.25, 1.0), lambda: elliptic_ka(0.25, -0.1),
                     lambda: gauss_2f1_sym(0.25, 1.0), lambda: gauss_2f1_sym(0.25, -0.1),
                     lambda: agm(0.0, 1.0), lambda: agm(1.0, -2.0)):
            with pytest.raises(DomainError):
                call()


class TestGauss2F1:
    @pytest.mark.parametrize("a, x, expected", [
        (0.25, 0.3, 1.0679580343293543),
        (0.25, 0.99, 1.9749086838814543),
        (0.1, 0.999999, 2.3449544703579840),
        (0.3, 0.5, 1.1505241699963033),
        (0.49, 0.97, 2.0086326849273886),
    ])
    def test_frozen_oracle(self, a, x, expected):
        assert gauss_2f1_sym(a, x) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("a, x, expected", [
        # 40-digit mpmath hyp2f1; the first two sit where the connection sum
        # used to start at x = 0.95, the rest on both sides of the x = 1/2 switch
        (0.3323902998799169, 0.9496835989482149, 1.7434212583986662435),
        (0.43027989645324094, 0.9349379478906723, 1.7543184489882077613),
        (0.0669626616188318, 0.6454932087551498, 1.0657277517461638568),
        (0.25, 0.5, 1.1339155597260827324),
        (0.1, 0.4999999999999999, 1.0632872531304174378),
        (0.1, 0.5000000000000001, 1.0632872531304174788),
        (0.4, 0.45, 1.1483578881332650648),
        (0.4, 0.55, 1.2001748208599076071),
        (0.2, 0.999, 2.2467859849001759914),
    ])
    def test_mpmath_oracle_full_precision(self, a, x, expected):
        assert gauss_2f1_sym(a, x) == pytest.approx(expected, rel=2e-15, abs=0.0)

    def test_at_zero(self):
        assert gauss_2f1_sym(0.25, 0.0) == 1.0

    def test_half_reduces_to_agm(self):
        # F(1/2,1/2;1;x) = 1/agm(1, sqrt(1-x))
        for x in (0.1, 0.5, 0.9, 0.99, 0.9999):
            assert gauss_2f1_sym(0.5, x) == pytest.approx(
                1.0 / agm(1.0, math.sqrt(1.0 - x)), rel=1e-12)

    def test_elliptic_ka_matches_classical(self):
        for r in (0.1, 0.5, 0.9):
            assert elliptic_ka(0.5, r) == pytest.approx(elliptic_k(r), rel=1e-12)

    @pytest.mark.parametrize("k", range(4, 13))
    def test_elliptic_ka_near_one_mpmath(self, k):
        # F(r^2) is read from the complement (1 - r)(1 + r): 1 - r^2 from the
        # rounded r^2 keeps only about 10^-k of it (2.6e-11 off at k = 8)
        a, r = 0.3, 1.0 - 10.0 ** -k
        with mpmath.workdps(40):
            expected = mpmath.pi / 2 * mpmath.hyp2f1(a, 1 - mpmath.mpf(a), 1,
                                                     mpmath.mpf(r) ** 2)
        assert elliptic_ka(a, r) == pytest.approx(float(expected), rel=2e-15, abs=0.0)

    def test_seeded_points_within_1_3e_15(self):
        # 300 seeded points, half with x uniform on [0, 1) and half with
        # 1 - x = 10^-U(0, 12), against 40-digit mpmath hyp2f1
        rng = random.Random(20261018)
        worst = 0.0
        with mpmath.workdps(40):
            for i in range(300):
                a = rng.uniform(0.001, 0.5)
                x = rng.uniform(0.0, 1.0) if i % 2 else 1.0 - 10.0 ** -rng.uniform(0.0, 12.0)
                expected = mpmath.hyp2f1(a, 1 - mpmath.mpf(a), 1, x)
                worst = max(worst, float(abs(gauss_2f1_sym(a, x) / expected - 1)))
        assert worst <= 1.3e-15


class TestDigamma:
    @pytest.mark.parametrize("x, expected", [
        (0.25, -4.2274535333762654),
        (1.0, -0.5772156649015329),
        (3.5, 1.1031566406452432),
        (7.2, 1.9030321442701751),
    ])
    def test_frozen_oracle(self, x, expected):
        assert digamma(x) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("x, expected", [
        # 40-digit mpmath digamma
        (0.1, -10.423754940411076232),
        (0.5, -1.9635100260214234794),
        (1.5, 0.036489973978576520559),
        (3.0, 0.92278433509846713939),
        (7.9, 2.0022384875635710357),
    ])
    def test_mpmath_oracle_absolute(self, x, expected):
        assert digamma(x) == pytest.approx(expected, rel=0.0, abs=1e-15)

    def test_recurrence(self):
        for x in (0.2, 0.7, 1.3, 4.8):
            assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, rel=1e-12)

    def test_reflection(self):
        # psi(1-x) - psi(x) = pi cot(pi x)
        for x in (0.1, 0.25, 0.4):
            lhs = digamma(1.0 - x) - digamma(x)
            assert lhs == pytest.approx(math.pi / math.tan(math.pi * x), rel=1e-12)

    def test_seeded_points_within_1e_15_or_4_ulps(self):
        # 300 seeded x in (0, 20], half uniform and half 10^-U(0, 6), against
        # 40-digit mpmath; the absolute floor covers the zero of psi near 1.46
        rng = random.Random(20261019)
        with mpmath.workdps(40):
            for i in range(300):
                x = rng.uniform(0.0, 20.0) if i % 2 else 10.0 ** -rng.uniform(0.0, 6.0)
                expected = float(mpmath.digamma(x))
                tol = max(1e-15, 4.0 * math.ulp(expected))
                assert abs(digamma(x) - expected) <= tol, x


class TestConstants:
    def test_euler_gamma(self):
        assert euler_gamma() == pytest.approx(0.5772156649015329, abs=1e-15)
        assert euler_gamma() == pytest.approx(-digamma(1.0), abs=1e-13)
        assert EULER_GAMMA == euler_gamma()

    def test_euler_gamma_accelerated_limit(self):
        # gamma = lim H_n - ln n with the 1/(2n) - 1/(12n^2) correction
        n = 10_000
        h = sum(1.0 / k for k in range(1, n + 1))
        approx = h - math.log(n) - 1.0 / (2.0 * n) + 1.0 / (12.0 * n * n)
        assert euler_gamma() == pytest.approx(approx, abs=1e-12)

    def test_landau_constant(self):
        # Gamma(1/4)^4 / (4 pi^2), recomputed from math.gamma
        expected = math.gamma(0.25) ** 4 / (4.0 * math.pi ** 2)
        assert landau_constant() == pytest.approx(expected, rel=1e-14)
        assert landau_constant() == pytest.approx(4.3768792304529533, rel=1e-14)
        assert LANDAU_C == landau_constant()

    def test_apery(self):
        assert apery_zeta3() == pytest.approx(1.2020569031595943, rel=1e-15)
        assert APERY_A == pytest.approx(14.0 * ZETA3, rel=1e-15)


class TestRamanujanR:
    def test_half_is_ln16(self):
        assert ramanujan_R(0.5) == pytest.approx(math.log(16.0), rel=1e-14)

    def test_quarter_is_6ln2(self):
        assert ramanujan_R(0.25) == pytest.approx(6.0 * math.log(2.0), rel=1e-13)
        assert ramanujan_R(0.25) == pytest.approx(4.1588830833596719, rel=1e-13)

    def test_frozen_oracle(self):
        assert ramanujan_R(0.1) == pytest.approx(10.024250560555062, rel=1e-13)

    def test_seeded_points_within_1e_15(self):
        # 300 seeded a in [1e-3, 1/2] against 40-digit mpmath; the fused
        # recursion reads 5.2e-16 at worst and 0.75 ulps on average here, two
        # full digammas 1.06e-15 and 1.48 ulps, the fused terms summed
        # largest first 1.15 ulps
        rng = random.Random(20261020)
        worst = ulps = 0.0
        with mpmath.workdps(40):
            for _ in range(300):
                a = rng.uniform(1e-3, 0.5)
                expected = -2 * mpmath.euler - mpmath.digamma(a) - mpmath.digamma(1 - mpmath.mpf(a))
                worst = max(worst, float(abs(ramanujan_R(a) / expected - 1)))
                ulps += abs(ramanujan_R(a) - float(expected)) / math.ulp(float(expected))
        assert worst <= 1e-15
        assert ulps / 300 <= 1.0

    def test_digamma_composition(self):
        a = 0.3
        expected = -2.0 * euler_gamma() - digamma(a) - digamma(1.0 - a)
        assert ramanujan_R(a) == pytest.approx(expected, rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            ramanujan_R(0.0)
        with pytest.raises(DomainError):
            ramanujan_R(0.6)

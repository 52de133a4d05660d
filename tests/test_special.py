"""Special-function kernels against independent oracles.

Reference values were computed with mpmath at 40 significant digits
(hyp2f1 / ellipk / ellipe / digamma) and are frozen here; the quadrature
cross-checks recompute the elliptic integrals with scipy's adaptive
quadrature at test time.
"""
import math
import random
import re
import sys

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
    digamma,
    elliptic_e,
    elliptic_k,
    elliptic_ka,
    gauss_2f1_sym,
    grotzsch_ua,
    landau_constant,
    ramanujan_R,
    special,
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

    @pytest.mark.parametrize("a, b, expected", [
        # 40-digit mpmath agm; at each, a * b or the iterates leave the doubles
        (5e-324, 0.5, "1.054037242285393897e-3"),
        (1e300, 0.5, "2.267135830843118672e297"),
        (1.0, 1e300, "2.269406194157821395e297"),
        (1e-300, 2e-300, "1.456791031046906899e-300"),
        (1e300, 5e-324, "1.093411009102638058e297"),
    ])
    def test_extreme_arguments(self, a, b, expected):
        want = float(expected)
        assert abs(agm(a, b) - want) <= 2.0 * math.ulp(want)

    @pytest.mark.parametrize("a, b", [(math.inf, 0.5), (0.5, math.inf),
                                      (math.nan, 0.5), (0.5, math.nan)])
    def test_non_finite_arguments(self, a, b):
        with pytest.raises(DomainError, match="positive finite"):
            agm(a, b)

    def test_seeded_exponent_range(self):
        # a, b = m 2^e over every exponent of the doubles, subnormals included,
        # against 40-digit mpmath; where a * b is a normal double and
        # a + b < 2^512 the result is the plain loop's, bit for bit
        rng = random.Random(20261019)
        with mpmath.workdps(40):
            for _ in range(2000):
                a, b = (math.ldexp(rng.uniform(0.5, 1.0), rng.randint(-1073, 1024))
                        for _ in range(2))
                want = float(mpmath.agm(a, b))
                got = agm(a, b)
                assert abs(got - want) <= 4.0 * math.ulp(want), (a, b)
                if sys.float_info.min <= a * b and a + b < 2.0 ** 512:
                    x, y = max(a, b), min(a, b)
                    while abs(x - y) > 2.0 ** -26 * x:
                        x, y = 0.5 * (x + y), math.sqrt(x * y)
                    assert got == 0.5 * (x + y), (a, b)

    def test_argument_order_is_bitwise_symmetric(self):
        # agm orders its arguments once, so the loop tests a - b without abs();
        # against a copy of the loop that tested abs(a - b), run on (max, min),
        # over 1e5 seeded pairs with a < b and a > b: a quarter of them within
        # 2^-26 relative of each other, a quarter a few ulps from that stop
        # (where testing abs(a - b) > 2^-26 a on unordered arguments gives
        # agm(a, b) != agm(b, a)), a quarter agm(1, x <= 1) as every kernel calls it
        def reference(a, b):
            a, b = max(a, b), min(a, b)
            while abs(a - b) > 2.0 ** -26 * a:
                a, b = 0.5 * (a + b), math.sqrt(a * b)
            return 0.5 * (a + b)

        rng = random.Random(20261019)
        for i in range(100_000):
            a = math.ldexp(rng.uniform(0.5, 1.0), rng.randint(-400, 400))
            if i % 4 == 0:
                b = math.ldexp(rng.uniform(0.5, 1.0), rng.randint(-400, 400))
            elif i % 4 == 1:
                b = a * (1.0 + rng.uniform(-2.0, 2.0) * 2.0 ** -26)
            elif i % 4 == 2:
                b = a + 2.0 ** -26 * a + rng.randint(-4, 4) * math.ulp(a)
            else:
                a, b = 1.0, rng.random() or 1.0
            if rng.random() < 0.5:
                a, b = b, a
            got = agm(a, b)
            assert got == agm(b, a) == reference(a, b), (a, b)

    def test_quadratic_stop_against_mpmath(self):
        # the loop stops once |a - b| <= 2^-26 a, where (a+b)/2 is M(a, b) to
        # within 2^-56 relative.  Against 40-digit mpmath on kernel_sweep's
        # spread moduli b (log-uniform toward 0 and 1 down to 1e-6 from each
        # end) and on general pairs, within 3 ulps (2.9 at b = 1.26e-5 with
        # either stop); on the spread set the bits are those of a loop run
        # on to |a - b| <= 4 eps a
        rng = random.Random(20261021)
        lo, hi = math.log(1e-6), math.log(math.sqrt(0.5))
        spread = []
        for _ in range(2000):
            t = math.exp(rng.uniform(lo, hi))
            spread.append((1.0, t if rng.random() < 0.5 else math.sqrt((1.0 - t) * (1.0 + t))))
        general = [(rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)) for _ in range(2000)]
        with mpmath.workdps(40):
            for a, b in spread + general:
                want = mpmath.agm(a, b)
                assert abs(agm(a, b) - want) <= 3.0 * math.ulp(float(want)), (a, b)
        for a, b in spread:
            x, y = a, b
            while abs(x - y) > 4.0 * sys.float_info.epsilon * x:
                x, y = 0.5 * (x + y), math.sqrt(x * y)
            assert agm(a, b) == 0.5 * (x + y), b


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

    def test_e_against_mpmath(self):
        # 50-digit mpmath ellipe, 2,000 seeded r per band: at this seed 2.2
        # ulps at worst on [0, 1/sqrt2] and 3.6 up to 0.99; toward 1 the
        # cancellation in K (1 - sum 2^{n-1} c_n^2) costs up to 24 ulps
        rng = random.Random(20261019)
        bands = [(lambda: rng.uniform(0.0, math.sqrt(0.5)), 4.0),
                 (lambda: rng.uniform(math.sqrt(0.5), 0.99), 4.0),
                 (lambda: 1.0 - 10.0 ** -rng.uniform(2.0, 16.0), 32.0)]
        with mpmath.workdps(50):
            for draw, ulps in bands:
                for _ in range(2000):
                    r = draw()
                    want = mpmath.ellipe(mpmath.mpf(r) ** 2)
                    assert abs(elliptic_e(r) - want) <= ulps * math.ulp(float(want)), r

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


@pytest.mark.parametrize("kernel, args, bad", [
    (elliptic_k, (1.0,), 1.0), (elliptic_e, (1.5,), 1.5),
    (gauss_2f1_sym, (0.25, -0.5), -0.5), (elliptic_ka, (0.25, 1.0), 1.0),
])
def test_range_errors_name_the_value(kernel, args, bad):
    with pytest.raises(DomainError, match=re.escape(f", got {bad!r}") + "$"):
        kernel(*args)


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

    def test_half_connection_sum_mpmath(self):
        # F(1/2,1/2;1;x) above x = 1/2 comes from the connection sum, as at
        # every other a: seeded y = 1 - x log-uniform on [1e-30, 1/2], against
        # 60-digit mpmath, which holds 1 - y exactly
        rng = random.Random(20261019)
        with mpmath.workdps(60):
            for _ in range(300):
                y = 10.0 ** rng.uniform(-30.0, math.log10(0.5))
                x = 1.0 - y
                want = float(mpmath.hyp2f1(0.5, 0.5, 1, 1 - mpmath.mpf(y)))
                assert special._2f1_sym(0.5, x, y, ramanujan_R(0.5)) == pytest.approx(
                    want, rel=1e-15, abs=0.0)

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

    def test_seeded_set_no_worse_than_before_the_t_recurrence(self):
        # 3,000 seeded points, half with x uniform on [0, 1) and half with
        # 1 - x = 10^-U(0, 12), against 40-digit mpmath hyp2f1; the series on
        # t = n(n+1) + a(1-a) moves about 1% of values by an ulp, and the
        # worst error here stays at the 1.096e-15 of the direct products
        rng = random.Random(20261017)
        worst = 0.0
        with mpmath.workdps(40):
            for i in range(3000):
                a = rng.uniform(0.001, 0.5)
                x = rng.uniform(0.0, 1.0) if i % 2 else 1.0 - 10.0 ** -rng.uniform(0.0, 12.0)
                expected = mpmath.hyp2f1(a, 1 - mpmath.mpf(a), 1, x)
                worst = max(worst, float(abs(gauss_2f1_sym(a, x) / expected - 1)))
        assert worst <= 1.1e-15

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
    @pytest.mark.parametrize("x", [5e-324, 2.0 ** -1024, math.inf])
    def test_beyond_the_doubles(self, x):
        # psi(5e-324) = -2.0e323; psi(x) -> inf as x -> inf
        with pytest.raises(DomainError, match="overflows a double"):
            digamma(x)

    def test_just_inside_the_doubles(self):
        x = 2.0 ** -1024 + 5e-324
        assert digamma(x) == pytest.approx(-1.0 / x, rel=1e-15)

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

    def test_seeded_points_on_0_16(self):
        # the fused shift by 8 below x = 8 and the plain tail above, over
        # 2,000 seeded x uniform on (0, 16), against 40-digit mpmath
        rng = random.Random(20261022)
        with mpmath.workdps(40):
            for _ in range(2000):
                x = 16.0 * (1.0 - rng.random())
                expected = float(mpmath.digamma(x))
                tol = max(1e-15, 4.0 * math.ulp(expected))
                assert abs(digamma(x) - expected) <= tol, x

    def test_fused_shift_median_on_0_1(self):
        # 2,000 seeded x uniform on (0, 1]: the median error is 0.66 ulps with
        # one fused shift by 8, and it was 1.08 with eight single steps
        rng = random.Random(20261023)
        errs = []
        with mpmath.workdps(40):
            for _ in range(2000):
                x = 1.0 - rng.random()
                expected = mpmath.digamma(x)
                errs.append(float(abs(digamma(x) - expected)) / math.ulp(float(expected)))
        errs.sort()
        assert errs[len(errs) // 2] <= 0.75
        assert errs[-1] <= 10.0

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
        assert EULER_GAMMA == pytest.approx(0.5772156649015329, abs=1e-15)
        assert EULER_GAMMA == pytest.approx(-digamma(1.0), abs=1e-13)

    def test_euler_gamma_accelerated_limit(self):
        # gamma = lim H_n - ln n with the 1/(2n) - 1/(12n^2) correction
        n = 10_000
        h = sum(1.0 / k for k in range(1, n + 1))
        approx = h - math.log(n) - 1.0 / (2.0 * n) + 1.0 / (12.0 * n * n)
        assert EULER_GAMMA == pytest.approx(approx, abs=1e-12)

    def test_landau_constant(self):
        # Gamma(1/4)^4 / (4 pi^2), recomputed from math.gamma
        expected = math.gamma(0.25) ** 4 / (4.0 * math.pi ** 2)
        assert landau_constant() == pytest.approx(expected, rel=1e-14)
        assert landau_constant() == pytest.approx(4.3768792304529533, rel=1e-14)
        assert LANDAU_C == landau_constant()

    def test_apery(self):
        assert ZETA3 == pytest.approx(1.2020569031595943, rel=1e-15)
        assert APERY_A == pytest.approx(14.0 * ZETA3, rel=1e-15)


class TestRamanujanR:
    def test_half_is_ln16(self):
        assert ramanujan_R(0.5) == pytest.approx(math.log(16.0), rel=1e-14)

    def test_half_is_ln16_exactly_rounded(self):
        # the Taylor form reads 2.7725887222397816 there, one double above
        assert ramanujan_R(0.5) == math.log(16.0)

    def test_quarter_is_6ln2(self):
        assert ramanujan_R(0.25) == pytest.approx(6.0 * math.log(2.0), rel=1e-13)
        assert ramanujan_R(0.25) == pytest.approx(4.1588830833596719, rel=1e-13)

    def test_frozen_oracle(self):
        assert ramanujan_R(0.1) == pytest.approx(10.024250560555062, rel=1e-13)

    def test_seeded_points_within_1e_15(self):
        # 900 seeded a against 40-digit mpmath: 300 uniform on [1e-3, 1/2],
        # 300 log-uniform down to 1e-300 and 300 at 1/2 - 10^-U(1, 16).  The
        # Taylor form reads 3.0e-16 at worst and 0.36 ulps on average here,
        # the fused shift-by-8 recursion it replaced 6.7e-16 and 0.57 ulps
        rng = random.Random(20261020)
        draws = [lambda: rng.uniform(1e-3, 0.5),
                 lambda: 10.0 ** -rng.uniform(math.log10(2.0), 300.0),
                 lambda: 0.5 - 10.0 ** -rng.uniform(1.0, 16.0)]
        worst = ulps = 0.0
        with mpmath.workdps(40):
            for draw in draws:
                for _ in range(300):
                    a = draw()
                    expected = -2 * mpmath.euler - mpmath.digamma(a) - mpmath.digamma(1 - mpmath.mpf(a))
                    worst = max(worst, float(abs(ramanujan_R(a) / expected - 1)))
                    ulps += abs(ramanujan_R(a) - float(expected)) / math.ulp(float(expected))
        assert worst <= 1e-15
        assert ulps / 900 <= 0.5

    def test_taylor_coefficients(self):
        # the thirteen float literals of the Horner form, in source order, are
        # e_0 = S(1/8) and e_k = (-1)^k sum_n (2n+1)/(n(n+1) + 1/8)^(k+1), each
        # the nearest double to its 40-digit value; the terms dropped after
        # e_12, summed at |t| = 1/8, stay below half an ulp of R(1/2) = ln 16.
        # 0.0 and 0.5 bound the range of a, and 0.5 returns ln 16 itself
        stored = [c for c in special.ramanujan_R.__code__.co_consts
                  if isinstance(c, float) and c not in (0.0, 1.0, 0.125, 0.5)]
        assert len(stored) == 13
        with mpmath.workdps(40):
            c0 = mpmath.mpf(1) / 8

            def e(k):
                if k == 0:
                    return -mpmath.nsum(lambda n: 2 / n - (2 * n + 1) / (n * (n + 1) + c0), [1, mpmath.inf])
                return (-1) ** k * mpmath.nsum(lambda n: (2 * n + 1) / (n * (n + 1) + c0) ** (k + 1),
                                               [1, mpmath.inf])

            # e_0 once more from the digammas: S(c) = -2 gamma - psi(1+a) - psi(2-a), c = a(1-a)
            a0 = (1 - mpmath.sqrt(1 - 4 * c0)) / 2
            assert abs(e(0) - (-2 * mpmath.euler - mpmath.digamma(1 + a0) - mpmath.digamma(2 - a0))) < 1e-35
            for k, got in enumerate(stored):
                assert got == float(e(k)), k
            tail = sum(abs(e(k)) * mpmath.mpf(8) ** -k for k in range(13, 40))
            assert tail < math.ulp(math.log(16.0)) / 2

    def test_digamma_composition(self):
        a = 0.3
        expected = -2.0 * EULER_GAMMA - digamma(a) - digamma(1.0 - a)
        assert ramanujan_R(a) == pytest.approx(expected, rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            ramanujan_R(0.0)
        with pytest.raises(DomainError):
            ramanujan_R(0.6)

    @pytest.mark.parametrize("call", [ramanujan_R, lambda a: gauss_2f1_sym(a, 0.25),
                                      lambda a: grotzsch_ua(a, 0.5)],
                             ids=["ramanujan_R", "gauss_2f1_sym", "grotzsch_ua"])
    def test_tiny_a_names_what_leaves_the_doubles(self, call):
        # at a = 3e-309, u_a ~ 1/(2a) = 1.7e308 and F ~ 1 are doubles; only
        # R(a) ~ 1/a is not, and the message must not say that u_a overflows
        with pytest.raises(DomainError, match=r"^R\(a\) ~ 1/a overflows a double below "
                                              r"a = 1/DBL_MAX, got a=3e-309$"):
            call(3e-309)

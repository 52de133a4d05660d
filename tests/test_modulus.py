"""Grotzsch modulus, its generalization, inverses, Landen machinery, and the
auxiliary bound functions.  Frozen reference values come from a 40-digit
mpmath evaluation of pi/(2 sin pi a) * F(a,1-a;1;r'^2)/F(a,1-a;1;r^2).
"""
import math
import random
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import landen_oracle
from gft import (
    DomainError,
    fn_A,
    fn_B,
    grotzsch_u,
    grotzsch_u_inv,
    grotzsch_ua,
    grotzsch_ua_inv,
    landen_next,
    lemma2_constants,
    product_P,
    ramanujan_R,
)

R_GRID = np.linspace(0.01, 0.99, 99)
SQRT_HALF = math.sqrt(0.5)
R_SATURATED = 1.0 - 1e-15  # documented saturation point of the inverses


def _one_ulp_slack(fwd, x: float) -> float:
    """The largest change one ulp of x causes in fwd(x)."""
    got = fwd(x)
    return max(abs(fwd(nb) - got)
               for nb in (math.nextafter(x, 0.0), math.nextafter(x, 1.0))
               if 0.0 < nb < 1.0)


class TestGrotzschU:
    @pytest.mark.parametrize("r, expected", [
        (0.25, 2.7565517108745847),
        (0.5, 2.0094593770052852),
        (0.99, 0.73878787143360220),
    ])
    def test_frozen_oracle(self, r, expected):
        assert grotzsch_u(r) == pytest.approx(expected, rel=1e-13)

    def test_complement_identity(self):
        # u(r) u(r') = pi^2 / 4
        for r in R_GRID:
            r = float(r)
            rc = math.sqrt((1.0 - r) * (1.0 + r))
            assert grotzsch_u(r) * grotzsch_u(rc) == pytest.approx(
                math.pi ** 2 / 4.0, abs=1e-10)

    def test_landen_halving(self):
        # u(2 sqrt r / (1+r)) = u(r) / 2
        for r in R_GRID:
            r = float(r)
            assert grotzsch_u(landen_next(r)) == pytest.approx(
                grotzsch_u(r) / 2.0, abs=1e-10)

    def test_landen_next_range(self):
        # r in [0, 1], ends included; -1 raised a bare ValueError, 2 returned
        # 0.9428 and NaN and inf returned NaN
        assert landen_next(0.0) == 0.0 and landen_next(1.0) == 1.0
        for bad in (-1.0, -5e-324, math.nextafter(1.0, 2.0), 2.0, math.inf,
                    -math.inf, math.nan):
            with pytest.raises(DomainError, match=r"r must lie in \[0,1\]"):
                landen_next(bad)

    def test_symmetric_point(self):
        assert grotzsch_u(1.0 / math.sqrt(2.0)) == pytest.approx(
            math.pi / 2.0, rel=1e-14)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(DomainError):
                grotzsch_u(bad)

    @given(r=st.floats(min_value=1e-7, max_value=SQRT_HALF))
    def test_complement_identity_property(self, r):
        # u(r) u(r') = pi^2 / 4; r' carries one rounding, whose effect on
        # u(r') is what its neighbouring doubles show
        rc = math.sqrt((1.0 - r) * (1.0 + r))
        u = grotzsch_u(r)
        tol = 1e-13 + u * _one_ulp_slack(grotzsch_u, rc)
        assert abs(u * grotzsch_u(rc) - math.pi ** 2 / 4.0) <= tol


class TestGrotzschUa:
    def test_half_matches_classical(self):
        for r in R_GRID:
            r = float(r)
            assert grotzsch_ua(0.5, r) == pytest.approx(grotzsch_u(r), abs=1e-10)

    @pytest.mark.parametrize("a, r, expected", [
        (0.25, 0.25, 3.4456714332895433),
        (0.25, 0.9, 1.7345126502229439),
        (0.1, 0.5, 5.5887900017863491),
        (0.3, 0.999, 0.77076848288314231),
    ])
    def test_frozen_oracle(self, a, r, expected):
        assert grotzsch_ua(a, r) == pytest.approx(expected, rel=1e-12)

    def test_mpmath_oracle_within_two_ulps(self):
        # 40-digit mpmath pi/(2 sin pi a) * F(a,1-a;1;r'^2) / F(a,1-a;1;r^2)
        expected = 3.7902273981608041155
        got = grotzsch_ua(0.3790338635697812, 0.10266345562700334)
        assert abs(got - expected) <= 2.0 * math.ulp(expected)

    def test_complement_identity(self):
        # u_a(r) u_a(r') = [pi / (2 sin pi a)]^2
        for a in (0.1, 0.25, 0.4):
            target = (math.pi / (2.0 * math.sin(math.pi * a))) ** 2
            for r in (0.05, 0.3, 0.7, 0.95):
                rc = math.sqrt((1.0 - r) * (1.0 + r))
                assert grotzsch_ua(a, r) * grotzsch_ua(a, rc) == pytest.approx(
                    target, rel=1e-11)

    def test_small_r_asymptote_is_continuous(self):
        # one series covers r -> 0: its n = 0 term is the asymptote
        # R(a)/2 - ln r, and the rest is O(r^2) of it
        for a in (0.1, 0.25, 0.4):
            left = grotzsch_ua(a, 1e-7 * (1.0 - 1e-10))
            right = grotzsch_ua(a, 1e-7 * (1.0 + 1e-10))
            assert left == pytest.approx(right, rel=1e-10)
            assert grotzsch_ua(a, 1e-160) == ramanujan_R(a) / 2.0 - math.log(1e-160)

    @staticmethod
    def _mpmath_ua(a: float, r: float) -> float:
        with mpmath.workdps(40):
            am, rm = mpmath.mpf(a), mpmath.mpf(r)
            s = mpmath.pi / (2 * mpmath.sin(mpmath.pi * am))
            return float(s * mpmath.hyp2f1(am, 1 - am, 1, 1 - rm * rm)
                         / mpmath.hyp2f1(am, 1 - am, 1, rm * rm))

    @pytest.mark.parametrize("k", range(1, 16))
    def test_near_one_mpmath(self, k):
        # above 1/sqrt2, u_a comes from r' = sqrt((1-r)(1+r)); 1 - r^2 from
        # the rounded r^2 keeps only about 10^-k of r'^2 (2.6e-11 off at k = 8)
        r = 1.0 - 10.0 ** -k
        assert grotzsch_ua(0.3162, r) == pytest.approx(self._mpmath_ua(0.3162, r),
                                                       rel=2e-15, abs=0.0)

    def test_small_a_series_stops_on_both_sums(self):
        # at small a, b_n -> 0 like 1/n: a stop on the B terms alone ends
        # F early and puts u_a 5.6e-15 off here
        assert grotzsch_ua(0.0125, 0.7735) == pytest.approx(
            self._mpmath_ua(0.0125, 0.7735), rel=2e-15, abs=0.0)

    def test_seeded_set_no_worse_than_before_the_t_recurrence(self):
        # 600 seeded (a, r), a uniform on (0.01, 0.49), r half uniform on
        # (0, 1 - 1e-6) and half 1 - 10^-U(0, 6), against 40-digit mpmath;
        # the worst error stays at the 1.097e-15 of the direct products
        rng = random.Random(20261017)
        worst = 0.0
        with mpmath.workdps(40):
            for i in range(600):
                a = rng.uniform(0.01, 0.49)
                r = rng.uniform(0.0, 1.0 - 1e-6) if i % 2 else 1.0 - 10.0 ** -rng.uniform(0.0, 6.0)
                am, rm = mpmath.mpf(a), mpmath.mpf(r)
                expected = (mpmath.pi / (2 * mpmath.sin(mpmath.pi * am))
                            * mpmath.hyp2f1(am, 1 - am, 1, (1 - rm) * (1 + rm))
                            / mpmath.hyp2f1(am, 1 - am, 1, rm * rm))
                worst = max(worst, float(abs(grotzsch_ua(a, r) / expected - 1)))
        assert worst <= 1.1e-15

    def test_continuous_at_the_symmetric_point(self):
        # the series below 1/sqrt2 and the complement identity above it
        for a in (0.01, 0.25, 0.49):
            left = grotzsch_ua(a, math.nextafter(SQRT_HALF, 0.0))
            right = grotzsch_ua(a, math.nextafter(SQRT_HALF, 1.0))
            assert left == pytest.approx(right, rel=1e-15)

    def test_decreasing(self):
        vals = [grotzsch_ua(0.25, float(r)) for r in R_GRID]
        assert all(x > y for x, y in zip(vals, vals[1:]))


class TestInverses:
    def test_u_roundtrip(self):
        for r in R_GRID:
            r = float(r)
            assert grotzsch_u_inv(grotzsch_u(r)) == pytest.approx(r, abs=1e-9)

    def test_ua_roundtrip(self):
        for a in (0.1, 0.25, 0.5):
            for r in (0.02, 0.2, 0.5, 0.8, 0.98):
                y = grotzsch_ua(a, r)
                assert grotzsch_ua_inv(a, y) == pytest.approx(r, abs=1e-9)

    def test_inverses_evaluate_no_forward_modulus_at_the_root(self, monkeypatch):
        # the root's residual is formed only where phi_k/phi_ka return it, so
        # u^{-1}(2) takes the nome alone and u_a^{-1}(1/4, 2) five Newton steps
        # on the complement (a residual would take 2 agm or 1 series call more)
        from gft import modulus, special
        calls = {"agm": 0, "_ua_and_f": 0}
        real_agm, real_ua_and_f = special.agm, modulus._ua_and_f

        def agm(a, b):
            calls["agm"] += 1
            return real_agm(a, b)

        def ua_and_f(a, r, ra):
            calls["_ua_and_f"] += 1
            return real_ua_and_f(a, r, ra)

        for mod in (special, modulus):
            monkeypatch.setattr(mod, "agm", agm)
        monkeypatch.setattr(modulus, "_ua_and_f", ua_and_f)
        grotzsch_u_inv(2.0)
        assert calls == {"agm": 0, "_ua_and_f": 0}
        grotzsch_ua_inv(0.25, 2.0)
        assert calls == {"agm": 0, "_ua_and_f": 5}

    def test_small_y_saturates_near_one(self):
        r = grotzsch_u_inv(1e-9)
        assert 1.0 - r < 1e-12

    def test_large_y_maps_to_small_r(self):
        r = grotzsch_u_inv(20.0)
        # u(r) ~ ln(4/r): r ~ 4 e^{-20}
        assert r == pytest.approx(4.0 * math.exp(-20.0), rel=1e-6)

    def test_tiny_root_underflow_raises(self):
        # u(r) ~ ln(4/r): the root of u = 800 is about 4e-348, below every double
        with pytest.raises(DomainError, match="underflow"):
            grotzsch_u_inv(800.0)

    def test_small_a_large_y(self):
        # R(2e-4)/2 ~ 2500, so e^{R(a)/2} lies beyond the doubles: the
        # inverse must stay in log space
        y = 2614.0
        r = grotzsch_ua_inv(2e-4, y)
        assert 0.0 < r < SQRT_HALF
        assert grotzsch_ua(2e-4, r) == pytest.approx(y, abs=1e-12)
        # mpmath at 200 digits: Newton in ln r on u_a(r) = 2614
        assert r == pytest.approx(3.093350160043508353394236e-50, rel=1e-12)

    def test_subnormal_a_raises(self):
        # u_a(1/sqrt2) = pi / (2 sin(pi a)) overflows a double
        with pytest.raises(DomainError, match="overflow"):
            grotzsch_ua_inv(1e-310, 1.0)

    def test_subnormal_a_forward_raises(self):
        # R(a) ~ 1/a overflows below a ~ 5.6e-309, and the kernel raises with
        # it, though u_a ~ 1/(2a) fits down to a ~ 2.8e-309; these calls
        # returned inf, inf and raised RuntimeError
        for a, r in ((1e-310, 0.5), (3e-309, 1e-8), (3e-309, 0.999)):
            with pytest.raises(DomainError, match=r"R\(a\) ~ 1/a overflows a double"):
                grotzsch_ua(a, r)
        for r in (1e-8, 0.5, 0.999):
            assert math.isfinite(grotzsch_ua(6e-309, r))

    @pytest.mark.parametrize("a", [1e-20, 1e-300])
    @pytest.mark.parametrize("r", [0.2, 0.5, 0.9])
    def test_tiny_a_undetermined_root_raises(self, a, r):
        # u_a(r) stays within an ulp of pi/(2 sin pi a) ~ 1/(2a) over a wide
        # range of r; these returned 0.7071067811865476 (a = 1e-20), or
        # 0.999999999999999 and an untrue "underflows" (a = 1e-300)
        y = grotzsch_ua(a, r)
        with pytest.raises(DomainError, match="undetermined"):
            grotzsch_ua_inv(a, y)

    def test_small_a_root_still_determined(self):
        # at a = 1e-6 one ulp of y ~ 5e5 is 5.8e-11, and the root is that good
        for r in (1e-5, 0.2, 0.5, 0.9, 0.999):
            got = grotzsch_ua_inv(1e-6, grotzsch_ua(1e-6, r))
            assert got == pytest.approx(r, rel=1e-9)

    def test_tiny_a_clear_roots_unchanged(self):
        # far from u_a ~ 1/(2a), a tiny a still saturates or underflows
        assert grotzsch_ua_inv(1e-300, 1.0) == R_SATURATED
        assert grotzsch_ua_inv(1e-20, 4e19) == R_SATURATED
        for a, y in ((1e-300, 1e300), (1e-20, 1e25), (1e-300, math.inf)):
            with pytest.raises(DomainError, match="underflow"):
                grotzsch_ua_inv(a, y)

    def test_infinite_y_underflow_raises(self):
        # u(r) -> inf only as r -> 0: the root lies below every double
        with pytest.raises(DomainError, match="underflow"):
            grotzsch_u_inv(math.inf)

    @settings(max_examples=300)  # about half saturate: tiny a puts every root at 1
    @given(a=st.floats(min_value=1e-300, max_value=0.5),
           y=st.floats(min_value=0.05, max_value=700.0))
    def test_ua_round_trip_property(self, a, y):
        # u_a(u_a^{-1}(y)) = y, measured in the well-conditioned variable:
        # r' against u_a(r') = s^2 / y for roots above 1/sqrt2
        def fwd(x):
            return grotzsch_ua(a, x)

        r = grotzsch_ua_inv(a, y)
        if r == R_SATURATED:
            assert fwd(r) >= y - 1e-12  # the exact root lies at or beyond it
            return
        big = r > SQRT_HALF

        def var(x):
            return math.sqrt((1.0 - x) * (1.0 + x)) if big else x

        want = (math.pi / (2.0 * math.sin(math.pi * a))) ** 2 / y if big else y
        slack = _one_ulp_slack(lambda x: fwd(var(x)), r)
        assert abs(fwd(var(r)) - want) <= 1e-12 + slack

    def test_domain(self):
        with pytest.raises(DomainError):
            grotzsch_u_inv(0.0)
        with pytest.raises(DomainError):
            grotzsch_u_inv(-1.0)
        with pytest.raises(DomainError):
            grotzsch_u_inv(math.inf)


class TestProductP:
    @pytest.mark.parametrize("r, expected", [
        (0.1, 1.9431411299106836),
        (0.5, 2.9566354883620869),
        (0.9, 3.7986829556743221),
    ])
    def test_frozen_oracle(self, r, expected):
        assert product_P(r) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("r", [10.0 ** -e for e in range(300, 2, -9)]
                             + [float(r) for r in R_GRID]
                             + [1.0 - 10.0 ** -e for e in range(3, 16)]
                             + [SQRT_HALF, math.nextafter(SQRT_HALF, 1.0)])
    def test_landen_product_oracle(self, r):
        # the closed form r' e^{u(r')} against the product itself, taken term
        # by term over exact Landen moduli at 60 digits
        expected = landen_oracle.product_P(r)
        assert product_P(r) == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_limit_at_one(self):
        assert product_P(1.0 - 1e-12) == pytest.approx(4.0, abs=1e-11)
        assert product_P(1.0) == 4.0  # the limit, accepted at r = 1

    @staticmethod
    def _mpmath_P(r: float) -> mpmath.mpf:
        # r' e^{u(r')}, u(r') = (pi/2) M(1, r)/M(1, r'), at 40 digits
        rm = mpmath.mpf(r)
        rc = mpmath.sqrt((1 - rm) * (1 + rm))
        return rc * mpmath.exp(mpmath.pi / 2 * mpmath.agm(1, rm) / mpmath.agm(1, rc))

    def test_nome_form_within_3_ulps(self):
        # above 1/sqrt2, P = r'/sqrt(q(r')) from Jacobi's nome series: 1,528
        # seeded r, half uniform on (1/sqrt2, 1 - 1e-8] and half 1 - 10^-U(0.5, 8),
        # against 40-digit mpmath (2.7 ulps at worst; 5.9 through u and exp)
        rng = random.Random(20261024)
        with mpmath.workdps(40):
            for i in range(1528):
                if i % 2:
                    r = SQRT_HALF + (1.0 - 1e-8 - SQRT_HALF) * (1.0 - rng.random())
                else:
                    r = 1.0 - 10.0 ** -rng.uniform(0.5, 8.0)
                expected = self._mpmath_P(r)
                assert abs(product_P(r) - expected) <= 3.0 * math.ulp(float(expected)), r

    @pytest.mark.parametrize("r", [5e-324, 1e-310, math.nextafter(4.0 / sys.float_info.max, 0.0),
                                   4.0 / sys.float_info.max,
                                   math.nextafter(4.0 / sys.float_info.max, 1.0), 1e-300])
    def test_tiny_r(self, r):
        # u(r) = ln(4/r) to far below an ulp where r' = 1, so P = e^{pi^2/(4 ln(4/r))}:
        # 1.0033 at r = 5e-324, not r' = 1, on both sides of r = 4/DBL_MAX, where
        # a ratio m/r of order 4 would overflow
        with mpmath.workdps(40):
            expected = mpmath.exp(mpmath.pi ** 2 / (4 * mpmath.log(4 / mpmath.mpf(r))))
        assert abs(product_P(r) - expected) <= math.ulp(float(expected))

    def test_continuous_at_the_switch(self):
        # the nome form starts just above 1/sqrt2: the values on either side
        # increase with r and lie within 2 ulps of mpmath
        rs = [SQRT_HALF]
        for _ in range(2):
            rs = [math.nextafter(rs[0], 0.0)] + rs + [math.nextafter(rs[-1], 1.0)]
        vals = [product_P(r) for r in rs]
        assert vals == sorted(vals)
        with mpmath.workdps(40):
            for r, v in zip(rs, vals):
                assert abs(v - self._mpmath_P(r)) <= 2.0 * math.ulp(v), r

    def test_one_through_the_nome_form(self):
        # at r = 1, m = (1 + 1) sqrt(2 * 2) = 4 and eps = 0, so the formula
        # gives 4 exactly, with no case of its own; one ulp below 1 as well
        assert product_P(1.0) == 4.0
        assert product_P(math.nextafter(1.0, 0.0)) == 4.0

    def test_domain(self):
        for bad in (0.0, -0.5, 1.5, math.nan, math.inf):
            with pytest.raises(DomainError):
                product_P(bad)

    def test_increasing(self):
        vals = [product_P(float(r)) for r in R_GRID]
        assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_range(self):
        # 1 + r <= P(r) <= 4 always
        for r in R_GRID:
            r = float(r)
            p = product_P(r)
            assert 1.0 + r <= p <= 4.0


class TestAuxiliaryFunctions:
    def test_fn_a_endpoints(self):
        assert fn_A(0.0) == 1.0
        assert fn_A(1.0) == 0.0

    def test_fn_a_value(self):
        assert fn_A(1.0 / math.sqrt(2.0)) == pytest.approx(0.43520987568355165, rel=1e-12)

    def test_fn_a_continuity_at_guard(self):
        assert fn_A(1e-12) == pytest.approx(fn_A(2e-12), abs=1e-12)

    @pytest.mark.parametrize("e", range(1, 16))
    def test_fn_a_near_one_mpmath(self, e):
        # r'^2 = (1 - r)(1 + r) keeps the complement that 1 - r*r loses
        import mpmath

        r = 1.0 - 10.0 ** -e
        with mpmath.workdps(40):
            x = mpmath.mpf(r)
            expected = (1 - x * x) * mpmath.atan(x) / x
        assert fn_A(r) == pytest.approx(float(expected), rel=1e-14, abs=0.0)

    def test_fn_b_endpoints(self):
        assert fn_B(0.0) == pytest.approx(math.log(4.0), rel=1e-15)
        assert fn_B(1.0) == 0.0

    def test_fn_b_formula(self):
        r = 0.6
        rc2 = 1.0 - r * r
        assert fn_B(r) == pytest.approx(rc2 * math.log(4.0 / math.sqrt(rc2)), rel=1e-13)

    def test_domains(self):
        with pytest.raises(DomainError):
            fn_A(1.5)
        with pytest.raises(DomainError):
            fn_B(-0.1)


class TestLemma2Constants:
    def test_quarter_values(self):
        cs = lemma2_constants(0.25)
        # c1 = (R(1/4) - ln 16)/2 = (6 ln 2 - 4 ln 2)/2 = ln 2
        assert cs.c1 == pytest.approx(math.log(2.0), rel=1e-12)
        assert cs.c2 == pytest.approx(0.5, rel=1e-12)
        # c3 = (1 - 2a)^2 / ((1-a) pi) = 1/(3 pi)
        assert cs.c3 == pytest.approx(1.0 / (3.0 * math.pi), rel=1e-14)
        assert cs.c4 == pytest.approx(2.0, rel=1e-12)
        assert cs.c5 == pytest.approx(math.sqrt(math.e), rel=1e-12)
        assert cs.c6 == pytest.approx(cs.c3 / cs.c1, rel=1e-14)

    def test_degenerate_at_half(self):
        cs = lemma2_constants(0.5)
        assert cs._fields == ("c1", "c2", "c3", "c4", "c5", "c6")
        assert cs.c1 == 0.0 and cs.c3 == 0.0
        assert cs.c4 == 1.0 and cs.c5 == 1.0
        assert math.isnan(cs.c6)

    def test_c1_positive_below_half(self):
        for a in (0.05, 0.2, 0.45):
            assert lemma2_constants(a).c1 > 0.0

    def test_c1_cancels_toward_half(self):
        # c1 = (R(a) - ln 16)/2 keeps an absolute error of about one ulp of
        # ln 16, so its relative error grows like (1/2 - a)^-2, and c6 = c3/c1
        # inherits it.  4,000 seeded a = 1/2 - 10^-U(1, 8) against 40-digit
        # mpmath: 5.5e-16 absolute and 0.43 relative at worst
        rng = random.Random(20261026)
        worst_abs = worst_rel = 0.0
        with mpmath.workdps(40):
            for _ in range(4000):
                a = 0.5 - 10.0 ** -rng.uniform(1.0, 8.0)
                m = mpmath.mpf(a)
                expected = (-2 * mpmath.euler - mpmath.digamma(m) - mpmath.digamma(1 - m)
                            - mpmath.log(16)) / 2
                got = lemma2_constants(a).c1
                worst_abs = max(worst_abs, float(abs(got - expected)))
                worst_rel = max(worst_rel, float(abs(got / expected - 1)))
        assert worst_abs <= 5.6e-16
        assert worst_rel <= 0.5
        # nearer 1/2 the rounding is all of c1: c6 reads 1.1e-4, the truth 0.30
        assert lemma2_constants(0.5 - 1e-10).c6 == pytest.approx(1.1e-4, rel=0.05)

    @pytest.mark.parametrize("a", [7e-4, 5e-4, 1e-300])
    def test_c4_overflow_raises(self, a):
        # c1 passes ln DBL_MAX below a ~ 7.03e-4 (c5 follows below ~ 5.07e-4):
        # DomainError, not the OverflowError of exp
        with pytest.raises(DomainError, match=r"^c4 = e\^c1 overflows a double at a = "):
            lemma2_constants(a)

    def test_small_a_in_range(self):
        cs = lemma2_constants(1e-3)
        assert math.isfinite(cs.c4) and math.isfinite(cs.c5)

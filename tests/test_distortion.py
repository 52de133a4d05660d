"""Distortion function phi_K: closed forms, round trips, the conjugation
identity, the explicit 4^{1-1/K} bound, derivative formulas against central
finite differences, and monotonicity of the auxiliary f_K.

Frozen values come from 40-digit mpmath bisection of u_a(s) = u_a(r)/K.
"""
import ast
import inspect
import itertools
import math
import pathlib
import sys
from decimal import Decimal

import mpmath
import numpy as np
import pytest

import landen_oracle
from gft import (
    DomainError,
    gauss_2f1_sym,
    grotzsch_ua,
    grotzsch_ua_inv,
    lemma3_fk,
    margin_at,
    phi_k,
    phi_k_product,
    phi_ka,
    phi_partial_k,
    phi_partial_r,
)
import gft
from gft import modulus, special

R_GRID = np.linspace(0.01, 0.99, 99)
K_VALUES = (1.5, 2.0, 4.0)
# phi_4(0.99) = 1 - 2e-11, agreed to 40 digits by the Jacobi nome and by
# bisection on the complement; the round-trip bounds below rest on it
PHI_4_AT_099 = "0.9999999999800726897278761185625531959762"


class TestClosedForms:
    def test_phi_2_closed_form(self):
        for r in R_GRID:
            r = float(r)
            expected = 2.0 * math.sqrt(r) / (1.0 + r)
            assert phi_k(2.0, r).value == pytest.approx(expected, abs=1e-10)

    def test_phi_half_closed_form(self):
        for r in R_GRID:
            r = float(r)
            rc = math.sqrt((1.0 - r) * (1.0 + r))
            expected = (1.0 - rc) / (1.0 + rc)
            assert phi_k(0.5, r).value == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("k, r, expected", [
        (3.0, 0.7, 0.99929684902983572),
        (1.5, 0.1, 0.33277035238850368),
        (4.0, 0.99, float(PHI_4_AT_099)),
    ])
    def test_frozen_oracle(self, k, r, expected):
        assert phi_k(k, r).value == pytest.approx(expected, abs=1e-10)

    def test_frozen_oracle_within_one_ulp(self):
        # abs=1e-10 is some 900,000 ulps just below 1, and the round trip
        # needs the intermediate faithfully rounded: compare exactly in decimal
        s = phi_k(4.0, 0.99).value
        assert abs(Decimal(s) - Decimal(PHI_4_AT_099)) < Decimal(math.ulp(s))

    def test_tiny_root_frozen_oracle(self):
        # 4 e^{-y} theta-quotient at y = u(0.5)/0.01 = 200.9459..., from
        # mpmath jtheta at 50 digits; abs=1e-10 would accept any tiny value
        assert phi_k(0.01, 0.5).value == pytest.approx(
            2.1495526507539243412125528552962925505e-87, rel=1e-12)

    def test_generalized_frozen_oracle(self):
        assert phi_ka(0.25, 2.0, 0.3).value == pytest.approx(
            0.92965903856082598, abs=1e-10)

    def test_identity_dilatation(self):
        res = phi_k(1.0, 0.37)
        assert res.value == 0.37
        assert res.residual == 0.0

    def test_residual_reported(self):
        assert phi_k(2.0, 0.25).residual < 1e-10


class TestResidualOnlyInPhiResult:
    """Only phi_k and phi_ka form an inversion residual; the inverses, the
    partials, lemma3_fk and the sweep's cache read values and evaluate no
    forward modulus at the root."""

    # (value, residual) bits pinned from the inverse that formed the residual
    # itself, one root of each branch at a = 1/2 and at a = 1/4
    @pytest.mark.parametrize("a, k, r, branch, value, residual", [
        (0.5, 0.5, 0.01, "direct", "0x1.a3738d2b7aa37p-16", "0x1.0000000000000p-49"),
        (0.5, 1.5, 0.37, "complement", "0x1.6c0bf20058207p-1", "0x1.fad2468f61ca5p-52"),
        (0.5, 7.0, 0.96, "saturated", "0x1.ffffffffffff7p-1", "0x1.38b88e5abd300p-10"),
        (0.25, 0.5, 0.05, "direct", "0x1.483163d92841ep-12", "0x1.0000000000000p-49"),
        (0.25, 1.5, 0.28, "complement", "0x1.6ad484a795e64p-1", "0x1.fe6ee2a9757eap-52"),
        (0.25, 7.0, 0.88, "saturated", "0x1.ffffffffffff7p-1", "0x1.806c341084480p-9"),
    ])
    def test_residual_bits_pinned(self, a, k, r, branch, value, residual):
        y = grotzsch_ua(a, r) / k
        assert (y >= modulus._sym_value(a)) == (branch == "direct")
        assert (float.fromhex(value) == modulus._R_MAX) == (branch == "saturated")
        got = phi_ka(a, k, r)
        assert got.value.hex() == value and got.residual.hex() == residual
        if a == 0.5:
            assert phi_k(k, r) == got

    @pytest.fixture
    def ua_and_f_calls(self, monkeypatch):
        seen = []
        real = modulus._ua_and_f

        def counting(a, r, ra):
            seen.append(r)
            return real(a, r, ra)

        monkeypatch.setattr(modulus, "_ua_and_f", counting)
        return seen

    def test_partial_k_takes_the_forward_modulus_from_the_inverse(self, ua_and_f_calls):
        # one forward u_a(r) and four Newton steps; a residual and a second
        # u_a(r) would make it 7
        phi_partial_k(0.25, 2.0, 0.3)
        assert len(ua_and_f_calls) == 5

    def test_values_form_no_residual(self, ua_and_f_calls):
        for fn in (lambda: phi_partial_r(0.25, 2.0, 0.3), lambda: lemma3_fk(0.25, 2.0, 0.3)):
            ua_and_f_calls.clear()
            fn()
            assert len(ua_and_f_calls) == 5
        ua_and_f_calls.clear()
        phi_ka(0.25, 2.0, 0.3)
        assert len(ua_and_f_calls) == 6

    def test_identity_dilatation_forms_no_forward_modulus(self, ua_and_f_calls):
        for fn in (lambda: phi_ka(0.25, 1.0, 0.3), lambda: lemma3_fk(0.25, 1.0, 0.3)):
            fn()
        assert ua_and_f_calls == []
        # d phi / d K at K = 1 is u_a(r) r r'^2 F(a,1-a;1;r^2)^2, which still
        # needs the u_a(r) that phi_ka does not form there
        want = grotzsch_ua(0.25, 0.3) * 0.3 * (1.0 - 0.3 ** 2) * gauss_2f1_sym(0.25, 0.3 ** 2) ** 2
        assert phi_partial_k(0.25, 1.0, 0.3) == pytest.approx(want, rel=1e-15)


class TestRoundTripAndIdentity:
    def test_round_trip(self):
        for k in K_VALUES:
            for r in R_GRID:
                r = float(r)
                s = phi_k(k, r).value
                # 1e-9 plus what one ulp of the intermediate s costs the
                # inverse: 1.4e-8 at (4, 0.99), where s = 1 - 2e-11
                tol = 1e-9 + abs(phi_partial_r(0.5, 1.0 / k, s)) * math.ulp(s)
                assert phi_k(1.0 / k, s).value == pytest.approx(r, abs=tol)

    def test_conjugation_identity(self):
        # phi_K(r)^2 + phi_{1/K}(r')^2 = 1
        for k in (1.0,) + K_VALUES:
            for r in R_GRID:
                r = float(r)
                rc = math.sqrt((1.0 - r) * (1.0 + r))
                total = phi_k(k, r).value ** 2 + phi_k(1.0 / k, rc).value ** 2
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_monotone_in_r(self):
        vals = [phi_k(2.0, float(r)).value for r in R_GRID]
        assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_monotone_in_k(self):
        r = 0.4
        vals = [phi_k(k, r).value for k in (0.5, 1.0, 1.5, 2.0, 4.0)]
        assert all(x < y for x, y in zip(vals, vals[1:]))


class TestExplicitBound:
    def test_phi_4_bound(self):
        # phi_K(r) <= 4^{1-1/K} r^{1/K} for K >= 1, with margin >= -1e-12
        for k in (1.0,) + K_VALUES:
            for r in R_GRID:
                r = float(r)
                bound = 4.0 ** (1.0 - 1.0 / k) * r ** (1.0 / k)
                assert bound - phi_k(k, r).value >= -1e-12


class TestDerivatives:
    # kept inside the region where phi stays far enough from 1 that central
    # differences at h = 1e-6 are themselves accurate to ~1e-7
    A_GRID = (0.25, 0.4, 0.5)
    K_GRID = (1.25, 1.5, 2.0)
    R3 = (0.2, 0.5, 0.8)

    def test_partial_r_matches_central_difference(self):
        h = 1e-6
        for a in self.A_GRID:
            for k in self.K_GRID:
                for r in self.R3:
                    fd = (phi_ka(a, k, r + h).value - phi_ka(a, k, r - h).value) / (2 * h)
                    assert phi_partial_r(a, k, r) == pytest.approx(fd, rel=1e-5)

    def test_partial_k_matches_central_difference(self):
        h = 1e-6
        for a in self.A_GRID:
            for k in self.K_GRID:
                for r in self.R3:
                    fd = (phi_ka(a, k + h, r).value - phi_ka(a, k - h, r).value) / (2 * h)
                    assert phi_partial_k(a, k, r) == pytest.approx(fd, rel=1e-5)

    @pytest.mark.parametrize("fn, expected", [
        (phi_partial_r, 0.4391102071474887),
        (phi_partial_k, 0.2020398460540873),
    ])
    def test_frozen_oracle_generalized(self, fn, expected):
        assert fn(0.25, 2.0, 0.3) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("fn, expected", [
        (phi_partial_r, 0.5459926345523144),
        (phi_partial_k, 0.3108427610435973),
    ])
    def test_frozen_oracle_classical(self, fn, expected):
        assert fn(0.5, 1.5, 0.6) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("k", range(4, 13))
    def test_partial_k_at_k1_near_one_mpmath(self, k):
        # at K = 1, s = r exactly, so the derivative is
        # pi/(2 sin pi a) r r'^2 F(r^2) F(r'^2); F(r^2) needs the complement
        # r'^2, which the rounded r^2 loses as r -> 1
        import mpmath
        a, r = 0.3, 1.0 - 10.0 ** -k
        with mpmath.workdps(40):
            am, rm = mpmath.mpf(a), mpmath.mpf(r)
            rc2 = 1 - rm * rm
            expected = (mpmath.pi / (2 * mpmath.sin(mpmath.pi * am)) * rm * rc2
                        * mpmath.hyp2f1(am, 1 - am, 1, rm * rm)
                        * mpmath.hyp2f1(am, 1 - am, 1, rc2))
        assert phi_partial_k(a, 1.0, r) == pytest.approx(float(expected), rel=2e-15, abs=0.0)


class TestProductForm:
    def test_collapses_at_k1(self):
        for r in (0.1, 0.37, 0.9):
            assert phi_k_product(1.0, r) == r

    def test_underflow_raises(self):
        # [r/P(r')]^{1/K} P(phi_{1/K}(r')) = phi_K(r) at K = 1e-3 lies far
        # below the smallest normal double: DomainError, as phi_k raises, not 0.0
        with pytest.raises(DomainError, match="underflows.*smallest normal double"):
            phi_k_product(1e-3, 0.5)
        # the smallest value of the kernel benchmark's domain still returns
        assert 9.3e-106 < phi_k_product(1 / 16, 1e-6) < 9.4e-106

    def test_finite_positive(self):
        for k in K_VALUES:
            for r in (0.05, 0.5, 0.95):
                v = phi_k_product(k, r)
                assert math.isfinite(v) and v > 0.0

    @pytest.mark.parametrize("k, r, expected", [
        (0.5, 0.3, 0.02357330184565223922383264436442296252739),
        (0.5, 0.9, 0.3928644583850189204635845420785667851937),
        (2.0, 0.3, 0.842650088469486319999560294759256911494),
        (2.0, 0.9, 0.9986139979479092633848460627066757623705),
        (4.0, 0.3, 0.9963473239293501763214073302949359270144),
        (4.0, 0.9, 0.9999997595415997239910756795494193977482),
    ])
    def test_mpmath_oracle(self, k, r, expected):
        # tests/landen_oracle.py at 60 digits: the product over the exact
        # Landen moduli of r', each carrying its complement; each value is
        # phi_K(r) to 60 digits
        assert phi_k_product(k, r) == pytest.approx(expected, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("k, r", landen_oracle.GRID)
    def test_exact_landen_oracle(self, k, r):
        assert phi_k_product(k, r) == pytest.approx(
            landen_oracle.phi_k_product(k, r), rel=1e-13, abs=0.0)

    def test_k2_closed_form(self):
        # u halves at the ascending Landen step, so phi_2(r) is the next
        # Landen modulus of r, 2 sqrt(r)/(1 + r), which the form reaches
        for r in R_GRID:
            r = float(r)
            expected = 2.0 * math.sqrt(r) / (1.0 + r)
            assert phi_k_product(2.0, r) == pytest.approx(expected, rel=1e-13, abs=0.0)


class TestLemma3Fk:
    def test_corrected_form_decreasing(self):
        for a in (0.1, 0.25, 0.5):
            for k in (1.5, 2.0, 4.0):
                vals = [lemma3_fk(a, k, float(r)) for r in R_GRID]
                assert all(x >= y - 1e-9 for x, y in zip(vals, vals[1:]))

    def test_literal_form_increasing(self):
        # the as-printed exponent gives an increasing function instead: the
        # lemma3_literal margin f(r) - f(r_next) is never positive
        for r, r_next in zip(R_GRID, R_GRID[1:]):
            p = {"a": 0.25, "k": 2.0, "r": float(r), "r_next": float(r_next)}
            assert margin_at("lemma3_literal", p) <= 1e-9

    def test_forms_differ(self):
        p = {"a": 0.25, "k": 2.0, "r": 0.5, "r_next": 0.51}
        assert margin_at("lemma3_literal", p) != margin_at("lemma3_corrected", p)

    @pytest.mark.parametrize("a", [0.25, 0.5])
    @pytest.mark.parametrize("r", [5e-324, 1e-310])
    def test_k1_below_the_reciprocal_of_dbl_max(self, a, r):
        # f_1 = r r^{-1} = 1, though r^{-1} overflows for r < 1/DBL_MAX
        assert lemma3_fk(a, 1.0, r) == 1.0


class TestDomains:
    def test_bad_r(self):
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(DomainError):
                phi_k(2.0, bad)

    def test_bad_k(self):
        for bad in (0.0, -1.0, math.inf):
            with pytest.raises(DomainError):
                phi_k(bad, 0.5)

    def test_tiny_root_underflow_raises(self):
        # phi_0.001(0.5) = 4 e^{-2009.46...} lies below every double
        with pytest.raises(DomainError, match="underflow"):
            phi_k(0.001, 0.5)

    def test_infinite_u_over_k_underflow_raises(self):
        # y = u(r)/K overflows to inf for K = 1e-308; the root 4 e^{-y} is
        # below every double, as it is for K = 1e-300
        for k in (1e-300, 1e-308):
            with pytest.raises(DomainError, match="underflow"):
                phi_k(k, 0.5)
        with pytest.raises(DomainError, match="underflow"):
            phi_ka(0.25, 1e-308, 0.5)

    def test_subnormal_a_raises(self):
        # pi/(2 sin pi a) overflows: no u_a, so no phi_ka, is a double
        with pytest.raises(DomainError, match=r"R\(a\) ~ 1/a overflows a double"):
            phi_ka(1e-310, 2.0, 0.5)

    def test_bad_a(self):
        with pytest.raises(DomainError):
            phi_ka(0.7, 2.0, 0.5)


def _f_mp(a, x):
    """(F(a,1-a;1;x^2), F(a,1-a;1;1-x^2)) from 40-digit hyp2f1; x is the small
    one of a modulus and its complement, and 1 - x^2 is formed with as many
    extra digits as x^2 has leading zeros, so it loses nothing."""
    a, x2 = mpmath.mpf(a), mpmath.mpf(x) ** 2
    with mpmath.extradps(max(0, int(-mpmath.log10(x2)))):
        return mpmath.hyp2f1(a, 1 - a, 1, x2), mpmath.hyp2f1(a, 1 - a, 1, 1 - x2)


def _sym_mp(a):
    return mpmath.pi / (2 * mpmath.sin(mpmath.pi * mpmath.mpf(a)))


def _ua_mp(a, x):
    """u_a(x) for the small one x of a modulus and its complement."""
    f, fc = _f_mp(a, x)
    return _sym_mp(a) * fc / f


def _small_root_mp(a, y):
    """The root x near 0 of u_a(x) = y: Newton in ln x from the asymptote
    R(a)/2 - ln x."""
    am = mpmath.mpf(a)
    t0 = (-2 * mpmath.euler - mpmath.digamma(am) - mpmath.digamma(1 - am)) / 2 - y
    return mpmath.exp(mpmath.findroot(lambda t: _ua_mp(a, mpmath.exp(t)) - y, t0))


class TestNearSaturation:
    """Roots with 1 - phi between 1e-15 and 1.6e-14 lie just below the
    saturation point 1 - 1e-15, where the inversion tests R(a)/2 - y on the
    complement: an R(a) below the true one (ln 16 at a = 1/2) clamps them
    to it."""

    K = 2.0

    @pytest.mark.parametrize("a", (0.1, 0.25, 0.5))
    @pytest.mark.parametrize("delta", (2e-15, 5e-15, 1.5e-14))
    def test_root_is_unsaturated_and_round_trips(self, a, delta):
        k = self.K
        with mpmath.workdps(40):
            # u_a(s') = K u_a(r'): pick r so that 1 - phi is about delta,
            # then take the exact 1 - phi of that double r
            d = mpmath.mpf(delta)
            rc = _small_root_mp(a, _ua_mp(a, mpmath.sqrt(d * (2 - d))) / k)
            r = float(mpmath.sqrt(1 - rc * rc))
            sc = _small_root_mp(a, k * _ua_mp(a, mpmath.sqrt(1 - mpmath.mpf(r) ** 2)))
            exact = float(1 - mpmath.sqrt(1 - sc * sc))
        assert 1e-15 < exact < 1.6e-14
        results = [phi_ka(a, k, r).value] + ([phi_k(k, r).value] if a == 0.5 else [])
        rc = math.sqrt((1.0 - r) * (1.0 + r))
        for value in results:
            assert value < modulus._R_MAX
            assert abs((1.0 - value) - exact) <= 2.0 * math.ulp(1.0)
            # forward modulus in the complement: u_a(s') = K u_a(r'), to
            # what one ulp of value moves ln s' by
            back = grotzsch_ua(a, math.sqrt((1.0 - value) * (1.0 + value)))
            assert back == pytest.approx(k * grotzsch_ua(a, rc), rel=0.0,
                                         abs=math.ulp(1.0) / (1.0 - value))


def _partials_mp(a, k, r):
    """(d phi/dr, d phi/dK) at the double (a, K, r) from 40 digits: s' solves
    u_a(s') = K u_a(r') when s' is the small one, else s solves
    u_a(s) = s^2/(K u_a(r')), s = pi/(2 sin pi a)."""
    km, rm, sym = mpmath.mpf(k), mpmath.mpf(r), _sym_mp(a)
    rc = mpmath.sqrt((1 - rm) * (1 + rm))
    frc, fr = _f_mp(a, rc) if rc <= rm else _f_mp(a, r)[::-1]
    yc = km * sym * fr / frc
    if yc >= sym:
        sc = _small_root_mp(a, yc)
        s = mpmath.sqrt((1 - sc) * (1 + sc))
        fsc, fs = _f_mp(a, sc)
    else:
        s = _small_root_mp(a, sym ** 2 / yc)
        sc = mpmath.sqrt((1 - s) * (1 + s))
        fs, fsc = _f_mp(a, s)
    return (s / (km * rm) * (sc * fs / (rc * fr)) ** 2,
            sym / km * s * sc ** 2 * fs * fsc)


def _near_one_points(n, seed=1301):
    """(a, K, r) with 1 - phi_K(a, r) about 10^-U(2, 15): r = phi_{1/K}(a, 1 - d),
    then K moved by up to 1%, so that phi_K(a, r) is no double by construction
    (near 1, phi is so flat in r and K that a rounded input keeps it one)."""
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(n):
        a = float(rng.choice((0.05, 0.1, 0.2, 0.3, 0.4, 0.5)))
        k = float(rng.uniform(1.1, 8.0))
        r = phi_ka(a, 1.0 / k, 1.0 - 10.0 ** -rng.uniform(2.0, 15.0)).value
        pts.append((a, k * (1.0 + float(rng.uniform(-0.01, 0.01))), r))
    return pts


class TestPartialsNearOne:
    """The partials read s' = sqrt(1 - phi^2) as the inverse solved it; taken
    from the rounded phi, it loses all digits as phi -> 1."""

    @pytest.mark.parametrize("a, k, r", [(0.3, 4.0, 0.99), (0.3, 2.0, 0.999), (0.3, 8.0, 0.9)]
                             + _near_one_points(16))
    def test_against_mpmath(self, a, k, r):
        with mpmath.workdps(40):
            dr, dk = _partials_mp(a, k, r)
        assert phi_partial_r(a, k, r) == pytest.approx(float(dr), rel=1e-13, abs=0.0)
        assert phi_partial_k(a, k, r) == pytest.approx(float(dk), rel=1e-13, abs=0.0)

    def test_saturated_point(self):
        # phi saturates at 1 - 1e-15, while the true 1 - phi is about 2e-52
        assert phi_ka(0.3, 16.0, 0.99).value == modulus._R_MAX
        with mpmath.workdps(40):
            dk = _partials_mp(0.3, 16.0, 0.99)[1]
        assert float(dk) == pytest.approx(1.5517278602e-50, rel=1e-10)
        assert phi_partial_k(0.3, 16.0, 0.99) == pytest.approx(float(dk), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("a, k, r", [(0.5, 1000.0, 0.9), (0.3, 1e6, 0.5)])
    def test_underflowing_complement_raises(self, a, k, r):
        # 1 - phi^2 lies below the smallest normal double; phi itself saturates
        assert phi_ka(a, k, r).value == modulus._R_MAX
        for fn in (phi_partial_r, phi_partial_k):
            with pytest.raises(DomainError, match="underflows.*smallest normal double"):
                fn(a, k, r)


@pytest.fixture
def calls(monkeypatch):
    """The a of every ramanujan_R call, counted through every gft namespace
    that binds it."""
    seen = []
    real = special.ramanujan_R

    def counting(a):
        seen.append(a)
        return real(a)

    for name, mod in list(sys.modules.items()):
        if (name == "gft" or name.startswith("gft.")) and getattr(mod, "ramanujan_R", None) is real:
            monkeypatch.setattr(mod, "ramanujan_R", counting)
    return seen


class TestRFormedOnce:
    """R(a) is formed once per public call and passed down as a parameter."""

    # K > 1 near 1 takes the complement branch and K < 1 the direct one;
    # (2, 1 - 1e-7) saturates at 1 - 1e-15 for both a
    @pytest.mark.parametrize("k, r", [(2.0, 0.5), (0.5, 0.5), (2.0, 1.0 - 1e-7), (4.0, 0.99)])
    @pytest.mark.parametrize("a", (0.1, 0.3))
    def test_phi_ka_and_partials_form_r_once(self, calls, a, k, r):
        for fn in (lambda: phi_ka(a, k, r), lambda: phi_partial_r(a, k, r),
                   lambda: phi_partial_k(a, k, r)):
            calls.clear()
            fn()
            assert calls == [a]

    @pytest.mark.parametrize("y", (0.5, 2.0, 30.0))
    @pytest.mark.parametrize("a", (0.1, 0.3))
    def test_inverse_forms_r_once(self, calls, a, y):
        grotzsch_ua_inv(a, y)
        assert calls == [a]

    @pytest.mark.parametrize("r", (0.1, 0.9))
    def test_forward_forms_r_at_most_once(self, calls, r):
        grotzsch_ua(0.3, r)
        assert calls == [0.3]
        calls.clear()
        grotzsch_ua(0.5, r)
        assert calls == [0.5]

    def test_half_forms_ln16_once(self, calls):
        # at a = 1/2, ramanujan_R returns ln 16 itself, so one call serves
        assert special.ramanujan_R(0.5) == math.log(16.0)
        for fn in (lambda: phi_k(2.0, 0.5), lambda: phi_ka(0.5, 2.0, 1.0 - 1e-7),
                   lambda: phi_partial_k(0.5, 2.0, 0.5)):
            calls.clear()
            fn()
            assert calls == [0.5]


def _a_kernels():
    # every public callable with a parameter named a, except agm, whose a is
    # an AGM argument, and ramanujan_R, the gate itself
    for name in gft.__all__:
        fn = getattr(gft, name)
        try:
            params = list(inspect.signature(fn).parameters)
        except (TypeError, ValueError):
            continue
        if "a" in params and name not in ("agm", "ramanujan_R"):
            yield name, params


# the other arguments of each a-kernel: r and x on both sides of the
# hypergeometric series' switch at x = 1/2
_A_KERNEL_ARGS = {"k": (2.0,), "r": (0.5, 0.9), "x": (0.4, 0.9), "y": (2.0,)}
A_KERNELS = sorted(_a_kernels())


class TestACheckedOnce:
    """ramanujan_R holds the one range check of a: each kernel taking a
    reaches it exactly once per call, so a new a-kernel cannot skip it."""

    def test_kernels_found_from_signatures(self):
        assert {"gauss_2f1_sym", "elliptic_ka", "grotzsch_ua", "lemma2_constants"} <= dict(A_KERNELS).keys()

    @pytest.mark.parametrize("name, params", A_KERNELS, ids=[n for n, _ in A_KERNELS])
    @pytest.mark.parametrize("a", (0.1, 0.3))
    def test_each_kernel_checks_a_once(self, calls, name, params, a):
        others = [p for p in params if p != "a"]
        for values in itertools.product(*(_A_KERNEL_ARGS[p] for p in others)):
            args = dict(zip(others, values), a=a)
            calls.clear()
            getattr(gft, name)(**args)
            assert calls == [a], args

    def test_a_messages_raised_only_in_ramanujan_r(self):
        # (module, function, message) for each raise of an a-range message
        # anywhere in gft; a raise in a nested function counts twice
        messages = ("parameter a must lie in (0, 1/2]", "R(a) ~ 1/a overflows a double")
        sites = []
        for path in sorted(pathlib.Path(gft.__file__).parent.glob("*.py")):
            for fn in ast.walk(ast.parse(path.read_text())):
                if not isinstance(fn, ast.FunctionDef):
                    continue
                for node in ast.walk(fn):
                    if isinstance(node, ast.Raise):
                        text = "".join(c.value for c in ast.walk(node)
                                       if isinstance(c, ast.Constant) and isinstance(c.value, str))
                        sites += [(path.name, fn.name, m) for m in messages if m in text]
        assert sites == [("special.py", "ramanujan_R", m) for m in messages]

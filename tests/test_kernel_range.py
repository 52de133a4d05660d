"""One range contract for the L0-L1 kernels agm, gauss_2f1_sym, digamma,
product_P, grotzsch_u, grotzsch_ua, their inverses and landen_next: over
every double, subnormals, infinities and NaN included, each returns a value
within its stated accuracy of 40-digit mpmath, or raises DomainError, and
raises only outside its domain or where the truth leaves the doubles, or,
for the kernels taking a, where R(a) ~ 1/a does (a below 1/DBL_MAX).  Each
input is drawn from all doubles or from the kernel's own domain, so both
halves of the contract are exercised.
"""
import math
import sys

import mpmath
from hypothesis import given, settings, strategies as st

from gft import (
    DomainError,
    agm,
    digamma,
    gauss_2f1_sym,
    grotzsch_u,
    grotzsch_u_inv,
    grotzsch_ua,
    grotzsch_ua_inv,
    landen_next,
    product_P,
)

ANY = st.floats()
POSITIVE = st.floats(min_value=5e-324, max_value=sys.float_info.max)
UNIT = st.floats(min_value=5e-324, max_value=1.0, exclude_max=True)
NEAR_ONE = st.floats(min_value=0.7, max_value=1.0, exclude_max=True)
PARAM_A = st.floats(min_value=5e-324, max_value=0.5)
R_SATURATED = 1.0 - 1e-15       # the inverses' documented saturation point
NORMAL_MIN = sys.float_info.min


def _ulps(got: float, want) -> float:
    return float(abs(mpmath.mpf(got) - want)) / math.ulp(float(want))


@settings(max_examples=300)
@given(st.one_of(ANY, POSITIVE), st.one_of(ANY, POSITIVE))
def test_agm(a, b):
    # any two positive finite doubles, within 4 ulps
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        try:
            agm(a, b)
        except DomainError:
            return
        raise AssertionError(f"agm({a!r}, {b!r}) returned a value")
    with mpmath.workdps(40):
        assert _ulps(agm(a, b), mpmath.agm(a, b)) <= 4.0


@settings(max_examples=300)
@given(st.one_of(ANY, st.floats(min_value=5e-324, max_value=0.5)),
       st.one_of(ANY, st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                 st.floats(min_value=0.5, max_value=1.0, exclude_max=True)))
def test_gauss_2f1_sym(a, x):
    # a in (0, 1/2] with 1/a finite (below 1/DBL_MAX, R(a) ~ 1/a leaves the
    # doubles and the kernel raises, though F ~ 1), x in [0, 1): within
    # 1.3e-15 relative
    try:
        got = gauss_2f1_sym(a, x)
    except DomainError:
        assert not (0.0 < a <= 0.5 and 0.0 <= x < 1.0) or math.isinf(1.0 / a)
        return
    with mpmath.workdps(40):
        want = mpmath.hyp2f1(a, 1 - mpmath.mpf(a), 1, x)
        assert float(abs(got / want - 1)) <= 1.3e-15


@settings(max_examples=300)
@given(st.one_of(ANY, POSITIVE, st.floats(min_value=5e-324, max_value=16.0)))
def test_digamma(x):
    # x > 0, raising where psi(x) ~ -1/x overflows (x <= 2^-1024) and at
    # x = inf: within 1e-15 absolute or 4 ulps, whichever is larger
    try:
        got = digamma(x)
    except DomainError:
        assert not (2.0 ** -1024 < x < math.inf)
        return
    with mpmath.workdps(40):
        want = float(mpmath.digamma(x))
    assert abs(got - want) <= max(1e-15, 4.0 * math.ulp(want))


@settings(max_examples=300)
@given(st.one_of(ANY, st.floats(min_value=5e-324, max_value=1.0),
                 st.floats(min_value=0.7, max_value=1.0)))
def test_product_P(r):
    # r in (0, 1], P(1) = 4 the limit: within 1e-15 relative, against
    # r' e^{u(r')} with u(r') = (pi/2) M(1, r)/M(1, r'), which forms no 1 - r^2
    try:
        got = product_P(r)
    except DomainError:
        assert not (0.0 < r <= 1.0)
        return
    with mpmath.workdps(40):
        rm = mpmath.mpf(r)
        rc = mpmath.sqrt((1 - rm) * (1 + rm))
        want = 4 if r == 1.0 else rc * mpmath.exp(
            mpmath.pi / 2 * mpmath.agm(1, rm) / mpmath.agm(1, rc))
        assert float(abs(got / want - 1)) <= 1e-15


def _u(r: float):
    """u(r) = (pi/2) K(r')/K(r) at the working precision.  Below r = 1e-8,
    1 - r^2 at 40 digits keeps too little of r^2 for ellipk; there
    u(r) = ln(4/r) - r^2/4 + O(r^4) is exact to far below a double's ulp."""
    rm = mpmath.mpf(r)
    if r < 1e-8:
        return mpmath.log(4 / rm) - rm * rm / 4
    return mpmath.pi / 2 * mpmath.ellipk((1 - rm) * (1 + rm)) / mpmath.ellipk(rm * rm)


def _ramanujan_r(a: float):
    am = mpmath.mpf(a)
    return -2 * mpmath.euler - mpmath.digamma(am) - mpmath.digamma(1 - am)


def _ua(a: float, r: float):
    """u_a(r) = s F(a,1-a;1;r'^2)/F(a,1-a;1;r^2), s = pi/(2 sin pi a); below
    r = 1e-8 its asymptote R(a)/2 - ln r, off by O(r^2) with no log factor."""
    am, rm = mpmath.mpf(a), mpmath.mpf(r)
    if r < 1e-8:
        return _ramanujan_r(a) / 2 - mpmath.log(rm)
    s = mpmath.pi / (2 * mpmath.sin(mpmath.pi * am))
    return s * (mpmath.hyp2f1(am, 1 - am, 1, (1 - rm) * (1 + rm))
                / mpmath.hyp2f1(am, 1 - am, 1, rm * rm))


def _u_root(y: float):
    """The root of u(r) = y through the nome: r = theta_2(q)^2/theta_3(q)^2,
    q = e^{-2y}, and for y < pi/2 the same for r' at y' = pi^2/(4y)."""
    def modulus(yy):
        q = mpmath.exp(-2 * yy)
        return (mpmath.jtheta(2, 0, q) / mpmath.jtheta(3, 0, q)) ** 2

    ym = mpmath.mpf(y)
    if ym >= mpmath.pi / 2:
        return modulus(ym)
    rc = modulus(mpmath.pi ** 2 / (4 * ym))
    return mpmath.sqrt((1 - rc) * (1 + rc))


@settings(max_examples=300)
@given(st.one_of(ANY, UNIT, NEAR_ONE))
def test_grotzsch_u(r):
    # r in (0, 1): within 1.4e-15 relative, the accuracy stated for u_a
    try:
        got = grotzsch_u(r)
    except DomainError:
        assert not (0.0 < r < 1.0)
        return
    assert 0.0 < r < 1.0
    with mpmath.workdps(40):
        assert float(abs(got / _u(r) - 1)) <= 1.4e-15


@settings(max_examples=300)
@given(st.one_of(ANY, PARAM_A, st.floats(min_value=0.01, max_value=0.5)),
       st.one_of(ANY, UNIT, NEAR_ONE))
def test_grotzsch_ua(a, r):
    # a in (0, 1/2], r in (0, 1): within 1.4e-15 relative.  Where 1/a
    # overflows (a below 5.6e-309), R(a) ~ 1/a leaves the doubles and the
    # kernel raises, though u_a ~ 1/(2a) itself fits down to a ~ 2.8e-309
    try:
        got = grotzsch_ua(a, r)
    except DomainError:
        assert not (0.0 < a <= 0.5 and 0.0 < r < 1.0) or math.isinf(1.0 / a)
        return
    assert 0.0 < a <= 0.5 and 0.0 < r < 1.0
    with mpmath.workdps(40):
        assert float(abs(got / _ua(a, r) - 1)) <= 1.4e-15


@settings(max_examples=300)
@given(st.one_of(ANY, POSITIVE, st.floats(min_value=0.0, max_value=720.0)))
def test_grotzsch_u_inv(y):
    # y > 0: the root within 3 ulps, saturating at 1 - 1e-15; DomainError
    # where the root lies below the smallest normal double
    with mpmath.workdps(40):
        want = _u_root(y) if y > 0.0 else None
    try:
        got = grotzsch_u_inv(y)
    except DomainError:
        assert want is None or want < NORMAL_MIN * (1.0 + 1e-14)
        return
    assert want >= NORMAL_MIN * (1.0 - 1e-14)
    expected = min(float(want), R_SATURATED)
    assert abs(got - expected) <= 3.0 * math.ulp(expected)


@settings(max_examples=300)
@given(st.one_of(ANY, PARAM_A, st.floats(min_value=0.01, max_value=0.5)),
       st.one_of(ANY, POSITIVE, st.floats(min_value=0.0, max_value=720.0)))
def test_grotzsch_ua_inv(a, y):
    # a in (0, 1/2], y > 0: u_a at the returned r, taken by mpmath, is y
    # within 8 ulps of y plus what one ulp of r moves it; a saturated root
    # has the exact one at or beyond it.  DomainError where 1/a overflows
    # (as for grotzsch_ua), where the root underflows (u_a = R(a)/2 - ln r
    # there), or where one ulp of y exceeds 2^-26 and y no longer fixes the
    # root's bits
    try:
        r = grotzsch_ua_inv(a, y)
    except DomainError as err:
        if not (0.0 < a <= 0.5 and y > 0.0) or math.isinf(1.0 / a):
            return
        if "undetermined" in str(err):
            assert math.ulp(y) > 2.0 ** -26
        else:
            with mpmath.workdps(40):
                assert _ramanujan_r(a) / 2 - y < math.log(NORMAL_MIN) + 1e-12
        return
    with mpmath.workdps(40):
        u = _ua(a, r)
        if r == R_SATURATED:
            assert u >= y * (1 - 1e-15)
            return
        slack = max(abs(_ua(a, nb) - u) for nb in (math.nextafter(r, 0.0),
                                                    math.nextafter(r, 1.0))
                    if 0.0 < nb < 1.0)
        assert abs(u - y) <= slack + 8.0 * math.ulp(y)


@settings(max_examples=300)
@given(st.one_of(ANY, st.floats(min_value=0.0, max_value=1.0)))
def test_landen_next(r):
    # r in [0, 1]: 2 sqrt(r)/(1 + r) within 3 ulps, three roundings
    try:
        got = landen_next(r)
    except DomainError:
        assert not (0.0 <= r <= 1.0)
        return
    assert 0.0 <= r <= 1.0
    with mpmath.workdps(40):
        rm = mpmath.mpf(r)
        assert _ulps(got, 2 * mpmath.sqrt(rm) / (1 + rm)) <= 3.0

"""One range contract for the L0-L1 kernels agm, gauss_2f1_sym, digamma and
product_P: over every double, subnormals, infinities and NaN included, each
returns a value within its stated accuracy of 40-digit mpmath, or raises
DomainError, and raises only outside its domain or where the truth leaves
the doubles.  Each input is drawn from all doubles or from the kernel's own
domain, so both halves of the contract are exercised.
"""
import math
import sys

import mpmath
from hypothesis import given, settings, strategies as st

from gft import DomainError, agm, digamma, gauss_2f1_sym, product_P

ANY = st.floats()
POSITIVE = st.floats(min_value=5e-324, max_value=sys.float_info.max)


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
    # a in (0, 1/2] with 1/a finite (R(a) ~ 1/a enters the connection sum),
    # x in [0, 1): within 1.3e-15 relative
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

"""Grotzsch ring modulus, its generalization, inverses, Landen sequences,
the infinite product P(r), and the auxiliary functions/constants used by
the two-sided modulus bounds.

P(r) = prod_{n>=0} (1 + r_n)^{2^-n} over the ascending Landen sequence
r_{n+1} = 2 sqrt(r_n)/(1 + r_n) is r' e^{u(r')}: descending Landen from
s_0 = r' gives s_{n+1} = (1 - r_n)/(1 + r_n) = s_n^2/(1 + r_n)^2 and
u(s_n) = 2^n u(r'), so, as u(s) - ln(4/s) -> 0 when s -> 0,
u(r') = lim 2^-n ln(4/s_n) = ln(1/r') + sum 2^-n ln(1 + r_n).
"""
from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .special import (
    _LN16,
    DomainError,
    _2f1_pair,
    agm,
    ramanujan_R,
)

__all__ = ["Lemma2Constants", "fn_A", "fn_B", "grotzsch_u", "grotzsch_u_inv", "grotzsch_ua",
           "grotzsch_ua_inv", "landen_next", "lemma2_constants", "product_P"]

_LN4 = math.log(4.0)
_R_MAX = 1.0 - 1e-15        # saturation point of double-precision moduli
_SQRT_HALF = math.sqrt(0.5)
_LN_SQRT_HALF = -0.5 * math.log(2.0)
_PI2_4 = math.pi ** 2 / 4.0  # u(r) u(r') = pi^2/4
_LN_NORMAL_MIN = math.log(sys.float_info.min)
_LN_DBL_MAX = math.log(sys.float_info.max)
_LN_RC_SAT = math.log(math.sqrt((1.0 - _R_MAX) * (1.0 + _R_MAX)))
_ULP_Y_MAX = 2.0 ** -26     # one ulp of y must fix ln r to half a double's bits


def _check_unit(r: float) -> float:
    if not (0.0 < r < 1.0):
        raise DomainError(f"r must lie in (0,1), got {r!r}")
    return r


def _checked_exp(x: float, what: str, k: float, r: float) -> float:
    """e^x, or DomainError naming what (e^x at K = k, r) where it is no normal double."""
    if not x <= _LN_DBL_MAX:
        raise DomainError(f"{what} overflows a double at K = {k!r}, r = {r!r}")
    if x < _LN_NORMAL_MIN:
        raise DomainError(f"{what} underflows below the smallest "
                          f"normal double at K = {k!r}, r = {r!r}")
    return math.exp(x)


# ---------------------------------------------------------------------------
# Forward moduli
# ---------------------------------------------------------------------------

def grotzsch_u(r: float) -> float:
    """Conformal modulus u(r) of the unit disk slit along [0, r].

    u(r) = pi*kappa(r')/(2*kappa(r)) = (pi/2) * agm(1, r') / agm(1, r).
    """
    _check_unit(r)
    rc = math.sqrt((1.0 - r) * (1.0 + r))
    return math.pi / 2.0 * agm(1.0, rc) / agm(1.0, r)


def grotzsch_ua(a: float, r: float) -> float:
    """Generalized modulus u_a(r); u_{1/2} coincides with grotzsch_u.

    Within 1.1e-15 relative of 40-digit mpmath over the 600 seeded (a, r)
    of its test, r up to 1 - 1e-6; seeded uniform (a, r) read at most 9 ulps."""
    ra = ramanujan_R(a)
    _check_unit(r)
    return _ua(a, r, ra)


def _ua(a: float, r: float, ra: float) -> float:
    """u_a(r) given ra = R(a).  Above 1/sqrt2 it is s^2/u_a(r'),
    s = pi/(2 sin pi a), so r'^2 = (1-r)(1+r) is never taken from a rounded r^2."""
    if a == 0.5:
        return grotzsch_u(r)
    if r <= _SQRT_HALF:
        return _ua_and_f(a, r, ra)[0]
    s = _sym_value(a)
    # s / u * s, as s * s overflows below a ~ 1e-154
    return s / _ua_and_f(a, math.sqrt((1.0 - r) * (1.0 + r)), ra)[0] * s


def _ua_and_f(a: float, r: float, ra: float) -> tuple[float, float]:
    """(u_a(r), F(a,1-a;1;r^2)) for a != 1/2 and r <= 1/sqrt2, from one series.

    By DLMF 15.8.10, F(a,1-a;1;1-x) = (sin(pi a)/pi)(B(x) - F(x) ln x), so
    u_a(r) = s F(a,1-a;1;1-r^2)/F(a,1-a;1;r^2) = B(r^2)/(2 F(r^2)) - ln r,
    a sum of positive terms; its n = 0 term is the asymptote R(a)/2 - ln r.
    """
    f, g = _2f1_pair(a, r * r, ra)
    return 0.5 * g / f - math.log(r), f


def _sym_value(a: float) -> float:
    # u_a at the symmetric point r = 1/sqrt(2); also sqrt of u_a(r)*u_a(r').
    return math.pi / (2.0 * math.sin(math.pi * a))


# ---------------------------------------------------------------------------
# Inverses
# ---------------------------------------------------------------------------

def _log_asymptote(a: float, y: float, floor: float, ra: float) -> float:
    """R(a)/2 - y, the asymptote of ln r on u_a(r) = y, given ra = R(a).

    Below r = 1/sqrt2, one ulp of y moves ln r by ulp(y)/2 to 1.4 ulp(y).
    For tiny a, u_a stays near pi/(2 sin pi a) ~ 1/(2a), whose ulp spans a
    wide range of roots.  Where ulp(y) exceeds _ULP_Y_MAX and the root may
    lie above e^floor (the rounding of t counted), y no longer determines
    the root: raise DomainError rather than return one.
    """
    t = ra / 2.0 - y
    step = math.ulp(y)
    if step > _ULP_Y_MAX and t > floor - 4.0 * step:
        raise DomainError(f"modulus inverse undetermined: one ulp of y = {y!r} is "
                          f"{step!r} and moves ln r about as much, so u_a(r) = y "
                          f"(a = {a!r}) does not determine r")
    return t


def _nome_scale(y: float) -> float:
    """r e^y for the root r <= 1/sqrt2 of u(r) = y >= pi/2: with the nome
    q = e^{-2y} <= e^{-pi}, r = theta_2(q)^2/theta_3(q)^2
    = 4 e^{-y} [(1 + q^2 + q^6 + q^12)/theta_3(q)]^2 to double precision."""
    q = math.exp(-2.0 * y)
    th3 = 1.0 + 2.0 * (q + q ** 4 + q ** 9 + q ** 16)
    return 4.0 * ((1.0 + q ** 2 + q ** 6 + q ** 12) / th3) ** 2


def _small_root(a: float, y: float, ra: float) -> float:
    """The root r <= 1/sqrt2 of u_a(r) = y, for y >= u_a(1/sqrt2)."""
    if a == 0.5:
        # e^{-y} enters directly, so tiny roots are not lost to an
        # underflowing q^{1/2}
        r = math.exp(-y) * _nome_scale(y)
    else:
        # Newton in t = ln r with u_a'(r) = -1/(r r'^2 F(a,1-a;1;r^2)^2), from
        # the asymptote u_a ~ R(a)/2 - ln r, an upper bound of u_a (b_n <= R(a))
        t = min(_log_asymptote(a, y, _LN_NORMAL_MIN, ra), _LN_SQRT_HALF)
        for _ in range(16):  # from the asymptote, 5 steps at most are seen
            if t < _LN_NORMAL_MIN:
                break  # the asymptote is the root, which underflows
            r = math.exp(t)
            u, f = _ua_and_f(a, r, ra)
            dt = (u - y) * (1.0 - r * r) * f ** 2
            t += dt
            # u_a rounds to within ~8 ulps of y, where the steps stall; the
            # step just taken leaves an error of order dt^2
            if abs(dt) <= 32.0 * math.ulp(y):
                break
        else:
            raise DomainError(f"modulus inverse did not converge for a={a!r}, y={y!r}")
        r = math.exp(t)
    if r < sys.float_info.min:
        raise DomainError(f"modulus inverse underflows: the root of u_a(r) = {y!r} "
                          f"(a = {a!r}) lies below the smallest normal double")
    return r


def _invert_ua(a: float, y: float, ra: float) -> tuple[float, float]:
    """Return (r, r') with u_a(r) = y, given ra = R(a) (formed once per public
    call); no forward modulus is evaluated at the root (see _inverse_residual).

    For y below the symmetric value the complementary identity
    u_a(r) u_a(r') = [pi/(2 sin pi a)]^2 gives r' instead, which keeps the
    solve well conditioned as r -> 1, and r' keeps its digits where r rounds
    to 1.  Roots above 1 - 1e-15 saturate there (r' may underflow to 0);
    roots below the smallest normal double, y = inf among them, raise
    DomainError, and so does a y that no longer determines its root (see
    _log_asymptote).
    """
    if not (y > 0.0):
        raise DomainError(f"modulus inverse requires y > 0, got {y!r}")
    s = _sym_value(a)
    if y >= s:
        r = _small_root(a, y, ra)
        return r, math.sqrt((1.0 - r) * (1.0 + r))
    yc, t = _complement(a, y, s, ra)
    if t <= _LN_RC_SAT:
        # r' below sqrt(1 - _R_MAX^2), where u_a is exactly its asymptote
        return _R_MAX, math.exp(t)
    rc = _small_root(a, yc, ra)
    return min(math.sqrt(1.0 - rc * rc), _R_MAX), rc


def _complement(a: float, y: float, s: float, ra: float) -> tuple[float, float]:
    """(y_c, t) for y < s = u_a(1/sqrt2): y_c = s^2/y = u_a(r') and t the
    asymptote of ln r', at or below _LN_RC_SAT where the root saturates."""
    yc = s * s / y
    if yc == math.inf:
        yc = s / y * s  # s * s overflows below a ~ 1e-154
    return yc, _log_asymptote(a, yc, _LN_RC_SAT, ra)


def _inverse_residual(a: float, y: float, ra: float, r: float, rc: float) -> float:
    """The residual of the root (r, r') that _invert_ua(a, y, ra) returned,
    in y-units and measured in the variable the inverse solved:
    |u_a(r) - y| for a direct or a saturated root, |u_a(r') - y_c| y^2/s^2
    for one solved on the complement."""
    s = _sym_value(a)
    if y < s:
        yc, t = _complement(a, y, s, ra)
        if t > _LN_RC_SAT:
            # |d y| = (y^2 / s^2) |d u_a(r')| maps the residual back to y-units
            return abs(_ua(a, rc, ra) - yc) * y * y / (s * s)
    return abs(_ua(a, r, ra) - y)


def grotzsch_u_inv(y: float) -> float:
    """The unique r in (0,1) with u(r) = y."""
    return _invert_ua(0.5, y, _LN16)[0]


def grotzsch_ua_inv(a: float, y: float) -> float:
    """The unique r in (0,1) with u_a(r) = y.  The residual is at most 1e-12
    plus what one ulp of the root moves it, in the well-conditioned variable:
    |u_a(r) - y| for r <= 1/sqrt2, |u_a(r') - s^2/y| with s = pi/(2 sin pi a)
    above.  Roots above 1 - 1e-15 saturate there, the true root at or beyond."""
    return _invert_ua(a, y, ramanujan_R(a))[0]


# ---------------------------------------------------------------------------
# The ascending Landen step and the product P(r)
# ---------------------------------------------------------------------------

def landen_next(r: float) -> float:
    """The ascending Landen step 2 sqrt(r)/(1 + r) of r in [0, 1]."""
    if not (0.0 <= r <= 1.0):
        raise DomainError(f"r must lie in [0,1], got {r!r}")
    return 2.0 * math.sqrt(r) / (1.0 + r)


def _log_P(y: float) -> float:
    """ln P(s) = ln s' + u(s') for the s with u(s) = y, u(s') = pi^2/(4y).

    Of s and s', the one below 1/sqrt2 comes from its nome, the other by
    sqrt(1 - s^2), so s is never formed where it rounds towards 1.  y = 0 is
    s = 1, where x = inf gives ln P(1) = ln 4."""
    x = _PI2_4 / y if y > 0.0 else math.inf
    if x >= math.pi / 2.0:
        return math.log(_nome_scale(x))
    s = math.exp(-y) * _nome_scale(y)
    return x + 0.5 * math.log1p(-s * s)


def product_P(r: float) -> float:
    """P(r) = prod_{n>=0} (1 + r_n)^{2^-n} over the ascending Landen sequence,
    in closed form r' e^{u(r')}; P(1) = 4, the limit, is accepted.

    Above 1/sqrt2, e^{-2u(r')} is the nome q of r', and Jacobi's series
    q = eps (1 + 2e + 15e^2 + 150e^3 + 1707e^4 + ...), e = eps^4, with
    eps = (1 - sqrt r)/(2(1 + sqrt r)) = r'^2/m^2, m = (1 + sqrt r) sqrt(2(1 + r)),
    gives P = r'/sqrt(q) = m/sqrt(1 + 2e + ...).  There eps <= 0.044, and the
    first dropped term, 20910 e^5, is below 1e-22.
    """
    if not (0.0 < r <= 1.0):
        raise DomainError(f"r must lie in (0,1], got {r!r}")
    if r <= _SQRT_HALF:
        return math.exp(_log_P(grotzsch_u(r)))
    m = (1.0 + math.sqrt(r)) * math.sqrt(2.0 * (1.0 + r))
    e = ((1.0 - r) * (1.0 + r) / (m * m)) ** 4
    return m / math.sqrt(1.0 + e * (2.0 + e * (15.0 + e * (150.0 + e * 1707.0))))


# ---------------------------------------------------------------------------
# Auxiliary functions and constants of the modulus bounds
# ---------------------------------------------------------------------------

def fn_A(r: float) -> float:
    """A(r) = r'^2 arctan(r) / r, continuously extended to A(0)=1, A(1)=0."""
    if not (0.0 <= r <= 1.0):
        raise DomainError(f"r must lie in [0,1], got {r!r}")
    rc2 = (1.0 - r) * (1.0 + r)
    if r <= 1e-12:
        return rc2  # arctan(r)/r -> 1
    return rc2 * math.atan(r) / r


def fn_B(r: float) -> float:
    """B(r) = r'^2 ln(4/r'), continuously extended to B(0)=ln4, B(1)=0."""
    if not (0.0 <= r <= 1.0):
        raise DomainError(f"r must lie in [0,1], got {r!r}")
    rc2 = (1.0 - r) * (1.0 + r)
    if rc2 <= 0.0:
        return 0.0
    return rc2 * (_LN4 - 0.5 * math.log(rc2))


class Lemma2Constants(NamedTuple):
    """The six derived constants of the two-sided modulus bounds.

    Degenerate at a = 1/2, where c1 = c3 = 0 and c6 = c3/c1 is undefined
    (reported as nan) so parameter sweeps can include the classical endpoint.
    """

    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    c6: float


def lemma2_constants(a: float) -> Lemma2Constants:
    """c1 = (R(a) - ln 16)/2, c2 = c1/ln 4, c3 = (1 - 2a)^2/((1 - a) pi),
    c4 = e^c1, c5 = e^c2 and c6 = c3/c1, for a in (0, 1/2]; DomainError
    where c4 overflows a double, below a ~ 7.03e-4.  c1 cancels as a -> 1/2:
    its absolute error stays within 5.6e-16, so its relative error, and c6's,
    grows like (1/2 - a)^-2.  It reaches 0.43 by a = 1/2 - 1e-8; at
    a = 1/2 - 1e-10, c6 reads 1.1e-4 where the true value is 0.30."""
    c1 = (ramanujan_R(a) - _LN16) / 2.0   # 0 at a = 1/2, as R(1/2) is _LN16
    c2 = c1 / _LN4
    c3 = (1.0 - 2.0 * a) ** 2 / ((1.0 - a) * math.pi)
    if not c1 <= _LN_DBL_MAX:   # c5 = e^{c1/ln 4} follows below a ~ 5.07e-4
        raise DomainError(f"c4 = e^c1 overflows a double at a = {a!r}")
    return Lemma2Constants(c1, c2, c3, math.exp(c1), math.exp(c2), c3 / c1 if c1 else math.nan)

"""Scalar special functions and named constants.

Complete elliptic integrals via the arithmetic-geometric mean, the
symmetric Gauss hypergeometric series F(a, 1-a; 1; x), the digamma
function, and the handful of constants the bound formulas need.
Everything here is pure, scalar, double precision.
"""
from __future__ import annotations

import math

__all__ = ["APERY_A", "EULER_GAMMA", "LANDAU_C", "ZETA3", "DomainError", "agm", "digamma",
           "elliptic_e", "elliptic_k", "elliptic_ka", "gauss_2f1_sym", "landau_constant",
           "ramanujan_R"]

_EPS = 2.220446049250313e-16

# Stored to full double precision; the test suite recomputes each one
# from an independent route (quadrature, series acceleration, gamma).
EULER_GAMMA = 0.5772156649015329          # -psi(1)
LANDAU_C = 4.376879230452953              # Gamma(1/4)^4 / (4 pi^2)
ZETA3 = 1.2020569031595942                # zeta(3)
APERY_A = 16.82879664423432               # 14 * zeta(3)
_LN16 = math.log(16.0)                    # R(1/2)


class DomainError(ValueError):
    """Argument outside a function's mathematical domain."""


# ---------------------------------------------------------------------------
# AGM and complete elliptic integrals
# ---------------------------------------------------------------------------

def agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean of two positive finite numbers.

    The iterates' products lie in [ab, ((a+b)/2)^2]: where ab is a normal
    double and a + b < 2^512, the loop never leaves the normal doubles.  Other
    pairs take steps (a/2 + b/2, sqrt(a) sqrt(b)), which stay in the doubles,
    until they lie within 2^1000 of each other (two steps at most), and then
    agm(a, b) = 2^e agm(2^-e a, 2^-e b), exact for a power of two.
    """
    if not (2.0 ** -1022 <= a * b and 0.0 < a + b < 2.0 ** 512):
        if not (0.0 < a < math.inf and 0.0 < b < math.inf):
            raise DomainError(f"agm requires positive finite arguments, got ({a!r}, {b!r})")
        while min(a, b) < max(a, b) * 2.0 ** -1000:
            a, b = 0.5 * a + 0.5 * b, math.sqrt(a) * math.sqrt(b)
        e = math.frexp(max(a, b))[1]
        return math.ldexp(agm(math.ldexp(a, -e), math.ldexp(b, -e)), e)
    # M(a, b) = m (1 - h^2/4 - 5h^4/64 - ...) with m = (a+b)/2, h = (a-b)/(a+b):
    # once |a - b| <= 2^-26 a, m is M to within 2^-56 relative.  Ordered once,
    # a - b needs no abs(): rounding puts the mean below the geometric mean
    # only where they agree to a few ulps, and there the loop stops either way
    if a < b:
        a, b = b, a
    while a - b > 2.0 ** -26 * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def elliptic_k(r: float) -> float:
    """Complete elliptic integral of the first kind, modulus convention.

    kappa(r) = integral_0^{pi/2} dt / sqrt(1 - r^2 sin^2 t) = pi / (2 agm(1, r')).
    """
    if not (0.0 <= r < 1.0):
        raise DomainError(f"r must lie in [0,1), got {r!r}")
    return math.pi / (2.0 * agm(1.0, math.sqrt((1.0 - r) * (1.0 + r))))


def elliptic_e(r: float) -> float:
    """Complete elliptic integral of the second kind (modulus convention).

    Computed from the AGM c_n-sum: E = K * (1 - sum_n 2^{n-1} c_n^2).  Within
    4 ulps of mpmath up to r = 0.99 (2.4 at worst on [0, 1/sqrt 2]); toward
    1 that sum cancels, and the error reaches 24 ulps (5.3e-15 relative).
    """
    if not (0.0 <= r <= 1.0):
        raise DomainError(f"r must lie in [0,1], got {r!r}")
    if r == 1.0:
        return 1.0
    a, b = 1.0, math.sqrt(1.0 - r * r)
    c = r
    csum = 0.5 * c * c
    pow2 = 0.5
    # not agm's 2^-26 stop: the c-sum still reads the next terms' 2^n c_n^2
    while abs(a - b) > 4.0 * _EPS * a:
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        pow2 *= 2.0
        csum += pow2 * c * c
    return (math.pi / (2.0 * (0.5 * (a + b)))) * (1.0 - csum)


# ---------------------------------------------------------------------------
# Symmetric hypergeometric series F(a, 1-a; 1; x)
# ---------------------------------------------------------------------------

def _2f1_sym_series(a: float, x: float) -> float:
    # Direct term recurrence, used for x <= 1/2 (under 50 terms there): the
    # k-th term is the last times t x/k^2, t = (a+k-1)(k-a) = k(k-1) + a(1-a),
    # which steps by 2k.
    term = 1.0
    total = 1.0
    t = a * (1.0 - a)
    k = 1.0
    while True:
        term *= t / (k * k) * x
        total += term
        if term < 1e-16 * total:
            return total
        t += 2.0 * k
        k += 1.0
        if k > 20_000_000.0:  # pragma: no cover - unreachable for x <= 1/2
            raise RuntimeError("hypergeometric series failed to converge")


def _2f1_pair(a: float, x: float, ra: float) -> tuple[float, float]:
    # (F(x), B(x)) for x <= 1/2 from one loop, given ra = R(a): F = sum p_n x^n
    # and B = sum p_n b_n x^n, p_n = (a)_n (1-a)_n / (n!)^2,
    # b_n = 2 psi(n+1) - psi(a+n) - psi(1-a+n), so b_0 = R(a) and
    # b_k = b_{k-1} + 2/k - 1/(a+k-1) - 1/(k-a).  With c = a(1-a) and
    # t = (a+k-1)(k-a) = k(k-1) + c, which steps by 2k, p_k = p_{k-1} t x/k^2,
    # the pair is (2k-1)/t and the step (2c - k)/(k t): one division, no
    # cancellation.  Every term is positive (b_n > 0), and DLMF 15.8.10 gives
    # F(1-x) = (sin(pi a)/pi)(B - F ln x).
    # b_n -> 0 like 1/n, so a stop on the B terms alone would end F early.
    p = 1.0
    b = ra
    f = 1.0
    g = b
    t = a * (1.0 - a)
    c2 = 2.0 * t
    k = 1.0
    while True:
        p *= t / (k * k) * x
        b += (c2 - k) / (k * t)
        f += p
        g += p * b
        if p < 1e-17 * f and p * b < 1e-17 * g:
            return f, g
        t += 2.0 * k
        k += 1.0
        if k > 500.0:  # pragma: no cover - x <= 1/2 converges in under 50 terms
            raise RuntimeError("hypergeometric series failed to converge")


def _2f1_sym(a: float, x: float, y: float, ra: float) -> float:
    """F(a, 1-a; 1; x) given x, its complement y = 1 - x and ra = R(a).

    The series runs for y >= 1/2, where x <= 1/2, and the connection sum for
    y < 1/2, a = 1/2 included; whichever of x and y a caller computes as 1
    minus the other is exact (Sterbenz) in the branch that reads it.
    """
    if y >= 0.5:
        return _2f1_sym_series(a, x)
    f, g = _2f1_pair(a, y, ra)
    return math.sin(math.pi * a) / math.pi * (g - f * math.log(y))


def gauss_2f1_sym(a: float, x: float) -> float:
    """Gauss hypergeometric F(a, 1-a; 1; x) for a in (0, 1/2], x in [0, 1)."""
    ra = ramanujan_R(a)
    if not (0.0 <= x < 1.0):
        raise DomainError(f"x must lie in [0,1), got {x!r}")
    return _2f1_sym(a, x, 1.0 - x, ra)


def elliptic_ka(a: float, r: float) -> float:
    """Generalized complete elliptic integral kappa_a(r) = (pi/2) F(a,1-a;1;r^2)."""
    ra = ramanujan_R(a)
    if not (0.0 <= r < 1.0):
        raise DomainError(f"r must lie in [0,1), got {r!r}")
    return math.pi / 2.0 * _2f1_sym(a, r * r, (1.0 - r) * (1.0 + r), ra)


# ---------------------------------------------------------------------------
# Digamma and constants
# ---------------------------------------------------------------------------

def _psi_tail(x: float) -> float:
    """ln x - psi(x) = 1/(2x) + sum_{k=1}^{9} B_2k / (2k x^2k) for x >= 8, by
    Horner in x^-2; the first dropped term, B_20 / (20 x^20), is 2.3e-17."""
    z = 1.0 / (x * x)
    return 0.5 / x + z * (1.0 / 12.0 + z * (-1.0 / 120.0 + z * (1.0 / 252.0 + z * (
        -1.0 / 240.0 + z * (1.0 / 132.0 + z * (-691.0 / 32760.0 + z * (1.0 / 12.0 + z * (
            -3617.0 / 8160.0 + z * (43867.0 / 14364.0)))))))))


def digamma(x: float) -> float:
    """psi(x) = Gamma'(x)/Gamma(x) for x > 0, to ~1e-15 absolute or 4 ulps."""
    if not (x > 0.0):
        raise DomainError(f"digamma requires x > 0, got {x!r}")
    if not (2.0 ** -1024 < x < math.inf):  # psi(x) ~ -1/x, and ~ ln x as x -> inf
        raise DomainError(f"digamma overflows a double at x = {x!r}")
    if x >= 8.0:
        return math.log(x) - _psi_tail(x)
    # psi(x) = psi(x+8) - sum_{k=0}^{7} 1/(x+k), with k paired with 8-k:
    # 1/(x+k) + 1/(x+8-k) = (2x+8)/(c + k(8-k)), c = x(x+8); 1/x stays last
    c = x * (x + 8.0)
    pairs = 1.0 / (c + 15.0) + 1.0 / (c + 12.0) + 1.0 / (c + 7.0)
    return (math.log(x + 8.0) - _psi_tail(x + 8.0) - 1.0 / (x + 4.0)
            - (2.0 * x + 8.0) * pairs) - 1.0 / x


def ramanujan_R(a: float) -> float:
    """R(a) = -2*gamma - psi(a) - psi(1-a); R(1/2) = ln 16, exactly rounded.

    With c = a(1-a), 1/(a+n) + 1/(1-a+n) = (2n+1)/(n(n+1) + c) turns the two
    digamma series (DLMF 5.7.6) into R(a) = 1/a + 1/(1-a) + S(c),
    S(c) = -sum_{n>=1} [2/n - (2n+1)/(n(n+1) + c)], analytic for |c| < 2.
    c lies in (0, 1/4], so S is its Taylor polynomial about c = 1/8 in
    t = c - 1/8: e_0 = S(1/8) and e_k = (-1)^k sum_n (2n+1)/(n(n+1) + 1/8)^(k+1).
    The dropped terms, sum_{k>=13} |e_k| 8^-k = 1.5e-16, stay below half an
    ulp of R's least value, ln 16.  Every kernel taking a checks it only
    through this call.
    """
    if not (0.0 < a <= 0.5):
        raise DomainError(f"parameter a must lie in (0, 1/2], got {a!r}")
    if math.isinf(1.0 / a):
        # R(a) ~ 1/a is no double, and every kernel taking a raises with it,
        # though u_a ~ 1/(2a) fits down to a ~ 2.8e-309 and F(a, 1-a; 1; x) ~ 1
        raise DomainError(f"R(a) ~ 1/a overflows a double below a = 1/DBL_MAX, got a={a!r}")
    if a == 0.5:
        return _LN16
    t = a * (1.0 - a) - 0.125
    s = (-1.119038573996762 + t * (-0.9072765389564271 + t * (0.340212756513385 + t * (
        -0.1510762467719422 + t * (0.06984517653058282 + t * (-0.03267829548186363 + t * (
            0.015347999236671184 + t * (-0.0072177628761759234 + t * (0.0033958125903456164 + t * (
                -0.001597902315947789 + t * (0.0007519333133339204 + t * (
                    -0.0003538475917354993 + t * 0.00016651596230996706))))))))))))
    return s + 1.0 / (1.0 - a) + 1.0 / a


def landau_constant() -> float:
    """The sharp Schottky constant C = Gamma(1/4)^4 / (4 pi^2)."""
    return LANDAU_C

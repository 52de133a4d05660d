"""60-digit mpmath reference for the Landen products: P(r), the product
form of phi_K (eq. 49, with P read at r'), and Theorem 3's product with K
and 1/K as printed or swapped (the swapped one is eta_K).

Each product is taken term by term over the exact ascending Landen moduli
r_{n+1} = 2 sqrt(r_n)/(1 + r_n), carrying the complement
r'_{n+1} = r'_n^2/(1 + r_n)^2 beside them so that no term loses it near 1.
A product is truncated at the first N where the tail sandwich
(1 + f(r_N))^{2^{1-N}} <= tail <= 2^{2^{1-N}} is narrower than 1e-50, and the
midpoint is added.  phi is u^{-1} by the Jacobi nome on whichever of s, s'
lies below 1/sqrt2.  The library evaluates the same products in closed form,
so this is the independent reference it is tested against.
"""
import mpmath as mp

DPS = 60
_TAIL = mp.mpf("1e-50")

#: (K, r) points on which the product forms are checked against this oracle
GRID = [(k, r) for k in (0.125, 0.25, 0.5, 1.25, 2.0, 4.0, 8.0)
        for r in (0.01, 0.3, 0.5, 0.9, 0.99)]


def _u(r, rc):
    return mp.pi / 2 * mp.agm(1, rc) / mp.agm(1, r)


def _u_inv(y):
    """(s, s') with u(s) = y."""
    if y < mp.pi / 2:
        sc, s = _u_inv(mp.pi ** 2 / (4 * y))
        return s, sc
    q = mp.exp(-2 * y)
    th3 = mp.jtheta(3, 0, q)
    return (mp.jtheta(2, 0, q) / th3) ** 2, (mp.jtheta(4, 0, q) / th3) ** 2


def _phi(k):
    """(r, r') -> phi_k(r)."""
    return lambda r, rc: _u_inv(_u(r, rc) / k)[0]


def _log_product(f, r, rc):
    """ln prod_{n>=0} (1 + f(r_n, r'_n))^{2^-n}."""
    logp, w = mp.mpf(0), mp.mpf(1)
    while True:
        s = f(r, rc)
        if 2 * w * mp.log(2 / (1 + s)) < _TAIL:
            return logp + w * (mp.log1p(s) + mp.log(2))
        logp += w * mp.log1p(s)
        r, rc = 2 * mp.sqrt(r) / (1 + r), rc ** 2 / (1 + r) ** 2
        w /= 2


def _pair(r):
    r = mp.mpf(r)
    return r, mp.sqrt((1 - r) * (1 + r))


def product_P(r) -> float:
    with mp.workdps(DPS):
        r, rc = _pair(r)
        return float(mp.exp(_log_product(lambda t, tc: t, r, rc)))


def phi_k_product(k, r) -> float:
    """[r/P(r')]^{1/K} prod (1 + phi_{1/K}(r'_n))^{2^-n}, over the Landen
    moduli of r'."""
    with mp.workdps(DPS):
        k = mp.mpf(k)
        r, rc = _pair(r)
        logp = _log_product(lambda t, tc: t, rc, r)
        return float(mp.exp((mp.log(r) - logp) / k
                            + _log_product(_phi(1 / k), rc, r)))


def theorem3_product(k, r, swapped: bool = False) -> float:
    """exp(2K u(r') - 2u(r)/K) prod [(1 + phi_{1/K}(r'_n))/(1 + phi_K(r_n))]^{2^{1-n}},
    or with K and 1/K swapped inside the product."""
    with mp.workdps(DPS):
        k = mp.mpf(k)
        r, rc = _pair(r)
        kn, kd = (k, 1 / k) if swapped else (1 / k, k)
        expo = 2 * k * _u(rc, r) - 2 * _u(r, rc) / k
        return float(mp.exp(expo + 2 * (_log_product(_phi(kn), rc, r)
                                        - _log_product(_phi(kd), r, rc))))

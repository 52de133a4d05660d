"""Closed-form bounds: the twice-punctured-disk metric objects, classical
and Bloch-route Schottky bounds, the elliptic-integral bound eta_K,
quasiconformal Schwarz bounds, and the Mori-type Holder quantities.
"""
from __future__ import annotations

import cmath
import math
import sys

from .special import LANDAU_C, DomainError
from .modulus import _PI2_4, _check_unit, _checked_exp, _log_P, grotzsch_u, product_P
from .distortion import _check_k

__all__ = ["BLOCH_B1", "LATTICE_GAP_D", "eta_k", "f_growth_bound", "mori_holder_bound",
           "mori_sin_bound", "qc_schwarz_bounds", "rho_lower", "schottky_F", "schottky_classical",
           "schottky_f0_window", "schottky_sf", "sigma_metric", "theorem3_sfk", "triple_angle",
           "zeta_map"]

_NORMAL_MIN = sys.float_info.min

#: Classical lower bound for Bloch's constant, sqrt(3)/4.
BLOCH_B1 = math.sqrt(3.0) / 4.0

#: Largest distance from a point of the plane to the omitted-value lattice
#: {+-ln(sqrt n + sqrt(n-1)) + 2 m pi i}: d = sqrt(pi^2 + ln^2(1+sqrt2)/4).
#: The lattice columns x = 0, +-ln(1+sqrt2), +-ln(sqrt3+sqrt2), ... are
#: 0.881, 0.265, 0.171, ... apart, shrinking outwards, and each repeats with
#: period 2 pi.  In a strip between columns g apart, the point farthest from
#: the lattice is the centre of a g x 2 pi lattice rectangle, at distance
#: sqrt(pi^2 + g^2/4) from its four corners, and no other lattice point is
#: nearer.  The widest strips, next to x = 0, give the sup, attained at
#: (ln(1+sqrt2)/2, pi).
LATTICE_GAP_D = math.hypot(math.pi, math.log1p(math.sqrt(2.0)) / 2.0)


# ---------------------------------------------------------------------------
# Branch policy: principal logarithm and square root (Re >= 0)
# ---------------------------------------------------------------------------

def _off_domain(z: complex) -> bool:
    """True for a non-finite z and for z on the branch cut [1, inf)."""
    return not cmath.isfinite(z) or (z.imag == 0.0 and z.real >= 1.0)


# ---------------------------------------------------------------------------
# Metric objects on the twice-punctured disk
# ---------------------------------------------------------------------------

def _rho(x: float) -> float:
    """rho_lower's formula for 0 < x < 1, unchecked."""
    t = LANDAU_C - math.log(x)
    d = x * t
    # a subnormal product loses bits before the reciprocal: divide twice there
    return 1.0 / d if d >= _NORMAL_MIN else 1.0 / t / x


def rho_lower(z_abs: float) -> float:
    """Lower bound 1/(|z| (C - ln|z|)) for the punctured-disk Poincare metric."""
    if not (0.0 < z_abs < 1.0):
        raise DomainError(f"|z| must lie in (0,1), got {z_abs!r}")
    rho = _rho(z_abs)
    if rho == math.inf:
        raise DomainError(f"the bound overflows a double at |z| = {z_abs!r}")
    return rho


def zeta_map(z: complex) -> complex:
    """Conformal map (w - 1)/(w + 1), w = sqrt(1-z), into the unit disk, fixing
    0 and symmetric about the real axis.  As w - 1 = -z/(1 + w) and
    (1 + w)^2 = 2(1 + w) - z exactly, it is -z/(2(1 + w) - z), which does not
    cancel near z = 0.  For |z| > 1 it is 1/(1 - 2(1 + w)/z), where
    2(1 + w)/z ~ 2/sqrt|z| is small and keeps the digits of Im zeta; the
    quotient -z/(2(1 + w) - z) loses them as |z| grows (all of them from
    |z| ~ 1e34) and overflows to NaN near the largest doubles."""
    z = complex(z)
    if _off_domain(z):
        raise DomainError(f"z must be finite and off the cut [1, inf), got {z!r}")
    w = cmath.sqrt(1.0 - z)
    if math.hypot(z.real, z.imag) <= 1.0:   # abs(z) raises OverflowError past DBL_MAX
        # 0 - z, not -z, keeps a real z's +0.0 imaginary part
        return (0.0 - z) / (2.0 * (1.0 + w) - z)
    # 0.5 z, as 2(1 + w)/z overflows inside the division near the largest
    # doubles; 1/(1 - t), not -1/(t - 1), keeps a real z's +0.0
    return 1.0 / (1.0 - (1.0 + w) / (0.5 * z))


def _sigma(z: complex) -> float:
    """sigma_metric's formula for a finite, nonzero complex z off the cut,
    unchecked; OverflowError where |z| passes the largest double."""
    w = cmath.sqrt(1.0 - z)
    # a subnormal |zeta| loses bits before the log, and a subnormal product
    # before the reciprocal: there take the log of each factor, and divide twice
    a, aw, q = abs(z), abs(w), abs(2.0 * (1.0 + w) - z)
    zeta = a / q
    t = 4.0 - (math.log(zeta) if zeta >= _NORMAL_MIN else math.log(a) - math.log(q))
    d = a * aw * t
    return 1.0 / d if d >= _NORMAL_MIN else 1.0 / (aw * t) / a


def sigma_metric(z: complex) -> float:
    """Density |zeta'(z)/zeta(z)| / (4 - ln|zeta(z)|) of the comparison metric;
    as zeta'/zeta = 1/(z w) and |zeta| = |z|/|2(1 + w) - z| (see zeta_map), it
    is 1/(|z| |w| (4 - ln(|z|/|2(1 + w) - z|)))."""
    z = complex(z)
    if z == 0 or _off_domain(z):
        raise DomainError(f"z must be finite, nonzero and off [1, inf), got {z!r}")
    try:
        sigma = _sigma(z)
    except OverflowError:  # |z| beyond the largest double: sigma ~ |z|^-1.5 is far below
        sigma = 0.0
    if not _NORMAL_MIN <= sigma < math.inf:
        what = "overflows a double" if sigma else "underflows below the smallest normal double"
        raise DomainError(f"the density {what} at z = {z}")
    return sigma


# ---------------------------------------------------------------------------
# Schottky bounds
# ---------------------------------------------------------------------------

def schottky_classical(ln_f0: float, z_abs: float) -> float:
    """Sharp classical upper bound for ln|f(z)|:
    [C + m] (1+|z|)/(1-|z|) - C with m = max(ln|f(0)|, 0), taken as
    [m (1+|z|) + 2C|z|]/(1-|z|), which does not cancel near |z| = 0."""
    if not (0.0 <= z_abs < 1.0):
        raise DomainError(f"|z| must lie in [0,1), got {z_abs!r}")
    if not math.isfinite(ln_f0):
        raise DomainError(f"ln|f(0)| must be finite, got {ln_f0!r}")
    bound = (max(ln_f0, 0.0) * (1.0 + z_abs) + 2.0 * LANDAU_C * z_abs) / (1.0 - z_abs)
    if bound == math.inf:
        raise DomainError(f"the bound overflows a double at ln|f(0)| = {ln_f0!r}, |z| = {z_abs!r}")
    return bound


def schottky_F(w: complex) -> complex:
    """F(w) = (1/2) ln[1 + 2 sqrt(q (1-q))], q = ln(w)/(2 pi i), for w not 0 or 1."""
    w = complex(w)
    if w == 0 or w == 1 or not cmath.isfinite(w):
        raise DomainError(f"w must be finite and avoid the omitted values 0 and 1, got {w!r}")
    q = cmath.log(w) / (2.0j * math.pi)
    return 0.5 * cmath.log(1.0 + 2.0 * cmath.sqrt(q * (1.0 - q)))


def schottky_sf(f_abs: float) -> float:
    """S_f = exp(pi e^{2|F|}) for f_abs = |F|; DomainError where S_f
    overflows a double, from |F| ~ 2.71."""
    if not (f_abs >= 0.0):
        raise DomainError(f"|F| must be nonnegative, got {f_abs!r}")
    try:
        sf = math.exp(math.pi * math.exp(2.0 * f_abs))   # an infinite |F| gives inf
    except OverflowError:
        sf = math.inf
    if sf == math.inf:
        raise DomainError(f"S_f overflows a double at |F| = {f_abs!r}")
    return sf


def f_growth_bound(f_abs: float, theta: float = 0.0) -> float:
    """Bloch-route growth bound |F(z)| <= |F(0)| + (d/B1) ln(1/(1-theta)),
    f_abs = |F(0)|, d = LATTICE_GAP_D, B1 = BLOCH_B1; the log is
    -log1p(-theta), which keeps its digits at small theta.  The second term
    is below 7.33 * 53 ln 2 < 270, so a finite |F(0)| gives a finite bound."""
    if not (0.0 <= theta < 1.0):
        raise DomainError(f"theta must lie in [0,1), got {theta!r}")
    if not (0.0 <= f_abs < math.inf):
        raise DomainError(f"|F(0)| must be finite and nonnegative, got {f_abs!r}")
    return f_abs + LATTICE_GAP_D / BLOCH_B1 * -math.log1p(-theta)


def schottky_f0_window(alpha: float, beta: float) -> float:
    """|ln|f(0)|| window ln(beta) - ln(alpha) after normalizing to alpha < 1 < beta:
    alpha >= 1 is replaced by 1/(alpha+1), beta <= 1 by beta + 1."""
    if not (0.0 < alpha < math.inf and 0.0 < beta < math.inf):
        raise DomainError(f"alpha and beta must be positive and finite, got {alpha!r}, {beta!r}")
    if alpha >= 1.0:
        alpha = 1.0 / (alpha + 1.0)
    if beta <= 1.0:
        beta = beta + 1.0
    return math.log(beta) - math.log(alpha)


# ---------------------------------------------------------------------------
# Elliptic-integral bound eta_K and its product form
# ---------------------------------------------------------------------------

def _landen_bound(k: float, r: float, printed: bool) -> float:
    """[P(s)/P(t)]^2 exp(2K u(r') - 2u(r)/K) with (s, t) = (phi_K(r'), phi_{1/K}(r)),
    or (phi_{1/K}(r'), phi_K(r)) as printed; u(r') = pi^2/(4u(r)) exactly.
    A value beyond the doubles, above the largest or below the smallest
    normal one, raises DomainError."""
    _check_unit(r)
    _check_k(k)
    w = grotzsch_u(r)
    v = _PI2_4 / w
    us, ut = (k * v, w / k) if printed else (v / k, k * w)
    x = 2.0 * (_log_P(us) - _log_P(ut)) + 2.0 * k * v - 2.0 * w / k
    return _checked_exp(x, "the bound", k, r)


def eta_k(k: float, r: float) -> float:
    """eta_K(r) = [P(s)/P(s')]^2 exp(2K u(r') - 2u(r)/K), s = phi_K(r'), taking
    s' = phi_{1/K}(r) from the identity phi_K(r')^2 + phi_{1/K}(r)^2 = 1.
    As P(s) = s' e^{u(s')} = s' e^{K u(r)} and P(s') = s e^{u(r')/K}, it is
    the closed form (phi_{1/K}(r)/phi_K(r'))^2 e^{2(K-1/K)(u(r)+u(r'))}."""
    return _landen_bound(k, r, printed=False)


def theorem3_sfk(k: float, r: float) -> float:
    """The literal product form
    exp(2K u(r') - 2u(r)/K) prod [(1+phi_{1/K}(r_n'))/(1+phi_K(r_n))]^{2^{1-n}},
    with both Landen sequences ascending from r and r' respectively.  phi
    commutes with Landen, so the product is [P(phi_{1/K}(r'))/P(phi_K(r))]^2:
    eta_K with K and 1/K swapped inside."""
    return _landen_bound(k, r, printed=True)


# ---------------------------------------------------------------------------
# Quasiconformal Schwarz bounds
# ---------------------------------------------------------------------------

def _check_k_ge_1(k: float) -> None:
    if not (1.0 <= k < math.inf):
        raise DomainError(f"K must be finite and >= 1, got {k!r}")


def qc_schwarz_bounds(k: float, z_abs: float) -> tuple[float, float]:
    """Two-sided Schwarz bound (|z|^K P(|z|')^{1-K}, |z|^{1/K} P(|z|')^{1-1/K})
    for |f(z) - f(0)| under a K-quasiconformal self-map of the disk, K >= 1.
    P is read at |z|' = sqrt(1 - |z|^2): the Hersch-Pfluger extremal, a K-qc
    self-map fixing 0, takes |z| to phi_K(|z|) and its inverse takes it to
    phi_{1/K}(|z|), so the bounds must enclose both.  The power form is
    (|z|, |z|) at K = 1 and finite where |z| e^{(1-1/K)u(|z|)} overflows."""
    _check_k_ge_1(k)
    _check_unit(z_abs)
    p = product_P(math.sqrt((1.0 - z_abs) * (1.0 + z_abs)))
    lo = z_abs ** k * p ** (1.0 - k)
    if lo < _NORMAL_MIN:
        raise DomainError(f"the lower bound underflows below the smallest "
                          f"normal double at K = {k!r}, |z| = {z_abs!r}")
    return lo, z_abs ** (1.0 / k) * p ** (1.0 - 1.0 / k)


# ---------------------------------------------------------------------------
# Mori-type quantities
# ---------------------------------------------------------------------------

def triple_angle(z0: complex, z1: complex, z2: complex,
                 w0: complex, w1: complex, w2: complex) -> tuple[float, float]:
    """Angles alpha = arcsin(|z2-z1|/(|z2-z0|+|z1-z0|)) for the source triple
    z0, z1, z2 and beta for the image triple w0, w1, w2; both lie in (0, pi/2]."""

    def ang(p0: complex, p1: complex, p2: complex) -> float:
        if p0 == p1 or p0 == p2 or p1 == p2:
            raise DomainError(f"triple points must be pairwise distinct, got {(p0, p1, p2)!r}")
        span = abs(p2 - p0) + abs(p1 - p0)   # not finite for a NaN or infinite point
        if not span < math.inf:
            raise DomainError("triple points must be finite, and so must their distances, "
                              f"got {(p0, p1, p2)!r}")
        return math.asin(min(1.0, abs(p2 - p1) / span))  # triangle inequality: ratio <= 1

    return ang(z0, z1, z2), ang(w0, w1, w2)


def mori_sin_bound(k: float, alpha: float) -> float:
    """Raw angular bound 2^{1-1/K} sin^{1/K}(alpha); may exceed 1."""
    _check_k_ge_1(k)
    if not (0.0 < alpha <= math.pi / 2.0):
        raise DomainError(f"alpha must lie in (0, pi/2], got {alpha!r}")
    return 2.0 ** (1.0 - 1.0 / k) * math.sin(alpha) ** (1.0 / k)


def mori_holder_bound(k: float, dz_abs: float, variant: str = "sixteen") -> float:
    """Holder bound c^{1-1/K} |z2-z1|^{1/K} with c = 16 or 64."""
    _check_k_ge_1(k)
    if not (0.0 <= dz_abs < math.inf):
        raise DomainError(f"|z2-z1| must be finite and nonnegative, got {dz_abs!r}")
    if variant == "sixteen":
        c = 16.0
    elif variant == "sixtyfour":
        c = 64.0
    else:
        raise DomainError(f"unknown variant {variant!r}")
    return c ** (1.0 - 1.0 / k) * dz_abs ** (1.0 / k)

"""Closed-form bounds: the twice-punctured-disk metric objects, classical
and Bloch-route Schottky bounds, the elliptic-integral bound eta_K,
quasiconformal Schwarz bounds, and the Mori-type Holder quantities.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .special import LANDAU_C, DomainError
from .modulus import _PI2_4, _check_unit, _checked_exp, _log_P, grotzsch_u, product_P
from .distortion import _check_k

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


@dataclass(frozen=True)
class BoundConfig:
    """Constants feeding the Bloch-route growth bound."""

    bloch_lower: float = BLOCH_B1
    lattice_gap_d: float = LATTICE_GAP_D
    theta: float = 0.0

    def __post_init__(self):
        if not (self.bloch_lower > 0.0 and self.lattice_gap_d > 0.0):
            raise DomainError("bloch_lower and lattice_gap_d must be positive")
        if not (0.0 <= self.theta < 1.0):
            raise DomainError("theta must lie in [0,1)")


# ---------------------------------------------------------------------------
# Branch policy: principal logarithm and square root (Re >= 0)
# ---------------------------------------------------------------------------

def _off_domain(z: complex) -> bool:
    """True for a non-finite z and for z on the branch cut [1, inf)."""
    return not cmath.isfinite(z) or (z.imag == 0.0 and z.real >= 1.0)


# ---------------------------------------------------------------------------
# Metric objects on the twice-punctured disk
# ---------------------------------------------------------------------------

def rho_lower(z_abs: float) -> float:
    """Lower bound 1/(|z| (C - ln|z|)) for the punctured-disk Poincare metric."""
    if not (0.0 < z_abs < 1.0):
        raise DomainError(f"domain error: |z| must lie in (0,1), got {z_abs!r}")
    return 1.0 / (z_abs * (LANDAU_C - math.log(z_abs)))


def zeta_map(z: complex) -> complex:
    """Conformal map (w - 1)/(w + 1), w = sqrt(1-z), into the unit disk, fixing
    0 and symmetric about the real axis.  As w - 1 = -z/(1 + w) and
    (1 + w)^2 = 2(1 + w) - z exactly, it is -z/(2(1 + w) - z), which does not
    cancel near z = 0."""
    z = complex(z)
    if _off_domain(z):
        raise DomainError("domain error: z must be finite and off the cut [1, inf)")
    # 0 - z, not -z, keeps a real z's +0.0 imaginary part
    return (0.0 - z) / (2.0 * (1.0 + cmath.sqrt(1.0 - z)) - z)


def sigma_metric(z: complex) -> float:
    """Density |zeta'(z)/zeta(z)| / (4 - ln|zeta(z)|) of the comparison metric;
    as zeta'/zeta = 1/(z w) and |zeta| = |z|/|2(1 + w) - z| (see zeta_map), it
    is 1/(|z| |w| (4 - ln(|z|/|2(1 + w) - z|)))."""
    z = complex(z)
    if z == 0 or _off_domain(z):
        raise DomainError("domain error: z must be finite, nonzero and off [1, inf)")
    w = cmath.sqrt(1.0 - z)
    a = abs(z)
    return 1.0 / (a * abs(w) * (4.0 - math.log(a / abs(2.0 * (1.0 + w) - z))))


# ---------------------------------------------------------------------------
# Schottky bounds
# ---------------------------------------------------------------------------

def schottky_classical(ln_f0: float, z_abs: float) -> float:
    """Sharp classical upper bound for ln|f(z)|:
    [C + max(ln|f(0)|, 0)] (1+|z|)/(1-|z|) - C."""
    if not (0.0 <= z_abs < 1.0):
        raise DomainError("domain error: |z| must lie in [0,1)")
    return (LANDAU_C + max(ln_f0, 0.0)) * (1.0 + z_abs) / (1.0 - z_abs) - LANDAU_C


def schottky_F(w: complex) -> complex:
    """F(w) = (1/2) ln[1 + 2 sqrt(q (1-q))], q = ln(w)/(2 pi i), for w not 0 or 1."""
    w = complex(w)
    if w == 0 or w == 1:
        raise DomainError("domain error: w must avoid the omitted values 0 and 1")
    q = cmath.log(w) / (2.0j * math.pi)
    return 0.5 * cmath.log(1.0 + 2.0 * cmath.sqrt(q * (1.0 - q)))


def schottky_sf(f_abs: float) -> float:
    """S_f = exp(pi e^{2|F|}) for f_abs = |F|; returns inf on overflow."""
    if not (f_abs >= 0.0):
        raise DomainError("domain error: |F| must be nonnegative")
    try:
        return math.exp(math.pi * math.exp(2.0 * f_abs))
    except OverflowError:
        return math.inf


def f_growth_bound(f0_abs_F: float, cfg: BoundConfig | None = None) -> float:
    """Bloch-route growth bound |F(z)| <= |F(0)| + (d/B1) ln(1/(1-theta))."""
    if not (0.0 <= f0_abs_F < math.inf):
        raise DomainError("domain error: |F(0)| must be finite and nonnegative")
    if cfg is None:
        cfg = BoundConfig()
    return f0_abs_F + cfg.lattice_gap_d / cfg.bloch_lower * math.log(1.0 / (1.0 - cfg.theta))


def schottky_f0_window(alpha: float, beta: float) -> float:
    """|ln|f(0)|| window ln(beta) - ln(alpha) after normalizing to alpha < 1 < beta:
    alpha >= 1 is replaced by 1/(alpha+1), beta <= 1 by beta + 1."""
    if not (alpha > 0.0 and beta > 0.0):
        raise DomainError("domain error: alpha and beta must be positive")
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
    s' = phi_{1/K}(r) from the identity phi_K(r')^2 + phi_{1/K}(r)^2 = 1."""
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

def qc_schwarz_bounds(k: float, z_abs: float) -> tuple[float, float]:
    """Two-sided Schwarz bound (|z|^K P(|z|)^{1-K}, |z|^{1/K} P(|z|)^{1-1/K})
    for |f(z) - f(0)| under a K-quasiconformal self-map, K >= 1."""
    if not (1.0 <= k < math.inf):
        raise DomainError(f"domain error: K must be finite and >= 1, got {k!r}")
    _check_unit(z_abs)
    if k == 1.0:
        return z_abs, z_abs
    p = product_P(z_abs)
    return z_abs ** k * p ** (1.0 - k), z_abs ** (1.0 / k) * p ** (1.0 - 1.0 / k)


# ---------------------------------------------------------------------------
# Mori-type quantities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TriplePoints:
    """Three pairwise-distinct points of the plane."""

    z0: complex
    z1: complex
    z2: complex

    def __post_init__(self):
        if self.z0 == self.z1 or self.z0 == self.z2 or self.z1 == self.z2:
            raise DomainError("triple points must be pairwise distinct")


def triple_angle(points: TriplePoints, images: TriplePoints) -> tuple[float, float]:
    """Angles alpha = arcsin(|z2-z1|/(|z2-z0|+|z1-z0|)) for the source triple
    and beta for the image triple; both lie in (0, pi/2]."""

    def ang(t: TriplePoints) -> float:
        ratio = abs(t.z2 - t.z1) / (abs(t.z2 - t.z0) + abs(t.z1 - t.z0))
        return math.asin(min(1.0, ratio))  # triangle inequality keeps ratio <= 1

    return ang(points), ang(images)


def _check_alpha(alpha: float) -> float:
    if not (0.0 < alpha <= math.pi / 2.0):
        raise DomainError(f"domain error: alpha must lie in (0, pi/2], got {alpha!r}")
    return alpha


def mori_h(k: float, alpha: float) -> float:
    """H(K, alpha) = sin(alpha)^{-1/K}."""
    if not (k > 0.0):
        raise DomainError("domain error: K must be positive")
    _check_alpha(alpha)
    return math.sin(alpha) ** (-1.0 / k)


def mori_sin_bound(k: float, alpha: float) -> float:
    """Raw angular bound 2^{1-1/K} sin^{1/K}(alpha); may exceed 1 (see the
    clamped accessor)."""
    if not (k >= 1.0):
        raise DomainError("domain error: K must be >= 1")
    _check_alpha(alpha)
    return 2.0 ** (1.0 - 1.0 / k) * math.sin(alpha) ** (1.0 / k)


def mori_sin_bound_clamped(k: float, alpha: float) -> float:
    """mori_sin_bound clamped to 1, usable as a sine."""
    return min(1.0, mori_sin_bound(k, alpha))


def mori_holder_bound(k: float, dz_abs: float, variant: str = "sixteen") -> float:
    """Holder bound c^{1-1/K} |z2-z1|^{1/K} with c = 16 or 64."""
    if not (k >= 1.0):
        raise DomainError("domain error: K must be >= 1")
    if not (dz_abs >= 0.0):
        raise DomainError("domain error: |z2-z1| must be nonnegative")
    if variant == "sixteen":
        c = 16.0
    elif variant == "sixtyfour":
        c = 64.0
    else:
        raise DomainError(f"unknown variant {variant!r}")
    return c ** (1.0 - 1.0 / k) * dz_abs ** (1.0 / k)

"""Hersch-Pfluger distortion function phi_K, its generalization, the
infinite-product representation, partial derivatives, and the auxiliary
monotone function f_K.

u halves at each ascending Landen step, so phi_{1/K}(r_n) are the Landen
moduli of phi_{1/K}(r), and prod (1 + phi_{1/K}(r_n))^{2^-n} = P(phi_{1/K}(r)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .special import DomainError, _2f1_sym, _check_param_a
from .modulus import _LN_NORMAL_MIN, _check_unit, _invert_ua, _log_P, _ra, _ua, grotzsch_u


@dataclass(frozen=True)
class PhiResult:
    """A distortion value together with the achieved inversion residual
    |u_a(value) - u_a(r)/K| (u-space units)."""

    value: float
    residual: float


def _check_k(k: float) -> float:
    if not (k > 0.0) or not math.isfinite(k):
        raise DomainError(f"dilatation must be positive, got {k!r}")
    return k


def phi_k(k: float, r: float) -> PhiResult:
    """phi_K(r) = u^{-1}(u(r)/K): the radius a K-quasiconformal self-map of
    the disk can carry |z| = r to."""
    return phi_ka(0.5, k, r)


def phi_ka(a: float, k: float, r: float) -> PhiResult:
    """Generalized distortion u_a^{-1}(u_a(r)/K); a = 1/2 recovers phi_k."""
    return _phi_and_ra(a, k, r)[0]


def _phi_and_ra(a: float, k: float, r: float) -> tuple[PhiResult, float]:
    """phi_ka and R(a): one R(a) serves the forward u_a(r), its inverse and
    the F factors of the partials."""
    _check_param_a(a)
    _check_k(k)
    _check_unit(r)
    ra = _ra(a)
    if k == 1.0:
        return PhiResult(value=r, residual=0.0), ra
    value, residual = _invert_ua(a, _ua(a, r, ra) / k, ra)
    return PhiResult(value=value, residual=residual), ra


def phi_k_product(k: float, r: float) -> float:
    """The product representation [r/P(r)]^{1/K} prod (1+phi_{1/K}(r_n))^{2^-n}
    as printed, which is [r/P(r)]^{1/K} P(phi_{1/K}(r)) exactly; at K = 1 it
    collapses to r exactly (the product cancels the prefactor).  A value
    below the smallest normal double raises DomainError, as phi_k does.
    """
    _check_k(k)
    _check_unit(r)
    if k == 1.0:
        return r
    w = grotzsch_u(r)
    x = (math.log(r) - _log_P(w)) / k + _log_P(k * w)
    if x < _LN_NORMAL_MIN:
        raise DomainError(f"domain error: the product underflows below the smallest "
                          f"normal double at K = {k!r}, r = {r!r}")
    return math.exp(x)


def phi_partial_r(a: float, k: float, r: float) -> float:
    """d phi_K(a, r) / d r = (s/(K r)) [s' F(a,1-a;1;s^2) / (r' F(a,1-a;1;r^2))]^2
    with s = phi_K(a, r)."""
    phi, ra = _phi_and_ra(a, k, r)
    s = phi.value
    sc2 = (1.0 - s) * (1.0 + s)
    rc2 = (1.0 - r) * (1.0 + r)
    num = math.sqrt(sc2) * _2f1_sym(a, s * s, sc2, ra)
    den = math.sqrt(rc2) * _2f1_sym(a, r * r, rc2, ra)
    return s / (k * r) * (num / den) ** 2


def phi_partial_k(a: float, k: float, r: float) -> float:
    """d phi_K(a, r) / d K = pi/(2 K sin(pi a)) * s s'^2 F(a,1-a;1;s^2) F(a,1-a;1;s'^2)
    with s = phi_K(a, r)."""
    phi, ra = _phi_and_ra(a, k, r)
    s = phi.value
    sc2 = (1.0 - s) * (1.0 + s)
    return (math.pi / (2.0 * k * math.sin(math.pi * a))
            * s * sc2 * _2f1_sym(a, s * s, sc2, ra) * _2f1_sym(a, sc2, s * s, ra))


def lemma3_fk(a: float, k: float, r: float, literal: bool = False) -> float:
    """Auxiliary function phi_K(a, r) * r^{-1/K} (monotone decreasing for K > 1).

    With ``literal`` set, returns phi_K(a, r) * r^{+1/K} instead, the form as
    printed; that form is increasing on (0,1) for K > 1 (endpoint limits 0 and
    1), so the sign-corrected exponent is the default.
    """
    s = phi_ka(a, k, r).value
    expo = 1.0 / k if literal else -1.0 / k
    return s * r ** expo

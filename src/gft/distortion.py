"""Hersch-Pfluger distortion function phi_K, its generalization, the
infinite-product representation, partial derivatives, and the auxiliary
monotone function f_K.

u halves at each ascending Landen step, so phi_{1/K}(r_n) are the Landen
moduli of phi_{1/K}(r), and prod (1 + phi_{1/K}(r_n))^{2^-n} = P(phi_{1/K}(r)).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .special import DomainError, _2f1_sym, _check_param_a
from .modulus import _check_unit, _checked_exp, _invert_ua, _log_P, _ra, _ua, grotzsch_u


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
    s, _, residual, _ = _phi_parts(a, k, r)
    return PhiResult(value=s, residual=residual)


def _phi_parts(a: float, k: float, r: float) -> tuple[float, float, float, float]:
    """(s, s', residual, R(a)) for s = phi_K(a, r), with s' as the inverse
    solved it; one R(a) serves the forward u_a(r), its inverse and the F
    factors of the partials."""
    _check_param_a(a)
    _check_k(k)
    _check_unit(r)
    ra = _ra(a)
    if k == 1.0:
        return r, math.sqrt((1.0 - r) * (1.0 + r)), 0.0, ra
    return (*_invert_ua(a, _ua(a, r, ra) / k, ra), ra)


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
    return _checked_exp((math.log(r) - _log_P(w)) / k + _log_P(k * w), "the product", k, r)


def _neg_inv_du(a: float, x: float, xc2: float, ra: float, k: float, r: float) -> float:
    """-1/u_a'(x) = x x'^2 F(a,1-a;1;x^2)^2, xc2 = x'^2; DomainError where it underflows."""
    if xc2 < sys.float_info.min:
        raise DomainError(f"domain error: 1 - phi^2 underflows below the smallest "
                          f"normal double at K = {k!r}, r = {r!r}")
    return x * xc2 * _2f1_sym(a, x * x, xc2, ra) ** 2


def phi_partial_r(a: float, k: float, r: float) -> float:
    """d phi_K(a, r) / d r = u_a'(r) / (K u_a'(s)) with s = phi_K(a, r), whose
    complement s' the inverse hands over, so it keeps its digits as s -> 1."""
    s, sc, _, ra = _phi_parts(a, k, r)
    rc2 = (1.0 - r) * (1.0 + r)
    return _neg_inv_du(a, s, sc * sc, ra, k, r) / (k * _neg_inv_du(a, r, rc2, ra, k, r))


def phi_partial_k(a: float, k: float, r: float) -> float:
    """d phi_K(a, r) / d K = -u_a(s) / (K u_a'(s)), u_a(s) = u_a(r)/K, s = phi_K(a, r)."""
    s, sc, _, ra = _phi_parts(a, k, r)
    return _ua(a, r, ra) / (k * k) * _neg_inv_du(a, s, sc * sc, ra, k, r)


def lemma3_fk(a: float, k: float, r: float, literal: bool = False) -> float:
    """Auxiliary function phi_K(a, r) * r^{-1/K} (monotone decreasing for K > 1).

    With ``literal`` set, returns phi_K(a, r) * r^{+1/K} instead, the form as
    printed; that form is increasing on (0,1) for K > 1 (endpoint limits 0 and
    1), so the sign-corrected exponent is the default.
    """
    s = phi_ka(a, k, r).value
    expo = 1.0 / k if literal else -1.0 / k
    return s * r ** expo

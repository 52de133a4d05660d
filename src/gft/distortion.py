"""Hersch-Pfluger distortion function phi_K, its generalization, the
infinite-product representation, partial derivatives, and the auxiliary
monotone function f_K.

u halves at each ascending Landen step, so phi_{1/K}(r'_n) are the Landen
moduli of phi_{1/K}(r'), and prod (1 + phi_{1/K}(r'_n))^{2^-n} = P(phi_{1/K}(r')).
"""
from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .special import DomainError, _2f1_sym, ramanujan_R
from .modulus import (
    _PI2_4, _check_unit, _checked_exp, _inverse_residual, _invert_ua, _log_P, _ua, grotzsch_u,
)

__all__ = ["PhiResult", "lemma3_fk", "phi_k", "phi_k_product", "phi_ka", "phi_partial_k",
           "phi_partial_r"]


class PhiResult(NamedTuple):
    """A distortion value together with the achieved inversion residual
    |u_a(value) - u_a(r)/K| (u-space units), measured on the complement for
    a root solved there (see modulus._inverse_residual)."""

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
    s, sc, u, ra = _phi_parts(a, k, r)
    residual = 0.0 if u is None else _inverse_residual(a, u / k, ra, s, sc)
    return PhiResult(value=s, residual=residual)


def _phi_parts(a: float, k: float, r: float) -> tuple[float, float, float | None, float]:
    """(s, s', u_a(r), R(a)) for s = phi_K(a, r), with s' as the inverse
    solved it; one R(a) serves the forward u_a(r), its inverse and the F
    factors of the partials.  At K = 1, s = r and u_a(r) is not formed (None).
    Only phi_ka forms a residual: the other callers read the value."""
    ra = ramanujan_R(a)
    _check_k(k)
    _check_unit(r)
    if k == 1.0:
        return r, math.sqrt((1.0 - r) * (1.0 + r)), None, ra
    u = _ua(a, r, ra)
    return (*_invert_ua(a, u / k, ra), u, ra)


def phi_k_product(k: float, r: float) -> float:
    """The product representation [r/P(r')]^{1/K} prod (1+phi_{1/K}(r'_n))^{2^-n},
    which is [r/P(r')]^{1/K} P(phi_{1/K}(r')) and equals phi_K(r): P is read
    at r', as the Hersch-Pfluger extremal requires.  The prefactor keeps
    P(r') as printed, not folded to e^{-u(r)/K} by P(r') = r e^{u(r)}.  At
    K = 1 it is r exactly.  A value below the smallest normal double raises
    DomainError, as phi_k does.
    """
    _check_k(k)
    _check_unit(r)
    if k == 1.0:
        return r
    v = _PI2_4 / grotzsch_u(r)  # u(r')
    return _checked_exp((math.log(r) - _log_P(v)) / k + _log_P(k * v), "the product", k, r)


def _neg_inv_du(a: float, x: float, xc2: float, ra: float, k: float, r: float) -> float:
    """-1/u_a'(x) = x x'^2 F(a,1-a;1;x^2)^2, xc2 = x'^2; DomainError where it underflows."""
    if xc2 < sys.float_info.min:
        raise DomainError(f"1 - phi^2 underflows below the smallest "
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
    s, sc, u, ra = _phi_parts(a, k, r)
    u = _ua(a, r, ra) if u is None else u
    return u / (k * k) * _neg_inv_du(a, s, sc * sc, ra, k, r)


def lemma3_fk(a: float, k: float, r: float) -> float:
    """Auxiliary function phi_K(a, r) * r^{-1/K}, monotone decreasing for K > 1.

    The exponent is sign-corrected: the printed r^{+1/K} gives a form that
    increases on (0,1) for K > 1, which the lemma3_literal target measures.
    """
    s = _phi_parts(a, k, r)[0]
    try:
        return s * r ** (-1.0 / k)
    except OverflowError:   # only K ~ 1 with r < 1/DBL_MAX: s/r and r^{1-1/K} are finite
        return s / r * r ** (1.0 - 1.0 / k)

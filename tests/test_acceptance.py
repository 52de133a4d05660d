"""Acceptance gate: the twelve primary criteria, one pass/fail line each.

Each criterion is implemented faithfully at its stated tolerance; nothing
is weakened to force a pass.  Two of them need a word on what they assert:

* Criterion 1 pins the Landau-type constant Gamma(1/4)^4/(4 pi^2) =
  4.3768792304529533 (40-digit mpmath; Hempel 1980) to seven decimals,
  4.3768792, at tolerance 5e-8.  The digits 4.3768796 are a typo, not the
  rounding of ...7923, and the tolerance rejects a constant stored with them.
* Criterion 5's round trip phi_{1/K}(phi_K(r)) = r passes through the double
  s = phi_K(r), and one ulp of s moves the inverse image by
  |d phi_{1/K}/dr (s)| * ulp(s).  At (K, r) = (4, 0.99), s = 1 - 2e-11 and
  that is 1.4e-8, so even the correctly rounded s misses r by 3.5e-9.  Each
  grid point is therefore held to 1e-9 plus the effect of one ulp of its own
  intermediate, with the derivative taken from the closed form phi_partial_r
  (checked in criterion 8).  Where one ulp is harmless the bound is 1e-9;
  an s off by more than about one ulp at the corner fails.  The printed
  line reports the worst error/tol ratio and where it occurs.
"""
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from gft import (
    elliptic_e,
    elliptic_k,
    grotzsch_u,
    grotzsch_ua,
    landau_constant,
    landen_next,
    mori_radial_experiment,
    phi_k,
    phi_ka,
    phi_partial_k,
    phi_partial_r,
    qc_schwarz_bounds,
    registry,
    run_suite,
    sweep,
    SweepSpec,
    suite_failed,
    target_info,
)

R99 = np.linspace(0.0, 0.999, 99)
R_OPEN = np.linspace(0.01, 0.99, 99)
K_SET = (1.5, 2.0, 4.0)


def _report(n: int, ok: bool, desc: str):
    print(f"[acceptance] criterion {n:02d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {n} failed: {desc}"


def test_criterion_01_landau_constant():
    t0 = time.perf_counter()
    value = landau_constant()
    elapsed = time.perf_counter() - t0
    ok = abs(value - 4.3768792) <= 5e-8 and elapsed < 1e-3
    _report(1, ok, f"landau_constant = {value:.10f}, target 4.3768792 +- 5e-8, "
                   f"{elapsed * 1e6:.0f} us")


def test_criterion_02_elliptic_quadrature():
    t0 = time.perf_counter()
    worst = 0.0
    for r in R99:
        r = float(r)
        kq, _ = quad(lambda t: 1.0 / math.sqrt(1.0 - (r * math.sin(t)) ** 2),
                     0.0, math.pi / 2.0, epsabs=1e-13, epsrel=1e-13)
        eq, _ = quad(lambda t: math.sqrt(1.0 - (r * math.sin(t)) ** 2),
                     0.0, math.pi / 2.0, epsabs=1e-13, epsrel=1e-13)
        worst = max(worst,
                    abs(elliptic_k(r) - kq) / kq,
                    abs(elliptic_e(r) - eq) / eq)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    _report(2, ok, f"K/E vs quadrature, worst rel err {worst:.2e} on 99 pts, "
                   f"{elapsed:.2f} s")


def test_criterion_03_legendre_relation():
    worst = 0.0
    for r in R99[1:]:
        r = float(r)
        rc = math.sqrt((1.0 - r) * (1.0 + r))
        resid = (elliptic_e(r) * elliptic_k(rc) + elliptic_e(rc) * elliptic_k(r)
                 - elliptic_k(r) * elliptic_k(rc) - math.pi / 2.0)
        worst = max(worst, abs(resid))
    ok = worst <= 1e-10
    _report(3, ok, f"Legendre relation residual <= {worst:.2e}")


def test_criterion_04_modulus_identities():
    worst = 0.0
    for r in R_OPEN:
        r = float(r)
        rc = math.sqrt((1.0 - r) * (1.0 + r))
        worst = max(worst,
                    abs(grotzsch_u(r) * grotzsch_u(rc) - math.pi ** 2 / 4.0),
                    abs(grotzsch_u(landen_next(r)) - grotzsch_u(r) / 2.0),
                    abs(grotzsch_ua(0.5, r) - grotzsch_u(r)))
    ok = worst < 1e-10
    _report(4, ok, f"u(r)u(r')=pi^2/4, Landen halving, u_1/2=u; worst {worst:.2e}")


def test_criterion_05_distortion_closed_forms():
    worst_cf = 0.0
    for r in R_OPEN:
        r = float(r)
        rc = math.sqrt((1.0 - r) * (1.0 + r))
        worst_cf = max(
            worst_cf,
            abs(phi_k(2.0, r).value - 2.0 * math.sqrt(r) / (1.0 + r)),
            abs(phi_k(0.5, r).value - (1.0 - rc) / (1.0 + rc)))
    points = []
    for k in K_SET:
        for r in R_OPEN:
            r = float(r)
            s = phi_k(k, r).value
            err = abs(phi_k(1.0 / k, s).value - r)
            # 1e-9 plus what one ulp of the intermediate s costs the inverse
            tol = 1e-9 + abs(phi_partial_r(0.5, 1.0 / k, s)) * math.ulp(s)
            points.append((err / tol, k, r, err, tol))
    worst_ratio, k, r, err, tol = max(points)
    ok = worst_cf < 1e-10 and worst_ratio < 1.0
    _report(5, ok, f"phi_2/phi_1/2 closed forms {worst_cf:.2e}, round trip "
                   f"worst err/tol {worst_ratio:.2f} ({err:.2e} / {tol:.2e}) "
                   f"at (K, r) = ({k}, {r})")


def test_criterion_06_conjugation_identity():
    worst = 0.0
    for k in (1.0,) + K_SET:
        for r in R_OPEN:
            r = float(r)
            rc = math.sqrt((1.0 - r) * (1.0 + r))
            total = phi_k(k, r).value ** 2 + phi_k(1.0 / k, rc).value ** 2
            worst = max(worst, abs(total - 1.0))
    ok = worst < 1e-9
    _report(6, ok, f"phi_K(r)^2 + phi_1/K(r')^2 = 1, worst dev {worst:.2e}")


def test_criterion_07_phi_4bound():
    worst = math.inf
    for k in (1.0,) + K_SET:
        for r in R_OPEN:
            r = float(r)
            margin = 4.0 ** (1.0 - 1.0 / k) * r ** (1.0 / k) - phi_k(k, r).value
            worst = min(worst, margin)
    ok = worst >= -1e-12
    _report(7, ok, f"phi_K(r) <= 4^(1-1/K) r^(1/K), min margin {worst:.2e}")


def test_criterion_08_derivative_formulas():
    # grid chosen inside the region where phi stays far enough from 1 that
    # the central differences themselves carry ~1e-7 relative error
    h = 1e-6
    worst = 0.0
    for a in (0.25, 0.4, 0.5):
        for k in (1.25, 1.5, 2.0):
            for r in (0.2, 0.5, 0.8):
                fd_r = (phi_ka(a, k, r + h).value
                        - phi_ka(a, k, r - h).value) / (2.0 * h)
                fd_k = (phi_ka(a, k + h, r).value
                        - phi_ka(a, k - h, r).value) / (2.0 * h)
                worst = max(worst,
                            abs(phi_partial_r(a, k, r) - fd_r) / abs(fd_r),
                            abs(phi_partial_k(a, k, r) - fd_k) / abs(fd_k))
    ok = worst < 1e-5
    _report(8, ok, f"partials vs central differences on 3x3x3 grid, "
                   f"worst rel {worst:.2e}")


def test_criterion_09_mori_radial_experiment():
    t0 = time.perf_counter()
    total_violations = 0
    for k in K_SET:
        for variant in ("sixteen", "sixtyfour"):
            rep = mori_radial_experiment(k, samples=10_000, variant=variant)
            total_violations += rep.violation_count
    elapsed = time.perf_counter() - t0
    ok = total_violations == 0 and elapsed < 5.0
    _report(9, ok, f"radial stretch Holder bounds: {total_violations} violations "
                   f"over 6x10^4 pairs, {elapsed:.2f} s")


def test_criterion_10_theorem4_degeneracy():
    worst = 0.0
    for z in R_OPEN:
        z = float(z)
        lo, hi = qc_schwarz_bounds(1.0, z)
        worst = max(worst, abs(lo - z), abs(hi - z))
    ok = worst <= 1e-15
    _report(10, ok, f"qc_schwarz_bounds(1, z) = (z, z), worst dev {worst:.2e}")


def test_criterion_11_harness_sanity():
    import os
    import pathlib
    import subprocess
    import sys

    import gft

    # the child imports the gft this process imports, also when only
    # pytest's pythonpath setting put it on sys.path
    src = str(pathlib.Path(gft.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "gft.cli", "verify", "sanity", "--samples", "100"],
        capture_output=True, text=True, env=env)
    exit_ok = proc.returncode == 2

    import json

    def run_once():
        return json.dumps([r.to_dict() for r in run_suite("identities")],
                          sort_keys=True)

    deterministic = run_once() == run_once()
    ok = exit_ok and deterministic
    _report(11, ok, f"planted-false exit code {proc.returncode} (want 2), "
                    f"byte-identical repeat runs: {deterministic}")


def test_criterion_12_report_only_coverage():
    t0 = time.perf_counter()
    reports = run_suite("all")
    elapsed = time.perf_counter() - t0
    covered = {r.target for r in reports}
    expected = {n for n in registry() if not target_info(n).sanity}
    all_finite = all(math.isfinite(r.min_margin) for r in reports)
    ok = covered == expected and all_finite and elapsed < 60.0
    _report(12, ok, f"{len(reports)} reports, coverage "
                    f"{'complete' if covered == expected else 'INCOMPLETE'}, "
                    f"all margins finite: {all_finite}, {elapsed:.1f} s")

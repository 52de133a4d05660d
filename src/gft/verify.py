"""Inequality sweep engine.

Every inequality the bound derivations assert is registered here as a
margin function (positive margin = satisfied).  Targets are classified
``asserted`` (independently established facts: violations fail the suite)
or ``report_only`` (forms whose literal statement is suspect: margins are
measured and reported, never asserted).
"""
from __future__ import annotations

import cmath
import heapq
import itertools
import math
import operator
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

from . import __version__, bounds, distortion, modulus
from .special import APERY_A


class UsageError(ValueError):
    """Invalid sweep configuration or unknown target/suite."""


# ---------------------------------------------------------------------------
# Specs and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepSpec:
    """Grid/sample/tolerance/seed configuration for one verification run."""

    target: str
    r_grid: tuple[float, float, int] = (0.01, 0.99, 99)
    k_values: tuple[float, ...] = (1.0, 1.5, 2.0, 4.0)
    a_values: tuple[float, ...] = (0.1, 0.25, 0.5)
    tol: float | None = None          # None: use the target's default
    seed: int = 20240811
    samples: int = 10_000

    def __post_init__(self):
        lo, hi, steps = self.r_grid
        if not (0.0 < lo < hi < 1.0):
            raise UsageError(f"r grid must satisfy 0 < min < max < 1, got {self.r_grid}")
        if steps < 2:
            raise UsageError(f"r grid needs at least 2 steps, got {steps}")
        if self.tol is not None and self.tol < 0.0:
            raise UsageError("tol must be nonnegative")
        if self.samples < 1:
            raise UsageError("samples must be >= 1")


MAX_VIOLATIONS = 20   # a report keeps the worst violations; it counts them all
SAMPLE_BLOCK = 1024   # sampled indices drawn and evaluated together


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one sweep: what was swept, margin statistics, and the
    worst violations with a count of all of them."""

    target: str
    classification: str               # asserted | report_only
    evaluations: int
    min_margin: float
    argmin: dict
    axis_minima: dict                 # "a"/"k" -> {value: min margin}
    violation_count: int
    violations: tuple[tuple[dict, float], ...]   # worst first, <= MAX_VIOLATIONS
    status: str                       # pass | fail | report_only
    spec: SweepSpec
    tol: float                        # the tolerance applied

    def to_dict(self) -> dict:
        spec = self.spec
        return {
            "schema": "v2",
            "target": self.target,
            "classification": self.classification,
            "evaluations": self.evaluations,
            "min_margin": self.min_margin,
            "argmin": self.argmin,
            "axis_minima": {name: {repr(v): m for v, m in minima.items()}
                            for name, minima in self.axis_minima.items()},
            "violation_count": self.violation_count,
            "violations": [{"params": p, "margin": m} for p, m in self.violations],
            "status": self.status,
            "spec": {"r_grid": list(spec.r_grid), "k_values": list(spec.k_values),
                     "a_values": list(spec.a_values), "samples": spec.samples,
                     "seed": spec.seed},
            "tol": self.tol,
            "version": __version__,
        }


# ---------------------------------------------------------------------------
# Counter-based sampling: each index is hashed independently (Salmon et al.,
# "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11), so evaluation order
# never matters and sample i is a pure function of (seed, stream, i)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sampler:
    """How a sampled target draws index i: one uniform point of the unit
    disk per name in `names` (reports record each as <name>_re, <name>_im),
    redrawn until `accept` takes the points.  A target samples one point or
    one pair."""

    stream: str
    names: tuple[str, ...]
    accept: Callable[..., bool]

    def __post_init__(self):
        if len(self.names) not in (1, 2):
            raise UsageError(f"a sampler draws one or two points, got {self.names!r}")


def _sampler(sampler: Sampler, seed: int) -> Callable[[int, int], list[tuple[complex, ...]]]:
    """(lo, hi) -> the sampled points of indices lo, ..., hi - 1.  Index i
    hashes (seed, stream, i, block) with BLAKE2b into eight 64-bit words; an
    attempt takes two words per point, w_u and w_v, for sqrt(u) e^{2 pi i v}
    with u = (w_u >> 11) 2^-53 and v likewise.  The attempts of one digest
    are used up before block + 1 is hashed, so sample i never depends on any
    other index."""
    try:  # hashlib.blake2b itself, without the OpenSSL backend hashlib loads
        from _blake2 import blake2b
    except ImportError:  # pragma: no cover - an interpreter without _blake2
        from hashlib import blake2b

    copy = blake2b(f"{seed}:{sampler.stream}:".encode()).copy
    pack, unpack = struct.Struct("<QQ").pack, struct.Struct("<8Q").unpack
    rect, sqrt = cmath.rect, math.sqrt
    tau, ulp = 2.0 * math.pi, 2.0 ** -53
    accept, width = sampler.accept, 2 * len(sampler.names)

    def redraw(i: int, w: tuple[int, ...], j: int) -> tuple[complex, ...]:
        # index i's attempts before word j of digest w were rejected
        block = 0
        while True:
            for a in range(j, len(w) - width + 1, width):
                zs = tuple([rect(sqrt((w[m] >> 11) * ulp), tau * ((w[m + 1] >> 11) * ulp))
                            for m in range(a, a + width, 2)])
                if accept(*zs):
                    return zs
            block, j = block + 1, 0
            h = copy()
            h.update(pack(i, block))
            w = unpack(h.digest())

    # the first attempt of each index is built inline: nearly every index
    # keeps it, and redraw serves the rest
    if width == 2:
        def draw(lo: int, hi: int) -> list[tuple[complex, ...]]:
            zss = []
            for i in range(lo, hi):
                h = copy()
                h.update(pack(i, 0))
                w = unpack(h.digest())
                z = rect(sqrt((w[0] >> 11) * ulp), tau * ((w[1] >> 11) * ulp))
                zss.append((z,) if accept(z) else redraw(i, w, 2))
            return zss
    else:
        def draw(lo: int, hi: int) -> list[tuple[complex, ...]]:
            zss = []
            for i in range(lo, hi):
                h = copy()
                h.update(pack(i, 0))
                w = unpack(h.digest())
                z1 = rect(sqrt((w[0] >> 11) * ulp), tau * ((w[1] >> 11) * ulp))
                z2 = rect(sqrt((w[2] >> 11) * ulp), tau * ((w[3] >> 11) * ulp))
                zss.append((z1, z2) if accept(z1, z2) else redraw(i, w, 4))
            return zss

    return draw


# ---------------------------------------------------------------------------
# Margin functions.  Each takes a params dict and returns a signed margin;
# a sampled target's margin takes a block of sampled points and the grid
# rows, and gives one list of the points' margins per row, in row order (a
# generator holds one row's list at a time).
# ---------------------------------------------------------------------------

@lru_cache(maxsize=100_000)
def _phi_a(a: float, k: float, r: float) -> float:
    # the library's one memo cache: sibling targets (lemma3_literal and
    # lemma3_corrected, the (r, r_next) pairs, the eq54-eq64 family) sweep
    # the same grid, so each phi_{K,a}(r) is inverted once per process
    return distortion.phi_ka(a, k, r).value


def _phi(k: float, r: float) -> float:
    return _phi_a(0.5, k, r)


def _m_eq5_chain(zss: list[tuple[complex]], rows: list[dict]) -> Iterable[list[float]]:
    sigma, rho = bounds.sigma_metric, bounds.rho_lower
    ms = [sigma(z) - rho(abs(z)) for z, in zss]
    return [ms] * len(rows)


def _g5(a: float, r: float) -> float:
    return modulus.grotzsch_ua(a, r) - modulus.grotzsch_u(r)


def _m_lemma2_item1(p: dict) -> float:
    a, r = p["a"], p["r"]
    cs = modulus.lemma2_constants(a)
    g5 = _g5(a, r)
    return min(g5 - cs.c2 * modulus.fn_B(r), cs.c1 - g5)


def _m_lemma2_item2(p: dict) -> float:
    a, r = p["a"], p["r"]
    cs = modulus.lemma2_constants(a)
    g5 = _g5(a, r)
    A = modulus.fn_A(r)
    return min(g5 - cs.c1 * A, cs.c2 * (1.0 - cs.c6 * (1.0 - A)) - g5)


def _m_lemma2_item3(p: dict) -> float:
    a, r = p["a"], p["r"]
    cs = modulus.lemma2_constants(a)
    A = modulus.fn_A(r)
    B = modulus.fn_B(r)
    pr = modulus.product_P(r)
    mid = math.exp(modulus.grotzsch_ua(a, r)) / r
    lo = pr * max(cs.c4 ** A, cs.c5 ** B)
    hi = cs.c4 * pr * math.exp(-cs.c6 * (1.0 - A))
    return min(mid - lo, hi - mid)


def _m_eq42(p: dict, base_is_c1: bool) -> float:
    a, r = p["a"], p["r"]
    cs = modulus.lemma2_constants(a)  # the constant C = 1/4 e^{R(a)/2} is c4
    base = cs.c1 if base_is_c1 else math.exp((a - 0.5) ** 2)
    pr = modulus.product_P(r)
    mid = math.exp(modulus.grotzsch_ua(a, r)) / r
    lo = cs.c4 ** (1.0 - r * r) * pr
    hi = cs.c4 * base ** (-r * r) * pr
    return min(mid - lo, hi - mid)


def _m_eq48(p: dict) -> float:
    a = p["a"]
    c1 = modulus.lemma2_constants(a).c1
    w = (1.0 - 2.0 * a) ** 2
    lo = w * max(APERY_A / 4.0, 1.0 / a)
    hi = APERY_A * w / (8.0 * a)
    return min(2.0 * c1 - lo, hi - 2.0 * c1)


def _m_lemma3(p: dict, literal: bool) -> float:
    # lemma3_fk(a, k, r, literal) = phi_K(a, r) * r^{+-1/K}
    a, k, r, r_next = p["a"], p["k"], p["r"], p["r_next"]
    expo = 1.0 / k if literal else -1.0 / k
    return _phi_a(a, k, r) * r ** expo - _phi_a(a, k, r_next) * r_next ** expo


def _m_eq49(p: dict) -> float:
    k, r = p["k"], p["r"]
    phi = _phi(k, r)
    return -abs(distortion.phi_k_product(k, r) - phi) / phi


def _half_angle(p: dict) -> tuple[float, float, float]:
    alpha = p["alpha"]
    return p["k"], math.sin(alpha / 2.0), math.cos(alpha / 2.0)


def _m_eq54(p: dict) -> float:
    k, s, c = _half_angle(p)
    lhs = 2.0 * _phi(k, s) * _phi(1.0 / k, c) / (_phi(1.0 / k, s) ** 2 + _phi(k, c) ** 2)
    rhs = 2.0 * _phi(k, s) * _phi(1.0 / k, s)
    return rhs - lhs


def _m_eq55(p: dict) -> float:
    k, s, c = _half_angle(p)
    return (_phi(1.0 / k, s) + _phi(k, c)) ** 2 - (1.0 + 2.0 * _phi(k, s) * _phi(1.0 / k, s))


def _m_eq59(p: dict) -> float:
    k, s, c = _half_angle(p)
    return 1.0 - _phi(k, s) * _phi(1.0 / k, s) / (s ** (1.0 / k) * c ** (1.0 / k))


def _m_eq60(p: dict) -> float:
    k, r = p["k"], p["r"]
    return 4.0 ** (1.0 - 1.0 / k) * r ** (1.0 / k) - _phi(k, r)


def _m_eq61(p: dict) -> float:
    k, s, c = _half_angle(p)
    return c ** k - _phi(1.0 / k, s)


def _m_eq62(p: dict) -> float:
    k, s, c = _half_angle(p)
    return c ** (k - 1.0 / k) - _phi(1.0 / k, s) / c ** (1.0 / k)


def _m_eq64(p: dict) -> float:
    k, r = p["k"], p["r"]
    return 8.0 ** (1.0 - 1.0 / k) - 2.0 ** (1.0 - 1.0 / k) * _phi(k, r) / r ** (1.0 / k)


def _m_phi_identity(p: dict, literal: bool) -> float:
    k, r = p["k"], p["r"]
    arg = r if literal else math.sqrt((1.0 - r) * (1.0 + r))
    return -abs(_phi(k, r) ** 2 + _phi(1.0 / k, arg) ** 2 - 1.0)


def _m_thm4_k1(p: dict) -> float:
    r = p["r"]
    lo, hi = bounds.qc_schwarz_bounds(1.0, r)
    return -max(abs(lo - r), abs(hi - r))


def _m_mori_radial(zss: list[tuple[complex, complex]], rows: list[dict],
                   variant: str) -> Iterable[list[float]]:
    # the radial stretch z -> z |z|^{1/K - 1} takes 0 to 0; the moduli and
    # distances of the block's pairs serve every K row
    ds = [abs(z2 - z1) for z1, z2 in zss]
    a1s = [abs(z1) for z1, _ in zss]
    a2s = [abs(z2) for _, z2 in zss]
    for p in rows:
        k = p["k"]
        c = bounds.mori_holder_bound(k, 1.0, variant)   # c^{1-1/K}
        inv_k, expo = 1.0 / k, 1.0 / k - 1.0
        yield [c * d ** inv_k
               - abs((z2 * a2 ** expo if z2 else 0.0) - (z1 * a1 ** expo if z1 else 0.0))
               for (z1, z2), d, a1, a2 in zip(zss, ds, a1s, a2s)]


def _m_planted_false(p: dict) -> float:
    # Intentionally false claim phi_2(r) <= r; guards against a vacuous harness.
    r = p["r"]
    return r - _phi(2.0, r)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Target:
    name: str
    classification: str                       # asserted | report_only
    margin: Callable[..., float]              # sampled: (points, rows) -> row lists
    axes: tuple[str, ...]                     # subset of (a, k, r, alpha)
    default_tol: float = 1e-9
    pairwise_r: bool = False                  # margin uses (r, r_next)
    sample: Sampler | None = None             # margin takes sampled points
    k_filter: Callable[[float], bool] | None = None
    a_filter: Callable[[float], bool] | None = None
    sanity: bool = False                      # harness self-check, outside "all"

    @property
    def randomized(self) -> bool:
        return self.sample is not None


def _not_degenerate(a: float) -> bool:
    return a != 0.5


_TARGETS = [
    # eq5 samples {|z| < 1, |z| < |z-1|}, bounded away from the puncture at 0
    Target("eq5_chain", "report_only", _m_eq5_chain, (),
           sample=Sampler("eq5", ("z",), lambda z: 0.01 < abs(z) < abs(z - 1.0))),
    Target("lemma2_item1", "report_only", _m_lemma2_item1, ("a", "r")),
    Target("lemma2_item2", "report_only", _m_lemma2_item2, ("a", "r"),
           a_filter=_not_degenerate),
    Target("lemma2_item3", "report_only", _m_lemma2_item3, ("a", "r"),
           a_filter=_not_degenerate),
    Target("eq42_sandwich_literal", "report_only",
           lambda p: _m_eq42(p, base_is_c1=True), ("a", "r"),
           a_filter=_not_degenerate),
    Target("eq42_sandwich_cprime", "report_only",
           lambda p: _m_eq42(p, base_is_c1=False), ("a", "r"),
           a_filter=_not_degenerate),
    Target("eq48_c1_bracket", "report_only", _m_eq48, ("a",)),
    Target("lemma3_literal", "report_only",
           lambda p: _m_lemma3(p, literal=True), ("a", "k", "r"),
           pairwise_r=True, k_filter=lambda k: k > 1.0),
    Target("lemma3_corrected", "asserted",
           lambda p: _m_lemma3(p, literal=False), ("a", "k", "r"),
           pairwise_r=True, k_filter=lambda k: k > 1.0),
    Target("eq49_product_equality", "report_only", _m_eq49, ("k", "r")),
    Target("eq54_sinbeta", "report_only", _m_eq54, ("k", "alpha"),
           k_filter=lambda k: k >= 1.0),
    Target("eq55_sum_square", "report_only", _m_eq55, ("k", "alpha"),
           k_filter=lambda k: k >= 1.0),
    Target("eq59_h_product", "report_only", _m_eq59, ("k", "alpha"),
           k_filter=lambda k: k >= 1.0),
    Target("eq60_phi_4bound", "asserted", _m_eq60, ("k", "r"),
           default_tol=1e-12, k_filter=lambda k: k >= 1.0),
    Target("eq61_phi_cos", "report_only", _m_eq61, ("k", "alpha"),
           k_filter=lambda k: k >= 1.0),
    Target("eq62_ratio_infinitesimal", "report_only", _m_eq62, ("k", "alpha"),
           k_filter=lambda k: k >= 1.0),
    Target("eq64_extremal_8", "report_only", _m_eq64, ("k", "r"),
           k_filter=lambda k: k >= 1.0),
    Target("paper_phi_identity_literal", "report_only",
           lambda p: _m_phi_identity(p, literal=True), ("k", "r")),
    Target("std_phi_identity", "asserted",
           lambda p: _m_phi_identity(p, literal=False), ("k", "r")),
    Target("thm4_k1_equality", "asserted", _m_thm4_k1, ("r",), default_tol=1e-15),
    Target("mori_radial_16", "asserted",
           lambda zss, rows: _m_mori_radial(zss, rows, "sixteen"), ("k",),
           sample=Sampler("mori_sixteen", ("z1", "z2"), operator.ne),
           k_filter=lambda k: k >= 1.0),
    Target("mori_radial_64", "asserted",
           lambda zss, rows: _m_mori_radial(zss, rows, "sixtyfour"), ("k",),
           sample=Sampler("mori_sixtyfour", ("z1", "z2"), operator.ne),
           k_filter=lambda k: k >= 1.0),
    Target("planted_false", "asserted", _m_planted_false, ("r",), sanity=True),
]

_REGISTRY = {t.name: t for t in _TARGETS}


def registry() -> list[str]:
    """The closed list of registered inequality identifiers."""
    return [t.name for t in _TARGETS]


def target_info(name: str) -> Target:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UsageError(f"unknown target {name!r}") from None


# ---------------------------------------------------------------------------
# Sweep engine
# ---------------------------------------------------------------------------

def _linspace(lo: float, hi: float, steps: int) -> list[float]:
    if steps == 1:
        return [lo]
    h = (hi - lo) / (steps - 1)
    return [lo + i * h for i in range(steps)]


def _param_list(target: Target, spec: SweepSpec) -> list[dict]:
    """Cartesian parameter grid in lexicographic (a, k, r/alpha) order."""
    a_vals = [a for a in spec.a_values if target.a_filter is None or target.a_filter(a)]
    k_vals = [k for k in spec.k_values if target.k_filter is None or target.k_filter(k)]
    rs = _linspace(*spec.r_grid)

    def axis(name: str) -> list[dict]:
        if name == "a":
            return [{"a": a} for a in sorted(a_vals)]
        if name == "k":
            return [{"k": k} for k in sorted(k_vals)]
        if name == "r":
            if target.pairwise_r:
                return [{"r": rs[i], "r_next": rs[i + 1]} for i in range(len(rs) - 1)]
            return [{"r": r} for r in rs]
        if name == "alpha":
            # the r grid mapped onto (0, pi/2]
            return [{"alpha": r * math.pi / 2.0} for r in rs]
        raise AssertionError(name)

    params: list[dict] = [{}]
    for name in sorted(target.axes):
        values = axis(name)
        if not values:
            given = spec.a_values if name == "a" else spec.k_values
            raise UsageError(f"target {target.name!r} has no {name} value to sweep: "
                             f"its filter rejects every one of {given!r}")
        params = [dict(p, **q) for p in params for q in values]
    return params


def margin_at(target_name: str, params: dict) -> float:
    """Re-evaluate a target's margin at a report's argmin parameters."""
    target = target_info(target_name)
    if target.sample is None:
        return target.margin(params)
    i = params["i"]
    [ms] = target.margin(_sampler(target.sample, params["seed"])(i, i + 1), [params])
    return ms[0]


def _rank(m: float) -> float:
    # NaN ranks as the worst margin
    return m if m == m else -math.inf


def sweep(spec: SweepSpec) -> InequalityReport:
    """Evaluate one target's margin over its full parameter grid.  Every
    violation (a margin below -tol, or NaN, which ranks worst) is counted;
    the MAX_VIOLATIONS worst are kept, ties going to the earlier row.  A
    sampled target draws SAMPLE_BLOCK indices at a time and evaluates every
    grid row on them, so memory does not grow with spec.samples.  A sampled
    row's params (its grid params, seed and index, and its points for the
    reader) are built only when it is the argmin or a kept violation."""
    target = target_info(spec.target)
    tol = target.default_tol if spec.tol is None else spec.tol
    grid = _param_list(target, spec)
    ok = (-tol).__le__
    count, kept = 0, []               # kept: (rank, order, margin), worst first

    def fold(ms: list[float], base: int) -> tuple[float, int, float]:
        """Fold in the margins of orders base, base + 1, ..., where order is
        the lexicographic (grid row, sample index) position; return the
        block's worst as (rank, order, margin)."""
        nonlocal count, kept
        bad = len(ms) - sum(map(ok, ms))
        if bad:
            count += bad
            # the candidates: margins that violate or, once MAX_VIOLATIONS
            # are kept, that rank below the worst kept one; a tie displaces
            # it only from orders before its own, so only a block starting
            # there may offer ties
            if len(kept) < MAX_VIOLATIONS:
                over = ok
            else:
                rank, order, _ = kept[-1]
                over = rank.__le__ if base > order else rank.__lt__
            picked = itertools.compress(zip(ms, itertools.count(base)),
                                        map(operator.not_, map(over, ms)))
            cand = [(_rank(m), o, m) for m, o in picked]
            if cand:
                kept = heapq.nsmallest(MAX_VIOLATIONS, kept + cand)
            if any(m != m for _, _, m in cand):
                return min(cand)      # every NaN is a candidate
        m = min(ms)
        return m, base + ms.index(m), m

    if target.sample is None:
        ms = [target.margin(p) for p in grid]
        best = fold(ms, 0)
        row_minima = ms

        def params(order: int) -> dict:
            return grid[order]
    else:
        n = spec.samples
        draw = _sampler(target.sample, spec.seed)
        rows: list = [None] * len(grid)        # each row's worst, as fold returns it
        for lo in range(0, n, SAMPLE_BLOCK):
            zss = draw(lo, min(lo + SAMPLE_BLOCK, n))
            for j, ms in enumerate(target.margin(zss, grid)):
                worst = fold(ms, j * n + lo)
                if rows[j] is None or worst < rows[j]:
                    rows[j] = worst
        best = min(rows)
        row_minima = [m for _, _, m in rows]

        def params(order: int) -> dict:
            j, i = divmod(order, n)
            p = dict(grid[j], i=i, seed=spec.seed)
            for name, z in zip(target.sample.names, draw(i, i + 1)[0]):
                p[f"{name}_re"], p[f"{name}_im"] = z.real, z.imag
            return p

    axis_minima: dict = {name: {} for name in ("a", "k") if name in target.axes}
    for p, m in zip(grid, row_minima):
        for name, minima in axis_minima.items():
            if p[name] not in minima or _rank(m) < _rank(minima[p[name]]):
                minima[p[name]] = m
    if target.classification == "asserted":
        status = "fail" if count else "pass"
    else:
        status = "report_only"
    return InequalityReport(
        target=target.name,
        classification=target.classification,
        evaluations=len(grid) * (spec.samples if target.randomized else 1),
        min_margin=best[2],
        argmin=params(best[1]),
        axis_minima=axis_minima,
        violation_count=count,
        violations=tuple((params(o), m) for _, o, m in kept),
        status=status,
        spec=spec,
        tol=tol,
    )


def mori_radial_experiment(k: float, samples: int = 10_000, seed: int = 20240811,
                           variant: str = "sixteen") -> InequalityReport:
    """Holder-bound check of the canonical K-quasiconformal radial stretch
    z -> z |z|^{1/K - 1} on seeded uniform disk pairs."""
    if not (k >= 1.0):
        raise UsageError("K must be >= 1")
    if variant not in ("sixteen", "sixtyfour"):
        raise UsageError(f"unknown variant {variant!r}")
    spec = SweepSpec(target=f"mori_radial_{16 if variant == 'sixteen' else 64}",
                     k_values=(k,), samples=samples, seed=seed)
    return sweep(spec)


SUITES: dict[str, tuple[str, ...]] = {
    "identities": ("std_phi_identity", "thm4_k1_equality", "eq60_phi_4bound",
                   "lemma3_corrected"),
    "schottky": ("eq5_chain",),
    "lemma2": ("lemma2_item1", "lemma2_item2", "lemma2_item3",
               "eq42_sandwich_literal", "eq42_sandwich_cprime", "eq48_c1_bracket"),
    "lemma3": ("lemma3_literal", "lemma3_corrected", "eq49_product_equality"),
    "mori": ("eq54_sinbeta", "eq55_sum_square", "eq59_h_product", "eq60_phi_4bound",
             "eq61_phi_cos", "eq62_ratio_infinitesimal", "eq64_extremal_8",
             "paper_phi_identity_literal", "std_phi_identity",
             "mori_radial_16", "mori_radial_64"),
    "sanity": ("planted_false",),
}
SUITES["all"] = tuple(t.name for t in _TARGETS if not t.sanity)


def run_suite(name: str, **overrides) -> list[InequalityReport]:
    """Run a named suite; overrides are SweepSpec fields applied to every target."""
    if name not in SUITES:
        raise UsageError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    reports = []
    for target in SUITES[name]:
        reports.append(sweep(SweepSpec(target=target, **overrides)))
    return reports


def suite_failed(reports: list[InequalityReport]) -> bool:
    return any(r.status == "fail" for r in reports)

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
from functools import lru_cache, partial
from typing import Callable, Iterable, NamedTuple

from . import __version__, bounds, distortion, modulus
from .special import APERY_A

__all__ = ["SUITES", "InequalityReport", "SweepSpec", "Target", "UsageError", "margin_at",
           "mori_radial_experiment", "registry", "run_suite", "suite_failed", "sweep",
           "target_info"]


class UsageError(ValueError):
    """Invalid sweep configuration or unknown target/suite."""


# ---------------------------------------------------------------------------
# Specs and reports
# ---------------------------------------------------------------------------

# The records are NamedTuples, not dataclasses: importing dataclasses loads
# inspect, ast, dis and tokenize, which every cold `gft` process would pay.

class SweepSpec(NamedTuple):
    """What one verification run chooses: the target, its K values, and the
    seed and sample count of a sampled target.  Every run sweeps the fixed
    r grid and a values below; `sweep` checks the spec."""

    target: str
    k_values: tuple[float, ...] = (1.0, 1.5, 2.0, 4.0)
    seed: int = 20240811
    samples: int = 10_000

    r_grid = (0.01, 0.99, 99)         # (min, max, steps); unannotated, so not fields
    a_values = (0.1, 0.25, 0.5)


MAX_VIOLATIONS = 20   # a report keeps the worst violations; it counts them all
SAMPLE_BLOCK = 1024   # sampled indices drawn and evaluated together


class InequalityReport(NamedTuple):
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
    tol: float                        # the target's default_tol, applied

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

def _points(zss: list[tuple[complex, ...]], **columns) -> list[tuple[complex, ...]]:
    return zss


class Sampler(NamedTuple):
    """How a sampled target draws index i: one uniform point of the unit
    disk per name in `names` (reports record each as <name>_re, <name>_im),
    redrawn until `accept` takes the points.  A target samples one point or
    one pair, the two widths `_sampler` builds.  Targets holding one Sampler
    see the same points at a seed, and run_suite draws them once for all.
    `shared` names the block their margins read: it takes a drawn block and
    the grid's columns, runs once per block, and by default hands back the
    points themselves."""

    stream: str
    names: tuple[str, ...]
    accept: Callable[..., bool]
    shared: Callable = _points


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
    accept, width = sampler.accept, 2 * len(sampler.names)
    pack, unpack = struct.Struct("<QQ").pack, struct.Struct("<8Q").unpack
    first = struct.Struct(f"<{width}Q").unpack_from   # the words of attempt 0
    rect, sqrt = cmath.rect, math.sqrt
    tau, ulp = 2.0 * math.pi, 2.0 ** -53

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

    # the first attempt of each index is built inline from the words it
    # reads: nearly every index keeps it, and redraw serves the rest
    if width == 2:
        def draw(lo: int, hi: int) -> list[tuple[complex, ...]]:
            zss = []
            for i in range(lo, hi):
                h = copy()
                h.update(pack(i, 0))
                d = h.digest()
                u, v = first(d)
                z = rect(sqrt((u >> 11) * ulp), tau * ((v >> 11) * ulp))
                zss.append((z,) if accept(z) else redraw(i, unpack(d), 2))
            return zss
    else:
        def draw(lo: int, hi: int) -> list[tuple[complex, ...]]:
            zss = []
            for i in range(lo, hi):
                h = copy()
                h.update(pack(i, 0))
                d = h.digest()
                u1, v1, u2, v2 = first(d)
                z1 = rect(sqrt((u1 >> 11) * ulp), tau * ((v1 >> 11) * ulp))
                z2 = rect(sqrt((u2 >> 11) * ulp), tau * ((v2 >> 11) * ulp))
                zss.append((z1, z2) if accept(z1, z2) else redraw(i, unpack(d), 4))
            return zss

    return draw


# ---------------------------------------------------------------------------
# Margin functions.  A grid margin takes a grid row's numbers positionally, in
# its parameter order, and returns a signed margin.  A sampled margin takes
# the block its Sampler's shared step makes of the drawn points (the points
# themselves, unless the step says otherwise) and, per axis, the grid rows'
# values, and gives one list of the points' margins per row, in row order (a
# generator holds one row).
# ---------------------------------------------------------------------------

@lru_cache(maxsize=100_000)
def _u_a(a: float, r: float) -> float:
    # lemma 2's g = u_a - u, eq. 42's e^{u_a(r)}/r and each phi_{K,a}(r), one
    # per K, read u_a(r) on the same grid points, so each is evaluated once
    # per run.  modulus.grotzsch_ua is looked up at call time, so a patched
    # kernel is seen once the memo is cleared
    return modulus.grotzsch_ua(a, r)


@lru_cache(maxsize=100_000)
def _phi_a(a: float, k: float, r: float) -> float:
    # sibling targets (lemma3_literal and lemma3_corrected, the (r, r_next)
    # pairs, the eq54-eq64 family) sweep the same grid, so each
    # phi_{K,a}(r) = u_a^{-1}(u_a(r)/K) is inverted once per run, and
    # read as a value, with no residual formed
    distortion._check_k(k)
    if k == 1.0:
        return r
    return modulus.grotzsch_ua_inv(a, _u_a(a, r) / k)


_MEMOS = (_u_a, _phi_a)   # cleared by run_suite; held here, whatever rebinds their names


def _phi(k: float, r: float) -> float:
    return _phi_a(0.5, k, r)


def _m_eq5_chain(zss: list[tuple[complex]]) -> list[list[float]]:
    # the library's sigma and rho formulas without the public guards: on the
    # sampled set 0.01 < |z|, Re z < 1/2, |w| > sqrt(1/2) and |zeta| < 1, so
    # 0 < sigma < 1/(0.01 sqrt(1/2) 4) and rho < 100/C; rho's |z| < 1 fails
    # only where abs rounds a draw of sqrt(u) = 1 - 2^-53 onto 1 (rho -> 1/C)
    sigma, rho = bounds._sigma, bounds._rho
    return [[sigma(z) - rho(abs(z)) for z, in zss]]


def _g5(a: float, r: float) -> float:
    return _u_a(a, r) - _u_a(0.5, r)


def _m_lemma2_item1(a: float, r: float) -> float:
    cs = modulus.lemma2_constants(a)
    g5 = _g5(a, r)
    return min(g5 - cs.c2 * modulus.fn_B(r), cs.c1 - g5)


def _m_lemma2_item2(a: float, r: float) -> float:
    cs = modulus.lemma2_constants(a)
    g5 = _g5(a, r)
    A = modulus.fn_A(r)
    return min(g5 - cs.c1 * A, cs.c2 * (1.0 - cs.c6 * (1.0 - A)) - g5)


def _m_lemma2_item3(a: float, r: float) -> float:
    cs = modulus.lemma2_constants(a)
    A = modulus.fn_A(r)
    B = modulus.fn_B(r)
    pr = modulus.product_P(r)
    mid = math.exp(_u_a(a, r)) / r
    lo = pr * max(cs.c4 ** A, cs.c5 ** B)
    hi = cs.c4 * pr * math.exp(-cs.c6 * (1.0 - A))
    return min(mid - lo, hi - mid)


def _m_eq42(a: float, r: float, base_is_c1: bool) -> float:
    cs = modulus.lemma2_constants(a)  # the constant C = 1/4 e^{R(a)/2} is c4
    base = cs.c1 if base_is_c1 else math.exp((a - 0.5) ** 2)
    pr = modulus.product_P(r)
    mid = math.exp(_u_a(a, r)) / r
    lo = cs.c4 ** (1.0 - r * r) * pr
    hi = cs.c4 * base ** (-r * r) * pr
    return min(mid - lo, hi - mid)


def _m_eq48(a: float) -> float:
    c1 = modulus.lemma2_constants(a).c1
    w = (1.0 - 2.0 * a) ** 2
    lo = w * max(APERY_A / 4.0, 1.0 / a)
    hi = APERY_A * w / (8.0 * a)
    return min(2.0 * c1 - lo, hi - 2.0 * c1)


def _m_lemma3(a: float, k: float, r: float, r_next: float, literal: bool) -> float:
    # phi_K(a, r) * r^{-1/K} is lemma3_fk; the literal, printed form takes r^{+1/K}
    expo = 1.0 / k if literal else -1.0 / k
    return _phi_a(a, k, r) * r ** expo - _phi_a(a, k, r_next) * r_next ** expo


def _m_eq49(k: float, r: float) -> float:
    phi = _phi(k, r)
    return -abs(distortion.phi_k_product(k, r) - phi) / phi


def _m_eq54(k: float, alpha: float) -> float:
    s, c = math.sin(alpha / 2.0), math.cos(alpha / 2.0)
    lhs = 2.0 * _phi(k, s) * _phi(1.0 / k, c) / (_phi(1.0 / k, s) ** 2 + _phi(k, c) ** 2)
    rhs = 2.0 * _phi(k, s) * _phi(1.0 / k, s)
    return rhs - lhs


def _m_eq55(k: float, alpha: float) -> float:
    s, c = math.sin(alpha / 2.0), math.cos(alpha / 2.0)
    return (_phi(1.0 / k, s) + _phi(k, c)) ** 2 - (1.0 + 2.0 * _phi(k, s) * _phi(1.0 / k, s))


def _m_eq59(k: float, alpha: float) -> float:
    s, c = math.sin(alpha / 2.0), math.cos(alpha / 2.0)
    return 1.0 - _phi(k, s) * _phi(1.0 / k, s) / (s ** (1.0 / k) * c ** (1.0 / k))


def _m_eq60(k: float, r: float) -> float:
    return 4.0 ** (1.0 - 1.0 / k) * r ** (1.0 / k) - _phi(k, r)


def _m_eq61(k: float, alpha: float) -> float:
    s, c = math.sin(alpha / 2.0), math.cos(alpha / 2.0)
    return c ** k - _phi(1.0 / k, s)


def _m_eq62(k: float, alpha: float) -> float:
    s, c = math.sin(alpha / 2.0), math.cos(alpha / 2.0)
    return c ** (k - 1.0 / k) - _phi(1.0 / k, s) / c ** (1.0 / k)


def _m_eq64(k: float, r: float) -> float:
    return 8.0 ** (1.0 - 1.0 / k) - 2.0 ** (1.0 - 1.0 / k) * _phi(k, r) / r ** (1.0 / k)


def _m_phi_identity(k: float, r: float, literal: bool) -> float:
    arg = r if literal else math.sqrt((1.0 - r) * (1.0 + r))
    return -abs(_phi(k, r) ** 2 + _phi(1.0 / k, arg) ** 2 - 1.0)


def _m_thm4_k1(r: float) -> float:
    lo, hi = bounds.qc_schwarz_bounds(1.0, r)
    return -max(abs(lo - r), abs(hi - r))


def _mori_stretch(zss: list[tuple[complex, complex]],
                  k: list[float]) -> tuple[list[float], list[list[float]]]:
    # the shared step of both Mori targets: each pair's |z2 - z1|, and per K
    # row the radial stretch's |f(z2) - f(z1)|, f(z) = z |z|^{1/K - 1}.  It
    # takes 0 to 0: a point at 0 keeps the modulus inf, and inf^{1/K - 1} is
    # 0 for K > 1 (the k filter keeps K >= 1), so z inf^{1/K - 1} = 0.  At
    # K = 1, f is the identity and |z2 1.0 - z1 1.0| is |z2 - z1| itself
    inf = math.inf
    ds = [abs(z2 - z1) for z1, z2 in zss]
    pairs = [(z1, abs(z1) or inf, z2, abs(z2) or inf) for z1, z2 in zss]
    ys = []
    for kj in k:
        expo = 1.0 / kj - 1.0
        ys.append(ds if expo == 0.0 else
                  [abs(z2 * a2 ** expo - z1 * a1 ** expo) for z1, a1, z2, a2 in pairs])
    return ds, ys


def _m_mori_radial(stretch: tuple[list[float], list[list[float]]], k: list[float],
                   variant: str) -> Iterable[list[float]]:
    # the Holder bound c^{1-1/K} |z2 - z1|^{1/K} against _mori_stretch's rows
    ds, ys = stretch
    for kj, y in zip(k, ys):
        c = bounds.mori_holder_bound(kj, 1.0, variant)   # c^{1-1/K}
        inv_k = 1.0 / kj
        if c == 1.0 and inv_k == 1.0:   # K = 1: the identity, each margin d - d
            yield [0.0] * len(ds)
        else:
            yield [c * d ** inv_k - yj for d, yj in zip(ds, y)]


def _m_planted_false(r: float) -> float:
    # Intentionally false claim phi_2(r) <= r; guards against a vacuous harness.
    return r - _phi(2.0, r)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def _arg_names(fn: Callable) -> tuple[str, ...]:
    """fn's positional-or-keyword parameters, in order; a partial's are its
    function's (the registry's partials bind keywords only)."""
    code = (fn.func if isinstance(fn, partial) else fn).__code__
    return code.co_varnames[:code.co_argcount]


class Target(NamedTuple):
    """A registered inequality.  Its axes are the margin's parameters among
    a, k, r and alpha, in the margin's order; an r_next parameter makes the
    r axis pairwise."""

    name: str
    classification: str                       # asserted | report_only
    margin: Callable[..., float]              # sampled: (block, columns) -> row lists
    default_tol: float = 1e-9
    sample: Sampler | None = None             # margin takes sampled points
    k_filter: Callable[[float], bool] | None = None
    a_filter: Callable[[float], bool] | None = None
    sanity: bool = False                      # harness self-check, outside "all"

    @property
    def axes(self) -> tuple[str, ...]:
        return tuple(n for n in _arg_names(self.margin) if n in ("a", "k", "r", "alpha"))

    @property
    def pairwise_r(self) -> bool:
        return "r_next" in _arg_names(self.margin)

    @property
    def randomized(self) -> bool:
        return self.sample is not None


def _k_above_1(k: float) -> bool:
    return k > 1.0


def _k_at_least_1(k: float) -> bool:
    return k >= 1.0


def _a_not_half(a: float) -> bool:
    return a != 0.5


# both Mori bounds judge the radial stretch on one stream of pairs, so
# run_suite draws and stretches each block once for the two targets
_MORI_PAIRS = Sampler("mori_sixteen", ("z1", "z2"), operator.ne, _mori_stretch)

_REGISTRY = {t.name: t for t in (
    # eq5 samples {|z| < 1, |z| < |z-1|} = {|z| < 1, Re z < 1/2}, away from 0
    Target("eq5_chain", "report_only", _m_eq5_chain,
           sample=Sampler("eq5", ("z",), lambda z: 0.01 < abs(z) and z.real < 0.5)),
    Target("lemma2_item1", "report_only", _m_lemma2_item1),
    Target("lemma2_item2", "report_only", _m_lemma2_item2, a_filter=_a_not_half),
    Target("lemma2_item3", "report_only", _m_lemma2_item3, a_filter=_a_not_half),
    Target("eq42_sandwich_literal", "report_only", partial(_m_eq42, base_is_c1=True),
           a_filter=_a_not_half),
    Target("eq42_sandwich_cprime", "report_only", partial(_m_eq42, base_is_c1=False),
           a_filter=_a_not_half),
    Target("eq48_c1_bracket", "report_only", _m_eq48),
    Target("lemma3_literal", "report_only", partial(_m_lemma3, literal=True), k_filter=_k_above_1),
    Target("lemma3_corrected", "asserted", partial(_m_lemma3, literal=False), k_filter=_k_above_1),
    Target("eq49_product_equality", "asserted", _m_eq49),
    Target("eq54_sinbeta", "report_only", _m_eq54, k_filter=_k_at_least_1),
    Target("eq55_sum_square", "report_only", _m_eq55, k_filter=_k_at_least_1),
    Target("eq59_h_product", "report_only", _m_eq59, k_filter=_k_at_least_1),
    Target("eq60_phi_4bound", "asserted", _m_eq60, default_tol=1e-12, k_filter=_k_at_least_1),
    Target("eq61_phi_cos", "report_only", _m_eq61, k_filter=_k_at_least_1),
    Target("eq62_ratio_infinitesimal", "report_only", _m_eq62, k_filter=_k_at_least_1),
    Target("eq64_extremal_8", "report_only", _m_eq64, k_filter=_k_at_least_1),
    Target("paper_phi_identity_literal", "report_only", partial(_m_phi_identity, literal=True)),
    Target("std_phi_identity", "asserted", partial(_m_phi_identity, literal=False)),
    Target("thm4_k1_equality", "asserted", _m_thm4_k1, default_tol=1e-15),
    Target("mori_radial_16", "asserted", partial(_m_mori_radial, variant="sixteen"),
           sample=_MORI_PAIRS, k_filter=_k_at_least_1),
    Target("mori_radial_64", "asserted", partial(_m_mori_radial, variant="sixtyfour"),
           sample=_MORI_PAIRS, k_filter=_k_at_least_1),
    Target("planted_false", "asserted", _m_planted_false, sanity=True),
)}


def registry() -> list[str]:
    """The closed list of registered inequality identifiers."""
    return list(_REGISTRY)


def target_info(name: str) -> Target:
    """The registered target `name`; UsageError if there is none."""
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


def _grid(target: Target, spec: SweepSpec) -> tuple[int, dict[str, list[float]]]:
    """The Cartesian grid's row count and one column per parameter: axes in name
    order (a, alpha, k, r), the first outermost; pairwise r is (r_i, r_{i+1})."""
    rs = _linspace(*spec.r_grid)
    values = {   # each axis's columns, one value per axis row
        "a": [sorted(a for a in spec.a_values if target.a_filter is None or target.a_filter(a))],
        "k": [sorted(k for k in spec.k_values if target.k_filter is None or target.k_filter(k))],
        "r": [rs[:-1], rs[1:]] if target.pairwise_r else [rs],
        "alpha": [[r * math.pi / 2.0 for r in rs]],   # the r grid mapped onto (0, pi/2]
    }
    names = sorted(target.axes)
    sizes = [len(values[name][0]) for name in names]
    columns = {}
    for i, name in enumerate(names):
        if not sizes[i]:
            given = spec.a_values if name == "a" else spec.k_values
            raise UsageError(f"target {target.name!r} has no {name} value to sweep: "
                             f"its filter rejects every one of {given!r}")
        each = itertools.repeat(math.prod(sizes[i + 1:]))   # rows per value
        for column, vals in zip((name, "r_next"), values[name]):
            columns[column] = [*itertools.chain.from_iterable(
                map(itertools.repeat, vals, each))] * math.prod(sizes[:i])
    return math.prod(sizes), columns


def margin_at(target_name: str, params: dict) -> float:
    """Re-evaluate a target's margin at a report's argmin parameters."""
    target = target_info(target_name)
    if target.sample is None:
        return target.margin(**params)
    i = params["i"]
    columns = {name: [params[name]] for name in target.axes}
    zss = _sampler(target.sample, params["seed"])(i, i + 1)
    [ms] = target.margin(target.sample.shared(zss, **columns), **columns)
    return ms[0]


def _rank(m: float) -> float:
    # NaN ranks as the worst margin
    return m if m == m else -math.inf


def _open(spec: SweepSpec) -> tuple[dict, Callable, Callable]:
    """Check spec and open its sweep: its grid's columns, and two closures
    over its running statistics.  feed(lo, block) folds in the margins of a
    sampled target at a drawn block of indices lo, lo + 1, ..., as its
    Sampler's shared step hands it over; finish() returns the report, first
    mapping a grid margin over the columns, and redraws at the spec's seed
    the points that a sampled row's params record."""
    target = target_info(spec.target)
    for field in ("samples", "seed"):   # a str seed would hash as its text
        value = getattr(spec, field)
        try:
            operator.index(value)
        except TypeError:
            raise UsageError(f"{field} must be an integer, not {value!r}") from None
    if spec.samples < 1:
        raise UsageError("samples must be >= 1")
    ks = spec.k_values
    if not all(0.0 < k < math.inf for k in ks) or len(set(ks)) < len(ks):   # NaN fails too
        raise UsageError(f"target {target.name!r} takes k values {ks!r}: each K must be "
                         f"finite, > 0 and given once")
    tol = target.default_tol
    size, grid = _grid(target, spec)
    n = spec.samples
    ok = (-tol).__le__
    count, kept = 0, []               # kept: (rank, order, margin), worst first
    rows: list = [None] * size        # a sampled row's worst so far, as fold returns it

    def fold(ms: list[float], base: int) -> tuple[float, int, float]:
        """Fold in the margins of orders base, base + 1, ..., where order is
        the lexicographic (grid row, sample index) position; return the
        block's worst as (rank, order, margin)."""
        nonlocal count, kept
        m = min(ms)
        # min skips a NaN that is not first, but any NaN makes the sum NaN
        if m >= -tol and not math.isnan(sum(ms)):
            return m, base + ms.index(m), m
        # past that test some margin violates
        count += len(ms) - sum(map(ok, ms))
        # the candidates: margins that violate or, once MAX_VIOLATIONS
        # are kept, that rank at or below the worst kept one
        over = ok if len(kept) < MAX_VIOLATIONS else kept[-1][0].__lt__
        picked = itertools.compress(zip(ms, itertools.count(base)),
                                    map(operator.not_, map(over, ms)))
        cand = [(_rank(x), o, x) for x, o in picked]
        if cand:
            kept = heapq.nsmallest(MAX_VIOLATIONS, kept + cand)
        if any(x != x for _, _, x in cand):
            return min(cand)          # every NaN is a candidate
        return m, base + ms.index(m), m

    def feed(lo: int, block) -> None:
        for j, ms in enumerate(target.margin(block, **grid)):
            worst = fold(ms, j * n + lo)
            if rows[j] is None or worst < rows[j]:
                rows[j] = worst

    def row(j: int) -> dict:
        return {name: column[j] for name, column in grid.items()}

    def finish() -> InequalityReport:
        if target.sample is None:
            columns = [grid[a] for a in _arg_names(target.margin) if a in grid]
            ms = list(map(target.margin, *columns))
            best, row_minima, params = fold(ms, 0), ms, row
        else:
            best = min(rows)
            row_minima = [m for _, _, m in rows]
            draw = _sampler(target.sample, spec.seed)

            def params(order: int) -> dict:
                j, i = divmod(order, n)
                p = dict(row(j), i=i, seed=spec.seed)
                for name, z in zip(target.sample.names, draw(i, i + 1)[0]):
                    p[f"{name}_re"], p[f"{name}_im"] = z.real, z.imag
                return p

        ranks = list(map(_rank, row_minima))
        axis_minima: dict = {name: {} for name in ("a", "k") if name in grid}
        for name, least in axis_minima.items():   # value -> its first row of least rank
            for j, v in enumerate(grid[name]):
                if v not in least or ranks[j] < ranks[least[v]]:
                    least[v] = j
            axis_minima[name] = {v: row_minima[j] for v, j in least.items()}
        if target.classification == "asserted":
            status = "fail" if count else "pass"
        else:
            status = "report_only"
        return InequalityReport(
            target=target.name,
            classification=target.classification,
            evaluations=size * (n if target.randomized else 1),
            min_margin=best[2],
            argmin=params(best[1]),
            axis_minima=axis_minima,
            violation_count=count,
            violations=tuple((params(o), m) for _, o, m in kept),
            status=status,
            spec=spec,
            tol=tol,
        )

    return grid, feed, finish


def _sweep(specs: list[SweepSpec]) -> list[InequalityReport]:
    """Sweep targets that share one draw: one spec, or specs whose targets
    share a Sampler, seed, sample count and K values.  Every spec is checked
    before the first block is drawn; each SAMPLE_BLOCK is then drawn once,
    handed through the Sampler's shared step once, on the first spec's
    columns, and fed to every spec's fold.  So targets that hold one Sampler
    must have equal axes, k_filter and a_filter, or a member would read
    another's rows.  Nothing outlives the block loop: finish redraws."""
    members = [_open(spec) for spec in specs]
    first = specs[0]
    sample, n = target_info(first.target).sample, first.samples
    if sample is not None:
        draw, columns = _sampler(sample, first.seed), members[0][0]
        for lo in range(0, n, SAMPLE_BLOCK):
            block = sample.shared(draw(lo, min(lo + SAMPLE_BLOCK, n)), **columns)
            for _, feed, _ in members:
                feed(lo, block)
    return [finish() for _, _, finish in members]


def sweep(spec: SweepSpec) -> InequalityReport:
    """Evaluate one target's margin over its full parameter grid.  Every
    violation (a margin below -tol, with tol the target's default_tol, or
    NaN, which ranks worst) is counted; the MAX_VIOLATIONS worst are kept,
    ties going to the earlier row.  A grid margin is mapped over the grid's
    columns.  A sampled target draws SAMPLE_BLOCK indices at a time, runs
    its Sampler's shared step on them once, and evaluates every grid row on
    the result, so memory does not grow with spec.samples.  A row's params
    (a sampled row's also hold the seed, index and redrawn points) are built
    only for the argmin and the kept violations.  Every spec is checked
    before any margin or draw runs: an unknown target, a samples or seed
    that is not an integer, samples < 1, a K that is not finite and
    positive, a K given twice and an emptied axis raise UsageError."""
    [report] = _sweep([spec])
    return report


def mori_radial_experiment(k: float, samples: int = 10_000,
                           variant: str = "sixteen") -> InequalityReport:
    """Holder-bound check of the canonical K-quasiconformal radial stretch
    z -> z |z|^{1/K - 1} on uniform disk pairs drawn with SweepSpec's
    default seed; the target's K filter rejects K < 1.  Both variants judge
    the same pairs: mori_radial_16 and _64 share one Sampler."""
    if variant not in ("sixteen", "sixtyfour"):
        raise UsageError(f"unknown variant {variant!r}")
    spec = SweepSpec(target=f"mori_radial_{16 if variant == 'sixteen' else 64}",
                     k_values=(k,), samples=samples)
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
    "sanity": tuple(name for name, t in _REGISTRY.items() if t.sanity),
    "all": tuple(name for name, t in _REGISTRY.items() if not t.sanity),
}


def run_suite(name: str, **overrides) -> list[InequalityReport]:
    """Run a named suite; overrides are SweepSpec fields applied to every
    target.  The memos start empty, so a kernel changed since a run is seen.
    Consecutive targets that share a Sampler (mori_radial_16 and _64) are
    swept on one draw, each block hashed and run through the shared step
    once; every other target goes through sweep."""
    if name not in SUITES:
        raise UsageError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    for memo in _MEMOS:
        memo.cache_clear()
    reports = []
    specs = (SweepSpec(target=target, **overrides) for target in SUITES[name])
    for sample, group in itertools.groupby(specs, lambda s: target_info(s.target).sample):
        group = list(group)
        reports += _sweep(group) if sample is not None and len(group) > 1 else map(sweep, group)
    return reports


def suite_failed(reports: list[InequalityReport]) -> bool:
    """Whether an asserted inequality failed in any of the reports."""
    return any(r.status == "fail" for r in reports)

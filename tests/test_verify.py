"""Verification engine: registry coverage, determinism, margin re-evaluation,
the planted-false sanity target, and configuration validation.
"""
import cmath
import hashlib
import inspect
import itertools
import json
import math
import struct

import pytest

import gft
from gft import (
    SUITES,
    InequalityReport,
    SweepSpec,
    UsageError,
    bounds,
    lemma3_fk,
    margin_at,
    mori_radial_experiment,
    phi_ka,
    registry,
    run_suite,
    suite_failed,
    sweep,
    target_info,
    verify,
)

SPEC_SMALL = dict(samples=100)
SAMPLED_TARGETS = ("eq5_chain", "mori_radial_16", "mori_radial_64")

EXPECTED_TARGETS = {
    "eq5_chain",
    "lemma2_item1", "lemma2_item2", "lemma2_item3",
    "eq42_sandwich_literal", "eq42_sandwich_cprime",
    "eq48_c1_bracket",
    "lemma3_literal", "lemma3_corrected",
    "eq49_product_equality",
    "eq54_sinbeta", "eq55_sum_square", "eq59_h_product",
    "eq60_phi_4bound", "eq61_phi_cos", "eq62_ratio_infinitesimal",
    "eq64_extremal_8",
    "paper_phi_identity_literal", "std_phi_identity",
    "thm4_k1_equality",
    "mori_radial_16", "mori_radial_64",
    "planted_false",
}


def test_one_memo_cache():
    # the kernels (special, modulus, distortion, bounds) stay pure, so their
    # timings are cold by construction; the verify layer shares u_a(r) and
    # phi_{K,a}(r)
    import importlib
    cached = {f"{mod}.{name}"
              for mod in ("special", "modulus", "distortion", "bounds", "verify", "cli")
              for name, obj in vars(importlib.import_module(f"gft.{mod}")).items()
              if hasattr(obj, "cache_info")}
    assert cached == {"verify._phi_a", "verify._u_a"}


def test_phi_cache_reads_the_value_only(monkeypatch, clear_verify_caches):
    # an uncached a = 1/2 entry costs the forward u(r), 2 agm calls, and the
    # inverse from the nome, which calls none; a residual would take 2 more.
    # A second K at the same r reads the cached u(r): no agm call at all
    from gft import distortion, modulus, special
    calls = []
    real = special.agm

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    for mod in (special, modulus):
        monkeypatch.setattr(mod, "agm", counting)
    value = verify._phi_a(0.5, 2.0, 0.3)
    assert len(calls) == 2
    assert value == distortion.phi_k(2.0, 0.3).value
    del calls[:]
    value = verify._phi_a(0.5, 4.0, 0.3)
    assert len(calls) == 0
    assert value == distortion.phi_k(4.0, 0.3).value


def test_phi_memo_matches_phi_ka_on_the_default_grid(monkeypatch, clear_verify_caches):
    # every (a, K, r) the default `verify all` reads: the memo's route
    # (u_a, then its inverse) gives phi_ka's value bit for bit
    real = verify._phi_a
    seen = set()

    def recording(a, k, r):
        seen.add((a, k, r))
        return real(a, k, r)

    monkeypatch.setattr(verify, "_phi_a", recording)
    run_suite("all", samples=1)   # the sampled targets read no phi
    inverted = {(a, k, r) for a, k, r in seen if k != 1.0}
    assert len(inverted) == 2667
    for a, k, r in sorted(seen):
        assert real(a, k, r) == phi_ka(a, k, r).value, (a, k, r)


@pytest.mark.parametrize("k", [0.0, -1.0, math.inf, math.nan])
def test_phi_memo_refuses_a_bad_k_as_phi_ka_does(k, clear_verify_caches):
    with pytest.raises(gft.DomainError) as want:
        phi_ka(0.25, k, 0.3)
    with pytest.raises(gft.DomainError) as got:
        verify._phi_a(0.25, k, 0.3)
    assert str(got.value) == str(want.value)


def test_forward_modulus_is_evaluated_once_per_point(monkeypatch, clear_verify_caches):
    # lemma 2's targets and lemma 3's phi inversions read u_a(r) on shared
    # (a, r) points; in one run of both suites each is evaluated once
    from collections import Counter

    from gft import modulus
    calls = Counter()
    real = modulus.grotzsch_ua

    def counting(a, r):
        calls[a, r] += 1
        return real(a, r)

    monkeypatch.setattr(modulus, "grotzsch_ua", counting)
    run_suite("all", samples=1)   # holds lemma2 and lemma3
    assert len(calls) == 592 and set(calls.values()) == {1}


def test_a_run_sees_a_kernel_patched_since_the_last_run(monkeypatch):
    # run_suite empties the memos as it starts: with no clear_verify_caches,
    # a forward modulus patched between two runs reaches the second, and
    # the real one, restored, reaches the third
    from gft import modulus
    real = modulus.grotzsch_ua
    calls = []

    def faulty(a, r):
        calls.append((a, r))
        return 1.5 * real(a, r)

    def run() -> str:
        return json.dumps([rep.to_dict() for rep in run_suite("lemma3")])

    first = run()
    monkeypatch.setattr(modulus, "grotzsch_ua", faulty)
    second = run()
    assert calls and second != first
    monkeypatch.undo()
    assert run() == first


def _wave(*xs: float) -> float:
    # margins of both signs, distinct on the grids below
    return sum(math.sqrt(i + 1) * x for i, x in enumerate(xs)) - 3.0


@pytest.mark.parametrize("case", ["k_alpha", "pairwise_r", "a_only"])
def test_grid_margin_is_mapped_over_the_columns(case, monkeypatch):
    # a grid margin is called positionally (its parameters are positional
    # only), in its own parameter order, once per row; the rows come in
    # Cartesian order, axes in name order and the first outermost; the
    # argmin and the kept violations are those rows' dicts, keys in name order
    rs = verify._linspace(*SweepSpec.r_grid)
    ks = (1.0, 2.0, 4.0)
    calls = []
    if case == "k_alpha":   # parameter order is not name order, as in eq54
        def margin(k, alpha, /):
            calls.append((k, alpha))
            return _wave(k, alpha)
        rows = [{"alpha": r * math.pi / 2.0, "k": k} for r in rs for k in ks]
        order = ("k", "alpha")
    elif case == "pairwise_r":
        def margin(k, r, r_next, /):
            calls.append((k, r, r_next))
            return _wave(k, r, r_next)
        rows = [{"k": k, "r": r, "r_next": s} for k in ks for r, s in zip(rs, rs[1:])]
        order = ("k", "r", "r_next")
    else:
        def margin(a, /):
            calls.append((a,))
            return _wave(a)
        rows = [{"a": a} for a in (0.1, 0.25)]
        order = ("a",)
    target = verify.Target(case, "asserted", margin, a_filter=verify._a_not_half)
    monkeypatch.setitem(verify._REGISTRY, case, target)
    rep = sweep(SweepSpec(target=case, k_values=(4.0, 1.0, 2.0)))
    assert calls == [tuple(row[name] for name in order) for row in rows]
    ms = [_wave(*c) for c in calls]
    assert len(set(ms)) == len(ms) == rep.evaluations
    assert rep.min_margin == min(ms) and rep.argmin == rows[ms.index(min(ms))]
    worst = sorted((m, j) for j, m in enumerate(ms) if m < -target.default_tol)
    assert rep.violation_count == len(worst)
    assert rep.violations == tuple((rows[j], m) for m, j in worst[:verify.MAX_VIOLATIONS])
    assert all(list(p) == list(rows[0]) for p in [rep.argmin, *(p for p, _ in rep.violations)])


@pytest.mark.parametrize("name", [t for t in SUITES["all"] if target_info(t).sample is None])
def test_margin_at_reproduces_a_grid_argmin(name):
    # the sweep maps the margin positionally; margin_at calls it by keyword
    rep = sweep(SweepSpec(target=name))
    assert margin_at(name, rep.argmin) == rep.min_margin


def test_mori_margin_of_a_pair_with_a_point_at_zero():
    # the radial stretch takes 0 to 0: with z1 = 0, |z2 - z1| = |z2| and the
    # margin is (c^{1-1/K} - 1) |z2|^{1/K}, exactly 0.0 at K = 1
    ks = [1.0, 1.5, 2.0, 4.0]
    for name, c in (("mori_radial_16", 16.0), ("mori_radial_64", 64.0)):
        margin, stretch = target_info(name).margin, target_info(name).sample.shared
        for z2 in (0.3 + 0.4j, -0.7j, 1e-300 + 0j, 0.999):
            for zss in ([(0j, z2)], [(z2, 0j)]):
                rows = [ms for [ms] in margin(stretch(zss, k=ks), k=ks)]
                assert rows[0] == 0.0
                for kj, got in zip(ks[1:], rows[1:]):
                    want = (c ** (1.0 - 1.0 / kj) - 1.0) * abs(z2) ** (1.0 / kj)
                    assert got == pytest.approx(want, rel=1e-14), (name, z2, kj)


def test_lemma3_margins_match_lemma3_fk():
    # the margins scale the shared phi_{K,a}(r) by r^{+-1/K} themselves; the
    # corrected one is lemma3_fk's, the literal one the printed r^{+1/K}
    p = {"a": 0.25, "k": 2.0, "r": 0.3, "r_next": 0.31}
    want = lemma3_fk(0.25, 2.0, 0.3) - lemma3_fk(0.25, 2.0, 0.31)
    assert margin_at("lemma3_corrected", p) == want
    want = (phi_ka(0.25, 2.0, 0.3).value * 0.3 ** 0.5
            - phi_ka(0.25, 2.0, 0.31).value * 0.31 ** 0.5)
    assert margin_at("lemma3_literal", p) == want


class TestRegistry:
    def test_closed_identifier_list(self):
        assert set(registry()) == EXPECTED_TARGETS

    def test_all_suite_excludes_sanity(self):
        assert "planted_false" not in SUITES["all"]
        assert set(SUITES["all"]) == EXPECTED_TARGETS - {"planted_false"}

    def test_target_info(self):
        t = target_info("eq60_phi_4bound")
        assert t.classification == "asserted"
        assert t.default_tol == 1e-12
        with pytest.raises(UsageError):
            target_info("no_such_target")

    def test_axes_are_read_from_the_margins(self):
        # the axes and pairwise flag each target sweeps come from its
        # margin's parameters alone; Target holds no copy that could disagree
        assert not {"axes", "pairwise_r"} & set(verify.Target._fields)
        stated = {
            "eq5_chain": ((), False),
            "lemma2_item1": (("a", "r"), False),
            "lemma2_item2": (("a", "r"), False),
            "lemma2_item3": (("a", "r"), False),
            "eq42_sandwich_literal": (("a", "r"), False),
            "eq42_sandwich_cprime": (("a", "r"), False),
            "eq48_c1_bracket": (("a",), False),
            "lemma3_literal": (("a", "k", "r"), True),
            "lemma3_corrected": (("a", "k", "r"), True),
            "eq49_product_equality": (("k", "r"), False),
            "eq54_sinbeta": (("k", "alpha"), False),
            "eq55_sum_square": (("k", "alpha"), False),
            "eq59_h_product": (("k", "alpha"), False),
            "eq60_phi_4bound": (("k", "r"), False),
            "eq61_phi_cos": (("k", "alpha"), False),
            "eq62_ratio_infinitesimal": (("k", "alpha"), False),
            "eq64_extremal_8": (("k", "r"), False),
            "paper_phi_identity_literal": (("k", "r"), False),
            "std_phi_identity": (("k", "r"), False),
            "thm4_k1_equality": (("r",), False),
            "mori_radial_16": (("k",), False),
            "mori_radial_64": (("k",), False),
            "planted_false": (("r",), False),
        }
        assert {n: (target_info(n).axes, target_info(n).pairwise_r)
                for n in registry()} == stated

    def test_axes_agree_with_inspect_signature(self):
        # axes and pairwise_r read the margin's code object, as the library
        # does not import inspect; the signature is the reference
        for name in registry():
            t = target_info(name)
            params = inspect.signature(t.margin).parameters
            assert t.axes == tuple(n for n in params if n in ("a", "k", "r", "alpha")), name
            assert t.pairwise_r == ("r_next" in params), name
        assert len(registry()) == 23

    def test_samplers_draw_one_point_or_a_pair(self):
        # Sampler checks nothing itself: the registry builds every one, and
        # _sampler's draw builds the first attempt inline for these two widths
        sampled = {n: target_info(n).sample for n in registry() if target_info(n).randomized}
        assert set(sampled) == set(SAMPLED_TARGETS)
        for name, sampler in sampled.items():
            assert len(sampler.names) in (1, 2), name
            zss = verify._sampler(sampler, 1)(0, 5)
            assert [len(zs) for zs in zss] == [len(sampler.names)] * 5, name

    def test_classifications(self):
        asserted = {n for n in registry() if target_info(n).classification == "asserted"}
        assert asserted == {"lemma3_corrected", "eq49_product_equality", "eq60_phi_4bound",
                            "std_phi_identity", "thm4_k1_equality", "mori_radial_16",
                            "mori_radial_64", "planted_false"}


class TestSweep:
    def test_report_shape(self):
        rep = sweep(SweepSpec(target="std_phi_identity"))
        assert isinstance(rep, InequalityReport)
        assert rep.status == "pass"
        assert rep.evaluations > 0
        assert math.isfinite(rep.min_margin)
        d = rep.to_dict()
        assert d["schema"] == "v2"
        assert d["target"] == "std_phi_identity"
        assert d["violation_count"] == 0 and d["violations"] == []
        # provenance: what was swept, at which tolerance, by which version
        assert d["spec"] == {"r_grid": [0.01, 0.99, 99], "k_values": [1.0, 1.5, 2.0, 4.0],
                             "a_values": [0.1, 0.25, 0.5], "samples": 10_000,
                             "seed": 20240811}
        assert d["tol"] == 1e-9
        assert d["version"] == gft.__version__
        assert "wall_time_ms" not in d
        assert list(d["axis_minima"]) == ["k"]
        assert min(d["axis_minima"]["k"].values()) == rep.min_margin

    def test_determinism_byte_identical(self):
        spec = SweepSpec(target="mori_radial_16", samples=300)
        a = json.dumps(sweep(spec).to_dict(), sort_keys=True)
        b = json.dumps(sweep(spec).to_dict(), sort_keys=True)
        assert a == b

    def test_seed_changes_randomized_samples(self):
        # k = 1 yields margin exactly 0 regardless of seed, so pin k = 2
        a = sweep(SweepSpec(target="mori_radial_16", samples=300, seed=1,
                            k_values=(2.0,)))
        b = sweep(SweepSpec(target="mori_radial_16", samples=300, seed=2,
                            k_values=(2.0,)))
        assert a.min_margin != b.min_margin

    def test_margin_reevaluation_at_argmin(self):
        for name in ("std_phi_identity", "eq60_phi_4bound", "lemma3_corrected",
                     "lemma2_item1"):
            rep = sweep(SweepSpec(target=name))
            assert margin_at(name, rep.argmin) == pytest.approx(
                rep.min_margin, abs=1e-15)

    def test_planted_false_fails(self):
        rep = sweep(SweepSpec(target="planted_false"))
        assert rep.status == "fail"
        assert rep.violation_count == 99  # phi_2(r) > r everywhere
        assert len(rep.violations) == verify.MAX_VIOLATIONS
        assert rep.min_margin < 0.0
        assert suite_failed([rep])


def _in_omega1(z: complex) -> bool:
    return abs(z) < 1.0 and 0.01 < abs(z) < abs(z - 1.0)


def _reference_attempts(sampler, seed: int, i: int, block: int) -> list:
    """The attempts of one digest, straight from hashlib as the README
    describes the scheme: BLAKE2b of "seed:stream:" and the little-endian
    64-bit i and block; eight 64-bit words, two per point, u and v, for the
    point sqrt(u) e^{2 pi i v} with u = (w >> 11) 2^-53; one attempt holds
    one point per sampler name."""
    data = f"{seed}:{sampler.stream}:".encode() + struct.pack("<QQ", i, block)
    w = struct.unpack("<8Q", hashlib.blake2b(data).digest())
    pts = [cmath.rect(math.sqrt((w[m] >> 11) * 2.0 ** -53),
                      2.0 * math.pi * ((w[m + 1] >> 11) * 2.0 ** -53)) for m in range(0, 8, 2)]
    width = len(sampler.names)
    return [tuple(pts[j:j + width]) for j in range(0, 4, width)]


def _reference_points(sampler, seed: int, i: int) -> tuple:
    """Sample i: the first accepted attempt of blocks 0, 1, 2, ..."""
    block = 0
    while True:
        for zs in _reference_attempts(sampler, seed, i, block):
            if sampler.accept(*zs):
                return zs
        block += 1


def _reference_grid(target, spec: SweepSpec) -> list[dict]:
    """The target's grid rows as dicts, from itertools.product: axes in name
    order (a, alpha, k, r), the first outermost; a pairwise r axis takes
    (r_i, r_{i+1}); alpha is the r grid mapped onto (0, pi/2]."""
    rs = verify._linspace(*spec.r_grid)
    axis = {
        "a": [{"a": a} for a in sorted(spec.a_values)
              if target.a_filter is None or target.a_filter(a)],
        "k": [{"k": k} for k in sorted(spec.k_values)
              if target.k_filter is None or target.k_filter(k)],
        "r": ([{"r": r, "r_next": s} for r, s in zip(rs, rs[1:])] if target.pairwise_r
              else [{"r": r} for r in rs]),
        "alpha": [{"alpha": r * math.pi / 2.0} for r in rs],
    }
    return [{name: v for q in qs for name, v in q.items()}
            for qs in itertools.product(*(axis[name] for name in sorted(target.axes)))]


def _stream(spec: SweepSpec) -> list:
    """The sweep's margins one evaluation at a time, as (margin, grid params,
    sample index or None, sampled points or None) rows in lexicographic
    (grid row, sample index) order: the reference that the block-streamed
    sweep must reproduce.  A grid margin is called by keyword, one row at a
    time, where the sweep maps it positionally over columns; a sampled one
    reads one point at a time, through its Sampler's shared step if any."""
    target = target_info(spec.target)
    grid = _reference_grid(target, spec)
    if target.sample is None:
        return [(target.margin(**p), p, None, None) for p in grid]
    points = [_reference_points(target.sample, spec.seed, i) for i in range(spec.samples)]
    axes, shared = target.axes, target.sample.shared
    rows = []
    for p in grid:
        columns = {name: [p[name]] for name in axes}
        for i, zs in enumerate(points):
            block = [zs] if shared is None else shared([zs], **columns)
            [(m,)] = target.margin(block, **columns)
            rows.append((m, p, i, zs))
    return rows


def _sampled_rows(name: str, samples: int, below: int) -> list:
    """The sweep's rows with index < below."""
    return [row for row in _stream(SweepSpec(target=name, samples=samples))
            if row[2] < below]


def _report_params(spec: SweepSpec, p: dict, i, zs) -> dict:
    """A row's params as a report records them."""
    if i is None:
        return p
    q = dict(p, i=i, seed=spec.seed)
    for n, z in zip(target_info(spec.target).sample.names, zs):
        q[f"{n}_re"], q[f"{n}_im"] = z.real, z.imag
    return q


def _reference(spec: SweepSpec) -> dict:
    """A report's statistics, reduced from _stream one row at a time: the
    first row of least margin, each axis value's least margin, and every
    violation sorted by (margin, order), of which the report keeps the
    first MAX_VIOLATIONS."""
    target = target_info(spec.target)
    tol = target.default_tol
    min_margin, argmin = math.inf, {}
    axis_minima: dict = {name: {} for name in ("a", "k") if name in target.axes}
    violations = []
    for order, (m, p, i, zs) in enumerate(_stream(spec)):
        if m < min_margin:
            min_margin, argmin = m, _report_params(spec, p, i, zs)
        for name, minima in axis_minima.items():
            if p[name] not in minima or m < minima[p[name]]:
                minima[p[name]] = m
        if m < -tol:
            violations.append((m, order, _report_params(spec, p, i, zs)))
    violations.sort(key=lambda row: row[:2])
    return {"min_margin": min_margin, "argmin": argmin, "axis_minima": axis_minima,
            "violation_count": len(violations),
            "violations": tuple((p, m) for m, _, p in violations[:verify.MAX_VIOLATIONS])}


def _statistics(rep: InequalityReport) -> dict:
    return {"min_margin": rep.min_margin, "argmin": rep.argmin,
            "axis_minima": rep.axis_minima, "violation_count": rep.violation_count,
            "violations": rep.violations}


class TestBlockStreaming:
    @pytest.mark.parametrize("name", sorted(EXPECTED_TARGETS))
    def test_sweep_equals_the_per_evaluation_reference(self, name):
        spec = SweepSpec(target=name, samples=300)
        assert _statistics(sweep(spec)) == _reference(spec)

    @pytest.mark.parametrize("name", SAMPLED_TARGETS)
    def test_sampled_blocks_equal_the_reference(self, name):
        # three blocks, the last one partial; K = 1 ties every mori pair at 0
        assert 2 * verify.SAMPLE_BLOCK < 2500 < 3 * verify.SAMPLE_BLOCK
        spec = SweepSpec(target=name, samples=2500, k_values=(1.0, 1.5, 4.0))
        rep = sweep(spec)
        assert rep.evaluations == 2500 * (1 if name == "eq5_chain" else 3)
        assert _statistics(rep) == _reference(spec)

    def test_memory_does_not_grow_with_samples(self):
        # the sweep holds one block of points, not all spec.samples of them
        import tracemalloc
        spec = SweepSpec(target="mori_radial_16", samples=25_000)
        sweep(SweepSpec(target="mori_radial_16", samples=10))
        tracemalloc.start()
        try:
            sweep(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_nan_margins_are_violations_that_rank_worst(self, monkeypatch):
        # NaN compares false with everything, so no "m < -tol" catches it
        rs = verify._linspace(0.01, 0.99, 99)
        nan_rows = verify.Target(
            "nan_rows", "asserted",
            lambda r: math.nan if 0.3 < r < 0.4 else (-1.0 if r > 0.9 else 1.0))
        monkeypatch.setitem(verify._REGISTRY, "nan_rows", nan_rows)
        rep = sweep(SweepSpec(target="nan_rows"))
        nans = [r for r in rs if 0.3 < r < 0.4]
        assert len(nans) == 9
        assert rep.status == "fail"
        assert rep.violation_count == 9 + sum(r > 0.9 for r in rs)
        assert math.isnan(rep.min_margin) and rep.argmin == {"r": nans[0]}
        assert [p for p, _ in rep.violations] == (
            [{"r": r} for r in nans] + [{"r": r} for r in rs if r > 0.9][:11])
        assert all(math.isnan(m) for _, m in rep.violations[:9])
        assert all(m == -1.0 for _, m in rep.violations[9:])

    def test_one_nan_among_passing_grid_margins_fails(self, monkeypatch):
        # min() skips a NaN that is not first, so a block whose least
        # margin passes may still hold one: it must be counted and reported
        rs = verify._linspace(0.01, 0.99, 99)
        one_nan = verify.Target("one_nan", "asserted",
                                lambda r: math.nan if r == rs[50] else 1.0 + r)
        monkeypatch.setitem(verify._REGISTRY, "one_nan", one_nan)
        rep = sweep(SweepSpec(target="one_nan"))
        assert rep.status == "fail" and rep.violation_count == 1
        assert math.isnan(rep.min_margin) and rep.argmin == {"r": rs[50]}
        assert [p for p, _ in rep.violations] == [{"r": rs[50]}]

    def test_one_nan_among_passing_samples_fails(self, monkeypatch):
        # the same in the second block of a sampled target, at the third
        # sample of the block, every other sample passing
        sampler = target_info("eq5_chain").sample
        at = verify.SAMPLE_BLOCK + 2
        one_nan = verify.Target(
            "one_nan_sampled", "asserted",
            lambda zss: [[math.nan if zs == nan_point else 1.0 for zs in zss]],
            sample=sampler)
        monkeypatch.setitem(verify._REGISTRY, "one_nan_sampled", one_nan)
        spec = SweepSpec(target="one_nan_sampled", samples=2500)
        nan_point = verify._sampler(sampler, spec.seed)(at, at + 1)[0]
        rep = sweep(spec)
        assert rep.status == "fail" and rep.violation_count == 1
        assert math.isnan(rep.min_margin) and rep.argmin["i"] == at
        assert [p["i"] for p, _ in rep.violations] == [at]

    def test_all_nan_target_fails(self, monkeypatch):
        all_nan = verify.Target("all_nan", "asserted", lambda r: math.nan)
        monkeypatch.setitem(verify._REGISTRY, "all_nan", all_nan)
        rep = sweep(SweepSpec(target="all_nan"))
        assert rep.status == "fail" and rep.violation_count == 99
        assert math.isnan(rep.min_margin) and rep.argmin == {"r": 0.01}

    def test_nan_samples_enter_the_kept_violations_in_every_block(self, monkeypatch):
        # every sample violates at -1; the NaN ones, in all three blocks,
        # still displace the -1 rows that fill the kept list first
        sampler = target_info("eq5_chain").sample
        nan_near_0 = verify.Target(
            "nan_near_0", "asserted",
            lambda zss: [[math.nan if abs(z) < 0.08 else -1.0 for z, in zss]],
            sample=sampler)
        monkeypatch.setitem(verify._REGISTRY, "nan_near_0", nan_near_0)
        spec = SweepSpec(target="nan_near_0", samples=2500)
        zss = verify._sampler(sampler, spec.seed)(0, 2500)
        nans = [i for i in range(2500) if abs(zss[i][0]) < 0.08]
        assert 3 <= len(nans) < verify.MAX_VIOLATIONS
        assert {i // verify.SAMPLE_BLOCK for i in nans} == {0, 1, 2}
        rep = sweep(spec)
        assert rep.violation_count == 2500
        assert math.isnan(rep.min_margin) and rep.argmin["i"] == nans[0]
        ones = [i for i in range(2500) if i not in nans]
        want = nans + ones[:verify.MAX_VIOLATIONS - len(nans)]
        assert [p["i"] for p, _ in rep.violations] == want

    def test_tied_violations_of_a_later_block_keep_their_order(self, monkeypatch):
        # every violation ties at -1.  Row K = 2 violates everywhere and fills
        # the kept list in block 0, yet K = 1's few violations of block 1 come
        # earlier in (row, index) order and must displace it.  The margin
        # reads the mori pairs as drawn, without the Mori shared step
        sampler = target_info("mori_radial_16").sample._replace(shared=None)
        ties = verify.Target(
            "ties_across_blocks", "asserted",
            lambda zss, k: [[-1.0 if kj == 2.0 or abs(z1) < 0.12 else 0.0
                             for z1, _ in zss] for kj in k], sample=sampler)
        monkeypatch.setitem(verify._REGISTRY, "ties_across_blocks", ties)
        spec = SweepSpec(target="ties_across_blocks", samples=2500, k_values=(1.0, 2.0))
        zss = verify._sampler(sampler, spec.seed)(0, 2500)
        k1 = [i for i in range(2500) if abs(zss[i][0]) < 0.12]
        assert sum(i < verify.SAMPLE_BLOCK for i in k1) < verify.MAX_VIOLATIONS <= len(k1)
        rep = sweep(spec)
        assert rep.violation_count == len(k1) + 2500
        assert [(p["k"], p["i"]) for p, _ in rep.violations] == (
            [(1.0, i) for i in k1[:verify.MAX_VIOLATIONS]])
        assert rep.argmin["k"] == 1.0 and rep.argmin["i"] == k1[0]

    def test_ties_after_the_worst_kept_do_not_displace_it(self, monkeypatch):
        # every margin ties at -1, so block 0 of row K = 1 fills the kept list
        # with orders 0-19; every later tie comes after them in (row, index)
        # order, so none displaces a kept one
        sampler = target_info("mori_radial_16").sample._replace(shared=None)
        ties = verify.Target("all_ties", "asserted",
                             lambda zss, k: [[-1.0] * len(zss) for _ in k],
                             sample=sampler)
        monkeypatch.setitem(verify._REGISTRY, "all_ties", ties)
        spec = SweepSpec(target="all_ties", samples=2500, k_values=(1.0, 2.0))
        rep = sweep(spec)
        assert rep.violation_count == 5000
        assert [(p["k"], p["i"]) for p, _ in rep.violations] == [
            (1.0, i) for i in range(verify.MAX_VIOLATIONS)]

    def test_empty_sweep_raises(self):
        # K < 1 is filtered out of eq60: nothing would be swept, and the
        # report would pass vacuously
        with pytest.raises(UsageError, match="eq60_phi_4bound.* k "):
            sweep(SweepSpec(target="eq60_phi_4bound", k_values=(0.5,)))
        with pytest.raises(UsageError, match="mori_radial_16.* k "):
            sweep(SweepSpec(target="mori_radial_16", k_values=()))


class TestSampling:
    @pytest.mark.parametrize("name", SAMPLED_TARGETS)
    def test_margin_at_reproduces_argmin_and_violations(self, name):
        # K = 1 gives every mori pair the margin 0.0: sweep K > 1 only
        spec = SweepSpec(target=name, samples=300, k_values=(1.5, 4.0))
        rep = sweep(spec)
        assert rep.evaluations == 300 * (1 if name == "eq5_chain" else 2)
        assert rep.min_margin != 0.0
        sample = target_info(name).sample
        for params, margin in ((rep.argmin, rep.min_margin), *rep.violations):
            assert margin_at(name, params) == margin
            # the points the report records are the ones margin_at redraws
            recorded = tuple(complex(params[f"{n}_re"], params[f"{n}_im"])
                             for n in sample.names)
            i = params["i"]
            assert verify._sampler(sample, params["seed"])(i, i + 1) == [recorded]
        # the report keeps the worst violations only: redraw every violating
        # row of the sweep's own stream
        violating = [row for row in _stream(spec) if row[0] < -1e-9]
        draw = verify._sampler(sample, spec.seed)
        for m, p, i, zs in violating:
            assert margin_at(name, dict(p, i=i, seed=spec.seed)) == m
            assert draw(i, i + 1) == [zs]
        assert rep.violation_count == len(violating)
        if name == "eq5_chain":
            assert rep.violation_count > 100  # the report-only chain fails often

    @pytest.mark.parametrize("name", SAMPLED_TARGETS)
    def test_points_independent_of_sample_count(self, name):
        # sample i is a pure function of (seed, stream, i)
        rows = _sampled_rows(name, 100, 100)
        assert len(rows) == (100 if name == "eq5_chain" else 400)
        assert rows == _sampled_rows(name, 300, 100)

    def test_points_independent_of_draw_order(self):
        draw = verify._sampler(target_info("mori_radial_16").sample, 7)
        forward = draw(0, 50)
        assert [draw(i, i + 1)[0] for i in reversed(range(50))][::-1] == forward
        assert draw(0, 17) + draw(17, 50) == forward

    @pytest.mark.parametrize("name", SAMPLED_TARGETS)
    def test_draw_equals_the_reference(self, name):
        # the block drawer against the scheme built from hashlib, on splits
        # that do and do not align with SAMPLE_BLOCK
        seed = SweepSpec(target=name).seed
        sampler = target_info(name).sample
        draw = verify._sampler(sampler, seed)
        want = [_reference_points(sampler, seed, i) for i in range(3000)]
        for cuts in ((0, verify.SAMPLE_BLOCK, 2 * verify.SAMPLE_BLOCK, 3000),
                     (0, 1, 1000, 1025, 2047, 2999, 3000)):
            got = []
            for lo, hi in zip(cuts, cuts[1:]):
                got += draw(lo, hi)
            assert got == want
        assert draw(5, 5) == []

    def test_rejected_first_digest_moves_to_next_block(self):
        # Omega_1 takes about 80% of the disk, so all four attempts of block 0
        # fail for a few indices in every thousand
        seed = SweepSpec(target="eq5_chain").seed
        sampler = target_info("eq5_chain").sample
        samples = 3000
        zss = verify._sampler(sampler, seed)(0, samples)
        rejected = []
        for i in range(samples):
            accepted = [zs for zs in _reference_attempts(sampler, seed, i, 0)
                        if sampler.accept(*zs)]
            if accepted:
                assert zss[i] == accepted[0]  # the first attempt that passes
            else:
                rejected.append(i)
        assert len(rejected) >= 3
        spec = SweepSpec(target="eq5_chain", samples=samples)
        violations = {i: (m, p, zs) for m, p, i, zs in _stream(spec) if m < -1e-9}
        checked = 0
        for i in rejected:
            (z,) = zss[i]
            assert _in_omega1(z)
            assert (z,) == next(zs for zs in _reference_attempts(sampler, seed, i, 1)
                                if sampler.accept(*zs))
            if i in violations:
                margin, p, zs = violations[i]
                assert zs == (z,)
                assert margin_at("eq5_chain", dict(p, i=i, seed=seed)) == margin
                checked += 1
        assert checked


def _omega1_edge_points() -> list:
    """Points of Omega_1 at its edges: |z| just above 0.01, z near the
    corners e^{+-i pi/3} where |z| = 1 meets |z| = |z - 1|, and z toward -1."""
    r0 = math.nextafter(0.01, 1.0)
    pts = [cmath.rect(r, 2.0 * math.pi * j / 12)
           for r in (r0, math.nextafter(r0, 1.0), 0.01 * (1.0 + 1e-12)) for j in range(12)]
    pts += [cmath.rect(1.0 - dr, s * (math.pi / 3.0 + dt))
            for s in (1.0, -1.0) for dr in (2.0 ** -53, 1e-12, 1e-6)
            for dt in (2.0 ** -40, 1e-9, 1e-4)]
    pts += [cmath.rect(1.0 - dr, math.pi + dt)
            for dr in (2.0 ** -53, 1e-15, 1e-9) for dt in (0.0, 1e-8, -1e-8)]
    # a few of the 0.01 circle's points round onto |z| = 0.01 itself
    return [z for z in pts if _in_omega1(z)]


class TestEq5Kernels:
    # the eq5 margin reads bounds._sigma and bounds._rho, the public
    # functions' formulas without their guards, none of which Omega_1 trips

    def test_margin_is_the_public_difference_over_the_default_stream(self):
        sampler = target_info("eq5_chain").sample
        zss = verify._sampler(sampler, SweepSpec(target="eq5_chain").seed)(0, 25_000)
        [got] = target_info("eq5_chain").margin(zss)
        want = [bounds.sigma_metric(z) - bounds.rho_lower(abs(z)) for z, in zss]
        assert [m.hex() for m in got] == [m.hex() for m in want]

    @pytest.mark.parametrize("z", _omega1_edge_points())
    def test_kernels_agree_with_the_public_functions_at_the_edges(self, z):
        assert target_info("eq5_chain").sample.accept(z)
        sigma, rho = bounds.sigma_metric(z), bounds.rho_lower(abs(z))
        assert bounds._sigma(z).hex() == sigma.hex()
        assert bounds._rho(abs(z)).hex() == rho.hex()
        assert target_info("eq5_chain").margin([(z,)]) == [[sigma - rho]]

    def test_sweep_calls_neither_public_function(self, monkeypatch):
        spec = SweepSpec(target="eq5_chain", samples=2500)
        want = sweep(spec).to_dict()

        def refuse(*args):
            raise AssertionError("a public guard was called")

        monkeypatch.setattr(bounds, "sigma_metric", refuse)
        monkeypatch.setattr(bounds, "rho_lower", refuse)
        assert sweep(spec).to_dict() == want


class TestMoriK1Row:
    # at K = 1 the margin yields [0.0] * n where c = 1.0 and 1/K - 1 = 0.0

    @pytest.mark.parametrize("name, variant", [("mori_radial_16", "sixteen"),
                                               ("mori_radial_64", "sixtyfour")])
    def test_generic_row_is_zero_at_k1(self, name, variant):
        # the short row is the same function: the generic expression reads
        # 1.0 d - |z2 1.0 - z1 1.0| = 0.0 for every pair, points at 0 too
        zss = verify._sampler(target_info(name).sample, SweepSpec(target=name).seed)(0, 25_000)
        zss += [(0j, 0.3 + 0.4j), (-0.7j, 0j), (1e-300 + 0j, -1e-300j)]
        k = 1.0
        c = bounds.mori_holder_bound(k, 1.0, variant)
        inv_k, expo = 1.0 / k, 1.0 / k - 1.0
        generic = [c * abs(z2 - z1) ** inv_k
                   - abs(z2 * (abs(z2) or math.inf) ** expo - z1 * (abs(z1) or math.inf) ** expo)
                   for z1, z2 in zss]
        assert set(generic) == {0.0}
        stretch = target_info(name).sample.shared(zss, k=[1.0])
        assert list(target_info(name).margin(stretch, k=[1.0])) == [[0.0] * len(zss)]

    @pytest.mark.parametrize("k_planted", [1.0, 1.5])
    def test_a_low_bound_is_caught(self, monkeypatch, k_planted):
        # 0.999 times the radial stretch's sharp constant 2^{1-1/K} (z and
        # -z attain it), which at K = 1 is 0.999 times the bound itself: the
        # K = 1 row then falls through to the generic expression
        real = bounds.mori_holder_bound

        def planted(k, dz_abs, variant="sixteen"):
            if k != k_planted:
                return real(k, dz_abs, variant)
            return 0.999 * 2.0 ** (1.0 - 1.0 / k) * dz_abs ** (1.0 / k)

        monkeypatch.setattr(bounds, "mori_holder_bound", planted)
        rep = sweep(SweepSpec(target="mori_radial_16"))
        assert rep.status == "fail" and rep.violation_count > 0
        assert {p["k"] for p, _ in rep.violations} == {k_planted}


class TestPlantedFaults:
    """A wrong kernel must fail the asserted targets that read it.  A row
    scales one kernel by a factor of its arguments in every namespace that
    binds it, as perfbench's recorder does (distortion binds _log_P by
    name), and sweeps at the default spec with the verify memos cleared
    before and after."""

    ROWS = [
        # kernel, its factor at the call's arguments, targets that must fail,
        # targets that must pass, modules that must bind it by name.  At
        # 1 + 1e-9, _log_P moves eq. 49's margin by -8.5e-10 only, inside
        # its 1e-9 tolerance; std_phi_identity does not read P
        ("modulus._log_P", lambda *args: 1.0 + 2e-9,
         ("eq49_product_equality",), ("std_phi_identity",), ("modulus", "distortion", "bounds")),
        ("modulus.grotzsch_u", lambda *args: 1.0 + 1e-9,
         ("eq49_product_equality", "std_phi_identity"), (), ("modulus", "distortion", "bounds")),
        # the Mori constant c taken to c/33: 16/33 and 64/33 both lie below
        # 2, the radial stretch's sharp constant, so both targets must fail
        # at K > 1 (at K = 1, c^{1-1/K} = 1 whatever c is).  A constant in
        # [2, 16] passes both: see test_mori_pairs_reach_the_sharp_constant
        ("bounds.mori_holder_bound", lambda k, *args: (1.0 / 33.0) ** (1.0 - 1.0 / k),
         ("mori_radial_16", "mori_radial_64"), (), ("bounds",)),
    ]
    # Gap rows: faults that pass every asserted target today.  Each names the
    # targets that must fail it, and its reason the ROADMAP item that closes it
    GAPS = [
        # product_P is read only by report-only targets and by the K = 1 case
        # of qc_schwarz_bounds, where P is raised to the power 0
        pytest.param("modulus.product_P", lambda *args: 1.1,
                     ("lemma2_item3", "eq42_sandwich_cprime"), (), ("modulus", "bounds"),
                     id="product_P_gap", marks=pytest.mark.xfail(
                         strict=True, raises=AssertionError,
                         reason="ROADMAP item 2 asserts these targets with P read at r'")),
        # c taken to c/4: 16 -> 4 and 64 -> 16, both in [2, 16], which the
        # radial stretch's Holder ratio 2^{1-1/K} never reaches
        pytest.param("bounds.mori_holder_bound", lambda k, *args: 0.25 ** (1.0 - 1.0 / k),
                     ("mori_radial_16", "mori_radial_64"), (), ("bounds",),
                     id="mori_holder_bound_gap", marks=pytest.mark.xfail(
                         strict=True, raises=AssertionError,
                         reason="ROADMAP item 6: a drawn map whose Holder ratio passes "
                                "(c/4)^{1-1/K}")),
    ]

    @pytest.mark.usefixtures("clear_verify_caches")
    @pytest.mark.parametrize("kernel, factor, fail, keep, binds",
                             [pytest.param(*r, id=r[0].split(".")[1]) for r in ROWS] + GAPS)
    def test_row(self, monkeypatch, kernel, factor, fail, keep, binds):
        module, name = kernel.split(".")
        real = getattr(getattr(gft, module), name)

        def planted(*args):
            return real(*args) * factor(*args)

        patched = set()
        for ns in (gft, gft.special, gft.modulus, gft.distortion, gft.bounds, verify):
            for attr, value in list(vars(ns).items()):
                if value is real:
                    monkeypatch.setattr(ns, attr, planted)
                    patched.add(ns.__name__)
        assert patched >= {f"gft.{m}" for m in binds}
        statuses = {name: sweep(SweepSpec(target=name)).status for name in fail + keep}
        assert statuses == {**{name: "fail" for name in fail}, **{name: "pass" for name in keep}}


def test_mori_pairs_reach_the_sharp_constant():
    # The radial stretch's largest Holder ratio |f(z2) - f(z1)| / |z2 - z1|^{1/K}
    # is 2^{1-1/K}, at antipodal pairs z, -z.  Over the default pairs it comes
    # within 1e-5 of that and never exceeds it beyond rounding.  So the
    # targets catch a Mori constant c only below 2: any c in [2, 16] passes
    # both mori_radial_16 and mori_radial_64, which check the stretch, not
    # the sharpness of 16 or 64
    spec = SweepSpec(target="mori_radial_16")
    zss = verify._sampler(target_info(spec.target).sample, spec.seed)(0, spec.samples)
    eps = 2.0 ** -52
    for k in spec.k_values:
        inv_k, expo = 1.0 / k, 1.0 / k - 1.0
        worst = max(abs(z2 * (abs(z2) or math.inf) ** expo - z1 * (abs(z1) or math.inf) ** expo)
                    / abs(z2 - z1) ** inv_k for z1, z2 in zss)
        sharp = 2.0 ** (1.0 - 1.0 / k)
        assert sharp * (1.0 - 1e-5) <= worst <= sharp * (1.0 + 4.0 * eps), k


# sha256 of json.dumps(sweep(SweepSpec(target=name, samples=25_000)).to_dict(),
# sort_keys=True): 25 blocks, the last partial, and indices that hash block 1
SAMPLED_REPORT_SHA256 = {
    "eq5_chain": "b58762c8808885a9937fff7cbd73318faf7043682004fd79544dc62c1afa43fc",
    "mori_radial_16": "5d2eb6ef8575b24f4ec7c98f3c825e21d761ecebd3821238a598369252c6b2b7",
    "mori_radial_64": "1ebf63e6b18bc4a8ad23b973ada51e41392db8b68117b9c3f085787422f6b605",
}


@pytest.mark.parametrize("name", SAMPLED_TARGETS)
def test_sampled_reports_are_pinned_across_many_blocks(name):
    # the golden CLI corpus samples at most 300 indices, all in block 0
    doc = json.dumps(sweep(SweepSpec(target=name, samples=25_000)).to_dict(), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == SAMPLED_REPORT_SHA256[name]


class TestBoundedReport:
    @pytest.mark.parametrize("name", ("eq5_chain", "lemma3_literal"))
    def test_count_and_worst_violations_match_the_stream(self, name):
        # every violation is counted; the MAX_VIOLATIONS kept are the most
        # negative in (margin, evaluation order) order
        spec = SweepSpec(target=name)
        rows = [(m, order, _report_params(spec, p, i, zs))
                for order, (m, p, i, zs) in enumerate(_stream(spec)) if m < -1e-9]
        assert len(rows) > verify.MAX_VIOLATIONS == 20
        rep = sweep(spec)
        assert rep.violation_count == len(rows)
        worst = sorted(rows, key=lambda row: row[:2])[:verify.MAX_VIOLATIONS]
        assert rep.violations == tuple((p, m) for m, _, p in worst)
        assert rep.violations[0][1] == rep.min_margin

    def test_ties_keep_the_earlier_rows(self, monkeypatch):
        # 90 rows tie at -1, then 9 worse rows at -2 evict the latest ties
        ties = verify.Target("ties", "asserted",
                             lambda r: -2.0 if r > 0.9 else -1.0)
        monkeypatch.setitem(verify._REGISTRY, "ties", ties)
        rep = sweep(SweepSpec(target="ties"))
        assert rep.violation_count == 99
        rs = verify._linspace(0.01, 0.99, 99)
        want = [({"r": r}, -2.0) for r in rs if r > 0.9] + [({"r": r}, -1.0) for r in rs[:11]]
        assert rep.violations == tuple(want)

    @pytest.mark.parametrize("name, k15", [("mori_radial_16", 0.09755468812373513),
                                           ("mori_radial_64", 0.15950254735919206)])
    def test_axis_minima_show_past_the_k1_tie(self, name, k15):
        # at K = 1 the stretch is the identity and every pair ties at 0.0,
        # which is where the argmin lands; the K = 1.5 minimum is the news
        rep = sweep(SweepSpec(target=name))
        assert rep.min_margin == 0.0 and rep.argmin["k"] == 1.0
        # the first tie wins across blocks too
        assert rep.argmin["i"] == 0
        minima = rep.to_dict()["axis_minima"]
        assert list(minima) == ["k"]
        assert minima["k"]["1.0"] == 0.0
        assert minima["k"]["1.5"] == k15
        assert min(minima["k"]["2.0"], minima["k"]["4.0"]) > k15

    def test_axis_minima_per_a_and_k(self):
        spec = SweepSpec(target="lemma3_literal")
        rep = sweep(spec)
        want: dict = {"a": {}, "k": {}}
        for m, p, _, _ in _stream(spec):
            for name in want:
                want[name][p[name]] = min(want[name].get(p[name], math.inf), m)
        assert rep.axis_minima == want
        assert min(want["a"].values()) == rep.min_margin


def _record(name: str) -> tuple:
    """An instance of the record type `name` and its field names, in order."""
    spec = SweepSpec(target="mori_radial_16", samples=5)
    return {
        "SweepSpec": (spec, ("target", "k_values", "seed", "samples")),
        "InequalityReport": (sweep(spec), ("target", "classification", "evaluations",
                                           "min_margin", "argmin", "axis_minima",
                                           "violation_count", "violations", "status", "spec",
                                           "tol")),
        "Sampler": (target_info("eq5_chain").sample, ("stream", "names", "accept", "shared")),
        "Target": (target_info("eq60_phi_4bound"), ("name", "classification", "margin",
                                                     "default_tol", "sample", "k_filter",
                                                     "a_filter", "sanity")),
        "Lemma2Constants": (gft.lemma2_constants(0.25), ("c1", "c2", "c3", "c4", "c5", "c6")),
        "PhiResult": (phi_ka(0.5, 2.0, 0.25), ("value", "residual")),
    }[name]


class TestRecords:
    @pytest.mark.parametrize("name", ["SweepSpec", "InequalityReport", "Sampler", "Target",
                                      "Lemma2Constants", "PhiResult"])
    def test_fields_keyword_construction_and_read_only(self, name):
        record, fields = _record(name)
        assert type(record).__name__ == name
        assert type(record)._fields == fields
        assert type(record)(**{f: getattr(record, f) for f in fields}) == record
        assert repr(record).startswith(f"{name}({fields[0]}=")
        with pytest.raises(AttributeError):
            setattr(record, fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = None

    def test_defaults(self):
        assert SweepSpec._field_defaults == {
            "k_values": (1.0, 1.5, 2.0, 4.0), "seed": 20240811, "samples": 10_000}
        assert SweepSpec.r_grid == (0.01, 0.99, 99)
        assert SweepSpec.a_values == (0.1, 0.25, 0.5)
        assert verify.Target._field_defaults == {
            "default_tol": 1e-9, "sample": None, "k_filter": None, "a_filter": None,
            "sanity": False}


class TestSpecValidation:
    @pytest.mark.parametrize("field, value", [("r_grid", (0.01, 0.99, 99)),
                                              ("a_values", (0.5,)), ("tol", 1e-9)])
    def test_fixed_and_retired_settings_are_refused(self, field, value):
        # every run sweeps the one r grid and set of a values, and applies
        # its target's default_tol: a spec takes none of them
        with pytest.raises(TypeError, match=field):
            SweepSpec(target="std_phi_identity", **{field: value})

    @pytest.mark.parametrize("name", ["std_phi_identity", "mori_radial_16"])
    def test_sweep_checks_samples_however_the_spec_was_built(self, name):
        # sweep checks the spec, so one built by _replace or _make, which
        # skip the constructor, is checked too
        spec = SweepSpec(target=name)
        assert spec._replace(samples=5) == SweepSpec(target=name, samples=5)
        for bad in (SweepSpec(target=name, samples=0), spec._replace(samples=0),
                    SweepSpec._make((name, (2.0,), 1, 0))):
            with pytest.raises(UsageError, match="samples must be >= 1"):
                sweep(bad)

    def test_unknown_target_and_suite(self):
        with pytest.raises(UsageError):
            sweep(SweepSpec(target="bogus"))
        with pytest.raises(UsageError):
            run_suite("bogus")

    BAD_K = [(0.0,), (-1.0,), (math.nan,), (math.inf,), (2.0, -0.5), (2.0, math.inf),
             (2.0, 2.0), (1.0, 4.0, 1.0)]

    @pytest.mark.parametrize("k_values", BAD_K, ids=repr)
    @pytest.mark.parametrize("name", ["std_phi_identity", "eq49_product_equality",
                                      "eq60_phi_4bound", "mori_radial_16", "lemma2_item1"])
    def test_k_values_are_checked_for_every_target(self, name, k_values):
        # a K that is not finite and positive, or one given twice, is a bad
        # spec whatever the target: before, std_phi_identity and eq. 49 raised
        # DomainError partway through, and (2.0, 2.0) swept K = 2 twice
        with pytest.raises(UsageError, match=f"{name}.* k values .*given once"):
            sweep(SweepSpec(target=name, k_values=k_values))

    @pytest.mark.parametrize("k_values", BAD_K, ids=repr)
    def test_bad_k_values_are_refused_before_any_margin_runs(self, monkeypatch, k_values):
        calls = []
        grid = verify.Target("k_grid", "asserted", lambda k, r: calls.append(k) or 1.0)
        sampled = verify.Target("k_sampled", "asserted",
                                lambda zss, k: calls.append(k) or [[1.0] * len(zss) for _ in k],
                                sample=target_info("mori_radial_16").sample)
        monkeypatch.setitem(verify._REGISTRY, "k_grid", grid)
        monkeypatch.setitem(verify._REGISTRY, "k_sampled", sampled)
        monkeypatch.setattr(verify, "_sampler", lambda *args: calls.append(args))
        for name in ("k_grid", "k_sampled"):
            with pytest.raises(UsageError):
                sweep(SweepSpec(target=name, k_values=k_values))
        assert calls == []

    def test_a_shared_draw_checks_every_spec_before_the_first_block(self, monkeypatch):
        draws = []
        real = verify._sampler
        monkeypatch.setattr(verify, "_sampler", lambda *args: draws.append(args) or real(*args))
        good = SweepSpec(target="mori_radial_16")
        for bad in (good._replace(target="mori_radial_64", k_values=(2.0, 2.0)),
                    good._replace(target="mori_radial_64", k_values=(0.5,)),
                    good._replace(target="mori_radial_64", samples=0),
                    good._replace(target="bogus")):
            with pytest.raises(UsageError):
                verify._sweep([good, bad])
        assert draws == []


class TestSuites:
    def test_all_suite_coverage_and_finiteness(self):
        reports = run_suite("all", **SPEC_SMALL)
        names = [r.target for r in reports]
        assert set(names) == EXPECTED_TARGETS - {"planted_false"}
        for r in reports:
            assert math.isfinite(r.min_margin), r.target

    def test_identities_suite_passes(self):
        reports = run_suite("identities")
        assert not suite_failed(reports)
        assert all(r.status == "pass" for r in reports)

    def test_sanity_suite_fails(self):
        assert suite_failed(run_suite("sanity"))


class TestSharedDraw:
    """mori_radial_16 and mori_radial_64 hold one Sampler, so they judge the
    same pairs, and run_suite draws and stretches each of their blocks once
    for both; a report is the same whether run_suite or sweep made it."""

    def test_targets_sharing_a_sampler_sweep_one_grid(self):
        # the shared step runs on the first member's columns and serves the
        # whole group: a member with other axes or filters would read the
        # wrong rows without any error
        groups: dict = {}
        for name in registry():
            if target_info(name).sample is not None:
                groups.setdefault(target_info(name).sample, []).append(target_info(name))
        shared = [ts for ts in groups.values() if len(ts) > 1]
        assert [[t.name for t in ts] for ts in shared] == [["mori_radial_16", "mori_radial_64"]]
        for ts in shared:
            assert len({(t.axes, t.pairwise_r, t.k_filter, t.a_filter) for t in ts}) == 1

    def test_the_shared_step_runs_once_per_block(self, monkeypatch):
        calls = []
        stretch = verify._MORI_PAIRS.shared

        def counted(zss, **columns):
            calls.append(len(zss))
            return stretch(zss, **columns)

        sampler = verify._MORI_PAIRS._replace(shared=counted)
        for name in ("mori_radial_16", "mori_radial_64"):
            monkeypatch.setitem(verify._REGISTRY, name, target_info(name)._replace(sample=sampler))
        n, size = SweepSpec(target="mori_radial_16").samples, verify.SAMPLE_BLOCK
        blocks = [min(size, n - lo) for lo in range(0, n, size)]
        assert len(blocks) == 10
        run_suite("all")
        assert calls == blocks
        for name in ("mori_radial_16", "mori_radial_64"):
            calls.clear()
            sweep(SweepSpec(target=name))
            assert calls == blocks

    def test_the_mori_targets_share_one_sampler_and_sit_together(self):
        assert target_info("mori_radial_64").sample is target_info("mori_radial_16").sample
        for suite in ("all", "mori"):
            names = SUITES[suite]
            assert names[names.index("mori_radial_16") + 1] == "mori_radial_64"

    @pytest.mark.parametrize("overrides", [{}, {"samples": 300, "seed": 7}],
                             ids=["default", "samples=300,seed=7"])
    @pytest.mark.parametrize("suite", ["all", "mori"])
    def test_run_suite_equals_separate_sweeps(self, suite, overrides):
        got = [r.to_dict() for r in run_suite(suite, **overrides)]
        assert got == [sweep(SweepSpec(target=name, **overrides)).to_dict()
                       for name in SUITES[suite]]

    @pytest.mark.parametrize("suite", ["all", "mori"])
    def test_each_shared_block_is_drawn_once(self, monkeypatch, suite):
        real = verify._sampler
        blocks = []

        def recording(sampler, seed):
            draw = real(sampler, seed)

            def recorded(lo, hi):
                if hi - lo > 1:   # not the one-index redraw of an argmin or a violation
                    blocks.append((sampler.stream, len(sampler.names), lo, hi))
                return draw(lo, hi)
            return recorded

        monkeypatch.setattr(verify, "_sampler", recording)
        run_suite(suite)
        n, size = SweepSpec(target="mori_radial_16").samples, verify.SAMPLE_BLOCK
        assert n % size > 1
        # every pair drawn in the run is a "mori_sixteen" pair, drawn once
        assert [(stream, lo, hi) for stream, width, lo, hi in blocks if width == 2] == [
            ("mori_sixteen", lo, min(lo + size, n)) for lo in range(0, n, size)]

    @pytest.mark.parametrize("overrides", [{}, {"samples": 2500, "k_values": (1.5, 4.0)}],
                             ids=["default", "k>1"])
    def test_margin_at_reproduces_the_sampled_argmins(self, overrides):
        # at the default K = 1 every mori pair ties at 0.0 and the argmin is
        # index 0; K > 1 moves it to a pair that only the redraw can find
        reports = [r for r in run_suite("all", **overrides) if target_info(r.target).randomized]
        assert [r.target for r in reports] == list(SAMPLED_TARGETS)
        for rep in reports:
            assert margin_at(rep.target, rep.argmin) == rep.min_margin, rep.target
            for params, margin in rep.violations:
                assert margin_at(rep.target, params) == margin, rep.target


class TestMoriExperiment:
    def test_no_violations_radial_stretch(self):
        for variant in ("sixteen", "sixtyfour"):
            rep = mori_radial_experiment(2.0, samples=500, variant=variant)
            assert rep.status == "pass"
            assert rep.violation_count == len(rep.violations) == 0

    def test_k1_margin_nonnegative(self):
        rep = mori_radial_experiment(1.0, samples=200)
        assert rep.min_margin >= 0.0

    def test_validation(self):
        # the target's K filter rejects K < 1 (and NaN), leaving nothing to sweep
        for k in (0.5, math.nan):
            with pytest.raises(UsageError, match="mori_radial_16.* k "):
                mori_radial_experiment(k)
        with pytest.raises(UsageError):
            mori_radial_experiment(2.0, variant="thirtytwo")

    def test_draws_with_the_default_seed(self):
        # the experiment takes no seed: it is the 16 target's sweep at
        # SweepSpec's default seed, and a seed keyword is refused
        rep = mori_radial_experiment(2.0, samples=300)
        assert rep == sweep(SweepSpec(target="mori_radial_16", k_values=(2.0,), samples=300))
        with pytest.raises(TypeError, match="seed"):
            mori_radial_experiment(2.0, seed=1)

"""Verification engine: registry coverage, determinism, margin re-evaluation,
the planted-false sanity target, and configuration validation.
"""
import cmath
import hashlib
import heapq
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
    lemma3_fk,
    margin_at,
    mori_radial_experiment,
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
    # timings are cold by construction; the verify layer shares phi_{K,a}(r)
    import importlib
    cached = {f"{mod}.{name}"
              for mod in ("special", "modulus", "distortion", "bounds", "verify", "cli")
              for name, obj in vars(importlib.import_module(f"gft.{mod}")).items()
              if hasattr(obj, "cache_info")}
    assert cached == {"verify._phi_a"}


def test_lemma3_margins_match_lemma3_fk():
    # the margins scale the shared phi_{K,a}(r) by r^{+-1/K} themselves
    p = {"a": 0.25, "k": 2.0, "r": 0.3, "r_next": 0.31}
    for name, literal in (("lemma3_literal", True), ("lemma3_corrected", False)):
        want = lemma3_fk(0.25, 2.0, 0.3, literal) - lemma3_fk(0.25, 2.0, 0.31, literal)
        assert margin_at(name, p) == want


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

    def test_classifications(self):
        asserted = {n for n in registry() if target_info(n).classification == "asserted"}
        assert asserted == {"lemma3_corrected", "eq60_phi_4bound", "std_phi_identity",
                            "thm4_k1_equality", "mori_radial_16", "mori_radial_64",
                            "planted_false"}


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

    def test_tol_override_silences_violations(self):
        rep = sweep(SweepSpec(target="planted_false", tol=10.0))
        assert rep.status == "pass"
        assert rep.violation_count == 0
        assert rep.tol == 10.0
        # min_margin still reports the true worst case
        assert rep.min_margin < 0.0


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


def _stream(spec: SweepSpec) -> list:
    """The sweep's margins one evaluation at a time, as (margin, grid params,
    sample index or None, sampled points or None) rows in lexicographic
    (grid row, sample index) order: the reference that the block-streamed
    sweep must reproduce."""
    target = target_info(spec.target)
    grid = verify._param_list(target, spec)
    if target.sample is None:
        return [(target.margin(p), p, None, None) for p in grid]
    points = [_reference_points(target.sample, spec.seed, i) for i in range(spec.samples)]
    rows = []
    for p in grid:
        for i, zs in enumerate(points):
            [(m,)] = target.margin([zs], [p])
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
    tol = target.default_tol if spec.tol is None else spec.tol
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
            lambda p: math.nan if 0.3 < p["r"] < 0.4 else (-1.0 if p["r"] > 0.9 else 1.0),
            ("r",))
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

    def test_all_nan_target_fails(self, monkeypatch):
        all_nan = verify.Target("all_nan", "asserted", lambda p: math.nan, ("r",))
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
            lambda zss, rows: [[math.nan if abs(z) < 0.08 else -1.0 for z, in zss]
                               for _ in rows], (),
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
        # earlier in (row, index) order and must displace it
        sampler = target_info("mori_radial_16").sample
        ties = verify.Target(
            "ties_across_blocks", "asserted",
            lambda zss, rows: [[-1.0 if p["k"] == 2.0 or abs(z1) < 0.12 else 0.0
                                for z1, _ in zss] for p in rows], ("k",), sample=sampler)
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

    def test_ties_after_the_worst_kept_are_no_candidates(self, monkeypatch):
        # every margin ties at -1, so block 0 of row K = 1 fills the kept list
        # with orders 0-19; no later (row, block) segment starts before order
        # 19, so none of its ties can displace a kept one and none may reach
        # heapq.nsmallest
        sampler = target_info("mori_radial_16").sample
        ties = verify.Target("all_ties", "asserted",
                             lambda zss, rows: [[-1.0] * len(zss) for _ in rows], ("k",),
                             sample=sampler)
        monkeypatch.setitem(verify._REGISTRY, "all_ties", ties)
        calls = []
        nsmallest = heapq.nsmallest

        def spy(n, iterable):
            items = list(iterable)
            kept = nsmallest(n, items)
            calls.append((items, kept))
            return kept
        monkeypatch.setattr(heapq, "nsmallest", spy)
        spec = SweepSpec(target="all_ties", samples=2500, k_values=(1.0, 2.0))
        rep = sweep(spec)
        assert rep.violation_count == 5000
        assert [(p["k"], p["i"]) for p, _ in rep.violations] == [
            (1.0, i) for i in range(verify.MAX_VIOLATIONS)]
        assert calls
        kept_before: list = []
        for items, kept in calls:
            if len(kept_before) == verify.MAX_VIOLATIONS:
                worst = kept_before[-1]
                assert all(c[:2] < worst[:2] for c in items[len(kept_before):])
            kept_before = kept
        assert len(calls) == 1

    def test_empty_sweep_raises(self):
        # K < 1 is filtered out of eq60, a = 1/2 out of lemma2_item2: nothing
        # would be swept, and the report would pass vacuously
        with pytest.raises(UsageError, match="eq60_phi_4bound.* k "):
            sweep(SweepSpec(target="eq60_phi_4bound", k_values=(0.5,)))
        with pytest.raises(UsageError, match="lemma2_item2.* a "):
            sweep(SweepSpec(target="lemma2_item2", a_values=(0.5,)))
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

    def test_sampler_draws_one_point_or_a_pair(self):
        with pytest.raises(UsageError, match="one or two points"):
            verify.Sampler("triples", ("z1", "z2", "z3"), lambda *zs: True)


# sha256 of json.dumps(sweep(SweepSpec(target=name, samples=25_000)).to_dict(),
# sort_keys=True): 25 blocks, the last partial, and indices that hash block 1
SAMPLED_REPORT_SHA256 = {
    "eq5_chain": "b58762c8808885a9937fff7cbd73318faf7043682004fd79544dc62c1afa43fc",
    "mori_radial_16": "5d2eb6ef8575b24f4ec7c98f3c825e21d761ecebd3821238a598369252c6b2b7",
    "mori_radial_64": "7ce835b47416977221715f10a11c2961c004cd9ed49b07f4afe527cfe5199711",
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
                             lambda p: -2.0 if p["r"] > 0.9 else -1.0, ("r",))
        monkeypatch.setitem(verify._REGISTRY, "ties", ties)
        rep = sweep(SweepSpec(target="ties"))
        assert rep.violation_count == 99
        rs = verify._linspace(0.01, 0.99, 99)
        want = [({"r": r}, -2.0) for r in rs if r > 0.9] + [({"r": r}, -1.0) for r in rs[:11]]
        assert rep.violations == tuple(want)

    @pytest.mark.parametrize("name, k15", [("mori_radial_16", 0.09755468812373513),
                                           ("mori_radial_64", 0.1365083205350755)])
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


class TestSpecValidation:
    def test_bad_r_grid(self):
        with pytest.raises(UsageError):
            SweepSpec(target="std_phi_identity", r_grid=(0.5, 0.2, 99))
        with pytest.raises(UsageError):
            SweepSpec(target="std_phi_identity", r_grid=(0.0, 0.9, 99))
        with pytest.raises(UsageError):
            SweepSpec(target="std_phi_identity", r_grid=(0.1, 0.9, 1))

    def test_bad_tol_and_samples(self):
        with pytest.raises(UsageError):
            SweepSpec(target="std_phi_identity", tol=-1.0)
        with pytest.raises(UsageError):
            SweepSpec(target="std_phi_identity", samples=0)

    def test_unknown_target_and_suite(self):
        with pytest.raises(UsageError):
            sweep(SweepSpec(target="bogus"))
        with pytest.raises(UsageError):
            run_suite("bogus")


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
        with pytest.raises(UsageError):
            mori_radial_experiment(0.5)
        with pytest.raises(UsageError):
            mori_radial_experiment(2.0, variant="thirtytwo")

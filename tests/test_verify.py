"""Verification engine: registry coverage, determinism, margin re-evaluation,
the planted-false sanity target, and configuration validation.
"""
import json
import math

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


def _stream(spec: SweepSpec) -> list:
    """The sweep's (margin, grid params, index, points) rows, in order."""
    target = target_info(spec.target)
    return list(verify._margins(target, spec, verify._param_list(target, spec)))


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
            assert verify._sampler(sample, params["seed"])(params["i"]) == recorded
        # the report keeps the worst violations only: redraw every violating
        # row of the sweep's own stream
        violating = [row for row in _stream(spec) if row[0] < -1e-9]
        for m, p, i, zs in violating:
            assert margin_at(name, dict(p, i=i, seed=spec.seed)) == m
            assert verify._sampler(sample, spec.seed)(i) == zs
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
        forward = [draw(i) for i in range(50)]
        assert [draw(i) for i in reversed(range(50))][::-1] == forward

    def test_rejected_first_digest_moves_to_next_block(self):
        # Omega_1 takes about 80% of the disk, so all four attempts of block 0
        # fail for a few indices in every thousand
        seed = SweepSpec(target="eq5_chain").seed
        sampler = target_info("eq5_chain").sample
        digest = verify._counter_digest(seed, sampler.stream)
        draw = verify._sampler(sampler, seed)

        def block0_points(i):
            w = digest(i, 0)
            return [verify._disk_point(w[j], w[j + 1]) for j in range(0, 8, 2)]

        samples = 1000
        rejected = []
        for i in range(samples):
            accepted = [z for z in block0_points(i) if sampler.accept(z)]
            if accepted:
                assert draw(i) == (accepted[0],)  # the first attempt that passes
            else:
                rejected.append(i)
        assert rejected
        spec = SweepSpec(target="eq5_chain", samples=samples)
        violations = {i: (m, p, zs) for m, p, i, zs in _stream(spec) if m < -1e-9}
        checked = 0
        for i in rejected:
            (z,) = draw(i)
            assert _in_omega1(z)
            assert z not in block0_points(i)
            w = digest(i, 1)
            assert z in [verify._disk_point(w[j], w[j + 1]) for j in range(0, 8, 2)]
            if i in violations:
                margin, p, zs = violations[i]
                assert zs == (z,)
                assert margin_at("eq5_chain", dict(p, i=i, seed=seed)) == margin
                checked += 1
        assert checked


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

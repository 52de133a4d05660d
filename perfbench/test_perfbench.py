"""Self-tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest -q perfbench

They cover input determinism, the recorder's self-time arithmetic and
namespace patching, the host probe, and that the correctness checks flag
planted bad values.
"""
import json
import math
import os
import signal
import sys
import time
import types
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import gft  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from recorder import Recorder  # noqa: E402

CFG = run.load_json(os.path.join(HERE, "config.json"))
SMALL = {name: 5 for name in CFG["workloads"]["kernel_sweep"]["calls"]}


# -- inputs ------------------------------------------------------------------

def test_same_seed_gives_identical_kernel_inputs():
    a = workloads.kernel_inputs(gft, 7, SMALL)
    b = workloads.kernel_inputs(gft, 7, SMALL)
    assert a == b
    assert workloads.inputs_digest(a) == workloads.inputs_digest(b)


def test_different_seeds_give_different_kernel_inputs():
    a = workloads.kernel_inputs(gft, 7, SMALL)
    b = workloads.kernel_inputs(gft, 8, SMALL)
    for name in SMALL:
        assert a[name] != b[name]
    assert workloads.inputs_digest(a) != workloads.inputs_digest(b)


def test_kernel_inputs_are_distinct_and_in_domain():
    inputs = workloads.kernel_inputs(gft, 3, {"distortion.phi_ka": 2000})
    args = list(workloads.rows(inputs["distortion.phi_ka"]))
    assert len(args) == 2000
    assert len(set(args)) == len(args)
    for a, k, r in args:
        assert 0.0 < a <= 0.5 and 1 / 16 <= k <= 16
        assert workloads.R_TAIL * 0.999 <= min(r, math.sqrt(1 - r * r))
    rs = [r for _, _, r in args]
    assert min(rs) < 1e-5 and max(rs) > 1 - 1e-10   # both tails are reached


# -- recorder ----------------------------------------------------------------

class FakeClock:
    """Advances by one unit per reading; calls to tick() add more."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t

    def tick(self, dt):
        self.t += dt


def test_self_time_arithmetic_on_nested_calls():
    clock = FakeClock()
    rec = Recorder("synthetic", clock=clock)
    leaf = rec.counter("leaf", lambda: clock.tick(10.0))
    inner = rec.span("inner", lambda: (clock.tick(5.0), leaf()))
    outer = rec.span("outer", lambda: (clock.tick(7.0), inner(), leaf()))
    outer()
    # Each clock reading costs one unit.  leaf: 10 inside + its exit
    # reading = 11.  inner: 5 + leaf's entry reading + 11 + exit = 18.
    # outer: 7 + inner's entry reading + 18 + leaf's entry + 11 + exit = 39.
    s = rec.summary()["functions"]
    assert s["leaf"] == {"calls": 2, "self_s": 22.0}
    assert s["inner"]["self_s"] == 18.0 - 11.0
    assert s["outer"]["self_s"] == 39.0 - 18.0 - 11.0
    spans = {name: (t1 - t0, parent) for _, name, _, t0, t1, parent, _ in rec.spans}
    assert spans["inner"][0] == 18.0 and spans["outer"][0] == 39.0
    outer_id = next(sid for sid, name, *_ in rec.spans if name == "outer")
    assert spans["inner"][1] == outer_id and spans["outer"][1] is None


def test_install_wraps_every_binding_and_uninstall_restores():
    original = gft.special.agm
    rec = Recorder("patch")
    wrapper = rec.counter("special.agm", original)
    spaces = [gft, gft.special, gft.modulus]
    try:
        assert rec.install(spaces, original, wrapper) == 3
        assert gft.modulus.agm is wrapper and gft.special.agm is wrapper
        gft.modulus.grotzsch_u(0.5)                    # calls agm via modulus
        assert rec.counters["special.agm"][0] == 2
    finally:
        rec.uninstall()
    assert gft.modulus.agm is original and gft.special.agm is original and gft.agm is original


def test_distinct_fraction_and_forward_count():
    rec = Recorder("distinct")
    fwd = rec.counter("f", lambda x: x, forward=True)
    phi = rec.span("phi", lambda x: fwd(x) + fwd(x), distinct=True, phi=True)
    for x in (1.0, 2.0, 1.0, 1.0):
        phi(x)
    fwd(3.0)                                           # outside phi: not counted
    s = rec.summary()
    assert s["functions"]["phi"]["distinct_frac"] == 0.5
    assert s["forward_in_phi"] == 8


def test_host_probe_samples_during_work_and_leaves_its_time_out():
    probe = worker.HostProbe(interval_s=0.005)
    with probe:
        t0, c0 = time.perf_counter(), probe.clock()
        while time.perf_counter() - t0 < 0.3:
            pass
        t1, c1 = time.perf_counter(), probe.clock()
    assert all(len(s) >= 3 for s in probe.samples)
    longest = max(max(s) for s in probe.samples)
    assert (t1 - t0) - (c1 - c0) == pytest.approx(probe.spent, abs=longest)
    assert min(min(s) for s in probe.samples) <= probe.probe_s() <= longest
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- correctness checks ------------------------------------------------------

def test_kernel_checks_flag_a_phi_k_that_returns_r():
    inputs = workloads.kernel_inputs(gft, 5, {"distortion.phi_k": 200,
                                              "modulus.grotzsch_u_inv": 50})
    planted = {
        "distortion.phi_k": inputs["distortion.phi_k"][1],        # phi_k returning r
        "modulus.grotzsch_u_inv": array("d", [0.5] * 50),
    }
    failed = workloads.kernel_failures(gft, inputs, planted)
    assert failed["distortion.phi_k"] == 200
    assert failed["modulus.grotzsch_u_inv"] >= 49


def test_kernel_runs_turn_raises_and_non_floats_into_failures():
    inputs = {"special.digamma": [array("d", [0.5, 0.7, 0.9])]}

    def digamma(x):
        if x == 0.5:
            raise gft.DomainError("x")
        return math.nan if x == 0.7 else -0.2

    fake = types.SimpleNamespace(special=types.SimpleNamespace(digamma=digamma))
    _, outputs, call_s = workloads.run_kernels(fake, inputs)
    assert len(call_s["special.digamma"]) == 3
    assert workloads.kernel_failures(gft, inputs, outputs) == {"special.digamma": 2}
    assert workloads._value(gft.PhiResult(value=0.25, residual=0.0)) == 0.25
    assert math.isnan(workloads._value(1))


def test_root_check_accepts_exact_roots_and_documented_saturation():
    u = gft.grotzsch_u
    sym2 = math.pi ** 2 / 4
    for r in (1e-5, 0.3, 0.9, 1 - 1e-9):
        assert not workloads.root_misses(u, sym2, r, u(r))
        assert workloads.root_misses(u, sym2, r, u(r) * (1 + 1e-6))
    beyond = sym2 / u(1e-12)           # u at a root whose complement is 1e-12
    assert not workloads.root_misses(u, sym2, workloads.R_SATURATED, beyond)
    assert workloads.root_misses(u, sym2, workloads.R_SATURATED, u(0.9))


def _report(target, **changes):
    entry = gft.sweep(gft.SweepSpec(target=target, samples=50, seed=3)).to_dict()
    entry.update(changes)
    return json.loads(json.dumps(entry))


@pytest.mark.parametrize("change, miss", [
    ({"evaluations": 199}, "evaluations"),
    ({"status": "fail"}, "status"),
    ({"min_margin": 1e-3}, "margin_at"),
    ({"argmin": {"k": 2.0}}, "malformed"),
])
def test_report_checks_flag_planted_values(change, miss):
    spec = gft.SweepSpec(target="mori_radial_16", samples=50, seed=3)
    assert workloads.report_misses(gft, _report("mori_radial_16"), spec) == []
    assert workloads.report_misses(gft, _report("mori_radial_16", **change), spec) == [miss]


def test_missing_report_fails_its_evaluations_and_the_run():
    entries = [_report("eq5_chain")]
    chk = workloads.check_reports(gft, entries, ["eq5_chain", "mori_radial_16"], 3,
                                  samples=50)
    assert chk["attempted"] == 50 + 200 and chk["failed"] == 200
    assert chk["units"] == {"eq5_chain": [50, 0], "mori_radial_16": [200, 200]}
    assert chk["misses"] == {"mori_radial_16": ["missing"]} and not chk["correct"]


def test_any_report_miss_makes_the_run_incorrect():
    targets = ["eq5_chain", "mori_radial_16"]
    good = [_report("eq5_chain"), _report("mori_radial_16")]
    assert workloads.check_reports(gft, good, targets, 3, samples=50)["correct"]
    bad = [_report("eq5_chain"), _report("mori_radial_16", status="fail")]
    chk = workloads.check_reports(gft, bad, targets, 3, samples=50)
    assert not chk["correct"] and chk["misses"] == {"mori_radial_16": ["status"]}


def test_passed_frac_weighs_each_unit_equally():
    # one kernel of 1,000 calls broken outright among 13: a drop of 1/13,
    # far past the 0.01 bound, although it is only 0.5% of all calls
    units = {f"k{i}": [15000, 0] for i in range(12)}
    units["distortion.phi_k"] = [1000, 1000]
    reps = [{"units": units}, {"units": units}]
    assert run.passed_frac(reps) == pytest.approx(12 / 13)
    bench = run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))
    bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "passed_frac")
    assert 1.0 - run.passed_frac(reps) > bound


def test_repetitions_must_repeat_the_same_work():
    rep = {"ops": 10, "failed": 1, "units": {"t": [10, 1]}, "inputs_sha256": "x"}
    assert run.disagreeing([rep, dict(rep), dict(rep)]) == []
    odd = dict(rep, failed=2, units={"t": [10, 2]})
    assert run.disagreeing([rep, odd, dict(rep)]) == [1]
    assert run.disagreeing([rep, dict(rep, inputs_sha256="y")]) == [1]


def test_kernel_sweep_flags_failures_above_the_ceiling():
    cfg = json.loads(json.dumps(CFG))
    cfg["workloads"]["kernel_sweep"]["calls"] = {"distortion.phi_k": 100,
                                                 "special.digamma": 10}
    work = worker.KernelSweep(gft, 4, "", cfg)
    work.outputs = {"distortion.phi_k": work.inputs["distortion.phi_k"][1],  # returns r
                    "special.digamma": array("d", [-1.0] * 10)}
    work.call_s = {name: array("d", range(len(v))) for name, v in work.outputs.items()}
    res = {}
    work.check(gft, res)
    assert not res["correct"] and set(res["misses"]) == {"distortion.phi_k"}
    assert res["units"] == {"distortion.phi_k": [100, 100], "special.digamma": [10, 0]}


def test_expected_evaluations_match_the_configured_sizes():
    total = sum(workloads.expected_evaluations(gft, gft.SweepSpec(target=t))
                for t in CFG["sweep_targets"])
    assert total == CFG["workloads"]["verify_all"]["evaluations"]
    assert CFG["sweep_targets"] == list(gft.SUITES["all"])
    w = CFG["workloads"]["verify_sampled"]
    total = sum(workloads.expected_evaluations(gft, gft.SweepSpec(target=t, samples=w["samples"]))
                for t in w["targets"])
    assert total == w["evaluations"]


# -- metric names --------------------------------------------------------------

def test_metric_names_match_benchmark_json():
    bench = run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))
    assert [m["name"] for m in bench["per_layer"]] == run.layer_metric_names(CFG)
    reps = [{"setup_s": 0.1, "wall_s": 1.0, "ops": 10, "failed": 1, "peak_rss_mb": 40.0,
             "probe_s": 0.002, "units": {"t": [10, 1]}}]
    e2e = run.end_to_end(reps, probe_ref_s=0.001)
    assert [m["name"] for m in bench["end_to_end"]] == list(e2e)
    # times are scaled to reference seconds: this host ran the probe at half speed
    assert e2e["wall_s"] == [0.5] and e2e["setup_s"] == [0.05] and e2e["evals_per_s"] == [20.0]
    assert e2e["passed_frac"] == [0.9] and e2e["peak_rss_mb"] == [40.0]
    assert [w["name"] for w in bench["workloads"]] == list(CFG["workloads"])

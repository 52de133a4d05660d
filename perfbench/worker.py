"""One cold repetition of a benchmark workload, in a fresh interpreter.

run.py starts this script once per repetition, so the library's memo
caches start empty exactly as in a user's `gft` process.  The last line of
standard output is one JSON object with the repetition's figures.

    python3 perfbench/worker.py --workload W --seed S --trace 0|1 \
        --out DIR --t0 MONOTONIC_SECONDS
"""
import time

import gft
import gft.cli  # the `gft` console script's module

IMPORTED = time.monotonic()

import argparse  # noqa: E402  (set-up time covers importing gft and its CLI only)
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402
from recorder import Recorder  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
MODULES = ("special", "modulus", "distortion", "bounds", "verify", "cli")


def load_config() -> dict:
    with open(os.path.join(HERE, "config.json")) as fh:
        return json.load(fh)


def install_tracer(g, rec: Recorder, cfg: dict) -> None:
    """Wrap every traced function in every gft namespace that binds it."""
    namespaces = [g] + [getattr(g, m) for m in MODULES]
    labels = {"verify.sweep": lambda args, kw: (args[0] if args else kw["spec"]).target}
    for module, names in cfg["layers"].items():
        for fn_name in names:
            name = f"{module}.{fn_name}"
            original = getattr(getattr(g, module), fn_name)
            distinct = name in cfg["distinct"]
            if module in cfg["span_layers"]:
                wrapper = rec.span(name, original, distinct=distinct,
                                   phi=name in cfg["phi"], label=labels.get(name))
            else:
                wrapper = rec.counter(name, original, distinct=distinct,
                                      forward=name in cfg["forward"])
            rec.install(namespaces, original, wrapper)


def _int_probe() -> int:
    acc = 0
    for i in range(12000):
        acc += i * i % 7
    return acc


def _mean_pair(a: float, b: float) -> tuple[float, float]:
    return 0.5 * (a + b), math.sqrt(a * b)


def _float_probe() -> float:
    seen, acc = {}, 0.0
    for i in range(1500):
        a, b = _mean_pair(1.0 + i * 1e-4, 0.5)
        acc += math.log(a) - math.exp(-b)
        seen[(a, b)] = acc
    return acc


class HostProbe:
    """Samples the host's speed while the work runs.

    Every interval_s a SIGALRM handler times one of two fixed pure-Python
    loops, independent of gft, taking turns: integer arithmetic, and float
    calls with a dict store.  probe_s() is the geometric mean of the two
    loops' mean times: how slowly this host ran during the work.  Probes
    taken only before and after the work miss the host's sub-second swings,
    and no single loop tracks the workloads as well as the pair.  clock()
    is perf_counter minus the time the probes took, so the work is timed
    without them.  (A probe that lands between a clock() call's two reads
    shifts that one reading by one probe's time.)
    """

    PROBES = (_int_probe, _float_probe)

    def __init__(self, interval_s: float):
        self.interval_s = interval_s
        self.samples: tuple[list[float], ...] = tuple([] for _ in self.PROBES)
        self.spent = 0.0
        self._turn = 0

    def _probe(self, signum, frame) -> None:
        kind = self._turn % len(self.PROBES)
        self._turn += 1
        t0 = time.perf_counter()
        self.PROBES[kind]()
        dt = time.perf_counter() - t0
        self.samples[kind].append(dt)
        self.spent += dt

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def probe_s(self) -> float:
        return statistics.geometric_mean(statistics.fmean(s) for s in self.samples)

    def __enter__(self) -> "HostProbe":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(sorted_vals: list, q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    i = min(len(sorted_vals) - 1, max(0, int(round(q * len(sorted_vals))) - 1))
    return sorted_vals[i]


class VerifyAll:
    """Cold `gft verify all --report`, then checks on the report file."""

    def __init__(self, g, seed: int, out: str, cfg: dict):
        self.seed, self.cfg = seed, cfg
        self.path = os.path.join(out, "report-verify_all.json")
        if os.path.exists(self.path):
            os.remove(self.path)

    def run(self, g, clock) -> float:
        wall, self.rc = workloads.run_verify_all(g, self.seed, self.path, clock)
        return wall

    def check(self, g, res: dict) -> None:
        entries = workloads.load_report(self.path)
        res["report_bytes"] = os.path.getsize(self.path) if entries is not None else 0
        chk = workloads.check_reports(g, entries or [], self.cfg["sweep_targets"], self.seed)
        if self.rc != 0:
            chk["misses"]["cli"] = [f"exit code {self.rc}"]
        res.update(ops=chk["attempted"], failed=chk["failed"], units=chk["units"],
                   misses=chk["misses"], correct=chk["correct"] and self.rc == 0)


class VerifySampled:
    """sweep() on the sampled targets at a larger sample count, no report."""

    def __init__(self, g, seed: int, out: str, cfg: dict):
        self.seed = seed
        w = cfg["workloads"]["verify_sampled"]
        self.targets, self.samples = w["targets"], w["samples"]

    def run(self, g, clock) -> float:
        wall, self.entries = workloads.run_verify_sampled(g, self.seed, self.targets,
                                                          self.samples, clock)
        return wall

    def check(self, g, res: dict) -> None:
        chk = workloads.check_reports(g, self.entries, self.targets, self.seed,
                                      samples=self.samples)
        res.update(ops=chk["attempted"], failed=chk["failed"], units=chk["units"],
                   misses=chk["misses"], correct=chk["correct"])


class KernelSweep:
    """Direct L0-L3 kernel calls on seeded distinct inputs, then checks."""

    def __init__(self, g, seed: int, out: str, cfg: dict):
        w = cfg["workloads"]["kernel_sweep"]
        self.inputs = workloads.kernel_inputs(g, seed, w["calls"])
        self.ceiling = w["failure_ceiling"]

    def run(self, g, clock) -> float:
        wall, self.outputs, self.call_s = workloads.run_kernels(g, self.inputs, clock)
        return wall

    def check(self, g, res: dict) -> None:
        failed = workloads.kernel_failures(g, self.inputs, self.outputs)
        kernels, units, misses = {}, {}, {}
        for name, durs in self.call_s.items():
            durs = sorted(durs)
            kernels[name] = {"p50_us": percentile(durs, 0.50) * 1e6,
                             "p99_us": percentile(durs, 0.99) * 1e6,
                             "failed": failed[name]}
            units[name] = [len(durs), failed[name]]
            if failed[name] > self.ceiling.get(name, 0.0) * len(durs):
                misses[name] = f"{failed[name]} of {len(durs)} calls failed"
        res.update(ops=sum(a for a, _ in units.values()),
                   failed=sum(failed.values()), kernels=kernels, units=units,
                   misses=misses, correct=not misses,
                   inputs_sha256=workloads.inputs_digest(self.inputs))


WORKLOADS = {"verify_all": VerifyAll, "verify_sampled": VerifySampled,
             "kernel_sweep": KernelSweep}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args(argv)

    src = os.path.join(os.path.dirname(HERE), "src")
    if not os.path.abspath(gft.__file__).startswith(src + os.sep):
        print(f"error: imported gft from {gft.__file__}, not from {src}", file=sys.stderr)
        return 2
    cfg = load_config()
    ref = cfg["reference"]
    res = {"setup_s": IMPORTED - args.t0}
    work = WORKLOADS[args.workload](gft, args.seed, args.out, cfg)
    probe = HostProbe(ref["probe_interval_s"])
    rec = None
    if args.trace:
        rec = Recorder(f"{args.workload}:{args.seed}:{os.getpid()}", clock=probe.clock)
        install_tracer(gft, rec, cfg)
    try:
        with probe:
            res["wall_s"] = work.run(gft, probe.clock)
    finally:
        if rec is not None:
            rec.uninstall()
    res["peak_rss_mb"] = peak_rss_mb()
    res["probe_s"] = probe.probe_s()
    work.check(gft, res)
    if rec is not None:
        res["trace"] = rec.summary()
        with open(os.path.join(args.out, f"trace-{args.workload}.jsonl"), "w") as fh:
            rec.dump(fh)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())

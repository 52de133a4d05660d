"""Benchmark runner for gft.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Each repetition is a fresh interpreter (worker.py), so gft's memo caches
start empty, as in every `gft verify` a user runs.  Repetitions repeat the
same seeded work until --seconds have passed.  With --trace 0 the runner
reports the end-to-end metrics named in BENCHMARK.json (medians over the
repetitions); with --trace 1 it spends half the time on untraced
repetitions and half on traced ones and reports the per-layer metrics.
Lines before the last one are a readable summary; the last line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

End-to-end metrics: setup_s (interpreter start to `import gft, gft.cli`
done), wall_s (the workload's fixed work), evals_per_s (margin evaluations
or kernel calls per second), passed_frac (the mean over the verify targets,
or over the kernels, of each one's share of passed operations; failed_frac
= failed/attempted is printed in the summary) and peak_rss_mb.  An
operation fails on an exception, a non-finite value or a missed
correctness check.  The result is not correct if any verify report misses
a check, `gft verify` exits non-zero, or a kernel fails more often than
its ceiling in config.json (zero except for the defects known at the
first benchmarked commit).  The result's attempted and failed counts are
those of the seeded work one repetition does; every repetition must
repeat it exactly, so the same seed always gives the same counts.

The times in those metrics are reference seconds.  While its work runs,
each worker times short fixed pure-Python loops every few milliseconds
(worker.HostProbe; config.json: reference.probe_*), takes the probes' own
time out of its clock, and scales its seconds by reference.probe_ref_s over
the probes' typical time.  On a shared host whose speed swings by tens of
percent within seconds, this keeps the swings out of comparisons between
runs; the summary also prints the unscaled seconds (measured_*).

The library is imported from src/ next to this directory; without it the
runner exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
RUN_LIMIT_S = 170.0       # every run ends well inside the 180 s a run may take
MIN_REPS = 3


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def layer_metric_names(cfg: dict) -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = [f"{m}.{fn}.{kind}" for m, fns in cfg["layers"].items()
             for fn in fns for kind in ("calls", "self_s")]
    names += [f"{n}.distinct_frac" for n in cfg["distinct"]]
    names.append("distortion.forward_evals_per_phi")
    names += [f"verify.sweep.{t}.s" for t in cfg["sweep_targets"]]
    names.append("cli.report_bytes")
    names += [f"{k}.{kind}" for k in cfg["workloads"]["kernel_sweep"]["calls"]
              for kind in ("p50_us", "p99_us", "failed")]
    names.append("trace.overhead_s")
    return names


class RepFailed(RuntimeError):
    pass


def run_rep(workload: str, seed: int, trace: bool, env: dict, deadline: float) -> dict:
    """Start one worker and return its figures."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), "--out", OUT, "--t0", ""]
    timeout = max(5.0, deadline - time.monotonic())
    t0 = time.monotonic()
    cmd[-1] = repr(t0)
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RepFailed(f"{workload} repetition exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(f"{workload} worker exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def repeat(workload: str, seed: int, trace: bool, env: dict, until: float,
           min_reps: int, deadline: float) -> list[dict]:
    """Repeat until the next repetition, as long as the last one, would end
    after `until`."""
    reps, last = [], 0.0
    while len(reps) < min_reps or time.monotonic() + last <= until:
        t0 = time.monotonic()
        reps.append(run_rep(workload, seed, trace, env, deadline))
        last = time.monotonic() - t0
    return reps


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def passed_frac(reps: list[dict]) -> float:
    """Mean over units (the verify targets, or the kernels) of each unit's
    share of passed operations, pooled over the repetitions.  A unit that
    fails outright lowers it by 1/units, however few operations it has."""
    att: dict[str, int] = {}
    bad: dict[str, int] = {}
    for r in reps:
        for unit, (a, f) in r["units"].items():
            att[unit] = att.get(unit, 0) + a
            bad[unit] = bad.get(unit, 0) + f
    return statistics.fmean(1.0 - bad[u] / att[u] for u in att)


def scales(reps: list[dict], probe_ref_s: float) -> list[float]:
    """Per repetition: probe_ref_s over the typical time of the host probes
    taken during its work (worker.HostProbe.probe_s).  Measured seconds
    times this are reference seconds."""
    return [probe_ref_s / r["probe_s"] for r in reps]


def end_to_end(reps: list[dict], probe_ref_s: float) -> dict[str, list[float]]:
    """Per-repetition samples of each end-to-end metric, times in reference
    seconds."""
    scale = scales(reps, probe_ref_s)
    return {
        "setup_s": [r["setup_s"] * k for r, k in zip(reps, scale)],
        "wall_s": [r["wall_s"] * k for r, k in zip(reps, scale)],
        "evals_per_s": [r["ops"] / (r["wall_s"] * k) for r, k in zip(reps, scale)],
        "passed_frac": [passed_frac(reps)],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }


def host_samples(reps: list[dict]) -> dict[str, list[float]]:
    """Unscaled seconds and the host probes' typical time, for the summary only."""
    return {f"measured_{k}": [r[k] for r in reps] for k in ("setup_s", "wall_s", "probe_s")}


def per_layer(cfg: dict, plain: list[dict], traced: list[dict],
              probe_ref_s: float) -> dict[str, list[float]]:
    """Per-repetition samples of each per-layer metric; zero where the
    workload does not reach a layer."""
    samples: dict[str, list[float]] = {n: [] for n in layer_metric_names(cfg)}
    for r in traced:
        fns, vals = r["trace"]["functions"], {}
        for name, row in fns.items():
            for kind, v in row.items():
                vals[f"{name}.{kind}"] = v
        phis = sum(fns.get(n, {}).get("calls", 0) for n in cfg["phi"])
        vals["distortion.forward_evals_per_phi"] = (
            r["trace"]["forward_in_phi"] / phis if phis else 0.0)
        for label, s in r["trace"]["labels"].items():
            vals[f"{label}.s"] = s
        vals["cli.report_bytes"] = r.get("report_bytes", 0)
        for n in samples:
            if not n.endswith(("p50_us", "p99_us", ".failed", "overhead_s")):
                samples[n].append(vals.get(n, 0))
    for r in plain:
        for k, row in r.get("kernels", {}).items():
            for kind, v in row.items():
                samples[f"{k}.{kind}"].append(v)
    wall = {name: [r["wall_s"] * k for r, k in zip(reps, scales(reps, probe_ref_s))]
            for name, reps in (("traced", traced), ("plain", plain))}
    overhead = statistics.median(wall["traced"]) - statistics.median(wall["plain"])
    samples["trace.overhead_s"].append(overhead)
    return {n: (v or [0]) for n, v in samples.items()}


def measure(workload: str, seed: int, seconds: float, trace: bool, cfg: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    env.pop("GFT_REPORT_DIR", None)
    os.makedirs(OUT, exist_ok=True)
    # compile gft's bytecode once, untimed, as an installed package would have it
    subprocess.run([sys.executable, "-c", "import gft"], env=env, check=True,
                   timeout=60)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    if not trace:
        plain = repeat(workload, seed, False, env, start + seconds, MIN_REPS, deadline)
        traced = []
        samples = end_to_end(plain, cfg["reference"]["probe_ref_s"])
    else:
        plain = repeat(workload, seed, False, env, start + seconds / 2, 1, deadline)
        traced = repeat(workload, seed, True, env, start + seconds, 1, deadline)
        samples = per_layer(cfg, plain, traced, cfg["reference"]["probe_ref_s"])
    reps = plain + traced
    disagree = disagreeing(reps)
    misses = [r["misses"] for r in reps if r.get("misses")]
    if disagree:
        misses.append(f"repetitions {disagree} did not repeat the first one's work")
    return {
        "correct": all(r["correct"] for r in reps) and not disagree,
        "attempted": reps[0]["ops"],
        "failed": reps[0]["failed"],
        "samples": samples, "host": host_samples(plain),
        "reps": len(plain), "traced_reps": len(traced),
        "misses": misses,
    }


def disagreeing(reps: list[dict]) -> list[int]:
    """Indices of the repetitions whose operations, failures per unit or
    kernel inputs differ from the first one's.  Every repetition runs the
    same seeded work, so a run's attempted and failed counts are those of
    that work, however many repetitions fit in --seconds."""
    def key(r):
        return r["ops"], r["failed"], r["units"], r.get("inputs_sha256")
    return [i for i, r in enumerate(reps) if key(r) != key(reps[0])]


def summary_lines(workload: str, res: dict, units: dict) -> list[str]:
    out = [f"# {workload}: {res['reps']} untraced + {res['traced_reps']} traced "
           f"fresh-interpreter repetitions; python {sys.version.split()[0]}, "
           f"nproc {os.cpu_count()}, src/gft {src_lines()} lines",
           f"# {workload} failed_frac {res['failed'] / res['attempted']:.6g} "
           f"({res['failed']} of {res['attempted']} operations)"]
    for m in res["misses"][:3]:
        out.append(f"# {workload} check misses: {m}")
    for name, vals in {**res["samples"], **res["host"]}.items():
        med, q1, q3 = spread(vals)
        out.append(f"{workload} {name} {med:.6g} {units.get(name, 's')} "
                   f"[q1 {q1:.6g}, q3 {q3:.6g}, n={len(vals)}]")
    return out


def src_lines() -> int:
    pkg = os.path.join(SRC, "gft")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                total += sum(1 for _ in fh)
    return total


def result(res: dict, names: list[str], units: dict) -> dict:
    metrics = {n: {"value": spread(res["samples"][n])[0], "unit": units[n]} for n in names}
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gft", "__init__.py")):
        print(f"error: no gft sources under {SRC}", file=sys.stderr)
        return 2
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    cfg = load_json(os.path.join(HERE, "config.json"))
    kind = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in bench[kind]]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    known = [w["name"] for w in bench["workloads"]]
    workloads = known if args.workload == "all" else [args.workload]
    if args.workload != "all" and args.workload not in known:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(known)}",
              file=sys.stderr)
        return 2
    results = {}
    for w in workloads:
        try:
            res = measure(w, args.seed, args.seconds, bool(args.trace), cfg)
        except (RepFailed, subprocess.SubprocessError, OSError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        print("\n".join(summary_lines(w, res, units)), flush=True)
        results[w] = result(res, names, units)
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Workload bodies, seeded inputs and correctness checks of the gft benchmark.

Every function here takes the imported ``gft`` package as an argument, so
the worker can hand in either the plain package or one whose public
functions the recorder has wrapped.  Nothing in this module touches the
library's private memo caches: cold state comes from a fresh interpreter.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import time
from array import array

SQRT_HALF = math.sqrt(0.5)
U_TOL = 1e-12            # the library's stated inversion accuracy, in u-space
R_SATURATED = 1.0 - 1e-15  # the library's documented saturation point near r = 1
R_TAIL = 1e-6            # spread r toward 0 and toward 1, this close to each end


# ---------------------------------------------------------------------------
# Seeded inputs for kernel_sweep
# ---------------------------------------------------------------------------

def _spread_r(rng: random.Random) -> float:
    """r spread log-wise toward both 0 and 1, down to R_TAIL from each end."""
    lo, hi = math.log(R_TAIL), math.log(SQRT_HALF)
    t = math.exp(lo + (hi - lo) * rng.random())        # in [R_TAIL, 1/sqrt2]
    if rng.random() < 0.5:
        return t
    return math.sqrt((1.0 - t) * (1.0 + t))            # t is the complement r'


def _k(rng: random.Random) -> float:
    return 16.0 ** (2.0 * rng.random() - 1.0)          # log-uniform on [1/16, 16]


def _a(rng: random.Random) -> float:
    return 0.5 * (1.0 - rng.random())                  # uniform on (0, 1/2]


# Argument makers for the timed kernels.  Inverse inputs are forward images
# of spread roots, so no exact root lies closer than R_TAIL to 0 or to 1.
_ARGS = {
    "special.elliptic_k": lambda g, rng: (_spread_r(rng),),
    "special.gauss_2f1_sym": lambda g, rng: (_a(rng), _spread_r(rng) ** 2),
    "special.digamma": lambda g, rng: (2.0 * _a(rng),),
    "modulus.grotzsch_u": lambda g, rng: (_spread_r(rng),),
    "modulus.grotzsch_ua": lambda g, rng: (_a(rng), _spread_r(rng)),
    "modulus.grotzsch_u_inv": lambda g, rng: (g.modulus.grotzsch_u(_spread_r(rng)),),
    "modulus.grotzsch_ua_inv": lambda g, rng: _ua_image(g, _a(rng), _spread_r(rng)),
    "modulus.product_P": lambda g, rng: (_spread_r(rng),),
    "distortion.phi_k": lambda g, rng: (_k(rng), _spread_r(rng)),
    "distortion.phi_ka": lambda g, rng: (_a(rng), _k(rng), _spread_r(rng)),
    "distortion.phi_k_product": lambda g, rng: (_k(rng), _spread_r(rng)),
    "bounds.eta_k": lambda g, rng: (_k(rng), _spread_r(rng)),
    "bounds.theorem3_sfk": lambda g, rng: (_k(rng), _spread_r(rng)),
}


def _ua_image(g, a: float, r: float) -> tuple[float, float]:
    return a, g.modulus.grotzsch_ua(a, r)


def kernel_inputs(g, seed: int, calls: dict[str, int]) -> dict[str, list[array]]:
    """Argument columns for each timed kernel, one array('d') per argument
    position, so the inputs weigh little beside the library's own memory.
    Each kernel draws from its own stream."""
    out = {}
    for name, n in calls.items():
        rng = random.Random(f"{seed}:{name}")
        make = _ARGS[name]
        cols = [array("d", [x]) for x in make(g, rng)]
        for _ in range(n - 1):
            for col, x in zip(cols, make(g, rng)):
                col.append(x)
        out[name] = cols
    return out


def rows(cols: list[array]):
    """The argument tuples of one kernel, in call order."""
    return zip(*cols)


def inputs_digest(inputs: dict[str, list[array]]) -> str:
    """A digest of the exact inputs, so runs can show they swept the same ones."""
    h = hashlib.sha256()
    for name in sorted(inputs):
        h.update(name.encode())
        for col in inputs[name]:
            h.update(col.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# kernel_sweep: timed calls, then checks
# ---------------------------------------------------------------------------

def resolve(g, qualname: str):
    module, fn = qualname.split(".")
    return getattr(getattr(g, module), fn)


def _value(v) -> float:
    """The float a kernel returned (PhiResult.value for phi_k, phi_ka);
    NaN for anything else, so it fails the finite-value check."""
    v = getattr(v, "value", v)
    return v if isinstance(v, float) else math.nan


def run_kernels(g, inputs: dict[str, list[array]],
                clock=time.perf_counter) -> tuple[float, dict, dict]:
    """Call every kernel on its inputs.  Returns (wall_s, outputs, call_s),
    with each kernel's values and per-call seconds in array('d')s.  A raise
    on in-domain input is stored as NaN: a failure."""
    outputs, call_s = {}, {}
    t0 = clock()
    for name, cols in inputs.items():
        fn = resolve(g, name)
        vals, durs = array("d"), array("d")
        for args in rows(cols):
            c0 = clock()
            try:
                v = fn(*args)
            except Exception:
                v = math.nan
            durs.append(clock() - c0)
            vals.append(_value(v))
        outputs[name], call_s[name] = vals, durs
    return clock() - t0, outputs, call_s


def root_misses(fwd, sym2: float, s: float, y: float) -> bool:
    """True unless the root s reproduces the forward value y = fwd(root).

    fwd is a decreasing modulus with fwd(r) * fwd(r') = sym2.  The residual
    is measured in the well-conditioned variable (r' for roots above
    1/sqrt2) against U_TOL, plus the change one ulp of s causes there.  A
    root at the documented saturation point passes when the exact root lies
    at or beyond it.
    """
    if not (0.0 < s < 1.0) or not math.isfinite(y):
        return True
    if s == R_SATURATED and fwd(s) >= y - U_TOL:
        return False
    if s <= SQRT_HALF:
        var, want = (lambda x: x), y
    else:
        var, want = (lambda x: math.sqrt((1.0 - x) * (1.0 + x))), sym2 / y
    got = fwd(var(s))
    slack = 0.0
    for nb in (math.nextafter(s, 0.0), math.nextafter(s, 1.0)):
        if 0.0 < nb < 1.0:
            slack = max(slack, abs(fwd(var(nb)) - got))
    return not abs(got - want) <= U_TOL + slack


def kernel_failures(g, inputs: dict, outputs: dict) -> dict[str, int]:
    """Count failed calls per kernel: a non-finite value (an exception is
    stored as NaN) or, for the inverses, a root that misses its forward
    modulus."""
    m = g.modulus
    u = m.grotzsch_u
    sym2_u = math.pi ** 2 / 4.0

    def sym2_a(a):
        return (math.pi / (2.0 * math.sin(math.pi * a))) ** 2

    checks = {
        "modulus.grotzsch_u_inv":
            lambda args, s: root_misses(u, sym2_u, s, args[0]),
        "modulus.grotzsch_ua_inv":
            lambda args, s: root_misses(lambda x: m.grotzsch_ua(args[0], x),
                                        sym2_a(args[0]), s, args[1]),
        "distortion.phi_k":
            lambda args, s: root_misses(u, sym2_u, s, u(args[1]) / args[0]),
        "distortion.phi_ka":
            lambda args, s: root_misses(lambda x: m.grotzsch_ua(args[0], x),
                                        sym2_a(args[0]), s,
                                        m.grotzsch_ua(args[0], args[2]) / args[1]),
    }
    failed = {}
    for name, vals in outputs.items():
        check = checks.get(name)
        n = 0
        for args, v in zip(rows(inputs[name]), vals):
            if not math.isfinite(v) or (check is not None and check(args, v)):
                n += 1
        failed[name] = n
    return failed


# ---------------------------------------------------------------------------
# verify workloads: checks on sweep reports
# ---------------------------------------------------------------------------

def expected_evaluations(g, spec) -> int:
    """Number of margin evaluations a sweep of spec must make, derived from
    the target's axes and filters."""
    t = g.target_info(spec.target)
    steps = spec.r_grid[2]
    sizes = {
        "a": sum(1 for a in spec.a_values if t.a_filter is None or t.a_filter(a)),
        "k": sum(1 for k in spec.k_values if t.k_filter is None or t.k_filter(k)),
        "r": steps - 1 if t.pairwise_r else steps,
        "alpha": steps,
    }
    n = 1
    for axis in t.axes:
        n *= sizes[axis]
    return n * spec.samples if t.randomized else n


def report_misses(g, entry: dict, spec) -> list[str]:
    """Reasons one report (as a to_dict() mapping) fails its checks."""
    misses = []
    try:
        if entry["evaluations"] != expected_evaluations(g, spec):
            misses.append("evaluations")
        if entry["classification"] == "asserted" and entry["status"] != "pass":
            misses.append("status")
        if g.margin_at(entry["target"], entry["argmin"]) != entry["min_margin"]:
            misses.append("margin_at")
    except (KeyError, TypeError, ValueError):
        misses.append("malformed")
    return misses


def check_reports(g, entries: list[dict], targets, seed: int, **spec_fields) -> dict:
    """Check the reports of one verify run against the targets it should
    cover.  Attempted operations are the evaluations each spec demands.  A
    report that misses any check fails all of them, and so does a missing
    report.  units maps each target to [attempted, failed]; correct is False
    on any miss."""
    by_target = {e.get("target"): e for e in entries if isinstance(e, dict)}
    units, misses = {}, {}
    for t in targets:
        spec = g.SweepSpec(target=t, seed=seed, **spec_fields)
        n = expected_evaluations(g, spec)
        entry = by_target.get(t)
        why = ["missing"] if entry is None else report_misses(g, entry, spec)
        units[t] = [n, n if why else 0]
        if why:
            misses[t] = why
    return {"attempted": sum(a for a, _ in units.values()),
            "failed": sum(f for _, f in units.values()), "units": units,
            "misses": misses, "correct": not misses and len(entries) == len(targets)}


def run_verify_all(g, seed: int, report_path: str,
                   clock=time.perf_counter) -> tuple[float, int]:
    """The cold CLI run users make.  Returns (wall_s, exit code)."""
    t0 = clock()
    rc = g.cli.main(["verify", "all", "--report", report_path, "--seed", str(seed)])
    return clock() - t0, rc


def load_report(path: str) -> list[dict] | None:
    try:
        with open(path) as fh:
            entries = json.load(fh)
    except (OSError, ValueError):
        return None
    return entries if isinstance(entries, list) else None


def run_verify_sampled(g, seed: int, targets, samples: int,
                       clock=time.perf_counter) -> tuple[float, list[dict]]:
    """Sweep each sampled target with a larger sample count, no report file."""
    t0 = clock()
    reports = [g.verify.sweep(g.SweepSpec(target=t, samples=samples, seed=seed))
               for t in targets]
    return clock() - t0, [r.to_dict() for r in reports]

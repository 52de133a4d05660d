"""Command-line front end: evaluate registered functions, emit parameter
tables, run verification suites, and print the named constants.

Exit codes: 0 success, 1 usage or domain error, 2 asserted-inequality
violation.
"""
from __future__ import annotations

import csv
import json
import math
import os
import sys

from . import bounds, distortion, modulus, special, verify
from .special import DomainError
from .verify import SweepSpec, UsageError


def _fmt(v) -> str:
    if isinstance(v, complex):
        return f"{v.real:.15g} {v.imag:.15g}"
    if isinstance(v, tuple):
        return " ".join(_fmt(x) for x in v)
    if isinstance(v, float):
        return f"{v:.15g}"
    return str(v)


# ---------------------------------------------------------------------------
# Function registry: name -> (callable, ordered parameter spec)
# parameter kinds: f = real, c = complex (passed via <name>-re/<name>-im), s = string
# ---------------------------------------------------------------------------

def _phi_value(k, r):
    return distortion.phi_k(k, r).value


def _phi_ka_value(a, k, r):
    return distortion.phi_ka(a, k, r).value


def _growth(f_abs, theta=0.0, d=bounds.LATTICE_GAP_D, b1=bounds.BLOCH_B1):
    cfg = bounds.BoundConfig(bloch_lower=b1, lattice_gap_d=d, theta=theta)
    return bounds.f_growth_bound(f_abs, cfg)


def _triple_angle(z0, z1, z2, w0, w1, w2):
    return bounds.triple_angle(bounds.TriplePoints(z0, z1, z2),
                               bounds.TriplePoints(w0, w1, w2))


FUNCTIONS: dict = {
    # special_fns
    "agm": (special.agm, [("a", "f"), ("b", "f")]),
    "elliptic_k": (special.elliptic_k, [("r", "f")]),
    "elliptic_e": (special.elliptic_e, [("r", "f")]),
    "elliptic_ka": (special.elliptic_ka, [("a", "f"), ("r", "f")]),
    "gauss_2f1_sym": (special.gauss_2f1_sym, [("a", "f"), ("x", "f")]),
    "digamma": (special.digamma, [("x", "f")]),
    "euler_gamma": (special.euler_gamma, []),
    "ramanujan_R": (special.ramanujan_R, [("a", "f")]),
    "landau_constant": (special.landau_constant, []),
    "apery_zeta3": (special.apery_zeta3, []),
    # modulus
    "grotzsch_u": (modulus.grotzsch_u, [("r", "f")]),
    "grotzsch_u_inv": (modulus.grotzsch_u_inv, [("y", "f")]),
    "grotzsch_ua": (modulus.grotzsch_ua, [("a", "f"), ("r", "f")]),
    "grotzsch_ua_inv": (modulus.grotzsch_ua_inv, [("a", "f"), ("y", "f")]),
    "product_P": (modulus.product_P, [("r", "f")]),
    "fn_A": (modulus.fn_A, [("r", "f")]),
    "fn_B": (modulus.fn_B, [("r", "f")]),
    # distortion
    "phi_k": (_phi_value, [("k", "f"), ("r", "f")]),
    "phi_ka": (_phi_ka_value, [("a", "f"), ("k", "f"), ("r", "f")]),
    "phi_k_product": (distortion.phi_k_product, [("k", "f"), ("r", "f")]),
    "phi_partial_r": (distortion.phi_partial_r, [("a", "f"), ("k", "f"), ("r", "f")]),
    "phi_partial_k": (distortion.phi_partial_k, [("a", "f"), ("k", "f"), ("r", "f")]),
    "lemma3_fk": (distortion.lemma3_fk, [("a", "f"), ("k", "f"), ("r", "f")]),
    # bounds
    "rho_lower": (bounds.rho_lower, [("z-abs", "f")]),
    "zeta_map": (bounds.zeta_map, [("", "c")]),
    "sigma_metric": (bounds.sigma_metric, [("", "c")]),
    "schottky_classical": (bounds.schottky_classical, [("ln-f0", "f"), ("z-abs", "f")]),
    "schottky_F": (bounds.schottky_F, [("", "c")]),
    "schottky_sf": (bounds.schottky_sf, [("f-abs", "f")]),
    "f_growth_bound": (_growth, [("f-abs", "f"), ("theta", "f?"),
                                 ("d", "f?"), ("b1", "f?")]),
    "schottky_f0_window": (bounds.schottky_f0_window, [("alpha", "f"), ("beta", "f")]),
    "eta_k": (bounds.eta_k, [("k", "f"), ("r", "f")]),
    "theorem3_sfk": (bounds.theorem3_sfk, [("k", "f"), ("r", "f")]),
    "qc_schwarz_bounds": (bounds.qc_schwarz_bounds, [("k", "f"), ("z-abs", "f")]),
    "triple_angle": (_triple_angle, [("z0", "c"), ("z1", "c"), ("z2", "c"),
                                     ("w0", "c"), ("w1", "c"), ("w2", "c")]),
    "mori_h": (bounds.mori_h, [("k", "f"), ("alpha", "f")]),
    "mori_sin_bound": (bounds.mori_sin_bound, [("k", "f"), ("alpha", "f")]),
    "mori_sin_bound_clamped": (bounds.mori_sin_bound_clamped,
                               [("k", "f"), ("alpha", "f")]),
    "mori_holder_bound": (bounds.mori_holder_bound,
                          [("k", "f"), ("dz-abs", "f"), ("variant", "s?")]),
}


class _CliUsage(Exception):
    pass


def _parse_flags(argv: list[str]) -> dict[str, str]:
    flags: dict[str, str] = {}
    i = 0
    while i < len(argv):
        tok = argv[i]
        if not tok.startswith("--"):
            raise _CliUsage(f"unexpected argument {tok!r}")
        name = tok[2:]
        if i + 1 >= len(argv):
            raise _CliUsage(f"flag --{name} needs a value")
        flags[name] = argv[i + 1]
        i += 2
    return flags


def _pop_float(flags: dict, name: str) -> float:
    try:
        return float(flags.pop(name))
    except (KeyError, ValueError):
        raise _CliUsage(f"missing or invalid numeric flag --{name}") from None


def _pop_complex(flags: dict, prefix: str) -> complex:
    re_key = f"{prefix}-re" if prefix else "re"
    im_key = f"{prefix}-im" if prefix else "im"
    try:
        re = float(flags.pop(re_key))
    except (KeyError, ValueError):
        raise _CliUsage(f"missing or invalid flag --{re_key}") from None
    im = float(flags.pop(im_key)) if im_key in flags else 0.0
    return complex(re, im)


def _get_format(flags: dict) -> str:
    fmt = flags.pop("format", "text")
    if fmt not in ("text", "csv", "json"):
        raise _CliUsage(f"unknown format {fmt!r}")
    return fmt


def _lookup(fn_name: str):
    if fn_name not in FUNCTIONS:
        raise _CliUsage(f"unknown function {fn_name!r}; known: "
                        + ", ".join(sorted(FUNCTIONS)))
    return FUNCTIONS[fn_name]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_eval(argv: list[str]) -> int:
    if not argv:
        raise _CliUsage("usage: gft eval FUNCTION [--param value ...]")
    fn, params = _lookup(argv[0])
    flags = _parse_flags(argv[1:])
    fmt = _get_format(flags)
    args = []
    for name, kind in params:
        if kind == "c":
            args.append(_pop_complex(flags, name))
        elif kind == "s?":
            args.append(flags.pop(name, "sixteen"))
        elif kind == "f?":
            if name in flags:
                args.append(_pop_float(flags, name))
        else:
            args.append(_pop_float(flags, name))
    if flags:
        raise _CliUsage(f"unknown flags: {', '.join('--' + f for f in flags)}")
    value = fn(*args)
    if fmt == "json":
        if isinstance(value, complex):
            out = {"re": value.real, "im": value.imag}
        elif isinstance(value, tuple):
            out = list(value)
        else:
            out = value
        print(json.dumps({"function": argv[0], "value": out}))
    else:
        print(_fmt(value))
    return 0


def _cmd_table(argv: list[str]) -> int:
    if not argv:
        raise _CliUsage("usage: gft table FUNCTION --<p>-min A --<p>-max B --steps N")
    fn_name = argv[0]
    fn, params = _lookup(fn_name)
    flags = _parse_flags(argv[1:])
    fmt = _get_format(flags)
    try:
        steps = int(flags.pop("steps"))
    except (KeyError, ValueError):
        raise _CliUsage("table requires an integer --steps") from None
    if steps < 1:
        raise _CliUsage("--steps must be >= 1")

    swept: list[tuple[str, list[float]]] = []
    fixed: dict[str, float] = {}
    for name, kind in params:
        if kind in ("c",):
            raise _CliUsage(f"{fn_name} takes complex input; table not supported")
        lo_key, hi_key = f"{name}-min", f"{name}-max"
        if lo_key in flags or hi_key in flags:
            lo = _pop_float(flags, lo_key)
            hi = _pop_float(flags, hi_key)
            if steps == 1:
                grid = [lo]
            else:
                grid = [lo + i * (hi - lo) / (steps - 1) for i in range(steps)]
            swept.append((name, grid))
        elif name in flags:
            fixed[name] = _pop_float(flags, name)
        elif kind in ("f?", "s?"):
            pass
        else:
            raise _CliUsage(f"parameter --{name} must be fixed or swept")
    if flags:
        raise _CliUsage(f"unknown flags: {', '.join('--' + f for f in flags)}")
    if not 1 <= len(swept) <= 2:
        raise _CliUsage("table requires one or two swept axes")

    header = [n for n, _ in swept] + [fn_name]
    rows = []
    grids = [g for _, g in swept]
    points = ([(x,) for x in grids[0]] if len(grids) == 1
              else [(x, y) for x in grids[0] for y in grids[1]])  # axis-major
    for pt in points:
        kwargs = dict(fixed)
        for (name, _), val in zip(swept, pt):
            kwargs[name] = val
        value = fn(*[kwargs[name] for name, _ in params if name in kwargs])
        rows.append(list(pt) + [value])

    if fmt == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(header)
        w.writerows([_fmt(v) for v in row] for row in rows)
    elif fmt == "json":
        print(json.dumps({"columns": header,
                          "rows": [[_fmt(v) for v in row] for row in rows]}))
    else:
        print("\t".join(header))
        for row in rows:
            print("\t".join(_fmt(v) for v in row))
    return 0


def _cmd_verify(argv: list[str]) -> int:
    if not argv:
        raise _CliUsage("usage: gft verify SUITE [--samples N --tol T --seed S "
                        "--report PATH --format F]")
    suite = argv[0]
    flags = _parse_flags(argv[1:])
    fmt = _get_format(flags)
    overrides: dict = {}
    if "samples" in flags:
        overrides["samples"] = int(flags.pop("samples"))
    if "tol" in flags:
        overrides["tol"] = float(flags.pop("tol"))
    if "seed" in flags:
        overrides["seed"] = int(flags.pop("seed"))
    report_path = flags.pop("report", None)
    if flags:
        raise _CliUsage(f"unknown flags: {', '.join('--' + f for f in flags)}")

    reports = verify.run_suite(suite, **overrides)

    if report_path is not None:
        report_dir = os.environ.get("GFT_REPORT_DIR", "")
        if report_dir and not os.path.isabs(report_path):
            report_path = os.path.join(report_dir, report_path)
        with open(report_path, "w") as fh:
            json.dump([r.to_dict() for r in reports], fh, indent=2, sort_keys=True)

    if fmt == "json":
        print(json.dumps([r.to_dict() for r in reports], sort_keys=True))
    else:
        for r in reports:
            arg = ",".join(f"{k}={_fmt(v)}" for k, v in sorted(r.argmin.items()))
            print(f"{r.target} {r.status} {_fmt(r.min_margin)}@{arg}")
    return 2 if verify.suite_failed(reports) else 0


def _constants() -> list[tuple[str, float, str]]:
    return [
        ("landau", special.landau_constant(), "Gamma(1/4)^4/(4 pi^2)"),
        ("euler_gamma", special.euler_gamma(), "-psi(1)"),
        ("zeta3", special.apery_zeta3(), "zeta(3)"),
        ("14_zeta3", special.APERY_A, "14*zeta(3)"),
        ("bloch_B1", bounds.BLOCH_B1, "sqrt(3)/4 lower bound for Bloch's constant"),
        ("lattice_gap_d", bounds.LATTICE_GAP_D,
         "grid-searched gap of the omitted-value lattice (derive_lattice_gap)"),
        ("ramanujan_R(0.5)", special.ramanujan_R(0.5), "equals ln 16"),
        ("ramanujan_R(0.25)", special.ramanujan_R(0.25), "equals 6 ln 2"),
    ]


def _cmd_constants(argv: list[str]) -> int:
    flags = _parse_flags(argv)
    fmt = _get_format(flags)
    if flags:
        raise _CliUsage(f"unknown flags: {', '.join('--' + f for f in flags)}")
    consts = _constants()
    if fmt == "json":
        print(json.dumps({name: value for name, value, _ in consts}, sort_keys=True))
    elif fmt == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(["name", "value", "note"])
        w.writerows([name, _fmt(value), note] for name, value, note in consts)
    else:
        for name, value, note in consts:
            print(f"{name:20s} {_fmt(value):24s} {note}")
    return 0


_USAGE = """usage: gft COMMAND ...

commands:
  eval FUNCTION --param value ...     evaluate one registered function
  table FUNCTION --<p>-min A --<p>-max B --steps N [--<q> V] [--format F]
  verify SUITE [--samples N --tol T --seed S --report PATH --format F]
  constants [--format F]

formats: text (default), csv, json
suites: """ + ", ".join(sorted(verify.SUITES))


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help", "help"):
        print(_USAGE)
        return 0 if argv else 1
    cmd, rest = argv[0], argv[1:]
    try:
        if cmd == "eval":
            return _cmd_eval(rest)
        if cmd == "table":
            return _cmd_table(rest)
        if cmd == "verify":
            return _cmd_verify(rest)
        if cmd == "constants":
            return _cmd_constants(rest)
        raise _CliUsage(f"unknown command {cmd!r}")
    except _CliUsage as e:
        print(f"error: {e}", file=sys.stderr)
        print(_USAGE, file=sys.stderr)
        return 1
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DomainError as e:
        msg = str(e)
        if not msg.startswith("domain error"):
            msg = f"domain error: {msg}"
        print(msg, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: evaluate registered functions, emit parameter
tables, run verification suites, and print the named constants.

Exit codes: 0 success, 1 usage or domain error, 2 asserted-inequality
violation.
"""
from __future__ import annotations

import csv
import errno
import itertools
import json
import os
import sys
import types
import typing

from . import bounds, distortion, modulus, special, verify
from .special import DomainError
from .verify import UsageError


def _fmt(v) -> str:
    if isinstance(v, complex):
        return f"{v.real:.15g} {v.imag:.15g}"
    if isinstance(v, tuple):
        return " ".join(_fmt(x) for x in v)
    if isinstance(v, float):
        return f"{v:.15g}"
    return str(v)


# ---------------------------------------------------------------------------
# Function registry: every function in the four kernel modules' __all__, so
# one line there reaches both gft and `gft eval`/`gft table`.  Flags come
# from the signatures: every parameter is annotated float, complex or str
# and is the flag --<name> (with _ -> -), optional when it has a default.  A
# complex parameter takes --<name>-re/--<name>-im, or --re/--im when it is
# the function's only one.
# ---------------------------------------------------------------------------

FUNCTIONS: dict = {fn.__name__: fn for fn in (
    getattr(module, name) for module in (special, modulus, distortion, bounds)
    for name in module.__all__) if isinstance(fn, types.FunctionType)}


def _params(fn) -> list[tuple[str, str, type, bool]]:
    """(name, flag, type, optional) for each parameter; a complex parameter's
    flag is the one for its real part.  Every parameter is positional or
    keyword, so the code object lists them and the last len(__defaults__)
    are the optional ones."""
    names, hints = verify._arg_names(fn), typing.get_type_hints(fn)
    required = len(names) - len(fn.__defaults__ or ())
    lone = [hints[name] for name in names].count(complex) == 1
    spec = []
    for i, name in enumerate(names):
        flag = name.replace("_", "-")
        if hints[name] is complex:
            flag = "re" if lone else f"{flag}-re"
        spec.append((name, flag, hints[name], i >= required))
    return spec


def _call(fn, kwargs: dict):
    """fn called by keyword; a PhiResult gives its value."""
    value = fn(**kwargs)
    return value.value if isinstance(value, distortion.PhiResult) else value


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
        if name in flags:
            raise _CliUsage(f"flag --{name} is given twice")
        flags[name] = argv[i + 1]
        i += 2
    return flags


def _pop(flags: dict, flag: str, kind: type = float, noun: str = "numeric flag"):
    """Remove --flag and convert it to kind.  A complex value is read from
    its -re flag and the matching -im flag, which defaults to 0."""
    if kind is complex:
        re = _pop(flags, flag, float, "flag")
        im_flag = flag[:-2] + "im"
        return complex(re, _pop(flags, im_flag, float, "flag") if im_flag in flags else 0.0)
    try:
        return kind(flags.pop(flag))
    except (KeyError, ValueError):
        raise _CliUsage(f"missing or invalid {noun} --{flag}") from None


def _reject_unknown(flags: dict) -> None:
    if flags:
        raise _CliUsage(f"unknown flags: {', '.join('--' + f for f in flags)}")


def _get_format(flags: dict, takes_csv: bool = True) -> str:
    fmt = flags.pop("format", "text")
    if fmt not in ("text", "csv", "json"):
        raise _CliUsage(f"unknown format {fmt!r}")
    if fmt == "csv" and not takes_csv:
        raise _CliUsage("format 'csv' is taken by table and constants only")
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
    fn = _lookup(argv[0])
    flags = _parse_flags(argv[1:])
    fmt = _get_format(flags, takes_csv=False)
    kwargs = {name: _pop(flags, flag, kind) for name, flag, kind, optional in _params(fn)
              if not optional or flag in flags}
    _reject_unknown(flags)
    value = _call(fn, kwargs)
    if fmt == "json":
        out = {"re": value.real, "im": value.imag} if isinstance(value, complex) else value
        print(json.dumps({"function": argv[0], "value": out}))
    else:
        print(_fmt(value))
    return 0


def _cmd_table(argv: list[str]) -> int:
    if not argv:
        raise _CliUsage("usage: gft table FUNCTION --<p>-min A --<p>-max B --steps N")
    fn_name = argv[0]
    fn = _lookup(fn_name)
    flags = _parse_flags(argv[1:])
    fmt = _get_format(flags)
    try:
        steps = int(flags.pop("steps"))
    except (KeyError, ValueError):
        raise _CliUsage("table requires an integer --steps") from None
    if steps < 1:
        raise _CliUsage("--steps must be >= 1")

    swept: list[tuple[str, str, list[float]]] = []
    fixed: dict = {}
    for name, flag, kind, optional in _params(fn):
        if kind is complex:
            raise _CliUsage(f"{fn_name} takes complex input; table not supported")
        lo_key, hi_key = f"{flag}-min", f"{flag}-max"
        if lo_key in flags or hi_key in flags:
            swept.append((name, flag, verify._linspace(_pop(flags, lo_key),
                                                       _pop(flags, hi_key), steps)))
        elif flag in flags:
            fixed[name] = _pop(flags, flag, kind)
        elif not optional:
            raise _CliUsage(f"parameter --{flag} must be fixed or swept")
    _reject_unknown(flags)
    if not 1 <= len(swept) <= 2:
        raise _CliUsage("table requires one or two swept axes")

    names, axes, grids = zip(*swept)
    header = [*axes, fn_name]
    rows = [list(pt) + [_call(fn, {**fixed, **dict(zip(names, pt))})]
            for pt in itertools.product(*grids)]  # axis-major

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
        raise _CliUsage("usage: gft verify SUITE [--samples N --seed S "
                        "--report PATH --format F]")
    suite = argv[0]
    flags = _parse_flags(argv[1:])
    fmt = _get_format(flags, takes_csv=False)
    overrides = {name: _pop(flags, name, kind) for name, kind in
                 (("samples", int), ("seed", int)) if name in flags}
    report_path = flags.pop("report", None)
    _reject_unknown(flags)
    if report_path is not None and (reason := _report_unwritable(report_path)):
        print(f"error: cannot write report {report_path}: {reason}", file=sys.stderr)
        return 1

    reports = verify.run_suite(suite, **overrides)
    docs = [r.to_dict() for r in reports]

    if report_path is not None:
        try:
            with open(report_path, "w") as fh:
                # streamed: json.dumps would hold every chunk of the indenting
                # encoder at once, which raises peak memory for little time saved
                json.dump(docs, fh, indent=2, sort_keys=True)
        except OSError as e:
            print(f"error: cannot write report {report_path}: {e.strerror}", file=sys.stderr)
            return 1

    if fmt == "json":
        print(json.dumps(docs, sort_keys=True))
    else:
        for r in reports:
            arg = ",".join(f"{k}={_fmt(v)}" for k, v in sorted(r.argmin.items()))
            print(f"{r.target} {r.status} {_fmt(r.min_margin)}@{arg}")
    return 2 if verify.suite_failed(reports) else 0


def _report_unwritable(path: str) -> str | None:
    """Why a report cannot be written to path, seen before the run without
    creating or truncating the file; the write still catches what this misses."""
    if not path:
        return os.strerror(errno.ENOENT)  # as open("") fails
    if os.path.isdir(path):
        return os.strerror(errno.EISDIR)
    name = path.rstrip(os.sep)
    parent = os.path.dirname(name) or "."
    try:
        os.stat(parent + os.sep)  # with the separator, ENOTDIR unless it is a directory
    except OSError as e:
        return e.strerror
    if name != path:  # a trailing separator names a directory, which open() does not create
        return os.strerror(errno.EISDIR)
    return None if os.access(parent, os.W_OK) else os.strerror(errno.EACCES)


def _constants() -> list[tuple[str, float, str]]:
    return [
        ("landau", special.LANDAU_C, "Gamma(1/4)^4/(4 pi^2)"),
        ("euler_gamma", special.EULER_GAMMA, "-psi(1)"),
        ("zeta3", special.ZETA3, "zeta(3)"),
        ("14_zeta3", special.APERY_A, "14*zeta(3)"),
        ("bloch_B1", bounds.BLOCH_B1, "sqrt(3)/4 lower bound for Bloch's constant"),
        ("lattice_gap_d", bounds.LATTICE_GAP_D,
         "omitted-value lattice gap sqrt(pi^2 + ln^2(1+sqrt2)/4)"),
        ("ramanujan_R(0.5)", special.ramanujan_R(0.5), "equals ln 16"),
        ("ramanujan_R(0.25)", special.ramanujan_R(0.25), "equals 6 ln 2"),
    ]


def _cmd_constants(argv: list[str]) -> int:
    flags = _parse_flags(argv)
    fmt = _get_format(flags)
    _reject_unknown(flags)
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
  verify SUITE [--samples N --seed S --report PATH --format F]
  constants [--format F]

formats: text (default), json; csv for table and constants only
suites: """ + ", ".join(sorted(verify.SUITES))


_COMMANDS = {"eval": _cmd_eval, "table": _cmd_table, "verify": _cmd_verify,
             "constants": _cmd_constants}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # -h or --help anywhere after a command asks for the usage too
    if (not argv or argv[0] in ("-h", "--help", "help")
            or argv[0] in _COMMANDS and not {"-h", "--help"}.isdisjoint(argv[1:])):
        print(_USAGE)
        return 0 if argv else 1
    cmd, rest = argv[0], argv[1:]
    try:
        if cmd not in _COMMANDS:
            raise _CliUsage(f"unknown command {cmd!r}")
        return _COMMANDS[cmd](rest)
    except _CliUsage as e:
        print(f"error: {e}", file=sys.stderr)
        print(_USAGE, file=sys.stderr)
        return 1
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DomainError as e:
        print(f"domain error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: exit codes, output formats, determinism, and
report-file plumbing.

The golden corpus (GOLDEN_COMMANDS) pins stdout, stderr and the exit code
of every command to tests/cli_golden.json, which
`PYTHONPATH=src python tests/test_cli.py` re-records.  An entry may be
re-recorded only when the library value it prints changed on purpose, and
CHANGES.md then lists it.
"""
import ast
import contextlib
import csv
import errno
import hashlib
import inspect
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import types
import warnings

import pytest

import gft
from gft.cli import FUNCTIONS, _params, main


GOLDEN_PATH = pathlib.Path(__file__).with_name("cli_golden.json")

_TRIPLE = ("--z0-re", "0", "--z1-re", "1", "--z2-re", "0", "--z2-im", "1",
           "--w0-re", "0", "--w1-re", "1", "--w2-re", "0.5", "--w2-im", "0.8")

GOLDEN_COMMANDS = [
    # eval: every registered function
    ("eval", "agm", "--a", "1", "--b", "0.5"),
    ("eval", "elliptic_k", "--r", "0.5"),
    ("eval", "elliptic_e", "--r", "0.5"),
    ("eval", "elliptic_ka", "--a", "0.25", "--r", "0.5"),
    ("eval", "gauss_2f1_sym", "--a", "0.25", "--x", "0.3"),
    ("eval", "digamma", "--x", "2.5"),
    ("eval", "ramanujan_R", "--a", "0.25"),
    ("eval", "landau_constant"),
    ("eval", "grotzsch_u", "--r", "0.5"),
    ("eval", "grotzsch_u_inv", "--y", "2"),
    ("eval", "grotzsch_ua", "--a", "0.25", "--r", "0.5"),
    ("eval", "grotzsch_ua_inv", "--a", "0.25", "--y", "2"),
    ("eval", "product_P", "--r", "0.5"),
    ("eval", "fn_A", "--r", "0.5"),
    ("eval", "fn_B", "--r", "0.5"),
    ("eval", "phi_k", "--k", "2", "--r", "0.25"),
    ("eval", "phi_ka", "--a", "0.25", "--k", "2", "--r", "0.5"),
    ("eval", "phi_k_product", "--k", "2", "--r", "0.5"),
    ("eval", "phi_partial_r", "--a", "0.25", "--k", "2", "--r", "0.5"),
    ("eval", "phi_partial_k", "--a", "0.25", "--k", "2", "--r", "0.5"),
    ("eval", "lemma3_fk", "--a", "0.25", "--k", "2", "--r", "0.5"),
    ("eval", "rho_lower", "--z-abs", "0.5"),
    ("eval", "zeta_map", "--re", "-3", "--im", "0"),
    ("eval", "sigma_metric", "--re", "0.3", "--im", "0.4"),
    ("eval", "schottky_classical", "--ln-f0", "1", "--z-abs", "0.5"),
    ("eval", "schottky_F", "--re", "0.3", "--im", "0.4"),
    ("eval", "schottky_sf", "--f-abs", "0.5"),
    ("eval", "f_growth_bound", "--f-abs", "1"),
    ("eval", "schottky_f0_window", "--alpha", "0.5", "--beta", "2"),
    ("eval", "eta_k", "--k", "2", "--r", "0.5"),
    ("eval", "theorem3_sfk", "--k", "2", "--r", "0.5"),
    ("eval", "qc_schwarz_bounds", "--k", "2", "--z-abs", "0.5"),
    ("eval", "triple_angle") + _TRIPLE,
    ("eval", "mori_sin_bound", "--k", "2", "--alpha", "0.5"),
    ("eval", "mori_holder_bound", "--k", "2", "--dz-abs", "0.5"),
    # eval: optional, string and complex parameters
    ("eval", "mori_holder_bound", "--k", "2", "--dz-abs", "0.5", "--variant", "sixtyfour"),
    ("eval", "mori_holder_bound", "--k", "2", "--dz-abs", "0.5", "--variant", "bogus"),
    ("eval", "f_growth_bound", "--f-abs", "1", "--theta", "0.5"),
    ("eval", "f_growth_bound", "--f-abs", "1", "--theta", "0.5", "--d", "3"),
    ("eval", "f_growth_bound", "--f-abs", "1", "--theta", "0.5", "--d", "3", "--b1", "0.5"),
    ("eval", "f_growth_bound", "--f-abs", "1", "--theta", "1"),
    ("eval", "f_growth_bound", "--f-abs", "-1"),
    ("eval", "zeta_map", "--re", "2"),
    ("eval", "schottky_sf", "--f-abs", "500"),
    # eval: formats
    ("eval", "phi_k", "--k", "2", "--r", "0.25", "--format", "json"),
    ("eval", "phi_ka", "--a", "0.25", "--k", "2", "--r", "0.5", "--format", "json"),
    ("eval", "zeta_map", "--re", "-3", "--im", "0", "--format", "json"),
    ("eval", "qc_schwarz_bounds", "--k", "2", "--z-abs", "0.5", "--format", "json"),
    ("eval", "grotzsch_u", "--r", "0.5", "--format", "json"),
    ("eval", "landau_constant", "--format", "csv"),
    ("eval", "landau_constant", "--format", "text"),
    ("eval", "triple_angle") + _TRIPLE + ("--format", "json"),
    # eval: domain and usage errors
    ("eval", "phi_k", "--k", "2", "--r", "1.5"),
    ("eval", "grotzsch_u_inv", "--y", "800"),
    ("eval", "digamma", "--x", "0"),
    ("eval", "elliptic_k", "--r", "1"),
    ("eval", "sigma_metric", "--re", "0", "--im", "0"),
    ("eval", "no_such_fn"),
    ("eval",),
    ("eval", "phi_k", "--k", "2"),
    ("eval", "phi_k", "--k", "abc", "--r", "0.5"),
    ("eval", "phi_k", "--k", "2", "--r", "0.5", "--bogus", "1"),
    ("eval", "lemma3_fk", "--a", "0.25", "--k", "2", "--r", "0.5", "--literal", "1"),
    ("eval", "phi_k", "--k", "2", "--r"),
    ("eval", "phi_k", "2"),
    ("eval", "phi_k", "--k", "2", "--r", "0.5", "--format", "xml"),
    ("eval", "zeta_map", "--im", "1"),
    ("eval", "zeta_map", "--re", "abc"),
    ("eval", "triple_angle", "--z0-re", "0"),
    ("eval", "landau_constant", "--x", "1"),
    ("eval", "schottky_sf", "--f-abs-F", "0.5"),
    # table
    ("table", "elliptic_k", "--r-min", "0.1", "--r-max", "0.3", "--steps", "3"),
    ("table", "elliptic_k", "--r-min", "0.1", "--r-max", "0.3", "--steps", "3",
     "--format", "csv"),
    ("table", "elliptic_k", "--r-min", "0.1", "--r-max", "0.3", "--steps", "3",
     "--format", "json"),
    ("table", "phi_k", "--k-min", "1", "--k-max", "2", "--r-min", "0.2",
     "--r-max", "0.4", "--steps", "2", "--format", "csv"),
    ("table", "phi_k", "--k-min", "1", "--k-max", "2", "--r-min", "0.2",
     "--r-max", "0.4", "--steps", "2", "--format", "json"),
    ("table", "phi_k", "--k", "2", "--r-min", "0.25", "--r-max", "0.5", "--steps", "2"),
    ("table", "phi_ka", "--a", "0.25", "--k", "2", "--r-min", "0.1", "--r-max", "0.9",
     "--steps", "3"),
    ("table", "qc_schwarz_bounds", "--k", "2", "--z-abs-min", "0.1", "--z-abs-max", "0.9",
     "--steps", "3"),
    ("table", "mori_holder_bound", "--k-min", "1", "--k-max", "2", "--steps", "2",
     "--dz-abs", "0.5"),
    ("table", "f_growth_bound", "--f-abs-min", "0", "--f-abs-max", "1", "--steps", "2"),
    ("table", "f_growth_bound", "--f-abs", "1", "--theta-min", "0", "--theta-max", "0.5",
     "--steps", "2"),
    ("table", "f_growth_bound", "--f-abs-min", "0", "--f-abs-max", "1", "--steps", "2",
     "--theta", "0.5", "--d", "3", "--b1", "0.5"),
    ("table", "schottky_classical", "--ln-f0-min", "0", "--ln-f0-max", "1",
     "--z-abs-min", "0.1", "--z-abs-max", "0.5", "--steps", "2", "--format", "csv"),
    ("table", "elliptic_k", "--r-min", "0.5", "--r-max", "0.9", "--steps", "1"),
    ("table", "elliptic_k", "--r-min", "0.5", "--r-max", "1.5", "--steps", "3"),
    # table: usage errors
    ("table", "elliptic_k", "--r-min", "0.1", "--r-max", "0.3"),
    ("table", "elliptic_k", "--r-min", "0.1", "--r-max", "0.3", "--steps", "x"),
    ("table", "elliptic_k", "--r-min", "0.1", "--r-max", "0.3", "--steps", "0"),
    ("table", "zeta_map", "--re-min", "0", "--re-max", "1", "--steps", "2"),
    ("table", "phi_k", "--r-min", "0.1", "--r-max", "0.3", "--steps", "2"),
    ("table", "phi_k", "--k", "2", "--r", "0.5", "--steps", "2"),
    ("table", "phi_ka", "--a-min", "0.1", "--a-max", "0.2", "--k-min", "1", "--k-max", "2",
     "--r-min", "0.1", "--r-max", "0.2", "--steps", "2"),
    ("table", "elliptic_k", "--r-min", "0.1", "--steps", "2"),
    ("table", "elliptic_k", "--r-min", "0.1", "--r-max", "0.3", "--steps", "2",
     "--bogus", "1"),
    ("table",),
    ("table", "no_such_fn", "--steps", "2"),
    ("table", "landau_constant", "--steps", "2"),
    ("table", "elliptic_k", "--r-min", "0.1", "--r-max", "0.3", "--steps", "2",
     "--format", "xml"),
    # verify
    ("verify", "identities", "--samples", "100"),
    ("verify", "identities", "--format", "json"),
    ("verify", "identities", "--samples", "100", "--format", "csv"),
    ("verify", "identities", "--samples", "100", "--tol", "1e-6"),
    ("verify", "sanity", "--samples", "100"),
    ("verify", "mori", "--samples", "200", "--seed", "7"),
    ("verify", "schottky", "--samples", "300", "--seed", "11"),
    ("verify", "lemma2"),
    ("verify", "all", "--samples", "200"),
    ("verify", "mori", "--samples", "0"),
    ("verify", "no_such_suite"),
    ("verify",),
    ("verify", "identities", "--bogus", "1"),
    ("verify", "identities", "--format", "xml"),
    # constants
    ("constants",),
    ("constants", "--format", "csv"),
    ("constants", "--format", "json"),
    ("constants", "--bogus", "1"),
    ("constants", "--format", "xml"),
    ("constants", "extra"),
    # top level
    (),
    ("--help",),
    ("-h",),
    ("help",),
    ("frobnicate",),
    # subcommand help: the usage on stdout, rc 0, and nothing run
    ("eval", "--help"),
    ("eval", "-h"),
    ("table", "--help"),
    ("table", "-h"),
    ("verify", "--help"),
    ("verify", "-h"),
    ("verify", "all", "--samples", "100", "--help"),
    ("constants", "--help"),
    ("constants", "-h"),
    # appended, so the entries above keep their indices: the two kernels
    # FUNCTIONS gained from the modules' __all__ (c6 is nan at a = 1/2, as
    # lemma2_constants documents), and a repeated flag, which is refused
    ("eval", "landen_next", "--r", "0.5"),
    ("eval", "lemma2_constants", "--a", "0.25"),
    ("eval", "lemma2_constants", "--a", "0.5"),
    ("eval", "phi_k", "--k", "2", "--k", "4", "--r", "0.5"),
    ("table", "elliptic_k", "--r-min", "0.1", "--r-max", "0.3", "--steps", "2",
     "--steps", "3"),
    ("verify", "identities", "--samples", "5", "--samples", "100"),
]


HELP = ("-h", "--help")   # a subcommand's help entries name no function


def _run_captured(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return {"argv": list(argv), "rc": rc, "out": out.getvalue(), "err": err.getvalue()}


def record_golden() -> None:
    entries = [_run_captured(argv) for argv in GOLDEN_COMMANDS]
    GOLDEN_PATH.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n")


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestGoldenCorpus:
    def test_corpus_matches_command_list(self):
        recorded = [e["argv"] for e in json.loads(GOLDEN_PATH.read_text())]
        assert recorded == [list(argv) for argv in GOLDEN_COMMANDS]
        assert len(GOLDEN_COMMANDS) >= 100

    @pytest.mark.parametrize("index", range(len(GOLDEN_COMMANDS)))
    def test_byte_identical(self, index):
        expected = json.loads(GOLDEN_PATH.read_text())[index]
        assert _run_captured(GOLDEN_COMMANDS[index]) == expected


def test_every_golden_function_is_registered():
    # an entry naming a function that is not registered would record
    # "unknown function" and keep passing; only the no_such_fn cases may
    named = [argv[1] for argv in GOLDEN_COMMANDS if argv[:1] in (("eval",), ("table",))
             and len(argv) > 1 and argv[1] not in HELP]
    assert [name for name in named if name not in FUNCTIONS] == ["no_such_fn"] * 2


def _passing_evals() -> list:
    """The golden eval commands that call a function and exit 0, in order."""
    return [e["argv"] for e in json.loads(GOLDEN_PATH.read_text())
            if e["argv"][:1] == ["eval"] and e["rc"] == 0 and e["argv"][1] not in HELP]


def _first_eval_entries() -> dict:
    """Each registered function's first golden eval command with exit code 0."""
    first: dict = {}
    for argv in _passing_evals():
        first.setdefault(argv[1], argv)
    return first


EXTREME_VALUES = ("nan", "inf", "-inf", "1e-300", "1e300", "5e-324",
                  "1.7976931348623157e308")


def _fullest_eval_entries() -> dict:
    """Each registered function's passing golden eval command that sets the
    most flags, where it sets more than the first one, which can leave an
    optional parameter at its default.  --format entries are left out."""
    first, fullest = _first_eval_entries(), {}
    for argv in _passing_evals():
        if "--format" not in argv and len(argv) > len(fullest.get(argv[1], first[argv[1]])):
            fullest[argv[1]] = argv
    return fullest


def _extreme_value_cases() -> list:
    """Each first and fullest eval command with one numeric flag set to an
    extreme, and, where it has several, with all of them set to the same
    extreme at once."""
    cases, together = [], []
    for argv in [*_first_eval_entries().values(), *_fullest_eval_entries().values()]:
        numeric = []
        for j in range(3, len(argv), 2):
            try:
                float(argv[j])
            except ValueError:
                continue                # a string flag, e.g. --variant
            numeric.append(j)
            cases += [argv[:j] + [v] + argv[j + 1:] for v in EXTREME_VALUES]
        if len(numeric) > 1:
            for v in EXTREME_VALUES:
                together.append([v if j in numeric else x for j, x in enumerate(argv)])
    return cases + together


def test_every_parameter_is_a_flag():
    # _params makes every parameter a flag; a parameter of another type
    # (say a bool) would be converted wrongly, so none may exist.  It reads
    # the code object, which lists positional-or-keyword parameters only
    for name, fn in FUNCTIONS.items():
        for p in inspect.signature(fn, eval_str=True).parameters.values():
            assert p.annotation in (float, complex, str), (name, p.name)
            assert p.kind is p.POSITIONAL_OR_KEYWORD, (name, p.name)


def _params_from_signature(fn) -> list:
    """_params as inspect.signature states it: the reference for _params."""
    params = inspect.signature(fn, eval_str=True).parameters.values()
    lone = [p.annotation for p in params].count(complex) == 1
    spec = []
    for p in params:
        flag = p.name.replace("_", "-")
        if p.annotation is complex:
            flag = "re" if lone else f"{flag}-re"
        spec.append((p.name, flag, p.annotation, p.default is not p.empty))
    return spec


def test_params_agree_with_inspect_signature():
    for name, fn in FUNCTIONS.items():
        assert _params(fn) == _params_from_signature(fn), name
    assert len(FUNCTIONS) == 37


def test_every_function_has_a_passing_eval_entry():
    assert set(_first_eval_entries()) == set(FUNCTIONS) and len(FUNCTIONS) == 37


@pytest.mark.parametrize("argv", _extreme_value_cases(), ids=" ".join)
def test_extreme_flag_values_give_a_value_or_a_domain_error(argv):
    # a library function either returns a finite number or raises
    # DomainError: no traceback escapes main, and no NaN or infinity is
    # printed as a result
    result = _run_captured(argv)
    if result["rc"] == 0:
        assert "nan" not in result["out"].lower()
        assert "inf" not in result["out"].lower()
    else:
        assert result["rc"] == 1 and result["err"].startswith("domain error: ")


class TestEval:
    def test_scalar(self, capsys):
        rc, out, _ = run_cli(capsys, "eval", "phi_k", "--k", "2", "--r", "0.25")
        assert rc == 0
        assert float(out) == pytest.approx(0.8, abs=1e-10)

    def test_fifteen_significant_digits(self, capsys):
        rc, out, _ = run_cli(capsys, "eval", "landau_constant")
        assert rc == 0
        assert out.strip() == "4.37687923045295"

    def test_complex_input_output(self, capsys):
        rc, out, _ = run_cli(capsys, "eval", "zeta_map", "--re", "-3", "--im", "0")
        assert rc == 0
        re, im = out.split()
        assert float(re) == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert float(im) == 0.0

    def test_tuple_output(self, capsys):
        rc, out, _ = run_cli(capsys, "eval", "qc_schwarz_bounds",
                             "--k", "2", "--z-abs", "0.5")
        assert rc == 0
        lo, hi = map(float, out.split())
        assert lo < 0.5 < hi

    def test_json_format(self, capsys):
        rc, out, _ = run_cli(capsys, "eval", "grotzsch_u", "--r", "0.5",
                             "--format", "json")
        assert rc == 0
        data = json.loads(out)
        assert data["function"] == "grotzsch_u"
        assert data["value"] == pytest.approx(2.0094593770052852, rel=1e-12)

    def test_domain_error_exit_1(self, capsys):
        rc, _, err = run_cli(capsys, "eval", "phi_k", "--k", "2", "--r", "1.5")
        assert rc == 1
        assert "domain error" in err

    def test_unknown_function_exit_1(self, capsys):
        rc, _, err = run_cli(capsys, "eval", "no_such_fn")
        assert rc == 1
        assert "unknown function" in err

    def test_missing_flag_exit_1(self, capsys):
        rc, _, err = run_cli(capsys, "eval", "phi_k", "--k", "2")
        assert rc == 1
        assert "--r" in err


class TestKeywordCall:
    """Optional flags reach their own parameter whichever others are given."""

    @pytest.mark.parametrize("extra, cfg", [
        (("--theta", "0.25"), {"theta": 0.25}),
        ((), {}),
    ])
    def test_eval_growth_bound_matches_library(self, capsys, extra, cfg):
        rc, out, err = run_cli(capsys, "eval", "f_growth_bound", "--f-abs", "1", *extra)
        assert (rc, err) == (0, "")
        expected = gft.f_growth_bound(1.0, **cfg)
        assert out == f"{expected:.15g}\n"

    def test_table_growth_bound_matches_library(self, capsys):
        rc, out, _ = run_cli(capsys, "table", "f_growth_bound", "--f-abs-min", "0",
                             "--f-abs-max", "1", "--steps", "2", "--theta", "0.25",
                             "--format", "csv")
        assert rc == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows == [["f-abs", "f_growth_bound"],
                        ["0", f"{gft.f_growth_bound(0.0, theta=0.25):.15g}"],
                        ["1", f"{gft.f_growth_bound(1.0, theta=0.25):.15g}"]]

    def test_table_string_flag(self, capsys):
        rc, out, err = run_cli(capsys, "table", "mori_holder_bound", "--k-min", "1",
                               "--k-max", "2", "--steps", "2", "--dz-abs", "0.5",
                               "--variant", "sixtyfour")
        assert (rc, err) == (0, "")
        rows = [ln.split("\t") for ln in out.splitlines()]
        assert rows == [["k", "mori_holder_bound"],
                        ["1", f"{gft.mori_holder_bound(1.0, 0.5, 'sixtyfour'):.15g}"],
                        ["2", f"{gft.mori_holder_bound(2.0, 0.5, 'sixtyfour'):.15g}"]]
        assert float(rows[2][1]) == pytest.approx(math.sqrt(64.0 * 0.5), rel=1e-14)


class TestUsageErrors:
    @pytest.mark.parametrize("argv, flag", [
        (("verify", "identities", "--samples", "abc"), "--samples"),
        (("verify", "identities", "--seed", "x"), "--seed"),
        (("verify", "identities", "--samples", "1.5"), "--samples"),
        (("eval", "zeta_map", "--re", "1", "--im", "abc"), "--im"),
        (("eval", "triple_angle") + _TRIPLE[:-1] + ("abc",), "--w2-im"),
    ])
    def test_bad_value_names_the_flag(self, capsys, argv, flag):
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (1, "")
        first = err.splitlines()[0]
        assert first.startswith("error: ") and first.endswith(flag)

    @pytest.mark.parametrize("argv, flag", [
        (("eval", "f_growth_bound", "--f-abs", "1", "--theta", "0.5", "--d", "3"), "--d"),
        (("eval", "f_growth_bound", "--f-abs", "1", "--theta", "0.5", "--b1", "0.5"), "--b1"),
        (("verify", "identities", "--samples", "100", "--tol", "1e-6"), "--tol"),
    ])
    def test_retired_flag_is_unknown(self, capsys, argv, flag):
        # d and B1 are the paper's constants and a sweep judges each target
        # at its own default_tol, so these flags no longer parse
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (1, "")
        assert err.splitlines()[0] == f"error: unknown flags: {flag}"

    @pytest.mark.parametrize("argv, flag", [
        (("eval", "phi_k", "--k", "2", "--k", "4", "--r", "0.5"), "--k"),
        (("table", "elliptic_k", "--r-min", "0.1", "--r-max", "0.3", "--steps", "2",
          "--r-min", "0.2"), "--r-min"),
        (("verify", "identities", "--samples", "5", "--samples", "100"), "--samples"),
        (("constants", "--format", "json", "--format", "csv"), "--format"),
    ], ids=["eval", "table", "verify", "constants"])
    def test_repeated_flag_is_refused(self, capsys, monkeypatch, argv, flag):
        # the last value used to win silently: phi_k printed phi_4(1/2)
        monkeypatch.setattr(gft.verify, "run_suite", None)
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (1, "")
        assert err.splitlines()[0] == f"error: flag {flag} is given twice"


class TestTable:
    def test_csv(self, capsys):
        rc, out, _ = run_cli(capsys, "table", "elliptic_k",
                             "--r-min", "0.1", "--r-max", "0.3", "--steps", "3",
                             "--format", "csv")
        assert rc == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["r", "elliptic_k"]
        assert len(rows) == 4
        assert float(rows[1][1]) == pytest.approx(1.5747455615173560, rel=1e-12)

    def test_two_axes_axis_major(self, capsys):
        rc, out, _ = run_cli(capsys, "table", "phi_k",
                             "--k-min", "1", "--k-max", "2",
                             "--r-min", "0.2", "--r-max", "0.4",
                             "--steps", "2", "--format", "csv")
        assert rc == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["k", "r", "phi_k"]
        assert len(rows) == 5
        # first axis (k) varies slowest
        assert [r[0] for r in rows[1:]] == ["1", "1", "2", "2"]

    def test_fixed_parameter(self, capsys):
        rc, out, _ = run_cli(capsys, "table", "phi_k", "--k", "2",
                             "--r-min", "0.25", "--r-max", "0.5", "--steps", "2")
        assert rc == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3

    def test_missing_steps_exit_1(self, capsys):
        rc, _, err = run_cli(capsys, "table", "elliptic_k",
                             "--r-min", "0.1", "--r-max", "0.3")
        assert rc == 1
        assert "--steps" in err

    def test_axis_is_the_sweep_grid(self, capsys, monkeypatch):
        # table and the sweeps share one grid helper, so a table reproduces
        # a sweep's r values bit for bit (lo + i*(hi-lo)/(steps-1) misses 29
        # of the 99 default points by an ulp)
        seen = []

        def record(r: float) -> float:
            seen.append(r)
            return r

        monkeypatch.setitem(FUNCTIONS, "elliptic_k", record)
        spec = gft.SweepSpec(target="thm4_k1_equality")
        lo, hi, steps = spec.r_grid
        rc, _, _ = run_cli(capsys, "table", "elliptic_k", "--r-min", repr(lo),
                           "--r-max", repr(hi), "--steps", str(steps))
        assert rc == 0
        _, grid = gft.verify._grid(gft.target_info(spec.target), spec)
        assert seen == grid["r"]


class TestVerify:
    def test_passing_suite_exit_0(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "identities", "--samples", "100")
        assert rc == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert all(" pass " in ln for ln in lines)

    def test_sanity_suite_exit_2(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "sanity", "--samples", "100")
        assert rc == 2
        assert "planted_false fail" in out

    def test_unknown_suite_exit_1(self, capsys):
        rc, _, err = run_cli(capsys, "verify", "no_such_suite")
        assert rc == 1
        assert "unknown suite" in err

    def test_repeated_runs_byte_identical(self, capsys):
        args = ("verify", "mori", "--samples", "200", "--seed", "7")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_report_file(self, capsys, tmp_path):
        path = tmp_path / "rep.json"
        rc, _, _ = run_cli(capsys, "verify", "identities", "--samples", "100",
                           "--report", str(path))
        assert rc == 0
        data = json.loads(path.read_text())
        assert {d["target"] for d in data} == {
            "std_phi_identity", "thm4_k1_equality", "eq60_phi_4bound",
            "lemma3_corrected"}
        assert all(d["schema"] == "v2" for d in data)

    def test_report_file_byte_identical(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            rc, _, _ = run_cli(capsys, "verify", "identities", "--report", str(path))
            assert rc == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_default_report_is_bounded(self, capsys, tmp_path):
        # every violation is counted, the worst few are kept
        path = tmp_path / "all.json"
        rc, _, _ = run_cli(capsys, "verify", "all", "--report", str(path))
        assert rc == 0
        assert path.stat().st_size <= 64 * 1024
        data = json.loads(path.read_text())
        assert all(len(d["violations"]) <= gft.verify.MAX_VIOLATIONS for d in data)
        counts = {d["target"]: d["violation_count"] for d in data}
        assert counts["eq5_chain"] == 9271 and counts["lemma3_literal"] == 882

    def test_default_report_bytes_are_pinned(self, capsys, tmp_path):
        # every target at the default spec, sampled ones over 10 blocks;
        # the version string is part of the bytes
        path = tmp_path / "all.json"
        rc, _, _ = run_cli(capsys, "verify", "all", "--report", str(path))
        assert rc == 0
        data = path.read_bytes()
        assert len(data) == 41_040
        assert hashlib.sha256(data).hexdigest() == (
            "3ca2a5a52573baa84df47224686235f454b3ed6fd79e1fed450721b36c424dbe")

    def test_relative_report_path_resolves_against_the_working_directory(
            self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc, out, _ = run_cli(capsys, "verify", "sanity", "--samples", "100",
                             "--report", "rep.json", "--format", "json")
        assert rc == 2
        assert json.loads((tmp_path / "rep.json").read_text()) == json.loads(out)

    @pytest.mark.parametrize("where", ["missing_dir/rep.json", "."])
    def test_unwritable_report_path_exit_1(self, capsys, tmp_path, where):
        # a missing directory, and a path that is a directory
        path = tmp_path / where
        rc, out, err = run_cli(capsys, "verify", "identities", "--report", str(path))
        assert rc == 1
        assert out == ""
        assert err.startswith(f"error: cannot write report {path}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("where, code", [("missing_dir/rep.json", errno.ENOENT),
                                             (".", errno.EISDIR)], ids=["missing", "directory"])
    def test_unwritable_report_path_is_seen_before_the_run(self, capsys, tmp_path,
                                                           monkeypatch, where, code):
        def no_run(*args, **kwargs):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(gft.verify, "run_suite", no_run)
        path = tmp_path / where
        rc, out, err = run_cli(capsys, "verify", "all", "--report", str(path))
        assert (rc, out) == (1, "")
        assert err == f"error: cannot write report {path}: {os.strerror(code)}\n"
        assert not (tmp_path / "missing_dir").exists()

    @pytest.mark.parametrize("where, code", [("", errno.ENOENT),
                                             ("{file}/rep.json", errno.ENOTDIR),
                                             ("{file}/sub/rep.json", errno.ENOTDIR)],
                             ids=["empty", "file", "below-file"])
    def test_report_path_that_open_refuses_is_seen_before_the_run(
            self, capsys, tmp_path, monkeypatch, where, code):
        # the empty path and a path through a regular file, with the reason
        # open() itself gives
        monkeypatch.setattr(gft.verify, "run_suite", None)
        file = tmp_path / "file"
        file.write_text("")
        path = where.format(file=file)
        with pytest.raises(OSError) as refused:
            open(path, "w")
        assert refused.value.errno == code
        rc, out, err = run_cli(capsys, "verify", "all", "--report", path)
        assert (rc, out) == (1, "")
        assert err == f"error: cannot write report {path}: {os.strerror(code)}\n"

    @pytest.mark.parametrize("where", ["out.json/", "out.json//", "file/"])
    def test_report_path_ending_in_a_separator_is_a_directory(
            self, capsys, tmp_path, monkeypatch, where):
        # a trailing separator names a directory, which open() refuses with
        # EISDIR whether or not the path exists as a file; nothing is created
        monkeypatch.setattr(gft.verify, "run_suite", None)
        (tmp_path / "file").write_text("")
        path = f"{tmp_path}{os.sep}{where}"
        with pytest.raises(OSError) as refused:
            open(path, "w")
        assert refused.value.errno == errno.EISDIR
        rc, out, err = run_cli(capsys, "verify", "all", "--report", path)
        assert (rc, out) == (1, "")
        assert err == f"error: cannot write report {path}: {os.strerror(errno.EISDIR)}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["file"]

    def test_report_write_failure_after_the_run_exit_1(self, capsys, tmp_path, monkeypatch):
        # what the check before the run cannot see, e.g. a full disk
        def full(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(json, "dump", full)
        path = tmp_path / "rep.json"
        rc, out, err = run_cli(capsys, "verify", "identities", "--samples", "5",
                               "--report", str(path))
        assert (rc, out) == (1, "")
        assert err == f"error: cannot write report {path}: {os.strerror(errno.ENOSPC)}\n"

    @pytest.mark.parametrize("argv", [("eval", "landau_constant"), ("verify", "identities")],
                             ids=["eval", "verify"])
    def test_csv_is_refused_where_the_output_is_not_rows(self, capsys, monkeypatch, argv):
        # csv is for table and constants; eval and verify printed text for it
        monkeypatch.setattr(gft.verify, "run_suite", None)
        rc, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert (rc, out) == (1, "")
        assert err.startswith("error: format 'csv' is taken by table and constants only\n")
        assert "csv for table and constants only" in err


class TestConstants:
    def test_text(self, capsys):
        rc, out, _ = run_cli(capsys, "constants")
        assert rc == 0
        assert "landau" in out and "lattice_gap_d" in out

    def test_json(self, capsys):
        rc, out, _ = run_cli(capsys, "constants", "--format", "json")
        assert rc == 0
        data = json.loads(out)
        assert data["landau"] == pytest.approx(4.3768792304529533, rel=1e-14)
        assert data["14_zeta3"] == pytest.approx(16.828796644234320, rel=1e-14)


class TestTopLevel:
    def test_no_args_exit_1(self, capsys):
        rc, out, _ = run_cli(capsys)
        assert rc == 1
        assert "usage" in out

    def test_help_exit_0(self, capsys):
        rc, out, _ = run_cli(capsys, "--help")
        assert rc == 0
        assert "verify" in out

    @pytest.mark.parametrize("cmd", ["eval", "table", "verify", "constants"])
    @pytest.mark.parametrize("flag", ["--help", "-h"])
    def test_subcommand_help_exit_0(self, capsys, monkeypatch, cmd, flag):
        # the usage, as for gft --help, wherever the flag stands; nothing runs
        monkeypatch.setattr(gft.verify, "run_suite", None)
        usage = run_cli(capsys, "--help")[1]
        for argv in ((cmd, flag), (cmd, "phi_k", "--k", "2", flag)):
            assert run_cli(capsys, *argv) == (0, usage, "")

    def test_unknown_command_exit_1(self, capsys):
        rc, _, err = run_cli(capsys, "frobnicate")
        assert rc == 1
        assert "unknown command" in err

    def test_version_matches_pyproject(self):
        # pyproject.toml reads its version from gft.__version__; resolve it
        # the way a build does
        from setuptools.config.pyprojecttoml import read_configuration
        pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # setuptools flags [project] as beta
            meta = read_configuration(pyproject, expand=True)
        assert meta["project"]["version"] == gft.__version__ == "0.1.0"

    def test_each_public_name_is_declared_once(self):
        # each module lists its public names in its own __all__; gft joins the
        # five lists, and its source spells out no name
        modules = (gft.special, gft.modulus, gft.distortion, gft.bounds, gft.verify)
        assert gft.__all__ == [name for module in modules for name in module.__all__]
        assert len(set(gft.__all__)) == len(gft.__all__) == 58
        tree = ast.parse(pathlib.Path(gft.__file__).read_text())
        strings = [node.value for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)]
        assert strings == [gft.__doc__, gft.__version__]

    def test_registry_holds_the_library_functions(self):
        # every function the kernel modules export, and flags come from each
        # one's own signature, with no adapter between
        kernels = (gft.special, gft.modulus, gft.distortion, gft.bounds)
        assert set(FUNCTIONS) == {name for module in kernels for name in module.__all__
                                  if isinstance(getattr(module, name), types.FunctionType)}
        for name, fn in FUNCTIONS.items():
            assert fn is getattr(gft, name), name

    def test_all_lists_the_public_names(self):
        public = {name for name, value in vars(gft).items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType)}
        assert set(gft.__all__) == public
        assert len(gft.__all__) == len(public)

    def test_every_public_callable_has_a_docstring(self):
        for name in gft.__all__:
            value = getattr(gft, name)
            assert not callable(value) or (value.__doc__ or "").strip(), name

    # Every setting of the public API: each defaulted parameter of a callable
    # in gft.__all__, and each SweepSpec field, with the values in use outside
    # the tests that make it a parameter and not a constant.  A new setting
    # is added here with the second value it serves.
    SETTINGS = {
        "f_growth_bound.theta": "an input, |z|; at its default 0 the bound is |F(0)|",
        "mori_holder_bound.variant": "sixteen and sixtyfour, one per mori_radial target",
        "mori_radial_experiment.samples": "acceptance criterion 9 names it, so it stays",
        "mori_radial_experiment.variant": "sixteen and sixtyfour, in acceptance criterion 9",
        "Target.default_tol": "1e-9, eq60_phi_4bound's 1e-12 and thm4_k1_equality's 1e-15",
        "Target.sample": "None on a grid, a Sampler for eq5_chain and the mori_radial pair",
        "Target.k_filter": "None, K > 1 (lemma3) and K >= 1 (the Mori family)",
        "Target.a_filter": "None, and a != 1/2 for the Lemma 2 and eq. 42 targets",
        "Target.sanity": "True for planted_false only, which keeps it out of 'all'",
        "SweepSpec.target": "each registered target",
        "SweepSpec.k_values": "the default, and mori_radial_experiment's (k,)",
        "SweepSpec.seed": "the default, and --seed, which each benchmark run sets",
        "SweepSpec.samples": "10,000, and the 25,000 of the verify_sampled workload",
    }

    def test_every_setting_is_listed(self):
        found = {f"SweepSpec.{field}" for field in gft.SweepSpec._fields}
        for name in gft.__all__:
            value = getattr(gft, name)
            if hasattr(value, "_field_defaults"):      # the NamedTuple records
                found |= {f"{name}.{field}" for field in value._field_defaults}
            elif isinstance(value, types.FunctionType):
                found |= {f"{name}.{p.name}" for p in inspect.signature(value).parameters.values()
                          if p.default is not p.empty}
        assert found == set(self.SETTINGS)

    def test_no_module_reads_the_environment(self):
        # every setting arrives as a SweepSpec field or a flag, none as a knob
        src = pathlib.Path(gft.__file__).resolve().parent
        readers = [p.name for p in sorted(src.glob("*.py"))
                   if "environ" in p.read_text() or "getenv" in p.read_text()]
        assert readers == []

    def test_every_domain_error_names_a_value(self):
        # each raise DomainError(...) message is an f-string that formats at
        # least one value, so the caller sees what was rejected
        src = pathlib.Path(gft.__file__).resolve().parent
        bare = []
        for p in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(p.read_text())):
                if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                        and getattr(node.exc.func, "id", None) == "DomainError"):
                    msg = node.exc.args[0] if node.exc.args else None
                    if not (isinstance(msg, ast.JoinedStr)
                            and any(isinstance(v, ast.FormattedValue) for v in msg.values)):
                        bare.append(f"{p.name}:{node.lineno}")
        assert bare == []

    @staticmethod
    def _fresh_interpreter(code: str) -> str:
        """Standard output of code run by a new interpreter that imports this gft."""
        src = str(pathlib.Path(gft.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True).stdout

    def test_import_leaves_numpy_unloaded(self):
        # The library has no runtime dependency: numpy (~0.15 s and ~11 MB
        # on import) is for the tests only.  Sampling loads BLAKE2b when it
        # starts, not on import.
        code = ("import sys; before = set(sys.modules); import gft, gft.cli; "
                "print(' '.join(sorted(set(sys.modules) - before)))")
        out = self._fresh_interpreter(code).split()
        assert "gft.verify" in out
        for heavy in ("numpy", "hashlib", "_hashlib", "_blake2"):
            assert heavy not in out

    def test_cold_eval_loads_neither_dataclasses_nor_inspect(self):
        # Every `gft` process pays for what it imports.  The records are
        # NamedTuples and flags and axes are read from code objects, so
        # neither dataclasses nor inspect (which loads ast, dis and tokenize,
        # 7-10 ms together) is loaded by importing gft or by an eval
        argv = ["eval", "phi_k", "--k", "2", "--r", "0.25"]
        code = ("import sys; before = set(sys.modules); import gft, gft.cli; "
                f"gft.cli.main({argv!r}); "
                "print(' '.join(sorted(set(sys.modules) - before)))")
        value, loaded = self._fresh_interpreter(code).splitlines()
        [golden] = [e for e in json.loads(GOLDEN_PATH.read_text()) if e["argv"] == argv]
        assert value + "\n" == golden["out"] == "0.8\n"
        assert "gft.cli" in loaded.split()
        assert not {"dataclasses", "inspect", "ast", "dis", "tokenize"} & set(loaded.split())


if __name__ == "__main__":
    record_golden()

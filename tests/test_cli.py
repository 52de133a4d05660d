"""Command-line interface: exit codes, output formats, determinism, and
report-file plumbing.

The golden corpus (GOLDEN_COMMANDS) pins stdout, stderr and the exit code
of every command to tests/cli_golden.json, which
`PYTHONPATH=src python tests/test_cli.py` re-records.  An entry may be
re-recorded only when the library value it prints changed on purpose, and
CHANGES.md then lists it.
"""
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import gft
from gft.cli import FUNCTIONS, main


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
    ("eval", "euler_gamma"),
    ("eval", "ramanujan_R", "--a", "0.25"),
    ("eval", "landau_constant"),
    ("eval", "apery_zeta3"),
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
    ("eval", "mori_h", "--k", "2", "--alpha", "0.5"),
    ("eval", "mori_sin_bound", "--k", "2", "--alpha", "0.5"),
    ("eval", "mori_sin_bound_clamped", "--k", "2", "--alpha", "1.5"),
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
    ("eval", "euler_gamma", "--x", "1"),
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
    ("table", "euler_gamma", "--steps", "2"),
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
]


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
        (("--theta", "0.5", "--b1", "0.5"), {"theta": 0.5, "bloch_lower": 0.5}),
        (("--d", "3"), {"lattice_gap_d": 3.0}),
        (("--b1", "0.5"), {"bloch_lower": 0.5}),
        (("--theta", "0.25", "--d", "3"), {"theta": 0.25, "lattice_gap_d": 3.0}),
    ])
    def test_eval_growth_bound_matches_library(self, capsys, extra, cfg):
        rc, out, err = run_cli(capsys, "eval", "f_growth_bound", "--f-abs", "1", *extra)
        assert (rc, err) == (0, "")
        expected = gft.f_growth_bound(1.0, gft.BoundConfig(**cfg))
        assert out == f"{expected:.15g}\n"

    def test_table_growth_bound_matches_library(self, capsys):
        rc, out, _ = run_cli(capsys, "table", "f_growth_bound", "--f-abs-min", "0",
                             "--f-abs-max", "1", "--steps", "2", "--b1", "0.5",
                             "--format", "csv")
        assert rc == 0
        rows = list(csv.reader(io.StringIO(out)))
        cfg = gft.BoundConfig(bloch_lower=0.5)
        assert rows == [["f-abs", "f_growth_bound"],
                        ["0", f"{gft.f_growth_bound(0.0, cfg):.15g}"],
                        ["1", f"{gft.f_growth_bound(1.0, cfg):.15g}"]]

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
        (("verify", "identities", "--tol", "x"), "--tol"),
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
        grid = gft.verify._param_list(gft.target_info(spec.target), spec)
        assert seen == [p["r"] for p in grid]


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
        assert len(data) == 43_613
        assert hashlib.sha256(data).hexdigest() == (
            "5e9b0c9bc8e3f4b32ae611d6a2924987da513b4c885b30ccff0dc8f967312ce5")

    def test_report_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("GFT_REPORT_DIR", str(tmp_path))
        rc, _, _ = run_cli(capsys, "verify", "sanity", "--samples", "100",
                           "--report", "rep.json")
        assert rc == 2
        assert (tmp_path / "rep.json").exists()


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

    def test_unknown_command_exit_1(self, capsys):
        rc, _, err = run_cli(capsys, "frobnicate")
        assert rc == 1
        assert "unknown command" in err

    def test_version_matches_pyproject(self):
        tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
        pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            meta = tomllib.load(fh)
        assert gft.__version__ == meta["project"]["version"]

    def test_import_leaves_numpy_unloaded(self):
        # The library has no runtime dependency: numpy (~0.15 s and ~11 MB
        # on import) is for the tests only.  Sampling loads BLAKE2b when it
        # starts, not on import.
        code = ("import sys; before = set(sys.modules); import gft, gft.cli; "
                "print(' '.join(sorted(set(sys.modules) - before)))")
        src = str(pathlib.Path(gft.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        assert "gft.verify" in out
        for heavy in ("numpy", "hashlib", "_hashlib", "_blake2"):
            assert heavy not in out


if __name__ == "__main__":
    record_golden()

"""Command-line interface: exit codes, output formats, determinism, and
report-file plumbing.
"""
import csv
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import gft
from gft.cli import main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


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
        assert all(d["schema"] == "v1" for d in data)

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
        # numpy costs ~0.15 s and ~11 MB on import; only derive_lattice_gap
        # needs it.  Sampling loads BLAKE2b when it starts, not on import.
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

import argparse
import csv
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from wormchain import cli, estimators
from wormchain.cli import main
from wormchain.estimators import (estimate_tangent_correlation, run_ensemble,
                                  tangent_dot_observable, write_reports_csv)
from wormchain.kp import KpConfig


def run_cli(*args):
    return main([str(a) for a in args])


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestSimulateFrc:
    def test_single_bond_chain(self, tmp_path):
        out = tmp_path / "c.csv"
        code = run_cli("simulate-frc", "--n-bonds", 1, "--contour-length", 1,
                       "--kappa", 1, "--seed", 7, "--out", out)
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 2
        last = rows[-1]
        assert (float(last["x"]), float(last["y"]), float(last["z"])) == (0.0, 0.0, 1.0)

    def test_missing_seed_is_usage_error(self, tmp_path):
        code = run_cli("simulate-frc", "--n-bonds", 4, "--contour-length", 1,
                       "--kappa", 1, "--out", tmp_path / "c.csv")
        assert code == 2

    def test_mode_flags_are_exclusive(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run_cli("simulate-frc", "--n-bonds", 4, "--seed", 1, "--out", out) == 2
        assert run_cli("simulate-frc", "--n-bonds", 4, "--bond-length", 0.1,
                       "--bond-angle", 0.3, "--contour-length", 1, "--kappa", 1,
                       "--seed", 1, "--out", out) == 2

    def test_zero_bond_angle_rejected(self, tmp_path):
        code = run_cli("simulate-frc", "--n-bonds", 4, "--bond-length", 0.1,
                       "--bond-angle", 0.0, "--seed", 1, "--out", tmp_path / "c.csv")
        assert code == 2

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("simulate-frc", "--n-bonds", 64, "--contour-length", 1,
                "--kappa", 1.4, "--seed", 99)
        assert run_cli(*args, "--out", a) == 0
        assert run_cli(*args, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_out_is_io_error(self, tmp_path):
        code = run_cli("simulate-frc", "--n-bonds", 2, "--contour-length", 1,
                       "--kappa", 1, "--seed", 1, "--out", tmp_path / "no" / "dir" / "c.csv")
        assert code == 1


class TestSimulateKp:
    def test_first_row_is_north_pole(self, tmp_path):
        out = tmp_path / "p.csv"
        code = run_cli("simulate-kp", "--contour-length", 1, "--ell-p", 1,
                       "--n-steps", 100, "--seed", 3, "--out", out)
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 101
        first = rows[0]
        assert float(first["s"]) == 0.0
        assert (float(first["Qx"]), float(first["Qy"]), float(first["Qz"])) == (0.0, 0.0, 1.0)
        assert (float(first["Rx"]), float(first["Ry"]), float(first["Rz"])) == (0.0, 0.0, 0.0)

    def test_tangents_are_unit_in_file(self, tmp_path):
        out = tmp_path / "p.csv"
        run_cli("simulate-kp", "--contour-length", 1, "--ell-p", 0.5,
                "--n-steps", 200, "--seed", 4, "--out", out)
        for row in read_rows(out):
            q = np.array([float(row["Qx"]), float(row["Qy"]), float(row["Qz"])])
            assert abs(np.linalg.norm(q) - 1.0) <= 1e-10

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("simulate-kp", "--contour-length", 1, "--ell-p", 1, "--n-steps", 50, "--seed", 11)
        assert run_cli(*args, "--out", a) == 0
        assert run_cli(*args, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_default_steps_applied(self, tmp_path):
        out = tmp_path / "p.csv"
        run_cli("simulate-kp", "--contour-length", 1, "--ell-p", 100, "--seed", 5, "--out", out)
        assert len(out.read_text().splitlines()) == 1002  # header + 1001 grid rows


class TestVerify:
    def test_correlation_suite_passes_and_reports_oracle(self, tmp_path):
        code = run_cli("verify", "--suite", "correlation", "--ell-p", 1,
                       "--contour-length", 1, "--n-steps", 250, "--n-paths", 800,
                       "--seed", 42, "--out-dir", tmp_path)
        assert code == 0
        rows = read_rows(tmp_path / "report-correlation.csv")
        assert len(rows) == 3
        last = next(r for r in rows if float(r["t"]) == 1.0)
        assert float(last["oracle"]) == pytest.approx(math.exp(-2.0), abs=1e-12)
        assert all(r["pass"] == "True" for r in rows)
        summary = json.loads((tmp_path / "report-correlation.json").read_text())
        assert summary["seed"] == 42
        assert summary["n_paths"] == 800
        assert len(summary["reports"]) == 3
        assert summary["wall_time_s"] > 0

    def test_unknown_suite_is_usage_error(self, tmp_path):
        assert run_cli("verify", "--suite", "nope", "--seed", 1, "--out-dir", tmp_path) == 2

    def test_seed_required(self, tmp_path):
        assert run_cli("verify", "--suite", "correlation", "--out-dir", tmp_path) == 2

    def test_hard_rod_suite_is_red(self, tmp_path):
        # the transverse-variance oracle 2 s^3/3 follows from the
        # exp(-2|t-s|/ell_p) correlation convention, so the suite passes and
        # reports both transverse rows; see README "Hard-rod limit"
        code = run_cli("verify", "--suite", "hard-rod", "--n-paths", 400,
                       "--n-steps", 200, "--grid-points", 1, "--seed", 10,
                       "--out-dir", tmp_path)
        assert code == 0
        rows = read_rows(tmp_path / "report-hard-rod.csv")
        for prefix in ("rodvar1", "rodvar2"):
            assert any(r["observable"].startswith(prefix) for r in rows)
        assert all(r["pass"] == "True" for r in rows)

    def test_collapsed_grid_points_report_each_row_once(self, tmp_path):
        run_cli("verify", "--suite", "hard-rod", "--n-steps", 10, "--grid-points", 16,
                "--n-paths", 200, "--seed", 4, "--out-dir", tmp_path)
        names = [r["observable"] for r in read_rows(tmp_path / "report-hard-rod.csv")]
        assert len(names) == len(set(names)) == 3 * 10 + 1

    def test_empty_grid_is_usage_error(self, tmp_path):
        # with no grid points only the sup row would remain, and that must
        # not read as a pass
        code = run_cli("verify", "--suite", "hard-rod", "--grid-points", 0,
                       "--seed", 42, "--out-dir", tmp_path)
        assert code == 2
        assert not (tmp_path / "report-hard-rod.csv").exists()

    def test_random_coil_suite_passes(self, tmp_path):
        code = run_cli("verify", "--suite", "random-coil", "--ell-p", 0.01,
                       "--n-paths", 500, "--grid-points", 2, "--seed", 12,
                       "--out-dir", tmp_path)
        assert code == 0

    def test_converge_suite_small(self, tmp_path):
        code = run_cli("verify", "--suite", "converge", "--n-list", "8,32",
                       "--n-paths", 400, "--seed", 13, "--out-dir", tmp_path)
        assert code == 0
        rows = read_rows(tmp_path / "report-converge.csv")
        assert any(r["observable"].startswith("kp-gap-corr[N=8") for r in rows)
        assert any(r["observable"].startswith("gap-monotone") for r in rows)

    @pytest.mark.parametrize("suite, args, budget", [
        ("correlation", ("--n-steps", 200, "--n-paths", 600, "--seed", 21), None),
        # one group per N: a budget of 31 * 150 doubles puts N = 8 (7 doubles
        # a chain) in 1 chunk and N = 32 (31 doubles) in 3, of 150, 150 and
        # 100 paths
        ("converge", ("--n-list", "8,32", "--n-paths", 400, "--seed", 13), 31 * 150),
    ], ids=["correlation", "converge"])
    def test_worker_count_does_not_change_bytes(self, tmp_path, monkeypatch, suite, args,
                                                budget):
        if budget is not None:
            monkeypatch.setattr(estimators, "_CHUNK_BUDGET", budget)
        dir1, dir8 = tmp_path / "w1", tmp_path / "w8"
        args = ("verify", "--suite", suite, *args)
        assert run_cli(*args, "--workers", 1, "--out-dir", dir1) == 0
        assert run_cli(*args, "--workers", 8, "--out-dir", dir8) == 0
        assert (dir1 / f"report-{suite}.csv").read_bytes() == \
            (dir8 / f"report-{suite}.csv").read_bytes()

    def test_correlation_oracle_near_the_float_range(self, tmp_path):
        # 2|t - s| = 2e308 overflowed, so the row at t = L read oracle 0
        assert run_cli("verify", "--suite", "correlation", "--contour-length", "1e308",
                       "--ell-p", "1e308", "--n-paths", 40, "--n-steps", 10, "--seed", 1,
                       "--out-dir", tmp_path) == 0
        rows = {r["observable"]: r for r in read_rows(tmp_path / "report-correlation.csv")}
        assert rows["qq[k1=0,k2=10]"]["oracle"] == repr(math.exp(-2.0)) == "0.1353352832366127"

    def test_workers_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WORMCHAIN_WORKERS", "2")
        code = run_cli("verify", "--suite", "correlation", "--n-steps", 100,
                       "--n-paths", 200, "--seed", 22, "--out-dir", tmp_path)
        assert code == 0

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# suite parameters\n"
            "ell_p = 1.0\n"
            "contour_length = 1.0\n"
            "n_steps = 150\n"
            "n_paths = 300\n"
            "seed = 30\n")
        out1 = tmp_path / "from-config"
        assert run_cli("verify", "--suite", "correlation", "--config", config,
                       "--out-dir", out1) == 0
        summary = json.loads((out1 / "report-correlation.json").read_text())
        assert summary["config"]["n_paths"] == 300
        out2 = tmp_path / "override"
        assert run_cli("verify", "--suite", "correlation", "--config", config,
                       "--n-paths", 250, "--out-dir", out2) == 0
        summary2 = json.loads((out2 / "report-correlation.json").read_text())
        assert summary2["config"]["n_paths"] == 250

    def test_json_config_roundtrip_reproduces_csv(self, tmp_path):
        first = tmp_path / "first"
        assert run_cli("verify", "--suite", "msd", "--n-steps", 150,
                       "--n-paths", 400, "--seed", 31, "--out-dir", first) == 0
        summary = json.loads((first / "report-msd.json").read_text())
        config = tmp_path / "echo.cfg"
        lines = [f"{key} = {value}" for key, value in summary["config"].items()
                 if value is not None]
        assert "suite = msd" in lines
        config.write_text("\n".join(lines) + "\n")
        second = tmp_path / "second"
        assert run_cli("verify", "--suite", "msd", "--config", config,
                       "--out-dir", second) == 0
        assert (first / "report-msd.csv").read_bytes() == \
            (second / "report-msd.csv").read_bytes()


class TestBadInput:
    """Bad input ends in exit 2 with one message, before any work or warning."""

    def _usage_error(self, capsys, *args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a regime warning would raise here
            code = run_cli(*args)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return err

    def test_suite_parameters_validated_before_regime_warning(self, capsys, tmp_path):
        err = self._usage_error(capsys, "verify", "--suite", "hard-rod", "--ell-p", -1,
                                "--seed", 42, "--out-dir", tmp_path)
        assert "ell_p must be positive" in err
        err = self._usage_error(capsys, "verify", "--suite", "random-coil", "--ell-p", 1,
                                "--n-paths", 1, "--seed", 42, "--out-dir", tmp_path)
        assert "n_paths" in err

    def test_random_coil_grid_must_resolve_ell_p(self, capsys, tmp_path):
        # h = 5 ell_p: the coil rows would fail at z of +15 on both attempts
        err = self._usage_error(capsys, "verify", "--suite", "random-coil", "--n-paths", 300,
                                "--n-steps", 200, "--seed", 3, "--out-dir", tmp_path)
        assert "h <= ell_p/10" in err and "n_steps >= 10000" in err
        assert not (tmp_path / "report-random-coil.csv").exists()

    def test_suite_all_keeps_reports_of_suites_already_run(self, capsys, tmp_path):
        # random-coil runs last and rejects the shared 200-step grid
        self._usage_error(capsys, "verify", "--suite", "all", "--n-paths", 100,
                          "--n-steps", 200, "--n-list", "8,32", "--grid-points", 1,
                          "--seed", 3, "--out-dir", tmp_path)
        for suite in ("correlation", "msd", "converge", "hard-rod"):
            assert (tmp_path / f"report-{suite}.csv").exists()
        assert not (tmp_path / "report-random-coil.csv").exists()

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one(self, capsys, tmp_path, workers):
        err = self._usage_error(capsys, "verify", "--suite", "correlation", "--workers", workers,
                                "--seed", 1, "--out-dir", tmp_path)
        assert "workers" in err
        assert not (tmp_path / "report-correlation.csv").exists()

    def test_workers_is_checked_by_the_library_before_the_regime_warning(self, capsys,
                                                                          tmp_path):
        # the hard-rod suite at ell_p = L would warn about its regime
        err = self._usage_error(capsys, "verify", "--suite", "hard-rod", "--ell-p", 1,
                                "--workers", 0, "--seed", 1, "--out-dir", tmp_path)
        assert err == "error: workers must be a positive integer, got 0\n"
        assert not (tmp_path / "report-hard-rod.csv").exists()

    @pytest.mark.parametrize("value", ["two", "1.5", "0"])
    def test_bad_workers_env(self, capsys, tmp_path, monkeypatch, value):
        monkeypatch.setenv("WORMCHAIN_WORKERS", value)
        err = self._usage_error(capsys, "verify", "--suite", "correlation", "--seed", 1,
                                "--out-dir", tmp_path)
        assert "WORMCHAIN_WORKERS" in err or "workers" in err

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range(self, capsys, tmp_path, seed):
        self._usage_error(capsys, "verify", "--suite", "correlation", "--seed", seed,
                          "--out-dir", tmp_path)
        self._usage_error(capsys, "simulate-kp", "--contour-length", 1, "--ell-p", 1,
                          "--seed", seed, "--out", tmp_path / "p.csv")
        self._usage_error(capsys, "simulate-frc", "--n-bonds", 4, "--contour-length", 1,
                          "--kappa", 1, "--seed", seed, "--out", tmp_path / "c.csv")
        assert not (tmp_path / "p.csv").exists() and not (tmp_path / "c.csv").exists()
        # both diagnostics suites would warn about their regime before sampling
        self._usage_error(capsys, "verify", "--suite", "hard-rod", "--ell-p", 10,
                          "--seed", seed, "--out-dir", tmp_path)
        self._usage_error(capsys, "verify", "--suite", "random-coil", "--ell-p", 0.5,
                          "--n-steps", 50, "--seed", seed, "--out-dir", tmp_path)
        assert not list(tmp_path.glob("report-*"))

    @pytest.mark.parametrize("suite", ["msd", "correlation"])
    def test_arclength_snapping_to_origin(self, capsys, tmp_path, suite):
        # one step: t = L/2 (msd) and s = L/4 (correlation) round to index 0
        err = self._usage_error(capsys, "verify", "--suite", suite, "--n-steps", 1,
                                "--n-paths", 100, "--seed", 1, "--out-dir", tmp_path)
        assert "snaps to grid index 0" in err
        assert not (tmp_path / f"report-{suite}.csv").exists()

    def test_snapping_is_checked_before_regime_warning(self, capsys, tmp_path):
        err = self._usage_error(capsys, "verify", "--suite", "random-coil", "--ell-p", 1,
                                "--n-steps", 3, "--grid-points", 4, "--n-paths", 100,
                                "--seed", 1, "--out-dir", tmp_path)
        assert "snaps to grid index 0" in err

    @pytest.mark.parametrize("suite, args", [
        ("correlation", ("--n-steps", 100)),
        ("msd", ("--n-steps", 100)),
        ("converge", ("--n-list", "8,32")),
        ("hard-rod", ("--ell-p", 10)),                        # would warn: ell_p < 100 L
        ("random-coil", ("--ell-p", 0.5, "--n-steps", 50)),   # would warn: ell_p > L/100
    ])
    def test_too_few_paths_for_z_tests(self, capsys, tmp_path, suite, args):
        # with 3 paths the correlation suite once passed at |z| <= 0.4
        err = self._usage_error(capsys, "verify", "--suite", suite, *args, "--n-paths", 29,
                                "--seed", 1, "--out-dir", tmp_path)
        assert "n_paths must be at least 30, got 29" in err
        assert not (tmp_path / f"report-{suite}.csv").exists()

    @pytest.mark.parametrize("kappa", [0, 1e-170, 1e-160])
    def test_converge_kappa_needs_a_finite_ell_p(self, capsys, tmp_path, kappa):
        # the suite once divided by kappa**2 before checking kappa: 0 and
        # 1e-170, whose square underflows to 0, raised ZeroDivisionError;
        # 1e-160 gives ell_p = 2L/kappa^2 = inf, which the error must name
        err = self._usage_error(capsys, "verify", "--suite", "converge", "--kappa", kappa,
                                "--n-list", "8,32", "--n-paths", 100, "--seed", 1,
                                "--out-dir", tmp_path)
        assert "kappa" in err
        assert not (tmp_path / "report-converge.csv").exists()

    @pytest.mark.parametrize("threshold", [0, "nan", -1, "inf"])
    @pytest.mark.parametrize("suite, args", [
        ("correlation", ("--n-steps", 100)),
        ("msd", ("--n-steps", 100)),
        ("converge", ("--n-list", "8,32")),
        ("hard-rod", ("--ell-p", 10)),                        # would warn: ell_p < 100 L
        ("random-coil", ("--ell-p", 0.5, "--n-steps", 50)),   # would warn: ell_p > L/100
    ])
    def test_z_threshold_must_be_finite_and_positive(self, capsys, tmp_path, suite, args,
                                                      threshold):
        # 0 once divided by zero in a bound row, nan and -1 failed every row
        # and ran the suite twice, and inf passed every row
        err = self._usage_error(capsys, "verify", "--suite", suite, *args, "--n-paths", 100,
                                "--z-threshold", threshold, "--seed", 1, "--out-dir", tmp_path)
        assert "threshold must be finite and positive" in err
        assert not (tmp_path / f"report-{suite}.csv").exists()

    @pytest.mark.parametrize("args, pair", [
        (("--bond-length", 0.1), "--bond-length and --bond-angle"),
        (("--bond-angle", 0.3), "--bond-length and --bond-angle"),
        (("--contour-length", 1), "--contour-length and --kappa"),
        (("--kappa", 1), "--contour-length and --kappa"),
    ])
    def test_simulate_frc_pair_given_by_half(self, capsys, tmp_path, args, pair):
        err = self._usage_error(capsys, "simulate-frc", "--n-bonds", 4, *args, "--seed", 1,
                                "--out", tmp_path / "c.csv")
        assert f"{pair} must be given together" in err
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("text, message", [
        ("seed = 1\nn_paths 300\n", "run.cfg:2: expected 'key = value', got 'n_paths 300'"),
        ("seed = 1\ncolour = red\n", "unknown config key 'colour'"),
        ("seed = 1\nn-paths = many\n", "bad value for config key 'n_paths': 'many'"),
        ("seed = 1\nell_p = 1/2\n", "bad value for config key 'ell_p': '1/2'"),
    ], ids=["no-equals", "unknown-key", "bad-int", "bad-float"])
    def test_bad_config_line(self, capsys, tmp_path, text, message):
        config = tmp_path / "run.cfg"
        config.write_text(text)
        err = self._usage_error(capsys, "verify", "--suite", "correlation", "--config", config,
                                "--out-dir", tmp_path)
        assert message in err
        assert not list(tmp_path.glob("report-*"))

    @pytest.mark.parametrize("n_list", ["8,x", "8.5,16", ",", ""])
    def test_unparsable_n_list(self, capsys, tmp_path, n_list):
        err = self._usage_error(capsys, "verify", "--suite", "converge", "--n-list", n_list,
                                "--n-paths", 30, "--seed", 1, "--out-dir", tmp_path)
        assert err == f"error: bad --n-list {n_list!r}\n"
        assert not list(tmp_path.glob("report-*"))

    @pytest.mark.parametrize("n_list", ["8,8", "32,8", "1,8"])
    def test_n_list_must_strictly_increase(self, capsys, tmp_path, n_list):
        # 8,8 once wrote each N = 8 row twice, and 32,8 checked the gaps
        # in the wrong direction
        err = self._usage_error(capsys, "verify", "--suite", "converge", "--n-list", n_list,
                                "--n-paths", 30, "--seed", 1, "--out-dir", tmp_path)
        ladder = n_list.replace(",", ", ")
        assert err == f"error: n_list must strictly increase from N >= 2, got [{ladder}]\n"
        assert not list(tmp_path.glob("report-*"))

    def test_config_file_that_is_not_utf8(self, capsys, tmp_path):
        # once a UnicodeDecodeError traceback and exit 1
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"\xff\xfe")
        err = self._usage_error(capsys, "verify", "--suite", "msd", "--config", config,
                                "--seed", 1, "--out-dir", tmp_path)
        assert err.startswith(f"error: {config}: ") and "decode" in err
        assert not list(tmp_path.glob("report-*"))

    @pytest.mark.parametrize("command", [
        ("simulate-kp", "--contour-length", 1, "--out", "kp.csv"),
        ("verify", "--suite", "msd", "--n-paths", 40, "--out-dir", "."),
    ], ids=lambda c: c[0])
    def test_ell_p_whose_step_scale_overflows(self, capsys, tmp_path, monkeypatch, command):
        # sqrt(2/ell_p) is inf below about 1.11e-308: with an explicit grid
        # the run once wrote rows of nan and exited 0
        monkeypatch.chdir(tmp_path)
        err = self._usage_error(capsys, *command, "--ell-p", "1e-320", "--n-steps", 10,
                                "--seed", 1)
        assert err == ("error: ell_p = 1e-320 is too small: "
                       "the step scale sqrt(2/ell_p) overflows\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("args, form", [
        (("converge", "--contour-length", "1e300", "--n-list", "10,20"), "frc_msd_oracle"),
        (("msd", "--contour-length", "1e308", "--ell-p", "1e308", "--n-steps", 10),
         "kp_mean_sq_position"),
        (("hard-rod", "--contour-length", "1e300", "--ell-p", "1e305", "--n-steps", 10,
          "--grid-points", 1), "hard_rod_fluctuation_cov"),
    ], ids=["converge", "msd", "hard-rod"])
    def test_closed_form_that_overflows(self, capsys, tmp_path, args, form):
        # an OverflowError traceback (converge), or oracle=nan or inf and a
        # rerun that could not pass (msd, hard-rod)
        err = self._usage_error(capsys, "verify", "--suite", *args, "--n-paths", 40,
                                "--seed", 1, "--out-dir", tmp_path)
        assert err.startswith(f"error: {form}(") and "overflows" in err
        assert not list(tmp_path.iterdir())

    def test_negative_seed_in_config_file(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("seed = -5\n")
        self._usage_error(capsys, "verify", "--suite", "correlation", "--config", config,
                          "--out-dir", tmp_path)

    @pytest.mark.parametrize("flag, value, name", [
        ("--ell-p", 0, "ell_p"),      # once ZeroDivisionError in the default grid
        ("--ell-p", "nan", "ell_p"),  # once "cannot convert float NaN to integer"
        ("--ell-p", "inf", "ell_p"),
        ("--contour-length", "inf", "contour_length"),  # once OverflowError
    ])
    @pytest.mark.parametrize("command", [
        ("simulate-kp", "--contour-length", 1, "--ell-p", 1),
        ("verify", "--suite", "correlation"),
        ("verify", "--suite", "msd"),
        ("verify", "--suite", "hard-rod"),
        ("verify", "--suite", "random-coil"),
    ], ids=lambda c: c[-1] if c[0] == "verify" else c[0])
    def test_lengths_must_be_finite_and_positive(self, capsys, tmp_path, command, flag,
                                                 value, name):
        out = ("--out", tmp_path / "p.csv") if command[0] == "simulate-kp" else (
            "--n-paths", 30, "--out-dir", tmp_path)
        err = self._usage_error(capsys, *command, flag, value, "--seed", 1, *out)
        assert f"{name} must be positive" in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("args, cause, count", [
        (("--ell-p", "1e-300"), "ell_p = 1e-300", "1.000e+302"),  # numpy's dimension error
        (("--ell-p", "1e-310"), "ell_p = 1e-310", "Infinity"),    # 100 L/ell_p overflows
        (("--ell-p", 1, "--n-steps", 10**20), "n_steps", "1.000e+20"),
    ])
    def test_grid_beyond_numpy_index_range(self, capsys, tmp_path, args, cause, count):
        err = self._usage_error(capsys, "simulate-kp", "--contour-length", 1, *args,
                                "--seed", 1, "--out", tmp_path / "p.csv")
        assert err.startswith(f"error: {cause} asks for {count} steps") and "2**58" in err
        assert not (tmp_path / "p.csv").exists()

    def test_counts_beyond_numpy_index_range(self, capsys, tmp_path):
        # the coil suite's n_steps hint once took math.ceil of inf; at 2e-308
        # the step scale sqrt(2/ell_p) is finite but 10 L/ell_p is not
        err = self._usage_error(capsys, "verify", "--suite", "random-coil", "--ell-p", 2e-308,
                                "--n-steps", 1000, "--n-paths", 30, "--seed", 1,
                                "--out-dir", tmp_path)
        assert "ell_p = 2e-308" in err and "Infinity steps" in err
        err = self._usage_error(capsys, "simulate-frc", "--n-bonds", 10**400, "--contour-length",
                                1, "--kappa", 1, "--seed", 1, "--out", tmp_path / "c.csv")
        assert "n_bonds asks for 1.000e+400 steps" in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command, sampler", [
        (("simulate-frc", "--n-bonds", 4, "--contour-length", 1, "--kappa", 1), "sample_frc"),
        (("simulate-kp", "--contour-length", 1, "--ell-p", 1), "simulate_kp"),
    ], ids=["simulate-frc", "simulate-kp"])
    def test_value_error_from_a_sampler(self, capsys, tmp_path, monkeypatch, command, sampler):
        # main alone turns a ValueError into exit 2, wherever it is raised
        def boom(cfg, rng):
            raise ValueError("boom")

        monkeypatch.setattr(f"wormchain.cli.{sampler}", boom)
        err = self._usage_error(capsys, *command, "--seed", 1, "--out", tmp_path / "out.csv")
        assert err == "error: boom\n"
        assert not (tmp_path / "out.csv").exists()

    def test_out_of_memory_is_one_error_line(self, capsys, tmp_path, monkeypatch):
        # stands in for a grid that fits numpy's index range but not memory,
        # such as --ell-p 1e-12 (1e14 steps); no test allocates one
        def no_memory(cfg, rng):
            raise MemoryError("Unable to allocate 1.42 PiB for an array")

        monkeypatch.setattr("wormchain.cli.simulate_kp", no_memory)
        code = run_cli("simulate-kp", "--contour-length", 1, "--ell-p", 1, "--seed", 1,
                       "--out", tmp_path / "p.csv")
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: out of memory: Unable to allocate 1.42 PiB for an array\n"
        assert not (tmp_path / "p.csv").exists()


class TestVerifyFlags:
    # (flag, dest, type, help) of each verify option after --help; a flag
    # without a type reads a string
    FLAGS = [
        ("--suite", "suite", str, None),
        ("--ell-p", "ell_p", float, None),
        ("--contour-length", "contour_length", float, None),
        ("--n-steps", "n_steps", int, None),
        ("--n-paths", "n_paths", int, None),
        ("--seed", "seed", int, None),
        ("--kappa", "kappa", float, None),
        ("--n-list", "n_list", str, "comma-separated chain sizes for the converge suite"),
        ("--grid-points", "grid_points", int, None),
        ("--z-threshold", "z_threshold", float, None),
        ("--workers", "workers", int, "worker processes (default: WORMCHAIN_WORKERS or 1)"),
        ("--out-dir", "out_dir", str, None),
        ("--config", "config", str, "flat key = value file; flags override it"),
    ]

    # one value per parameter, as a flag or a config file would spell it
    TEXTS = {"ell_p": "0.5", "contour_length": "2.0", "n_steps": "120", "n_paths": "40",
             "seed": "9", "kappa": "1.25", "n_list": "8,32", "grid_points": "3",
             "z_threshold": "3.5", "workers": "2"}

    def test_flags_are_pinned(self):
        sub = next(a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        actions = sub.choices["verify"]._actions[1:]  # after -h/--help
        assert [(*a.option_strings, a.dest, a.type or str, a.help) for a in actions] == self.FLAGS
        assert actions[0].choices == ("correlation", "msd", "converge", "hard-rod",
                                      "random-coil", "all")

    @pytest.mark.parametrize("key", sorted(TEXTS))
    def test_flag_and_config_line_resolve_alike(self, tmp_path, key):
        assert set(self.TEXTS) == set(cli._PARAM_TYPES)
        text = self.TEXTS[key]
        base = ["verify", "--suite", "converge"] + ([] if key == "seed" else ["--seed", "1"])
        config = tmp_path / "run.cfg"
        config.write_text(f"{key} = {text}\n")
        parser = cli._build_parser()
        from_flag = cli._resolve_params(
            parser.parse_args(base + ["--" + key.replace("_", "-"), text]), "converge")
        from_file = cli._resolve_params(parser.parse_args(base + ["--config", str(config)]),
                                        "converge")
        assert from_flag == from_file
        value = cli._PARAM_TYPES[key](text)
        assert from_flag[key] == value and type(from_flag[key]) is type(value)


class TestAttempts:
    def test_rerun_keeps_both_attempts(self, tmp_path):
        code = run_cli("verify", "--suite", "correlation", "--n-steps", 250,
                       "--n-paths", 1000, "--seed", 88, "--z-threshold", 0.01,
                       "--out-dir", tmp_path)
        assert code == 3
        summary = json.loads((tmp_path / "report-correlation.json").read_text())
        attempts = summary["attempts"]
        assert [a["seed"] for a in attempts] == [88, 89]
        assert [a["passed"] for a in attempts] == [False, False]
        assert all(a["wall_time_s"] > 0 and len(a["reports"]) == 3 for a in attempts)
        assert attempts[0]["reports"] != attempts[1]["reports"]
        # the top level still describes the deciding attempt
        assert summary["seed"] == 89
        assert summary["reports"] == attempts[1]["reports"]
        assert summary["wall_time_s"] == pytest.approx(
            sum(a["wall_time_s"] for a in attempts))
        rows = list(csv.DictReader(
            (tmp_path / "report-correlation.csv").read_text().splitlines()))
        assert [float(r["estimate"]) for r in rows] == \
            [r["estimate"] for r in attempts[1]["reports"]]

    def test_rerun_of_the_top_seed_wraps_to_zero(self, tmp_path):
        # the library rejects a stream key of 2**64, so the rerun seed wraps
        top = 2**64 - 1
        code = run_cli("verify", "--suite", "correlation", "--n-steps", 20,
                       "--n-paths", 30, "--seed", top, "--z-threshold", 1e-9,
                       "--out-dir", tmp_path)
        assert code == 3
        summary = json.loads((tmp_path / "report-correlation.json").read_text())
        assert [a["seed"] for a in summary["attempts"]] == [top, 0]

    def test_failure_no_seed_can_change_is_not_rerun(self, tmp_path):
        # only the closed-form row gap-monotone-corr[f=0.25] fails, at
        # z = +7.37; a rerun at seed 2 once failed it at the same z
        code = run_cli("verify", "--suite", "converge", "--n-list", "10,20", "--n-paths", 40,
                       "--seed", 1, "--out-dir", tmp_path)
        assert code == 3
        summary = json.loads((tmp_path / "report-converge.json").read_text())
        assert [(a["seed"], a["passed"]) for a in summary["attempts"]] == [(1, False)]
        failed = [r for r in summary["reports"] if not r["pass"]]
        assert [(r["observable"], r["sampled"]) for r in failed] == \
            [("gap-monotone-corr[f=0.25]", False)]

    def test_first_pass_is_the_only_attempt(self, tmp_path):
        assert run_cli("verify", "--suite", "correlation", "--n-steps", 100,
                       "--n-paths", 300, "--seed", 42, "--out-dir", tmp_path) == 0
        summary = json.loads((tmp_path / "report-correlation.json").read_text())
        assert [(a["seed"], a["passed"]) for a in summary["attempts"]] == [(42, True)]
        assert summary["attempts"][0]["reports"] == summary["reports"]


_PLOT_DATA = pathlib.Path(__file__).parent / "data" / "plotdata"
_REPORT_DATA = pathlib.Path(__file__).parent / "data" / "reports"

# The recorded reports were written by an earlier version of the package with
# exactly these arguments; the estimators must keep every row.
_RECORDED_RUNS = {
    "correlation": ("--n-paths", 300, "--n-steps", 200),
    "msd": ("--n-paths", 300, "--n-steps", 200),
    "converge": ("--n-list", "8,32", "--n-paths", 300),
    "hard-rod": ("--n-paths", 300, "--n-steps", 200, "--grid-points", 2),
    "random-coil": ("--ell-p", 0.01, "--n-paths", 300, "--grid-points", 2),
}


class TestRecordedReports:
    @pytest.mark.parametrize("suite", sorted(_RECORDED_RUNS))
    def test_rows_match_recorded_report(self, tmp_path, suite):
        # names, order, arclengths and verdicts exactly; numbers to a relative
        # 1e-9, since vectorized numpy transcendentals may differ across CPUs
        assert run_cli("verify", "--suite", suite, *_RECORDED_RUNS[suite], "--seed", 3,
                       "--out-dir", tmp_path) == 0
        rows = read_rows(tmp_path / f"report-{suite}.csv")
        recorded = read_rows(_REPORT_DATA / f"report-{suite}.csv")
        assert [(r["observable"], r["s"], r["t"], r["pass"]) for r in rows] == \
            [(r["observable"], r["s"], r["t"], r["pass"]) for r in recorded]
        for row, old in zip(rows, recorded):
            for column in ("estimate", "stderr", "oracle"):
                assert float(row[column]) == pytest.approx(float(old[column]), rel=1e-9), \
                    (old["observable"], column)
            # z inherits the relative error of estimate and oracle, scaled
            # up by their size over the stderr
            estimate, stderr, oracle = (float(old[c]) for c in ("estimate", "stderr", "oracle"))
            slack = (abs(estimate) + abs(oracle)) / stderr if stderr > 0 else 0.0
            assert float(row["z"]) == pytest.approx(float(old["z"]), rel=1e-9, abs=1e-9 * slack), \
                old["observable"]


_PATH_DATA = pathlib.Path(__file__).parent / "data" / "paths"

# The recorded paths were written by an earlier version of the package with
# these arguments and seed 31; each scan runs in more than one time segment
# (14 for the continuum path, 12 for the chain).
_RECORDED_PATHS = {
    "kp-path": ("simulate-kp", "--contour-length", 1.0, "--ell-p", 0.5, "--n-steps", 200),
    "frc-chain": ("simulate-frc", "--n-bonds", 150, "--contour-length", 3.0, "--kappa", 2.0),
}


class TestRecordedPaths:
    @pytest.mark.parametrize("name", sorted(_RECORDED_PATHS))
    def test_values_match_recorded_path(self, tmp_path, name):
        # header, row count and empty cells exactly; numbers to a relative
        # 1e-9 of themselves plus their column's largest magnitude, as the
        # recorded reports allow for vectorized transcendentals across CPUs
        out = tmp_path / "path.csv"
        assert run_cli(*_RECORDED_PATHS[name], "--seed", 31, "--out", out) == 0
        new, old = (list(csv.reader(f.read_text().splitlines()))
                    for f in (out, _PATH_DATA / f"{name}.csv"))
        assert new[0] == old[0] and len(new) == len(old)
        assert [[c == "" for c in row] for row in new] == [[c == "" for c in row] for row in old]
        values, recorded = (np.array([[float(c or 0.0) for c in row] for row in rows[1:]])
                            for rows in (new, old))
        scale = np.max(np.abs(recorded), axis=0)
        assert np.all(np.abs(values - recorded) <= 1e-9 * (np.abs(recorded) + scale))


class TestPlotdata:
    @pytest.mark.parametrize("name", ["report-converge", "report-correlation",
                                      "report-hard-rod", "report-msd", "report-random-coil",
                                      "chain", "path"])
    def test_output_is_byte_identical_to_recorded(self, tmp_path, name):
        # the .plot.csv files were written by the earlier whole-file version
        # of plotdata; reading and writing row by row must not change a byte
        out = tmp_path / "plot.csv"
        assert run_cli("plotdata", "--report", _PLOT_DATA / f"{name}.csv", "--out", out) == 0
        assert out.read_bytes() == (_PLOT_DATA / f"{name}.plot.csv").read_bytes()

    def test_out_that_is_the_report_is_rejected(self, capsys, tmp_path):
        # the same file, by name or through a symlink, is never opened for
        # writing: the input stays byte-identical
        source = tmp_path / "p.csv"
        source.write_bytes((_PLOT_DATA / "path.csv").read_bytes())
        link = tmp_path / "link.csv"
        link.symlink_to(source)
        for out in (source, link):
            assert run_cli("plotdata", "--report", source, "--out", out) == 2
            assert "is the --report file" in capsys.readouterr().err
            assert source.read_bytes() == (_PLOT_DATA / "path.csv").read_bytes()

    @pytest.fixture()
    def report_csv(self, tmp_path):
        run_cli("verify", "--suite", "correlation", "--n-steps", 200,
                "--n-paths", 400, "--seed", 50, "--out-dir", tmp_path)
        return tmp_path / "report-correlation.csv"

    def test_oracle_series_on_grid(self, report_csv, tmp_path):
        out = tmp_path / "plot.csv"
        assert run_cli("plotdata", "--report", report_csv, "--out", out) == 0
        rows = read_rows(out)
        oracle_rows = [r for r in rows if r["series"] == "qq:oracle"]
        assert len(oracle_rows) == 3
        for row in oracle_rows:
            expected = math.exp(-2.0 * float(row["x"]))
            assert float(row["y"]) == pytest.approx(expected, abs=1e-12)

    def test_band_is_two_stderr(self, report_csv, tmp_path):
        source = read_rows(report_csv)
        out = tmp_path / "plot.csv"
        run_cli("plotdata", "--report", report_csv, "--out", out)
        rows = [r for r in read_rows(out) if r["series"] == "qq"]
        assert len(rows) == len(source)
        for plot_row, rep_row in zip(rows, source):
            estimate, stderr = float(rep_row["estimate"]), float(rep_row["stderr"])
            assert float(plot_row["y"]) == estimate
            assert float(plot_row["y_lo"]) == pytest.approx(estimate - 2 * stderr, rel=1e-12)
            assert float(plot_row["y_hi"]) == pytest.approx(estimate + 2 * stderr, rel=1e-12)

    def test_t_sweep_from_a_nonzero_s_plots_along_t(self, tmp_path):
        # s = 0.25 is fixed and t varies, so each row has its own x = t
        cfg = KpConfig(1.0, 1.0, 100)
        t_values = (0.5, 0.75, 1.0)
        summary = run_ensemble(cfg, 16, [tangent_dot_observable(cfg, 0.25, t)
                                         for t in t_values], seed=6)
        report_csv = tmp_path / "report.csv"
        with open(report_csv, "w", encoding="utf-8", newline="") as fh:
            write_reports_csv([estimate_tangent_correlation(summary, 0.25, t)
                               for t in t_values], fh)
        out = tmp_path / "plot.csv"
        assert run_cli("plotdata", "--report", report_csv, "--out", out) == 0
        assert [float(r["x"]) for r in read_rows(out) if r["series"] == "qq"] == list(t_values)

    def test_gap_series_uses_n_axis(self, tmp_path):
        run_cli("verify", "--suite", "converge", "--n-list", "8,32",
                "--n-paths", 300, "--seed", 51, "--out-dir", tmp_path)
        out = tmp_path / "plot.csv"
        assert run_cli("plotdata", "--report", tmp_path / "report-converge.csv",
                       "--out", out) == 0
        rows = read_rows(out)
        gap_rows = [r for r in rows if r["series"].startswith("kp-gap-corr")]
        assert {float(r["x"]) for r in gap_rows} == {8.0, 32.0}
        for row in gap_rows:
            assert row["y"] == row["y_lo"] == row["y_hi"]

    def test_empty_report(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("observable,s,t,estimate,stderr,oracle,z,pass\n")
        out = tmp_path / "plot.csv"
        assert run_cli("plotdata", "--report", empty, "--out", out) == 0
        assert out.read_text() == "series,x,y,y_lo,y_hi\n"

    def test_path_csv_input(self, tmp_path):
        path_csv = tmp_path / "path.csv"
        run_cli("simulate-kp", "--contour-length", 1, "--ell-p", 1,
                "--n-steps", 20, "--seed", 5, "--out", path_csv)
        out = tmp_path / "plot.csv"
        assert run_cli("plotdata", "--report", path_csv, "--out", out) == 0
        rows = read_rows(out)
        assert {r["series"] for r in rows} == {"Qx", "Qy", "Qz", "Rx", "Ry", "Rz"}
        assert sum(r["series"] == "Qz" for r in rows) == 21

    def test_unknown_columns_are_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        out = tmp_path / "out.csv"
        assert run_cli("plotdata", "--report", bad, "--out", out) == 2
        assert "neither a report nor a path CSV" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_number_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("observable,s,t,estimate,stderr,oracle,z,pass\n"
                       "qq[k1=0,k2=5],0.0,0.5,oops,0.1,0.3,0.0,True\n")
        assert run_cli("plotdata", "--report", bad, "--out", tmp_path / "out.csv") == 2
        assert "line 2" in capsys.readouterr().err

    def test_quoted_column_names_keep_their_quoting(self, tmp_path):
        # column names that csv must quote; the expected bytes were written by
        # the csv.writer version of plotdata
        path_csv = tmp_path / "path.csv"
        path_csv.write_text('s,"R,x","say ""hi""","two\nlines",,Qz\n'
                            "0.0,1.0,,2.5,-0.0,5e-324\n"
                            "0.5,1e+300,-1.5,nan,3,inf\n", newline="")
        out = tmp_path / "plot.csv"
        assert run_cli("plotdata", "--report", path_csv, "--out", out) == 0
        assert out.read_bytes() == (
            b'series,x,y,y_lo,y_hi\n"R,x",0.0,1.0,1.0,1.0\n"two\nlines",0.0,2.5,2.5,2.5\n'
            b',0.0,-0.0,-0.0,-0.0\nQz,0.0,5e-324,5e-324,5e-324\n"R,x",0.5,1e+300,1e+300,1e+300\n'
            b'"say ""hi""",0.5,-1.5,-1.5,-1.5\n"two\nlines",0.5,nan,nan,nan\n,0.5,3,3,3\n'
            b'Qz,0.5,inf,inf,inf\n')

    @pytest.mark.parametrize("text, line, message", [
        ("s,Qx,Qy\n0.0,1.0\n0.1,oops,2.0\n", 2, "expected 3 cells, got 2"),
        ("s,Qx,Qy\n0.0,1.0,2.0\n0.1,oops,2.0\n", 3, "'oops'"),
        ("s,Qx,Qy\n0.0,1.0,2.0,3.0\n", 2, "expected 3 cells, got 4"),
        ('n,x\n0,"1.0\n"\n', 2, "line break"),
        ('n,x\n0,"\r1.0"\n', 2, "line break"),
        ('n,x\n\n0,1.0\n1,"2.0\n\n3.0"\n', 4, "line break"),
        ("observable,s,t,estimate,stderr,oracle,z,pass\nqq,0.0,0.5\n", 2, "expected 8 cells"),
        ("s,Qx\n0.0,1_0\n", 2, "'1_0'"),
        ("s,Qx\n0.0,\u0661\u0662\n", 2, "'\u0661\u0662'"),
        ("s,Qx\n0.0,1.0\n0_5,2.0\n", 3, "'0_5'"),
        ("s,Qx\n0.0,1.0\n,2.0\n", 3, "''"),
    ], ids=["short-row", "not-a-number", "long-row", "newline", "carriage-return",
            "after-blank-line", "short-report-row", "underscore", "non-ascii-digits",
            "bad-x-cell", "empty-x-cell"])
    def test_malformed_rows_are_usage_errors(self, tmp_path, capsys, text, line, message):
        # a short row, a cell that is no number, a number holding a line
        # break, a number that float() reads but other CSV readers do not and
        # an empty x were once written through, and a short report row
        # crashed; the error names the line its record starts on
        bad = tmp_path / "bad.csv"
        bad.write_text(text, newline="")
        out = tmp_path / "out.csv"
        assert run_cli("plotdata", "--report", bad, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f"line {line}:" in err and message in err
        assert not out.exists()

    def test_path_of_several_blocks_matches_a_row_by_row_writer(self, tmp_path):
        # 5,001 rows make 30,006 plot lines, written in several blocks; the
        # reference is built one csv.writer row at a time
        path_csv = tmp_path / "path.csv"
        assert run_cli("simulate-kp", "--contour-length", 1, "--ell-p", 1,
                       "--n-steps", 5000, "--seed", 9, "--out", path_csv) == 0
        with open(path_csv, newline="", encoding="utf-8") as fh:
            fields, *rows = csv.reader(fh)
        expected = tmp_path / "expected.csv"
        with open(expected, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["series", "x", "y", "y_lo", "y_hi"])
            for row in rows:
                for name, y in zip(fields[1:], row[1:]):
                    writer.writerow([name, row[0], y, y, y])
        out = tmp_path / "plot.csv"
        assert run_cli("plotdata", "--report", path_csv, "--out", out) == 0
        assert out.read_bytes().count(b"\n") == 1 + 30_006
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("size", [10, 100_000])
    def test_undecodable_input_is_usage_error(self, tmp_path, capsys, size):
        # the text layer decodes a block ahead of the CSV reader: the error
        # once named no line (in the first block) or a line before the byte
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"s,Qx\n" + b"0.5,1.0\n" * size + b"0.1,\xff\n")
        out = tmp_path / "out.csv"
        assert run_cli("plotdata", "--report", bad, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}, line {size + 2}: ") and "decode" in err, err
        assert err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("data, line", [
        (b"observable,s,t,estimate,stderr,oracle,z,pass\n"
         b'"qq[k1=0,k2=5]",0.0,0.5,0.4,0.1,0.3,0.0,True\n'
         b'"qq[k1=0,k2=9]\xff",0.0,0.9,0.4,0.1,0.3,0.0,True\n', 3),
        (b"s,Q\xffx\n0.5,1.0\n", 1),
    ], ids=["report-row", "header"])
    def test_undecodable_byte_names_its_line(self, tmp_path, capsys, data, line):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(data)
        out = tmp_path / "out.csv"
        assert run_cli("plotdata", "--report", bad, "--out", out) == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad}, line {line}: byte 0xff does not decode as UTF-8\n"
        assert not out.exists()

    def test_usage_error_leaves_no_partial_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("observable,s,t,estimate,stderr,oracle,z,pass\n"
                       '"qq[k1=0,k2=5]",0.0,0.5,0.4,0.1,0.3,0.0,True\n'
                       '"qq[k1=0,k2=9]",0.0,0.9,oops,0.1,0.3,0.0,True\n')
        out = tmp_path / "out.csv"
        assert run_cli("plotdata", "--report", bad, "--out", out) == 2
        assert "line 3" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_is_io_error(self, tmp_path):
        assert run_cli("plotdata", "--report", tmp_path / "nope.csv",
                       "--out", tmp_path / "out.csv") == 1


class TestVerifyAllDispatch:
    def test_runs_all_five_suites_and_aggregates(self, tmp_path, monkeypatch):
        import wormchain.cli as cli_mod
        from wormchain.estimators import ComparisonReport

        seen = []

        def fake_run(suite, params, seed):
            seen.append(suite)
            failed = suite == "hard-rod"
            return [ComparisonReport("stub", None, None, 1.0, 1.0,
                                     5.0 if failed else 1.0,
                                     4.0 if failed else 0.0, 4.0, not failed)]

        monkeypatch.setattr(cli_mod, "_run_suite", fake_run)
        code = run_cli("verify", "--suite", "all", "--seed", 1, "--out-dir", tmp_path)
        # hard-rod is attempted twice by the flake policy, then stays red
        assert seen == ["correlation", "msd", "converge", "hard-rod", "hard-rod",
                        "random-coil"]
        assert code == 3
        for suite in ("correlation", "msd", "converge", "hard-rod", "random-coil"):
            assert (tmp_path / f"report-{suite}.csv").exists()
            assert (tmp_path / f"report-{suite}.json").exists()


class TestImports:
    def test_cli_does_not_import_the_process_pool(self):
        # concurrent.futures and multiprocessing cost about 27 ms of every
        # fresh process; only a pooled ensemble run imports them
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        code = "import sys, wormchain.cli; print('concurrent.futures' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        assert done.stdout.strip() == "False"

"""The benchmark's self-test and its per-layer spans, run as part of the
test suite.

``wormbench/selftest.py`` runs small ``wormchain`` calls from ``src/``,
requires the benchmark's output checks to pass on them and to catch
deliberately wrong copies, and removes its work directory.  Running it
here makes an output change that those checks would reject fail the tests,
not only the benchmark.
"""
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    done = subprocess.run([sys.executable, str(ROOT / "wormbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr


def test_traced_single_path_calls_are_counted(tmp_path):
    # wormbench/child.py wraps the samplers and writers where wormchain.cli
    # looks them up; a CLI that bound them before the run would read 0 calls
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    runs = {
        ("simulate-kp", "--contour-length", "1", "--ell-p", "1", "--n-steps", "50",
         "--seed", "1", "--out", "kp.csv"): ("kp.simulate", "kp.csv"),
        ("simulate-frc", "--n-bonds", "50", "--contour-length", "1", "--kappa", "1",
         "--seed", "1", "--out", "frc.csv"): ("chain.sample", "chain.csv"),
        ("plotdata", "--report", "kp.csv", "--out", "kp-plot.csv"): ("cli.plotdata",),
    }
    for args, spans in runs.items():
        sidecar = tmp_path / "sidecar.json"
        done = subprocess.run([sys.executable, str(ROOT / "wormbench" / "child.py"),
                               str(sidecar), "1", *args],
                              cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stdout + done.stderr
        stats = json.loads(sidecar.read_text())["trace"]["stats"]
        assert {name: stats[name]["calls"] for name in spans} == dict.fromkeys(spans, 1)
    # the last run's rows are its plot lines, read back from the file
    plot_lines = (tmp_path / "kp-plot.csv").read_text(encoding="utf-8").splitlines()
    assert stats["cli.plotdata"]["sum"]["rows"] == len(plot_lines) - 1


def test_import_leaves_the_pools_out():
    # concurrent.futures, with the logging it imports, is imported where a
    # helper thread or a process pool starts: at the top level it would
    # add 5.4-6.3 ms (2-CPU Linux, Python 3.11) to every workload's setup_s
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = ("import sys, wormchain, wormchain.cli; "
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"

"""The benchmark's self-test, run as part of the test suite.

``wormbench/selftest.py`` runs small ``wormchain`` calls from ``src/``,
requires the benchmark's output checks to pass on them and to catch
deliberately wrong copies, and removes its work directory.  Running it
here makes an output change that those checks would reject fail the tests,
not only the benchmark.
"""
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    done = subprocess.run([sys.executable, str(ROOT / "wormbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr

"""wormchain benchmark: four workloads through the public CLI.

Usage::

    python3 wormbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run repeats whole rounds of its workload until ``S`` seconds have
passed.  A round is a fixed list of ``wormchain`` CLI calls, each in a fresh
process with ``--workers 1`` and one BLAS thread, on inputs made from
``--seed``.  The first clean round's outputs are checked against values
computed here (``checks.py``); later rounds must write byte-identical
outputs.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A traced run alternates untraced and traced rounds, so it also reports the
tracing overhead.  Every run also writes a result file with the machine and
software versions under ``wormbench/results/``.
"""
import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
CHILD = BENCH / "child.py"

DEADLINE_S = 165.0  # a run ends well inside the 180 s every run must meet
SETUP_PROBES = 6    # import-only processes per run, for a steady set-up median
OVERRUN = 1.25      # rounds stop before a run would pass 1.25 * --seconds
Z = repr(checks.Z_LIMIT)

# --- workload inputs --------------------------------------------------------
# kp-ensemble: two full 4096-wide chunks of 1000 steps.
KP_ENSEMBLE = {"ell_p": 1.0, "contour_length": 1.0, "n_steps": 1000, "n_paths": 8192}
# coil-narrow: ell_p = 1e-3 at 1e5 steps caps chunks at 2^24 / (2 * 1e5) = 83
# paths, so 166 paths are two chunks of 83 driven by the per-step loop.  One
# grid point keeps 10 z-tested rows, which holds the 4-sigma false-alarm
# rate of a 166-path run low (each false alarm fires the one-rerun policy).
COIL_NARROW = {"ell_p": 1.0e-3, "contour_length": 1.0, "n_steps": 100_000,
               "n_paths": 166, "grid_points": 1}
# frc-converge: the chain-to-continuum table; N = 10^4 makes two chunks.
FRC_CONVERGE = {"contour_length": 1.0, "kappa": math.sqrt(2.0),
                "n_list": (100, 1000, 10_000), "n_paths": 2000}
# single-path: one continuum path and one chain, each to CSV, both read back.
# Unit bonds keep the bead coordinates' rounding (~ulp(|R|)) far below the
# 1e-12 relative bond-length tolerance that the CSV check applies.
SINGLE_KP = {"contour_length": 10.0, "ell_p": 1.0, "n_steps": 20_000}
SINGLE_FRC = {"n_bonds": 100_000, "bond_length": 1.0, "bond_angle": 1.0}


@dataclass(frozen=True)
class Op:
    argv: list
    suite: str = ""  # verify suite: its JSON seed must equal the seed asked for


@dataclass(frozen=True)
class Workload:
    ops: object        # (seed, out_dir) -> [Op]
    path_steps: int    # KP grid steps plus FRC bonds integrated per round
    check: object      # out_dir -> [problem]
    outputs: tuple     # files that must be byte-identical in every round


def _verify(suite, seed, out, **params):
    argv = ["verify", "--suite", suite]
    for key, value in params.items():
        text = ",".join(map(str, value)) if isinstance(value, tuple) else repr(value)
        argv += ["--" + key.replace("_", "-"), text]
    argv += ["--seed", str(seed), "--workers", "1", "--z-threshold", Z, "--out-dir", out]
    return Op(argv, suite)


def _single_path_ops(seed, out, kp_path=SINGLE_KP, chain=SINGLE_FRC):
    kp, frc = os.path.join(out, "kp.csv"), os.path.join(out, "frc.csv")
    return [
        Op(["simulate-kp", "--contour-length", repr(kp_path["contour_length"]),
            "--ell-p", repr(kp_path["ell_p"]), "--n-steps", str(kp_path["n_steps"]),
            "--seed", str(seed), "--out", kp]),
        Op(["simulate-frc", "--n-bonds", str(chain["n_bonds"]),
            "--bond-length", repr(chain["bond_length"]),
            "--bond-angle", repr(chain["bond_angle"]),
            "--seed", str(seed), "--out", frc]),
        Op(["plotdata", "--report", kp, "--out", os.path.join(out, "kp-plot.csv")]),
        Op(["plotdata", "--report", frc, "--out", os.path.join(out, "frc-plot.csv")]),
    ]


def _single_path_check(out, kp_path=SINGLE_KP, chain=SINGLE_FRC):
    kp, frc = os.path.join(out, "kp.csv"), os.path.join(out, "frc.csv")
    return (checks.check_kp_path(kp, kp_path["contour_length"], kp_path["n_steps"])
            + checks.check_frc_chain(frc, **chain)
            + checks.check_plotdata(os.path.join(out, "kp-plot.csv"), kp)
            + checks.check_plotdata(os.path.join(out, "frc-plot.csv"), frc))


WORKLOADS = {
    "kp-ensemble": Workload(
        lambda seed, out: [_verify("correlation", seed, out, **KP_ENSEMBLE)],
        KP_ENSEMBLE["n_paths"] * KP_ENSEMBLE["n_steps"],
        lambda out: checks.check_report(out, "correlation", checks.expected_correlation(
            KP_ENSEMBLE["ell_p"], KP_ENSEMBLE["contour_length"], KP_ENSEMBLE["n_steps"])),
        ("report-correlation.csv",)),
    "coil-narrow": Workload(
        lambda seed, out: [_verify("random-coil", seed, out, **COIL_NARROW)],
        COIL_NARROW["n_paths"] * COIL_NARROW["n_steps"],
        lambda out: checks.check_report(out, "random-coil", checks.expected_random_coil(
            COIL_NARROW["ell_p"], COIL_NARROW["contour_length"], COIL_NARROW["n_steps"],
            COIL_NARROW["grid_points"])),
        ("report-random-coil.csv",)),
    "frc-converge": Workload(
        lambda seed, out: [_verify("converge", seed, out, **FRC_CONVERGE)],
        FRC_CONVERGE["n_paths"] * sum(FRC_CONVERGE["n_list"]),
        lambda out: checks.check_report(out, "converge", checks.expected_converge(
            FRC_CONVERGE["contour_length"], FRC_CONVERGE["kappa"], FRC_CONVERGE["n_list"])),
        ("report-converge.csv",)),
    "single-path": Workload(
        _single_path_ops,
        SINGLE_KP["n_steps"] + SINGLE_FRC["n_bonds"],
        _single_path_check,
        ("kp.csv", "frc.csv", "kp-plot.csv", "frc-plot.csv")),
}

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "path_steps_per_s": "path-steps/s",
             "peak_rss_mb": "MB"}

# per-layer metric -> unit; see layer_metrics for how each is derived
LAYER_UNITS = {
    "so3.rodrigues.calls": "count", "so3.rodrigues.s": "s",
    "so3.rodrigues.ns_per_rotation": "ns",
    "so3.mgs.calls": "count", "so3.mgs.s": "s",
    "kp.scan.calls": "count", "kp.scan.path_steps": "count", "kp.scan.mean_width": "paths",
    "kp.scan.self_s": "s", "kp.scan.ns_per_path_step": "ns",
    "chain.scan.calls": "count", "chain.scan.path_bonds": "count",
    "chain.scan.mean_width": "paths", "chain.scan.self_s": "s",
    "chain.scan.ns_per_path_bond": "ns",
    "estimators.chunks": "count", "estimators.chunk.mean_width": "paths",
    "estimators.chunk.draw_mb": "MB", "estimators.streams": "count",
    "estimators.chunk.self_s": "s", "estimators.ensemble.self_s": "s",
    "kp.csv.s": "s", "kp.csv.bytes": "bytes", "chain.csv.s": "s", "chain.csv.bytes": "bytes",
    "cli.plotdata.s": "s", "cli.plotdata.rows": "count", "cli.self_s": "s",
    "trace.overhead_s": "s",
}


# --- processes --------------------------------------------------------------

@dataclass
class Proc:
    setup_s: float
    wall_s: float = 0.0
    rss_mb: float = 0.0
    failed: bool = True
    trace: dict = field(default_factory=dict)


class BenchError(Exception):
    """The benchmark cannot run here; it exits with code 2 and no result."""


def _child_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("WORMCHAIN_WORKERS", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    env.update(PYTHONPATH=str(SRC), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def spawn(argv, traced, work_dir, deadline):
    """Run child.py once; returns its set-up, work wall time and peak RSS."""
    fd, sidecar = tempfile.mkstemp(suffix=".json", dir=work_dir)
    os.close(fd)
    cmd = [sys.executable, str(CHILD), sidecar, "1" if traced else "0", *argv]
    started = time.monotonic()
    try:
        done = subprocess.run(cmd, cwd=work_dir, env=_child_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        print(f"timed out: wormchain {' '.join(argv)}", file=sys.stderr)
        return Proc(setup_s=math.nan)
    try:
        with open(sidecar, encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, ValueError):
        record = None
    finally:
        os.remove(sidecar)
    if record is None:
        if not argv:
            raise BenchError(f"set-up failed: {done.stderr.strip()[-2000:]}")
        print(f"no record from: wormchain {' '.join(argv)}\n{done.stderr[-2000:]}",
              file=sys.stderr)
        return Proc(setup_s=math.nan)
    if not Path(record["wormchain_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"wormchain was imported from {record['wormchain_file']}, not {SRC}")
    proc = Proc(setup_s=record["ready"] - started, rss_mb=record["maxrss_kb"] / 1024.0,
                failed=done.returncode != 0, trace=record.get("trace", {}))
    if argv:
        proc.wall_s = record["end"] - record["ready"]
    if proc.failed:
        print(f"exit {done.returncode}: wormchain {' '.join(argv)}\n{done.stderr[-2000:]}",
              file=sys.stderr)
    return proc


def _reported_seed(out, suite):
    try:
        with open(os.path.join(out, f"report-{suite}.json"), encoding="utf-8") as fh:
            return json.load(fh).get("seed")
    except (OSError, ValueError):
        return None


def _digest(out, names):
    sha = hashlib.sha256()
    for name in names:
        try:
            with open(os.path.join(out, name), "rb") as fh:
                sha.update(fh.read())
        except OSError:
            sha.update(b"<missing>")
    return sha.hexdigest()


@dataclass
class Round:
    traced: bool
    procs: list
    failed: int
    elapsed_s: float  # the round's calls, without the checks that follow them
    digest: str = ""
    problems: list = field(default_factory=list)

    @property
    def wall_s(self):
        return sum(p.wall_s for p in self.procs)

    @property
    def rss_mb(self):
        return max(p.rss_mb for p in self.procs)


def run_round(workload, seed, traced, work_root, deadline, check):
    """One round; outputs of a clean round are hashed, and checked if ``check``."""
    out = tempfile.mkdtemp(dir=work_root)
    started = time.monotonic()
    try:
        procs, failed = [], 0
        for op in workload.ops(seed, out):
            proc = spawn(op.argv, traced, out, deadline)
            if op.suite and not proc.failed and _reported_seed(out, op.suite) != seed:
                # the one-rerun policy fired: the seed asked for failed
                print(f"{op.suite}: report seed is not {seed}; the suite was rerun",
                      file=sys.stderr)
                proc.failed = True
            failed += proc.failed
            procs.append(proc)
        rnd = Round(traced, procs, failed, time.monotonic() - started)
        if not failed:
            rnd.digest = _digest(out, workload.outputs)
            if check:
                rnd.problems = workload.check(out)
        return rnd
    finally:
        shutil.rmtree(out, ignore_errors=True)


# --- metrics ----------------------------------------------------------------

def _empty_stat():
    return {"calls": 0, "s": 0.0, "self_s": 0.0, "sum": {}, "max": {}}


def layer_metrics(stats):
    """Per-layer metrics from the spans of one traced round."""
    def get(name):
        return stats.get(name, _empty_stat())

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    rod, mgs, kp_scan, frc_scan = (get(n) for n in ("so3.rodrigues", "so3.mgs", "kp.scan",
                                                   "chain.scan"))
    chunk, ensemble = get("estimators.chunk"), get("estimators.ensemble")
    kp_csv, frc_csv, plot, cli = (get(n) for n in ("kp.csv", "chain.csv", "cli.plotdata",
                                                  "cli.main"))
    kp_steps = kp_scan["sum"].get("path_steps", 0)
    frc_bonds = frc_scan["sum"].get("path_bonds", 0)
    return {
        "so3.rodrigues.calls": rod["calls"],
        "so3.rodrigues.s": rod["s"],
        "so3.rodrigues.ns_per_rotation": ratio(rod["s"], rod["sum"].get("rotations", 0), 1e9),
        "so3.mgs.calls": mgs["calls"],
        "so3.mgs.s": mgs["s"],
        "kp.scan.calls": kp_scan["calls"],
        "kp.scan.path_steps": kp_steps,
        "kp.scan.mean_width": ratio(kp_scan["sum"].get("width", 0), kp_scan["calls"]),
        "kp.scan.self_s": kp_scan["self_s"],
        "kp.scan.ns_per_path_step": ratio(kp_scan["s"], kp_steps, 1e9),
        "chain.scan.calls": frc_scan["calls"],
        "chain.scan.path_bonds": frc_bonds,
        "chain.scan.mean_width": ratio(frc_scan["sum"].get("width", 0), frc_scan["calls"]),
        "chain.scan.self_s": frc_scan["self_s"],
        "chain.scan.ns_per_path_bond": ratio(frc_scan["s"], frc_bonds, 1e9),
        "estimators.chunks": chunk["calls"],
        "estimators.chunk.mean_width": ratio(chunk["sum"].get("width", 0), chunk["calls"]),
        "estimators.chunk.draw_mb": chunk["max"].get("draw_bytes", 0) / 2**20,
        "estimators.streams": get("estimators.streams")["calls"],
        "estimators.chunk.self_s": chunk["self_s"],
        "estimators.ensemble.self_s": ensemble["self_s"],
        "kp.csv.s": kp_csv["s"],
        "kp.csv.bytes": kp_csv["sum"].get("bytes", 0),
        "chain.csv.s": frc_csv["s"],
        "chain.csv.bytes": frc_csv["sum"].get("bytes", 0),
        "cli.plotdata.s": plot["s"],
        "cli.plotdata.rows": plot["sum"].get("rows", 0),
        "cli.self_s": cli["self_s"],
    }


def _merge_stats(procs):
    """Sum the span statistics of one round's processes."""
    merged = {}
    for proc in procs:
        for name, st in proc.trace.get("stats", {}).items():
            into = merged.setdefault(name, _empty_stat())
            for key in ("calls", "s", "self_s"):
                into[key] += st[key]
            for key, value in st["sum"].items():
                into["sum"][key] = into["sum"].get(key, 0) + value
            for key, value in st["max"].items():
                into["max"][key] = max(into["max"].get(key, 0), value)
    return merged


def _absent_layers(procs):
    """Layers none of whose entry points exist, with the names that are gone."""
    absent = {}
    for proc in procs:
        absent.update(proc.trace.get("absent", {}))
    return absent


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        openblas = "unknown"
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            sha = "unknown (git failed)"
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "openblas": openblas, "git_sha": sha,
            "loadavg": os.getloadavg()}


def run(name, seed, seconds, trace, work_root):
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[name]
    setups = [spawn([], False, work_root, deadline).setup_s for _ in range(SETUP_PROBES)]
    rounds = []
    started = time.monotonic()
    while True:
        traced = trace and len(rounds) % 2 == 1
        checked = any(not r.failed for r in rounds)
        rounds.append(run_round(workload, seed, traced, work_root, deadline, not checked))
        now = time.monotonic()
        if trace and not traced:
            continue  # every untraced round of a traced run gets its traced twin
        # a round that would end past OVERRUN * seconds is not started
        next_end = now + rounds[-1].elapsed_s * (2 if trace else 1)
        if (now - started >= seconds or next_end - started > OVERRUN * seconds
                or next_end > deadline):
            break

    problems = []
    reference = None
    for i, rnd in enumerate(rounds):
        if rnd.failed:
            continue
        if reference is None:
            reference = rnd.digest
            problems += rnd.problems
        elif rnd.digest != reference:
            problems.append(f"round {i + 1}: outputs differ from the first clean round")
    attempted = sum(len(r.procs) for r in rounds)
    failed = sum(r.failed for r in rounds)

    untraced = [r for r in rounds if not r.traced]
    for i, rnd in enumerate(rounds):
        print(f"round {i + 1}{' (traced)' if rnd.traced else ''}: wall {rnd.wall_s:.3f} s, "
              f"peak RSS {rnd.rss_mb:.1f} MB, failed {rnd.failed}/{len(rnd.procs)}")
    wall = statistics.median(r.wall_s for r in untraced)
    if trace:
        traced_rounds = [r for r in rounds if r.traced]
        per_round = [layer_metrics(_merge_stats(r.procs)) for r in traced_rounds]
        values = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        values["trace.overhead_s"] = statistics.median(r.wall_s for r in traced_rounds) - wall
        for layer, names in sorted(_absent_layers(traced_rounds[0].procs).items()):
            print(f"layer absent: {layer} ({', '.join(names)} not found)")
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in LAYER_UNITS.items()}
    else:
        setups += [p.setup_s for r in rounds for p in r.procs]
        setup = statistics.median(s for s in setups if not math.isnan(s))
        values = {
            "setup_s": setup * len(rounds[0].procs),
            "wall_s": wall,
            "path_steps_per_s": workload.path_steps / wall,
            "peak_rss_mb": statistics.median(r.rss_mb for r in untraced),
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in E2E_UNITS.items()}
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}, problems, rounds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "wormchain" / "cli.py").is_file():
        print(f"error: no wormchain sources at {SRC}", file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    env = environment()
    work_root = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=RESULTS)
    try:
        result, problems, rounds = run(args.workload, args.seed, args.seconds,
                                       bool(args.trace), work_root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "problems": problems,
              "rounds": [{"traced": r.traced, "wall_s": r.wall_s, "peak_rss_mb": r.rss_mb,
                          "setup_s": [p.setup_s for p in r.procs], "failed": r.failed}
                         for r in rounds],
              "result": result}
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"environment: {json.dumps(env)}")
    print(f"result file: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

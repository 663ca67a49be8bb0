"""One fresh process of a benchmark round: set up, run one CLI call, report.

Usage::

    python3 child.py SIDECAR TRACE [wormchain CLI arguments ...]

The process imports numpy and ``wormchain.cli`` (its set-up), notes the
monotonic clock, runs ``wormchain.cli.main`` on the given arguments (the
work) and writes a JSON sidecar with the clock readings, the exit code and
the peak resident memory.  With no CLI arguments it only sets up: a set-up
probe.  With ``TRACE`` = 1 it first wraps the entry points of each layer
where the calling module looks them up (see ``SPANS``), and the sidecar also
holds the aggregated spans.  The program's files are never modified.
"""
import sys
import time

import numpy  # noqa: F401  (part of the set-up being timed)
import wormchain.cli

READY = time.monotonic()

import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _rotations(args, kwargs):
    omega = _arg(args, kwargs, 0, "omega")
    return {"rotations": omega.size // omega.shape[-1]}


def _kp_scan_work(args, kwargs):
    paths, n_steps = _arg(args, kwargs, 2, "dbeta").shape[:2]
    return {"width": paths, "path_steps": paths * n_steps}


def _frc_scan_work(args, kwargs):
    paths, n_phis = _arg(args, kwargs, 1, "phis").shape
    return {"width": paths, "path_bonds": paths * (n_phis + 1)}


def _chunk_work(args, kwargs):
    model = _arg(args, kwargs, 0, "model")
    width = _arg(args, kwargs, 4, "stop") - _arg(args, kwargs, 3, "start")
    if hasattr(model, "n_steps"):
        draw_bytes = width * model.n_steps * 2 * 8   # (C, n, 2) normal increments
    else:
        draw_bytes = width * (model.n_bonds - 1) * 8  # (C, N-1) torsions
    return {"width": width, "draw_bytes": draw_bytes}


def _output_file(args, kwargs):
    return {"file": _arg(args, kwargs, 1, "fileobj").name}


def _plot_output(args, kwargs):
    return {"file": _arg(args, kwargs, 0, "args").out}


# (module, attribute the caller looks up, span name, work extractor).
# Every name is wrapped where its caller binds it, so a call through that
# name is timed whichever module defines the function.
SPANS = (
    ("wormchain.kp", "rodrigues_batch", "so3.rodrigues", _rotations),
    ("wormchain.kp", "mgs_orthonormalize_batch", "so3.mgs", None),
    ("wormchain.chain", "mgs_orthonormalize_batch", "so3.mgs", None),
    ("wormchain.estimators", "_kp_scan", "kp.scan", _kp_scan_work),
    ("wormchain.kp", "_kp_scan", "kp.scan", _kp_scan_work),
    ("wormchain.estimators", "_frc_scan", "chain.scan", _frc_scan_work),
    ("wormchain.chain", "_frc_scan", "chain.scan", _frc_scan_work),
    ("wormchain.estimators", "_chunk_values", "estimators.chunk", _chunk_work),
    ("wormchain.estimators", "run_ensemble", "estimators.ensemble", None),
    ("wormchain.cli", "kp_correlation_suite", "estimators.suite", None),
    ("wormchain.cli", "kp_msd_suite", "estimators.suite", None),
    ("wormchain.cli", "convergence_table", "estimators.suite", None),
    ("wormchain.cli", "hard_rod_diagnostics", "estimators.suite", None),
    ("wormchain.cli", "random_coil_diagnostics", "estimators.suite", None),
    ("wormchain.cli", "simulate_kp", "kp.simulate", None),
    ("wormchain.cli", "sample_frc", "chain.sample", None),
    ("wormchain.cli", "write_path_csv", "kp.csv", _output_file),
    ("wormchain.cli", "write_chain_csv", "chain.csv", _output_file),
    ("wormchain.cli", "_cmd_plotdata", "cli.plotdata", _plot_output),
)

# Names whose calls are counted but not timed: a stream is built once per
# path and its draws run in the caller, so timing it would only add cost.
COUNTS = (
    ("wormchain.estimators", "path_rng", "estimators.streams"),
    ("wormchain.cli", "path_rng", "estimators.streams"),
)


class Tracer:
    """Aggregated spans: per name, calls, total and self seconds, work sums.

    Self time is a span's duration minus the durations of the spans that
    ran inside it.  Spans are aggregated as they close, so memory stays flat
    however many calls a run makes.
    """

    def __init__(self):
        self.stack = []
        self.stats = {}
        self.absent = []
        self.files = {}

    def _stat(self, name):
        return self.stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                            "sum": {}, "max": {}})

    def wrap(self, name, fn, work=None):
        stat = self._stat(name)
        stack = self.stack
        files = self.files
        clock = time.perf_counter

        def span(*args, **kwargs):
            if work is not None:
                try:
                    items = work(args, kwargs).items()
                except (IndexError, KeyError, AttributeError, TypeError):
                    # the callee's signature changed: time it, count no work
                    stat["work_unreadable"] = True
                    items = ()
                for key, value in items:
                    if key == "file":
                        files.setdefault(name, []).append(value)
                        continue
                    stat["sum"][key] = stat["sum"].get(key, 0) + value
                    stat["max"][key] = max(stat["max"].get(key, 0), value)
            inner = [0.0]
            stack.append(inner)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                stat["calls"] += 1
                stat["s"] += duration
                stat["self_s"] += duration - inner[0]

        return span

    def count(self, name, fn):
        stat = self._stat(name)

        def counted(*args, **kwargs):
            stat["calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        targets = [(m, a, n, w, False) for m, a, n, w in SPANS]
        targets += [(m, a, n, None, True) for m, a, n in COUNTS]
        for module_name, attr, name, work, count_only in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapped = self.count(name, fn) if count_only else self.wrap(name, fn, work)
            setattr(module, attr, wrapped)

    def report(self):
        # output sizes are read after the work, outside every span
        for name, paths in self.files.items():
            stat = self._stat(name)
            for path in paths:
                try:
                    if name == "cli.plotdata":
                        with open(path, "rb") as fh:
                            key, value = "rows", fh.read().count(b"\n") - 1
                    else:
                        key, value = "bytes", os.path.getsize(path)
                except OSError:
                    continue  # the call failed before writing; it is counted as failed
                stat["sum"][key] = stat["sum"].get(key, 0) + value
        points = {}
        for module_name, attr, name, *_ in (*SPANS, *COUNTS):
            points.setdefault(name, []).append(f"{module_name}.{attr}")
        absent = {name: names for name, names in points.items()
                  if all(n in self.absent for n in names)}
        return {"stats": self.stats, "absent": absent}


def _peak_rss_kb():
    """Peak resident memory of this process image.

    ``VmHWM`` belongs to the memory map made at exec; ``ru_maxrss`` would
    also keep the peak of the benchmark process this one was forked from.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main():
    sidecar, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[3:]
    record = {"ready": READY, "wormchain_file": wormchain.cli.__file__}
    rc = 0
    if argv:
        tracer = Tracer() if trace else None
        run = wormchain.cli.main
        if tracer is not None:
            tracer.install()
            run = tracer.wrap("cli.main", run)
        try:
            rc = run(argv)
        except Exception:
            # a crash is a failed operation, reported like a non-zero exit
            traceback.print_exc()
            rc = 70
        record["end"] = time.monotonic()
        if tracer is not None:
            record["trace"] = tracer.report()
    record["rc"] = rc
    record["maxrss_kb"] = _peak_rss_kb()
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: ``simulate-frc`` (one chain to CSV), ``simulate-kp`` (one
continuum path to CSV), ``verify`` (Monte Carlo suites judged against the
closed forms, with CSV + JSON reports), and ``plotdata`` (tidy long-format
series for external plotting).

Exit codes: 0 success, 1 I/O failure or out of memory, 2 bad input (any
``ValueError``, reported as one ``error:`` line), 3 verification failure.
A failed verify suite is rerun once with ``seed + 1`` (mod 2**64) before
being declared red, so a single 4-sigma statistical flake does not fail CI;
a suite whose failed rows are all unsampled (closed-form rows, which no
seed can change) is not rerun.  The JSON report keeps every attempt (seed,
pass, wall time, rows) under ``attempts``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from .analytics import _CSV_BLOCK_ROWS
from .chain import FrcConfig, sample_frc, write_chain_csv
from .estimators import (
    DEFAULT_Z_THRESHOLD,
    convergence_table,
    hard_rod_diagnostics,
    kp_correlation_suite,
    kp_msd_suite,
    path_rng,
    random_coil_diagnostics,
    reports_to_dicts,
    write_reports_csv,
)
from .kp import KpConfig, simulate_kp, write_path_csv

__all__ = ["main"]

# Per-suite defaults, overridden by a config file and then by explicit flags.
_SUITE_DEFAULTS = {
    "correlation": {"ell_p": 1.0, "contour_length": 1.0, "n_paths": 10000},
    "msd": {"ell_p": 1.0, "contour_length": 1.0, "n_paths": 10000},
    "converge": {"contour_length": 1.0, "kappa": math.sqrt(2.0), "n_paths": 10000,
                 "n_list": "100,1000,10000"},
    "hard-rod": {"ell_p": 1.0e4, "contour_length": 1.0, "n_paths": 10000, "grid_points": 4},
    "random-coil": {"ell_p": 1.0e-3, "contour_length": 1.0, "n_paths": 1000, "grid_points": 4},
}
SUITES = tuple(_SUITE_DEFAULTS)

# verify's parameters, each a --flag and a config-file key, in flag order
_PARAM_TYPES = {
    "ell_p": float,
    "contour_length": float,
    "n_steps": int,
    "n_paths": int,
    "seed": int,
    "kappa": float,
    "n_list": str,
    "grid_points": int,
    "z_threshold": float,
    "workers": int,
}
_PARAM_HELP = {
    "n_list": "comma-separated chain sizes for the converge suite",
    "workers": "worker processes (default: WORMCHAIN_WORKERS or 1)",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wormchain",
        description="Freely rotating chain and wormlike-chain simulation and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    frc = sub.add_parser("simulate-frc", help="sample one discrete chain to CSV")
    frc.add_argument("--n-bonds", type=int, required=True)
    frc.add_argument("--bond-length", type=float)
    frc.add_argument("--bond-angle", type=float, help="radians, in (0, pi)")
    frc.add_argument("--contour-length", type=float)
    frc.add_argument("--kappa", type=float)
    frc.add_argument("--seed", type=int, required=True)
    frc.add_argument("--out", required=True)
    frc.set_defaults(func=_cmd_simulate)

    kp = sub.add_parser("simulate-kp", help="simulate one continuum path to CSV")
    kp.add_argument("--contour-length", type=float, required=True)
    kp.add_argument("--ell-p", type=float, required=True)
    kp.add_argument("--n-steps", type=int)
    kp.add_argument("--seed", type=int, required=True)
    kp.add_argument("--out", required=True)
    kp.set_defaults(func=_cmd_simulate)

    verify = sub.add_parser("verify", help="run Monte Carlo verification suites")
    verify.add_argument("--suite", required=True, choices=SUITES + ("all",))
    for key, kind in _PARAM_TYPES.items():
        verify.add_argument("--" + key.replace("_", "-"), type=kind, help=_PARAM_HELP.get(key))
    verify.add_argument("--out-dir", default=".")
    verify.add_argument("--config", help="flat key = value file; flags override it")
    verify.set_defaults(func=_cmd_verify)

    plot = sub.add_parser("plotdata", help="tidy series (series,x,y,y_lo,y_hi) from a report CSV")
    plot.add_argument("--report", required=True)
    plot.add_argument("--out", required=True)
    plot.set_defaults(func=_cmd_plotdata)

    return parser


def _cmd_simulate(args) -> int:
    if args.command == "simulate-kp":
        cfg = KpConfig.create(args.contour_length, args.ell_p, args.n_steps)
        sample, write = simulate_kp, write_path_csv
    else:
        raw = args.bond_length is not None or args.bond_angle is not None
        scaled = args.contour_length is not None or args.kappa is not None
        if raw == scaled:
            raise ValueError("give either --bond-length with --bond-angle, "
                             "or --contour-length with --kappa")
        if raw:
            if args.bond_length is None or args.bond_angle is None:
                raise ValueError("--bond-length and --bond-angle must be given together")
            cfg = FrcConfig.raw(args.n_bonds, args.bond_length, args.bond_angle)
        else:
            if args.contour_length is None or args.kappa is None:
                raise ValueError("--contour-length and --kappa must be given together")
            cfg = FrcConfig.scaled(args.n_bonds, args.contour_length, args.kappa)
        sample, write = sample_frc, write_chain_csv
    record = sample(cfg, path_rng(args.seed, 0))
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        write(record, fh)
    return 0


def _read_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line.rstrip()!r}")
        key, _, value = text.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _resolve_params(args, suite: str) -> dict:
    params: dict = {"z_threshold": DEFAULT_Z_THRESHOLD, "seed": None, "n_steps": None,
                    "workers": None}
    params.update(_SUITE_DEFAULTS[suite])
    if args.config:
        file_values = _read_config_file(args.config)
        for key, text in file_values.items():
            if key == "suite":
                continue
            if key not in _PARAM_TYPES:
                raise ValueError(f"unknown config key {key!r}")
            try:
                params[key] = _PARAM_TYPES[key](text)
            except ValueError as exc:
                raise ValueError(f"bad value for config key {key!r}: {text!r}") from exc
    for key in _PARAM_TYPES:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            params[key] = flag_value
    if params["seed"] is None:
        raise ValueError("--seed is required (flag or config file)")
    if params["workers"] is None:
        text = os.environ.get("WORMCHAIN_WORKERS", "1")
        try:
            params["workers"] = int(text)
        except ValueError as exc:
            raise ValueError(f"WORMCHAIN_WORKERS must be an integer, got {text!r}") from exc
    if params["workers"] < 1:
        raise ValueError(f"workers must be at least 1, got {params['workers']}")
    return params


def _parse_n_list(text) -> list[int]:
    try:
        values = [int(part) for part in str(text).split(",") if part.strip()]
    except ValueError as exc:
        raise ValueError(f"bad --n-list {text!r}") from exc
    if not values:
        raise ValueError(f"bad --n-list {text!r}")
    return values


def _run_suite(suite: str, params: dict, seed: int):
    workers = params["workers"]
    threshold = params["z_threshold"]
    if suite in ("correlation", "msd"):
        cfg = KpConfig.create(params["contour_length"], params["ell_p"], params["n_steps"])
        run = kp_correlation_suite if suite == "correlation" else kp_msd_suite
        return run(cfg, params["n_paths"], seed, threshold=threshold, workers=workers)
    if suite == "converge":
        return convergence_table(params["contour_length"], params["kappa"],
                                 _parse_n_list(params["n_list"]), params["n_paths"], seed,
                                 threshold=threshold, workers=workers)
    run = hard_rod_diagnostics if suite == "hard-rod" else random_coil_diagnostics
    return run(params["ell_p"], params["contour_length"], params["n_paths"],
               params["grid_points"], seed, n_steps=params["n_steps"],
               threshold=threshold, workers=workers)


def _cmd_verify(args) -> int:
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    all_pass = True
    for suite in suites:
        params = _resolve_params(args, suite)
        attempts = []
        # one-rerun flake policy: a fresh seed decides; two failures = red.
        # The fresh seed is the next one; the top of the key range wraps to 0.
        # A failure that no seed can change (unsampled rows only) is final
        for seed in (params["seed"], (params["seed"] + 1) % (1 << 64)):
            started = time.perf_counter()
            reports = _run_suite(suite, params, seed)
            attempts.append({"seed": seed, "passed": all(r.passed for r in reports),
                             "wall_time_s": time.perf_counter() - started,
                             "reports": reports_to_dicts(reports)})
            if all(r.passed or not r.sampled for r in reports):
                break
        wall = sum(a["wall_time_s"] for a in attempts)

        for report in reports:
            status = "PASS" if report.passed else "FAIL"
            print(f"{status} [{suite}] {report.observable} "
                  f"estimate={report.estimate:.8g} oracle={report.oracle:.8g} "
                  f"z={report.z_score:+.3g}")
        ok = attempts[-1]["passed"]
        all_pass = all_pass and ok
        print(f"suite {suite}: {'PASS' if ok else 'FAIL'} "
              f"({sum(r.passed for r in reports)}/{len(reports)} checks, {wall:.1f}s"
              f"{', reran once' if len(attempts) > 1 else ''})")

        summary = {
            "config": {**params, "suite": suite, "seed": seed},
            "seed": seed,
            "n_paths": params["n_paths"],
            "reports": attempts[-1]["reports"],
            "wall_time_s": wall,
            "attempts": attempts,
        }
        os.makedirs(args.out_dir, exist_ok=True)
        csv_path = os.path.join(args.out_dir, f"report-{suite}.csv")
        json_path = os.path.join(args.out_dir, f"report-{suite}.json")
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            write_reports_csv(reports, fh)
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if all_pass else 3


def _parse_name_params(name: str) -> tuple[str, dict[str, str]]:
    if "[" not in name or not name.endswith("]"):
        return name, {}
    base, _, inner = name.partition("[")
    params: dict[str, str] = {}
    for part in inner[:-1].split(","):
        if "=" in part:
            key, _, value = part.partition("=")
            params[key] = value
    return base, params


_REPORT_COLUMNS = {"observable", "s", "t", "estimate", "stderr", "oracle"}


def _cmd_plotdata(args) -> int:
    """Tidy series (``series,x,y,y_lo,y_hi``) from a report or path CSV.

    It reads one record at a time and writes its lines in blocks of
    ``_CSV_BLOCK_ROWS``, so memory stays flat however long the input.  A bad
    record names the line it starts on and leaves no ``--out`` file.
    """
    import csv
    from types import SimpleNamespace

    with open(args.report, "r", encoding="utf-8", newline="") as src:
        reader = csv.reader(src)
        try:
            fields = next(reader, [])
        except (ValueError, csv.Error) as exc:  # e.g. its first block does not decode
            raise ValueError(f"{args.report}: {exc}") from exc
        path_file = bool(fields) and fields[0] in ("s", "n") and "observable" not in fields
        if fields and not path_file and not _REPORT_COLUMNS <= set(fields):
            raise ValueError(f"{args.report} is neither a report nor a path CSV "
                             f"(columns {', '.join(fields)})")
        if os.path.exists(args.out) and os.path.samefile(args.report, args.out):
            raise ValueError(f"--out {args.out} is the --report file; writing would destroy it")
        block: list[str] = []
        writer = csv.writer(SimpleNamespace(write=block.append), lineterminator="\n")
        writer.writerows([name, ""] for name in fields[1:])
        prefixes = [text[:-1] for text in block]  # each path column's quoted name and comma
        block.clear()
        writer.writerow(["series", "x", "y", "y_lo", "y_hi"])
        line = reader.line_num + 1  # the first line of the next record
        with open(args.out, "w", encoding="utf-8", newline="") as dst:
            try:
                for row in reader:
                    if row:  # a blank line holds no record
                        if len(row) != len(fields):
                            raise ValueError(f"expected {len(fields)} cells, got {len(row)}")
                        if path_file:
                            block.extend(_path_plot_lines(prefixes, row))
                        else:
                            writer.writerows(_report_plot_rows(dict(zip(fields, row))))
                        if len(block) >= _CSV_BLOCK_ROWS:
                            dst.write("".join(block))
                            block.clear()
                    line = reader.line_num + 1
                dst.write("".join(block))
            except (ValueError, csv.Error) as exc:
                dst.close()
                os.remove(args.out)  # bad input leaves no partial output
                raise ValueError(f"{args.report}, line {line}: {exc}") from exc
    return 0


def _path_plot_lines(prefixes: list[str], row: list[str]) -> list[str]:
    """Plot lines of one path-file row: ``column,x,y,y,y`` for each nonempty
    cell after the first, with x the first cell; ``prefixes`` holds each
    column name after the first, as ``csv.writer`` quotes it, and its comma.

    x and every other nonempty cell must be an ASCII number without ``_``
    or a line break: it needs no CSV quoting, and any CSV reader reads the
    number that ``float`` reads.
    """
    text = ",".join(row)
    if "\n" in text or "\r" in text:
        raise ValueError("a cell holds a line break")
    if "_" in text or not text.isascii():
        cell = next(cell for cell in row if "_" in cell or not cell.isascii())
        raise ValueError(f"{cell!r} is not an ASCII number without '_'")
    list(map(float, [row[0], *filter(None, row[1:])]))  # raises on the first that is no number
    x = row[0]
    return [f"{prefix}{x},{y},{y},{y}\n" for prefix, y in zip(prefixes, row[1:]) if y]


def _report_plot_rows(row: dict) -> list[list[str]]:
    """Plot rows of one report row: the estimate with a 2-stderr band and
    the oracle, or the gap for a ``kp-gap`` row; none for a row with no axis."""
    base, params = _parse_name_params(row["observable"])
    estimate = float(row["estimate"])
    stderr = float(row["stderr"])
    oracle = float(row["oracle"])
    if "N" in params:
        x = float(params["N"])
        extra = ",".join(f"{k}={v}" for k, v in params.items() if k != "N")
        series = f"{base}[{extra}]" if extra else base
    elif row["s"] or row["t"]:
        # the varying arclength: t unless only s is set or t is the
        # pinned zero end (correlation rows fix s = 0 and sweep t)
        s_val = float(row["s"]) if row["s"] else None
        t_val = float(row["t"]) if row["t"] else None
        x = t_val if t_val or s_val is None else s_val
        series = base
    else:
        return []  # aggregate rows (bounds, monotonicity) have no axis
    if base.startswith("kp-gap"):
        gap = abs(estimate - oracle)
        return [[series, repr(x), repr(gap), repr(gap), repr(gap)]]
    return [[series, repr(x), repr(estimate),
             repr(estimate - 2.0 * stderr), repr(estimate + 2.0 * stderr)],
            [f"{series}:oracle", repr(x), repr(oracle), repr(oracle), repr(oracle)]]


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:  # bad input, wherever it is found
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

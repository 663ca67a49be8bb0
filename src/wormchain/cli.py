"""Command-line front end.

Subcommands: ``simulate-frc`` (one chain to CSV), ``simulate-kp`` (one
continuum path to CSV), ``verify`` (Monte Carlo suites judged against the
closed forms, with CSV + JSON reports), and ``plotdata`` (tidy long-format
series for external plotting).

Exit codes: 0 success, 1 I/O failure, 2 usage error, 3 verification failure.
A failed verify suite is rerun once with ``seed + 1`` (mod 2**64) before
being declared red, so a single 4-sigma statistical flake does not fail CI;
the JSON report keeps every attempt (seed, pass, wall time, rows) under
``attempts``.
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
    frc.set_defaults(func=_cmd_simulate_frc)

    kp = sub.add_parser("simulate-kp", help="simulate one continuum path to CSV")
    kp.add_argument("--contour-length", type=float, required=True)
    kp.add_argument("--ell-p", type=float, required=True)
    kp.add_argument("--n-steps", type=int)
    kp.add_argument("--seed", type=int, required=True)
    kp.add_argument("--out", required=True)
    kp.set_defaults(func=_cmd_simulate_kp)

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


def _cmd_simulate_frc(args) -> int:
    raw = args.bond_length is not None or args.bond_angle is not None
    scaled = args.contour_length is not None or args.kappa is not None
    if raw == scaled:
        raise _UsageError("give either --bond-length with --bond-angle, "
                          "or --contour-length with --kappa")
    try:
        if raw:
            if args.bond_length is None or args.bond_angle is None:
                raise _UsageError("--bond-length and --bond-angle must be given together")
            cfg = FrcConfig.raw(args.n_bonds, args.bond_length, args.bond_angle)
        else:
            if args.contour_length is None or args.kappa is None:
                raise _UsageError("--contour-length and --kappa must be given together")
            cfg = FrcConfig.scaled(args.n_bonds, args.contour_length, args.kappa)
        rng = path_rng(args.seed, 0)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    chain = sample_frc(cfg, rng)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        write_chain_csv(chain, fh)
    return 0


def _cmd_simulate_kp(args) -> int:
    try:
        cfg = KpConfig.create(args.contour_length, args.ell_p, args.n_steps)
        rng = path_rng(args.seed, 0)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    path = simulate_kp(cfg, rng)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        write_path_csv(path, fh)
    return 0


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise _UsageError(f"{path}:{lineno}: expected 'key = value', got {line.rstrip()!r}")
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
                raise _UsageError(f"unknown config key {key!r}")
            try:
                params[key] = _PARAM_TYPES[key](text)
            except ValueError as exc:
                raise _UsageError(f"bad value for config key {key!r}: {text!r}") from exc
    for key in _PARAM_TYPES:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            params[key] = flag_value
    if params["seed"] is None:
        raise _UsageError("--seed is required (flag or config file)")
    if params["workers"] is None:
        text = os.environ.get("WORMCHAIN_WORKERS", "1")
        try:
            params["workers"] = int(text)
        except ValueError as exc:
            raise _UsageError(f"WORMCHAIN_WORKERS must be an integer, got {text!r}") from exc
    if params["workers"] < 1:
        raise _UsageError(f"workers must be at least 1, got {params['workers']}")
    return params


def _parse_n_list(text) -> list[int]:
    try:
        values = [int(part) for part in str(text).split(",") if part.strip()]
    except ValueError as exc:
        raise _UsageError(f"bad --n-list {text!r}") from exc
    if not values:
        raise _UsageError(f"bad --n-list {text!r}")
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
        seed = params["seed"]
        try:
            reports = _attempt(suite, params, seed, attempts)
        except ValueError as exc:
            # the suites validate their parameters before any sampling
            raise _UsageError(str(exc)) from exc
        if not attempts[-1]["passed"]:
            # one-rerun flake policy: a fresh seed decides; two failures = red.
            # The fresh seed is the next one; the top of the key range wraps to 0
            seed = (params["seed"] + 1) % (1 << 64)
            reports = _attempt(suite, params, seed, attempts)
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

        config_echo = {key: params[key] for key in sorted(params)}
        config_echo["suite"] = suite
        config_echo["seed"] = seed
        summary = {
            "config": config_echo,
            "seed": seed,
            "n_paths": params["n_paths"],
            "reports": reports_to_dicts(reports),
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


def _attempt(suite: str, params: dict, seed: int, attempts: list) -> list:
    """Run one attempt of a suite and append its record to ``attempts``."""
    started = time.perf_counter()
    reports = _run_suite(suite, params, seed)
    attempts.append({
        "seed": seed,
        "passed": all(r.passed for r in reports),
        "wall_time_s": time.perf_counter() - started,
        "reports": reports_to_dicts(reports),
    })
    return reports


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
    import csv
    from itertools import islice

    # one row in, its rows out: memory stays flat however long the input
    with open(args.report, "r", encoding="utf-8", newline="") as src:
        reader = csv.reader(src)
        try:
            fields = next(reader, [])
        except (ValueError, csv.Error) as exc:  # e.g. its first block does not decode
            raise _UsageError(f"{args.report}: {exc}") from exc
        path_file = bool(fields) and fields[0] in ("s", "n") and "observable" not in fields
        if fields and not path_file and not _REPORT_COLUMNS <= set(fields):
            raise _UsageError(f"{args.report} is neither a report nor a path CSV "
                              f"(columns {', '.join(fields)})")
        if os.path.exists(args.out) and os.path.samefile(args.report, args.out):
            raise _UsageError(f"--out {args.out} is the --report file; writing would destroy it")
        first_line = [1]
        rows = _table_rows(reader, len(fields), first_line)
        with open(args.out, "w", encoding="utf-8", newline="") as dst:
            writer = csv.writer(dst, lineterminator="\n")
            writer.writerow(["series", "x", "y", "y_lo", "y_hi"])
            try:
                if path_file:
                    # rows are formatted lazily, so a bad row stops the
                    # writes at its own line; one write per block of rows
                    lines = map(_path_plot_lines(fields), rows)
                    for block in iter(lambda: list(islice(lines, _CSV_BLOCK_ROWS)), []):
                        dst.write("".join(block))
                else:
                    for row in rows:
                        writer.writerows(_report_plot_rows(dict(zip(fields, row))))
            except (ValueError, csv.Error) as exc:
                dst.close()
                os.remove(args.out)  # a usage error leaves no partial output
                raise _UsageError(f"{args.report}, line {first_line[0]}: {exc}") from exc
    return 0


def _table_rows(reader, width: int, first_line: list[int]):
    """The nonblank rows of ``reader``; each must hold ``width`` cells.

    ``first_line[0]`` is kept at the first line of the record read last, so
    an error names where its record starts, not the last line of a quoted
    cell that spans lines.
    """
    first_line[0] = reader.line_num + 1
    for row in reader:
        if row:  # a blank line holds no row
            if len(row) != width:
                raise ValueError(f"expected {width} cells, got {len(row)}")
            yield row
        first_line[0] = reader.line_num + 1


def _path_plot_lines(fields: list[str]):
    """Plot lines of one path-file row: ``column,x,y,y,y`` for each nonempty
    cell after the first, with x the first cell.

    Every nonempty cell must be a number without a line break, so the cells
    need no CSV quoting; each column name is quoted once, as ``csv.writer``
    quotes it.
    """
    import csv
    import io

    prefixes = []
    for name in fields[1:]:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow([name, ""])
        prefixes.append(buf.getvalue()[:-1])  # the quoted name and its comma

    def lines(row: list[str]) -> str:
        text = ",".join(row)
        if "\n" in text or "\r" in text:
            raise ValueError("a cell holds a line break")
        list(map(float, filter(None, row)))  # raises on the first cell that is no number
        x = row[0]
        return "".join([f"{prefix}{x},{y},{y},{y}\n"
                        for prefix, y in zip(prefixes, row[1:]) if y])

    return lines


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
        if t_val is None:
            x = s_val
        elif s_val is None or s_val == 0.0:
            x = t_val
        else:
            x = s_val
        series = base
    else:
        return []  # aggregate rows (bounds, monotonicity) have no axis
    if base.startswith("kp-gap"):
        gap = abs(estimate - oracle)
        return [[series, repr(x), repr(gap), repr(gap), repr(gap)]]
    return [[series, repr(x), repr(estimate),
             repr(estimate - 2.0 * stderr), repr(estimate + 2.0 * stderr)],
            [f"{series}:oracle", repr(x), repr(oracle), repr(oracle), repr(oracle)]]


class _UsageError(Exception):
    pass


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
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

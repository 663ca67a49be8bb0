"""Self-test of the benchmark's checks: each must fail on a wrong input.

Usage::

    python3 wormbench/selftest.py

Runs small ``wormchain`` calls (a correlation verify, one KP path, one
chain, ``plotdata`` on both), requires every check to pass on their
outputs, then feeds the checks deliberately wrong copies of those outputs
and requires each copy to be caught by the check aimed at it.  Exits 0 only
if the clean outputs pass and every wrong copy is caught.
"""
import csv
import json
import math
import os
import shutil
import sys
import tempfile
import time

import checks
import run

ELL_P, LENGTH, STEPS, PATHS, SEED = 1.0, 1.0, 200, 4000, 7
KP_PATH = {"contour_length": 2.0, "ell_p": 1.0, "n_steps": 500}
CHAIN = {"n_bonds": 500, "bond_length": 1.0, "bond_angle": 1.0}


def _write_table(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _edit_table(path, edit):
    header, rows = checks.read_table(path)
    edit(rows)
    _write_table(path, header, rows)


def _edit_report(out, edit):
    """Apply ``edit(name, t, values)`` to the CSV and JSON rows alike;
    ``values`` maps estimate/oracle to floats and may be changed in place."""
    csv_path = os.path.join(out, "report-correlation.csv")
    json_path = os.path.join(out, "report-correlation.json")
    with open(csv_path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        fields, rows = reader.fieldnames, list(reader)
    with open(json_path, encoding="utf-8") as fh:
        summary = json.load(fh)
    for row, rec in zip(rows, summary["reports"]):
        values = {"estimate": float(row["estimate"]), "oracle": float(row["oracle"])}
        edit(row["observable"], float(row["t"]), values)
        for key, value in values.items():
            row[key] = repr(value)
            rec[key] = value
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)


def _halve_exponent(name, t, values):
    # a frame step with sqrt(1/ell_p): Q_0 . Q_t decays as exp(-t/ell_p)
    values["estimate"] += math.exp(-t / ELL_P) - math.exp(-2.0 * t / ELL_P)


def _wrong_convention(name, t, values):
    _halve_exponent(name, t, values)
    values["oracle"] = math.exp(-t / ELL_P)


def _oracle_off(name, t, values):
    if name.endswith(f"k2={STEPS // 2}]"):
        values["oracle"] += 1e-6


def _bump(rows, i, j, delta):
    rows[i][j] = repr(float(rows[i][j]) + delta)


def _stretch_tangent(rows):
    for j in (1, 2, 3):
        rows[200][j] = repr(float(rows[200][j]) * (1.0 + 1e-9))


def _long_digits(rows):
    rows[50][1] = format(float(rows[50][1]), ".25g")


def _swap_plot_value(rows):
    rows[10][2], rows[11][2] = rows[11][2], rows[10][2]


def _wrong_seed(out):
    path = os.path.join(out, "report-correlation.json")
    with open(path, encoding="utf-8") as fh:
        summary = json.load(fh)
    summary["seed"] = SEED + 1
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)


def main():
    run.RESULTS.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=run.RESULTS)
    try:
        return _selftest(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _selftest(work):
    deadline = time.monotonic() + run.DEADLINE_S
    clean = os.path.join(work, "clean")
    os.mkdir(clean)
    ops = [run._verify("correlation", SEED, clean, ell_p=ELL_P, contour_length=LENGTH,
                       n_steps=STEPS, n_paths=PATHS)]
    ops += run._single_path_ops(SEED, clean, KP_PATH, CHAIN)
    for op in ops:
        if run.spawn(op.argv, False, clean, deadline).failed:
            print(f"FAIL: wormchain {' '.join(op.argv)} did not succeed")
            return 1

    def check_all(out):
        problems = checks.check_report(out, "correlation",
                                       checks.expected_correlation(ELL_P, LENGTH, STEPS))
        problems += run._single_path_check(out, KP_PATH, CHAIN)
        if run._reported_seed(out, "correlation") != SEED:
            problems.append("correlation: report seed differs from the seed asked for")
        return problems

    problems = check_all(clean)
    if problems:
        print("FAIL: clean outputs do not pass:\n  " + "\n  ".join(problems))
        return 1
    print("clean outputs pass every check")

    # (what is wrong, how to make it wrong, a phrase the right check reports)
    cases = [
        ("factor-2 error in the correlation exponent (estimates only)",
         lambda out: _edit_report(out, _halve_exponent), "* stderr"),
        ("factor-2 error in the correlation exponent (estimates and oracle column)",
         lambda out: _edit_report(out, _wrong_convention), "oracle column"),
        ("report oracle column off by 1e-6 on one row",
         lambda out: _edit_report(out, _oracle_off), "oracle column"),
        ("report seed is seed + 1 (the rerun fired)", _wrong_seed, "report seed"),
        ("perturbed KP position cell",
         lambda out: _edit_table(os.path.join(out, "kp.csv"),
                                 lambda rows: _bump(rows, 100, 4, 1e-9)),
         "cumulative trapezoid"),
        ("non-unit KP tangent",
         lambda out: _edit_table(os.path.join(out, "kp.csv"), _stretch_tangent),
         "tangent norm"),
        ("KP cell written with digits that do not round-trip",
         lambda out: _edit_table(os.path.join(out, "kp.csv"), _long_digits), "round-trip"),
        ("perturbed FRC bead cell",
         lambda out: _edit_table(os.path.join(out, "frc.csv"),
                                 lambda rows: _bump(rows, 300, 1, 1e-9)),
         "bond length"),
        ("plotdata value moved to the wrong row",
         lambda out: _edit_table(os.path.join(out, "frc-plot.csv"), _swap_plot_value),
         "trace back"),
    ]
    missed = 0
    for i, (what, corrupt, phrase) in enumerate(cases):
        out = os.path.join(work, f"case{i}")
        shutil.copytree(clean, out)
        corrupt(out)
        hits = [p for p in check_all(out) if phrase in p]
        if hits:
            print(f"caught: {what}: {hits[0]}")
        else:
            missed += 1
            print(f"MISSED: {what}")
    print(f"{len(cases) - missed}/{len(cases)} wrong inputs caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())

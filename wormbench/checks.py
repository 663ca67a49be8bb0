"""Independent checks of wormchain's outputs.

Every oracle and property here is computed by the benchmark itself, from
the closed forms and the model definitions, never by importing
``wormchain``.  Each check returns a list of problems; an empty list means
the output is correct.
"""
import csv
import json
import math
import os

import numpy as np

Z_LIMIT = 4.0            # |estimate - oracle| <= 4 stderr
ORACLE_RTOL = 1e-12      # report oracle column vs the value recomputed here
UNIT_TOL = 1e-12         # KP tangent norm
BOND_LENGTH_RTOL = 1e-12  # FRC bond length (acceptance criterion 1)
BOND_ANGLE_TOL = 1e-10    # FRC cos(bond angle) (acceptance criterion 1)


# ---------------------------------------------------------------------------
# closed forms

def kp_correlation(ell_p, s, t):
    """E[Q_s . Q_t] = exp(-2|t - s| / ell_p)."""
    return math.exp(-2.0 * abs(t - s) / ell_p)


def kp_msd(ell_p, t):
    """E|R_t|^2 = ell_p t - (ell_p^2 / 2)(1 - exp(-2t / ell_p))."""
    return ell_p * t + 0.5 * ell_p * ell_p * math.expm1(-2.0 * t / ell_p)


def frc_msd(bond_length, bond_angle, n_bonds):
    """E|R_N|^2 = a^2 [N(1+c)/(1-c) - 2c(1-c^N)/(1-c)^2], c = cos(theta).

    The geometric closed form of the bond-correlation double sum.
    """
    c = math.cos(bond_angle)
    one_m = 1.0 - c
    return bond_length**2 * (n_bonds * (1.0 + c) / one_m
                             - 2.0 * c * (1.0 - c**n_bonds) / (one_m * one_m))


def _close(a, b, rtol, atol=0.0):
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


# ---------------------------------------------------------------------------
# verify reports

def _row(oracle, *, s=None, t=None, stat=True, estimate=None, est_atol=0.0, bound=None):
    """Expected report row.

    ``stat`` rows must lie within Z_LIMIT standard errors of ``oracle``;
    ``estimate`` rows carry a closed-form value of their own; ``bound`` rows
    are deterministic checks ``estimate <= bound``.
    """
    return {"oracle": oracle, "s": s, "t": t, "stat": stat, "estimate": estimate,
            "est_atol": est_atol, "bound": bound}


def expected_correlation(ell_p, contour_length, n_steps):
    """kp_correlation_suite at its default arclengths L/4, L/2, L from s = 0."""
    h = contour_length / n_steps
    rows = {}
    for t in (contour_length / 4.0, contour_length / 2.0, contour_length):
        k = round(t / h)
        t_snap = k * h
        rows[f"qq[k1=0,k2={k}]"] = _row(kp_correlation(ell_p, 0.0, t_snap), s=0.0, t=t_snap)
    return rows


def expected_random_coil(ell_p, contour_length, n_steps, grid_points):
    """Random-coil rows: variances of sqrt(3/ell_p) R_s against s; covariances
    and increment correlations against 0; the summed variance against the
    scaled mean squared position."""
    h = contour_length / n_steps
    scale = 3.0 / ell_p
    rows = {}
    for j in range(1, grid_points + 1):
        k = round(j * contour_length / grid_points / h)
        s = k * h
        for i in (1, 2, 3):
            rows[f"coilvar{i}[k={k}]"] = _row(s, s=s)
            rows[f"coilincr{i}[k={k}]"] = _row(0.0, s=s)
        for pair in ("12", "13", "23"):
            rows[f"coilcov{pair}[k={k}]"] = _row(0.0, s=s)
        rows[f"coilsum[k={k}]"] = _row(scale * kp_msd(ell_p, s), s=s)
    return rows


def expected_converge(contour_length, kappa, n_list, fractions=(0.25, 0.5, 1.0)):
    """Convergence table: chain estimates against the exact chain oracles
    cos(theta)^k and the geometric mean squared distance; closed-form gap
    rows against the continuum forms at ell_p = 2L/kappa^2; and the
    monotone-gap bounds."""
    ell_p = 2.0 * contour_length / kappa**2
    rows = {}
    corr_gaps = {f: [] for f in fractions}
    msd_gaps = []
    for n in n_list:
        a = contour_length / n
        theta = kappa / math.sqrt(n)
        chain_length = n * a
        for f in fractions:
            k = min(n - 1, round(f * n))
            s = k * a
            chain_corr = math.cos(theta) ** k
            continuum_corr = kp_correlation(ell_p, 0.0, s)
            corr_gaps[f].append(abs(chain_corr - continuum_corr))
            rows[f"frc-corr[N={n},k={k}]"] = _row(chain_corr, s=s)
            rows[f"kp-gap-corr[N={n},f={f}]"] = _row(continuum_corr, s=s, stat=False,
                                                     estimate=chain_corr)
        chain_msd = frc_msd(a, theta, n)
        continuum_msd = kp_msd(ell_p, chain_length)
        msd_gaps.append(abs(chain_msd - continuum_msd))
        rows[f"frc-msd[N={n}]"] = _row(chain_msd, t=chain_length)
        rows[f"kp-gap-msd[N={n}]"] = _row(continuum_msd, t=chain_length, stat=False,
                                          estimate=chain_msd)
    if len(n_list) >= 2:
        named = [(f"gap-monotone-corr[f={f}]", corr_gaps[f]) for f in fractions]
        named.append(("gap-monotone-msd", msd_gaps))
        for name, gaps in named:
            violation = max([0.0] + [b - a for a, b in zip(gaps, gaps[1:])])
            rows[name] = _row(0.0, stat=False, estimate=violation, est_atol=1e-12,
                              bound=0.1 * min(gaps))
    return rows


def _float_or_none(text):
    return float(text) if text != "" else None


def check_report(out_dir, suite, expected):
    """Check ``report-<suite>.csv`` and ``.json`` against ``expected`` rows."""
    problems = []
    csv_path = os.path.join(out_dir, f"report-{suite}.csv")
    json_path = os.path.join(out_dir, f"report-{suite}.json")
    try:
        with open(csv_path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(json_path, encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, ValueError, csv.Error) as exc:
        return [f"{suite}: cannot read report: {exc}"]

    seen = set()
    for row in rows:
        name = row["observable"]
        spec = expected.get(name)
        if spec is None:
            problems.append(f"{suite}: unexpected row {name}")
            continue
        if name in seen:
            problems.append(f"{suite}: duplicate row {name}")
        seen.add(name)
        try:
            estimate, stderr, oracle = (float(row[c]) for c in ("estimate", "stderr", "oracle"))
            s, t = _float_or_none(row["s"]), _float_or_none(row["t"])
        except ValueError as exc:
            problems.append(f"{suite}: {name}: unparsable number: {exc}")
            continue
        if not _close(oracle, spec["oracle"], ORACLE_RTOL):
            problems.append(f"{suite}: {name}: oracle column {oracle!r} != recomputed "
                            f"{spec['oracle']!r}")
        for label, got, want in (("s", s, spec["s"]), ("t", t, spec["t"])):
            if (got is None) != (want is None) or (
                    want is not None and not _close(got, want, ORACLE_RTOL)):
                problems.append(f"{suite}: {name}: {label} = {got!r}, expected {want!r}")
        if spec["estimate"] is not None and not _close(estimate, spec["estimate"],
                                                       ORACLE_RTOL, spec["est_atol"]):
            problems.append(f"{suite}: {name}: estimate {estimate!r} != closed form "
                            f"{spec['estimate']!r}")
        if spec["stat"] and not (stderr > 0.0 and
                                 abs(estimate - spec["oracle"]) <= Z_LIMIT * stderr):
            problems.append(f"{suite}: {name}: |{estimate!r} - {spec['oracle']!r}| > "
                            f"{Z_LIMIT} * stderr {stderr!r}")
        if spec["bound"] is not None:
            if not _close(Z_LIMIT * stderr, spec["bound"], ORACLE_RTOL):
                problems.append(f"{suite}: {name}: slack {Z_LIMIT * stderr!r} != "
                                f"{spec['bound']!r}")
            if spec["estimate"] > spec["bound"]:
                problems.append(f"{suite}: {name}: recomputed {spec['estimate']!r} exceeds "
                                f"bound {spec['bound']!r}")
        if row["pass"] != "True":
            problems.append(f"{suite}: {name}: reported as failing")
    for name in expected.keys() - seen:
        problems.append(f"{suite}: missing row {name}")

    json_rows = {r.get("observable"): r.get("estimate") for r in summary.get("reports", [])}
    csv_rows = {r["observable"]: float(r["estimate"]) for r in rows if r["estimate"]}
    if json_rows != csv_rows:
        problems.append(f"{suite}: JSON reports disagree with the CSV report")
    return problems


# ---------------------------------------------------------------------------
# single-path CSV files

def read_table(path):
    """Header and rows of a CSV file, all cells as text."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        return header, list(reader)


def _numbers(rows, problems, label, first=0):
    """Float matrix of the cells from column ``first`` on; every nonempty
    cell must be the exact repr of the float it parses to."""
    values = []
    bad = 0
    for row in rows:
        out = []
        for cell in row[first:]:
            if cell == "":
                out.append(math.nan)
                continue
            x = float(cell)
            if repr(x) != cell:
                bad += 1
            out.append(x)
        values.append(out)
    if bad:
        problems.append(f"{label}: {bad} cells do not round-trip to the same float")
    return np.array(values, dtype=np.float64)


def check_kp_path(path, contour_length, n_steps):
    """simulate-kp CSV: grid, unit tangents, trapezoid positions."""
    problems = []
    try:
        header, rows = read_table(path)
    except (OSError, csv.Error) as exc:
        return [f"kp path: cannot read: {exc}"]
    if header != ["s", "Qx", "Qy", "Qz", "Rx", "Ry", "Rz"]:
        return [f"kp path: unexpected header {header}"]
    if len(rows) != n_steps + 1 or any(len(r) != 7 for r in rows):
        return [f"kp path: {len(rows)} rows, expected {n_steps + 1} rows of 7 cells"]
    try:
        data = _numbers(rows, problems, "kp path")
    except ValueError as exc:
        return [f"kp path: unparsable cell: {exc}"]
    h = contour_length / n_steps
    grid = np.arange(n_steps + 1) * h
    if np.max(np.abs(data[:, 0] - grid)) > ORACLE_RTOL * contour_length:
        problems.append("kp path: arclength column is not the uniform grid k*h")
    q, r = data[:, 1:4], data[:, 4:7]
    if not (np.array_equal(q[0], [0.0, 0.0, 1.0]) and np.array_equal(r[0], [0.0, 0.0, 0.0])):
        problems.append("kp path: does not start at the origin along +z")
    norm_err = float(np.max(np.abs(np.sqrt(np.sum(q * q, axis=1)) - 1.0)))
    if not norm_err <= UNIT_TOL:
        problems.append(f"kp path: tangent norm off by {norm_err:.3e} (> {UNIT_TOL})")
    trapezoid = np.zeros_like(r)
    np.cumsum((0.5 * h) * (q[:-1] + q[1:]), axis=0, out=trapezoid[1:])
    pos_err = float(np.max(np.abs(trapezoid - r)))
    if not pos_err <= ORACLE_RTOL * contour_length:
        problems.append(f"kp path: positions differ from the cumulative trapezoid sum "
                        f"of the tangents by {pos_err:.3e}")
    return problems


def check_frc_chain(path, n_bonds, bond_length, bond_angle):
    """simulate-frc CSV: bead count, bond lengths and bond angles."""
    problems = []
    try:
        header, rows = read_table(path)
    except (OSError, csv.Error) as exc:
        return [f"frc chain: cannot read: {exc}"]
    if header != ["n", "x", "y", "z", "phi"]:
        return [f"frc chain: unexpected header {header}"]
    if len(rows) != n_bonds + 1 or any(len(r) != 5 for r in rows):
        return [f"frc chain: {len(rows)} rows, expected {n_bonds + 1} rows of 5 cells"]
    if [r[0] for r in rows] != [str(i) for i in range(n_bonds + 1)]:
        problems.append("frc chain: bead index column is not 0..N")
    if rows[0][4] != "" or rows[1][4] != "" or any(r[4] == "" for r in rows[2:]):
        problems.append("frc chain: torsions must be given exactly for beads 2..N")
    try:
        data = _numbers(rows, problems, "frc chain", first=1)
    except ValueError as exc:
        return [f"frc chain: unparsable cell: {exc}"]
    beads = data[:, 0:3]
    phis = data[2:, 3]
    if not np.all((phis >= 0.0) & (phis < 2.0 * math.pi)):
        problems.append("frc chain: a torsion lies outside [0, 2 pi)")
    if not (np.array_equal(beads[0], [0.0, 0.0, 0.0])
            and np.array_equal(beads[1], [0.0, 0.0, bond_length])):
        problems.append("frc chain: first bond is not a * e3 from the origin")
    bonds = np.diff(beads, axis=0)
    length_err = float(np.max(np.abs(np.sqrt(np.sum(bonds * bonds, axis=1)) / bond_length - 1.0)))
    if not length_err <= BOND_LENGTH_RTOL:
        problems.append(f"frc chain: bond length relative error {length_err:.3e} "
                        f"(> {BOND_LENGTH_RTOL})")
    cos_angles = np.sum(bonds[:-1] * bonds[1:], axis=1) / bond_length**2
    angle_err = float(np.max(np.abs(cos_angles - math.cos(bond_angle))))
    if not angle_err <= BOND_ANGLE_TOL:
        problems.append(f"frc chain: bond angle cosine error {angle_err:.3e} "
                        f"(> {BOND_ANGLE_TOL})")
    return problems


def check_plotdata(plot_path, source_path):
    """Every plotdata row (series, x, y, y_lo, y_hi) is a cell of the source
    file: column ``series`` of the row whose first cell is ``x``, with
    y_lo = y_hi = y; and every nonempty source cell appears once."""
    problems = []
    try:
        header, rows = read_table(plot_path)
        src_header, src_rows = read_table(source_path)
    except (OSError, csv.Error) as exc:
        return [f"plotdata: cannot read: {exc}"]
    if header != ["series", "x", "y", "y_lo", "y_hi"]:
        return [f"plotdata: unexpected header {header}"]
    column = {name: j for j, name in enumerate(src_header)}
    by_x = {r[0]: r for r in src_rows}
    unmatched = 0
    seen = set()
    for row in rows:
        if len(row) != 5:
            unmatched += 1
            continue
        series, x, y, lo, hi = row
        src = by_x.get(x)
        j = column.get(series)
        if src is None or j in (None, 0) or src[j] != y or lo != y or hi != y:
            unmatched += 1
        seen.add((series, x))
    if unmatched:
        problems.append(f"plotdata: {unmatched} rows do not trace back to {os.path.basename(source_path)}")
    cells = sum(1 for r in src_rows for cell in r[1:] if cell != "")
    if len(rows) != cells or len(seen) != len(rows):
        problems.append(f"plotdata: {len(rows)} rows for {cells} nonempty source cells")
    return problems

"""Monte Carlo ensemble engine and oracle comparisons.

Paths are generated in chunks; each path owns a counter-based random stream
keyed by ``(seed, path_index)`` (Philox), so results are bit-identical for a
fixed seed no matter how paths are distributed over workers.  Per-path
observable values feed Welford-style accumulators (count, mean, M2) that
merge associatively, and every estimate is compared to its closed-form
oracle through a z-score.
"""
from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analytics import (
    hard_rod_fluctuation_cov,
    kp_mean_sq_position,
    kp_tangent_correlation,
)
from .chain import FrcConfig, _frc_scan, frc_bond_correlation_oracle, frc_msd_oracle
from .kp import KpConfig, _kp_scan
from .so3 import MAX_SCAN_WIDTH

__all__ = [
    "Observable",
    "EnsembleSummary",
    "ComparisonReport",
    "path_rng",
    "run_ensemble",
    "tangent_dot_observable",
    "msd_observable",
    "estimate_tangent_correlation",
    "estimate_msd",
    "kp_correlation_suite",
    "kp_msd_suite",
    "frc_reference_suite",
    "convergence_table",
    "hard_rod_diagnostics",
    "random_coil_diagnostics",
    "write_reports_csv",
    "reports_to_dicts",
]

DEFAULT_Z_THRESHOLD = 4.0

# Cap on per-chunk random-increment elements (doubles); keeps the largest
# runs near 134 MB of draw memory while amortizing numpy call overhead.
_CHUNK_BUDGET = 1 << 24
_MAX_CHUNK_PATHS = MAX_SCAN_WIDTH

_FRC_KINDS = {"bond_corr", "bead_msd", "bead_coord"}
_KP_KINDS = {"tangent_dot", "path_msd", "coord_sq", "coord_prod", "incr_prod", "sup_rod_dev"}


@dataclass(frozen=True)
class Observable:
    """A per-path scalar to accumulate.

    ``kind`` selects the evaluation rule; ``params`` are its arguments
    (grid/bond indices are ints, centers and scales floats):

    - ``bond_corr (k,)``          FRC: z-component of bond ``1+k`` (equals
                                  ``Q_1 . Q_{1+k} / a^2``)
    - ``bead_msd (m,)``           FRC: ``|R_m|^2``
    - ``bead_coord (m, i)``       FRC: component ``i`` of bead ``m``
    - ``tangent_dot (k1, k2)``    KP: ``Q_{k1} . Q_{k2}``
    - ``path_msd (k,)``           KP: ``|R_k|^2``
    - ``coord_sq (i, k, c, w)``   KP: ``w * (R_k[i] - c)^2``
    - ``coord_prod (i, k1, j, k2, w)``  KP: ``w * R_{k1}[i] * R_{k2}[j]``
    - ``incr_prod (i, k1, k2, w)``      KP: ``w * (R_{k2}[i] - R_{k1}[i]) * R_{k1}[i]``
    - ``sup_rod_dev ()``          KP: ``sup_k |R_k - s_k e3|``
    """

    name: str
    kind: str
    params: tuple = ()


def path_rng(seed: int, path_index: int) -> np.random.Generator:
    """Counter-based stream for one path: Philox keyed by (seed, path_index)."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, path_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _merge_moments(n1: int, mean1, m2_1, n2: int, mean2, m2_2):
    n = n1 + n2
    delta = mean2 - mean1
    mean = mean1 + delta * (n2 / n)
    m2 = m2_1 + m2_2 + delta * delta * (n1 * n2 / n)
    return n, mean, m2


@dataclass(frozen=True, eq=False)
class EnsembleSummary:
    """Mergeable moment accumulator over an ensemble of paths."""

    model: FrcConfig | KpConfig
    seed: int
    observables: tuple[Observable, ...]
    count: int
    means: np.ndarray
    m2s: np.ndarray

    def __post_init__(self) -> None:
        for name in ("means", "m2s"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        k = len(self.observables)
        if self.means.shape != (k,) or self.m2s.shape != (k,):
            raise ValueError("means/m2s length must match the observable list")

    @classmethod
    def from_values(cls, model, seed: int, observables: tuple[Observable, ...],
                    values: np.ndarray) -> "EnsembleSummary":
        values = np.asarray(values, dtype=np.float64)
        means = values.mean(axis=0)
        m2s = np.sum((values - means) ** 2, axis=0)
        return cls(model, seed, observables, values.shape[0], means, m2s)

    @property
    def n_paths(self) -> int:
        return self.count

    def _index(self, name: str) -> int:
        for i, obs in enumerate(self.observables):
            if obs.name == name:
                return i
        raise KeyError(f"observable {name!r} not in summary")

    def mean(self, name: str) -> float:
        return float(self.means[self._index(name)])

    def m2(self, name: str) -> float:
        return float(self.m2s[self._index(name)])

    def variance(self, name: str) -> float:
        if self.count < 2:
            raise ValueError("variance needs at least two paths")
        return self.m2(name) / (self.count - 1)

    def stderr(self, name: str) -> float:
        """Standard error of the mean: sqrt(M2 / (n (n - 1)))."""
        if self.count < 2:
            raise ValueError("stderr needs at least two paths")
        return math.sqrt(self.m2(name) / (self.count * (self.count - 1)))

    def merge(self, other: "EnsembleSummary") -> "EnsembleSummary":
        """Combine two summaries of disjoint path sets from the same run."""
        if self.model != other.model or self.seed != other.seed:
            raise ValueError("cannot merge summaries from different runs")
        if self.observables != other.observables:
            raise ValueError("cannot merge summaries with different observables")
        n, mean, m2 = _merge_moments(
            self.count, self.means, self.m2s, other.count, other.means, other.m2s)
        return EnsembleSummary(self.model, self.seed, self.observables, n, mean, m2)


def _collect_frc_marks(observables) -> tuple[tuple[int, ...], tuple[int, ...]]:
    bonds: set[int] = set()
    beads: set[int] = set()
    for obs in observables:
        if obs.kind == "bond_corr":
            bonds.add(1 + int(obs.params[0]))
        elif obs.kind == "bead_msd":
            beads.add(int(obs.params[0]))
        elif obs.kind == "bead_coord":
            beads.add(int(obs.params[0]))
    return tuple(sorted(bonds)), tuple(sorted(beads))


def _collect_kp_marks(observables):
    tangents: set[int] = set()
    positions: set[int] = set()
    track_sup = False
    for obs in observables:
        if obs.kind == "tangent_dot":
            tangents.update(int(p) for p in obs.params[:2])
        elif obs.kind == "path_msd":
            positions.add(int(obs.params[0]))
        elif obs.kind == "coord_sq":
            positions.add(int(obs.params[1]))
        elif obs.kind == "coord_prod":
            positions.add(int(obs.params[1]))
            positions.add(int(obs.params[3]))
        elif obs.kind == "incr_prod":
            positions.add(int(obs.params[1]))
            positions.add(int(obs.params[2]))
        elif obs.kind == "sup_rod_dev":
            track_sup = True
    return tuple(sorted(tangents)), tuple(sorted(positions)), track_sup


def _eval_frc(obs: Observable, rec: dict) -> np.ndarray:
    if obs.kind == "bond_corr":
        return rec["bonds"][1 + int(obs.params[0])][:, 2]
    if obs.kind == "bead_msd":
        p = rec["beads"][int(obs.params[0])]
        return np.sum(p * p, axis=1)
    if obs.kind == "bead_coord":
        m, i = obs.params
        return rec["beads"][int(m)][:, int(i)]
    raise ValueError(f"observable kind {obs.kind!r} is not valid for a chain ensemble")


def _eval_kp(obs: Observable, rec: dict) -> np.ndarray:
    if obs.kind == "tangent_dot":
        k1, k2 = (int(p) for p in obs.params[:2])
        if k1 == k2:
            # Q_k . Q_k is identically 1 (unit tangent); evaluate it exactly
            return np.ones(rec["tangents"][k1].shape[0])
        return np.sum(rec["tangents"][k1] * rec["tangents"][k2], axis=1)
    if obs.kind == "path_msd":
        p = rec["positions"][int(obs.params[0])]
        return np.sum(p * p, axis=1)
    if obs.kind == "coord_sq":
        i, k, center, scale = obs.params
        x = rec["positions"][int(k)][:, int(i)] - center
        return scale * x * x
    if obs.kind == "coord_prod":
        i, k1, j, k2, scale = obs.params
        return scale * rec["positions"][int(k1)][:, int(i)] * rec["positions"][int(k2)][:, int(j)]
    if obs.kind == "incr_prod":
        i, k1, k2, scale = obs.params
        x1 = rec["positions"][int(k1)][:, int(i)]
        x2 = rec["positions"][int(k2)][:, int(i)]
        return scale * (x2 - x1) * x1
    if obs.kind == "sup_rod_dev":
        return rec["sup_rod_dev"]
    raise ValueError(f"observable kind {obs.kind!r} is not valid for a wormlike-chain ensemble")


def _chunk_values(model, observables: tuple[Observable, ...], seed: int,
                  start: int, stop: int) -> np.ndarray:
    paths = stop - start
    if isinstance(model, FrcConfig):
        n_phis = model.n_bonds - 1
        phis = np.empty((paths, n_phis))
        for row, index in enumerate(range(start, stop)):
            phis[row] = path_rng(seed, index).uniform(0.0, 2.0 * math.pi, size=n_phis)
        bond_marks, bead_marks = _collect_frc_marks(observables)
        rec = _frc_scan(model, phis, bond_marks=bond_marks, bead_marks=bead_marks)
        columns = [_eval_frc(obs, rec) for obs in observables]
    else:
        sqrt_h = math.sqrt(model.h)
        dbeta = np.empty((paths, model.n_steps, 2))
        for row, index in enumerate(range(start, stop)):
            dbeta[row] = path_rng(seed, index).normal(0.0, sqrt_h, size=(model.n_steps, 2))
        tangent_marks, position_marks, track_sup = _collect_kp_marks(observables)
        rec = _kp_scan(model.ell_p, model.h, dbeta,
                       tangent_marks=tangent_marks,
                       position_marks=position_marks,
                       track_sup_rod_dev=track_sup)
        columns = [_eval_kp(obs, rec) for obs in observables]
    return np.stack(columns, axis=1)


def _ensemble_chunk(model, observables, seed, start, stop):
    values = _chunk_values(model, observables, seed, start, stop)
    means = values.mean(axis=0)
    m2s = np.sum((values - means) ** 2, axis=0)
    return stop - start, means, m2s


def _chunk_ranges(model, n_paths: int) -> list[tuple[int, int]]:
    if isinstance(model, FrcConfig):
        per_path = max(1, model.n_bonds - 1)
    else:
        per_path = 2 * model.n_steps
    size = max(1, min(n_paths, _MAX_CHUNK_PATHS, _CHUNK_BUDGET // per_path))
    return [(start, min(start + size, n_paths)) for start in range(0, n_paths, size)]


def _check_n_paths(n_paths: int) -> None:
    if n_paths < 2:
        raise ValueError(f"n_paths must be at least 2, got {n_paths}")


def run_ensemble(model, n_paths: int, observables, seed: int, *,
                 workers: int = 1) -> EnsembleSummary:
    """Generate ``n_paths`` independent paths and accumulate observables.

    Path ``i`` draws from the stream keyed by ``(seed, i)``; chunk boundaries
    depend only on the model, so the merged summary is bit-identical for any
    worker count.
    """
    if not isinstance(model, (FrcConfig, KpConfig)):
        raise ValueError(f"model must be FrcConfig or KpConfig, got {type(model).__name__}")
    _check_n_paths(n_paths)
    observables = tuple(observables)
    if not observables:
        raise ValueError("observables must be nonempty")
    names = [obs.name for obs in observables]
    if len(set(names)) != len(names):
        raise ValueError("observable names must be unique")
    allowed = _FRC_KINDS if isinstance(model, FrcConfig) else _KP_KINDS
    for obs in observables:
        if obs.kind not in allowed:
            raise ValueError(f"observable kind {obs.kind!r} not valid for {type(model).__name__}")

    ranges = _chunk_ranges(model, n_paths)
    if workers and workers > 1 and len(ranges) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(
                _ensemble_chunk,
                (model for _ in ranges), (observables for _ in ranges),
                (seed for _ in ranges),
                (r[0] for r in ranges), (r[1] for r in ranges)))
    else:
        parts = [_ensemble_chunk(model, observables, seed, start, stop)
                 for start, stop in ranges]

    count, means, m2s = parts[0]
    for other_count, other_means, other_m2s in parts[1:]:
        count, means, m2s = _merge_moments(count, means, m2s, other_count, other_means, other_m2s)
    return EnsembleSummary(model, seed, observables, count, means, m2s)


# ---------------------------------------------------------------------------
# comparisons

@dataclass(frozen=True)
class ComparisonReport:
    """One estimate judged against its oracle.

    ``passed`` is reproducible from the stored fields: ``|z_score| <=
    threshold`` with ``z = (estimate - oracle)/stderr`` (zero when the
    estimate is deterministic and exact).  Deterministic bound checks encode
    their slack as ``stderr = bound/threshold``; informational rows carry
    ``threshold = inf`` and always pass.
    """

    observable: str
    s: float | None
    t: float | None
    estimate: float
    stderr: float
    oracle: float
    z_score: float
    threshold: float
    passed: bool


# Observables that are deterministic up to float roundoff (e.g. the lag-1
# bond correlation, which the construction fixes exactly) have sample
# standard errors of pure rounding noise; flooring positive stderrs here
# turns their z-test into an absolute comparison at threshold * floor =
# 1e-12, far below every stated statistical tolerance.
_STDERR_FLOOR = 2.5e-13


def _make_report(name: str, estimate: float, stderr: float, oracle: float,
                 threshold: float, *, s: float | None = None,
                 t: float | None = None) -> ComparisonReport:
    if stderr > 0.0:
        stderr = max(stderr, _STDERR_FLOOR)
        z = (estimate - oracle) / stderr
    elif estimate == oracle:
        z = 0.0
    else:
        z = math.copysign(math.inf, estimate - oracle)
    return ComparisonReport(name, s, t, float(estimate), float(stderr), float(oracle),
                            float(z), float(threshold), bool(abs(z) <= threshold))


def _bound_report(name: str, estimate: float, bound: float, threshold: float,
                  *, s: float | None = None) -> ComparisonReport:
    """Deterministic check ``estimate <= bound`` in z-score clothing."""
    return _make_report(name, max(estimate, 0.0), bound / threshold, 0.0, threshold, s=s)


def _info_report(name: str, estimate: float, oracle: float, *, s: float | None = None,
                 t: float | None = None) -> ComparisonReport:
    """Informational row (closed-form vs closed-form); never fails."""
    return _make_report(name, estimate, 0.0, oracle, math.inf, s=s, t=t)


def _snap_index(cfg: KpConfig, s: float, name: str = "s") -> int:
    length = cfg.contour_length
    if not (math.isfinite(s) and -1e-9 * length <= s <= length * (1.0 + 1e-12) + 1e-9 * length):
        raise ValueError(f"{name} = {s!r} outside [0, {length!r}]")
    return min(max(int(round(s / cfg.h)), 0), cfg.n_steps)


def tangent_dot_observable(cfg: KpConfig, s: float, t: float) -> Observable:
    """Q_s . Q_t with both arclengths snapped to the grid."""
    k1 = _snap_index(cfg, s, "s")
    k2 = _snap_index(cfg, t, "t")
    return Observable(f"qq[k1={k1},k2={k2}]", "tangent_dot", (k1, k2))


def msd_observable(cfg: KpConfig, t: float) -> Observable:
    """|R_t|^2 with t snapped to the grid."""
    k = _snap_index(cfg, t, "t")
    return Observable(f"msd[k={k}]", "path_msd", (k,))


def estimate_tangent_correlation(summary: EnsembleSummary, s: float, t: float, *,
                                 threshold: float = DEFAULT_Z_THRESHOLD) -> ComparisonReport:
    """Compare the Monte Carlo mean of Q_s . Q_t to exp(-2|t-s|/ell_p)."""
    cfg = summary.model
    if not isinstance(cfg, KpConfig):
        raise ValueError("tangent correlation estimates need a wormlike-chain summary")
    obs = tangent_dot_observable(cfg, s, t)
    s_snap = obs.params[0] * cfg.h
    t_snap = obs.params[1] * cfg.h
    oracle = kp_tangent_correlation(cfg.ell_p, s_snap, t_snap)
    return _make_report(obs.name, summary.mean(obs.name), summary.stderr(obs.name),
                        oracle, threshold, s=s_snap, t=t_snap)


def estimate_msd(summary: EnsembleSummary, t: float, *,
                 threshold: float = DEFAULT_Z_THRESHOLD) -> ComparisonReport:
    """Compare the Monte Carlo mean of |R_t|^2 to the closed form."""
    cfg = summary.model
    if not isinstance(cfg, KpConfig):
        raise ValueError("mean-squared-position estimates need a wormlike-chain summary")
    obs = msd_observable(cfg, t)
    t_snap = obs.params[0] * cfg.h
    oracle = kp_mean_sq_position(cfg.ell_p, t_snap)
    return _make_report(obs.name, summary.mean(obs.name), summary.stderr(obs.name),
                        oracle, threshold, t=t_snap)


def _dedupe(observables) -> tuple[Observable, ...]:
    seen: dict[str, Observable] = {}
    for obs in observables:
        seen.setdefault(obs.name, obs)
    return tuple(seen.values())


def kp_correlation_suite(cfg: KpConfig, n_paths: int, seed: int, *,
                         s_values=None, threshold: float = DEFAULT_Z_THRESHOLD,
                         workers: int = 1) -> list[ComparisonReport]:
    """Tangent correlation E[Q_0 . Q_s] vs its closed form at several s."""
    if s_values is None:
        length = cfg.contour_length
        s_values = (length / 4.0, length / 2.0, length)
    observables = _dedupe(tangent_dot_observable(cfg, 0.0, s) for s in s_values)
    summary = run_ensemble(cfg, n_paths, observables, seed, workers=workers)
    seen: set[str] = set()
    reports = []
    for s in s_values:
        report = estimate_tangent_correlation(summary, 0.0, s, threshold=threshold)
        if report.observable not in seen:
            seen.add(report.observable)
            reports.append(report)
    return reports


def kp_msd_suite(cfg: KpConfig, n_paths: int, seed: int, *,
                 t_values=None, threshold: float = DEFAULT_Z_THRESHOLD,
                 workers: int = 1) -> list[ComparisonReport]:
    """Mean squared position E|R_t|^2 vs its closed form at several t."""
    if t_values is None:
        length = cfg.contour_length
        t_values = (length / 2.0, length)
    observables = _dedupe(msd_observable(cfg, t) for t in t_values)
    summary = run_ensemble(cfg, n_paths, observables, seed, workers=workers)
    seen: set[str] = set()
    reports = []
    for t in t_values:
        report = estimate_msd(summary, t, threshold=threshold)
        if report.observable not in seen:
            seen.add(report.observable)
            reports.append(report)
    return reports


def frc_reference_suite(cfg: FrcConfig, n_paths: int, seed: int, *,
                        lags=(1, 5, 25), threshold: float = DEFAULT_Z_THRESHOLD,
                        workers: int = 1, include_symmetry: bool = True) -> list[ComparisonReport]:
    """Chain estimates vs the exact chain oracles.

    Bond correlations at the given lags vs cos(theta)^k, the end-to-end
    mean squared distance vs its exact sum, and (optionally) the transverse
    end-bead means vs zero (rotational symmetry about the z axis).
    """
    n = cfg.n_bonds
    lags = tuple(int(k) for k in lags if 0 <= int(k) <= n - 1)
    if not lags:
        raise ValueError(f"no usable lags for a chain of {n} bonds")
    observables = [Observable(f"frc-corr[k={k}]", "bond_corr", (k,)) for k in lags]
    observables.append(Observable(f"frc-msd[n={n}]", "bead_msd", (n,)))
    if include_symmetry:
        observables.append(Observable(f"frc-meanx[n={n}]", "bead_coord", (n, 0)))
        observables.append(Observable(f"frc-meany[n={n}]", "bead_coord", (n, 1)))
    summary = run_ensemble(cfg, n_paths, _dedupe(observables), seed, workers=workers)

    reports = []
    for k in lags:
        name = f"frc-corr[k={k}]"
        reports.append(_make_report(name, summary.mean(name), summary.stderr(name),
                                    frc_bond_correlation_oracle(cfg.bond_angle, k),
                                    threshold, s=k * cfg.bond_length))
    name = f"frc-msd[n={n}]"
    reports.append(_make_report(name, summary.mean(name), summary.stderr(name),
                                frc_msd_oracle(cfg), threshold, t=cfg.contour_length))
    if include_symmetry:
        for axis, label in ((0, "x"), (1, "y")):
            name = f"frc-mean{label}[n={n}]"
            reports.append(_make_report(name, summary.mean(name), summary.stderr(name),
                                        0.0, threshold, t=cfg.contour_length))
    return reports


def _monotone_gap_report(name: str, gaps: list[float],
                         threshold: float) -> ComparisonReport:
    """Gap sequence must be non-increasing up to 10% of the smallest gap."""
    violation = 0.0
    for previous, current in zip(gaps, gaps[1:]):
        violation = max(violation, current - previous)
    slack = 0.1 * min(gaps)
    return _bound_report(name, violation, slack, threshold)


def convergence_table(contour_length: float, kappa: float, n_list, n_paths: int,
                      seed: int, *, fractions=(0.25, 0.5, 1.0),
                      threshold: float = DEFAULT_Z_THRESHOLD,
                      workers: int = 1) -> list[ComparisonReport]:
    """Chain-to-continuum convergence table over a ladder of N values.

    For each N the chain is sampled with ``a = L/N`` and ``theta =
    kappa/sqrt(N)``.  Monte Carlo estimates are tested against the *exact
    chain* oracles (these must pass), while informational rows record the
    gap between the chain oracles and the continuum closed forms with
    ``ell_p = 2L/kappa^2``; per-quantity rows then check that the gap is
    monotone non-increasing in N (up to 10% of the smallest gap).
    """
    n_list = [int(n) for n in n_list]
    if not n_list or any(n < 2 for n in n_list):
        raise ValueError(f"every N in n_list must be >= 2, got {n_list}")
    ell_p = 2.0 * contour_length / kappa**2
    corr_gaps: dict[float, list[float]] = {f: [] for f in fractions}
    msd_gaps: list[float] = []
    reports: list[ComparisonReport] = []

    for n in n_list:
        cfg = FrcConfig.scaled(n, contour_length, kappa)
        lag_of = {f: min(n - 1, int(round(f * n))) for f in fractions}
        observables = [Observable(f"frc-corr[N={n},k={k}]", "bond_corr", (k,))
                       for k in sorted(set(lag_of.values()))]
        observables.append(Observable(f"frc-msd[N={n}]", "bead_msd", (n,)))
        summary = run_ensemble(cfg, n_paths, _dedupe(observables), seed, workers=workers)

        emitted: set[str] = set()
        for f in fractions:
            k = lag_of[f]
            s_frc = k * cfg.bond_length
            frc_oracle = frc_bond_correlation_oracle(cfg.bond_angle, k)
            kp_oracle = kp_tangent_correlation(ell_p, 0.0, s_frc)
            corr_gaps[f].append(abs(frc_oracle - kp_oracle))
            name = f"frc-corr[N={n},k={k}]"
            if name not in emitted:
                emitted.add(name)
                reports.append(_make_report(name, summary.mean(name), summary.stderr(name),
                                            frc_oracle, threshold, s=s_frc))
            reports.append(_info_report(f"kp-gap-corr[N={n},f={f}]", frc_oracle,
                                        kp_oracle, s=s_frc))

        frc_msd = frc_msd_oracle(cfg)
        kp_msd = kp_mean_sq_position(ell_p, cfg.contour_length)
        msd_gaps.append(abs(frc_msd - kp_msd))
        name = f"frc-msd[N={n}]"
        reports.append(_make_report(name, summary.mean(name), summary.stderr(name),
                                    frc_msd, threshold, t=cfg.contour_length))
        reports.append(_info_report(f"kp-gap-msd[N={n}]", frc_msd, kp_msd,
                                    t=cfg.contour_length))

    if len(n_list) >= 2:
        for f in fractions:
            reports.append(_monotone_gap_report(f"gap-monotone-corr[f={f}]",
                                                corr_gaps[f], threshold))
        reports.append(_monotone_gap_report("gap-monotone-msd", msd_gaps, threshold))
    return reports


def _diagnostics_config(contour_length: float, ell_p: float, n_steps, n_paths: int,
                        grid_points: int) -> KpConfig:
    """Validate a diagnostics suite's parameters, so that bad input fails
    before any regime warning is printed."""
    if grid_points < 1:
        raise ValueError(f"grid_points must be >= 1, got {grid_points!r}")
    _check_n_paths(n_paths)
    return KpConfig.create(contour_length, ell_p, n_steps)


def hard_rod_diagnostics(ell_p: float, contour_length: float, n_paths: int,
                         grid_points: int, seed: int, *,
                         n_steps: int | None = None,
                         threshold: float = DEFAULT_Z_THRESHOLD,
                         workers: int = 1,
                         sup_bound: float = 0.05,
                         third_component_ratio_bound: float = 0.05) -> list[ComparisonReport]:
    """Stiff-limit diagnostics: Gaussian bending fluctuations about the rod.

    Checks ``Var(sqrt(ell_p) * R^i_s)`` for the transverse components
    against ``2 * hard_rod_fluctuation_cov(s, s) = 2*s^3/3`` (the factor 2
    is the ``sqrt(2/ell_p)`` frame-step scale of the ``exp(-2|t-s|/ell_p)``
    convention; see the ``analytics`` module docstring), that the scaled
    longitudinal fluctuation is small relative to the transverse ones, and
    that the mean sup-deviation from the rod stays under a frozen regression
    bound.
    """
    cfg = _diagnostics_config(contour_length, ell_p, n_steps, n_paths, grid_points)
    if ell_p < 100.0 * contour_length:
        warnings.warn(
            f"hard-rod diagnostics expect ell_p >= 100*L; got ell_p={ell_p!r}, L={contour_length!r}",
            RuntimeWarning, stacklevel=2)
    s_values = [j * contour_length / grid_points for j in range(1, grid_points + 1)]

    observables = []
    per_s: list[tuple[float, int]] = []
    for s in s_values:
        k = _snap_index(cfg, s)
        per_s.append((k * cfg.h, k))
        observables.append(Observable(f"rodvar1[k={k}]", "coord_sq", (0, k, 0.0, ell_p)))
        observables.append(Observable(f"rodvar2[k={k}]", "coord_sq", (1, k, 0.0, ell_p)))
        observables.append(Observable(f"rodvar3[k={k}]", "coord_sq", (2, k, k * cfg.h, ell_p)))
    observables.append(Observable("rodsup", "sup_rod_dev", ()))
    summary = run_ensemble(cfg, n_paths, _dedupe(observables), seed, workers=workers)

    reports = []
    for s_snap, k in per_s:
        oracle = 2.0 * hard_rod_fluctuation_cov(s_snap, s_snap)
        for comp in (1, 2):
            name = f"rodvar{comp}[k={k}]"
            reports.append(_make_report(name, summary.mean(name), summary.stderr(name),
                                        oracle, threshold, s=s_snap))
        transverse = 0.5 * (summary.mean(f"rodvar1[k={k}]") + summary.mean(f"rodvar2[k={k}]"))
        ratio = summary.mean(f"rodvar3[k={k}]") / transverse if transverse > 0.0 else math.inf
        reports.append(_bound_report(f"rodvar3-ratio[k={k}]", ratio,
                                     third_component_ratio_bound, threshold, s=s_snap))
    reports.append(_bound_report("rodsup", summary.mean("rodsup"), sup_bound, threshold))
    return reports


def random_coil_diagnostics(ell_p: float, contour_length: float, n_paths: int,
                            grid_points: int, seed: int, *,
                            n_steps: int | None = None,
                            threshold: float = DEFAULT_Z_THRESHOLD,
                            workers: int = 1) -> list[ComparisonReport]:
    """Flexible-limit diagnostics: the rescaled curve behaves as Brownian motion.

    Per-component variances of ``sqrt(3/ell_p) R_s`` against ``min(s, s)``,
    cross-component covariances and increment correlations against zero,
    and the summed variance against the exact mean-squared-position form.
    """
    cfg = _diagnostics_config(contour_length, ell_p, n_steps, n_paths, grid_points)
    if ell_p > contour_length / 100.0:
        warnings.warn(
            f"random-coil diagnostics expect ell_p <= L/100; got ell_p={ell_p!r}, L={contour_length!r}",
            RuntimeWarning, stacklevel=2)
    scale = 3.0 / ell_p
    s_values = [j * contour_length / grid_points for j in range(1, grid_points + 1)]

    observables = []
    per_s: list[tuple[float, int, int]] = []
    for s in s_values:
        k = _snap_index(cfg, s)
        k_half = _snap_index(cfg, s / 2.0)
        per_s.append((k * cfg.h, k, k_half))
        for i in range(3):
            observables.append(Observable(f"coilvar{i + 1}[k={k}]", "coord_sq",
                                          (i, k, 0.0, scale)))
            observables.append(Observable(f"coilincr{i + 1}[k={k}]", "incr_prod",
                                          (i, k_half, k, scale)))
        for i, j in ((0, 1), (0, 2), (1, 2)):
            observables.append(Observable(f"coilcov{i + 1}{j + 1}[k={k}]", "coord_prod",
                                          (i, k, j, k, scale)))
        observables.append(Observable(f"coilsum[k={k}]", "path_msd", (k,)))
    summary = run_ensemble(cfg, n_paths, _dedupe(observables), seed, workers=workers)

    reports = []
    for s_snap, k, _k_half in per_s:
        for i in range(3):
            name = f"coilvar{i + 1}[k={k}]"
            reports.append(_make_report(name, summary.mean(name), summary.stderr(name),
                                        min(s_snap, s_snap), threshold, s=s_snap))
        for i, j in ((0, 1), (0, 2), (1, 2)):
            name = f"coilcov{i + 1}{j + 1}[k={k}]"
            reports.append(_make_report(name, summary.mean(name), summary.stderr(name),
                                        0.0, threshold, s=s_snap))
        for i in range(3):
            name = f"coilincr{i + 1}[k={k}]"
            reports.append(_make_report(name, summary.mean(name), summary.stderr(name),
                                        0.0, threshold, s=s_snap))
        name = f"coilsum[k={k}]"
        reports.append(_make_report(name, scale * summary.mean(name),
                                    scale * summary.stderr(name),
                                    scale * kp_mean_sq_position(ell_p, s_snap),
                                    threshold, s=s_snap))
    return reports


# ---------------------------------------------------------------------------
# serialization

def write_reports_csv(reports, fileobj) -> None:
    """Columns: observable, s, t, estimate, stderr, oracle, z, pass."""
    import csv

    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["observable", "s", "t", "estimate", "stderr", "oracle", "z", "pass"])
    for report in reports:
        writer.writerow([
            report.observable,
            "" if report.s is None else repr(report.s),
            "" if report.t is None else repr(report.t),
            repr(report.estimate),
            repr(report.stderr),
            repr(report.oracle),
            repr(report.z_score),
            str(report.passed),
        ])


def reports_to_dicts(reports) -> list[dict]:
    return [
        {
            "observable": r.observable,
            "s": r.s,
            "t": r.t,
            "estimate": r.estimate,
            "stderr": r.stderr,
            "oracle": r.oracle,
            "z": r.z_score,
            "threshold": r.threshold,
            "pass": r.passed,
        }
        for r in reports
    ]

"""Monte Carlo ensemble engine and oracle comparisons.

Paths are generated in chunks; each path owns a counter-based random stream
keyed by ``(seed, path_index)`` (Philox), so results are bit-identical for a
fixed seed no matter how paths are distributed over workers.  Per-path
observable values feed Welford-style accumulators (count, mean, M2) that
merge associatively, and every estimate is compared to its closed-form
oracle through a z-score.
"""
from __future__ import annotations

import collections
import functools
import math
import numbers
import warnings
from collections.abc import Callable
from dataclasses import asdict, dataclass

import numpy as np

from .analytics import (_check_count, _check_size, _freeze, _is_int, hard_rod_fluctuation_cov,
                        kp_mean_sq_position, kp_tangent_correlation, random_coil_cov)
from .chain import (FrcConfig, _draw_torsions, _frc_scan, frc_bond_correlation_oracle,
                    frc_msd_oracle)
from .kp import KpConfig, _draw_increments, _kp_scan
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

# Frozen regression bounds of the hard-rod suite: the mean longitudinal over
# mean transverse fluctuation, and the mean sup deviation from the rod.
_ROD_RATIO_BOUND = 0.05
_ROD_SUP_BOUND = 0.05

# Cap on per-chunk random-increment elements (doubles); keeps the largest
# continuum runs near 134 MB of draw memory while amortizing numpy call
# overhead.  A chain chunk holds only its torsion block (chain._TORSION_BLOCK),
# yet chain chunks are still sized by N - 1 doubles a chain: the chunk widths
# fix each chunk's segment plan and the order in which summaries merge, so
# the pinned reports' bits depend on them.
_CHUNK_BUDGET = 1 << 24
_MAX_CHUNK_PATHS = MAX_SCAN_WIDTH


def _tangent_dot(rec, k1, k2):
    tangents = rec["tangents"]
    if k1 == k2:
        # T_k . T_k is identically 1 (unit tangent); evaluate it exactly
        return np.ones(tangents[k1].shape[0])
    return np.sum(tangents[k1] * tangents[k2], axis=1)


def _coord_sq(rec, i, k, center, scale):
    x = rec["positions"][k][:, i] - center
    return scale * x * x


def _incr_prod(rec, i, k1, k2, scale):
    x1, x2 = rec["positions"][k1][:, i], rec["positions"][k2][:, i]
    return scale * (x2 - x1) * x1


# kind -> (params, value on a scan record).  Each letter of the params
# string is one parameter: ``T`` a tangent mark, ``P`` a position mark (both
# non-negative ints), ``i`` a component 0..2, ``f`` a real number.  The
# Observable docstring tabulates it.
_KINDS = {
    "tangent_dot": ("TT", _tangent_dot),
    "path_msd": ("P", lambda rec, k: np.sum(rec["positions"][k] ** 2, axis=1)),
    "coord": ("iP", lambda rec, i, k: rec["positions"][k][:, i]),
    "coord_sq": ("iPff", _coord_sq),
    "coord_prod": ("iPiPf", lambda rec, i, k1, j, k2, scale:
                   scale * rec["positions"][k1][:, i] * rec["positions"][k2][:, j]),
    "incr_prod": ("iPPf", _incr_prod),
    "sup_rod_dev": ("", lambda rec: rec["sup_rod_dev"]),
}


# params letter -> (test, what the value must be)
_MARK_RULE = (lambda v: _is_int(v) and v >= 0, "a non-negative integer mark")
_PARAM_RULES = {
    "T": _MARK_RULE,
    "P": _MARK_RULE,
    "i": (lambda v: _is_int(v) and 0 <= v <= 2, "a component index 0, 1 or 2"),
    "f": (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool), "a real number"),
}


@dataclass(frozen=True)
class Observable:
    """A per-path scalar read off a frame scan.

    ``T_k`` and ``R_k`` are the tangent and position that the scan records
    at mark ``k``: grid index ``0..n`` on the wormlike chain; bond number
    ``1..N`` (tangent) and bead number ``0..N`` (position) on the chain.
    ``kind`` selects the rule and ``params`` are its arguments (marks are
    non-negative ints, components ``i``, ``j`` ints in 0..2, centers ``c``
    and scales ``w`` real numbers); a wrong count or type is a
    ``ValueError``:

    kind (params)                 tangents  positions  value
    ``tangent_dot (k1, k2)``      k1, k2               ``T_k1 . T_k2``
    ``path_msd (k,)``                       k          ``|R_k|^2``
    ``coord (i, k)``                        k          ``R_k[i]``
    ``coord_sq (i, k, c, w)``               k          ``w (R_k[i] - c)^2``
    ``coord_prod (i, k1, j, k2, w)``        k1, k2     ``w R_k1[i] R_k2[j]``
    ``incr_prod (i, k1, k2, w)``            k1, k2     ``w (R_k2[i] - R_k1[i]) R_k1[i]``
    ``sup_rod_dev ()``                                 ``sup_k |R_k - s_k e3|``, KP only

    On the chain bond 1 is exactly ``e3``, so ``tangent_dot (1, 1+k)`` is
    the z-component of bond ``1+k``: the lag-``k`` bond correlation.
    """

    name: str
    kind: str
    params: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown observable kind {self.kind!r}; known: {sorted(_KINDS)}")
        letters = _KINDS[self.kind][0]
        if len(self.params) != len(letters):
            raise ValueError(f"observable {self.name!r} of kind {self.kind!r} takes "
                             f"{len(letters)} params, got {len(self.params)}: {self.params!r}")
        for position, (letter, value) in enumerate(zip(letters, self.params)):
            test, want = _PARAM_RULES[letter]
            if not test(value):
                raise ValueError(f"observable {self.name!r}: param {position} of kind "
                                 f"{self.kind!r} must be {want}, got {value!r}")

    def _marks(self, letter: str) -> tuple[int, ...]:
        return tuple(int(v) for c, v in zip(_KINDS[self.kind][0], self.params) if c == letter)

    @property
    def tangent_marks(self) -> tuple[int, ...]:
        return self._marks("T")

    @property
    def position_marks(self) -> tuple[int, ...]:
        return self._marks("P")

    def evaluate(self, rec: dict) -> np.ndarray:
        """This observable's value on each path of a scan record."""
        return _KINDS[self.kind][1](rec, *self.params)


def _stream_key(seed: int, path_index: int) -> np.ndarray:
    """Philox key of path ``path_index``'s stream: ``(seed, path_index)`` as
    two unsigned 64-bit words.  Values outside that range are rejected, not
    wrapped onto another seed's streams."""
    for name, value in (("seed", seed), ("path_index", path_index)):
        if not (_is_int(value) and 0 <= value < 1 << 64):
            raise ValueError(f"{name} must be an integer in [0, 2**64), got {value!r}")
    return np.array([seed, path_index], dtype=np.uint64)


def path_rng(seed: int, path_index: int) -> np.random.Generator:
    """Counter-based stream for one path: Philox keyed by (seed, path_index)."""
    return np.random.Generator(np.random.Philox(key=_stream_key(seed, path_index)))


def _path_streams(seed: int, start: int):
    """``seek(i, pos=0)``: one Generator with the bits of ``path_rng(seed,
    start + i)`` after its first ``pos`` 64-bit draws.

    Philox is counter-based and hands out draws in blocks of 4: each seek
    sets the one Philox to key ``[seed, start + i]`` at counter ``pos // 4``
    with an empty buffer, then drops the ``pos % 4`` draws before ``pos``, so
    a draw can start at any position.  A Philox built per path would read OS
    entropy for a seed that a given key discards.
    """
    bits = np.random.Philox(key=_stream_key(seed, start))
    rng = np.random.Generator(bits)
    counter = [0, 0, 0, 0]
    inner = {"counter": counter, "key": None}
    state = {"bit_generator": "Philox", "state": inner, "buffer": [0, 0, 0, 0],
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def seek(i: int, pos: int = 0) -> np.random.Generator:
        counter[0], skip = divmod(pos, 4)
        inner["key"] = [seed, start + i]
        bits.state = state
        if skip:
            bits.random_raw(skip)
        return rng

    return seek


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
        _freeze(self, **{name: np.asarray(getattr(self, name), dtype=np.float64).copy()
                         for name in ("means", "m2s")})
        k = len(self.observables)
        if self.means.shape != (k,) or self.m2s.shape != (k,):
            raise ValueError("means/m2s length must match the observable list")

    @classmethod
    def from_values(cls, model, seed: int, observables: tuple[Observable, ...],
                    values: np.ndarray) -> "EnsembleSummary":
        """Summary of ``values`` ``(observables, paths)``.  Each row is
        reduced on its own, so its moments do not depend on which other
        observables share the run."""
        values = np.asarray(values, dtype=np.float64)
        means = values.mean(axis=1)
        m2s = np.sum((values - means[:, None]) ** 2, axis=1)
        return cls(model, seed, observables, values.shape[1], means, m2s)

    def _index(self, name: str) -> int:
        for i, obs in enumerate(self.observables):
            if obs.name == name:
                return i
        raise KeyError(f"observable {name!r} not in summary")

    def mean(self, name: str) -> float:
        return float(self.means[self._index(name)])

    def m2(self, name: str) -> float:
        return float(self.m2s[self._index(name)])

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
        n = self.count + other.count
        delta = other.means - self.means
        means = self.means + delta * (other.count / n)
        m2s = self.m2s + other.m2s + delta * delta * (self.count * other.count / n)
        return EnsembleSummary(self.model, self.seed, self.observables, n, means, m2s)


def _chunk_values(model, observables: tuple[Observable, ...], seed: int,
                  start: int, stop: int) -> np.ndarray:
    """Per-path values ``(observables, paths)`` of paths ``start..stop-1``,
    each drawn by its model's one draw function from its own stream, keyed
    ``(seed, start + i)`` as it is sought: a chain's torsions a block at a
    time just ahead of the scan, a continuum path's increments whole."""
    paths = stop - start
    marks = {
        "tangent_marks": tuple(sorted({k for obs in observables for k in obs.tangent_marks})),
        "position_marks": tuple(sorted({k for obs in observables for k in obs.position_marks})),
    }
    seek = _path_streams(seed, start)
    if isinstance(model, FrcConfig):
        rec = _frc_scan(model, _draw_torsions(model, paths, seek), **marks)
    else:
        rec = _kp_scan(model.ell_p, model.h, _draw_increments(model, paths, seek), **marks,
                       track_sup_rod_dev=any(obs.kind == "sup_rod_dev" for obs in observables))
    return np.stack([obs.evaluate(rec) for obs in observables])


def _ensemble_chunk(model, observables, seed, start, stop) -> EnsembleSummary:
    return EnsembleSummary.from_values(
        model, seed, observables, _chunk_values(model, observables, seed, start, stop))


def _in_order(pool, calls, ahead: int):
    """``_ensemble_chunk`` of each of ``calls`` on ``pool``, in order, at most ``ahead`` pending."""
    pending = collections.deque()
    for args in calls:
        pending.append(pool.submit(_ensemble_chunk, *args))
        if len(pending) >= ahead:
            yield pending.popleft().result()
    yield from (part.result() for part in pending)


# A z-tested row divides by the sample stderr of its n_paths values.  Below
# about 30 paths that stderr is itself too noisy (z follows Student's t with
# n_paths - 1 degrees of freedom, far from the normal the threshold assumes),
# and it is large enough to pass any oracle: at 3 paths the correlation
# suite reads |z| <= 0.4.
_MIN_Z_TEST_PATHS = 30


def _check_n_paths(n_paths: int, minimum: int = 2) -> None:
    if _check_count("n_paths", n_paths) < minimum:
        raise ValueError(f"n_paths must be at least {minimum}, got {n_paths}")


def _check_threshold(threshold: float) -> None:
    # a bound row's slack is bound/threshold, and a z-test needs a finite
    # cut: 0 divides by zero, nan fails every row and inf passes every row
    if not (math.isfinite(threshold) and threshold > 0.0):
        raise ValueError(f"threshold must be finite and positive, got {threshold!r}")


def run_ensemble(model, n_paths: int, observables, seed: int, *,
                 workers: int = 1) -> EnsembleSummary:
    """Generate ``n_paths`` independent paths and accumulate observables.

    Path ``i`` draws from the stream keyed by ``(seed, i)``; chunk boundaries
    depend only on the model, so the merged summary is bit-identical for any
    worker count.  ``workers`` is a positive integer count of processes.
    """
    if not isinstance(model, (FrcConfig, KpConfig)):
        raise ValueError(f"model must be FrcConfig or KpConfig, got {type(model).__name__}")
    _check_n_paths(n_paths)
    _check_count("workers", workers)
    _stream_key(seed, n_paths - 1)  # a bad seed fails before any work
    observables = tuple(observables)
    if not observables:
        raise ValueError("observables must be nonempty")
    names = [obs.name for obs in observables]
    if len(set(names)) != len(names):
        raise ValueError("observable names must be unique")
    if isinstance(model, FrcConfig) and any(obs.kind == "sup_rod_dev" for obs in observables):
        raise ValueError("observable kind 'sup_rod_dev' is not valid for FrcConfig")

    per_path = max(1, model.n_bonds - 1) if isinstance(model, FrcConfig) else 2 * model.n_steps
    starts = range(0, n_paths, max(1, min(n_paths, _MAX_CHUNK_PATHS, _CHUNK_BUDGET // per_path)))
    # chunks are made as they run, and reduced one at a time in chunk order
    calls = ((model, observables, seed, start, min(start + starts.step, n_paths))
             for start in starts)
    workers = min(workers, len(starts))
    if workers == 1:
        return functools.reduce(EnsembleSummary.merge, (_ensemble_chunk(*a) for a in calls))
    # a fork start method forks every worker at the first submit; each
    # worker has at most two chunks pending
    from concurrent.futures import ProcessPoolExecutor  # only a pooled run pays its import

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return functools.reduce(EnsembleSummary.merge, _in_order(pool, calls, 2 * workers))


# ---------------------------------------------------------------------------
# comparisons

@dataclass(frozen=True)
class ComparisonReport:
    """One estimate judged against its oracle.

    ``passed`` is reproducible from the stored fields: ``|z_score| <=
    threshold`` with ``z = (estimate - oracle)/stderr`` (zero when the
    estimate is deterministic and exact).  Deterministic bound checks encode
    their slack as ``stderr = bound/threshold``; informational rows carry
    ``threshold = inf`` and always pass.  ``sampled`` is false for a row
    that reads no Monte Carlo mean, whose verdict no seed can change.
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
    sampled: bool = True


# Observables that are deterministic up to float roundoff (e.g. the lag-1
# bond correlation, which the construction fixes exactly) have sample
# standard errors of pure rounding noise; flooring positive stderrs here
# turns their z-test into an absolute comparison at threshold * floor =
# 1e-12, far below every stated statistical tolerance.
_STDERR_FLOOR = 2.5e-13


def _make_report(name: str, estimate: float, stderr: float, oracle: float,
                 threshold: float, *, s: float | None = None,
                 t: float | None = None, sampled: bool = True) -> ComparisonReport:
    if stderr > 0.0:
        stderr = max(stderr, _STDERR_FLOOR)
        z = (estimate - oracle) / stderr
    elif estimate == oracle:
        z = 0.0
    else:
        z = math.copysign(math.inf, estimate - oracle)
    return ComparisonReport(name, s, t, float(estimate), float(stderr), float(oracle),
                            float(z), float(threshold), bool(abs(z) <= threshold), sampled)


def _info_report(name: str, estimate: float, oracle: float, *, s: float | None = None,
                 t: float | None = None) -> ComparisonReport:
    """Informational row (closed-form vs closed-form); never fails."""
    return _make_report(name, estimate, 0.0, oracle, math.inf, s=s, t=t, sampled=False)


@dataclass(frozen=True)
class _Check:
    """A z-tested row: ``scale`` times the mean of ``obs`` against ``oracle``."""

    obs: Observable
    oracle: float
    s: float | None = None
    t: float | None = None
    scale: float = 1.0

    @property
    def reads(self) -> tuple[Observable, ...]:
        return (self.obs,)

    def report(self, summary: EnsembleSummary, threshold: float) -> ComparisonReport:
        name = self.obs.name
        return _make_report(name, self.scale * summary.mean(name),
                            self.scale * summary.stderr(name), self.oracle, threshold,
                            s=self.s, t=self.t)


@dataclass(frozen=True)
class _Bound:
    """A deterministic row: ``value(*means of reads) <= bound``, reported in
    z-score clothing with the slack ``bound/threshold`` as its stderr."""

    name: str
    reads: tuple[Observable, ...]
    value: Callable[..., float]
    bound: float
    s: float | None = None

    def report(self, summary: EnsembleSummary, threshold: float) -> ComparisonReport:
        value = self.value(*(summary.mean(obs.name) for obs in self.reads))
        return _make_report(self.name, max(value, 0.0), self.bound / threshold, 0.0, threshold,
                            s=self.s)


def _run_rows(groups, n_paths: int, seed: int, threshold: float,
              workers: int) -> list[ComparisonReport]:
    """Report the rows of ``groups``, a sequence of ``(model, rows)``, in order.

    A row is a :class:`_Check`, a :class:`_Bound` or a finished
    closed-form :class:`ComparisonReport`.  Each group runs one ensemble of
    ``model`` over what its rows read, with the same ``n_paths`` and
    ``seed``.  Rows whose arclengths snapped onto one grid point share a
    name; each name is reported once, first row first.  The threshold, and
    the ``_MIN_Z_TEST_PATHS`` paths that every suite's z-tested rows need,
    are checked before any group runs.
    """
    _check_threshold(threshold)
    _check_n_paths(n_paths, _MIN_Z_TEST_PATHS)
    reports: dict[str, ComparisonReport] = {}
    for model, rows in groups:
        observables: dict[str, Observable] = {}
        for row in rows:
            if not isinstance(row, ComparisonReport):
                for obs in row.reads:
                    observables.setdefault(obs.name, obs)
        summary = run_ensemble(model, n_paths, observables.values(), seed, workers=workers)
        for row in rows:
            report = row if isinstance(row, ComparisonReport) else row.report(summary, threshold)
            reports.setdefault(report.observable, report)
    return list(reports.values())


def _snap_index(cfg: KpConfig, s: float, name: str = "s") -> int:
    """Nearest grid index of arclength ``s``; a positive ``s`` must not
    snap onto the origin, where every observable is trivially exact."""
    length = cfg.contour_length
    if not (math.isfinite(s) and -1e-9 * length <= s <= length * (1.0 + 1e-12) + 1e-9 * length):
        raise ValueError(f"{name} = {s!r} outside [0, {length!r}]")
    k = min(max(int(round(s / cfg.h)), 0), cfg.n_steps)
    if k == 0 and s > 0.0:
        raise ValueError(f"{name} = {s!r} snaps to grid index 0 (grid step {cfg.h!r}); "
                         f"use more steps")
    return k


def tangent_dot_observable(cfg: KpConfig, s: float, t: float) -> Observable:
    """Q_s . Q_t with both arclengths snapped to the grid."""
    k1 = _snap_index(cfg, s, "s")
    k2 = _snap_index(cfg, t, "t")
    return Observable(f"qq[k1={k1},k2={k2}]", "tangent_dot", (k1, k2))


def msd_observable(cfg: KpConfig, t: float) -> Observable:
    """|R_t|^2 with t snapped to the grid."""
    k = _snap_index(cfg, t, "t")
    return Observable(f"msd[k={k}]", "path_msd", (k,))


def _tangent_check(cfg: KpConfig, s: float, t: float) -> _Check:
    obs = tangent_dot_observable(cfg, s, t)
    s_snap, t_snap = (k * cfg.h for k in obs.params)
    return _Check(obs, kp_tangent_correlation(cfg.ell_p, s_snap, t_snap), s=s_snap, t=t_snap)


def _msd_check(cfg: KpConfig, t: float) -> _Check:
    obs = msd_observable(cfg, t)
    t_snap = obs.params[0] * cfg.h
    return _Check(obs, kp_mean_sq_position(cfg.ell_p, t_snap), t=t_snap)


def estimate_tangent_correlation(summary: EnsembleSummary, s: float, t: float, *,
                                 threshold: float = DEFAULT_Z_THRESHOLD) -> ComparisonReport:
    """Compare the Monte Carlo mean of Q_s . Q_t to exp(-2|t-s|/ell_p)."""
    _check_threshold(threshold)
    if not isinstance(summary.model, KpConfig):
        raise ValueError("tangent correlation estimates need a wormlike-chain summary")
    return _tangent_check(summary.model, s, t).report(summary, threshold)


def estimate_msd(summary: EnsembleSummary, t: float, *,
                 threshold: float = DEFAULT_Z_THRESHOLD) -> ComparisonReport:
    """Compare the Monte Carlo mean of |R_t|^2 to the closed form."""
    _check_threshold(threshold)
    if not isinstance(summary.model, KpConfig):
        raise ValueError("mean-squared-position estimates need a wormlike-chain summary")
    return _msd_check(summary.model, t).report(summary, threshold)


def kp_correlation_suite(cfg: KpConfig, n_paths: int, seed: int, *,
                         s_values=None, threshold: float = DEFAULT_Z_THRESHOLD,
                         workers: int = 1) -> list[ComparisonReport]:
    """Tangent correlation E[Q_0 . Q_s] vs its closed form at several s."""
    if s_values is None:
        length = cfg.contour_length
        s_values = (length / 4.0, length / 2.0, length)
    rows = [_tangent_check(cfg, 0.0, s) for s in s_values]
    return _run_rows([(cfg, rows)], n_paths, seed, threshold, workers)


def kp_msd_suite(cfg: KpConfig, n_paths: int, seed: int, *,
                 t_values=None, threshold: float = DEFAULT_Z_THRESHOLD,
                 workers: int = 1) -> list[ComparisonReport]:
    """Mean squared position E|R_t|^2 vs its closed form at several t."""
    if t_values is None:
        length = cfg.contour_length
        t_values = (length / 2.0, length)
    rows = [_msd_check(cfg, t) for t in t_values]
    return _run_rows([(cfg, rows)], n_paths, seed, threshold, workers)


def frc_reference_suite(cfg: FrcConfig, n_paths: int, seed: int, *,
                        lags=(1, 5, 25), threshold: float = DEFAULT_Z_THRESHOLD,
                        workers: int = 1, include_symmetry: bool = True) -> list[ComparisonReport]:
    """Chain estimates vs the exact chain oracles.

    Bond correlations at the given lags vs cos(theta)^k, the end-to-end
    mean squared distance vs its exact sum, and (optionally) the transverse
    end-bead means vs zero (rotational symmetry about the z axis).
    """
    n = cfg.n_bonds
    lags = tuple(lags)
    if not lags or not all(_is_int(k) and 0 <= k < n for k in lags):
        raise ValueError(f"lags must be integers in 0..{n - 1} for a chain of {n} bonds, "
                         f"got {lags!r}")
    length = cfg.contour_length
    rows = [_Check(Observable(f"frc-corr[k={k}]", "tangent_dot", (1, 1 + k)),
                   frc_bond_correlation_oracle(cfg.bond_angle, k), s=k * cfg.bond_length)
            for k in lags]
    rows.append(_Check(Observable(f"frc-msd[n={n}]", "path_msd", (n,)), frc_msd_oracle(cfg),
                       t=length))
    if include_symmetry:
        rows += [_Check(Observable(f"frc-mean{label}[n={n}]", "coord", (axis, n)), 0.0, t=length)
                 for axis, label in ((0, "x"), (1, "y"))]
    return _run_rows([(cfg, rows)], n_paths, seed, threshold, workers)


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
    monotone non-increasing in N (up to 10% of the smallest gap).  The
    ladder ``n_list`` must strictly increase from N >= 2.  The runner runs
    one group of rows per N; the monotone rows are closed-form rows,
    finished here and reported after them.
    """
    cfgs = [FrcConfig.scaled(n, contour_length, kappa) for n in n_list]
    n_list = [cfg.n_bonds for cfg in cfgs]
    if not n_list or n_list[0] < 2 or any(a >= b for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"n_list must strictly increase from N >= 2, got {n_list}")
    ell_p = 2.0 * contour_length / kappa**2 if kappa**2 > 0.0 else math.inf
    if math.isinf(ell_p):  # kappa**2 underflows to 0, or 2L/kappa**2 overflows
        raise ValueError(f"ell_p = 2L/kappa^2 overflows for L = {contour_length!r}, "
                         f"kappa = {kappa!r}")
    groups = []
    for n, cfg in zip(n_list, cfgs):
        rows = []
        for f in fractions:
            k = min(n - 1, int(round(f * n)))
            s_frc = k * cfg.bond_length
            frc_oracle = frc_bond_correlation_oracle(cfg.bond_angle, k)
            kp_oracle = kp_tangent_correlation(ell_p, 0.0, s_frc)
            rows.append(_Check(Observable(f"frc-corr[N={n},k={k}]", "tangent_dot", (1, 1 + k)),
                               frc_oracle, s=s_frc))
            rows.append(_info_report(f"kp-gap-corr[N={n},f={f}]", frc_oracle, kp_oracle,
                                     s=s_frc))
        frc_msd = frc_msd_oracle(cfg)
        kp_msd = kp_mean_sq_position(ell_p, cfg.contour_length)
        rows.append(_Check(Observable(f"frc-msd[N={n}]", "path_msd", (n,)), frc_msd,
                           t=cfg.contour_length))
        rows.append(_info_report(f"kp-gap-msd[N={n}]", frc_msd, kp_msd, t=cfg.contour_length))
        groups.append((cfg, rows))

    reports = _run_rows(groups, n_paths, seed, threshold, workers)
    if len(n_list) >= 2:
        # per quantity, the gaps |estimate - oracle| of its kp-gap rows in N
        # order; the largest rise from one N to the next is the violation
        names = [f"gap-monotone-corr[f={f}]" for f in fractions] + ["gap-monotone-msd"]
        columns = zip(*([row for row in rows if isinstance(row, ComparisonReport)]
                        for _, rows in groups))
        for name, column in zip(names, columns):
            gaps = [abs(row.estimate - row.oracle) for row in column]
            violation = max([0.0] + [later - earlier for earlier, later in zip(gaps, gaps[1:])])
            reports.append(_make_report(name, violation, 0.1 * min(gaps) / threshold, 0.0,
                                        threshold, sampled=False))
    return reports


def _diagnostics_config(contour_length: float, ell_p: float, n_steps, n_paths: int,
                        grid_points: int, seed: int, threshold: float, workers: int) -> KpConfig:
    """Validate a diagnostics suite's parameters, so that bad input fails
    before any regime warning is printed.  Both suites z-test rows."""
    _check_count("grid_points", grid_points)
    _check_n_paths(n_paths, _MIN_Z_TEST_PATHS)
    _stream_key(seed, n_paths - 1)
    _check_threshold(threshold)
    _check_count("workers", workers)
    return KpConfig.create(contour_length, ell_p, n_steps)


def _rod_ratio(var1: float, var2: float, var3: float) -> float:
    """Longitudinal over mean transverse fluctuation."""
    transverse = 0.5 * (var1 + var2)
    return var3 / transverse if transverse > 0.0 else math.inf


def hard_rod_diagnostics(ell_p: float, contour_length: float, n_paths: int,
                         grid_points: int, seed: int, *,
                         n_steps: int | None = None,
                         threshold: float = DEFAULT_Z_THRESHOLD,
                         workers: int = 1) -> list[ComparisonReport]:
    """Stiff-limit diagnostics: Gaussian bending fluctuations about the rod.

    Checks ``Var(sqrt(ell_p) * R^i_s)`` for the transverse components
    against ``2 * hard_rod_fluctuation_cov(s, s) = 2*s^3/3`` (the factor 2
    is the ``sqrt(2/ell_p)`` frame-step scale of the ``exp(-2|t-s|/ell_p)``
    convention; see the ``analytics`` module docstring), that the scaled
    longitudinal fluctuation is under 0.05 of the transverse ones, and that
    the mean sup-deviation from the rod stays under 0.05; both bounds are
    frozen regression bounds.
    """
    cfg = _diagnostics_config(contour_length, ell_p, n_steps, n_paths, grid_points, seed,
                              threshold, workers)
    rows = []
    for j in range(1, grid_points + 1):
        k = _snap_index(cfg, j * contour_length / grid_points)
        s_snap = k * cfg.h
        oracle = 2.0 * hard_rod_fluctuation_cov(s_snap, s_snap)
        var = tuple(Observable(f"rodvar{i + 1}[k={k}]", "coord_sq", (i, k, center, ell_p))
                    for i, center in enumerate((0.0, 0.0, s_snap)))
        rows += [_Check(var[0], oracle, s=s_snap), _Check(var[1], oracle, s=s_snap),
                 _Bound(f"rodvar3-ratio[k={k}]", var, _rod_ratio, _ROD_RATIO_BOUND, s=s_snap)]
    rows.append(_Bound("rodsup", (Observable("rodsup", "sup_rod_dev"),), float, _ROD_SUP_BOUND))
    if ell_p < 100.0 * contour_length:
        warnings.warn(
            f"hard-rod diagnostics expect ell_p >= 100*L; got ell_p={ell_p!r}, L={contour_length!r}",
            RuntimeWarning, stacklevel=2)
    return _run_rows([(cfg, rows)], n_paths, seed, threshold, workers)


def random_coil_diagnostics(ell_p: float, contour_length: float, n_paths: int,
                            grid_points: int, seed: int, *,
                            n_steps: int | None = None,
                            threshold: float = DEFAULT_Z_THRESHOLD,
                            workers: int = 1) -> list[ComparisonReport]:
    """Flexible-limit diagnostics: the rescaled curve behaves as Brownian motion.

    Per-component variances of ``sqrt(3/ell_p) R_s`` against
    ``random_coil_cov(s, s) = s``, cross-component covariances and
    increment correlations against zero, and the summed variance against the
    exact mean-squared-position form.  The grid must resolve ``ell_p``:
    ``h = L/n_steps <= ell_p/10``, else ``ValueError``.
    """
    cfg = _diagnostics_config(contour_length, ell_p, n_steps, n_paths, grid_points, seed,
                              threshold, workers)
    scale = 3.0 / ell_p
    rows = []
    for g in range(1, grid_points + 1):
        s = g * contour_length / grid_points
        k = _snap_index(cfg, s)
        k_half = _snap_index(cfg, s / 2.0, "s/2")
        s_snap = k * cfg.h
        rows += [_Check(Observable(f"coilvar{i + 1}[k={k}]", "coord_sq", (i, k, 0.0, scale)),
                        random_coil_cov(s_snap, s_snap), s=s_snap) for i in range(3)]
        rows += [_Check(Observable(f"coilcov{i + 1}{j + 1}[k={k}]", "coord_prod",
                                   (i, k, j, k, scale)), 0.0, s=s_snap)
                 for i, j in ((0, 1), (0, 2), (1, 2))]
        rows += [_Check(Observable(f"coilincr{i + 1}[k={k}]", "incr_prod",
                                   (i, k_half, k, scale)), 0.0, s=s_snap) for i in range(3)]
        rows.append(_Check(Observable(f"coilsum[k={k}]", "path_msd", (k,)),
                           scale * kp_mean_sq_position(ell_p, s_snap), s=s_snap, scale=scale))
    # a coarser grid biases the rows by many stderrs: at ell_p = 0.01 and
    # 4000 paths, coilsum reads z = -15.6 at h = ell_p, -5.8 at ell_p/4 and
    # -1.0 at ell_p/10
    if cfg.h > ell_p / 10.0:
        _check_size(f"ell_p = {ell_p!r} at h <= ell_p/10", 10.0 * contour_length / ell_p)
        raise ValueError(
            f"random-coil diagnostics need a grid step h <= ell_p/10; got h={cfg.h!r} for "
            f"ell_p={ell_p!r}; use n_steps >= {math.ceil(10.0 * contour_length / ell_p)}")
    if ell_p > contour_length / 100.0:
        warnings.warn(
            f"random-coil diagnostics expect ell_p <= L/100; got ell_p={ell_p!r}, L={contour_length!r}",
            RuntimeWarning, stacklevel=2)
    return _run_rows([(cfg, rows)], n_paths, seed, threshold, workers)


# ---------------------------------------------------------------------------
# serialization

def reports_to_dicts(reports) -> list[dict]:
    """Report rows as dicts under the report-file names (``z``, ``pass``)."""
    renamed = {"z_score": "z", "passed": "pass"}
    return [{renamed.get(key, key): value for key, value in asdict(r).items()}
            for r in reports]


_CSV_COLUMNS = ("observable", "s", "t", "estimate", "stderr", "oracle", "z", "pass")


def write_reports_csv(reports, fileobj) -> None:
    """Columns: observable, s, t, estimate, stderr, oracle, z, pass; numbers
    as ``repr`` (exact round trip), a missing arclength as an empty cell."""
    import csv

    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for row in reports_to_dicts(reports):
        writer.writerow(["" if row[c] is None else row[c] if c == "observable" else repr(row[c])
                         for c in _CSV_COLUMNS])

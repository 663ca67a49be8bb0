import concurrent.futures
import io
import math
import re
import tracemalloc
import warnings
from concurrent.futures import Future

import numpy as np
import pytest
from torsions import whole_row_torsions

import wormchain.chain as chain_module
import wormchain.estimators as est
from wormchain.analytics import hard_rod_fluctuation_cov, kp_tangent_correlation
from wormchain.chain import FrcConfig, _frc_scan, frc_msd_oracle, sample_frc
from wormchain.estimators import (
    ComparisonReport,
    EnsembleSummary,
    Observable,
    convergence_table,
    estimate_msd,
    estimate_tangent_correlation,
    frc_reference_suite,
    hard_rod_diagnostics,
    kp_correlation_suite,
    kp_msd_suite,
    msd_observable,
    path_rng,
    random_coil_diagnostics,
    run_ensemble,
    tangent_dot_observable,
    write_reports_csv,
)
from wormchain.kp import KpConfig, _kp_scan, simulate_kp
from wormchain.so3 import segment_plan


def summary_of(values, model=None, seed=0):
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    obs = tuple(Observable(f"v{i}", "path_msd", (0,)) for i in range(values.shape[1]))
    model = model or KpConfig(1.0, 1.0, 4)
    return EnsembleSummary.from_values(model, seed, obs, values.T)  # (observables, paths)


class TestPathRng:
    def test_reproducible(self):
        a = path_rng(42, 3).normal(size=5)
        b = path_rng(42, 3).normal(size=5)
        assert np.array_equal(a, b)

    def test_distinct_streams(self):
        a = path_rng(42, 0).normal(size=5)
        b = path_rng(42, 1).normal(size=5)
        c = path_rng(43, 0).normal(size=5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("seed, index, name", [
        (-1, 0, "seed"), (2**64, 0, "seed"), (1.5, 0, "seed"), (1, -1, "path_index"),
        (1, 2**64, "path_index")])
    def test_key_out_of_range(self, seed, index, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer in \\[0, 2\\*\\*64\\)"):
            path_rng(seed, index)

    @pytest.mark.parametrize("pos", [1, 2, 3, 4098])
    def test_seek_starts_inside_a_philox_block(self, pos):
        # Philox hands out draws in blocks of 4; a seek to a position inside
        # one drops the draws before it
        seek = est._path_streams(7, 0)
        ahead = path_rng(7, 1).random(size=pos + 8)[pos:]
        assert np.array_equal(seek(1, pos).random(size=ahead.size), ahead)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_run_rejects_a_seed_outside_the_key(self, seed):
        # -1 once ran the streams of 2**64 - 1, and 2**64 those of 0
        cfg = KpConfig(1.0, 1.0, 8)
        obs = (msd_observable(cfg, 1.0),)
        with pytest.raises(ValueError, match="seed must be an integer"):
            run_ensemble(cfg, 30, obs, seed=seed)


class TestEnsembleSummary:
    def test_mean_and_stderr_formulas(self):
        values = np.array([1.0, 2.0, 4.0, 7.0])
        s = summary_of(values)
        assert s.mean("v0") == pytest.approx(values.mean(), rel=1e-15)
        expected_se = values.std(ddof=1) / math.sqrt(len(values))
        assert s.stderr("v0") == pytest.approx(expected_se, rel=1e-12)
        assert s.stderr("v0") == pytest.approx(math.sqrt(s.m2("v0") / (4 * 3)), rel=1e-15)

    def test_merge_equals_concatenation(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(997, 3)) * np.array([1.0, 50.0, 1e-4])
        whole = summary_of(values)
        for cut in (1, 313, 996):
            merged = summary_of(values[:cut]).merge(summary_of(values[cut:]))
            assert merged.count == whole.count
            assert np.allclose(merged.means, whole.means, rtol=1e-10)
            assert np.allclose(merged.m2s, whole.m2s, rtol=1e-10)

    def test_merge_commutative_and_associative(self):
        rng = np.random.default_rng(6)
        parts = [summary_of(rng.normal(size=(n, 2))) for n in (11, 40, 7)]
        a, b, c = parts
        ab_c = a.merge(b).merge(c)
        a_bc = a.merge(b.merge(c))
        ba_c = b.merge(a).merge(c)
        for other in (a_bc, ba_c):
            assert np.allclose(ab_c.means, other.means, rtol=1e-10)
            assert np.allclose(ab_c.m2s, other.m2s, rtol=1e-10)

    def test_merge_requires_same_run(self):
        a = summary_of([1.0, 2.0], seed=0)
        b = summary_of([3.0, 4.0], seed=1)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_unknown_observable(self):
        with pytest.raises(KeyError):
            summary_of([1.0, 2.0]).mean("nope")

    @pytest.mark.parametrize("means, m2s", [([1.0, 2.0], [0.0]), ([1.0], [0.0, 0.0]),
                                            ([[1.0]], [0.0])])
    def test_moments_must_match_the_observables(self, means, m2s):
        obs = (Observable("v0", "path_msd", (0,)),)
        with pytest.raises(ValueError, match="means/m2s length must match the observable list"):
            EnsembleSummary(KpConfig(1.0, 1.0, 4), 0, obs, 2, means, m2s)

    def test_stderr_needs_two_paths(self):
        # M2 / (n (n - 1)) once divided by zero at one path
        with pytest.raises(ValueError, match="stderr needs at least two paths"):
            summary_of([3.0]).stderr("v0")

    def test_merge_requires_same_observables(self):
        a, b = (EnsembleSummary.from_values(KpConfig(1.0, 1.0, 4), 0,
                                            (Observable(name, "path_msd", (0,)),), [[1.0, 2.0]])
                for name in "ab")
        with pytest.raises(ValueError, match="cannot merge summaries with different observables"):
            a.merge(b)


class TestRunEnsemble:
    def test_pinned_origin_has_zero_spread(self):
        cfg = FrcConfig.scaled(8, 1.0, 1.0)
        obs = tuple(Observable(f"R0{c}", "coord", (i, 0)) for i, c in enumerate("xyz"))
        summary = run_ensemble(cfg, 2, obs, seed=3)
        for name in ("R0x", "R0y", "R0z"):
            assert summary.mean(name) == 0.0
            assert summary.stderr(name) == 0.0

    def test_initial_tangent_is_exact(self):
        cfg = KpConfig(1.0, 1.0, 16)
        obs = (Observable("q0", "tangent_dot", (0, 0)),)
        summary = run_ensemble(cfg, 8, obs, seed=3)
        assert summary.mean("q0") == 1.0
        assert summary.stderr("q0") == 0.0

    def test_worker_count_does_not_change_bits(self, monkeypatch):
        monkeypatch.setattr(est, "_CHUNK_BUDGET", 2 * 16 * 7)  # force several chunks
        cfg = KpConfig(1.0, 1.0, 16)
        obs = (tangent_dot_observable(cfg, 0.0, 1.0), msd_observable(cfg, 1.0))
        serial = run_ensemble(cfg, 40, obs, seed=12, workers=1)
        parallel = run_ensemble(cfg, 40, obs, seed=12, workers=4)
        assert serial.count == parallel.count == 40
        assert np.array_equal(serial.means, parallel.means)
        assert np.array_equal(serial.m2s, parallel.m2s)

    def test_worker_count_does_not_change_chain_bits(self, monkeypatch):
        # 40 chains of 59 torsions in chunks of 12, 12, 12 and 4, each in 7
        # segments of 9 steps; a torsion block of 100 doubles holds 1 step
        # of a 12-chain chunk and 3 of the 4-chain one, so every chunk
        # streams its torsions in several blocks
        monkeypatch.setattr(est, "_CHUNK_BUDGET", 12 * 59)
        cfg = FrcConfig.scaled(60, 1.0, 1.0)
        obs = (Observable("corr", "tangent_dot", (1, 8)), Observable("msd", "path_msd", (60,)),
               Observable("x", "coord", (0, 31)))
        whole = run_ensemble(cfg, 40, obs, seed=12, workers=1)
        monkeypatch.setattr(chain_module, "_TORSION_BLOCK", 100)
        for paths, steps in ((12, 1), (4, 3)):
            assert segment_plan(paths, 59) == (7, 9)
            assert chain_module._draw_torsions(cfg, paths, None).block.shape[2] == steps
        serial = run_ensemble(cfg, 40, obs, seed=12, workers=1)
        parallel = run_ensemble(cfg, 40, obs, seed=12, workers=2)
        for summary in (serial, parallel):
            assert summary.count == 40
            assert np.array_equal(summary.means, whole.means)
            assert np.array_equal(summary.m2s, whole.m2s)

    def test_pool_is_no_wider_than_the_chunk_count(self, monkeypatch):
        # a fork start method forks every worker at the first submit, so an
        # uncapped pool would fork idle processes; this pool starts none.
        # Chunks are reduced in order as they arrive, so at most two per
        # worker are pending.
        monkeypatch.setattr(est, "_CHUNK_BUDGET", 2 * 16 * 7)  # 40 paths in 6 chunks
        widths, peaks, pending = [], [], [0]

        class Done(Future):
            def result(self, timeout=None):
                pending[0] -= 1
                return super().result(timeout)

        class SerialPool:
            def __init__(self, max_workers):
                widths.append(max_workers)
                peaks.append(0)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                pending[0] += 1
                peaks[-1] = max(peaks[-1], pending[0])
                done = Done()
                done.set_result(fn(*args))
                return done

        # run_ensemble imports the pool where it makes one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        cfg = KpConfig(1.0, 1.0, 16)
        obs = (tangent_dot_observable(cfg, 0.0, 1.0),)
        serial = run_ensemble(cfg, 40, obs, seed=12, workers=1)
        for workers in (5000, 3, 2):
            pooled = run_ensemble(cfg, 40, obs, seed=12, workers=workers)
            assert np.array_equal(pooled.means, serial.means)
            assert np.array_equal(pooled.m2s, serial.m2s)
        assert widths == [6, 3, 2]
        assert peaks == [6, 6, 4] and pending == [0]

    def test_chunks_are_not_listed_before_they_run(self, monkeypatch):
        # 2**32 paths are 2**20 chunks; listing every range before the first
        # chunk ran once took 137 MB and 4.4 s
        def first_chunk_fails(*args):
            raise RuntimeError("first chunk ran")

        monkeypatch.setattr(est, "_ensemble_chunk", first_chunk_fails)
        cfg = KpConfig(1.0, 1.0, 8)
        tracemalloc.start()
        try:
            with pytest.raises(RuntimeError, match="first chunk ran"):
                run_ensemble(cfg, 2**32, (msd_observable(cfg, 1.0),), seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_chain_chunk_draws_its_torsions_a_block_at_a_time(self):
        # the largest chain chunk, 1677 chains of 9999 torsions, once held
        # all its torsions at once: 134 MB, and then a 32 MB block
        cfg = FrcConfig.scaled(10_000, 1.0, math.sqrt(2.0))
        obs = (Observable("end", "path_msd", (10_000,)),)
        tracemalloc.start()
        try:
            est._chunk_values(cfg, obs, 5, 0, 1677)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24e6

    def test_chunked_matches_single_chunk(self, monkeypatch):
        cfg = KpConfig(1.0, 1.0, 16)
        obs = (msd_observable(cfg, 1.0),)
        whole = run_ensemble(cfg, 60, obs, seed=9)
        monkeypatch.setattr(est, "_CHUNK_BUDGET", 2 * 16 * 11)
        chunked = run_ensemble(cfg, 60, obs, seed=9)
        assert np.allclose(whole.means, chunked.means, rtol=1e-12)
        assert np.allclose(whole.m2s, chunked.m2s, rtol=1e-10)

    def test_ensemble_paths_match_per_path_streams(self):
        # path i of the ensemble is exactly sample i's private stream
        cfg = KpConfig(1.0, 1.0, 32)
        obs = (msd_observable(cfg, 1.0),)
        summary = run_ensemble(cfg, 3, obs, seed=21)
        values = []
        for i in range(3):
            path = simulate_kp(cfg, path_rng(21, i))
            values.append(float(np.dot(path.positions[-1], path.positions[-1])))
        assert summary.mean("msd[k=32]") == pytest.approx(np.mean(values), rel=1e-15)

    def test_chain_paths_match_per_path_streams(self):
        # chain i of an ensemble chunk is bit for bit the chain sampled from
        # stream (seed, i): both draw their torsions the same way, and one
        # chain and a chunk of three share the segment plan here
        cfg = FrcConfig.scaled(40, 1.0, 1.0)
        obs = tuple(Observable(f"end{c}", "coord", (i, 40)) for i, c in enumerate("xyz"))
        ends = est._chunk_values(cfg, obs, 21, 0, 3).T
        for i in range(3):
            assert np.array_equal(ends[i], sample_frc(cfg, path_rng(21, i)).beads[-1])

    def test_kp_chunk_rows_are_the_per_path_draws(self, monkeypatch):
        # row i of a KP chunk is bit for bit path i's own driver; 7 steps
        # take 14 normals, which leaves the Philox buffer part-used, so a
        # stream that kept the previous path's buffer would show
        cfg = KpConfig(1.0, 1.0, 7)
        seen = []
        scan = est._kp_scan

        def spy(ell_p, h, dbeta, **kwargs):
            seen.append(dbeta.copy())
            return scan(ell_p, h, dbeta, **kwargs)

        monkeypatch.setattr(est, "_kp_scan", spy)
        est._chunk_values(cfg, (tangent_dot_observable(cfg, 0.0, 1.0),), 21, 3, 8)
        (dbeta,) = seen
        assert dbeta.shape == (5, 7, 2)
        for row, index in enumerate(range(3, 8)):
            expected = path_rng(21, index).normal(0.0, math.sqrt(cfg.h), (7, 2))
            assert np.array_equal(dbeta[row], expected)

    def test_validation(self):
        cfg = KpConfig(1.0, 1.0, 8)
        obs = (Observable("a", "tangent_dot", (0, 8)),)
        with pytest.raises(ValueError):
            run_ensemble(cfg, 1, obs, seed=0)
        with pytest.raises(ValueError):
            run_ensemble(cfg, 4, (), seed=0)
        with pytest.raises(ValueError):
            run_ensemble(cfg, 4, obs + obs, seed=0)  # duplicate names
        with pytest.raises(ValueError):
            run_ensemble(cfg, 4, (Observable("b", "bond_corr", (1,)),), seed=0)
        with pytest.raises(ValueError):
            run_ensemble("not a model", 4, obs, seed=0)

    @pytest.mark.parametrize("n_paths", [2.5, "30", True, 0])
    def test_path_count_must_be_a_positive_integer(self, n_paths):
        # 2.5 once passed the minimum and failed later as a path_index of 1.5
        cfg = KpConfig(1.0, 1.0, 8)
        with pytest.raises(ValueError, match=f"n_paths must be a positive integer, "
                                             f"got {n_paths!r}"):
            run_ensemble(cfg, n_paths, (msd_observable(cfg, 1.0),), seed=0)

    @pytest.mark.parametrize("n_paths", [40, 4200])  # one chunk, and three of 2097, 2097, 6
    @pytest.mark.parametrize("workers", [0, -3, 2.5, "2", True])
    def test_worker_count_must_be_a_positive_integer(self, monkeypatch, workers, n_paths):
        # 0, -3 and True once ran serially; 2.5 ran serially on one chunk and
        # raised TypeError in the pool on three; "2" raised TypeError
        def no_draw(*args, **kwargs):
            raise AssertionError("a chunk ran or a pool was made")

        monkeypatch.setattr(est, "_ensemble_chunk", no_draw)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_draw)
        cfg = KpConfig(1.0, 1.0, 4000)
        message = f"^workers must be a positive integer, got {re.escape(repr(workers))}$"
        with pytest.raises(ValueError, match=message):
            run_ensemble(cfg, n_paths, (msd_observable(cfg, 1.0),), seed=0, workers=workers)
        with pytest.raises(ValueError, match=message):
            kp_correlation_suite(cfg, n_paths, seed=0, workers=workers)

    def test_unknown_kind_and_chain_sup_are_rejected(self):
        with pytest.raises(ValueError, match="unknown observable kind"):
            Observable("b", "bond_corr", (1,))
        cfg = FrcConfig.scaled(8, 1.0, 1.0)
        with pytest.raises(ValueError, match="sup_rod_dev"):
            run_ensemble(cfg, 4, (Observable("sup", "sup_rod_dev"),), seed=0)


class TestObservables:
    def test_marks_come_from_the_kind_table(self):
        assert Observable("a", "tangent_dot", (3, 7)).tangent_marks == (3, 7)
        assert Observable("a", "tangent_dot", (3, 7)).position_marks == ()
        assert Observable("b", "coord_prod", (0, 2, 1, 5, 1.0)).position_marks == (2, 5)
        assert Observable("c", "incr_prod", (2, 4, 9, 1.0)).position_marks == (4, 9)
        assert Observable("d", "coord", (1, 6)).position_marks == (6,)
        assert Observable("e", "sup_rod_dev").tangent_marks == ()

    @pytest.mark.parametrize("kind, params, message", [
        ("coord", (0,), "takes 2 params, got 1"),
        ("tangent_dot", (0, 1, 2), "takes 2 params, got 3"),
        ("sup_rod_dev", (1,), "takes 0 params, got 1"),
        ("coord", (0, 2.5), "param 1 .* must be a non-negative integer mark, got 2.5"),
        ("tangent_dot", (-1, 4), "param 0 .* must be a non-negative integer mark, got -1"),
        ("path_msd", (True,), "must be a non-negative integer mark, got True"),
        ("coord", (5, 3), "param 0 .* must be a component index 0, 1 or 2, got 5"),
        ("coord_prod", (0, 2, -1, 5, 1.0), "param 2 .* must be a component index"),
        ("coord_sq", (0, 3, "0", 1.0), "param 2 .* must be a real number, got '0'"),
    ])
    def test_params_are_checked_against_the_kind(self, kind, params, message):
        with pytest.raises(ValueError, match=message):
            Observable("o", kind, params)

    def test_numpy_scalars_are_valid_params(self):
        obs = Observable("o", "coord_sq", (np.int64(2), np.int64(4), np.float64(0.5), 3))
        assert obs.position_marks == (4,)

    @pytest.mark.parametrize("paths,n", [(1, 20_000), (3, 997), (83, 400)])
    def test_kept_path_is_the_marked_scan(self, paths, n):
        # a full path is the marks on every state: one record, one map, so
        # the same bits in every time segment
        assert segment_plan(paths, n)[0] > 1
        rng = np.random.default_rng(n)
        every = tuple(range(n + 1))
        dbeta = rng.normal(scale=0.1, size=(paths, n, 2))
        kept = np.full((2, paths, n + 1, 3), np.nan)
        _kp_scan(1.0, 0.01, dbeta, keep=tuple(kept))
        marked = _kp_scan(1.0, 0.01, dbeta, tangent_marks=every, position_marks=every)
        for k in every:
            assert np.array_equal(kept[0][:, k], marked["tangents"][k])
            assert np.array_equal(kept[1][:, k], marked["positions"][k])
        # a chain of n + 1 bonds scans n torsion steps
        cfg = FrcConfig.raw(n + 1, 0.5, 0.7)
        phis = whole_row_torsions(rng.uniform(0.0, 2.0 * math.pi, size=(paths, n)))
        beads = np.zeros((paths, n + 2, 3))
        _frc_scan(cfg, phis, beads=beads)
        marked = _frc_scan(cfg, phis, position_marks=tuple(range(n + 2)))
        for m in range(n + 2):
            assert np.array_equal(beads[:, m], marked["positions"][m])

    def test_chain_record_is_keyed_by_bond_and_bead(self):
        # bond 1 is exactly e3, so T_1 . T_{1+k} is the z-component of bond
        # 1+k bit for bit; beads are the kept path's beads
        cfg = FrcConfig.scaled(12, 1.0, 1.3)
        phis = whole_row_torsions(np.random.default_rng(3).uniform(0.0, 2.0 * math.pi, (5, 11)))
        rec = _frc_scan(cfg, phis, tangent_marks=(1, 4, 12), position_marks=(0, 5, 12))
        assert np.array_equal(rec["tangents"][1], np.tile([0.0, 0.0, 1.0], (5, 1)))
        for k in (3, 11):
            corr = Observable("c", "tangent_dot", (1, 1 + k)).evaluate(rec)
            assert np.array_equal(corr, rec["tangents"][1 + k][:, 2])
        beads = np.zeros((5, 13, 3))
        _frc_scan(cfg, phis, beads=beads)
        for m in (0, 5, 12):
            assert np.allclose(rec["positions"][m], beads[:, m], rtol=0.0, atol=1e-14)
        msd = Observable("m", "path_msd", (12,)).evaluate(rec)
        assert np.array_equal(msd, np.sum(rec["positions"][12] ** 2, axis=1))
        assert np.array_equal(Observable("x", "coord", (0, 5)).evaluate(rec),
                              rec["positions"][5][:, 0])


class TestComparisonReports:
    def test_trivial_equal_arclengths(self):
        cfg = KpConfig(1.0, 1.0, 100)
        summary = run_ensemble(cfg, 16, (tangent_dot_observable(cfg, 0.5, 0.5),), seed=4)
        report = estimate_tangent_correlation(summary, 0.5, 0.5)
        assert report.estimate == 1.0
        assert report.stderr == 0.0
        assert report.z_score == 0.0
        assert report.passed

    def test_oracle_values_on_report(self):
        cfg = KpConfig(1.0, 1.0, 100)
        obs = (tangent_dot_observable(cfg, 0.0, 1.0), tangent_dot_observable(cfg, 0.0, 0.5))
        summary = run_ensemble(cfg, 64, obs, seed=4)
        r1 = estimate_tangent_correlation(summary, 0.0, 1.0)
        assert r1.oracle == pytest.approx(0.1353353, abs=1e-7)
        r2 = estimate_tangent_correlation(summary, 0.0, 0.5)
        assert r2.oracle == pytest.approx(0.3678794, abs=1e-7)

    def test_only_rows_that_read_a_mean_are_sampled(self):
        # an unsampled row's verdict is the same at every seed
        reports = {r.observable: r for r in convergence_table(1.0, math.sqrt(2), [4, 16], 30,
                                                              seed=1, fractions=(1.0,))}
        assert reports["frc-corr[N=4,k=3]"].sampled
        assert not reports["kp-gap-corr[N=4,f=1.0]"].sampled
        assert not reports["gap-monotone-corr[f=1.0]"].sampled
        rod = {r.observable: r for r in hard_rod_diagnostics(1.0e4, 1.0, 30, 1, seed=0,
                                                             n_steps=50)}
        assert rod["rodsup"].sampled

    def test_snapping_is_reported(self):
        cfg = KpConfig(1.0, 1.0, 10)
        summary = run_ensemble(cfg, 8, (tangent_dot_observable(cfg, 0.0, 0.333),), seed=4)
        report = estimate_tangent_correlation(summary, 0.0, 0.333)
        assert report.t == pytest.approx(0.3)
        assert report.oracle == pytest.approx(kp_tangent_correlation(1.0, 0.0, 0.3))

    @pytest.mark.parametrize("s, t, name", [(0.0, 1.5, "t"), (-0.5, 0.5, "s"),
                                            (math.nan, 0.5, "s"), (0.0, math.inf, "t")])
    def test_arclength_outside_the_path_is_rejected(self, s, t, name):
        cfg = KpConfig(1.0, 1.0, 10)
        value = s if name == "s" else t
        with pytest.raises(ValueError, match=rf"{name} = {value!r} outside \[0, 1.0\]"):
            tangent_dot_observable(cfg, s, t)
        if name == "t":
            with pytest.raises(ValueError, match=rf"t = {t!r} outside \[0, 1.0\]"):
                msd_observable(cfg, t)

    def test_estimates_need_a_wormlike_chain_summary(self):
        cfg = FrcConfig.scaled(10, 1.0, 1.0)
        summary = run_ensemble(cfg, 4, (Observable("msd[k=5]", "path_msd", (5,)),), seed=1)
        with pytest.raises(ValueError, match="tangent correlation estimates need a wormlike"):
            estimate_tangent_correlation(summary, 0.0, 0.5)
        with pytest.raises(ValueError, match="mean-squared-position estimates need a wormlike"):
            estimate_msd(summary, 0.5)

    def test_msd_at_zero(self):
        cfg = KpConfig(1.0, 1.0, 10)
        summary = run_ensemble(cfg, 8, (msd_observable(cfg, 0.0),), seed=4)
        report = estimate_msd(summary, 0.0)
        assert report.estimate == 0.0 and report.oracle == 0.0 and report.passed

    def test_positive_arclength_snapping_to_origin_is_rejected(self):
        # t = 0.5 on a one-step grid rounds to index 0, where |R|^2 = 0 is
        # exact and the row would pass vacuously
        cfg = KpConfig(1.0, 1.0, 1)
        with pytest.raises(ValueError, match="snaps to grid index 0"):
            msd_observable(cfg, 0.5)
        with pytest.raises(ValueError, match="snaps to grid index 0"):
            tangent_dot_observable(cfg, 0.0, 0.25)
        with pytest.raises(ValueError, match="snaps to grid index 0"):
            kp_msd_suite(cfg, 100, seed=1)
        with pytest.raises(ValueError, match="s/2"):
            random_coil_diagnostics(0.001, 1.0, 100, 4, seed=1, n_steps=3)
        assert msd_observable(cfg, 0.0).params == (0,)
        assert msd_observable(cfg, 0.75).params == (1,)

    def test_estimates_match_suite_rows(self):
        cfg = KpConfig(1.0, 1.0, 40)
        summary = run_ensemble(cfg, 60, (tangent_dot_observable(cfg, 0.0, 0.5),), seed=7)
        assert kp_correlation_suite(cfg, 60, seed=7, s_values=(0.5,)) == \
            [estimate_tangent_correlation(summary, 0.0, 0.5)]
        summary = run_ensemble(cfg, 60, (msd_observable(cfg, 0.5),), seed=7)
        assert kp_msd_suite(cfg, 60, seed=7, t_values=(0.5,)) == [estimate_msd(summary, 0.5)]

    def test_row_moments_do_not_depend_on_other_rows(self):
        # an unrelated observable in the same run must not move a row's bits
        cfg = KpConfig(1.0, 1.0, 40)
        alone, = kp_correlation_suite(cfg, 60, seed=7, s_values=(0.5,))
        obs = (tangent_dot_observable(cfg, 0.0, 0.5), msd_observable(cfg, 0.5))
        shared = estimate_tangent_correlation(run_ensemble(cfg, 60, obs, seed=7), 0.0, 0.5)
        assert shared.estimate == alone.estimate
        assert shared.stderr == alone.stderr

    @pytest.mark.parametrize("threshold", [0.0, math.nan, -1.0, math.inf])
    def test_threshold_must_be_finite_and_positive(self, threshold):
        # nan once failed every row and inf passed every row; 0 divided by
        # zero in a bound row.  The suites check it before any sampling and
        # before any regime warning (which would raise here as an error)
        cfg = KpConfig(1.0, 1.0, 40)
        summary = run_ensemble(cfg, 8, (msd_observable(cfg, 0.5),), seed=4)
        calls = (lambda: estimate_msd(summary, 0.5, threshold=threshold),
                 lambda: estimate_tangent_correlation(summary, 0.0, 0.5, threshold=threshold),
                 lambda: kp_msd_suite(cfg, 30, seed=1, threshold=threshold),
                 lambda: convergence_table(1.0, 1.0, [4, 8], 30, seed=1, threshold=threshold),
                 lambda: hard_rod_diagnostics(10.0, 1.0, 30, 1, seed=0, n_steps=50,
                                              threshold=threshold),
                 lambda: random_coil_diagnostics(0.5, 1.0, 30, 1, seed=0, n_steps=50,
                                                 threshold=threshold))
        for call in calls:
            with pytest.raises(ValueError, match="threshold must be finite and positive"):
                call()

    def test_pass_flag_reproducible_from_fields(self):
        cfg = KpConfig(1.0, 1.0, 200)
        reports = kp_correlation_suite(cfg, 200, seed=8)
        reports += kp_msd_suite(cfg, 200, seed=8)
        reports += convergence_table(1.0, math.sqrt(2), [4, 16], 200, seed=8)
        for r in reports:
            if r.stderr > 0:
                z = (r.estimate - r.oracle) / r.stderr
            elif r.estimate == r.oracle:
                z = 0.0
            else:
                z = math.copysign(math.inf, r.estimate - r.oracle)
            assert z == r.z_score or (math.isinf(z) and math.isinf(r.z_score))
            assert r.passed == (abs(z) <= r.threshold)


class TestSuites:
    def test_correlation_suite_tracks_oracle(self):
        cfg = KpConfig(1.0, 1.0, 500)
        reports = kp_correlation_suite(cfg, 3000, seed=15)
        assert len(reports) == 3
        assert all(r.passed for r in reports), [(r.observable, r.z_score) for r in reports]

    def test_msd_suite_tracks_oracle(self):
        cfg = KpConfig(1.0, 1.0, 500)
        reports = kp_msd_suite(cfg, 3000, seed=16)
        assert all(r.passed for r in reports), [(r.observable, r.z_score) for r in reports]

    def test_frc_reference_suite(self):
        cfg = FrcConfig.scaled(200, 1.0, math.sqrt(2))
        reports = frc_reference_suite(cfg, 3000, seed=17, lags=(1, 5, 25))
        names = [r.observable for r in reports]
        assert "frc-corr[k=1]" in names and "frc-msd[n=200]" in names
        assert "frc-meanx[n=200]" in names
        assert all(r.passed for r in reports), [(r.observable, r.z_score) for r in reports]
        msd_row = next(r for r in reports if r.observable == "frc-msd[n=200]")
        assert msd_row.oracle == pytest.approx(frc_msd_oracle(cfg), rel=1e-14)

    def test_frc_reference_suite_rejects_bad_lags(self):
        # 2.7 once ran as lag 2, and lag 50 was dropped from (1, 50)
        cfg = FrcConfig.scaled(10, 1.0, 1.0)
        for lags in [(100,), (2.7,), (50,), (1, 50), (-1,), (True,), ("3",), ()]:
            with pytest.raises(ValueError, match=r"lags must be integers in 0\.\.9 for a chain "
                                                 f"of 10 bonds, got {re.escape(repr(lags))}"):
                frc_reference_suite(cfg, 30, seed=0, lags=lags)

    def test_frc_reference_suite_default_lags_need_26_bonds(self):
        with pytest.raises(ValueError, match="lags must be integers in 0..24"):
            frc_reference_suite(FrcConfig.scaled(25, 1.0, 1.0), 30, seed=0)
        names = [r.observable for r in frc_reference_suite(FrcConfig.scaled(26, 1.0, 1.0), 30,
                                                           seed=0)]
        assert names[:3] == ["frc-corr[k=1]", "frc-corr[k=5]", "frc-corr[k=25]"]

    def test_convergence_table_structure(self):
        reports = convergence_table(1.0, math.sqrt(2), [4, 16], 400, seed=18,
                                    fractions=(0.5, 1.0))
        names = [r.observable for r in reports]
        assert "frc-corr[N=4,k=2]" in names
        assert "frc-corr[N=16,k=8]" in names
        assert "kp-gap-corr[N=4,f=1.0]" in names
        assert "gap-monotone-corr[f=1.0]" in names
        assert "gap-monotone-msd" in names
        # exact-oracle rows must pass even at tiny N
        frc_rows = [r for r in reports if r.observable.startswith("frc-")]
        assert frc_rows and all(r.passed for r in frc_rows), \
            [(r.observable, r.z_score) for r in frc_rows]
        # informational gap rows never fail
        gap_rows = [r for r in reports if r.observable.startswith("kp-gap")]
        assert gap_rows and all(r.passed for r in gap_rows)

    def test_convergence_table_runs_one_ensemble_per_n(self, monkeypatch):
        # the monotone-gap rows are closed-form rows that the suite finishes:
        # the runner gets one group per N, each with a model and rows that
        # read an observable, and the monotone rows come last, unsampled
        seen = []
        run_rows = est._run_rows

        def spy(groups, *args):
            seen.extend(groups)
            return run_rows(groups, *args)

        monkeypatch.setattr(est, "_run_rows", spy)
        reports = convergence_table(1.0, math.sqrt(2), [4, 16], 40, seed=18)
        assert [model for model, _ in seen] == [FrcConfig.scaled(n, 1.0, math.sqrt(2))
                                                for n in (4, 16)]
        assert all(isinstance(row, ComparisonReport) or row.reads
                   for _, rows in seen for row in rows)
        monotone = [r for r in reports if r.observable.startswith("gap-monotone")]
        assert len(monotone) == 4 and reports[-4:] == monotone
        assert not any(r.sampled for r in monotone)

    def test_convergence_table_smallest_instance(self):
        # N = 2 works and its exact-oracle rows pass
        reports = convergence_table(1.0, 1.0, [2], 200, seed=23, fractions=(1.0,))
        frc_rows = [r for r in reports if r.observable.startswith("frc-")]
        assert frc_rows and all(r.passed for r in frc_rows)

    def test_convergence_table_rejects_invalid_scaling(self):
        with pytest.raises(ValueError):
            convergence_table(1.0, 1.0, [1, 4], 100, seed=0)
        with pytest.raises(ValueError):
            convergence_table(1.0, 4.6, [2], 100, seed=0)  # kappa/sqrt(2) > pi

    @pytest.mark.parametrize("n_list", [[8.9, 16], ["16"], [8, True], [np.float64(8.0)]])
    def test_convergence_table_checks_each_n_uncoerced(self, n_list):
        # 8.9 once ran as N = 8 and "16" as N = 16
        with pytest.raises(ValueError, match="n_bonds must be a positive integer"):
            convergence_table(1.0, 1.4, n_list, 30, seed=1)

    @pytest.mark.parametrize("n_list", [[8, 8], [32, 8], [8, 32, 16], []])
    def test_convergence_ladder_must_strictly_increase(self, n_list):
        # a repeated N once wrote duplicate row names, and a falling ladder
        # checked the gaps in the wrong direction
        with pytest.raises(ValueError, match=f"n_list must strictly increase from N >= 2, "
                                             rf"got \[{', '.join(map(str, n_list))}\]"):
            convergence_table(1.0, 1.4, n_list, 30, seed=1)

    def test_convergence_gaps_shrink_toward_the_continuum(self):
        reports = convergence_table(1.0, math.sqrt(2), [100, 400, 1600], 50, seed=19,
                                    fractions=(1.0,))
        monotone = [r for r in reports if r.observable.startswith("gap-monotone")]
        assert monotone and all(r.passed for r in monotone), \
            [(r.observable, r.estimate, r.stderr) for r in monotone]

    def test_hard_rod_diagnostics_reports_known_transverse_mismatch(self):
        # Under the exp(-2|t-s|/ell_p) correlation convention the transverse
        # tangent near the rod is sqrt(2/ell_p) times a standard Brownian
        # motion, so the transverse variance oracle is 2 s^3/3: twice the
        # integrated-standard-Brownian covariance.  All rows pass.
        reports = hard_rod_diagnostics(1.0e4, 1.0, 600, 1, seed=20, n_steps=400)
        var_rows = [r for r in reports if r.observable.startswith(("rodvar1", "rodvar2"))]
        assert len(var_rows) == 2
        for r in var_rows:
            assert r.oracle == pytest.approx(2.0 * hard_rod_fluctuation_cov(1.0, 1.0), rel=1e-12)
            assert abs(r.estimate - r.oracle) <= 4.0 * r.stderr
            assert r.passed
        ratio_row = next(r for r in reports if r.observable.startswith("rodvar3-ratio"))
        assert ratio_row.passed
        sup_row = next(r for r in reports if r.observable == "rodsup")
        assert sup_row.passed

    def test_collapsed_grid_points_give_each_row_once(self):
        # 16 grid points on 10 steps snap onto 10 grid indices
        reports = hard_rod_diagnostics(1.0e4, 1.0, 200, 16, seed=4, n_steps=10)
        names = [r.observable for r in reports]
        assert len(names) == len(set(names)) == 3 * 10 + 1
        assert names[-1] == "rodsup"
        cfg = KpConfig(1.0, 1.0, 10)
        reports = kp_correlation_suite(cfg, 50, seed=4, s_values=(0.5, 0.52, 0.5, 1.0))
        assert [r.observable for r in reports] == ["qq[k1=0,k2=5]", "qq[k1=0,k2=10]"]
        # N = 2: the lags of f = 0.5 and f = 1.0 are both 1
        reports = convergence_table(1.0, 1.0, [2, 4], 50, seed=4)
        names = [r.observable for r in reports]
        assert len(names) == len(set(names))
        assert names.count("frc-corr[N=2,k=1]") == 1

    def test_z_tested_suites_need_30_paths(self):
        cfg = KpConfig(1.0, 1.0, 40)
        suites = (lambda n: kp_correlation_suite(cfg, n, seed=1),
                  lambda n: kp_msd_suite(cfg, n, seed=1),
                  lambda n: frc_reference_suite(FrcConfig.scaled(30, 1.0, 1.0), n, seed=1),
                  lambda n: convergence_table(1.0, 1.0, [4, 8], n, seed=1),
                  lambda n: hard_rod_diagnostics(1.0e4, 1.0, n, 1, seed=1, n_steps=40),
                  lambda n: random_coil_diagnostics(0.01, 1.0, n, 1, seed=1, n_steps=1000))
        for suite in suites:
            with pytest.raises(ValueError, match="n_paths must be at least 30, got 29"):
                suite(29)
            assert suite(30)
        # an ensemble alone still needs only two paths
        assert run_ensemble(cfg, 2, (msd_observable(cfg, 0.5),), seed=1).count == 2

    def test_diagnostics_reject_empty_grid(self):
        with pytest.raises(ValueError, match="grid_points"):
            hard_rod_diagnostics(1.0e4, 1.0, 8, 0, seed=0, n_steps=50)
        with pytest.raises(ValueError, match="grid_points"):
            random_coil_diagnostics(0.01, 1.0, 8, 0, seed=0, n_steps=50)

    def test_counts_name_their_bound(self):
        # a count past 2**58 once read as "asks for ... steps" whatever it counted
        cfg = KpConfig(1.0, 1.0, 8)
        with pytest.raises(ValueError, match=r"^n_paths must be at most 2\*\*58, got 1\.153e\+18$"):
            run_ensemble(cfg, 2**60, (msd_observable(cfg, 1.0),), seed=0)
        with pytest.raises(ValueError,
                           match=r"^grid_points must be at most 2\*\*58, got 1\.153e\+18$"):
            hard_rod_diagnostics(1.0e4, 1.0, 30, 2**60, seed=0, n_steps=50)
        with pytest.raises(ValueError, match=r"^n_steps asks for 1\.153e\+18 steps"):
            KpConfig(1.0, 1.0, 2**60)

    @pytest.mark.parametrize("grid_points", [True, 2.5])
    def test_diagnostics_grid_points_must_be_a_count(self, grid_points):
        # True once ran one grid point; 2.5 once raised TypeError in range()
        for suite in (hard_rod_diagnostics, random_coil_diagnostics):
            with pytest.raises(ValueError, match="grid_points must be a positive integer"):
                suite(0.01, 1.0, 30, grid_points, seed=0, n_steps=1000)

    def test_hard_rod_regime_warning(self):
        with pytest.warns(RuntimeWarning):
            hard_rod_diagnostics(10.0, 1.0, 30, 1, seed=0, n_steps=50)

    def test_diagnostics_check_workers_before_the_regime_warning(self):
        # both calls would warn about their regime; workers = 0 once warned, then ran
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^workers must be a positive integer, got 0$"):
                hard_rod_diagnostics(10.0, 1.0, 30, 1, seed=0, n_steps=50, workers=0)
            with pytest.raises(ValueError, match="^workers must be a positive integer, got 0$"):
                random_coil_diagnostics(0.5, 1.0, 30, 1, seed=0, n_steps=50, workers=0)

    def test_random_coil_diagnostics(self):
        reports = random_coil_diagnostics(0.01, 1.0, 600, 2, seed=22)
        assert all(r.passed for r in reports), \
            [(r.observable, r.estimate, r.oracle, r.z_score) for r in reports if not r.passed]
        names = {r.observable for r in reports}
        assert any(n.startswith("coilvar1") for n in names)
        assert any(n.startswith("coilcov12") for n in names)
        assert any(n.startswith("coilincr2") for n in names)
        assert any(n.startswith("coilsum") for n in names)

    def test_random_coil_grid_resolution(self):
        with pytest.raises(ValueError, match="n_steps >= 1000"):
            random_coil_diagnostics(0.01, 1.0, 30, 1, seed=0, n_steps=999)
        # h = ell_p/10 exactly is accepted
        assert len(random_coil_diagnostics(0.01, 1.0, 30, 1, seed=0, n_steps=1000)) == 10

    def test_random_coil_regime_warning(self):
        with pytest.warns(RuntimeWarning):
            random_coil_diagnostics(0.5, 1.0, 30, 1, seed=0, n_steps=50)


class TestReportSerialization:
    def test_csv_columns_and_values(self):
        report = ComparisonReport("demo[k=1]", 0.5, None, 1.25, 0.5, 1.0, 0.5, 4.0, True)
        buf = io.StringIO()
        write_reports_csv([report], buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "observable,s,t,estimate,stderr,oracle,z,pass"
        assert lines[1] == "demo[k=1],0.5,,1.25,0.5,1.0,0.5,True"

import io
import math

import numpy as np
import pytest

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
from wormchain.kp import KpConfig, simulate_kp


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

    def test_chain_record_is_keyed_by_bond_and_bead(self):
        # bond 1 is exactly e3, so T_1 . T_{1+k} is the z-component of bond
        # 1+k bit for bit; beads are the kept path's beads
        cfg = FrcConfig.scaled(12, 1.0, 1.3)
        phis = np.random.default_rng(3).uniform(0.0, 2.0 * math.pi, size=(5, 11))
        rec = _frc_scan(cfg, phis, tangent_marks=(1, 4, 12), position_marks=(0, 5, 12))
        assert np.array_equal(rec["tangents"][1], np.tile([0.0, 0.0, 1.0], (5, 1)))
        for k in (3, 11):
            corr = Observable("c", "tangent_dot", (1, 1 + k)).evaluate(rec)
            assert np.array_equal(corr, rec["tangents"][1 + k][:, 2])
        beads = _frc_scan(cfg, phis, keep_beads=True)["beads_all"]
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

    def test_snapping_is_reported(self):
        cfg = KpConfig(1.0, 1.0, 10)
        summary = run_ensemble(cfg, 8, (tangent_dot_observable(cfg, 0.0, 0.333),), seed=4)
        report = estimate_tangent_correlation(summary, 0.0, 0.333)
        assert report.t == pytest.approx(0.3)
        assert report.oracle == pytest.approx(kp_tangent_correlation(1.0, 0.0, 0.3))

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
        cfg = FrcConfig.scaled(4, 1.0, 1.0)
        with pytest.raises(ValueError):
            frc_reference_suite(cfg, 100, seed=0, lags=(100,))

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

    def test_hard_rod_regime_warning(self):
        with pytest.warns(RuntimeWarning):
            hard_rod_diagnostics(10.0, 1.0, 30, 1, seed=0, n_steps=50)

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

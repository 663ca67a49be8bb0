import csv
import io
import math

import numpy as np
import pytest

from wormchain.estimators import path_rng
from wormchain.kp import (
    KpConfig,
    PathSample,
    default_n_steps,
    simulate_kp,
    write_path_csv,
    _draw_increments,
    _kp_scan,
)
from wormchain.so3 import orthonormal_defect

E3 = np.array([0.0, 0.0, 1.0])


class TestKpConfig:
    def test_grid_spacing(self):
        cfg = KpConfig(2.0, 1.0, 400)
        assert cfg.h == pytest.approx(0.005)

    def test_default_steps_floor(self):
        assert default_n_steps(1.0, 1.0) == 1000
        assert default_n_steps(1.0, 1.0e4) == 1000

    def test_default_steps_resolves_correlation_length(self):
        assert default_n_steps(1.0, 1.0e-3) == 100_000
        cfg = KpConfig.create(1.0, 1.0e-3)
        assert cfg.n_steps == 100_000

    @pytest.mark.parametrize("kwargs", [
        dict(contour_length=0.0, ell_p=1.0, n_steps=10),
        dict(contour_length=1.0, ell_p=-1.0, n_steps=10),
        dict(contour_length=1.0, ell_p=1.0, n_steps=0),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            KpConfig(**kwargs)


class TestBrownianDriver:
    """``_draw_increments``, the driver of one path."""

    def test_draw_shape_and_variance(self):
        n = 100_000
        cfg = KpConfig(1000.0, 1.0, n)  # h = 0.01
        increments = _draw_increments(cfg, path_rng(17, 0))
        assert increments.shape == (n, 2)
        sample_var = float(np.var(increments, ddof=1))
        # chi-square bound: relative deviation within 5 sigma of the variance estimator
        assert abs(sample_var / cfg.h - 1.0) <= 5.0 * math.sqrt(2.0 / (2 * n - 1))

    def test_zeros_driver(self):
        # a zero driver leaves the frame exactly the identity, so every
        # tangent of the path is exactly e3
        rec = _kp_scan(1.0, 0.1, np.zeros((1, 10, 2)), keep_path=True, want_final_frame=True)
        assert np.array_equal(rec["final_frame"][0], np.eye(3))
        assert np.array_equal(rec["tangents_all"][0], np.tile(E3, (11, 1)))


def _one_step_frame(ell_p, db1, db2):
    """Frame after one ``_kp_scan`` step from the identity."""
    rec = _kp_scan(ell_p, 1.0, np.array([[[db1, db2]]]), want_final_frame=True)
    return rec["final_frame"][0]


class TestStepKp:
    """One exponential Euler-Maruyama step of ``_kp_scan``."""

    def test_zero_increment_is_identity(self):
        assert np.array_equal(_one_step_frame(2.5, 0.0, 0.0), np.eye(3))

    def test_quarter_turn_toward_x(self):
        # an increment of sqrt(ell_p/2) * pi/2 on the first driver component
        # rotates the tangent by pi/2 in the x-z great circle (toward +x)
        ell_p = 3.7
        frame = _one_step_frame(ell_p, math.sqrt(ell_p / 2.0) * math.pi / 2.0, 0.0)
        assert np.allclose(frame @ E3, [1.0, 0.0, 0.0], atol=1e-12)

    def test_second_component_rotates_toward_y(self):
        ell_p = 1.0
        frame = _one_step_frame(ell_p, 0.0, math.sqrt(ell_p / 2.0) * math.pi / 2.0)
        assert np.allclose(frame @ E3, [0.0, 1.0, 0.0], atol=1e-12)

    def test_stays_in_group_over_many_steps(self):
        rng = path_rng(71, 0)
        cfg = KpConfig(1.0, 1.0, 10_000)
        dbeta = rng.normal(0.0, math.sqrt(cfg.h), size=(1, cfg.n_steps, 2))
        rec = _kp_scan(cfg.ell_p, cfg.h, dbeta, want_final_frame=True)
        assert orthonormal_defect(rec["final_frame"][0]) <= 1e-10

    def test_invalid_ell_p(self):
        for ell_p in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                _one_step_frame(ell_p, 0.1, 0.1)


class TestSimulateKp:
    def test_zero_driver_gives_straight_rod(self):
        cfg = KpConfig(1.0, 1.0, 50)
        rec = _kp_scan(cfg.ell_p, cfg.h, np.zeros((1, cfg.n_steps, 2)), keep_path=True)
        positions = rec["positions_all"][0]
        assert np.allclose(positions[:, 2], np.arange(51) * cfg.h, atol=1e-12)
        assert np.allclose(positions[:, :2], 0.0, atol=0)
        assert np.allclose(rec["tangents_all"][0], np.tile(E3, (51, 1)), atol=0)

    def test_initial_conditions(self):
        cfg = KpConfig(1.0, 0.5, 200)
        path = simulate_kp(cfg, path_rng(5, 0))
        assert np.array_equal(path.tangents[0], E3)
        assert np.array_equal(path.positions[0], np.zeros(3))

    def test_unit_speed_bounds(self):
        cfg = KpConfig(1.0, 0.2, 500)
        path = simulate_kp(cfg, path_rng(6, 1))
        assert np.linalg.norm(path.positions[-1]) <= cfg.contour_length * (1 + 1e-12)
        steps = np.linalg.norm(np.diff(path.positions, axis=0), axis=1)
        assert np.max(steps) <= cfg.h * (1 + 1e-12)

    def test_tangents_on_sphere(self):
        cfg = KpConfig(1.0, 1.0, 2000)
        path = simulate_kp(cfg, path_rng(6, 2))
        norms = np.linalg.norm(path.tangents, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-10

    def test_frames_orthonormal_and_right_handed(self):
        # the frame after k = 100, 200, ... steps of one driver: a rotation
        # whose third column is the path's tangent at k
        cfg = KpConfig(1.0, 1.0, 1500)
        dbeta = _draw_increments(cfg, path_rng(6, 3))[None]
        path = simulate_kp(cfg, path_rng(6, 3))
        for k in range(100, cfg.n_steps + 1, 100):
            frame = _kp_scan(cfg.ell_p, cfg.h, dbeta[:, :k], want_final_frame=True)[
                "final_frame"][0]
            assert orthonormal_defect(frame) <= 1e-8
            assert np.linalg.det(frame) == pytest.approx(1.0, abs=1e-8)
            assert np.allclose(np.cross(frame[:, 0], frame[:, 1]), frame[:, 2], atol=1e-8)
            assert np.allclose(frame[:, 2], path.tangents[k], rtol=0, atol=1e-12)

    def test_needs_rng_or_driver(self):
        # no default stream: every path names the generator it draws from
        with pytest.raises(TypeError):
            simulate_kp(KpConfig(1.0, 1.0, 10))

    def test_deterministic_for_fixed_stream(self):
        cfg = KpConfig(1.0, 1.0, 128)
        a = simulate_kp(cfg, path_rng(9, 4))
        b = simulate_kp(cfg, path_rng(9, 4))
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.tangents, b.tangents)


def _mean_tangent_z(ell_p, length, n_steps, n_paths, seed, at_index):
    """Batched E[Q . e3] at one grid index, with its standard error."""
    h = length / n_steps
    values = np.empty(n_paths)
    block = 500
    for start in range(0, n_paths, block):
        stop = min(start + block, n_paths)
        dbeta = np.stack([
            path_rng(seed, i).normal(0.0, math.sqrt(h), size=(n_steps, 2))
            for i in range(start, stop)])
        rec = _kp_scan(ell_p, h, dbeta, tangent_marks=(at_index,))
        values[start:stop] = rec["tangents"][at_index][:, 2]
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(n_paths))


class TestDistribution:
    def test_tangent_correlation_decay(self):
        # E[Q_s . e3] = exp(-2 s / ell_p) at several arclengths
        ell_p, length, n_steps, n_paths = 1.0, 1.0, 400, 3000
        for frac in (0.25, 0.5, 1.0):
            k = int(round(frac * n_steps))
            mean, stderr = _mean_tangent_z(ell_p, length, n_steps, n_paths, 2718, k)
            oracle = math.exp(-2.0 * frac / ell_p)
            assert abs(mean - oracle) <= 4.0 * stderr, f"s={frac}: {mean} vs {oracle}"

    def test_time_change_equivalence(self):
        # paths with (ell_p, horizon L) match paths with (1, horizon L/ell_p)
        # at rescaled arclengths
        m1, se1 = _mean_tangent_z(2.0, 2.0, 800, 2500, 13, 400)   # s = 1, ell_p = 2
        m2, se2 = _mean_tangent_z(1.0, 1.0, 400, 2500, 14, 200)   # s = 0.5, ell_p = 1
        assert abs(m1 - m2) <= 4.0 * math.hypot(se1, se2)

    def test_halving_h_is_weakly_consistent(self):
        # common-random-numbers comparison: the coarse driver aggregates the
        # fine one pairwise, so the difference isolates the step-size effect
        ell_p, length, n_paths, n_fine = 1.0, 1.0, 2000, 400
        h_fine = length / n_fine
        fine_vals = np.empty(n_paths)
        coarse_vals = np.empty(n_paths)
        block = 500
        for start in range(0, n_paths, block):
            stop = min(start + block, n_paths)
            fine = np.stack([
                path_rng(99, i).normal(0.0, math.sqrt(h_fine), size=(n_fine, 2))
                for i in range(start, stop)])
            coarse = fine[:, 0::2, :] + fine[:, 1::2, :]
            rec_f = _kp_scan(ell_p, h_fine, fine, tangent_marks=(n_fine,))
            rec_c = _kp_scan(ell_p, 2 * h_fine, coarse, tangent_marks=(n_fine // 2,))
            fine_vals[start:stop] = rec_f["tangents"][n_fine][:, 2]
            coarse_vals[start:stop] = rec_c["tangents"][n_fine // 2][:, 2]
        diff = fine_vals.mean() - coarse_vals.mean()
        combined = math.hypot(fine_vals.std(ddof=1), coarse_vals.std(ddof=1)) / math.sqrt(n_paths)
        assert abs(diff) < 2.0 * combined


class TestSerialization:
    def test_csv_header_and_first_row(self):
        cfg = KpConfig(1.0, 1.0, 20)
        path = simulate_kp(cfg, path_rng(3, 0))
        buf = io.StringIO()
        write_path_csv(path, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "s,Qx,Qy,Qz,Rx,Ry,Rz"
        assert lines[1] == "0.0,0.0,0.0,1.0,0.0,0.0,0.0"
        assert len(lines) == 22

    def test_csv_roundtrip(self):
        cfg = KpConfig(1.0, 2.0, 33)
        path = simulate_kp(cfg, path_rng(3, 1))
        buf = io.StringIO()
        write_path_csv(path, buf)
        rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
        tangents = np.array([[float(r[1]), float(r[2]), float(r[3])] for r in rows])
        positions = np.array([[float(r[4]), float(r[5]), float(r[6])] for r in rows])
        assert np.array_equal(tangents, path.tangents)
        assert np.array_equal(positions, path.positions)

    def test_csv_matches_csv_writer_reference(self):
        # three full 4096-row blocks and a ragged one, with signed zero, the
        # smallest subnormal, a huge value and non-finite cells
        n = 3 * 4096 + 6
        rng = np.random.default_rng(11)
        tangents = rng.normal(size=(n + 1, 3))
        positions = rng.normal(size=(n + 1, 3)) * 1e3
        tangents[1] = (-0.0, 5e-324, 1e300)
        positions[4096, :] = (np.inf, -np.inf, np.nan)
        path = PathSample(grid=np.arange(n + 1) * 0.1, tangents=tangents, positions=positions)
        buf = io.StringIO()
        write_path_csv(path, buf)

        # the earlier writer: csv.writer, one repr per cell
        ref = io.StringIO()
        writer = csv.writer(ref, lineterminator="\n")
        writer.writerow(["s", "Qx", "Qy", "Qz", "Rx", "Ry", "Rz"])
        for s, q, r in zip(path.grid, path.tangents, path.positions):
            writer.writerow([repr(float(s))] + [repr(float(x)) for x in q]
                            + [repr(float(x)) for x in r])
        assert buf.getvalue() == ref.getvalue()
        assert "\n0.1,-0.0,5e-324,1e+300," in buf.getvalue()

import csv
import io
import math
import sys
import tracemalloc

import numpy as np
import pytest
from threads import record_thread_starts

import wormchain.so3 as so3_module
from wormchain.estimators import _path_streams, path_rng
from wormchain.kp import (
    KpConfig,
    PathSample,
    default_n_steps,
    simulate_kp,
    write_path_csv,
    _draw_increments,
    _kp_scan,
)
from wormchain.so3 import orthonormal_defect, segment_plan

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
        dict(contour_length=1.0, ell_p=1.0, n_steps=True),
        dict(contour_length=1.0, ell_p=1.0, n_steps=3.9),
        dict(contour_length=1.0, ell_p=1.0, n_steps="7"),
        dict(contour_length=1.0, ell_p=1.0, n_steps=2**58 + 1),
        dict(contour_length=math.inf, ell_p=1.0, n_steps=10),
        dict(contour_length=1.0, ell_p=math.nan, n_steps=10),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            KpConfig(**kwargs)

    @pytest.mark.parametrize("args, name", [
        ((1, 1, 3.9), "n_steps"),   # once truncated to 3 steps
        ((1, 1, "7"), "n_steps"),   # once parsed to 7 steps
        ((1, 1, True), "n_steps"),  # once 1 step
        ((1, 1, 10**20), "n_steps"),
        ((1, 0), "ell_p"),          # once ZeroDivisionError
        ((1, math.nan), "ell_p"),
        ((1, 1e-300), "ell_p"),     # a grid of 1e302 steps
        ((1, 1e-310), "ell_p"),     # once OverflowError: 100 L/ell_p is inf
        ((math.inf, 1), "contour_length"),  # once OverflowError
    ])
    def test_create_rejects_what_it_cannot_grid(self, args, name):
        with pytest.raises(ValueError, match=name):
            KpConfig.create(*args)

    @pytest.mark.parametrize("ell_p", [1e-320, 5e-324, 1.1e-308])
    def test_ell_p_whose_step_scale_overflows(self, ell_p):
        # 2/ell_p is inf: every step quaternion of the scan was nan
        with pytest.raises(ValueError, match="step scale sqrt"):
            KpConfig(1.0, ell_p, 10)
        with pytest.raises(ValueError, match="step scale sqrt"):
            KpConfig.create(1e-300, ell_p, 10)
        with pytest.raises(ValueError, match="step scale sqrt"):
            _kp_scan(ell_p, 0.1, np.zeros((1, 10, 2)))
        assert KpConfig(1.0, 1.12e-308, 10).ell_p == 1.12e-308  # 2/ell_p is finite

    def test_default_steps_check_before_dividing(self):
        # a negative ell_p once gave a negative step count, floored to 1000
        with pytest.raises(ValueError, match="ell_p must be positive"):
            default_n_steps(1, -1)
        with pytest.raises(ValueError, match="contour_length must be positive"):
            default_n_steps(-1, 1)

    def test_numpy_integer_steps_are_valid(self):
        for cfg in (KpConfig(1.0, 1.0, np.int64(4)), KpConfig.create(1, 1, np.int64(4))):
            assert cfg.n_steps == 4 and type(cfg.n_steps) is int and cfg.h == 0.25


class TestBrownianDriver:
    """``_draw_increments``, the driver of a batch of paths."""

    def test_draw_shape_and_variance(self):
        n = 100_000
        cfg = KpConfig(1000.0, 1.0, n)  # h = 0.01
        (increments,) = _draw_increments(cfg, 1, lambda i: path_rng(17, 0))
        assert increments.shape == (n, 2)
        sample_var = float(np.var(increments, ddof=1))
        # chi-square bound: relative deviation within 5 sigma of the variance estimator
        assert abs(sample_var / cfg.h - 1.0) <= 5.0 * math.sqrt(2.0 / (2 * n - 1))

    def test_draw_is_the_bits_of_a_scaled_normal(self):
        # standard normals scaled in place are rng.normal(0, sqrt(h)) bit
        # for bit, and row i is drawn from its own stream alone
        cfg = KpConfig(1.0, 0.5, 333)
        expected = path_rng(4, 9).normal(0.0, math.sqrt(cfg.h), size=(333, 2))
        (one,) = _draw_increments(cfg, 1, lambda i: path_rng(4, 9))
        assert np.array_equal(one, expected)
        rows = _draw_increments(cfg, 3, lambda i: path_rng(4, 8 + i))
        assert rows.shape == (3, 333, 2)
        assert np.array_equal(rows[1], expected)
        for i in (0, 2):
            assert np.array_equal(rows[i], path_rng(4, 8 + i).normal(0.0, math.sqrt(cfg.h),
                                                                      size=(333, 2)))

    @pytest.mark.parametrize("paths", [1, 2, 3, 83])
    def test_two_seekers_draw_the_per_path_bits(self, monkeypatch, paths):
        # the caller draws rows 0..C//2-1 and a helper thread the rest, from
        # a second seeker over the same keys; 83 splits 41 / 42, and one
        # row is drawn alone.  A short switch interval interleaves the two
        # threads between a seek and its draw, so one shared seeker would show
        started = record_thread_starts(monkeypatch)
        cfg = KpConfig(1.0, 1.0, 7)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rows = _draw_increments(cfg, paths, _path_streams(2025, 11), _path_streams(2025, 11))
        finally:
            sys.setswitchinterval(interval)
        assert len(started) == (paths > 1)
        assert rows.shape == (paths, 7, 2)
        for i in range(paths):
            expected = path_rng(2025, 11 + i).normal(0.0, math.sqrt(cfg.h), (7, 2))
            assert np.array_equal(rows[i], expected)

    def test_simulate_kp_draws_alone(self, monkeypatch):
        started = record_thread_starts(monkeypatch)
        path = simulate_kp(KpConfig(1.0, 1.0, 50), path_rng(6, 3))
        assert started == []
        assert path.tangents.shape == (51, 3)

    def test_zeros_driver(self):
        # a zero driver leaves the frame exactly the identity, so every
        # tangent of the path is exactly e3
        tangents, positions = np.full((2, 1, 11, 3), np.nan)
        rec = _kp_scan(1.0, 0.1, np.zeros((1, 10, 2)), keep=(tangents, positions),
                       want_final_frame=True)
        assert np.array_equal(rec["final_frame"][0], np.eye(3))
        assert np.array_equal(tangents[0], np.tile(E3, (11, 1)))


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


    @pytest.mark.parametrize("shape", [(2, 5, 3), (2, 5, 1)])
    def test_increments_must_come_in_pairs(self, shape):
        with pytest.raises(ValueError, match=r"dbeta must have shape \(C, n_steps, 2\)"):
            _kp_scan(1.0, 0.1, np.zeros(shape))


class TestSimulateKp:
    def test_zero_driver_gives_straight_rod(self):
        cfg = KpConfig(1.0, 1.0, 50)
        tangents, positions = np.full((2, 1, 51, 3), np.nan)
        _kp_scan(cfg.ell_p, cfg.h, np.zeros((1, cfg.n_steps, 2)), keep=(tangents, positions))
        positions = positions[0]
        assert np.allclose(positions[:, 2], np.arange(51) * cfg.h, atol=1e-12)
        assert np.allclose(positions[:, :2], 0.0, atol=0)
        assert np.allclose(tangents[0], np.tile(E3, (51, 1)), atol=0)

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
        dbeta = _draw_increments(cfg, 1, lambda i: path_rng(6, 3))
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


class TestRecordSize:
    def test_marked_scan_records_its_marks_only(self):
        # a coil-narrow chunk shape, 83 paths of 2*10^4 steps in 49 segments:
        # 21 marks once recorded every segment at each marked step, 10.4 MB
        dbeta = np.random.default_rng(8).normal(scale=0.01, size=(83, 20_000, 2))
        marks = tuple(range(0, 20_001, 1000))
        tracemalloc.start()
        try:
            rec = _kp_scan(1.0, 5e-5, dbeta, tangent_marks=marks, position_marks=marks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rec["tangents"]) == len(rec["positions"]) == 21
        assert peak <= 1.5e6


class TestPipelinedScan:
    """A scan run with ``two_threads`` whose blocks of K steps qualify fills
    them on a helper thread; every result keeps the per-step scan's bits."""

    @pytest.mark.parametrize("case", ["marks", "rod", "kept", "lone"])
    def test_pipelined_scan_keeps_every_bit(self, monkeypatch, case):
        # 5 paths of 203 steps: 14 segments of 15 steps, the last one 8
        # (ragged); K = 15 // 2 = 7, so blocks of 7, 7 and 1.
        # Zero and tiny increments take the small-angle series.  A short
        # switch interval interleaves the helper with the caller.
        monkeypatch.setattr(so3_module, "_BLOCKS_PER_SEGMENT", 2)
        monkeypatch.setattr(so3_module, "_MIN_PIPELINED_BLOCK", 2)
        paths, n = (1, 203) if case == "lone" else (5, 203)
        assert segment_plan(paths, n) == (14, 15)
        dbeta = np.random.default_rng(30).normal(scale=0.05, size=(paths, n, 2))
        dbeta[:, ::9] *= 1e-7
        dbeta[:, ::17] = 0.0
        marks = (0, 1, 14, 15, 16, 100, 195, 196, 202, 203)
        kwargs = {"marks": dict(tangent_marks=marks, position_marks=marks[::2]),
                  "rod": dict(tangent_marks=marks, track_sup_rod_dev=True),
                  "kept": dict(want_final_frame=True),
                  "lone": dict(position_marks=marks, track_sup_rod_dev=True,
                               want_final_frame=True)}[case]

        def scan(two_threads):
            kept = np.full((2, paths, n + 1, 3), np.nan) if case == "kept" else (None, None)
            rec = _kp_scan(0.7, 0.01, dbeta, keep=tuple(kept), two_threads=two_threads,
                           **kwargs)
            return rec, kept

        started = record_thread_starts(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            piped, piped_kept = scan(True)
        finally:
            sys.setswitchinterval(interval)
        # the rod rescan restarts the pipeline for its second pass
        passes = 1 + kwargs.get("track_sup_rod_dev", False)
        assert [t.name for t in started] == ["wormchain-scan_0"] * passes
        started.clear()
        alone, alone_kept = scan(False)
        assert started == []
        assert piped.keys() == alone.keys()
        for key in ("tangents", "positions"):
            assert piped[key].keys() == alone[key].keys()
            for k in alone[key]:
                assert np.array_equal(piped[key][k], alone[key][k])
        for key in ("sup_rod_dev", "final_frame"):
            if key in alone:
                assert np.array_equal(piped[key], alone[key])
        if case == "kept":
            assert np.array_equal(piped_kept, alone_kept)
            assert not np.isnan(alone_kept).any()

    def test_pipelined_scan_memory(self, monkeypatch):
        # the smallest shape that qualifies under the shipped rule: one path
        # of 750**2 steps, in 750 segments, has K = 5, and K B is the most
        # the rule allows for n, n / 150.  The two step buffers and the
        # filler's scratch stay under 5 % of the increments.
        started = record_thread_starts(monkeypatch)
        n = 750 ** 2
        assert segment_plan(1, n) == (750, 750)
        assert 750 == so3_module._MIN_PIPELINED_BLOCK * so3_module._BLOCKS_PER_SEGMENT
        dbeta = np.random.default_rng(31).normal(scale=0.001, size=(1, n, 2))
        peaks = []
        for two_threads in (False, True):
            tracemalloc.start()
            try:
                _kp_scan(1.0, 1e-6, dbeta, position_marks=(n,), two_threads=two_threads)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert [t.name for t in started] == ["wormchain-scan_0"]
        assert peaks[1] - peaks[0] <= 0.05 * dbeta.nbytes


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


def _step_legendre(l, c):
    """rho_l(c) = E P_l(cos(c R)) for R Rayleigh, the mean of the degree-l
    Legendre polynomial over one scheme step's angle ``c R``: with u = R^2/2,
    it is the integral of P_l(cos(c sqrt(2u))) e^-u over u >= 0."""
    u, w = np.polynomial.laguerre.laggauss(40)
    return float(w @ np.polynomial.legendre.legval(np.cos(c * np.sqrt(2.0 * u)), [0] * l + [1]))


class TestTangentLaw:
    """A scheme step rotates the frame by ``c R`` about a uniform body axis
    perpendicular to the tangent, with c = sqrt(2h/ell_p) and R Rayleigh, so
    the tangents form a Markov chain with a zonal step kernel and
    E[P_l(Q_0 . Q_k)] = rho_l(c)^k for every degree l.  A planar step with
    the right l = 1 correlation passes every l = 1 row; degree 2 fails it."""

    @pytest.mark.parametrize("c", [0.14, 0.45, 1.0])
    def test_quadrature_matches_the_first_degree_series(self, c):
        # E cos(cR) = sum_m (-c^2)^m E[R^2m] / (2m)! with E[R^2m] = 2^m m!
        series = math.fsum((-2.0 * c * c) ** m * math.factorial(m) / math.factorial(2 * m)
                           for m in range(60))
        assert _step_legendre(1, c) == pytest.approx(series, rel=0, abs=1e-12)

    def test_second_legendre_correlation(self):
        cfg = KpConfig(1.0, 1.0, 100)
        n_paths, marks = 20_000, (25, 50, 100)
        dbeta = _draw_increments(cfg, n_paths, _path_streams(2025, 0))
        rec = _kp_scan(cfg.ell_p, cfg.h, dbeta, tangent_marks=marks)
        rho_2 = _step_legendre(2, math.sqrt(2.0 * cfg.h / cfg.ell_p))
        for k in marks:
            x = rec["tangents"][k][:, 2]  # Q_0 . Q_k with Q_0 = e3
            p2 = 1.5 * x * x - 0.5
            z = (p2.mean() - rho_2**k) / (p2.std(ddof=1) / math.sqrt(n_paths))
            assert abs(z) <= 4.0, f"step {k}: z = {z}"


class TestSerialization:
    @pytest.mark.parametrize("lengths", [(3, 2, 3), (3, 3, 4), (2, 3, 3)])
    def test_path_lengths_must_agree(self, lengths):
        n_grid, n_tangents, n_positions = lengths
        with pytest.raises(ValueError, match="grid, tangents and positions lengths disagree"):
            PathSample(grid=np.zeros(n_grid), tangents=np.zeros((n_tangents, 3)),
                       positions=np.zeros((n_positions, 3)))

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

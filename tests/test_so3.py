import concurrent.futures
import math
import threading
from concurrent.futures import Future

import numpy as np
import pytest
from rodrigues import rodrigues_batch

from wormchain.so3 import (
    _qmul,
    _qnormalize,
    _rotate,
    _step_quaternions,
    frame_scan,
    orthonormal_defect,
    quat_matrix,
    segment_plan,
)


def _quat(omega):
    """Component-first unit quaternions of rotation vectors ``(..., 3)``."""
    angle = np.linalg.norm(omega, axis=-1)
    half_sinc = 0.5 * np.sinc(angle / (2.0 * math.pi))  # sin(angle/2)/angle
    return np.concatenate([np.cos(0.5 * angle)[None],
                           np.moveaxis(omega * half_sinc[..., None], -1, 0)])


def rot(axis, angle):
    """Unit quaternion of the rotation by ``angle`` about ``axis``."""
    axis = np.asarray(axis, dtype=float)
    return _quat(angle * axis / np.linalg.norm(axis))


def _gram_schmidt(m):
    """Independent oracle: classical Gram-Schmidt on the columns of ``m``."""
    cols = []
    for j in range(3):
        v = m[:, j].copy()
        for u in cols:
            v -= np.dot(u, v) * u
        cols.append(v / np.linalg.norm(v))
    return np.stack(cols, axis=1)


IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


class TestExpRodrigues:
    """The Rodrigues exponential ``rodrigues_batch`` of ``tests/rodrigues.py``,
    the matrix reference of the quaternion kernel."""

    def test_zero_gives_identity(self):
        assert np.array_equal(rodrigues_batch([0.0, 0.0, 0.0]), np.eye(3))

    def test_quarter_turn_about_x(self):
        r = rodrigues_batch([math.pi / 2, 0, 0])
        assert np.allclose(r @ [0, 0, 1], [0, -1, 0], atol=1e-12)

    def test_full_turn_is_identity(self):
        assert np.allclose(rodrigues_batch([0, 0, 2 * math.pi]), np.eye(3), atol=1e-12)

    def test_orthogonality_on_random_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            omega = rng.normal(scale=rng.uniform(1e-8, 3.0), size=3)
            assert orthonormal_defect(rodrigues_batch(omega)) <= 1e-12

    def test_rotates_perpendicular_vectors_by_theta(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            theta = rng.uniform(0.0, math.pi)
            w = np.cross(u, rng.normal(size=3))
            w /= np.linalg.norm(w)
            rw = rodrigues_batch(theta * u) @ w
            assert abs(np.dot(rw, w) - math.cos(theta)) <= 1e-12

    def test_small_angle_branch_continuity(self):
        # compare both branches just above/below the 1e-4 switchover
        for theta in (0.9999e-4, 1.0001e-4):
            exact = np.array([
                [1, 0, 0],
                [0, math.cos(theta), -math.sin(theta)],
                [0, math.sin(theta), math.cos(theta)],
            ])
            assert np.allclose(rodrigues_batch([theta, 0.0, 0.0]), exact, atol=1e-15)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(13)
        omegas = rng.normal(size=(40, 3)) * rng.uniform(1e-7, 2.0, size=(40, 1))
        batch = rodrigues_batch(omegas)
        for i, omega in enumerate(omegas):
            assert np.array_equal(batch[i], rodrigues_batch(omega))


class TestCompose:
    """``_qmul``, the Hamilton product that stitches the scan's segments."""

    def test_identity_is_neutral(self):
        q = rot([1, 1, 0], 0.7)
        assert np.array_equal(_qmul(IDENTITY, q), q)
        assert np.array_equal(_qmul(q, IDENTITY), q)

    def test_inverse_gives_identity(self):
        q = rot([0.3, -1, 2], 1.1)
        conjugate = q * [1.0, -1.0, -1.0, -1.0]
        assert np.allclose(_qmul(q, conjugate), IDENTITY, atol=1e-15)

    def test_angle_addition_about_fixed_axis(self):
        half = rot([1, 0, 0], math.pi / 2)
        assert np.allclose(_qmul(half, half), rot([1, 0, 0], math.pi), atol=1e-15)

    def test_associativity(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            a, b, c = (rot(rng.normal(size=3), rng.uniform(0, math.pi)) for _ in range(3))
            assert np.allclose(_qmul(_qmul(a, b), c), _qmul(a, _qmul(b, c)), atol=1e-15)

    def test_matrix_of_product_is_product_of_matrices(self):
        # the stitch composes segment frames as quaternions and maps
        # positions with their matrices; the two must agree
        rng = np.random.default_rng(22)
        a, b = (_quat(rng.normal(size=(20, 3))) for _ in range(2))
        assert np.allclose(quat_matrix(_qmul(a, b)), quat_matrix(a) @ quat_matrix(b),
                           rtol=0, atol=1e-15)


class TestApply:
    """``_rotate``, which maps segment-local vectors to global ones."""

    def test_identity(self):
        v = np.array([0.2, -0.5, 1.5])
        assert np.array_equal(_rotate(quat_matrix(IDENTITY), v), v)

    def test_quarter_turn_about_z(self):
        assert np.allclose(_rotate(quat_matrix(rot([0, 0, 1], math.pi / 2)), [1.0, 0.0, 0.0]),
                           [0, 1, 0], atol=1e-15)

    def test_preserves_norm(self):
        rng = np.random.default_rng(31)
        axes = rng.normal(size=(50, 3))
        angles = rng.uniform(0, math.pi, size=(50, 1))
        q = _quat(angles * axes / np.linalg.norm(axes, axis=1, keepdims=True))
        v = rng.normal(size=(3, 50)) * rng.uniform(0.1, 10, size=50)
        norms = np.linalg.norm(v, axis=0)
        rotated = _rotate(quat_matrix(q), v)
        assert np.all(np.abs(np.linalg.norm(rotated, axis=0) - norms) <= 1e-12 * norms)


class TestQuaternions:
    def test_matrix_matches_rodrigues(self):
        rng = np.random.default_rng(51)
        omegas = rng.normal(size=(40, 3)) * rng.uniform(1e-7, 3.0, size=(40, 1))
        assert np.allclose(quat_matrix(_quat(omegas)), rodrigues_batch(omegas), atol=1e-14)

    def test_third_column_is_tangent(self):
        q = _quat(np.array([0.0, math.pi / 2, 0.0]))  # quarter turn about y
        assert np.allclose(quat_matrix(q)[:, 2], [1.0, 0.0, 0.0], atol=1e-15)

    def test_batch_normalization_matches_scalar(self):
        # the kernel's projection back onto the group: batched and one at a
        # time agree, the result is a rotation, and it is the Gram-Schmidt
        # projection of the drifted frame up to the size of the drift
        rng = np.random.default_rng(43)
        q = _quat(rng.normal(size=(10, 3))) + 1e-9 * rng.normal(size=(4, 10))
        batch = _qnormalize(q)
        for i in range(10):
            single = q[:, i] / math.sqrt(sum(float(c) ** 2 for c in q[:, i]))
            assert np.allclose(batch[:, i], single, rtol=0, atol=4e-16)
            m = quat_matrix(batch[:, i])
            assert orthonormal_defect(m) <= 1e-14
            assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-14)
            assert np.allclose(m, _gram_schmidt(quat_matrix(q[:, i])), atol=1e-8)


class TestReorthonormalize:
    """``_qnormalize``, the projection that keeps stitched frames on the group."""

    def test_exact_rotation_is_fixed_point(self):
        q = rot([1, 2, 3], 0.9)
        assert np.allclose(_qnormalize(q), q, rtol=0, atol=1e-16)
        assert np.allclose(quat_matrix(_qnormalize(q)), quat_matrix(q), rtol=0, atol=1e-15)

    def test_perturbed_identity(self):
        rng = np.random.default_rng(41)
        q = IDENTITY + 1e-6 * rng.normal(size=4)
        m = quat_matrix(_qnormalize(q))
        assert orthonormal_defect(m) <= 1e-14
        assert np.linalg.det(m) > 0
        # oracle: the rotation the drifted quaternion stands for, by Rodrigues
        v = q[1:]
        omega = 2.0 * math.atan2(np.linalg.norm(v), q[0]) * v / np.linalg.norm(v)
        assert np.allclose(m, rodrigues_batch(omega), rtol=0, atol=1e-15)
        # and the Gram-Schmidt projection of the drifted frame, up to the
        # square of the drift
        assert np.allclose(m, _gram_schmidt(quat_matrix(q)), rtol=0, atol=1e-11)

    def test_long_product_stress(self):
        # product of one million random rotations through the frame kernel,
        # whose stitch renormalizes each segment's start frame
        rng = np.random.default_rng(42)
        steps = 1_000_000
        omega = np.zeros((1, steps, 3))
        omega[..., :2] = rng.normal(scale=0.05, size=(1, steps, 2))
        rec = frame_scan(_rotvec_steps(omega), 1, steps, weights=(0.0, 1.0),
                         want_final_frame=True)
        assert orthonormal_defect(rec["final_frame"][0]) <= 1e-14


def _rotvec_steps(omega):
    """``frame_scan`` step filler for body rotation vectors ``(C, n, 3)`` with
    zero third component."""
    def fill(idx, pw, px, py):
        q = _quat(omega[:, idx])
        pw[...], px[...], py[...] = q[0], q[1], q[2]
    return fill


def _reference(omega, weights, rod_step):
    """Unsegmented reference: one Rodrigues matrix product per step."""
    paths, n, _ = omega.shape
    c_old, c_new = weights
    z = np.tile(np.eye(3), (paths, 1, 1))
    r = np.zeros((paths, 3))
    frames, positions = [z], [r]
    sup = np.zeros(paths)
    for k in range(1, n + 1):
        t_old = z[:, :, 2]
        z = z @ rodrigues_batch(omega[:, k - 1])
        r = r + c_old * t_old + c_new * z[:, :, 2]
        frames.append(z)
        positions.append(r)
        sup = np.maximum(sup, np.linalg.norm(r - [0.0, 0.0, k * rod_step], axis=1))
    frames = np.stack(frames, axis=1)
    return frames, frames[:, :, :, 2], np.stack(positions, axis=1), sup


class TestFrameScan:
    @staticmethod
    def _omega(paths, n, seed):
        omega = np.random.default_rng(seed).normal(scale=0.2, size=(paths, n, 3))
        omega[..., 2] = 0.0
        return omega

    @pytest.mark.parametrize("paths,n,plan", [
        (3, 50, (7, 8)),      # last segment holds 2 real steps
        (2, 64, (8, 8)),      # exact split
        (4, 10, (3, 4)),      # ragged tail of 2
        (1, 997, (31, 33)),   # one long path
        (700, 40, (5, 8)),    # width-capped: 700 * 5 <= 4096
        (2100, 9, (1, 9)),    # one segment
    ])
    def test_segmented_matches_unsegmented_reference(self, paths, n, plan):
        assert segment_plan(paths, n) == plan
        segments, span = plan
        omega = self._omega(paths, n, seed=n)
        weights = (0.01, 0.02)
        rod_step = 0.03
        frames, tangents, positions, sup = _reference(omega, weights, rod_step)
        marks = {0, n, n - 1}
        for b in range(1, segments):
            marks.update((b * span, b * span + 1))
        kept = np.full((2, paths, n + 1, 3), np.nan)
        rec = frame_scan(_rotvec_steps(omega), paths, n, weights=weights, tangent_marks=marks,
                         position_marks=marks, rod_step=rod_step, want_final_frame=True,
                         keep=tuple(kept))
        tol = dict(rtol=0, atol=1e-12)
        assert set(rec) == {"tangents", "positions", "sup_rod_dev", "final_frame"}
        assert np.allclose(kept[0], tangents, **tol)
        assert np.allclose(kept[1], positions, **tol)
        assert np.allclose(rec["final_frame"], frames[:, -1], **tol)
        assert np.allclose(rec["sup_rod_dev"], sup, **tol)
        assert set(rec["tangents"]) == set(rec["positions"]) == marks
        for k in marks:
            assert np.allclose(rec["tangents"][k], tangents[:, k], **tol)
            assert np.allclose(rec["positions"][k], positions[:, k], **tol)
            # and a kept path is its own marks, bit for bit
            assert np.array_equal(kept[0][:, k], rec["tangents"][k])
            assert np.array_equal(kept[1][:, k], rec["positions"][k])

    @pytest.mark.parametrize("paths,n", [(3, 50), (2100, 9)])
    def test_positions_kept_alone_are_the_kept_path_bits(self, paths, n):
        # the chain keeps every bead but no bond direction
        omega = self._omega(paths, n, seed=n + 2)
        kwargs = dict(weights=(0.0, 0.5), tangent_marks=(0,), position_marks=(0, n // 2))
        kept, kept_alone = np.full((2, 2, paths, n + 1, 3), np.nan)
        both = frame_scan(_rotvec_steps(omega), paths, n, keep=tuple(kept), **kwargs)
        alone = frame_scan(_rotvec_steps(omega), paths, n, keep=(None, kept_alone[1]), **kwargs)
        assert set(alone) == {"tangents", "positions"}
        assert np.array_equal(kept_alone[1], kept[1])
        assert np.isnan(kept_alone[0]).all()
        for key in ("tangents", "positions"):
            for k, value in both[key].items():
                assert np.array_equal(alone[key][k], value)
        with pytest.raises(ValueError, match="keeps positions alone has no tangent marks"):
            frame_scan(_rotvec_steps(omega), paths, n, weights=(0.0, 0.5),
                       tangent_marks=(1,), keep=(None, kept_alone[1]))

    @pytest.mark.parametrize("paths,n,segments", [(2100, 9, 1), (3, 50, 7), (17, 997, 31)])
    def test_tangent_only_scan_keeps_the_tangent_bits(self, paths, n, segments):
        # a scan that reads no position skips the curve and takes the
        # tangent only at marked steps; the tangents are the same bits
        assert segment_plan(paths, n)[0] == segments
        omega = self._omega(paths, n, seed=n + 1)
        marks = (0, 1, n // 3, n // 2 + 1, n - 1, n)
        kwargs = dict(weights=(0.01, 0.02), tangent_marks=marks, want_final_frame=True)
        alone = frame_scan(_rotvec_steps(omega), paths, n, **kwargs)
        with_curve = frame_scan(_rotvec_steps(omega), paths, n, position_marks=(n // 2,),
                                **kwargs)
        assert set(alone) == {"tangents", "positions", "final_frame"}
        assert alone["positions"] == {}
        assert set(with_curve["positions"]) == {n // 2}
        assert set(alone["tangents"]) == set(with_curve["tangents"]) == set(marks)
        for k in marks:
            assert np.array_equal(alone["tangents"][k], with_curve["tangents"][k])
        assert np.array_equal(alone["final_frame"], with_curve["final_frame"])

    def test_mark_outside_grid_rejected(self):
        for marks in (dict(tangent_marks=(6,)), dict(position_marks=(6,)),
                      dict(tangent_marks=(-1,))):
            with pytest.raises(ValueError, match="outside 0..5"):
                frame_scan(_rotvec_steps(np.zeros((1, 5, 3))), 1, 5, weights=(0.0, 1.0),
                           **marks)

    @pytest.mark.parametrize("paths,n,expected", [
        (83, 100_000, (49, 2041)),
        (4096, 1000, (1, 1000)),
        (5000, 1000, (1, 1000)),
        (1, 1_000_000, (1000, 1000)),
        (1, 20_000, (141, 142)),
        (2, 3, (1, 3)),
        (1, 0, (1, 0)),
    ])
    def test_plan(self, paths, n, expected):
        assert segment_plan(paths, n) == expected

    def test_plan_leaves_no_segment_empty(self):
        for paths in (1, 2, 3, 83, 1677, 4096):
            for n in range(1, 3000, 7):
                segments, span = segment_plan(paths, n)
                assert segments * paths <= max(4096, paths)
                assert (segments - 1) * span < n <= segments * span


class _InlinePool:
    """A ``ThreadPoolExecutor`` stand-in that runs each task as it is submitted."""

    def __init__(self, max_workers, thread_name_prefix=""):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        done = Future()
        done.set_result(fn(*args))
        return done


class TestStepPipeline:
    @pytest.mark.parametrize("pool", ["thread", "inline"])
    def test_a_fill_writes_only_a_buffer_the_caller_has_left(self, monkeypatch, pool):
        # 2 paths in 3 segments of 23 steps, the last one ragged, in blocks
        # of K = 4 (the last one 3).  Each fill notes, under a lock, the step
        # the caller has asked for and the fills running when it starts.
        # The inline pool runs a fill as it is submitted, so that record
        # does not depend on thread timing: a fill submitted two blocks
        # ahead starts before the caller has left the buffer it writes.
        if pool == "inline":
            monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _InlinePool)
        block, span, n = 4, 23, 66
        base = np.arange(3) * span
        lock = threading.Lock()
        asked, running, starts = [-1], [0], []

        def step(idx, pw, px, py):
            with lock:
                starts.append((int(idx[0, 0]), asked[0], running[0]))
                running[0] += 1
            pw[...] = idx
            np.negative(idx, out=px)
            py[...] = 0.5
            with lock:
                running[0] -= 1

        quaternions = _step_quaternions(step, block, n, base, span, 2)
        for j in range(span):
            with lock:
                asked[0] = j
            pw, px, py = next(quaternions)
            idx = np.broadcast_to(np.minimum(base + j, n - 1), (2, 3))
            assert np.array_equal(pw, idx) and np.array_equal(px, -idx) and (py == 0.5).all()
        with pytest.raises(StopIteration):
            next(quaternions)
        assert [first for first, _, _ in starts] == list(range(0, span, block))
        for first, at, busy in starts:
            # block q starts once the caller has asked for block q - 1
            assert at >= first - block and busy == 0

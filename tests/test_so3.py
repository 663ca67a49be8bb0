import math

import numpy as np
import pytest

from wormchain.so3 import (
    Rotation3,
    SkewSym3,
    UnitVec3,
    apply,
    compose,
    exp_rodrigues,
    _qnormalize,
    frame_scan,
    hat,
    orthonormal_defect,
    quat_matrix,
    reorthonormalize,
    rodrigues_batch,
    segment_plan,
)


def rot(axis, angle):
    axis = np.asarray(axis, dtype=float)
    return exp_rodrigues(hat(angle * axis / np.linalg.norm(axis)))


class TestHat:
    def test_zero_element(self):
        s = hat([0.0, 0.0, 0.0])
        for w in ([1, 2, 3], [0, 0, 1], [-1, 0.5, 2]):
            assert np.allclose(s.apply(w), 0.0)

    def test_z_cross_x_is_y(self):
        assert np.allclose(hat([0, 0, 1]).apply([1, 0, 0]), [0, 1, 0])

    def test_v_cross_v_is_zero(self):
        assert np.allclose(hat([1, 2, 3]).apply([1, 2, 3]), [0, 0, 0])

    def test_matrix_is_exactly_skew(self):
        m = hat([0.3, -1.2, 2.5]).as_matrix()
        assert np.array_equal(m, -m.T)

    def test_matrix_action_matches_cross_product(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            v, w = rng.normal(size=3), rng.normal(size=3)
            assert np.allclose(hat(v).as_matrix() @ w, np.cross(v, w), atol=1e-14)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            hat([np.nan, 0.0, 0.0])
        with pytest.raises(ValueError):
            hat([np.inf, 0.0, 0.0])


class TestExpRodrigues:
    def test_zero_gives_identity(self):
        assert np.allclose(exp_rodrigues(hat([0, 0, 0])).m, np.eye(3), atol=0)

    def test_quarter_turn_about_x(self):
        r = exp_rodrigues(hat([math.pi / 2, 0, 0]))
        assert np.allclose(apply(r, [0, 0, 1]), [0, -1, 0], atol=1e-12)

    def test_full_turn_is_identity(self):
        r = exp_rodrigues(hat([0, 0, 2 * math.pi]))
        assert np.allclose(r.m, np.eye(3), atol=1e-12)

    def test_orthogonality_on_random_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            omega = rng.normal(scale=rng.uniform(1e-8, 3.0), size=3)
            r = exp_rodrigues(hat(omega))
            assert orthonormal_defect(r.m) <= 1e-12

    def test_rotates_perpendicular_vectors_by_theta(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            theta = rng.uniform(0.0, math.pi)
            w = np.cross(u, rng.normal(size=3))
            w /= np.linalg.norm(w)
            rw = apply(exp_rodrigues(hat(theta * u)), w)
            assert abs(np.dot(rw, w) - math.cos(theta)) <= 1e-12

    def test_small_angle_branch_continuity(self):
        # compare both branches just above/below the 1e-4 switchover
        for theta in (0.9999e-4, 1.0001e-4):
            omega = np.array([theta, 0.0, 0.0])
            exact = np.array([
                [1, 0, 0],
                [0, math.cos(theta), -math.sin(theta)],
                [0, math.sin(theta), math.cos(theta)],
            ])
            assert np.allclose(exp_rodrigues(hat(omega)).m, exact, atol=1e-15)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(13)
        omegas = rng.normal(size=(40, 3)) * rng.uniform(1e-7, 2.0, size=(40, 1))
        batch = rodrigues_batch(omegas)
        for i, omega in enumerate(omegas):
            assert np.array_equal(batch[i], exp_rodrigues(hat(omega)).m)


class TestCompose:
    def test_identity_is_neutral(self):
        r = rot([1, 1, 0], 0.7)
        assert np.allclose(compose(Rotation3.identity(), r).m, r.m, atol=0)

    def test_inverse_gives_identity(self):
        r = rot([0.3, -1, 2], 1.1)
        assert np.allclose(compose(r, r.transposed()).m, np.eye(3), atol=1e-12)

    def test_angle_addition_about_fixed_axis(self):
        half = rot([1, 0, 0], math.pi / 2)
        assert np.allclose(compose(half, half).m, rot([1, 0, 0], math.pi).m, atol=1e-12)

    def test_associativity(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            a, b, c = (rot(rng.normal(size=3), rng.uniform(0, math.pi)) for _ in range(3))
            left = compose(compose(a, b), c).m
            right = compose(a, compose(b, c)).m
            assert np.allclose(left, right, atol=1e-12)


class TestApply:
    def test_identity(self):
        v = np.array([0.2, -0.5, 1.5])
        assert np.allclose(apply(Rotation3.identity(), v), v, atol=0)

    def test_quarter_turn_about_z(self):
        assert np.allclose(apply(rot([0, 0, 1], math.pi / 2), [1, 0, 0]), [0, 1, 0], atol=1e-12)

    def test_preserves_norm(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            r = rot(rng.normal(size=3), rng.uniform(0, math.pi))
            v = rng.normal(size=3) * rng.uniform(0.1, 10)
            assert abs(np.linalg.norm(apply(r, v)) - np.linalg.norm(v)) <= 1e-12 * np.linalg.norm(v)


class TestReorthonormalize:
    def test_exact_rotation_is_fixed_point(self):
        r = rot([1, 2, 3], 0.9)
        out = reorthonormalize(r)
        assert np.allclose(out.m, r.m, atol=1e-14)

    def test_perturbed_identity(self):
        rng = np.random.default_rng(41)
        m = np.eye(3) + 1e-6 * rng.normal(size=(3, 3))
        out = reorthonormalize(m)
        assert orthonormal_defect(out.m) <= 1e-14
        assert np.linalg.det(out.m) > 0
        # oracle: plain Gram-Schmidt done independently
        expected = []
        for j in range(3):
            v = m[:, j].copy()
            for u in expected:
                v -= np.dot(u, v) * u
            expected.append(v / np.linalg.norm(v))
        assert np.allclose(out.m, np.stack(expected, axis=1), atol=1e-15)

    def test_long_product_stress(self):
        # product of one million random rotations with periodic cleanup
        rng = np.random.default_rng(42)
        steps = 1_000_000
        block = 4096
        z = np.eye(3)
        done = 0
        while done < steps:
            count = min(block, steps - done)
            mats = rodrigues_batch(rng.normal(scale=0.05, size=(count, 3)))
            for m in mats:
                z = z @ m
            done += count
            z = reorthonormalize(z).m
        assert orthonormal_defect(z) <= 1e-14

    def test_rank_deficient_raises(self):
        bad = np.zeros((3, 3))
        bad[:, 0] = [1.0, 0.0, 0.0]
        bad[:, 1] = [2.0, 0.0, 0.0]
        bad[:, 2] = [0.0, 0.0, 1.0]
        with pytest.raises(ArithmeticError):
            reorthonormalize(bad)

class TestTypes:
    def test_rotation_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            Rotation3(np.eye(3) * 1.01)

    def test_rotation_rejects_reflection(self):
        with pytest.raises(ValueError):
            Rotation3(np.diag([1.0, 1.0, -1.0]))

    def test_unit_vector_tolerance(self):
        UnitVec3([0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            UnitVec3([0.0, 0.0, 1.0 + 1e-8])

    def test_values_are_immutable(self):
        r = rot([0, 0, 1], 0.5)
        with pytest.raises(ValueError):
            r.m[0, 0] = 2.0
        s = SkewSym3(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            s.omega[0] = 0.0


def _quat(omega):
    """Component-first unit quaternions of rotation vectors ``(..., 3)``."""
    angle = np.linalg.norm(omega, axis=-1)
    half_sinc = 0.5 * np.sinc(angle / (2.0 * math.pi))  # sin(angle/2)/angle
    return np.concatenate([np.cos(0.5 * angle)[None],
                           np.moveaxis(omega * half_sinc[..., None], -1, 0)])


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
            assert np.allclose(m, reorthonormalize(quat_matrix(q[:, i])).m, atol=1e-8)


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
        rec = frame_scan(_rotvec_steps(omega), paths, n, weights=weights, marks=marks,
                         rod_step=rod_step, want_final_frame=True, keep_path=True)
        tol = dict(rtol=0, atol=1e-12)
        assert np.allclose(rec["frames_all"], frames, **tol)
        assert np.allclose(rec["tangents_all"], tangents, **tol)
        assert np.allclose(rec["positions_all"], positions, **tol)
        assert np.allclose(rec["final_frame"], frames[:, -1], **tol)
        assert np.allclose(rec["sup_rod_dev"], sup, **tol)
        assert set(rec["tangents"]) == marks
        for k in marks:
            assert np.allclose(rec["tangents"][k], tangents[:, k], **tol)
            assert np.allclose(rec["positions"][k], positions[:, k], **tol)

    def test_mark_outside_grid_rejected(self):
        with pytest.raises(ValueError):
            frame_scan(_rotvec_steps(np.zeros((1, 5, 3))), 1, 5, weights=(0.0, 1.0), marks=(6,))

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

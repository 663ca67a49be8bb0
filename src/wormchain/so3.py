"""Exact math for the rotation group SO(3): the frame kernel of both chains.

A unit quaternion ``(w, x, y, z)`` stands for the right-handed rotation by
``2*acos(w)`` about ``(x, y, z)``; ``quat_matrix`` gives its 3x3 matrix,
whose third column ``(2(xz + wy), 2(yz - wx), 1 - 2(x^2 + y^2))`` is the
tangent.

The path kernel :func:`frame_scan`, shared by the freely rotating chain and
the wormlike chain, carries each moving frame as a unit quaternion: a step
right-multiplies it by ``(cos(a/2), sin(a/2) u_x, sin(a/2) u_y, 0)``, the
rotation by ``a`` about a body axis ``u`` perpendicular to the tangent.  The
frame is a means to the curve: a scan returns tangents and positions, and
a frame matrix only for the final state on request.

Segment plan: a batch of C paths of n steps is cut into B time segments of
``L = ceil(n/B)`` steps, ``B = min(n, 4096 // C, floor(sqrt(n)))``.  All C*B
segments are scanned at once, each from the identity frame, so one numpy
call advances C*B frames; the segments are then stitched in order
(``S_b = S_{b-1} E_{b-1}``, ``P_b = P_{b-1} + R(S_{b-1}) r_{b-1}``) and
marked values, the final frame and full paths are mapped to ``P_b + R(S_b)
local``.  The sup deviation from the rod needs global positions at every
step; with more than one segment it comes from a second scan started at the
stitched ``(S_b, P_b)``.  The plan depends on (C, n) alone, so results do
not depend on how paths are spread over workers.
"""
from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "orthonormal_defect",
    "quat_matrix",
    "segment_plan",
    "frame_scan",
]

# Widest batch of segments one scan step advances; matches the widest
# ensemble chunk, so narrow chunks are widened by cutting paths into segments.
MAX_SCAN_WIDTH = 4096


def orthonormal_defect(m) -> float:
    """Frobenius norm of m^T m - I; zero for an exactly orthonormal matrix."""
    m = np.asarray(m, dtype=np.float64)
    g = m.T @ m if m.ndim == 2 else np.swapaxes(m, -1, -2) @ m
    return float(np.linalg.norm(g - np.eye(3)))


# ---------------------------------------------------------------------------
# unit-quaternion frame scan

def _qmul(a, b):
    """Hamilton product of component-first quaternion stacks ``(4, ...)``."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([aw * bw - ax * bx - ay * by - az * bz,
                     aw * bx + ax * bw + ay * bz - az * by,
                     aw * by - ax * bz + ay * bw + az * bx,
                     aw * bz + ax * by - ay * bx + az * bw])


def _qnormalize(q):
    return q / np.sqrt(np.sum(q * q, axis=0))


def quat_matrix(q) -> np.ndarray:
    """Rotation matrices ``(..., 3, 3)`` of unit quaternions ``q`` of shape ``(4, ...)``."""
    w, x, y, z = np.asarray(q, dtype=np.float64)
    return np.stack([
        np.stack([1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)], -1),
        np.stack([2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)], -1),
        np.stack([2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)], -1),
    ], -2)


def _rotate(q, v):
    """Rotate vectors ``v`` ``(3, ...)`` by unit quaternions ``q`` ``(4, ...)``."""
    return np.einsum("...ij,j...->i...", quat_matrix(q), v)


def segment_plan(paths: int, n_steps: int) -> tuple[int, int]:
    """Segments ``B`` and steps per segment ``L`` for C paths of n steps.

    ``B = min(n, MAX_SCAN_WIDTH // C, floor(sqrt(n)))``, at least 1, and
    ``L = ceil(n / B)``.  Since ``B**2 <= n``, every segment holds at least
    one real step; only the last one can be short.
    """
    n = int(n_steps)
    segments = max(1, min(n, MAX_SCAN_WIDTH // max(1, int(paths)), math.isqrt(n)))
    return segments, -(-n // segments)


def frame_scan(step, paths: int, n_steps: int, *, weights: tuple[float, float],
               marks=(), rod_step: float | None = None,
               want_final_frame: bool = False, keep_path: bool = False) -> dict:
    """Advance C moving frames by n right-multiplied steps, and their curves.

    ``step(idx, pw, px, py)`` fills the ``(C, len(idx))`` buffers with the
    step quaternions ``(pw, px, py, 0)`` of the global step indices ``idx``.
    The frame starts at the identity, the curve at the origin; after step
    ``k`` the tangent ``t_k`` is the frame's third column and the position is
    ``r_k = r_{k-1} + c_old t_{k-1} + c_new t_k`` with
    ``weights = (c_old, c_new)``.

    Returns ``tangents`` and ``positions``, dicts from each state index in
    ``marks`` (``0..n``) to ``(C, 3)`` arrays; with ``rod_step`` set,
    ``sup_rod_dev = sup_k |r_k - k*rod_step*e3|``; optionally the
    ``(C, 3, 3)`` ``final_frame`` and, with ``keep_path``, every state's
    ``tangents_all`` and ``positions_all``, ``(C, n+1, 3)``.  The time
    segments follow :func:`segment_plan`.
    """
    n = int(n_steps)
    segments, span = segment_plan(paths, n)
    scan = functools.partial(_scan_segments, step, n, span, n - (segments - 1) * span, weights)

    marks = sorted(set(int(k) for k in marks))
    mark_at: dict[int, list[tuple[int, int]]] = {}  # step in segment -> (segment, mark)
    for k in marks:
        if not 0 <= k <= n:
            raise ValueError(f"grid mark {k} outside 0..{n}")
        if k:
            mark_at.setdefault((k - 1) % span, []).append(((k - 1) // span, k))

    # the rod deviation needs global positions at every step; a lone
    # segment starts at the global origin, so its local values are global
    single = segments == 1
    shape = (paths, segments)
    end_q, end_r, local, path, sup_sq = scan(_identity(shape), np.zeros((3,) + shape), mark_at,
                                             keep_path, rod_step if single else None)

    # stitch: S_0 = 1, S_{b+1} = S_b E_b, P_{b+1} = P_b + R(S_b) r_end_b.  Each
    # S_b is renormalized: the rounding of constant-angle steps is biased,
    # so without it the norm drifts linearly over the segments.
    starts_q = _identity((paths, segments + 1))
    starts_r = np.zeros((3, paths, segments + 1))
    for b in range(segments):
        starts_q[:, :, b + 1] = _qnormalize(_qmul(starts_q[:, :, b], end_q[:, :, b]))
        starts_r[:, :, b + 1] = starts_r[:, :, b] + _rotate(starts_q[:, :, b], end_r[:, :, b])
    if rod_step is not None and not single:
        # rescan each segment from its stitched start
        sup_sq = scan(starts_q[:, :, :segments], starts_r[:, :, :segments], {}, False,
                      rod_step)[-1]

    out: dict = {"tangents": {}, "positions": {}}
    local[0] = (np.tile([[0.0], [0.0], [1.0]], paths), np.zeros((3, paths)))
    for k in marks:
        b = (k - 1) // span if k else 0
        t_loc, r_loc = local[k]
        out["tangents"][k] = _rotate(starts_q[:, :, b], t_loc).T
        out["positions"][k] = (starts_r[:, :, b] + _rotate(starts_q[:, :, b], r_loc)).T
    if rod_step is not None:
        out["sup_rod_dev"] = np.sqrt(np.max(sup_sq, axis=1))
    if want_final_frame:
        out["final_frame"] = quat_matrix(starts_q[:, :, segments])
    if keep_path:
        # map (4 or 3, C, B, L) local states to global tangents and
        # positions, then to (C, B*L, 3) where global state k sits at k - 1
        s_q = starts_q[:, :, :segments, None]
        q_loc, r_loc = path
        t_all, r_all = (np.moveaxis(a, 0, -1).reshape(paths, segments * span, 3)[:, :n]
                        for a in (np.array(_third_column(*_qmul(s_q, q_loc))),
                                  starts_r[:, :, :segments, None] + _rotate(s_q, r_loc)))
        start = np.zeros((paths, 1, 3))
        out["tangents_all"] = np.concatenate([start + (0.0, 0.0, 1.0), t_all], axis=1)
        out["positions_all"] = np.concatenate([start, r_all], axis=1)
    return out


def _identity(shape):
    q = np.zeros((4,) + tuple(shape))
    q[0] = 1.0
    return q


def _scan_segments(step, n, span, tail, weights, q0, r0, mark_at, keep_path, rod_step):
    """The per-step loop of :func:`frame_scan`: scan C x B segments side by
    side from their start frames ``q0`` and positions ``r0``, each over
    ``span`` steps (``tail`` real ones in the last segment).

    Returns the end frames and positions, the tangent and position at each
    marked state index, every state (with ``keep_path``) and the squared
    rod deviation's running maximum (with ``rod_step``).
    """
    w, x, y, z = (np.array(c) for c in q0)
    rx, ry, rz = (np.array(c) for c in r0)
    paths, segments = w.shape
    pw, px, py = np.empty((3, paths, segments))
    tx, ty, tz = _third_column(w, x, y, z)
    base = np.arange(segments) * span
    c_old, c_new = (float(c) for c in weights)
    path = sup_sq = None
    if keep_path:
        path = (np.empty((4, paths, segments, span)), np.empty((3, paths, segments, span)))
    if rod_step is not None:
        sup_sq = np.zeros((paths, segments))
    local = {}
    for j in range(span):
        idx = np.minimum(base + j, n - 1)
        step(idx, pw, px, py)
        ragged = j >= tail
        if ragged:
            # past the last real step: the exact identity, no motion
            pw[:, -1] = 1.0
            px[:, -1] = 0.0
            py[:, -1] = 0.0
        w, x, y, z = (w * pw - x * px - y * py, w * px + x * pw - z * py,
                      w * py + y * pw + z * px, z * pw + x * py - y * px)
        ux, uy, uz = _third_column(w, x, y, z)
        dx, dy, dz = c_new * ux, c_new * uy, c_new * uz
        if c_old:
            dx += c_old * tx
            dy += c_old * ty
            dz += c_old * tz
        if ragged:
            dx[:, -1] = dy[:, -1] = dz[:, -1] = 0.0
        rx += dx
        ry += dy
        rz += dz
        tx, ty, tz = ux, uy, uz
        for b, k in mark_at.get(j, ()):
            local[k] = (np.array([tx[:, b], ty[:, b], tz[:, b]]),
                        np.array([rx[:, b], ry[:, b], rz[:, b]]))
        if keep_path:
            path[0][:, :, :, j] = (w, x, y, z)
            path[1][:, :, :, j] = (rx, ry, rz)
        if rod_step is not None:
            dev = rz - (idx + 1) * rod_step
            dev *= dev
            dev += rx * rx
            dev += ry * ry
            np.maximum(sup_sq, dev, out=sup_sq)
    return np.array([w, x, y, z]), np.array([rx, ry, rz]), local, path, sup_sq


def _third_column(w, x, y, z):
    return 2.0 * (x * z + w * y), 2.0 * (y * z - w * x), 1.0 - 2.0 * (x * x + y * y)

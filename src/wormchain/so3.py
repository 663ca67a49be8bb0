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
``L = ceil(n/B)`` steps, ``B = min(4096 // C, floor(sqrt(n)))`` and at least
1.  All C*B segments are scanned at once, each from the identity frame, so
one numpy call advances C*B frames; the segments are then stitched in order,
``S_b = S_{b-1} E_{b-1}``.  Each start's rotation ``R(S_b)`` is built once,
and ``P_b`` sums the rotated ends ``R(S_c) r_c`` of the segments ``c < b``
in order.  One record holds each state that is read, once: a slot
per mark, filled by the one segment that holds it, or a full path, written
into the caller's array.  One map, ``P_b + R(S_b) local``, takes the record
to global coordinates in place, so a full path is the marks on every state,
bit for bit.  The sup deviation from the rod needs global positions at every
step; with more than one segment it comes from a second scan started at the
stitched ``(S_b, P_b)``.  The plan depends on (C, n) alone, so results do
not depend on how paths are spread over workers.  A step filler is called
for in-segment steps ``j = 0..L-1`` in order, so it can read its inputs from
a block of in-segment steps of every segment, refilled as the scan goes: the
chain's torsions are drawn that way (see :mod:`wormchain.chain`).

A filler that reads nothing but its own inputs may instead be called for
blocks of ``K`` in-segment steps on a helper thread: while the caller
advances the frames over block ``q``, the helper fills block ``q + 1`` into
the other of two step-major buffers.  The caller's product is the same
sequence of numpy calls either way, so a pipelined scan keeps every bit.

A scan integrates the curve only when something reads a position (a
position mark, the rod deviation or the full path); otherwise it advances
the frames alone and takes the tangent only on the recorded steps.  Either
way the tangents are the same bits.
"""
from __future__ import annotations

import bisect
import functools
import math
import threading

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

# A filler that may run ahead is called on a helper thread for blocks of
# K = L // _BLOCKS_PER_SEGMENT in-segment steps, when K >= _MIN_PIPELINED_BLOCK.
# The two step buffers and the filler's scratch then hold at most about
# 3.4 % of a chunk's 2 C n increments.  Both were set from wall_s medians of
# 10 alternated pairs against the per-step fill, with the divisor set to
# give each K.  kp-ensemble (L = 1000): K = 3 +13 % (4 won), K = 4 +4.9 %
# (4 won), K = 5 -5.2 % (7 won), K = 6 -7.5 % (9 won).  coil-narrow
# (L = 2041): K = 5 -5.7 % (8 won), K = 8 -16 % and K = 13 -22 % (10 won
# each; K = 13 peak_rss_mb +2.4 %); in a prototype K = 16 took peak_rss_mb
# past its 5 % bound.
_BLOCKS_PER_SEGMENT = 150
_MIN_PIPELINED_BLOCK = 5


def orthonormal_defect(m) -> float:
    """Frobenius norm of m^T m - I; zero for an exactly orthonormal matrix."""
    m = np.asarray(m, dtype=np.float64)
    return float(np.linalg.norm(np.swapaxes(m, -1, -2) @ m - np.eye(3)))


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


def _rotate(m, v):
    """Rotate vectors ``v`` ``(3, ...)`` by rotation matrices ``m`` ``(..., 3, 3)``,
    each component summed in one fixed order, ``((0 + m_i0 v_0) + m_i1 v_1) +
    m_i2 v_2``, so that the bits do not depend on how ``v`` is laid out."""
    return np.array([0.0 + m[..., i, 0] * v[0] + m[..., i, 1] * v[1] + m[..., i, 2] * v[2]
                     for i in range(3)])


def segment_plan(paths: int, n_steps: int) -> tuple[int, int]:
    """Segments ``B`` and steps per segment ``L`` for C paths of n steps.

    ``B = min(MAX_SCAN_WIDTH // C, floor(sqrt(n)))``, at least 1, and
    ``L = ceil(n / B)``.  Since ``B**2 <= n``, every segment holds at least
    one real step; only the last one can be short.
    """
    n = int(n_steps)
    segments = max(1, min(MAX_SCAN_WIDTH // max(1, int(paths)), math.isqrt(n)))
    return segments, -(-n // segments)


def frame_scan(step, paths: int, n_steps: int, *, weights: tuple[float, float],
               tangent_marks=(), position_marks=(), rod_step: float | None = None,
               want_final_frame: bool = False, keep=(None, None), ahead: bool = False) -> dict:
    """Advance C moving frames by n right-multiplied steps, and their curves.

    ``step(idx, pw, px, py)`` fills the ``(C, len(idx))`` buffers with the
    step quaternions ``(pw, px, py, 0)`` of the global step indices ``idx``,
    ``min(b L + j, n - 1)`` for each segment ``b``; each scan pass calls it
    for ``j = 0..L-1`` in order, and ``idx[0]`` is ``j``.  ``ahead`` says
    that it reads nothing the scan writes; then, when the segments are
    long, a helper thread calls it instead once per block of up to K
    consecutive steps ``j``, in order, with ``idx`` ``(k, B)`` and ``(C, k,
    B)`` buffers, views of step-major memory (see :func:`_step_quaternions`).
    The frame starts at the identity, the curve at the origin; after step
    ``k`` the tangent ``t_k`` is the frame's third column and the position is
    ``r_k = r_{k-1} + c_old t_{k-1} + c_new t_k`` with
    ``weights = (c_old, c_new)``.

    Returns ``tangents`` and ``positions``, dicts from each state index in
    ``tangent_marks`` and ``position_marks`` (``0..n``) respectively to
    ``(C, 3)`` arrays; with ``rod_step`` set,
    ``sup_rod_dev = sup_k |r_k - k*rod_step*e3|``; optionally the
    ``(C, 3, 3)`` ``final_frame``.  ``keep = (tangents, positions)``, each a
    ``(C, n+1, 3)`` array or None, are filled with every state.  The time
    segments follow :func:`segment_plan`; the curve is integrated only if
    ``position_marks``, ``rod_step`` or a kept ``positions`` asks for it.  One
    record holds each state that is read, once: the marks' own states, or the
    kept arrays, whose marks are then read from them.
    """
    n = int(n_steps)
    segments, span = segment_plan(paths, n)
    tail = n - (segments - 1) * span
    block = span // _BLOCKS_PER_SEGMENT if ahead else 1
    if block < _MIN_PIPELINED_BLOCK:
        block = 1
    tangent_marks, position_marks = (sorted({int(k) for k in m})
                                     for m in (tangent_marks, position_marks))
    for k in tangent_marks + position_marks:
        if not 0 <= k <= n:
            raise ValueError(f"grid mark {k} outside 0..{n}")
    kept = {i: path for i, path in enumerate(keep) if path is not None}
    curve = bool(position_marks) or 1 in kept or rod_step is not None
    scan = functools.partial(_scan_segments, step, block, n, span, tail, weights, curve)
    first = ((0.0, 0.0, 1.0), (0.0, 0.0, 0.0))[:1 + curve]

    # the record {0: tangents, 1: positions with the curve} (3, C, slots): a
    # slot per recorded state k >= 1, in-segment step (k - 1) % span of
    # segment (k - 1) // span; hits[j] = (slots, their segments)
    if kept:  # slot k - 1 is row k of the (C, n + 1, 3) kept array
        if 0 not in kept and any(tangent_marks):
            raise ValueError("a scan that keeps positions alone has no tangent marks")
        for i, path in kept.items():
            path[:, 0] = first[i]
        states = range(1, n + 1)
        record = {i: np.moveaxis(path[:, 1:], -1, 0) for i, path in kept.items()}
        hits = {j: (slice(j, n, span), slice(segments - (j >= tail))) for j in range(span)}
    else:
        states = sorted({k for k in tangent_marks + position_marks if k})
        record = {i: np.empty((3, paths, len(states))) for i in range(len(first))}
        steps = np.array(states, dtype=np.int64) - 1
        hits = {j: (np.flatnonzero(steps % span == j), steps[steps % span == j] // span)
                for j in set((steps % span).tolist())}
    # each segment starts at the identity and the origin.  The rod deviation
    # needs global positions at every step; a lone segment starts at the
    # global origin, so its local values are global.
    starts_q = np.zeros((4, paths, segments + 1))
    starts_q[0] = 1.0
    starts_r = np.zeros((3, paths, segments + 1))
    end_q, end_r, sup_sq = scan(starts_q[:, :, :segments], starts_r[:, :, :segments], record,
                                hits, rod_step if segments == 1 else None)

    # stitch: S_{b+1} = S_b E_b, renormalized, as biased rounding drifts the norm linearly;
    # each R(S_b) is built once, and P_{b+1} = P_b + R(S_b) r_end_b is summed in b order.
    for b in range(segments):
        starts_q[:, :, b + 1] = _qnormalize(_qmul(starts_q[:, :, b], end_q[:, :, b]))
    rotations = quat_matrix(starts_q[:, :, :segments])
    if curve:
        np.cumsum(_rotate(rotations, end_r), axis=2, out=starts_r[:, :, 1:])
    if rod_step is not None and segments > 1:
        # rescan each segment from its stitched start
        sup_sq = scan(starts_q[:, :, :segments], starts_r[:, :, :segments], {}, {},
                      rod_step)[-1]

    # the one map, in place, of local states to global ones, 4096 // C slots
    # at a time: t = R(S_b) t_local and r = P_b + R(S_b) r_local
    width = max(1, MAX_SCAN_WIDTH // max(1, paths))
    for lo in range(0, len(states), width):
        segs = (np.array(states[lo:lo + width]) - 1) // span
        for i, local in record.items():
            part = local[:, :, lo:lo + width]
            part[...] = _rotate(rotations[:, segs], part)
            if i:
                part += starts_r[:, :, segs]
    out: dict = {key: {k: record[i][:, :, bisect.bisect_left(states, k)].T if k
                       else np.tile(first[i], (paths, 1)) for k in marks}
                 for i, (key, marks) in enumerate((("tangents", tangent_marks),
                                                   ("positions", position_marks)))}
    if rod_step is not None:
        out["sup_rod_dev"] = np.sqrt(np.max(sup_sq, axis=1))
    if want_final_frame:
        out["final_frame"] = quat_matrix(starts_q[:, :, segments])
    return out


def _scan_segments(step, block, n, span, tail, weights, curve, q0, r0, record, hits, rod_step):
    """The per-step loop of :func:`frame_scan`: scan C x B segments side by
    side from their start frames ``q0`` and positions ``r0``, each over
    ``span`` steps (``tail`` real ones in the last segment), with the step
    quaternions of :func:`_step_quaternions`.

    After in-segment step ``j`` with ``hits[j] = (slots, segments)``, the
    listed segments' local tangents fill those slots of ``record[0]``
    ``(3, C, slots)`` and their positions those of ``record[1]``, if held.
    Returns the end frames and positions (None without ``curve``) and, with
    ``rod_step``, the squared rod deviation's maximum.
    """
    w, x, y, z = (np.array(c) for c in q0)
    paths, segments = w.shape
    rx, ry, rz = (np.array(c) for c in r0)
    if curve:
        tx, ty, tz = _third_column(w, x, y, z)
    base = np.arange(segments) * span
    c_old, c_new = (float(c) for c in weights)
    sup_sq = None if rod_step is None else np.zeros((paths, segments))
    quaternions = _step_quaternions(step, block, n, base, span, paths)
    try:
        for j, (pw, px, py) in enumerate(quaternions):
            ragged = j >= tail
            if ragged:
                # past the last real step: the exact identity, no motion
                pw[:, -1] = 1.0
                px[:, -1] = 0.0
                py[:, -1] = 0.0
            w, x, y, z = (w * pw - x * px - y * py, w * px + x * pw - z * py,
                          w * py + y * pw + z * px, z * pw + x * py - y * px)
            at = hits.get(j)
            if curve:
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
            elif at is not None:
                tx, ty, tz = _third_column(w, x, y, z)
            if at is not None:
                slots, segs = at
                for i, target in record.items():
                    vx, vy, vz = ((tx, ty, tz), (rx, ry, rz))[i]
                    target[:, :, slots] = vx[:, segs], vy[:, segs], vz[:, segs]
            if rod_step is not None:
                dev = rz - (np.minimum(base + j, n - 1) + 1) * rod_step
                dev *= dev
                dev += rx * rx
                dev += ry * ry
                np.maximum(sup_sq, dev, out=sup_sq)
    finally:
        quaternions.close()  # stops and joins a helper

    end_r = np.array([rx, ry, rz]) if curve else None
    return np.array([w, x, y, z]), end_r, sup_sq


def _step_quaternions(step, block, n, base, span, paths):
    """Yield the ``(3, C, B)`` step quaternions ``(pw, px, py)`` of in-segment
    steps ``j = 0..span-1`` in order, for segments starting at steps ``base``.

    With ``block`` 1 the filler runs here, a step at a time, into one buffer.
    Otherwise one helper thread fills blocks of ``block`` steps into two
    alternating step-major ``(3, K, C, B)`` buffers, through ``(C, K, B)``
    views: block ``q + 1`` while the caller reads block ``q``.  ``free``
    counts the buffers the helper may fill and ``full`` those the caller may
    read.  Closing the generator stops and joins the helper, and what the
    helper raised is raised here after the join.
    """
    if block == 1:
        pw, px, py = np.empty((3, paths, base.shape[0]))
        for j in range(span):
            step(np.minimum(base + j, n - 1), pw, px, py)
            yield pw, px, py
        return
    bufs = np.empty((2, 3, block, paths, base.shape[0]))
    starts = range(0, span, block)
    free, full = threading.Semaphore(2), threading.Semaphore(0)
    stopping = threading.Event()
    raised = []

    def helper():
        try:
            for q, j in enumerate(starts):
                free.acquire()
                if stopping.is_set():
                    return
                steps = np.arange(j, min(j + block, span))[:, None]
                step(np.minimum(base + steps, n - 1), *bufs[q % 2, :, :len(steps)].swapaxes(1, 2))
                full.release()
        except BaseException as exc:  # handed to the caller after the join
            raised.append(exc)
            full.release()

    thread = threading.Thread(target=helper, name="wormchain-scan")
    thread.start()
    try:
        for q, j in enumerate(starts):
            full.acquire()
            if raised:
                raise raised[0]
            yield from bufs[q % 2, :, :min(block, span - j)].swapaxes(0, 1)
            free.release()
    finally:
        stopping.set()
        free.release()
        thread.join()


def _third_column(w, x, y, z):
    return 2.0 * (x * z + w * y), 2.0 * (y * z - w * x), 1.0 - 2.0 * (x * x + y * y)

"""Continuum Kratky-Porod (wormlike chain) model.

The unit tangent ``Q_s`` is Brownian motion on the sphere, started at the
north pole, with correlation ``E[Q_s . Q_t] = exp(-2|t-s|/ell_p)``; the curve
is ``R_s = integral of Q_u du``.  The tangent is carried by an SO(3)-valued
frame process ``Z_s`` (``Q = Z e3``) advanced by a geometric (exponential)
Euler-Maruyama step: each increment right-multiplies ``Z`` by the
exponential of a random so(3) element built from two independent Brownian
increments.  The frame therefore stays in SO(3) exactly, and the tangent
stays on the sphere by construction rather than by projection.

Ensembles and long paths run through the shared kernel
:func:`wormchain.so3.frame_scan`, which carries ``Z`` as a unit quaternion:
the step by rotation vector ``omega`` (angle ``a = |omega|``) is the
quaternion ``(cos(a/2), sin(a/2)/a * omega)``, and a batch is cut into time
segments that are scanned side by side and then stitched (see
:mod:`wormchain.so3`).  The frame is only the means: a :class:`PathSample`
keeps the curve, its grid, tangents and positions.  Those arrays are
read-only: its constructor checks and copies what it is given, and
:func:`simulate_kp` adopts the arrays it has the scan fill, without a copy.
Every path, :func:`simulate_kp`'s too, draws in :func:`_draw_increments`,
each row from its own stream.  An ensemble chunk that runs in the calling
process draws on two threads, half of its rows each, with the same bits;
pool workers and :func:`simulate_kp` draw alone.  Such a chunk, when its
segments are long, also has a helper thread fill the step quaternions of
the next block of steps while its scan advances the frames (see
:func:`_kp_scan`), again with the same bits.

Noise normalization: the per-step rotation vector is
``sqrt(2/ell_p) * (-db2, db1, 0)`` with ``db1, db2 ~ N(0, h)``.  The factor
``sqrt(2/ell_p)`` is what makes the generator of ``Q`` equal to
``(1/ell_p) Laplace-Beltrami`` on the sphere, i.e. it realizes exactly the
``exp(-2|t-s|/ell_p)`` tangent-correlation convention used by
:mod:`wormchain.analytics`.  (Under the alternative ``exp(-|t-s|/ell_p)``
convention the coefficient would be ``sqrt(1/ell_p)``; see the README note
on conventions.)
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .analytics import _CSV_BLOCK_ROWS, _adopt, _check_count, _check_positive, _check_size, _freeze
from .so3 import frame_scan

__all__ = [
    "KpConfig",
    "PathSample",
    "default_n_steps",
    "simulate_kp",
    "write_path_csv",
]

# Below this rotation angle the step's sin(a/2)/a loses relative precision
# to its closed form; switch to the series.
_SMALL_ANGLE = 1e-4


def _check_ell_p(ell_p: float) -> None:
    # below about 1.11e-308 the step scale sqrt(2/ell_p) is inf: every step nan
    _check_positive("ell_p", ell_p)
    if not math.isfinite(2.0 / float(ell_p)):
        raise ValueError(f"ell_p = {ell_p!r} is too small: the step scale sqrt(2/ell_p) overflows")


def default_n_steps(contour_length: float, ell_p: float) -> int:
    """Grid resolution that resolves the correlation length with >= 50 steps."""
    _check_positive("contour_length", contour_length)
    _check_positive("ell_p", ell_p)
    return max(1000, math.ceil(_check_size(f"ell_p = {ell_p!r}", 100.0 * contour_length / ell_p)))


@dataclass(frozen=True)
class KpConfig:
    """Contour length L, persistence length ell_p, and grid resolution."""

    contour_length: float
    ell_p: float
    n_steps: int

    def __post_init__(self) -> None:
        _check_positive("contour_length", self.contour_length)
        _check_ell_p(self.ell_p)
        object.__setattr__(self, "n_steps", _check_count("n_steps", self.n_steps))

    @classmethod
    def create(cls, contour_length: float, ell_p: float, n_steps: int | None = None) -> "KpConfig":
        if n_steps is None:
            n_steps = default_n_steps(contour_length, ell_p)
        return cls(float(contour_length), float(ell_p), n_steps)

    @property
    def h(self) -> float:
        return self.contour_length / self.n_steps


@dataclass(frozen=True, eq=False)
class PathSample:
    """A realized path on the grid: arclengths s_k, tangents Q_k, positions R_k."""

    grid: np.ndarray       # (n+1,)
    tangents: np.ndarray   # (n+1, 3)
    positions: np.ndarray  # (n+1, 3)

    def __post_init__(self) -> None:
        _freeze(self, **{name: np.asarray(getattr(self, name), dtype=np.float64).copy()
                         for name in ("grid", "tangents", "positions")})
        n = self.grid.shape[0]
        if self.tangents.shape != (n, 3) or self.positions.shape != (n, 3):
            raise ValueError("grid, tangents and positions lengths disagree")


def _kp_steps(ell_p: float, dbeta: np.ndarray):
    """Step-quaternion filler for :func:`frame_scan` from (C, n, 2) increments.

    The step rotates by ``a = |omega|`` about ``omega / a`` with ``omega =
    sqrt(2/ell_p) (-db2, db1, 0)``, i.e. ``(cos(a/2), sin(a/2)/a * omega)``.
    Both come from one ``tau = tan(a/4)``: ``cos(a/2) = (1 - tau^2)/(1 +
    tau^2)`` and ``sin(a/2) = 2 tau/(1 + tau^2)``, since numpy's vectorized
    tangent costs far less than a sine plus a cosine.  Below ``1e-4`` rad
    ``sin(a/2)/a`` comes from its series.

    One function fills one step, idx ``(B,)`` into ``(C, B)`` buffers, or a
    block of ``K`` steps, idx ``(K, B)`` into ``(C, K, B)`` ones, with the
    same ufuncs in the same order on every element, so both give the same
    bits.  Its scratch, the gathered increments, ``|omega| / scale`` and
    ``tau``, is made once per scan at the first call, which gets the largest
    buffers; a short last block fills the front of it.
    """
    scale = math.sqrt(2.0 / ell_p)
    scratch = []
    views = {}  # buffer shape -> its contiguous scratch views

    def fill(idx, pw, px, py):
        shape, count = pw.shape, pw.size
        if not scratch:
            scratch.extend((np.empty((count, 2)), *np.empty((2, count)),
                            np.empty(count, dtype=bool)))
        if shape not in views:
            views[shape] = [a[:count].reshape(shape + a.shape[1:]) for a in scratch]
        d, m, tau, small = views[shape]
        np.take(dbeta, idx, axis=1, out=d, mode="clip")
        db1, db2 = d[..., 0], d[..., 1]
        np.multiply(db1, db1, out=m)
        m += np.multiply(db2, db2, out=tau)
        np.sqrt(m, out=m)  # |omega| / scale
        np.multiply(m, 0.25 * scale, out=tau)
        np.tan(tau, out=tau)
        np.multiply(tau, tau, out=py)
        np.add(py, 1.0, out=px)  # 1 + tau^2, held in px
        np.subtract(1.0, py, out=pw)
        pw /= px
        px *= m
        with np.errstate(invalid="ignore", divide="ignore"):
            np.divide(tau, px, out=tau)
        tau *= 2.0  # scale * sin(a/2) / a
        if np.less(m, _SMALL_ANGLE / scale, out=small).any():
            b1, b2 = db1[small], db2[small]
            a2 = b1 * b1
            a2 += b2 * b2
            a2 *= scale * scale
            tau[small] = 0.5 * scale * (1.0 - a2 / 24.0 * (1.0 - a2 / 80.0))
        np.multiply(tau, db2, out=px)
        np.negative(px, out=px)
        np.multiply(tau, db1, out=py)

    return fill


def _kp_scan(ell_p: float, h: float, dbeta: np.ndarray, *,
             keep=(None, None),
             tangent_marks: tuple[int, ...] = (),
             position_marks: tuple[int, ...] = (),
             track_sup_rod_dev: bool = False,
             want_final_frame: bool = False,
             two_threads: bool = False) -> dict:
    """Integrate a batch of frame paths from a (C, n, 2) increment array.

    Runs :func:`wormchain.so3.frame_scan`.  Tangents are frame third
    columns; positions accumulate by the trapezoid rule ``R_k = R_{k-1} +
    (h/2)(Q_{k-1} + Q_k)``.  Marks are grid indices in ``0..n``.
    ``track_sup_rod_dev`` records ``sup_k |R_k - s_k e3|`` per path, and
    ``keep = (tangents, positions)`` are filled with the whole paths.
    With ``two_threads``, a scan with long segments has a helper thread fill
    each next block's step quaternions while it advances the frames, with
    the same bits (see :func:`wormchain.so3.frame_scan`'s ``ahead``).
    """
    _check_ell_p(ell_p)
    paths, n, two = dbeta.shape
    if two != 2:
        raise ValueError(f"dbeta must have shape (C, n_steps, 2), got {dbeta.shape}")
    return frame_scan(_kp_steps(ell_p, dbeta), paths, n, weights=(0.5 * h, 0.5 * h),
                      tangent_marks=tangent_marks, position_marks=position_marks,
                      rod_step=h if track_sup_rod_dev else None,
                      want_final_frame=want_final_frame, keep=keep, ahead=two_threads)


def _draw_increments(cfg: KpConfig, paths: int, seek, helper_seek=None) -> np.ndarray:
    """The driver of ``C`` paths: ``(C, n_steps, 2)`` increments ``(db1_k,
    db2_k)``, each i.i.d. Normal(0, h), row ``i`` drawn whole from ``seek(i)``,
    since a ziggurat normal takes a variable number of draws: a segment's
    place in the stream is not known without drawing what comes before it.

    Each row's standard normals are scaled in place as soon as they are
    drawn, while the row is still in cache; they are the bits of
    ``rng.normal(0.0, sqrt(h))``, which computes ``0 + sqrt(h) * z``.

    Given ``helper_seek``, a second seeker over the same keys, one thread
    draws rows ``C//2..C-1`` from it while the caller draws the rest: each
    Philox fills its rows without the GIL, and every row keeps its bits.
    The thread is always joined, and what it raised is raised here.
    """
    dbeta = np.empty((paths, cfg.n_steps, 2))
    sd = math.sqrt(cfg.h)

    def draw(rows, seek):
        for i in rows:
            row = dbeta[i]
            seek(i).standard_normal(out=row)
            row *= sd

    if helper_seek is None or paths < 2:
        draw(range(paths), seek)
        return dbeta
    half = paths // 2
    raised = []

    def helper():
        try:
            draw(range(half, paths), helper_seek)
        except BaseException as exc:  # handed to the caller after the join
            raised.append(exc)

    thread = threading.Thread(target=helper, name="wormchain-draw")
    thread.start()
    try:
        draw(range(half), seek)
    finally:
        thread.join()
    if raised:
        raise raised[0]
    return dbeta


def simulate_kp(cfg: KpConfig, rng: np.random.Generator) -> PathSample:
    """Simulate one path on the uniform grid: the one-path draw from ``rng``, then the scan."""
    tangents, positions = np.empty((2, 1, cfg.n_steps + 1, 3))
    _kp_scan(cfg.ell_p, cfg.h, _draw_increments(cfg, 1, lambda i: rng), keep=(tangents, positions))
    grid = np.arange(cfg.n_steps + 1, dtype=np.float64) * cfg.h
    return _adopt(PathSample, grid=grid, tangents=tangents[0], positions=positions[0])


def write_path_csv(path: PathSample, fileobj) -> None:
    """One row per grid point: s, Qx, Qy, Qz, Rx, Ry, Rz; numbers as
    ``repr`` (an exact round trip)."""
    fileobj.write("s,Qx,Qy,Qz,Rx,Ry,Rz\n")
    n = path.grid.shape[0]
    for start in range(0, n, _CSV_BLOCK_ROWS):
        rows = slice(start, start + _CSV_BLOCK_ROWS)
        block = np.column_stack((path.grid[rows], path.tangents[rows], path.positions[rows]))
        fileobj.writelines(["%r,%r,%r,%r,%r,%r,%r\n" % tuple(row) for row in block.tolist()])

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
:func:`simulate_kp` adopts the arrays it has just built, without a copy.

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
        _check_positive("ell_p", self.ell_p)
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
    """
    scale = math.sqrt(2.0 / ell_p)

    def fill(idx, pw, px, py):
        d = np.take(dbeta, idx, axis=1)
        db1, db2 = d[..., 0], d[..., 1]
        m2 = db1 * db1
        m2 += db2 * db2
        m = np.sqrt(m2)  # |omega| / scale
        tau = np.tan(m * (0.25 * scale))
        tau2 = tau * tau
        den = tau2 + 1.0
        np.subtract(1.0, tau2, out=pw)
        pw /= den
        den *= m
        with np.errstate(invalid="ignore", divide="ignore"):
            g = tau / den
        g *= 2.0  # scale * sin(a/2) / a
        small = m < _SMALL_ANGLE / scale
        if small.any():
            a2 = m2 * (scale * scale)
            g = np.where(small, 0.5 * scale * (1.0 - a2 / 24.0 * (1.0 - a2 / 80.0)), g)
        np.multiply(g, db2, out=px)
        np.negative(px, out=px)
        np.multiply(g, db1, out=py)

    return fill


def _kp_scan(ell_p: float, h: float, dbeta: np.ndarray, *,
             keep_path: bool = False,
             tangent_marks: tuple[int, ...] = (),
             position_marks: tuple[int, ...] = (),
             track_sup_rod_dev: bool = False,
             want_final_frame: bool = False) -> dict:
    """Integrate a batch of frame paths from a (C, n, 2) increment array.

    Runs :func:`wormchain.so3.frame_scan`.  Tangents are frame third
    columns; positions accumulate by the trapezoid rule ``R_k = R_{k-1} +
    (h/2)(Q_{k-1} + Q_k)``.  Marks are grid indices in ``0..n``.
    ``track_sup_rod_dev`` records ``sup_k |R_k - s_k e3|`` per path.
    """
    _check_positive("ell_p", ell_p)
    paths, n, two = dbeta.shape
    if two != 2:
        raise ValueError(f"dbeta must have shape (C, n_steps, 2), got {dbeta.shape}")
    return frame_scan(_kp_steps(ell_p, dbeta), paths, n, weights=(0.5 * h, 0.5 * h),
                      tangent_marks=tangent_marks, position_marks=position_marks,
                      rod_step=h if track_sup_rod_dev else None,
                      want_final_frame=want_final_frame, keep_path=keep_path)


def _draw_increments(cfg: KpConfig, rng: np.random.Generator,
                     out: np.ndarray | None = None) -> np.ndarray:
    """One path's driver: ``(n_steps, 2)`` increments ``(db1_k, db2_k)``,
    each i.i.d. Normal(0, h), written into ``out`` (a new array if None).

    Standard normals scaled in place are the bits of ``rng.normal(0.0,
    sqrt(h))``, which computes ``0 + sqrt(h) * z``, without its temporary.
    """
    if out is None:
        out = np.empty((cfg.n_steps, 2))
    rng.standard_normal(out=out)
    out *= math.sqrt(cfg.h)
    return out


def simulate_kp(cfg: KpConfig, rng: np.random.Generator) -> PathSample:
    """Simulate one path on the uniform grid from the stream ``rng``."""
    rec = _kp_scan(cfg.ell_p, cfg.h, _draw_increments(cfg, rng)[None], keep_path=True)
    grid = np.arange(cfg.n_steps + 1, dtype=np.float64) * cfg.h
    return _adopt(PathSample, grid=grid, tangents=rec["tangents_all"][0],
                  positions=rec["positions_all"][0])


def write_path_csv(path: PathSample, fileobj) -> None:
    """One row per grid point: s, Qx, Qy, Qz, Rx, Ry, Rz; numbers as
    ``repr`` (an exact round trip)."""
    fileobj.write("s,Qx,Qy,Qz,Rx,Ry,Rz\n")
    n = path.grid.shape[0]
    for start in range(0, n, _CSV_BLOCK_ROWS):
        rows = slice(start, start + _CSV_BLOCK_ROWS)
        block = np.column_stack((path.grid[rows], path.tangents[rows], path.positions[rows]))
        fileobj.writelines(["%r,%r,%r,%r,%r,%r,%r\n" % tuple(row) for row in block.tolist()])

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
:mod:`wormchain.so3`).  :func:`step_kp` keeps the single 3x3 Rodrigues step.

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

from .so3 import _SMALL_ANGLE, Rotation3, UnitVec3, frame_scan, rodrigues_batch

__all__ = [
    "KpConfig",
    "BrownianDriver",
    "PathSample",
    "default_n_steps",
    "step_kp",
    "simulate_kp",
    "tangent_at",
    "write_path_csv",
]

def default_n_steps(contour_length: float, ell_p: float) -> int:
    """Grid resolution that resolves the correlation length with >= 50 steps."""
    return max(1000, math.ceil(100.0 * contour_length / ell_p))


@dataclass(frozen=True)
class KpConfig:
    """Contour length L, persistence length ell_p, and grid resolution."""

    contour_length: float
    ell_p: float
    n_steps: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.contour_length) and self.contour_length > 0.0):
            raise ValueError(f"contour_length must be positive, got {self.contour_length!r}")
        if not (math.isfinite(self.ell_p) and self.ell_p > 0.0):
            raise ValueError(f"ell_p must be positive, got {self.ell_p!r}")
        if not isinstance(self.n_steps, (int, np.integer)) or self.n_steps < 1:
            raise ValueError(f"n_steps must be a positive integer, got {self.n_steps!r}")

    @classmethod
    def create(cls, contour_length: float, ell_p: float, n_steps: int | None = None) -> "KpConfig":
        if n_steps is None:
            n_steps = default_n_steps(contour_length, ell_p)
        return cls(float(contour_length), float(ell_p), int(n_steps))

    @property
    def h(self) -> float:
        return self.contour_length / self.n_steps


@dataclass(frozen=True, eq=False)
class BrownianDriver:
    """Increments of the two driving Brownian motions on a uniform grid.

    ``increments[k] = (db1_k, db2_k)``, each i.i.d. Normal(0, h).
    """

    increments: np.ndarray  # (n_steps, 2)
    h: float

    def __post_init__(self) -> None:
        arr = np.asarray(self.increments, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
            raise ValueError(f"increments must have shape (n_steps, 2), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("increments must be finite")
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise ValueError(f"h must be positive, got {self.h!r}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "increments", arr)

    @classmethod
    def draw(cls, n_steps: int, h: float, rng: np.random.Generator) -> "BrownianDriver":
        return cls(rng.normal(0.0, math.sqrt(h), size=(int(n_steps), 2)), float(h))

    @classmethod
    def zeros(cls, n_steps: int, h: float) -> "BrownianDriver":
        """All-zero driver: the integrator then reproduces the straight rod."""
        return cls(np.zeros((int(n_steps), 2)), float(h))


@dataclass(frozen=True, eq=False)
class PathSample:
    """A realized path on the grid: frames Z_k, tangents Q_k, positions R_k."""

    grid: np.ndarray       # (n+1,)
    frames: np.ndarray     # (n+1, 3, 3)
    tangents: np.ndarray   # (n+1, 3)
    positions: np.ndarray  # (n+1, 3)

    def __post_init__(self) -> None:
        for name in ("grid", "frames", "tangents", "positions"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = self.grid.shape[0]
        if (self.frames.shape != (n, 3, 3) or self.tangents.shape != (n, 3)
                or self.positions.shape != (n, 3)):
            raise ValueError("grid, frames, tangents and positions lengths disagree")

    @property
    def n_steps(self) -> int:
        return self.grid.shape[0] - 1

    @property
    def contour_length(self) -> float:
        return float(self.grid[-1])


def _increment_vectors(ell_p: float, dbeta: np.ndarray) -> np.ndarray:
    """so(3) rotation vectors for a (C, 2) batch of Brownian increments."""
    scale = math.sqrt(2.0 / ell_p)
    omega = np.empty(dbeta.shape[:-1] + (3,))
    omega[..., 0] = -scale * dbeta[..., 1]
    omega[..., 1] = scale * dbeta[..., 0]
    omega[..., 2] = 0.0
    return omega


def step_kp(z: Rotation3, dbeta1: float, dbeta2: float, ell_p: float) -> Rotation3:
    """Advance the frame by one exponential Euler-Maruyama step.

    Returns ``z @ exp(hat(sqrt(2/ell_p) * (-dbeta2, dbeta1, 0)))``.  The
    rotation axis lies in the body-frame x-y plane (perpendicular to the
    current tangent), so the result is exactly in SO(3) up to roundoff.
    """
    if not (math.isfinite(ell_p) and ell_p > 0.0):
        raise ValueError(f"ell_p must be positive, got {ell_p!r}")
    omega = _increment_vectors(ell_p, np.array([dbeta1, dbeta2], dtype=np.float64))
    return Rotation3(z.m @ rodrigues_batch(omega))


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
    paths, n, two = dbeta.shape
    if two != 2:
        raise ValueError(f"dbeta must have shape (C, n_steps, 2), got {dbeta.shape}")
    return frame_scan(_kp_steps(ell_p, dbeta), paths, n, weights=(0.5 * h, 0.5 * h),
                      marks=(*tangent_marks, *position_marks),
                      rod_step=h if track_sup_rod_dev else None,
                      want_final_frame=want_final_frame, keep_path=keep_path)


def simulate_kp(cfg: KpConfig, rng: np.random.Generator | None = None, *,
                driver: BrownianDriver | None = None) -> PathSample:
    """Simulate one path on the uniform grid.

    Draws a fresh driver from ``rng`` unless an explicit ``driver`` is
    injected (e.g. the all-zero driver, whose path is the straight rod).
    """
    if driver is None:
        if rng is None:
            raise ValueError("either rng or driver must be provided")
        driver = BrownianDriver.draw(cfg.n_steps, cfg.h, rng)
    else:
        if driver.increments.shape[0] != cfg.n_steps:
            raise ValueError(
                f"driver has {driver.increments.shape[0]} steps, config wants {cfg.n_steps}")
    rec = _kp_scan(cfg.ell_p, cfg.h, driver.increments[None, :, :], keep_path=True)
    grid = np.arange(cfg.n_steps + 1, dtype=np.float64) * cfg.h
    return PathSample(
        grid=grid,
        frames=rec["frames_all"][0],
        tangents=rec["tangents_all"][0],
        positions=rec["positions_all"][0],
    )


def tangent_at(path: PathSample, s: float) -> UnitVec3:
    """Tangent at the nearest grid point <= s (piecewise-constant on the grid)."""
    length = path.contour_length
    if not (math.isfinite(s) and -1e-9 * length <= s <= length * (1.0 + 1e-12) + 1e-9 * length):
        raise ValueError(f"arclength s = {s!r} outside [0, {length!r}]")
    h = float(path.grid[1]) if path.n_steps >= 1 else length
    k = int(math.floor(s / h + 1e-9))
    k = min(max(k, 0), path.n_steps)
    return UnitVec3(path.tangents[k])


def write_path_csv(path: PathSample, fileobj) -> None:
    """One row per grid point: s, Qx, Qy, Qz, Rx, Ry, Rz."""
    import csv

    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["s", "Qx", "Qy", "Qz", "Rx", "Ry", "Rz"])
    for s, q, r in zip(path.grid, path.tangents, path.positions):
        writer.writerow([repr(float(s))] + [repr(float(x)) for x in q] + [repr(float(x)) for x in r])

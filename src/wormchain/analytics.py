"""Closed-form reference statistics for the wormlike chain.

These are the oracles every Monte Carlo estimate is judged against.  The
tangent-correlation convention is ``E[Q_s . Q_t] = exp(-2|t-s|/ell_p)``;
everything else here is derived from it (see README for the convention
note).  ``hard_rod_fluctuation_cov`` is the normalized integrated-Brownian
covariance: under this convention the stiff-limit transverse variance is
``Var(sqrt(ell_p) * R^i_s) = 2 * hard_rod_fluctuation_cov(s, s) = 2*s^3/3``,
because the transverse tangent near the rod is ``sqrt(2/ell_p)`` times a
standard Brownian motion.

The module also holds what the path layer shares: the input checks, the
rule that makes a record's arrays read-only (``_freeze``, and ``_adopt`` for
arrays a sampler has just built), and the rows per write of the CSV writers.
"""
from __future__ import annotations

import math
import numbers

__all__ = [
    "kp_tangent_correlation",
    "kp_mean_sq_position",
    "hard_rod_fluctuation_cov",
    "random_coil_cov",
]

# Below t/ell_p = 1e-4 the closed form of the mean squared position loses
# ~4 digits to cancellation; switch to its series in t/ell_p.
_MSD_SERIES_CUTOFF = 1e-4

_MAX_COUNT = 1 << 58  # past it a path's (n + 1, 3) float64 arrays exceed 2**63 bytes

# rows formatted per write in the CSV writers: bounds the Python floats and
# strings alive at once, whatever the path length
_CSV_BLOCK_ROWS = 4096

def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive, got {value!r}")


def _check_nonnegative(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be nonnegative, got {value!r}")


def _check_finite_value(form: str, value: float, **inputs) -> float:
    """``value``, closed form ``form`` at ``inputs``, if finite: a length
    near the float range can overflow the form although each input is finite."""
    if not math.isfinite(value):
        at = ", ".join(f"{name}={arg!r}" for name, arg in inputs.items())
        raise ValueError(f"{form}({at}) overflows to {value!r}")
    return value


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_size(cause: str, count: float) -> float:
    """``count`` if at most 2**58; ``cause`` names it or what asks for its steps."""
    if count > _MAX_COUNT:
        from decimal import Decimal  # formats any int; imported only to reject one
        if cause in ("n_paths", "grid_points"):
            raise ValueError(f"{cause} must be at most 2**58, got {Decimal(count):.3e}")
        raise ValueError(f"{cause} asks for {Decimal(count):.3e} steps; a path holds at most 2**58")
    return count


def _check_count(name: str, value: int) -> int:
    if not (_is_int(value) and value >= 1):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return _check_size(name, int(value))


def _freeze(record, **arrays):
    """``record``, a frozen dataclass, with each of ``arrays`` made
    read-only and set as the field of its name."""
    for name, arr in arrays.items():
        arr.setflags(write=False)
        object.__setattr__(record, name, arr)
    return record


def _adopt(cls, **arrays):
    """A ``cls`` record of arrays that the caller built and holds nowhere
    else: made read-only where they are, neither copied nor checked."""
    return _freeze(object.__new__(cls), **arrays)


def kp_tangent_correlation(ell_p: float, s: float, t: float) -> float:
    """Tangent-tangent correlation E[Q_s . Q_t] = exp(-2|t-s|/ell_p)."""
    _check_positive("ell_p", ell_p)
    _check_nonnegative("s", s)
    _check_nonnegative("t", t)
    return math.exp(-2.0 * (abs(t - s) / ell_p))  # 2|t - s| alone can overflow


def kp_mean_sq_position(ell_p: float, t: float) -> float:
    """Mean squared position E|R_t|^2 = ell_p*t - (ell_p^2/2)(1 - exp(-2t/ell_p)).

    Equals twice the double integral of the tangent correlation over
    ``0 <= u <= v <= t``.  For ``t/ell_p < 1e-4`` the cancellation-free
    series ``t^2 - (2/3)t^3/ell_p + (1/3)t^4/ell_p^2 - (2/15)t^5/ell_p^3``
    is used instead.
    """
    _check_positive("ell_p", ell_p)
    _check_nonnegative("t", t)
    x = t / ell_p
    if x < _MSD_SERIES_CUTOFF:
        msd = t * t * (1.0 - x * (2.0 / 3.0 - x * (1.0 / 3.0 - x * (2.0 / 15.0))))
    else:
        msd = ell_p * t - 0.5 * ell_p * ell_p * (1.0 - math.exp(-2.0 * x))
    return _check_finite_value("kp_mean_sq_position", msd, ell_p=ell_p, t=t)


def hard_rod_fluctuation_cov(s: float, t: float) -> float:
    """Covariance of an integrated standard Brownian motion at arclengths s, t.

    ``Cov(W_s, W_t) = int_0^s int_0^t min(u, v) du dv = s^2 (3t - s) / 6``
    for ``s <= t`` (symmetric in its arguments).  Twice this is the
    per-transverse-component covariance of ``sqrt(ell_p) * R`` for small
    bending fluctuations about the straight rod (see the module docstring);
    the longitudinal component vanishes and cross-component covariances are
    zero.
    """
    _check_nonnegative("s", s)
    _check_nonnegative("t", t)
    lo, hi = (s, t) if s <= t else (t, s)
    cov = lo * lo * (3.0 * hi - lo) / 6.0
    return _check_finite_value("hard_rod_fluctuation_cov", cov, s=s, t=t)


def random_coil_cov(s: float, t: float) -> float:
    """Per-component covariance min(s, t) of the random-coil limit.

    As ``ell_p -> 0`` the rescaled curve ``sqrt(3/ell_p) R`` behaves as a
    standard 3-d Brownian motion: each component has covariance
    ``min(s, t)`` and cross-component covariances vanish.
    """
    _check_nonnegative("s", s)
    _check_nonnegative("t", t)
    return min(s, t)

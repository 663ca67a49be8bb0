"""The Rodrigues matrix exponential: the reference the quaternion frame
kernel is tested against, kept with the tests since the package never
builds a rotation matrix step by step."""
import numpy as np

# Below this angle the closed-form coefficients sin(t)/t and (1-cos t)/t^2
# lose relative precision; switch to their 4th-order series.
SMALL_ANGLE = 1e-4


def rodrigues_batch(omega) -> np.ndarray:
    """Rodrigues exponential of a stack of rotation vectors.

    ``omega`` is ``(..., 3)``: angle times unit axis.  Returns the
    ``(..., 3, 3)`` exponential of the skew matrix ``K`` of each ``w =
    omega`` (``K v = w x v``), the right-handed rotation by ``|w|`` about
    ``w``.  Uses the closed form ``R = (1 - B t^2) I + A K + B w w^T`` with
    ``t = |w|``, ``A = sin(t)/t`` and ``B = (1 - cos t)/t^2``, switching to
    series below ``SMALL_ANGLE`` radians.
    """
    omega = np.asarray(omega, dtype=np.float64)
    t2 = np.sum(omega * omega, axis=-1)
    t = np.sqrt(t2)
    small = t < SMALL_ANGLE
    safe = np.where(small, 1.0, t)
    a = np.where(small, 1.0 - t2 / 6.0 * (1.0 - t2 / 20.0), np.sin(t) / safe)
    b = np.where(small, 0.5 - t2 / 24.0 * (1.0 - t2 / 30.0), (1.0 - np.cos(t)) / (safe * safe))
    c = 1.0 - b * t2  # equals cos(t), consistently with the series branch

    x, y, z = omega[..., 0], omega[..., 1], omega[..., 2]
    zero = np.zeros_like(x)
    k = np.stack(
        [
            np.stack([zero, -z, y], axis=-1),
            np.stack([z, zero, -x], axis=-1),
            np.stack([-y, x, zero], axis=-1),
        ],
        axis=-2,
    )
    outer = omega[..., :, None] * omega[..., None, :]
    return (
        c[..., None, None] * np.eye(3)
        + a[..., None, None] * k
        + b[..., None, None] * outer
    )

"""The discrete freely rotating chain.

A chain of ``N`` bonds of common length ``a``; consecutive bonds meet at a
fixed angle ``theta`` and the torsion of each joint is uniform on
``[0, 2*pi)``.  The chain is pinned: bead 0 sits at the origin and the first
bond points along ``+z``, so the first bond consumes no randomness and the
``N - 1`` torsions belong to bonds ``2..N``.

Construction is by accumulated rotations: bond ``n`` is ``Z_n`` applied to
``a*e3``, where ``Z_n = Z_{n-1} H_n`` and ``H_n`` rotates by ``theta`` about
the axis ``(cos phi_n, sin phi_n, 0)``.  Right-multiplication means the
torsion axis lives in the body frame, i.e. in the plane perpendicular to the
current bond, which enforces the bond-length and bond-angle constraints
exactly (up to float roundoff).

The product runs in :func:`wormchain.so3.frame_scan`, the kernel the
wormlike chain uses too: ``Z_n`` is a unit quaternion and ``H_n`` is
``(cos(theta/2), sin(theta/2) cos phi_n, sin(theta/2) sin phi_n, 0)``; the
chain differs from the continuum model only in that fixed angle and uniform
axis, and in summing bonds where the continuum integrates by the trapezoid
rule.  Long chains are cut into time segments scanned side by side and
stitched, as described in :mod:`wormchain.so3`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .so3 import frame_scan

__all__ = [
    "FrcConfig",
    "DiscreteChain",
    "sample_frc",
    "frc_bond_correlation_oracle",
    "frc_msd_oracle",
    "write_chain_csv",
]

_E3 = np.array([0.0, 0.0, 1.0])

# rows formatted per write in the CSV writer: bounds the Python floats and
# strings alive at once, whatever the chain length
_CSV_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class FrcConfig:
    """Parameters of a freely rotating chain.

    ``n_bonds`` is N, ``bond_length`` is a, ``bond_angle`` is theta in
    radians.  Use :meth:`raw` or :meth:`scaled` instead of the bare
    constructor; ``scaled`` derives ``a = L/N`` and ``theta = kappa/sqrt(N)``.
    """

    n_bonds: int
    bond_length: float
    bond_angle: float

    def __post_init__(self) -> None:
        if not isinstance(self.n_bonds, (int, np.integer)) or self.n_bonds < 1:
            raise ValueError(f"n_bonds must be a positive integer, got {self.n_bonds!r}")
        if not (math.isfinite(self.bond_length) and self.bond_length > 0.0):
            raise ValueError(f"bond_length must be positive, got {self.bond_length!r}")
        if not (0.0 <= self.bond_angle < math.pi):
            raise ValueError(f"bond_angle must lie in [0, pi), got {self.bond_angle!r}")

    @classmethod
    def raw(cls, n_bonds: int, bond_length: float, bond_angle: float,
            *, allow_zero_angle: bool = False) -> "FrcConfig":
        """Build from explicit bond length and bond angle.

        ``bond_angle == 0`` is a degenerate straight rod and is rejected
        unless ``allow_zero_angle`` is set (useful as a test oracle).
        """
        if bond_angle == 0.0 and not allow_zero_angle:
            raise ValueError("bond_angle = 0 is degenerate; pass allow_zero_angle=True for testing")
        return cls(int(n_bonds), float(bond_length), float(bond_angle))

    @classmethod
    def scaled(cls, n_bonds: int, contour_length: float, kappa: float) -> "FrcConfig":
        """Build from contour length L and stiffness kappa.

        Derives ``a = L/N`` and ``theta = kappa/sqrt(N)``; requires
        ``kappa > 0`` and ``theta < pi``.
        """
        n = int(n_bonds)
        if n < 1:
            raise ValueError(f"n_bonds must be a positive integer, got {n_bonds!r}")
        if not (math.isfinite(contour_length) and contour_length > 0.0):
            raise ValueError(f"contour_length must be positive, got {contour_length!r}")
        if not (math.isfinite(kappa) and kappa > 0.0):
            raise ValueError(f"kappa must be positive, got {kappa!r}")
        theta = kappa / math.sqrt(n)
        if theta >= math.pi:
            raise ValueError(
                f"kappa/sqrt(N) = {theta!r} must be < pi; increase n_bonds or decrease kappa")
        return cls(n, contour_length / n, theta)

    @property
    def contour_length(self) -> float:
        return self.n_bonds * self.bond_length


@dataclass(frozen=True, eq=False)
class DiscreteChain:
    """One realization: bead positions R_0..R_N and the torsions that built it."""

    beads: np.ndarray  # (N+1, 3)
    phis: np.ndarray   # (N-1,), torsions of bonds 2..N

    def __post_init__(self) -> None:
        beads = np.asarray(self.beads, dtype=np.float64)
        phis = np.asarray(self.phis, dtype=np.float64)
        if beads.ndim != 2 or beads.shape[1] != 3 or beads.shape[0] < 2:
            raise ValueError(f"beads must have shape (N+1, 3) with N >= 1, got {beads.shape}")
        if phis.shape != (beads.shape[0] - 2,):
            raise ValueError(
                f"phis must have shape (N-1,) = {(beads.shape[0] - 2,)}, got {phis.shape}")
        beads = beads.copy()
        phis = phis.copy()
        beads.setflags(write=False)
        phis.setflags(write=False)
        object.__setattr__(self, "beads", beads)
        object.__setattr__(self, "phis", phis)


def _frc_steps(theta: float, phis: np.ndarray):
    """Step-quaternion filler for :func:`frame_scan`: the rotation by
    ``theta`` about ``(cos phi, sin phi, 0)`` is ``(cos(theta/2),
    sin(theta/2) cos phi, sin(theta/2) sin phi, 0)``.  ``cos phi`` and
    ``sin phi`` come from one ``tau = tan(phi/2)`` as ``(1 - tau^2)/(1 +
    tau^2)`` and ``2 tau/(1 + tau^2)``."""
    cos_half = math.cos(0.5 * theta)
    sin_half = math.sin(0.5 * theta)

    def fill(idx, pw, px, py):
        tau = np.take(phis, idx, axis=1)
        tau *= 0.5
        np.tan(tau, out=tau)
        f = tau * tau
        np.subtract(1.0, f, out=px)
        f += 1.0
        np.divide(sin_half, f, out=f)  # sin(theta/2) / (1 + tau^2)
        px *= f
        np.multiply(tau, 2.0, out=py)
        py *= f
        pw.fill(cos_half)

    return fill


def _frc_scan(cfg: FrcConfig, phis: np.ndarray, *, keep_beads: bool = False,
              tangent_marks: tuple[int, ...] = (),
              position_marks: tuple[int, ...] = ()) -> dict:
    """Run the rotation-product construction for a batch of chains.

    ``phis`` has shape (C, N-1), one torsion row per chain.  Returns unit
    bond directions as ``tangents`` keyed by bond number ``1..N`` and bead
    positions as ``positions`` keyed by bead number ``0..N`` (the shape of
    the continuum scan's record), and optionally the full bead arrays.

    Bond ``m`` is the frame's tangent after ``m - 1`` torsion steps of
    :func:`wormchain.so3.frame_scan`, and bead ``m >= 1`` is ``a e3`` (the
    fixed first bond) plus the scan's bond sum with weights ``(0, a)``.
    """
    n = cfg.n_bonds
    a = cfg.bond_length
    paths, n_phis = phis.shape
    if n_phis != n - 1:
        raise ValueError(f"phis must have shape (C, {n - 1}), got {phis.shape}")
    for m in tangent_marks:
        if not 1 <= m <= n:
            raise ValueError(f"bond mark {m} outside 1..{n}")
    for m in position_marks:
        if not 0 <= m <= n:
            raise ValueError(f"bead mark {m} outside 0..{n}")

    rec = frame_scan(_frc_steps(cfg.bond_angle, phis), paths, n - 1, weights=(0.0, a),
                     marks=[m - 1 for m in (*tangent_marks, *position_marks) if m >= 1],
                     keep_path=keep_beads)
    first_bond = a * _E3
    tangents = {m: rec["tangents"][m - 1] for m in tangent_marks}
    positions = {m: first_bond + rec["positions"][m - 1] if m else np.zeros((paths, 3))
                 for m in position_marks}
    beads_all = None
    if keep_beads:
        beads_all = np.concatenate(
            [np.zeros((paths, 1, 3)), first_bond + rec["positions_all"]], axis=1)
    return {"tangents": tangents, "positions": positions, "beads_all": beads_all}


def _draw_torsions(cfg: FrcConfig, rng: np.random.Generator) -> np.ndarray:
    """One chain's ``N - 1`` torsions, i.i.d. uniform on ``[0, 2*pi)``."""
    return rng.uniform(0.0, 2.0 * math.pi, size=cfg.n_bonds - 1)


def sample_frc(cfg: FrcConfig, rng: np.random.Generator) -> DiscreteChain:
    """Draw one chain from the stream ``rng``: its torsions, then the exact
    construction."""
    phis = _draw_torsions(cfg, rng)
    rec = _frc_scan(cfg, phis[None, :], keep_beads=True)
    return DiscreteChain(beads=rec["beads_all"][0], phis=phis)


def frc_bond_correlation_oracle(theta: float, k: int) -> float:
    """Exact bond-bond correlation E[Q_n . Q_{n+k}] / a^2 = cos(theta)^k.

    Averaging one torsion step over its uniform cone about the previous bond
    leaves cos(theta) times that bond; iterating the conditional expectation
    over k joints gives the power.
    """
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"lag k must be a nonnegative integer, got {k!r}")
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    return math.cos(theta) ** int(k)


def frc_msd_oracle(cfg: FrcConfig) -> float:
    """Exact mean squared end-to-end distance E|R_N|^2.

    Bilinearity over the bond correlations gives
    ``a^2 * sum_{i,j=1..N} cos(theta)^|i-j|``; evaluated as the O(N)
    lag-grouped sum ``N + 2 * sum_k (N-k) c^k``.
    """
    n = cfg.n_bonds
    c = math.cos(cfg.bond_angle)
    if n == 1:
        total = 1.0
    else:
        k = np.arange(1, n, dtype=np.float64)
        total = n + 2.0 * float(np.sum((n - k) * np.power(c, k)))
    return cfg.bond_length**2 * total


def write_chain_csv(chain: DiscreteChain, fileobj) -> None:
    """One row per bead: n, x, y, z, phi (phi is the torsion of bond n, n >= 2,
    and empty before it); numbers as ``repr`` (an exact round trip)."""
    fileobj.write("n,x,y,z,phi\n")
    beads, phis = chain.beads, chain.phis
    fileobj.writelines(["%d,%r,%r,%r,\n" % (i, *row) for i, row in enumerate(beads[:2].tolist())])
    for start in range(2, beads.shape[0], _CSV_BLOCK_ROWS):
        stop = start + _CSV_BLOCK_ROWS
        block = np.column_stack((beads[start:stop], phis[start - 2:stop - 2]))
        fileobj.writelines(["%d,%r,%r,%r,%r\n" % (i, *row)
                            for i, row in enumerate(block.tolist(), start)])

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

The scan reads torsions from a block ``(C, B, K)``: ``K`` in-segment steps
of every chain and every segment, filled as the scan goes by the one torsion
draw, :func:`_draw_torsions`, each ``(chain, segment)`` run straight from
its own position in the chain's counter-based stream, in stream order, so a
chunk's draw memory does not grow with ``N``.  A lone chain's block is its
whole row, as in :func:`sample_frc`.

A :class:`DiscreteChain`'s arrays are read-only.  Its constructor checks
and copies what it is given; :func:`sample_frc` adopts the torsions it has
just drawn and the bead array the scan has just filled, without a copy.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .analytics import (_CSV_BLOCK_ROWS, _adopt, _check_count, _check_finite_value,
                        _check_positive, _freeze, _is_int)
from .so3 import frame_scan, segment_plan

__all__ = [
    "FrcConfig",
    "DiscreteChain",
    "sample_frc",
    "frc_bond_correlation_oracle",
    "frc_msd_oracle",
    "write_chain_csv",
]

_E3 = np.array([0.0, 0.0, 1.0])

# Doubles in an ensemble chunk's torsion block (C, B, K), 16 MB; a whole
# (C, N - 1) array of torsions reaches the chunk budget, 134 MB.  At 1 << 20
# the Python time of the extra (chain, segment) runs outweighs the saving.
_TORSION_BLOCK = 1 << 21


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
        object.__setattr__(self, "n_bonds", _check_count("n_bonds", self.n_bonds))
        _check_positive("bond_length", self.bond_length)
        if not (0.0 <= self.bond_angle < math.pi):
            raise ValueError(f"bond_angle must lie in [0, pi), got {self.bond_angle!r}")

    @classmethod
    def raw(cls, n_bonds: int, bond_length: float, bond_angle: float) -> "FrcConfig":
        """Build from explicit bond length and bond angle.

        ``bond_angle == 0`` is a degenerate straight rod and is rejected; the
        bare constructor builds it (a test oracle).
        """
        if bond_angle == 0.0:
            raise ValueError("bond_angle = 0 is a degenerate straight rod")
        return cls(n_bonds, float(bond_length), float(bond_angle))

    @classmethod
    def scaled(cls, n_bonds: int, contour_length: float, kappa: float) -> "FrcConfig":
        """Build from contour length L and stiffness kappa.

        Derives ``a = L/N`` and ``theta = kappa/sqrt(N)``; requires
        ``kappa > 0`` and ``theta < pi``.
        """
        n = _check_count("n_bonds", n_bonds)
        _check_positive("contour_length", contour_length)
        _check_positive("kappa", kappa)
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
        _freeze(self, beads=beads.copy(), phis=phis.copy())


@dataclass(frozen=True, eq=False)
class _Torsions:
    """The ``N - 1`` torsions of ``C`` chains, as the scan reads them.

    ``shape`` is ``(C, N - 1)``.  ``block`` ``(C, B, K)`` holds ``K``
    in-segment steps of each of the ``B`` segments of
    :func:`wormchain.so3.segment_plan` ``(C, N - 1)``, segment ``b`` starting
    at torsion ``b L``; ``draw(block, j)`` fills it with steps ``j..j + K -
    1`` when the scan reaches step ``j``, a multiple of ``K``.  Slots past
    the last torsion need only be finite: the scan reads none of them or
    replaces their steps by the identity.
    """

    shape: tuple[int, int]
    block: np.ndarray
    draw: Callable[[np.ndarray, int], None]


def _frc_steps(theta: float, torsions: _Torsions):
    """Step-quaternion filler for :func:`frame_scan`: the rotation by
    ``theta`` about ``(cos phi, sin phi, 0)`` is ``(cos(theta/2),
    sin(theta/2) cos phi, sin(theta/2) sin phi, 0)``.  ``cos phi`` and
    ``sin phi`` come from one ``tau = tan(phi/2)`` as ``(1 - tau^2)/(1 +
    tau^2)`` and ``2 tau/(1 + tau^2)``.  Step ``j``'s ``(C, B)`` torsions are
    one strided slice of the block, filled every ``K`` steps."""
    cos_half = math.cos(0.5 * theta)
    sin_half = math.sin(0.5 * theta)
    block, draw = torsions.block, torsions.draw
    width = block.shape[2]

    def fill(idx, pw, px, py):
        j = int(idx[0])  # segment 0 starts at torsion 0
        if j % width == 0:
            draw(block, j)
        tau = np.multiply(block[:, :, j % width], 0.5)
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


def _frc_scan(cfg: FrcConfig, phis: _Torsions, *, beads: np.ndarray | None = None,
              tangent_marks: tuple[int, ...] = (),
              position_marks: tuple[int, ...] = ()) -> dict:
    """Run the rotation-product construction for a batch of chains.

    ``phis`` is a :class:`_Torsions` of shape (C, N-1), one torsion row per
    chain.  Returns unit bond directions as ``tangents`` keyed by bond
    number ``1..N`` and bead positions as ``positions`` keyed by bead number
    ``0..N`` (the shape of the continuum scan's record); the ensemble engine
    checks marks against those ranges.  It fills beads ``1..N`` of ``beads``
    ``(C, N + 1, 3)``, if given, and leaves bead 0 at the origin where the
    caller put it; a scan that keeps the beads keeps no bond directions, so
    then takes no tangent marks.

    Bond ``m`` is the frame's tangent after ``m - 1`` torsion steps of
    :func:`wormchain.so3.frame_scan`, and bead ``m >= 1`` is ``a e3`` (the
    fixed first bond) plus the scan's bond sum with weights ``(0, a)``.
    """
    n = cfg.n_bonds
    a = cfg.bond_length
    paths, n_phis = phis.shape
    if n_phis != n - 1:
        raise ValueError(f"phis must have shape (C, {n - 1}), got {phis.shape}")

    rec = frame_scan(_frc_steps(cfg.bond_angle, phis), paths, n - 1, weights=(0.0, a),
                     tangent_marks=[m - 1 for m in tangent_marks],
                     position_marks=[m - 1 for m in position_marks if m >= 1],
                     keep=(None, None if beads is None else beads[:, 1:]))
    first_bond = a * _E3
    tangents = {m: rec["tangents"][m - 1] for m in tangent_marks}
    positions = {m: first_bond + rec["positions"][m - 1] if m else np.zeros((paths, 3))
                 for m in position_marks}
    if beads is not None:
        beads[:, 1:] += first_bond  # bead m >= 1 is a e3 + state m - 1
    return {"tangents": tangents, "positions": positions}


def _draw_torsions(cfg: FrcConfig, paths: int, seek) -> _Torsions:
    """The torsions of ``C`` chains, drawn a block at a time just ahead of
    the scan: the bits of ``rng.uniform(0.0, 2*pi)``, ``0 + 2*pi * u``.

    ``seek(i, pos)`` is chain ``i``'s stream past its first ``pos`` draws.
    Each ``(chain, segment)`` run of a block is drawn from its own stream
    position straight into its slice.  A lone chain's block is its whole
    row, whose runs are then contiguous and in stream order; a block of more
    holds at most ``_TORSION_BLOCK`` doubles, or one step of every segment
    when ``C B`` is larger.
    """
    n_phis = cfg.n_bonds - 1
    segments, span = segment_plan(paths, n_phis)
    width = span if paths == 1 else max(1, min(span, _TORSION_BLOCK // (paths * segments)))

    def draw(block, j):
        # runs (stream position, place in a chain's row, length): one per
        # segment, where the last segment and the last block can end short
        runs = [(b * span + j, b * width, min(width, span - j, n_phis - b * span - j))
                for b in range(segments)]
        rows = block.reshape(paths, -1)
        for i in range(paths):
            for pos, at, count in runs:
                if count > 0:
                    seek(i, pos).random(out=rows[i, at:at + count])
        block *= 2.0 * math.pi

    return _Torsions((paths, n_phis), np.zeros((paths, segments, width)), draw)


def sample_frc(cfg: FrcConfig, rng: np.random.Generator) -> DiscreteChain:
    """Draw one chain from the stream ``rng``: the torsion draw of ``C = 1``,
    whose runs read ``rng`` from its start in order, then the exact
    construction."""
    torsions = _draw_torsions(cfg, 1, lambda i, pos=0: rng)
    beads = np.zeros((1, cfg.n_bonds + 1, 3))
    _frc_scan(cfg, torsions, beads=beads)
    return _adopt(DiscreteChain, beads=beads[0], phis=torsions.block.ravel()[:cfg.n_bonds - 1])


def frc_bond_correlation_oracle(theta: float, k: int) -> float:
    """Exact bond-bond correlation E[Q_n . Q_{n+k}] / a^2 = cos(theta)^k.

    Averaging one torsion step over its uniform cone about the previous bond
    leaves cos(theta) times that bond; iterating the conditional expectation
    over k joints gives the power.
    """
    if not (_is_int(k) and k >= 0):
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
    k = np.arange(1, n, dtype=np.float64)
    total = n + 2.0 * float(np.sum((n - k) * np.power(c, k)))
    try:
        msd = cfg.bond_length**2 * total
    except OverflowError:  # a**2 alone overflows
        msd = math.inf
    return _check_finite_value("frc_msd_oracle", msd, n_bonds=n, bond_length=cfg.bond_length)


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

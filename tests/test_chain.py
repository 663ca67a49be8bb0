import csv
import io
import math
import tracemalloc

import numpy as np
import pytest
from rodrigues import rodrigues_batch
from torsions import whole_row_torsions

import wormchain.chain as chain_module
from wormchain.chain import (
    DiscreteChain,
    FrcConfig,
    _draw_torsions,
    _frc_scan,
    frc_bond_correlation_oracle,
    frc_msd_oracle,
    sample_frc,
    write_chain_csv,
)
from wormchain.estimators import _path_streams, path_rng
from wormchain.so3 import segment_plan


def frc_msd_direct(cfg):
    """Independent O(N^2) oracle: the bond-correlation double sum, term by term."""
    n = cfg.n_bonds
    c = math.cos(cfg.bond_angle)
    i, j = np.meshgrid(np.arange(1, n + 1), np.arange(1, n + 1))
    return cfg.bond_length**2 * float(np.sum(c ** np.abs(i - j)))


class TestFrcConfig:
    def test_scaled_derivation(self):
        cfg = FrcConfig.scaled(400, 2.0, 1.5)
        assert cfg.bond_length == pytest.approx(2.0 / 400)
        assert cfg.bond_angle == pytest.approx(1.5 / 20.0)
        assert cfg.contour_length == pytest.approx(2.0)

    def test_raw_and_scaled_agree(self):
        scaled = FrcConfig.scaled(100, 1.0, math.sqrt(2))
        raw = FrcConfig.raw(100, 0.01, math.sqrt(2) / 10.0)
        assert raw == scaled

    @pytest.mark.parametrize("kwargs", [
        dict(n_bonds=0, bond_length=1.0, bond_angle=0.1),
        dict(n_bonds=5, bond_length=-1.0, bond_angle=0.1),
        dict(n_bonds=5, bond_length=1.0, bond_angle=math.pi),
        dict(n_bonds=5, bond_length=1.0, bond_angle=-0.1),
        dict(n_bonds=True, bond_length=1.0, bond_angle=0.1),
        dict(n_bonds=2.7, bond_length=1.0, bond_angle=0.1),
        dict(n_bonds="7", bond_length=1.0, bond_angle=0.1),
        dict(n_bonds=2**58 + 1, bond_length=1.0, bond_angle=0.1),
        dict(n_bonds=5, bond_length=math.inf, bond_angle=0.1),
        dict(n_bonds=5, bond_length=math.nan, bond_angle=0.1),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FrcConfig(**kwargs)

    @pytest.mark.parametrize("factory, args", [
        (FrcConfig.raw, (2.7, 1.0, 0.5)),     # once 2 bonds
        (FrcConfig.raw, ("7", 1.0, 0.5)),     # once 7 bonds
        (FrcConfig.raw, (True, 1.0, 0.5)),
        (FrcConfig.scaled, (2.7, 1.0, 1.0)),  # once 2 bonds
        (FrcConfig.scaled, (True, 1.0, 1.0)),
        (FrcConfig.scaled, (10**400, 1.0, 1.0)),  # once OverflowError in sqrt(N)
    ])
    def test_factories_reject_what_is_no_bond_count(self, factory, args):
        with pytest.raises(ValueError, match="n_bonds"):
            factory(*args)

    def test_numpy_integer_bond_counts_are_valid(self):
        raw = FrcConfig.raw(np.int64(100), 0.01, math.sqrt(2) / 10.0)
        assert raw == FrcConfig.scaled(np.int64(100), 1.0, math.sqrt(2))
        assert type(raw.n_bonds) is int and type(FrcConfig(np.int64(3), 1.0, 0.1).n_bonds) is int

    def test_zero_angle_needs_explicit_override(self):
        # raw rejects the straight rod; the bare constructor builds it, and
        # raw has no override keyword
        with pytest.raises(ValueError):
            FrcConfig.raw(10, 1.0, 0.0)
        assert FrcConfig(10, 1.0, 0.0).bond_angle == 0.0
        with pytest.raises(TypeError):
            FrcConfig.raw(10, 1.0, 0.0, allow_zero_angle=True)

    def test_scaled_requires_small_angle(self):
        with pytest.raises(ValueError):
            FrcConfig.scaled(1, 1.0, 4.0)  # kappa/sqrt(1) > pi


class TestSampleFrc:
    def test_single_bond_chain(self):
        cfg = FrcConfig.scaled(1, 1.0, 1.0)
        chain = sample_frc(cfg, path_rng(7, 0))
        assert np.array_equal(chain.beads, [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert chain.phis.shape == (0,)

    def test_zero_angle_gives_straight_rod(self):
        cfg = FrcConfig(50, 0.25, 0.0)
        chain = sample_frc(cfg, path_rng(1, 0))
        expected = np.zeros((51, 3))
        expected[:, 2] = 0.25 * np.arange(51)
        assert np.allclose(chain.beads, expected, atol=1e-13)

    def test_pinned_boundary(self):
        cfg = FrcConfig.scaled(64, 1.0, 1.0)
        chain = sample_frc(cfg, path_rng(5, 3))
        assert np.array_equal(chain.beads[0], [0.0, 0.0, 0.0])
        assert np.array_equal(chain.beads[1], [0.0, 0.0, cfg.bond_length])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_construction_exactness(self, seed):
        cfg = FrcConfig.scaled(500, 1.0, math.sqrt(2))
        chain = sample_frc(cfg, path_rng(99, seed))
        bonds = np.diff(chain.beads, axis=0)
        lengths = np.linalg.norm(bonds, axis=1)
        assert np.max(np.abs(lengths / cfg.bond_length - 1.0)) <= 1e-12
        cos_angles = np.sum(bonds[:-1] * bonds[1:], axis=1) / cfg.bond_length**2
        assert np.max(np.abs(cos_angles - math.cos(cfg.bond_angle))) <= 1e-10

    def test_long_chain_keeps_bond_lengths_and_angles(self):
        # 10^5 bonds in one path: the scan is cut into ~316 time segments
        # whose frames are stitched; without renormalizing each stitched
        # frame, the constant-angle steps drift the bond lengths past 1e-12
        cfg = FrcConfig.raw(100_000, 1.0, 1.0)
        chain = sample_frc(cfg, path_rng(3, 0))
        bonds = np.diff(chain.beads, axis=0)
        lengths = np.linalg.norm(bonds, axis=1)
        assert np.max(np.abs(lengths - 1.0)) <= 1e-12
        cos_angles = np.sum(bonds[:-1] * bonds[1:], axis=1)
        assert np.max(np.abs(cos_angles - math.cos(1.0))) <= 1e-10

    def test_long_chain_holds_its_curve_once(self):
        # torsions and the beads the scan fills, 3.9 MiB at 10^5 bonds: one
        # more (N, 3) array of the curve or its bond directions (2.3 MiB),
        # such as scan positions copied into the beads, breaks the bound
        cfg = FrcConfig.raw(100_000, 1.0, 1.0)
        # a first chain imports numpy.random (0.75 MiB) before the trace, so
        # the test measures the same peak alone as in the suite
        sample_frc(FrcConfig.raw(10, 1.0, 1.0), path_rng(3, 0))
        tracemalloc.start()
        try:
            sample_frc(cfg, path_rng(3, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.25 * 2**20

    def test_matches_rotation_product_reference(self):
        # independent per-bond reference: one Rodrigues matrix per joint
        cfg = FrcConfig.raw(6, 0.5, 0.8)
        chain = sample_frc(cfg, path_rng(123, 0))
        z = np.eye(3)
        r = np.array([0.0, 0.0, cfg.bond_length])
        beads = [np.zeros(3), r.copy()]
        for phi in chain.phis:
            axis = np.array([math.cos(phi), math.sin(phi), 0.0])
            z = z @ rodrigues_batch(cfg.bond_angle * axis)
            r = r + cfg.bond_length * (z @ np.array([0.0, 0.0, 1.0]))
            beads.append(r.copy())
        assert np.allclose(chain.beads, np.array(beads), atol=1e-12)

    def test_deterministic_for_fixed_stream(self):
        cfg = FrcConfig.scaled(32, 1.0, 1.0)
        a = sample_frc(cfg, path_rng(42, 0))
        b = sample_frc(cfg, path_rng(42, 0))
        assert np.array_equal(a.beads, b.beads)
        assert np.array_equal(a.phis, b.phis)


    def test_torsions_are_the_bits_of_a_scaled_uniform(self):
        # unit uniforms scaled in place are rng.uniform(0, 2 pi) bit for bit,
        # and a lone chain's block is its whole row, drawn one run per
        # segment, each from its own stream position
        cfg = FrcConfig.scaled(130, 1.0, 1.0)
        expected = path_rng(4, 9).uniform(0.0, 2.0 * math.pi, size=129)
        torsions = _draw_torsions(cfg, 1, _path_streams(4, 9))
        segments, span = segment_plan(1, 129)
        assert torsions.shape == (1, 129) and torsions.block.shape == (1, segments, span)
        torsions.draw(torsions.block, 0)
        assert np.array_equal(torsions.block.reshape(-1)[:129], expected)
        assert not torsions.block.reshape(-1)[129:].any()
        assert np.array_equal(sample_frc(cfg, path_rng(4, 9)).phis, expected)

    def test_lone_chain_holds_its_whole_row_whatever_the_block(self, monkeypatch):
        # a 64-double block holds 2 of the 33 steps of each of the chain's 31
        # segments; a lone chain's block still holds its whole row, whose
        # runs, one per segment, read its stream in order from the start, so
        # its torsions and beads do not depend on the block size
        cfg = FrcConfig.raw(1000, 1.0, 1.0)
        unpatched = sample_frc(cfg, path_rng(4, 9))
        monkeypatch.setattr(chain_module, "_TORSION_BLOCK", 64)
        chain = sample_frc(cfg, path_rng(4, 9))
        expected = path_rng(4, 9).uniform(0.0, 2.0 * math.pi, size=999)
        assert np.array_equal(chain.phis, expected)
        assert np.array_equal(chain.beads, unpatched.beads)


class TestStreamTorsions:
    """An ensemble chunk's torsion block, refilled as the scan reads it,
    holds each chain's own draws bit for bit.  These tests call the block
    helper ``_draw_torsions``."""

    @pytest.mark.parametrize("paths, n_bonds, block", [
        (3, 40, None),              # B = 6, L = 7: the last segment has 4 real steps
        (323, 10_000, None),        # L = 834, so runs start inside a Philox block of 4
        (4096, 20, None),           # a one-segment plan
        (5, 1, None),               # no torsions
        (5, 2, None),               # one torsion
        (5, 1000, 5 * 31 * 10),     # blocks of 10 steps in segments of 33 (9 in the last)
        (4096, 200, 4096 * 64),     # one segment of 199 steps in blocks of 64
        # K = 6: chain 0's run at step 6 starts 2 draws into a Philox block
        # of 4, so its stream drops the 2 draws before it
        (2, 401, 2 * 20 * 6),
        (3, 101, 3 * 10 * 1),       # K = 1: runs of one draw, most inside a Philox block
        # K = 2, L = 7, 4 steps in the last segment: from step 4 on its slots
        # are empty and keep the draws of an earlier block
        (3, 40, 3 * 6 * 2),
    ])
    def test_block_holds_each_chains_draws(self, monkeypatch, paths, n_bonds, block):
        if block is not None:
            monkeypatch.setattr(chain_module, "_TORSION_BLOCK", block)
        cfg = FrcConfig.raw(n_bonds, 1.0, 1.0)
        torsions = _draw_torsions(cfg, paths, _path_streams(11, 100))
        assert torsions.shape == (paths, n_bonds - 1)
        segments, span = segment_plan(paths, n_bonds - 1)
        width = torsions.block.shape[2]
        if block is not None:
            assert width < span
        # read the block as the scan does: step j of every segment at j % K
        seen = np.empty((paths, segments, span))
        for j in range(span):
            if j % width == 0:
                torsions.draw(torsions.block, j)
                assert np.isfinite(torsions.block).all()
            seen[:, :, j] = torsions.block[:, :, j % width]
        rows = seen.reshape(paths, -1)[:, :n_bonds - 1]
        for i in range(paths):
            expected = path_rng(11, 100 + i).uniform(0.0, 2.0 * math.pi, n_bonds - 1)
            assert np.array_equal(rows[i], expected)
        # and the scan of a fresh block gives the scan of the whole rows
        fresh = _draw_torsions(cfg, paths, _path_streams(11, 100))
        marks = {"tangent_marks": (n_bonds,), "position_marks": (n_bonds,)}
        whole = whole_row_torsions(rows)
        got, want = _frc_scan(cfg, fresh, **marks), _frc_scan(cfg, whole, **marks)
        assert np.array_equal(got["tangents"][n_bonds], want["tangents"][n_bonds])
        assert np.array_equal(got["positions"][n_bonds], want["positions"][n_bonds])


class TestBondCorrelationOracle:
    def test_zero_lag(self):
        assert frc_bond_correlation_oracle(0.7, 0) == 1.0

    def test_rigid_rod(self):
        for k in (0, 1, 10):
            assert frc_bond_correlation_oracle(0.0, k) == 1.0

    def test_single_lag_is_cos_theta(self):
        theta = 0.6
        assert frc_bond_correlation_oracle(theta, 1) == pytest.approx(math.cos(theta), abs=1e-15)

    @staticmethod
    def _cone_step(u, phi, theta):
        """Brute-force torsion step: rotate u by theta about a uniform axis
        perpendicular to it, parameterized by phi."""
        helper = np.array([0.0, 0.0, 1.0]) if abs(u[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
        e1 = np.cross(u, helper)
        e1 /= np.linalg.norm(e1, axis=-1, keepdims=True) if e1.ndim > 1 else np.linalg.norm(e1)
        e2 = np.cross(u, e1)
        return (math.cos(theta) * u
                + math.sin(theta) * (np.cos(phi)[..., None] * e1
                                     + np.sin(phi)[..., None] * e2))

    def test_single_step_cone_average(self):
        # conditional-expectation oracle: averaging one torsion step about an
        # arbitrary bond direction contracts it by cos(theta).  The component
        # along the bond is exact; the perpendicular components average to
        # zero with Monte Carlo noise.
        theta = 0.6
        rng = np.random.default_rng(2024)
        q = np.array([0.3, -0.4, 0.866025403784])
        q /= np.linalg.norm(q)
        n = 1_000_000
        steps = self._cone_step(q, rng.uniform(0.0, 2.0 * math.pi, size=n), theta)
        mean = steps.mean(axis=0)
        stderr = steps.std(axis=0, ddof=1) / math.sqrt(n)
        expected = frc_bond_correlation_oracle(theta, 1) * q
        assert float(np.dot(mean, q)) == pytest.approx(float(np.dot(expected, q)), abs=1e-12)
        for axis in range(3):
            assert abs(mean[axis] - expected[axis]) <= 5 * max(stderr[axis], 1e-15)

    def test_two_step_cone_average(self):
        # iterated oracle: two independent torsion steps contract by cos^2
        theta = 0.6
        rng = np.random.default_rng(2025)
        n = 400_000
        e3 = np.array([0.0, 0.0, 1.0])
        phi0 = rng.uniform(0.0, 2.0 * math.pi, size=n)
        first = (math.cos(theta) * e3
                 + math.sin(theta) * np.stack([np.cos(phi0), np.sin(phi0), np.zeros(n)], axis=1))
        # second step needs per-row bases; build them from each first-step bond
        helper = np.where(np.abs(first[:, 2:3]) < 0.9, e3, np.array([1.0, 0.0, 0.0]))
        e1 = np.cross(first, helper)
        e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
        e2 = np.cross(first, e1)
        phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
        second = (math.cos(theta) * first
                  + math.sin(theta) * (np.cos(phi)[:, None] * e1 + np.sin(phi)[:, None] * e2))
        values = second[:, 2]
        stderr = values.std(ddof=1) / math.sqrt(n)
        assert abs(values.mean() - frc_bond_correlation_oracle(theta, 2)) <= 5 * stderr

    def test_negative_lag_rejected(self):
        with pytest.raises(ValueError):
            frc_bond_correlation_oracle(0.5, -1)

    @pytest.mark.parametrize("k", [True, 2.0, "2"])
    def test_lag_that_is_no_integer_rejected(self, k):
        with pytest.raises(ValueError, match="lag k"):
            frc_bond_correlation_oracle(0.5, k)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, theta):
        # cos(nan)**k would be a nan oracle, and cos(inf) raises a bare
        # "math domain error"
        with pytest.raises(ValueError, match="theta must be finite"):
            frc_bond_correlation_oracle(theta, 3)

    def test_numpy_integer_lag(self):
        assert frc_bond_correlation_oracle(0.5, np.int64(2)) == math.cos(0.5) ** 2


class TestMsdOracle:
    def test_rigid_rod(self):
        cfg = FrcConfig(20, 0.5, 0.0)
        assert frc_msd_oracle(cfg) == pytest.approx((20 * 0.5) ** 2, rel=1e-14)

    def test_single_bond(self):
        cfg = FrcConfig.raw(1, 0.7, 0.3)
        assert frc_msd_oracle(cfg) == pytest.approx(0.7**2, rel=1e-15)

    def test_two_bonds_right_angle(self):
        cfg = FrcConfig.raw(2, 1.3, math.pi / 2)
        assert frc_msd_oracle(cfg) == pytest.approx(2 * 1.3**2, rel=1e-14)

    @pytest.mark.parametrize("n,theta", [(2, 1.0), (17, 0.3), (300, 0.05), (1000, 0.02)])
    def test_lag_sum_matches_direct_double_sum(self, n, theta):
        cfg = FrcConfig.raw(n, 0.9, theta)
        assert frc_msd_oracle(cfg) == pytest.approx(frc_msd_direct(cfg), rel=1e-10)

    @pytest.mark.parametrize("n,theta", [(5, 0.7), (250, 0.09), (4000, 0.02)])
    def test_matches_closed_form(self, n, theta):
        # third route: the telescoped geometric-series closed form
        cfg = FrcConfig.raw(n, 1.0, theta)
        c = math.cos(theta)
        closed = n * (1 + c) / (1 - c) - 2 * c * (1 - c**n) / (1 - c) ** 2
        assert frc_msd_oracle(cfg) == pytest.approx(closed, rel=1e-10)

    @pytest.mark.parametrize("cfg", [
        FrcConfig.scaled(10, 1e300, math.sqrt(2.0)),  # a**2 raised OverflowError
        FrcConfig.raw(10, 1e154, 0.1),                # a**2 is finite, a**2 * sum is not
    ], ids=["square", "sum"])
    def test_value_that_overflows_is_rejected(self, cfg):
        with pytest.raises(ValueError, match=r"frc_msd_oracle\(n_bonds=10, .*\) overflows to inf"):
            frc_msd_oracle(cfg)


class TestMonteCarloAgainstOracles:
    """Sampled chains must reproduce the exact oracles statistically."""

    def test_bond_correlation_and_msd(self):
        cfg = FrcConfig.scaled(200, 1.0, math.sqrt(2))
        n_paths = 4000
        lags = (1, 5, 25)
        corr = {k: np.empty(n_paths) for k in lags}
        msd = np.empty(n_paths)
        end_xy = np.empty((n_paths, 2))
        for i in range(n_paths):
            chain = sample_frc(cfg, path_rng(314, i))
            bonds = np.diff(chain.beads, axis=0) / cfg.bond_length
            for k in lags:
                corr[k][i] = bonds[1 + k - 1, 2]  # Q_1 . Q_{1+k} / a^2 with Q_1/a = e3
            msd[i] = float(np.dot(chain.beads[-1], chain.beads[-1]))
            end_xy[i] = chain.beads[-1, :2]
        for k in lags:
            oracle = frc_bond_correlation_oracle(cfg.bond_angle, k)
            # lag 1 from the pinned first bond is deterministic up to float
            # roundoff; floor its rounding-noise stderr
            stderr = max(corr[k].std(ddof=1) / math.sqrt(n_paths), 2.5e-13)
            z = (corr[k].mean() - oracle) / stderr
            assert abs(z) <= 4.0, f"lag {k}: z = {z}"
        z = (msd.mean() - frc_msd_oracle(cfg)) / (msd.std(ddof=1) / math.sqrt(n_paths))
        assert abs(z) <= 4.0
        for axis in range(2):
            column = end_xy[:, axis]
            z = column.mean() / (column.std(ddof=1) / math.sqrt(n_paths))
            assert abs(z) <= 4.0


class TestTangentLaw:
    """The bond directions form a Markov chain with a zonal step kernel, so
    E[P_l(T_1 . T_{1+k})] = P_l(cos theta)^k for every degree l.  The l = 1
    rows above cannot tell the chain from a planar one (each torsion 0 or
    pi), whose bond correlation is also cos(theta)^k; degree 2 can."""

    def test_second_legendre_correlation(self):
        cfg = FrcConfig.scaled(100, 1.0, math.sqrt(2))
        n_paths, lags = 10_000, (25, 50, 99)
        torsions = _draw_torsions(cfg, n_paths, _path_streams(2025, 0))
        rec = _frc_scan(cfg, torsions, tangent_marks=tuple(1 + k for k in lags))
        rho_2 = 1.5 * math.cos(cfg.bond_angle) ** 2 - 0.5
        for k in lags:
            x = rec["tangents"][1 + k][:, 2]  # T_1 . T_{1+k} with T_1 = e3
            p2 = 1.5 * x * x - 0.5
            z = (p2.mean() - rho_2**k) / (p2.std(ddof=1) / math.sqrt(n_paths))
            assert abs(z) <= 4.0, f"lag {k}: z = {z}"


class TestSerialization:
    def test_csv_shape_and_phi_column(self):
        chain = sample_frc(FrcConfig.scaled(4, 1.0, 1.0), path_rng(6, 0))
        buf = io.StringIO()
        write_chain_csv(chain, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "n,x,y,z,phi"
        assert len(lines) == 6  # header + 5 beads
        assert lines[1].startswith("0,0.0,0.0,0.0,")
        assert lines[1].endswith(",")  # beads 0..1 carry no torsion
        assert repr(float(chain.phis[0])) in lines[3]

    def test_chain_roundtrip_identity(self):
        chain = sample_frc(FrcConfig.scaled(12, 2.0, 1.0), path_rng(6, 1))
        buf = io.StringIO()
        write_chain_csv(chain, buf)
        rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
        beads = np.array([[float(r[1]), float(r[2]), float(r[3])] for r in rows])
        assert np.array_equal(beads, chain.beads)

    def test_csv_matches_csv_writer_reference(self):
        # two full 4096-row blocks after the two torsion-free beads and a
        # ragged one, with signed zero, the smallest subnormal, a huge value
        n = 2 * 4096 + 2 + 1805
        rng = np.random.default_rng(12)
        beads = rng.normal(size=(n + 1, 3)) * 50.0
        phis = rng.uniform(0.0, 2.0 * math.pi, size=n - 1)
        beads[2:5, 1] = (-0.0, 5e-324, 1e300)
        phis[[0, 4095, 4096, n - 2]] = (-0.0, 5e-324, 1e300, 0.0)
        chain = DiscreteChain(beads=beads, phis=phis)
        buf = io.StringIO()
        write_chain_csv(chain, buf)

        # the earlier writer: csv.writer, one repr per cell
        ref = io.StringIO()
        writer = csv.writer(ref, lineterminator="\n")
        writer.writerow(["n", "x", "y", "z", "phi"])
        for i, bead in enumerate(chain.beads):
            phi = repr(float(chain.phis[i - 2])) if i >= 2 else ""
            writer.writerow([i, repr(float(bead[0])), repr(float(bead[1])),
                             repr(float(bead[2])), phi])
        assert buf.getvalue() == ref.getvalue()
        lines = buf.getvalue().splitlines()
        assert len(lines) == n + 2
        assert lines[1].endswith(",") and lines[2].endswith(",")  # two empty phi cells
        assert lines[3].endswith(",-0.0")

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            DiscreteChain(beads=np.zeros((3, 3)), phis=np.zeros(3))

    @pytest.mark.parametrize("beads", [np.zeros(6), np.zeros((3, 2)), np.zeros((1, 3))],
                             ids=["flat", "two-columns", "no-bond"])
    def test_bead_shape_rejected(self, beads):
        with pytest.raises(ValueError, match=r"beads must have shape \(N\+1, 3\) with N >= 1"):
            DiscreteChain(beads=beads, phis=np.zeros(0))


class TestScanInput:
    """``_frc_scan`` checks its torsions and marks against the chain."""

    cfg = FrcConfig.scaled(4, 1.0, 1.0)

    @pytest.mark.parametrize("shape", [(2, 2), (2, 5)])
    def test_torsion_count_must_be_n_minus_1(self, shape):
        with pytest.raises(ValueError, match=r"phis must have shape \(C, 3\)"):
            _frc_scan(self.cfg, whole_row_torsions(np.zeros(shape)))

    @pytest.mark.parametrize("mark", [0, 5])
    def test_bond_mark_outside_the_chain(self, mark):
        with pytest.raises(ValueError, match=f"bond mark {mark} outside 1..4"):
            _frc_scan(self.cfg, whole_row_torsions(np.zeros((2, 3))), tangent_marks=(1, mark))

    @pytest.mark.parametrize("mark", [-1, 5])
    def test_bead_mark_outside_the_chain(self, mark):
        with pytest.raises(ValueError, match=f"bead mark {mark} outside 0..4"):
            _frc_scan(self.cfg, whole_row_torsions(np.zeros((2, 3))), position_marks=(0, mark))

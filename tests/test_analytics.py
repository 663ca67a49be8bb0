import math

import numpy as np
import pytest
from scipy import integrate

from wormchain.analytics import (
    hard_rod_fluctuation_cov,
    kp_mean_sq_position,
    kp_tangent_correlation,
    random_coil_cov,
)
from wormchain.chain import FrcConfig, frc_bond_correlation_oracle, frc_msd_oracle


class TestTangentCorrelation:
    def test_equal_times(self):
        assert kp_tangent_correlation(1.0, 0.3, 0.3) == 1.0

    def test_unit_gap(self):
        assert kp_tangent_correlation(1.0, 0.0, 0.5) == pytest.approx(math.exp(-1.0), abs=1e-7)

    def test_symmetry(self):
        assert kp_tangent_correlation(2.0, 0.2, 0.9) == kp_tangent_correlation(2.0, 0.9, 0.2)

    def test_rod_limit(self):
        assert kp_tangent_correlation(1e12, 0.0, 1.0) == pytest.approx(1.0, abs=1e-11)

    def test_gap_near_the_float_range_divides_first(self):
        # 2|t - s| = 2e308 overflows, so multiplying before dividing read 0.0
        assert kp_tangent_correlation(2e307, 0.0, 1e308) == pytest.approx(math.exp(-10.0),
                                                                           rel=1e-15)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            kp_tangent_correlation(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            kp_tangent_correlation(1.0, -0.1, 1.0)


class TestMeanSqPosition:
    def test_zero(self):
        assert kp_mean_sq_position(1.0, 0.0) == 0.0

    def test_reference_value(self):
        expected = 1.0 - 0.5 * (1.0 - math.exp(-2.0))
        assert kp_mean_sq_position(1.0, 1.0) == pytest.approx(expected, abs=1e-12)
        assert kp_mean_sq_position(1.0, 1.0) == pytest.approx(0.5676676, abs=1e-7)

    def test_rod_limit(self):
        # ell_p -> infinity: |R_t| -> t, so the mean square approaches t^2
        assert kp_mean_sq_position(1.0e6, 1.0) == pytest.approx(1.0, rel=1e-6)

    def test_rod_limit_is_monotone(self):
        t = 1.0
        values = [kp_mean_sq_position(lp, t) / t**2 for lp in (1, 10, 100, 1e4, 1e6, 1e8)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, rel=1e-8)

    def test_coil_limit(self):
        t = 1.0
        for lp in (1e-3, 1e-5, 1e-7):
            assert kp_mean_sq_position(lp, t) / (lp * t) == pytest.approx(1.0, rel=1e-2 * lp / 1e-3)

    def test_series_branch_continuity(self):
        # the two branches agree to 1e-10 relative at the switchover
        ell_p = 1.0
        t = 1e-4 * ell_p
        series = t * t * (1.0 - t / ell_p * (2.0 / 3.0 - t / ell_p * (1.0 / 3.0 - 2.0 * t / (15.0 * ell_p))))
        closed = ell_p * t - 0.5 * ell_p**2 * (1.0 - math.exp(-2.0 * t / ell_p))
        assert series == pytest.approx(closed, rel=1e-10)
        below = kp_mean_sq_position(ell_p, t * (1 - 1e-12))
        above = kp_mean_sq_position(ell_p, t * (1 + 1e-12))
        assert below == pytest.approx(above, rel=1e-10)

    @pytest.mark.parametrize("ell_p,t", [(1.0, 1.0), (0.3, 2.0), (10.0, 0.5)])
    def test_quadrature_consistency(self, ell_p, t):
        # the mean square position equals twice the iterated integral of the
        # tangent correlation over 0 <= u <= v <= t
        value, err = integrate.dblquad(
            lambda u, v: kp_tangent_correlation(ell_p, u, v),
            0.0, t, 0.0, lambda v: v, epsabs=1e-12, epsrel=1e-12)
        assert err < 1e-9
        assert kp_mean_sq_position(ell_p, t) == pytest.approx(2.0 * value, abs=1e-8)

    @pytest.mark.parametrize("ell_p, t", [
        (1e308, 5e307),  # ell_p * t overflows: inf - inf read nan
        (1e205, 1e200),  # the series branch: t * t overflows to inf
    ])
    def test_value_that_overflows_is_rejected(self, ell_p, t):
        with pytest.raises(ValueError, match=r"kp_mean_sq_position\(ell_p=.*\) overflows"):
            kp_mean_sq_position(ell_p, t)


class TestHardRodFluctuationCov:
    def test_zero(self):
        assert hard_rod_fluctuation_cov(0.0, 1.0) == 0.0

    def test_unit_variance(self):
        assert hard_rod_fluctuation_cov(1.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_off_diagonal(self):
        assert hard_rod_fluctuation_cov(1.0, 2.0) == pytest.approx(5.0 / 6.0, rel=1e-15)
        assert hard_rod_fluctuation_cov(2.0, 1.0) == pytest.approx(5.0 / 6.0, rel=1e-15)

    def test_quadrature_of_min(self):
        # the kink of min(u, v) limits adaptive quadrature accuracy
        for s, t in ((0.4, 0.9), (1.0, 1.0), (2.0, 0.5)):
            value, _ = integrate.dblquad(lambda u, v: min(u, v), 0.0, t, 0.0, s,
                                         epsabs=1e-12)
            assert hard_rod_fluctuation_cov(s, t) == pytest.approx(value, abs=1e-7)

    def test_brute_force_integrated_brownian_motion(self):
        # simulate 1e5 integrated Brownian paths and check the covariance
        rng = np.random.default_rng(808)
        n_paths, n_steps = 100_000, 200
        h = 1.0 / n_steps
        increments = rng.normal(0.0, math.sqrt(h), size=(n_paths, n_steps))
        beta = np.cumsum(increments, axis=1)
        # trapezoid integral of beta over [0, s]: beta starts at 0
        levels = np.concatenate([np.zeros((n_paths, 1)), beta], axis=1)
        w = np.cumsum(0.5 * h * (levels[:, :-1] + levels[:, 1:]), axis=1)
        w_half = w[:, n_steps // 2 - 1]
        w_full = w[:, -1]
        var_full = w_full.var(ddof=1)
        se_var = var_full * math.sqrt(2.0 / (n_paths - 1))
        assert abs(var_full - 1.0 / 3.0) <= 4.0 * se_var
        cov = np.mean(w_half * w_full)
        se_cov = np.std(w_half * w_full, ddof=1) / math.sqrt(n_paths)
        assert abs(cov - hard_rod_fluctuation_cov(0.5, 1.0)) <= 4.0 * se_cov

    @pytest.mark.parametrize("ell_p,s", [(1.0e2, 1.0), (1.0e3, 0.5), (1.0e4, 1.0),
                                         (1.0e4, 0.25)])
    def test_transverse_variance_limit_of_exact_kp_form(self, ell_p, s):
        # Exact finite-ell_p transverse variance under the exp(-2|t-s|/ell_p)
        # convention: E[(Q^1_u)^2] = (1 - exp(-6u/ell_p))/3 (l = 2 harmonic)
        # and E[Q^1_u Q^1_v] = E[(Q^1_u)^2] exp(-2(v-u)/ell_p) for u <= v
        # (l = 1 harmonic), so ell_p * Var(R^1_s) is twice the iterated
        # integral over 0 <= u <= v <= s.  It tends to 2 s^3/3 with a
        # relative gap of O(s/ell_p): the stiff-limit oracle is twice the
        # integrated-standard-Brownian variance.
        def integrand(v, u):
            return (ell_p * -math.expm1(-6.0 * u / ell_p) / 3.0
                    * math.exp(-2.0 * (v - u) / ell_p))

        value, err = integrate.dblquad(integrand, 0.0, s, lambda u: u, s,
                                       epsabs=0.0, epsrel=1e-11)
        assert err < 1e-12
        scaled_var = 2.0 * value
        oracle = 2.0 * hard_rod_fluctuation_cov(s, s)
        assert oracle == pytest.approx(2.0 * s**3 / 3.0, rel=1e-15)
        assert abs(scaled_var / oracle - 1.0) <= 2.5 * s / ell_p

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            hard_rod_fluctuation_cov(-1.0, 1.0)

    def test_value_that_overflows_is_rejected(self):
        # s^3/3 at s = 1e300 once read inf, an oracle no estimate can meet
        with pytest.raises(ValueError, match=r"hard_rod_fluctuation_cov\(s=1e\+300, t=1e\+300"):
            hard_rod_fluctuation_cov(1e300, 1e300)


class TestRandomCoilCov:
    def test_unit_time(self):
        assert random_coil_cov(1.0, 1.0) == 1.0

    def test_min(self):
        assert random_coil_cov(0.5, 2.0) == 0.5
        assert random_coil_cov(2.0, 0.5) == 0.5

    def test_consistent_with_msd_leading_term(self):
        # small ell_p: E|R_s|^2 ~ ell_p * s, i.e. (3/ell_p) * per-component
        # variance approaches min(s, s)
        s = 0.7
        for lp in (1e-4, 1e-6):
            scaled = (3.0 / lp) * kp_mean_sq_position(lp, s) / 3.0
            assert scaled == pytest.approx(random_coil_cov(s, s), rel=1e-3 * lp / 1e-4)


class TestTheoremRate:
    """The paper's theorem as a rate on the closed forms: the chain of N bonds
    of length L/N at bond angle kappa/sqrt(N) tends to the wormlike chain of
    ell_p = 4L/kappa^2, with gaps of order 1/N, and to no other ell_p."""

    length, kappa = 1.0, math.sqrt(2.0)
    ell_p = 4.0 * length / kappa**2

    def chain(self, n):
        return FrcConfig.scaled(n, self.length, self.kappa)

    def correlation_gap(self, n, ell_p):
        """N times the end-to-end tangent correlation's gap, chain minus KP."""
        chain = frc_bond_correlation_oracle(self.chain(n).bond_angle, n)
        return n * (chain - kp_tangent_correlation(ell_p, 0.0, self.length))

    def test_correlation_gap_times_n_tends_to_its_limit(self):
        # log cos(x) = -x^2/2 - x^4/12 + ..., so N (cos(kappa/sqrt N)^N - e^-1)
        # tends to -e^-1 kappa^4 / 12
        limit = -math.exp(-1.0) * self.kappa**4 / 12.0
        for n in (100, 1000, 10_000):
            assert self.correlation_gap(n, self.ell_p) == pytest.approx(limit, abs=1e-3)

    def test_msd_gap_times_n_converges(self):
        gaps = [n * (frc_msd_oracle(self.chain(n)) - kp_mean_sq_position(self.ell_p, self.length))
                for n in (100, 1000, 10_000)]
        assert gaps == pytest.approx([-0.066683, -0.068852, -0.069068], abs=1e-6)
        steps = [abs(b - a) for a, b in zip(gaps, gaps[1:])]
        assert steps[1] < 0.2 * steps[0]

    def test_gap_at_the_other_persistence_length_grows_like_n(self):
        # at ell_p = 2L/kappa^2 the gap tends to e^-1 - e^-2, not 0
        gaps = [self.correlation_gap(n, 2.0 * self.length / self.kappa**2) for n in (100, 1000)]
        assert gaps[0] == pytest.approx(23.1, abs=0.05)
        assert gaps[1] / gaps[0] == pytest.approx(10.0, rel=0.01)

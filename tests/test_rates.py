"""Closed-form rate expressions, thresholds, exponents and splits."""

import itertools
import math

import numpy as np
import pytest

from lsl.errors import InfeasibleConfigError
from lsl.rates import (
    SystemConfig,
    achievable_sum_rate,
    alignment_index,
    awgn_capacity,
    decoding_thresholds,
    mmse_coefficients,
    per_user_secrecy_cost,
    poltyrev_exponent,
    rate_gap,
    rate_report,
    rate_split,
    secrecy_cost_curve,
    upper_bound_sum_rate,
    very_strong_gain_threshold,
    very_strong_interference,
)

C10 = 0.5 * math.log2(11)  # capacity at SNR 10


def default_config():
    return SystemConfig(K=3, P=(10, 10, 10), a=(12, 12))


def random_very_strong_config(rng):
    """Random config rescaled so the very-strong condition holds.

    Scaling every cross gain by a common factor leaves the alignment
    index unchanged, so pushing a_j just past its threshold is safe.
    """
    k = int(rng.integers(3, 7))
    p = tuple(rng.uniform(0.1, 50.0, size=k))
    a = tuple(rng.uniform(1.0, 50.0, size=k - 1))
    cfg = SystemConfig(K=k, P=p, a=a)
    check = very_strong_interference(cfg)
    if not check.satisfied:
        factor = 1.01 * check.threshold / check.a_j * rng.uniform(1.0, 3.0)
        cfg = SystemConfig(K=k, P=p, a=tuple(g * factor for g in a))
        assert very_strong_interference(cfg).satisfied
    return cfg


class TestCapacity:
    def test_values(self):
        assert awgn_capacity(0) == 0.0
        assert awgn_capacity(1) == 0.5
        assert awgn_capacity(10) == pytest.approx(1.7297158093186748,
                                                  rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            awgn_capacity(-0.1)


class TestAlignment:
    def test_tie_goes_to_smallest_index(self):
        assert alignment_index(default_config()) == 1

    def test_strict_minimum(self):
        cfg = SystemConfig(K=3, P=(10, 1, 5), a=(2, 8))
        assert alignment_index(cfg) == 2  # min(20, 8)
        swapped = SystemConfig(K=3, P=(1, 10, 5), a=(8, 2))
        assert alignment_index(swapped) == 1

    def test_aligned_power(self):
        cfg = SystemConfig(K=3, P=(10, 1, 5), a=(2, 8))
        assert cfg.p_aligned == 8.0


class TestVeryStrong:
    def test_threshold_example(self):
        check = very_strong_interference(default_config())
        # max(1.1 * (0.5 + 10), 1.1)
        assert check.threshold == pytest.approx(11.55, rel=1e-12)
        assert check.satisfied

    def test_gain_threshold_bits(self):
        # bit-equal to the formula evaluated in this order, the order the
        # sweep goldens were printed with
        for k, p_j, p_min, p_k in itertools.product(
                (3, 7, 1000), (0.3, 3.7, 10.0), (0.1, 2.5), (0.5, 1.9, 10.0)):
            base = (p_k + 1.0) / p_j
            assert very_strong_gain_threshold(k, p_j, p_min, p_k) == max(
                base * ((k - 2) / (k - 1) + p_min), base)

    def test_just_below(self):
        cfg = SystemConfig(K=3, P=(10, 10, 10), a=(11, 11))
        assert not very_strong_interference(cfg).satisfied

    def test_threshold_decreases_with_p_k(self):
        prev = None
        for p_k in (10.0, 5.0, 1.0, 0.1, 0.01):
            cfg = SystemConfig(K=3, P=(10, 10, p_k), a=(12, 12))
            thr = very_strong_interference(cfg).threshold
            if prev is not None:
                assert thr < prev
            prev = thr


class TestAchievable:
    def test_symmetric_example(self):
        expected = (C10 - 1.0) + C10
        assert achievable_sum_rate(default_config()) == pytest.approx(
            expected, rel=1e-12)

    def test_ten_users(self):
        cfg = SystemConfig(K=10, P=(10,) * 10, a=(200,) * 9)
        expected = 8 * C10 - math.log2(9) + C10
        assert achievable_sum_rate(cfg) == pytest.approx(expected, rel=1e-12)

    def test_clamp(self):
        cfg = SystemConfig(K=3, P=(0.5, 0.5, 10), a=(50, 50))
        # (K-2)*C(0.5) < 1 bit, so only user K's rate survives
        assert (cfg.K - 2) * awgn_capacity(0.5) < math.log2(cfg.K - 1)
        assert achievable_sum_rate(cfg) == awgn_capacity(10)


class TestUpperBound:
    def test_symmetric_example(self):
        # sum of three C(10) terms minus C(240/24) = C(10): net 2*C(10)
        assert upper_bound_sum_rate(default_config()) == pytest.approx(
            2 * C10, rel=1e-12)

    def test_symmetric_reduction_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            k = int(rng.integers(3, 9))
            p_min = float(rng.uniform(0.5, 100))
            p_k = float(rng.uniform(0.5, 100))
            gain = float(rng.uniform(1.0, 50))
            cfg = SystemConfig(K=k, P=(p_min,) * (k - 1) + (p_k,),
                               a=(gain,) * (k - 1))
            expected = (k - 2) * awgn_capacity(p_min) + awgn_capacity(p_k)
            assert upper_bound_sum_rate(cfg) == pytest.approx(expected,
                                                              abs=1e-12)

    def test_hypothesis_violated(self):
        cfg = SystemConfig(K=3, P=(10, 10, 10), a=(0.5, 2))
        with pytest.raises(InfeasibleConfigError):
            upper_bound_sum_rate(cfg)


class TestGap:
    def test_log_k_minus_one(self):
        assert rate_gap(default_config()) == pytest.approx(1.0, abs=1e-12)
        cfg5 = SystemConfig(K=5, P=(10,) * 5, a=(13,) * 4)
        assert rate_gap(cfg5) == pytest.approx(2.0, abs=1e-12)

    def test_clamp_regime(self):
        cfg = SystemConfig(K=3, P=(0.5, 0.5, 10), a=(50, 50))
        gap = rate_gap(cfg)
        # achievable collapses to C(P_K), so the symmetric gap is the
        # whole interferer term of the upper bound
        assert gap == pytest.approx(
            upper_bound_sum_rate(cfg) - awgn_capacity(10), abs=1e-12)
        assert gap == pytest.approx((cfg.K - 2) * awgn_capacity(0.5),
                                    abs=1e-12)
        clamped_away = (cfg.K - 2) * awgn_capacity(0.5) - math.log2(cfg.K - 1)
        assert gap > clamped_away


class TestThresholds:
    def test_default_example(self):
        thr = decoding_thresholds(default_config())
        # P = 120: 0.5*log2(1/2 + 120/11)
        assert thr.mod_sum == pytest.approx(0.5 * math.log2(0.5 + 120 / 11),
                                            rel=1e-12)
        assert thr.mod_sum >= C10
        assert thr.distortion_ok  # 11 < 120
        assert thr.user_k == pytest.approx(C10, rel=1e-12)
        assert thr.direct == pytest.approx((C10, C10))
        # symmetric alignment transmits at exactly P_min
        assert thr.direct_physical == pytest.approx((C10, C10))

    def test_redundancy_over_random_configs(self):
        rng = np.random.default_rng(77)
        for _ in range(10_000):
            cfg = random_very_strong_config(rng)
            thr = decoding_thresholds(cfg)
            assert thr.mod_sum >= awgn_capacity(cfg.p_min)
            assert cfg.p_aligned > cfg.p_k + 1.0
            assert thr.distortion_ok


class TestMmse:
    def test_example_values(self):
        m = mmse_coefficients(default_config())
        assert m.p_x == pytest.approx(11 / 120, rel=1e-12)
        assert m.p_n == 2.0
        assert m.alpha == pytest.approx(2 / (2 + 11 / 120), rel=1e-12)
        assert m.alpha == pytest.approx(0.95618, abs=1e-5)
        assert m.effective_noise_var == pytest.approx(0.0876494, abs=1e-7)
        assert m.gamma == pytest.approx(math.sqrt(10 / 120), rel=1e-12)

    def test_alpha_matches_grid_search(self):
        rng = np.random.default_rng(5)
        grid = np.linspace(0.0, 1.0, 1_000_001)
        for _ in range(20):
            cfg = random_very_strong_config(rng)
            m = mmse_coefficients(cfg)
            objective = (grid - 1.0) ** 2 * m.p_n + grid ** 2 * m.p_x
            best = grid[np.argmin(objective)]
            assert abs(m.alpha - best) <= 1e-6
            assert m.effective_noise_var == pytest.approx(
                float(np.min(objective)), rel=1e-9)

    def test_alpha_in_unit_interval(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            cfg = random_very_strong_config(rng)
            assert 0.0 < mmse_coefficients(cfg).alpha < 1.0

    def test_high_power_limit(self):
        # vanishing user-K power and huge aligned power: the scale tends
        # to one and the residual noise floor to zero
        cfg = SystemConfig(K=3, P=(1e9, 1e9, 1e-9), a=(1, 1))
        m = mmse_coefficients(cfg)
        assert m.alpha == pytest.approx(1.0, abs=1e-8)
        assert m.effective_noise_var == pytest.approx(0.0, abs=1e-8)


class TestPoltyrev:
    def test_branch_values(self):
        assert poltyrev_exponent(2.0) == pytest.approx(0.5 * (1 - math.log(2)),
                                                       rel=1e-12)
        assert poltyrev_exponent(4.0) == pytest.approx(0.5, rel=1e-12)
        assert poltyrev_exponent(120 / 11) == pytest.approx(120 / 88,
                                                            rel=1e-12)

    def test_continuity_at_branch_points(self):
        for knee in (2.0, 4.0):
            below = poltyrev_exponent(knee - 1e-10)
            above = poltyrev_exponent(knee + 1e-10)
            assert abs(poltyrev_exponent(knee) - below) < 1e-9
            assert abs(poltyrev_exponent(knee) - above) < 1e-9

    def test_strictly_increasing_and_positive(self):
        grid = np.linspace(1.0001, 100.0, 5000)
        values = [poltyrev_exponent(float(m)) for m in grid]
        assert all(v > 0 for v in values)
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            poltyrev_exponent(1.0)
        with pytest.raises(ValueError):
            poltyrev_exponent(0.5)


class TestRateSplit:
    def test_example(self):
        split = rate_split(default_config())
        assert split.r_x == pytest.approx((C10 + 1) / 2, rel=1e-12)
        assert split.r_e == pytest.approx(C10 - (C10 + 1) / 2, rel=1e-12)
        assert split.interferer_total == pytest.approx(2 * split.r_e,
                                                       rel=1e-12)
        assert split.feasible

    def test_telescoping_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            cfg = random_very_strong_config(rng)
            split = rate_split(cfg)
            r = awgn_capacity(cfg.p_min)
            unclamped = (cfg.K - 2) * r - math.log2(cfg.K - 1)
            total = (cfg.K - 1) * r - (cfg.K - 1) * split.r_x
            assert total == pytest.approx(unclamped, abs=1e-12)

    def test_infeasible_flag(self):
        cfg = SystemConfig(K=3, P=(1, 1, 10), a=(50, 50))
        split = rate_split(cfg)
        assert split.r_e < 0
        assert not split.feasible

    def test_sacrifice_vanishes_with_users(self):
        values = [rate_split(SystemConfig(K=k, P=(10,) * k, a=(99,) * (k - 1))).r_x
                  for k in (3, 10, 50, 200)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 0.05


class TestCostCurve:
    def test_reference_points(self):
        assert per_user_secrecy_cost(10, 3) == pytest.approx(1.364858, abs=1e-5)
        assert per_user_secrecy_cost(10, 30) == pytest.approx(0.227162,
                                                              abs=1e-5)
        assert per_user_secrecy_cost(10, 100) == pytest.approx(0.084435,
                                                               abs=1e-5)

    def test_independent_re_evaluation(self):
        for k, cost in secrecy_cost_curve(10.0, range(3, 201)):
            direct = (0.5 * math.log2(11) + math.log2(k - 1)) / (k - 1)
            assert cost == pytest.approx(direct, abs=1e-12)

    def test_strictly_decreasing(self):
        curve = secrecy_cost_curve(10.0, range(3, 201))
        costs = [c for _, c in curve]
        assert all(a > b for a, b in zip(costs, costs[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            per_user_secrecy_cost(10, 2)


class TestReport:
    def test_default_fields(self):
        rep = rate_report(default_config())
        assert rep.j_star == 1
        assert rep.p_aligned == 120.0
        assert rep.very_strong
        assert not rep.clamp_active
        assert rep.upper_sum is not None
        assert rep.gap == pytest.approx(1.0, abs=1e-12)
        assert rep.achievable_sum >= rep.threshold_user_k
        assert rep.mu == pytest.approx(120 / 11, rel=1e-12)
        assert rep.poltyrev == pytest.approx(120 / 88, rel=1e-12)
        assert rep.c_max == 12.0
        assert rep.h == (1.0, 1.0)

    def test_upper_absent_when_gain_below_one(self):
        rep = rate_report(SystemConfig(K=3, P=(10, 10, 10), a=(0.5, 2)))
        assert rep.upper_sum is None and rep.gap is None
        assert rep.achievable_sum >= awgn_capacity(10) - 1e-12

    def test_poltyrev_absent_when_mu_small(self):
        rep = rate_report(SystemConfig(K=3, P=(2, 2, 10), a=(1, 1)))
        assert rep.mu <= 1.0
        assert rep.poltyrev is None
        assert not rep.distortion_ok

    def test_achievable_includes_user_k(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            cfg = random_very_strong_config(rng)
            rep = rate_report(cfg)
            assert rep.achievable_sum >= awgn_capacity(cfg.p_k) - 1e-12

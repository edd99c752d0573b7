"""Closed-form rate expressions, thresholds, exponents and splits."""

import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lsl.rates
from lsl.errors import InfeasibleConfigError
from lsl.rates import (
    SystemConfig,
    achievable_sum_rate,
    alignment_index,
    awgn_capacity,
    decoding_thresholds,
    interferer_sum_rate,
    mmse_coefficients,
    per_user_secrecy_cost,
    poltyrev_exponent,
    rate_split,
    symmetric_upper_bound_sum_rate,
    upper_bound_sum_rate,
    very_strong_gain_threshold,
    very_strong_interference,
)

C10 = 0.5 * math.log2(11)  # capacity at SNR 10


def default_config():
    return SystemConfig(K=3, P=(10, 10, 10), a=(12, 12))


def rate_gap(cfg):
    """The ``gap`` cell of ``lsl rates``: upper bound minus achievable."""
    return (upper_bound_sum_rate(cfg)
            - achievable_sum_rate(cfg.K, cfg.p_min, cfg.p_k))


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
        a_j = cfg.a[check.j_star - 1]
        factor = 1.01 * check.threshold / a_j * rng.uniform(1.0, 3.0)
        cfg = SystemConfig(K=k, P=p, a=tuple(g * factor for g in a))
        assert very_strong_interference(cfg).satisfied
    return cfg


def _non_finite_case(field, slot, bad):
    values = {"P": [10.0, 10.0, 10.0], "a": [12.0, 12.0]}
    values[field][slot] = bad
    return pytest.param(values["P"], values["a"], id=f"{field}-{slot}-{bad}")


class TestConfig:
    @pytest.mark.parametrize("P, a", [
        *(_non_finite_case(field, slot, bad)
          for field, slot in [("P", 0), ("P", 2), ("a", 1)]
          for bad in [math.nan, math.inf, -math.inf]),
        # every entry finite, but the received power sum overflows
        pytest.param([1e308] * 3, [1e308] * 2, id="received-overflow"),
    ])
    def test_rejects_non_finite_entries(self, P, a):
        with pytest.raises(ValueError, match="must be finite"):
            SystemConfig(K=3, P=P, a=a)


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
        assert achievable_sum_rate(3, 10.0, 10.0) == pytest.approx(
            expected, rel=1e-12)

    def test_ten_users(self):
        cfg = SystemConfig(K=10, P=(10,) * 10, a=(200,) * 9)
        expected = 8 * C10 - math.log2(9) + C10
        assert achievable_sum_rate(cfg.K, cfg.p_min, cfg.p_k) == \
            pytest.approx(expected, rel=1e-12)

    def test_clamp(self):
        cfg = SystemConfig(K=3, P=(0.5, 0.5, 10), a=(50, 50))
        # (K-2)*C(0.5) < 1 bit, so only user K's rate survives
        assert (cfg.K - 2) * awgn_capacity(0.5) < math.log2(cfg.K - 1)
        assert interferer_sum_rate(cfg.K, cfg.p_min) < 0.0
        assert achievable_sum_rate(3, 0.5, 10.0) == awgn_capacity(10)

    def test_interferer_part_bits(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            cfg = random_very_strong_config(rng)
            part = interferer_sum_rate(cfg.K, cfg.p_min)
            assert part == ((cfg.K - 2) * awgn_capacity(cfg.p_min)
                            - math.log2(cfg.K - 1))
            assert achievable_sum_rate(cfg.K, cfg.p_min, cfg.p_k) == (
                max(part, 0.0) + awgn_capacity(cfg.p_k))


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


class TestSymmetricClosedForms:
    """The scalar closed forms against the ``SystemConfig`` path."""

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(3, 200), p_min=st.floats(0.05, 1000.0),
           p_k=st.floats(0.05, 1000.0))
    def test_equal_the_general_path(self, k, p_min, p_k):
        # the symmetric channel with the sweep's automatic cross gain
        gain = 1.05 * very_strong_gain_threshold(k, p_min, p_min, p_k)
        cfg = SystemConfig(K=k, P=(p_min,) * (k - 1) + (p_k,),
                           a=(gain,) * (k - 1))
        assert gain >= 1.05 * (p_k + 1.0)
        # the K-1 confidential rates r_e telescope to the interferer part
        interferer = (k - 1) * rate_split(cfg).r_e
        assert interferer_sum_rate(k, p_min) == pytest.approx(
            interferer, rel=1e-12, abs=1e-12)
        assert achievable_sum_rate(k, p_min, p_k) == pytest.approx(
            max(interferer, 0.0) + decoding_thresholds(cfg).user_k,
            rel=1e-12)
        assert symmetric_upper_bound_sum_rate(k, p_min, p_k) == \
            pytest.approx(upper_bound_sum_rate(cfg), rel=1e-12)

    def test_import_leaves_numpy_out(self):
        # a fresh interpreter, on the path this lsl.rates was found on
        src = os.path.dirname(os.path.dirname(lsl.rates.__file__))
        code = "import sys, lsl.rates; print('numpy' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code],
                                env={**os.environ, "PYTHONPATH": src},
                                capture_output=True, text=True, check=True)
        assert result.stdout == "False\n"


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
            # wanted power p_n = K-1, the rest p_x = (P_K+1)/P
            p_n, p_x = cfg.K - 1, (cfg.p_k + 1.0) / cfg.p_aligned
            objective = (grid - 1.0) ** 2 * p_n + grid ** 2 * p_x
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

    def test_sacrifice_is_the_secrecy_cost_bits(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            cfg = random_very_strong_config(rng)
            split = rate_split(cfg)
            r = awgn_capacity(cfg.p_min)
            # (C(P_min) + log2(K-1))/(K-1) written out, bit for bit
            assert split.r_x == (r + math.log2(cfg.K - 1)) / (cfg.K - 1)
            assert split.r_x == per_user_secrecy_cost(cfg.p_min, cfg.K)
            assert split.r_e == r - split.r_x

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
        for k in range(3, 201):
            cost = per_user_secrecy_cost(10.0, k)
            direct = (0.5 * math.log2(11) + math.log2(k - 1)) / (k - 1)
            assert cost == pytest.approx(direct, abs=1e-12)

    def test_strictly_decreasing(self):
        costs = [per_user_secrecy_cost(10.0, k) for k in range(3, 201)]
        assert all(a > b for a, b in zip(costs, costs[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            per_user_secrecy_cost(10, 2)


class TestReport:
    """What the ``rates`` subcommand reads off the component functions."""

    def test_default_fields(self):
        cfg = default_config()
        check = very_strong_interference(cfg)
        thr = decoding_thresholds(cfg)
        assert check.j_star == 1
        assert cfg.p_aligned == 120.0
        assert check.satisfied
        assert interferer_sum_rate(cfg.K, cfg.p_min) >= 0.0
        upper = upper_bound_sum_rate(cfg)
        achievable = achievable_sum_rate(cfg.K, cfg.p_min, cfg.p_k)
        assert upper - achievable == pytest.approx(1.0, abs=1e-12)
        assert achievable >= thr.user_k
        assert thr.mu == pytest.approx(120 / 11, rel=1e-12)
        assert poltyrev_exponent(thr.mu) == pytest.approx(120 / 88, rel=1e-12)

    def test_upper_absent_when_gain_below_one(self):
        cfg = SystemConfig(K=3, P=(10, 10, 10), a=(0.5, 2))
        with pytest.raises(InfeasibleConfigError):
            upper_bound_sum_rate(cfg)
        assert achievable_sum_rate(3, 10.0, 10.0) >= awgn_capacity(10) - 1e-12

    def test_poltyrev_absent_when_mu_small(self):
        thr = decoding_thresholds(SystemConfig(K=3, P=(2, 2, 10), a=(1, 1)))
        assert thr.mu <= 1.0
        with pytest.raises(ValueError):
            poltyrev_exponent(thr.mu)
        assert not thr.distortion_ok

    def test_achievable_includes_user_k(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            cfg = random_very_strong_config(rng)
            assert (achievable_sum_rate(cfg.K, cfg.p_min, cfg.p_k)
                    >= awgn_capacity(cfg.p_k) - 1e-12)

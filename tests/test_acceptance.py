"""Acceptance suite: one test per shipped criterion, one line per verdict.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
Asymptotic claims (capacity-achieving decoding, vanishing leakage) are
out of reach at desk scale and are represented here by exact identities,
formula cross-checks and seeded monotonicity probes instead.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from lsl.cli import main
from lsl.lattices import (
    make_construction_a_pair,
    make_cubic_pair,
    mod_lattice,
)
from lsl.leakage import leakage_row
from lsl.rates import (
    SystemConfig,
    achievable_sum_rate,
    awgn_capacity,
    decoding_thresholds,
    mmse_coefficients,
    per_user_secrecy_cost,
    poltyrev_exponent,
    symmetric_upper_bound_sum_rate,
    upper_bound_sum_rate,
    very_strong_interference,
)
from lsl.representation import certify_batch, reconstruct_batch
from lsl.simulate import (
    Scheme,
    _batch_trial_arrays,
    derive_trial_seed,
    run_campaign,
)
from lsl.lattices import codebook


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {number:02d}] PASS  {description} ({elapsed:.1f}s)")


def symmetric_very_strong(k, p_min, p_k, margin=1.05):
    base = (p_k + 1.0) / p_min
    threshold = max(base * ((k - 2) / (k - 1) + p_min), base)
    return SystemConfig(K=k, P=(p_min,) * (k - 1) + (p_k,),
                        a=(margin * threshold,) * (k - 1))


def test_criterion_01_gap_identity():
    with criterion(1, "gap equals log2(K-1) in symmetric very-strong configs"):
        for k in range(3, 11):
            cfg = symmetric_very_strong(k, 10.0, 10.0)
            assert very_strong_interference(cfg).satisfied
            gap = (upper_bound_sum_rate(cfg)
                   - achievable_sum_rate(cfg.K, cfg.p_min, cfg.p_k))
            assert abs(gap - math.log2(k - 1)) <= 1e-9, (k, gap)


def test_criterion_02_symmetric_converse_reduction():
    with criterion(2, "symmetric upper bound reduces to (K-2)C(Pmin)+C(PK)"):
        rng = np.random.default_rng(20260809)
        for _ in range(1000):
            k = int(rng.integers(3, 9))
            p_min = float(rng.uniform(0.5, 100.0))
            p_k = float(rng.uniform(0.5, 100.0))
            gain = float(rng.uniform(1.0, 50.0))
            cfg = SystemConfig(K=k, P=(p_min,) * (k - 1) + (p_k,),
                               a=(gain,) * (k - 1))
            expected = symmetric_upper_bound_sum_rate(k, p_min, p_k)
            assert abs(upper_bound_sum_rate(cfg) - expected) <= 1e-12


def test_criterion_03_cost_curve():
    with criterion(3, "per-user secrecy cost curve at P_min = 10"):
        assert per_user_secrecy_cost(10.0, 3) == pytest.approx(1.364858,
                                                               abs=1e-5)
        assert per_user_secrecy_cost(10.0, 30) == pytest.approx(0.227162,
                                                                abs=1e-5)
        assert per_user_secrecy_cost(10.0, 100) == pytest.approx(0.084435,
                                                                 abs=1e-5)
        curve = [(k, per_user_secrecy_cost(10.0, k)) for k in range(3, 201)]
        costs = [c for _, c in curve]
        assert all(a > b for a, b in zip(costs, costs[1:]))
        for k, cost in curve:
            again = (0.5 * math.log2(1 + 10) + math.log2(k - 1)) / (k - 1)
            assert abs(cost - again) <= 1e-5


def test_criterion_04_representation_round_trip():
    with criterion(4, "sum-certificate round trips, exhaustive and random"):
        # (a) exhaustive codeword-grid tuples
        for q, dim in itertools.product((2, 3), (1, 2)):
            pair = make_cubic_pair(q, dim)
            leaders = pair.fine.scale * codebook(pair)
            for k in (1, 2, 3):
                for combo in itertools.product(leaders, repeat=k):
                    folded, index = certify_batch(combo, pair.coarse)
                    total = np.sum(combo, axis=0)
                    assert np.allclose(
                        reconstruct_batch(folded, index, k, pair.coarse),
                        total, atol=1e-9)
                    assert 1 <= index <= k ** dim
        # (b) random tuples in the fundamental cell, q = 4
        rng = np.random.default_rng(41)
        per_combo = 8334
        total_tuples = 0
        for dim in (1, 2, 3, 4):
            lat = make_cubic_pair(4, dim).coarse
            for k in (2, 3, 4):
                box = lat.scale * rng.random((per_combo, k, dim))
                pts = mod_lattice(lat, box)
                folded, index = certify_batch(pts, lat)
                rec = reconstruct_batch(folded, index, k, lat)
                # per tuple: the in-order sum comes back, index <= K^N
                close = np.isclose(rec, pts.sum(axis=1), atol=1e-9)
                assert np.all(np.all(close, axis=-1))
                assert np.all(index <= k ** dim)
                total_tuples += per_combo
        assert total_tuples >= 100_000


def test_criterion_05_leakage_identities():
    with criterion(5, "exact mod-sum leakage identities and bound"):
        for k, q, dim in itertools.product((3, 4, 5), (2, 3), (1, 2)):
            # the whole q^dim box as a Construction-A pair is tallied whole
            box = make_construction_a_pair(q, dim,
                                           np.eye(dim, dtype=int).tolist())
            target = (k - 2) * dim * box.rate_per_dim
            whole = leakage_row(box, k)
            assert abs(whole.h_cond - target) <= 1e-12
            assert whole.identity_ok and whole.passed, (k, q, dim)
            # the cubic row tallies one coordinate and scales it by N
            row = leakage_row(make_cubic_pair(q, dim), k)
            assert row.identity_ok and row.passed, (k, q, dim)
            assert abs(row.h_cond - target) <= 1e-12
            assert abs(row.leakage - whole.leakage) <= 1e-12
            assert abs(row.index_entropy - whole.index_entropy) <= 1e-12


def test_criterion_06_effective_noise():
    with criterion(6, "effective-noise variance and MMSE scale at D_K"):
        cfg = SystemConfig(K=3, P=(10, 10, 10), a=(12, 12))
        scheme = Scheme.for_config(cfg, make_cubic_pair(2, 2))
        report = run_campaign(scheme, 100_000, 60)
        predicted = mmse_coefficients(cfg).effective_noise_var
        assert report.mean_effective_noise_power == pytest.approx(
            predicted, rel=0.05)
        grid = np.linspace(0.0, 1.0, 1_000_001)
        m = mmse_coefficients(cfg)
        p_n, p_x = cfg.K - 1, (cfg.p_k + 1.0) / cfg.p_aligned
        objective = (grid - 1.0) ** 2 * p_n + grid ** 2 * p_x
        assert abs(m.alpha - grid[np.argmin(objective)]) <= 1e-6


def test_criterion_07_monte_carlo_monotonicity():
    with criterion(7, "seeded error-rate monotonicity and event consistency"):
        # (a) residual-wrap rate strictly decreasing in mu, under the
        # coded pair
        pair = make_construction_a_pair(2, 3, [(1, 1, 1)])
        e2_counts = []
        for p_aligned, p_k in ((3.0, 1.5), (4.5, 0.125), (12.0, 0.2)):
            gain = p_aligned / 10.0
            cfg = SystemConfig(K=3, P=(10, 10, p_k), a=(gain, gain))
            mu = p_aligned / (p_k + 1.0)
            assert mu in (1.2, 4.0, 10.0)
            rep = run_campaign(Scheme.for_config(cfg, pair), 10_000, 2026)
            e2_counts.append(rep.e2_count)
        assert e2_counts[0] > e2_counts[1] > e2_counts[2], e2_counts
        # (b) direct-link error rate strictly decreasing in physical SNR
        pair_direct = make_cubic_pair(3, 2)
        direct_rates = []
        for snr in (5.0, 10.0, 20.0):
            cfg = SystemConfig(K=3, P=(snr, snr, 0.5), a=(1, 1))
            rep = run_campaign(Scheme.for_config(cfg, pair_direct),
                               10_000, 314)
            direct_rates.append(sum(rep.direct_error_counts))
        assert direct_rates[0] > direct_rates[1] > direct_rates[2] > 0
        # (c) conditional event flags are consistent on every trial; the
        # engine's per-trial flags equal run_trial's (see test_simulate)
        cfg = SystemConfig(K=3, P=(10, 10, 1.5), a=(0.3, 0.3))
        scheme = Scheme.for_config(cfg, make_cubic_pair(2, 2))
        key, _ = derive_trial_seed(7, 0)
        flags = _batch_trial_arrays(scheme, key, 0, 10_000)
        e1, e2, e3 = flags["e1"], flags["e2"], flags["e3"]
        assert e1.shape == e2.shape == e3.shape == (10_000,)
        assert not np.any(e1 & e2)
        assert not np.any(e3 & (e1 | e2))
        assert e1.any() and e2.any() and e3.any()


def test_criterion_08_threshold_redundancy():
    with criterion(8, "mod-sum threshold redundant under very strong gains"):
        rng = np.random.default_rng(88)
        for _ in range(10_000):
            k = int(rng.integers(3, 7))
            p = tuple(rng.uniform(0.1, 50.0, size=k))
            a = tuple(rng.uniform(1.0, 50.0, size=k - 1))
            cfg = SystemConfig(K=k, P=p, a=a)
            check = very_strong_interference(cfg)
            if not check.satisfied:
                factor = 1.01 * check.threshold / cfg.a[check.j_star - 1] \
                    * float(rng.uniform(1.0, 3.0))
                cfg = SystemConfig(K=k, P=p,
                                   a=tuple(g * factor for g in a))
                assert very_strong_interference(cfg).satisfied
            thr = decoding_thresholds(cfg)
            assert thr.mod_sum >= awgn_capacity(cfg.p_min)
            assert cfg.p_aligned > cfg.p_k + 1.0


def test_criterion_09_poltyrev_exponent():
    with criterion(9, "Poltyrev exponent continuity and positivity"):
        for knee in (2.0, 4.0):
            assert abs(poltyrev_exponent(knee)
                       - poltyrev_exponent(knee - 1e-10)) <= 1e-9
            assert abs(poltyrev_exponent(knee)
                       - poltyrev_exponent(knee + 1e-10)) <= 1e-9
        for mu in np.linspace(1.0 + 1e-9, 100.0, 20_000):
            assert poltyrev_exponent(float(mu)) > 0.0


def test_criterion_10_reproducibility(tmp_path):
    with criterion(10, "byte-identical simulate CSV across runs and threads"):
        args = ["simulate", "--trials", "2000", "--seed", "17"]
        paths = [tmp_path / f"run{i}.csv" for i in range(3)]
        assert main(args + ["--out", str(paths[0])]) == 0
        assert main(args + ["--out", str(paths[1])]) == 0
        assert main(args + ["--jobs", "8", "--out", str(paths[2])]) == 0
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]


def test_achievable_always_covers_user_k():
    # report-level sanity rider: the clamp never drops user K's rate
    rng = np.random.default_rng(3)
    for _ in range(200):
        k = int(rng.integers(3, 8))
        cfg = SystemConfig(
            K=k, P=tuple(rng.uniform(0.1, 40.0, size=k)),
            a=tuple(rng.uniform(0.2, 40.0, size=k - 1)))
        assert (achievable_sum_rate(cfg.K, cfg.p_min, cfg.p_k)
                >= awgn_capacity(cfg.p_k) - 1e-12)

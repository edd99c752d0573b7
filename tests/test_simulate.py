"""Monte Carlo pipeline: encoding, channel, three-stage decoding, events."""

import functools
import hashlib
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from lsl.errors import InvariantViolationError
from lsl.lattices import (
    _reduce_axis,
    codebook,
    in_voronoi,
    make_construction_a_pair,
    make_cubic_pair,
    mod_lattice,
)
from lsl.rates import SystemConfig, mmse_coefficients
from lsl.simulate import (
    Scheme,
    _batch_trial_arrays,
    _draws,
    _philox,
    _trial_blocks,
    TrialOutcome,
    apply_channel,
    classify_events,
    decode_direct,
    decode_mod_sum,
    decode_user_k,
    derive_trial_seed,
    encode_interferer,
    encode_user_k,
    run_campaign,
    run_trial,
    subtract_interference,
    wilson_interval,
)


def default_scheme(q=2, dim=2):
    cfg = SystemConfig(K=3, P=(10, 10, 10), a=(12, 12))
    return Scheme.for_config(cfg, make_cubic_pair(q, dim))


def coded_benchmark_scheme():
    # the campaign-coded benchmark workload: q=3, N=4, k=2
    cfg = SystemConfig(K=3, P=(10, 10, 10), a=(12, 12))
    pair = make_construction_a_pair(3, 4, [(1, 0, 1, 1), (0, 1, 1, 2)])
    return Scheme.for_config(cfg, pair)


def coded_wrap_scheme():
    # criterion 07 at mu = 1.2, where residual wraps (e2) do occur
    cfg = SystemConfig(K=3, P=(10, 10, 1.5), a=(0.3, 0.3))
    return Scheme.for_config(cfg, make_construction_a_pair(2, 3, [(1, 1, 1)]))


def unequal_schemes():
    # every user has its own power and gain, so a per-user constant
    # applied along the wrong axis changes the outcome
    cfg = SystemConfig(K=5, P=(8, 6, 5, 4, 2), a=(1.5, 2, 2.5, 3))
    return (Scheme.for_config(cfg, make_cubic_pair(3, 2)),
            Scheme.for_config(cfg, make_construction_a_pair(
                3, 4, [(1, 0, 1, 1), (0, 1, 1, 2)])))


def composite_scheme():
    # q = 6: an injective code without a unit entry in its generator
    cfg = SystemConfig(K=3, P=(10, 10, 10), a=(12, 12))
    return Scheme.for_config(cfg, make_construction_a_pair(6, 2, [(2, 3)]))


def draw_dithers(lat, rng, *shape):
    """A dither uniform over the cell of the cubic ``lat`` for every index
    of ``shape``, in one draw: box uniforms folded by ``mod_lattice``.

    ``rng.random(shape + (N,))`` reads the same stream as one
    ``rng.random(N)`` per dither, in row-major order.
    """
    return mod_lattice(lat, lat.scale * rng.random(shape + (lat.dimension,)))


def embed(pair, coords):
    """Real embedding of fine-lattice coordinates."""
    return pair.fine.scale * np.asarray(coords, dtype=float)


class TestEncoding:
    def test_zero_codeword_zero_dither(self):
        scheme = default_scheme()
        origin = np.zeros(2, dtype=np.int64)
        u, x = encode_interferer(scheme, [origin, origin], np.zeros((2, 2)))
        assert np.all(x == 0.0) and np.all(u == 0.0)
        assert np.all(encode_user_k(scheme, origin, np.zeros(2))[1] == 0.0)

    def test_power_compliance(self):
        scheme = default_scheme()
        rng = np.random.default_rng(42)
        n = scheme.dimension
        coarse = scheme.pair.coarse
        # user 1's 20,000 dithers, then user 2's, as sequential draws
        dithers = np.stack([draw_dithers(coarse, rng, 20_000)
                            for _ in (1, 2)], axis=1)
        _, x = encode_interferer(scheme, np.ones((20_000, 2, 2), np.int64),
                                 dithers)
        powers = np.sum(x ** 2, axis=-1) / n
        for user in (1, 2):
            target = scheme.aligned_power / scheme.config.a[user - 1]
            assert np.mean(powers[:, user - 1]) == pytest.approx(target,
                                                                 rel=0.01)
            assert target <= scheme.config.P[user - 1] + 1e-12
        d_k = draw_dithers(scheme.pair.coarse, rng, 20_000)
        _, x_k = encode_user_k(scheme, np.tile([0, 1], (20_000, 1)), d_k)
        powers_k = np.sum(x_k ** 2, axis=-1) / n
        assert np.mean(powers_k) == pytest.approx(scheme.config.p_k, rel=0.01)

    def test_alignment_exact_algebra(self):
        # every interferer arrives at receiver K with amplitude sqrt(P)
        scheme = default_scheme()
        pair = scheme.pair
        rng = np.random.default_rng(7)
        d = draw_dithers(pair.coarse, rng, 2)
        codeword = np.array([1, 0])
        u, x = encode_interferer(scheme, [codeword, codeword], d)
        for user in (1, 2):
            expected_u = mod_lattice(
                pair.coarse, embed(pair, codeword) + d[user - 1])
            assert np.array_equal(u[user - 1], expected_u)
            arrived = math.sqrt(scheme.config.a[user - 1]) * x[user - 1]
            assert np.allclose(
                arrived, math.sqrt(scheme.aligned_power) * expected_u,
                rtol=1e-12)

    def test_rejects_user_axis_out_of_range(self):
        scheme = default_scheme()
        # the user axis must hold all K-1 = 2 links: a length-1 axis
        # would otherwise broadcast the first user's constants silently
        for direct, dithers in (((1, 2), (1, 2)), ((3, 2), (3, 2)),
                                ((2,), (2,)), ((5, 1, 2), (5, 2, 2)),
                                ((5, 2, 2), (5, 1, 2))):
            with pytest.raises(ValueError):
                decode_direct(scheme, np.zeros(direct), np.zeros(dithers))
        for codewords, dithers in (((1, 2), (1, 2)), ((3, 2), (3, 2)),
                                   ((2,), (2,)), ((2, 2), (1, 2)),
                                   ((5, 1, 2), (5, 1, 2)),
                                   ((5, 2, 2), (5, 1, 2)),
                                   ((5, 1, 2), (5, 2, 2))):
            with pytest.raises(ValueError):
                encode_interferer(scheme, np.zeros(codewords, np.int64),
                                  np.zeros(dithers))
        # the channel takes K-1 = 2 signals and K = 3 noise rows
        for signals, noise in (((1, 2), (3, 2)), ((3, 2), (3, 2)),
                               ((2, 2), (2, 2)), ((2, 2), (1, 2)),
                               ((2,), (3, 2)), ((5, 1, 2), (5, 3, 2)),
                               ((5, 2, 2), (5, 4, 2))):
            with pytest.raises(ValueError):
                apply_channel(scheme, np.zeros(signals), np.zeros(2),
                              np.zeros(noise))

    def test_rejects_unnormalized_pair(self):
        from lsl.lattices import Lattice, NestedPair
        fine = Lattice(dimension=1, family="cubic", scale_sq=1.0)
        coarse = Lattice(dimension=1, family="cubic", scale_sq=4.0)
        pair = NestedPair(fine=fine, coarse=coarse, q=2)
        cfg = SystemConfig(K=3, P=(10, 10, 10), a=(12, 12))
        with pytest.raises(ValueError):
            Scheme.for_config(cfg, pair)

    def test_leaders_are_the_codebook(self):
        # a Construction-A codebook is the fine lattice's one array of
        # codewords; a cubic pair holds none, and its rule, the q^N digit
        # rows in lexicographic order minus (q-1)//2, lists the same rows
        # in order
        for q, n in ((2, 2), (3, 3), (4, 2), (5, 2), (6, 1)):
            scheme = default_scheme(q, n)
            assert scheme.pair.fine.codewords is None
            digits = np.array(list(itertools.product(range(q), repeat=n)),
                              dtype=np.int64)
            assert np.array_equal(digits - (q - 1) // 2,
                                  codebook(scheme.pair))
        for scheme in (coded_benchmark_scheme(), composite_scheme()):
            assert scheme.pair.fine.codewords.dtype == np.int64
            assert codebook(scheme.pair) is scheme.pair.fine.codewords


class TestChannel:
    def test_noiseless_identity(self):
        scheme = default_scheme()
        pair = scheme.pair
        rng = np.random.default_rng(3)
        leaders = codebook(pair)
        idx = [1, 3]
        dithers = draw_dithers(pair.coarse, rng, 2)
        _, signals = encode_interferer(scheme, leaders[idx], dithers)
        d_k = draw_dithers(scheme.pair.coarse, rng)
        _, signal_k = encode_user_k(scheme, leaders[2], d_k)
        direct, _, y_k = apply_channel(scheme, signals, signal_k,
                                       np.zeros((3, 2)))
        for x, y in zip(signals, direct):
            assert np.array_equal(x, y)
        us = [mod_lattice(pair.coarse, embed(pair, leaders[i]) + d)
              for i, d in zip(idx, dithers)]
        u_k = mod_lattice(pair.coarse, embed(pair, leaders[2]) + d_k)
        expected = math.sqrt(scheme.aligned_power) * (us[0] + us[1]) \
            + math.sqrt(scheme.config.p_k) * u_k
        assert np.allclose(y_k, expected, rtol=1e-12)

    def test_direct_links_are_interference_free(self):
        scheme = default_scheme()
        signals = np.array([[1.0, 2.0], [-3.0, 0.5]])
        silent = np.zeros((3, 2))
        direct_a, _, _ = apply_channel(scheme, signals, np.zeros(2), silent)
        other = np.array([signals[0], [100.0, -50.0]])
        direct_b, _, _ = apply_channel(scheme, other, np.ones(2), silent)
        assert np.array_equal(direct_a[0], direct_b[0])

    def test_noise_variance(self):
        # every output carries exactly its own row of the given noise
        scheme = default_scheme()
        rng = np.random.default_rng(11)
        noise = rng.standard_normal((60_000, 3, 2))
        direct, _, y_k = apply_channel(scheme, np.zeros((60_000, 2, 2)),
                                       np.zeros((60_000, 2)), noise)
        flat = np.concatenate([direct, y_k[:, None]], axis=1)
        assert np.array_equal(flat, noise)
        assert np.var(flat) == pytest.approx(1.0, rel=0.01)


class TestDecoding:
    def test_noiseless_round_trip_exhaustive(self):
        # zero channel noise: every stage recovers every codeword combo,
        # on a cubic pair and on the campaign-coded Construction-A pair
        for scheme in (default_scheme(q=2, dim=1), coded_benchmark_scheme()):
            pair = scheme.pair
            leaders = codebook(pair)
            rng = np.random.default_rng(5)
            combos = np.array(list(itertools.product(
                range(len(leaders)), repeat=3)))
            idx, idx_k = combos[:, :2], combos[:, 2]
            # per combo: both interferer dithers, then user K's
            drawn = draw_dithers(pair.coarse, rng, len(combos), 3)
            dithers, d_k = drawn[:, :2], drawn[:, 2]
            _, signals = encode_interferer(scheme, leaders[idx], dithers)
            _, signal_k = encode_user_k(scheme, leaders[idx_k], d_k)
            direct, _, y_k = apply_channel(
                scheme, signals, signal_k,
                np.zeros((len(combos), 3, scheme.dimension)))
            assert np.array_equal(decode_direct(scheme, direct, dithers),
                                  leaders[idx])
            dither_sum = _reduce_axis(np.add, dithers, 1)
            s_hat = decode_mod_sum(scheme, y_k, dither_sum)
            for row, (t1, t2) in zip(s_hat, idx):
                assert np.array_equal(row,
                                      pair.reduce(leaders[t1] + leaders[t2]))
            residual = subtract_interference(scheme, y_k, s_hat, dither_sum)
            assert np.array_equal(decode_user_k(scheme, residual, d_k),
                                  leaders[idx_k])

    def test_mod_sum_collapse_with_unit_alpha(self):
        # zero dither, zero noise, silent user K: folding y_K/sqrt(P)
        # directly (alpha = 1) returns the folded codeword sum exactly
        scheme = default_scheme(q=2, dim=2)
        pair = scheme.pair
        leaders = codebook(pair)
        for t1 in range(2):
            for t2 in range(2, len(leaders)):
                _, signals = encode_interferer(scheme, leaders[[t1, t2]],
                                               np.zeros((2, 2)))
                silent_k = np.zeros(2)
                _, _, y_k = apply_channel(scheme, signals, silent_k,
                                          np.zeros((3, 2)))
                folded = mod_lattice(pair.coarse,
                                     y_k / math.sqrt(scheme.aligned_power))
                expected = embed(pair,
                                 pair.reduce(leaders[t1] + leaders[t2]))
                assert np.allclose(folded, expected, atol=1e-9)

    def test_residual_equals_unwrapped_value(self):
        scheme = default_scheme(q=2, dim=2)
        pair = scheme.pair
        leaders = codebook(pair)
        rng = np.random.default_rng(8)
        hits = 0
        for _ in range(200):
            idx = rng.integers(0, 4, size=2)
            t_k = rng.integers(0, 4)
            dithers = draw_dithers(pair.coarse, rng, 2)
            d_k = draw_dithers(scheme.pair.coarse, rng)
            _, signals = encode_interferer(scheme, leaders[idx], dithers)
            _, signal_k = encode_user_k(scheme, leaders[t_k], d_k)
            noise = rng.standard_normal((3, 2))
            _, _, y_k = apply_channel(scheme, signals, signal_k, noise)
            dither_sum = dithers[0] + dithers[1]
            s_hat = decode_mod_sum(scheme, y_k, dither_sum)
            s_true = pair.reduce(leaders[idx[0]] + leaders[idx[1]])
            if not np.array_equal(s_hat, s_true):
                continue
            u_k = mod_lattice(pair.coarse, embed(pair, leaders[t_k]) + d_k)
            z_k = y_k - math.sqrt(scheme.config.a[0]) * signals[0] \
                - math.sqrt(scheme.config.a[1]) * signals[1] - signal_k
            unwrapped = scheme.gamma * u_k \
                + z_k / math.sqrt(scheme.aligned_power)
            residual = subtract_interference(scheme, y_k, s_hat, dither_sum)
            if in_voronoi(pair.coarse, unwrapped):
                assert np.allclose(residual, unwrapped, atol=1e-9)
                hits += 1
        assert hits > 100

    def test_direct_error_monotone_in_snr(self):
        pair = make_cubic_pair(3, 2)
        rates = []
        for snr in (5.0, 10.0, 20.0):
            cfg = SystemConfig(K=3, P=(snr, snr, 0.5), a=(1, 1))
            rep = run_campaign(Scheme.for_config(cfg, pair), 4000, 314)
            rates.append(sum(rep.direct_error_counts))
        assert rates[0] > rates[1] > rates[2] > 0

    def test_direct_error_tiny_at_high_snr(self):
        # q=2, N=1 at physical SNR 100; per-coordinate error is bounded
        # by 2Q(d) with d = (fine half cell)/(post-MMSE noise std)
        cfg = SystemConfig(K=3, P=(100, 100, 2), a=(1, 1))
        scheme = Scheme.for_config(cfg, make_cubic_pair(2, 1))
        rep = run_campaign(scheme, 10_000, 271)
        rate = sum(rep.direct_error_counts) / (2 * rep.trials)
        half_cell = scheme.pair.fine.scale / 2
        post_mmse_std = math.sqrt(1.0 / 101.0)
        q_bound = math.erfc(half_cell / post_mmse_std / math.sqrt(2))
        assert q_bound < 1e-3
        assert rate <= max(q_bound * 10, 1e-3)

    def test_mod_sum_error_decreases_with_aligned_power(self):
        pair = make_cubic_pair(2, 2)
        counts = []
        for gain in (0.35, 0.7, 1.4):
            cfg = SystemConfig(K=3, P=(10, 10, 0.5), a=(gain, gain))
            rep = run_campaign(Scheme.for_config(cfg, pair), 4000, 161)
            counts.append(rep.e1_count)
        assert counts[0] > counts[1] > counts[2]


STAGES = ("encode_interferer", "encode_user_k", "apply_channel",
          "decode_direct", "decode_mod_sum", "subtract_interference",
          "decode_user_k", "classify_events")


@functools.cache
def stage_schemes():
    q5 = Scheme.for_config(SystemConfig(K=4, P=(3, 3, 3, 1), a=(1, 1, 1)),
                           make_cubic_pair(5, 2))
    return (default_scheme(q=2, dim=2), default_scheme(q=3, dim=3), q5,
            coded_benchmark_scheme(), coded_wrap_scheme(), *unequal_schemes())


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


class TestStages:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 6), st.integers(1, 6), st.integers(0, 2**32 - 1),
           st.booleans())
    def test_batch_equals_row_by_row(self, which, t, seed, noiseless):
        scheme = stage_schemes()[which]
        k1 = scheme.config.K - 1
        n = scheme.dimension
        rng = np.random.default_rng(seed)
        leaders = codebook(scheme.pair)
        cw = leaders[rng.integers(0, len(leaders), size=(t, k1))]
        cw_k = leaders[rng.integers(0, len(leaders), size=t)]
        dithers = draw_dithers(scheme.pair.coarse, rng, t, k1)
        d_k = draw_dithers(scheme.pair.coarse, rng, t)
        noise = (np.zeros((t, k1 + 1, n)) if noiseless
                 else rng.standard_normal((t, k1 + 1, n)))
        flags = rng.random((3, t)) < 0.5

        enc = encode_interferer(scheme, cw, dithers)
        enc_k = encode_user_k(scheme, cw_k, d_k)
        channel = apply_channel(scheme, enc[1], enc_k[1], noise)
        direct, _, y_k = channel
        decoded = decode_direct(scheme, direct, dithers)
        # the dither sum of each row is the same float whatever the batch
        dither_sum = _reduce_axis(np.add, dithers, 1)
        s_hat = decode_mod_sum(scheme, y_k, dither_sum)
        residual = subtract_interference(scheme, y_k, s_hat, dither_sum)
        t_k_hat = decode_user_k(scheme, residual, d_k)
        events = classify_events(*flags)

        for r in range(t):
            row_sum = _reduce_axis(np.add, dithers[r], 0)
            rows = (
                (enc, encode_interferer(scheme, cw[r], dithers[r])),
                (enc_k, encode_user_k(scheme, cw_k[r], d_k[r])),
                (channel, apply_channel(scheme, enc[1][r], enc_k[1][r],
                                        noise[r])),
                ((decoded,), (decode_direct(scheme, direct[r], dithers[r]),)),
                ((s_hat,), (decode_mod_sum(scheme, y_k[r], row_sum),)),
                ((residual,), (subtract_interference(
                    scheme, y_k[r], s_hat[r], row_sum),)),
                ((t_k_hat,), (decode_user_k(scheme, residual[r], d_k[r]),)),
                (events, classify_events(*flags[:, r])),
            )
            for batch, row in rows:
                assert len(batch) == len(row)
                for b, one in zip(batch, row):
                    assert same_bits(b[r], one)

    def test_campaign_and_trial_call_each_stage(self, monkeypatch):
        # the engine runs every stage once per chunk, and run_trial runs
        # the same stages once per trial
        import lsl.simulate
        cfg = SystemConfig(K=4, P=(10, 10, 10, 10), a=(12, 12, 12))
        scheme = Scheme.for_config(cfg, make_cubic_pair(2, 2))
        expected = run_campaign(scheme, 50, 4)
        calls = Counter()

        def counting(name, stage):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return stage(*args, **kwargs)
            return wrapper

        for name in STAGES:
            monkeypatch.setattr(lsl.simulate, name,
                                counting(name, getattr(lsl.simulate, name)))
        # K=4, N=2: eight draws a trial, 16 trials a chunk, four chunks
        monkeypatch.setattr(lsl.simulate, "CHUNK_DRAWS", 128)
        assert run_campaign(scheme, 50, 4) == expected
        assert calls == {name: 4 for name in STAGES}
        calls.clear()
        run_trial(scheme, derive_trial_seed(4, 0))
        assert calls == {name: 1 for name in STAGES}


class TestEvents:
    def test_classification_table(self):
        assert classify_events(True, True, True) == (False, False, False)
        assert classify_events(False, True, True) == (True, False, False)
        # forced wrong mod-sum excludes the trial from e2/e3 accounting
        assert classify_events(False, False, False) == (True, False, False)
        assert classify_events(True, False, False) == (False, True, False)
        assert classify_events(True, True, False) == (False, False, True)

    def test_outcome_rejects_inconsistent_flags(self):
        with pytest.raises(InvariantViolationError):
            TrialOutcome(direct_errors=(False,), e1=True, e2=True, e3=False,
                         effective_noise_power=0.0, residual_power=0.0)
        with pytest.raises(InvariantViolationError):
            TrialOutcome(direct_errors=(False,), e1=True, e2=False, e3=True,
                         effective_noise_power=0.0, residual_power=0.0)

    def test_consistency_across_noisy_trials(self):
        # a low-power config where all three events actually fire
        cfg = SystemConfig(K=3, P=(10, 10, 1.5), a=(0.3, 0.3))
        scheme = Scheme.for_config(cfg, make_cubic_pair(2, 2))
        flags = [run_trial(scheme, derive_trial_seed(55, i))
                 for i in range(2000)]
        assert any(o.e1 for o in flags)
        assert any(o.e3 for o in flags)
        for o in flags:
            assert not (o.e1 and o.e2)
            assert not (o.e3 and (o.e1 or o.e2))

    def test_e2_rate_monotone_in_mu(self):
        pair = make_construction_a_pair(2, 3, [(1, 1, 1)])
        counts = []
        for p_aligned, p_k in ((3.0, 1.5), (4.5, 0.125), (12.0, 0.2)):
            gain = p_aligned / 10.0
            cfg = SystemConfig(K=3, P=(10, 10, p_k), a=(gain, gain))
            rep = run_campaign(Scheme.for_config(cfg, pair), 3000, 2026)
            counts.append(rep.e2_count)
        assert counts[0] > counts[1] > counts[2]


class TestEffectiveNoise:
    def test_matches_mmse_formula(self):
        scheme = default_scheme()
        rep = run_campaign(scheme, 30_000, 1001)
        predicted = mmse_coefficients(scheme.config).effective_noise_var
        assert rep.mean_effective_noise_power == pytest.approx(predicted,
                                                               rel=0.05)


def folded(outcomes):
    """run_trial outcomes folded as a campaign report folds them."""
    return (sum(o.e1 for o in outcomes), sum(o.e2 for o in outcomes),
            sum(o.e3 for o in outcomes),
            tuple(int(sum(errors)) for errors in
                  zip(*(o.direct_errors for o in outcomes))),
            float(np.mean([o.effective_noise_power for o in outcomes])),
            float(np.mean([o.residual_power for o in outcomes])))


def summary(report):
    return (report.e1_count, report.e2_count, report.e3_count,
            report.direct_error_counts, report.mean_effective_noise_power,
            report.mean_residual_power)


class TestReproducibility:
    def test_seed_derivation_is_sha256(self):
        # a seed in [0, 2^64) is the key; any other is hashed once, the
        # key then being the first 8 bytes of its SHA-256
        assert derive_trial_seed(77, 3) == (77, 3)
        assert derive_trial_seed(2**64 - 1, 0) == (2**64 - 1, 0)
        for master in (-5, 2**64, 2**70):
            digest = hashlib.sha256(str(master).encode()).digest()
            assert derive_trial_seed(master, 9) == (
                int.from_bytes(digest[:8], "big"), 9)
        assert len({derive_trial_seed(m, 0) for m in range(-500, 500)}) \
            == 1000
        for index in (-1, 2**64):
            with pytest.raises(ValueError):
                derive_trial_seed(1, index)

    def test_same_master_seed_same_report(self):
        scheme = default_scheme()
        a = run_campaign(scheme, 800, 5)
        b = run_campaign(scheme, 800, 5)
        assert a == b

    def test_campaign_matches_reference_trials(self):
        # the vectorized engine must reproduce run_trial bit for bit, on
        # cubic and Construction-A pairs alike, composite q included
        # cubic pairs past the q^N <= 2^16 a codebook would allow too
        wrap = coded_wrap_scheme()
        for scheme in (default_scheme(q=2, dim=2), default_scheme(q=3, dim=3),
                       default_scheme(q=2, dim=17),
                       default_scheme(q=2, dim=64),
                       coded_benchmark_scheme(), wrap, composite_scheme(),
                       *unequal_schemes()):
            outcomes = [run_trial(scheme, derive_trial_seed(31, i))
                        for i in range(400)]
            rep = run_campaign(scheme, 400, 31)
            if scheme is wrap:
                assert rep.e2_count > 0
            assert summary(rep) == folded(outcomes)

    def test_noiseless_campaign_all_clean(self, monkeypatch):
        # the campaign engine with its channel normals zeroed: no trial
        # has an event or a direct-link error
        import lsl.simulate
        draws = lsl.simulate._codeword_draws

        def noiseless_draws(*args):
            codewords, uniforms, noise = draws(*args)
            return codewords, uniforms, np.zeros_like(noise)

        monkeypatch.setattr(lsl.simulate, "_codeword_draws", noiseless_draws)
        for scheme in (default_scheme(), coded_benchmark_scheme()):
            rep = run_campaign(scheme, 300, 77)
            assert rep.e1_count == rep.e2_count == rep.e3_count == 0
            assert rep.direct_error_counts == (0, 0)

    def test_chunks_run_in_trial_order(self, monkeypatch):
        import lsl.simulate
        scheme = default_scheme()
        expected = run_campaign(scheme, 50, 4)
        seen = []
        engine = lsl.simulate._batch_trial_arrays

        def recording_engine(scheme, key, lo, hi):
            seen.append((key, lo, hi))
            return engine(scheme, key, lo, hi)

        # K=3, N=2: six draws a trial, 16 trials a chunk
        monkeypatch.setattr(lsl.simulate, "CHUNK_DRAWS", 96)
        monkeypatch.setattr(lsl.simulate, "_batch_trial_arrays",
                            recording_engine)
        assert run_campaign(scheme, 50, 4) == expected
        assert seen == [(4, 0, 12), (4, 12, 25), (4, 25, 37), (4, 37, 50)]

    def test_chunk_seeds_are_derive_trial_seed(self, monkeypatch):
        # every chunk draws under derive_trial_seed's key, hashed or not,
        # so the campaign folds run_trial's outcomes at those seeds
        import lsl.simulate
        scheme = default_scheme()
        keys = []
        engine = lsl.simulate._batch_trial_arrays

        def recording_engine(scheme, key, lo, hi):
            keys.append(key)
            return engine(scheme, key, lo, hi)

        monkeypatch.setattr(lsl.simulate, "CHUNK_DRAWS", 96)
        monkeypatch.setattr(lsl.simulate, "_batch_trial_arrays",
                            recording_engine)
        for master in (0, 31, -5, 2**70):
            keys.clear()
            rep = run_campaign(scheme, 40, master)
            assert set(keys) == {derive_trial_seed(master, 0)[0]}
            assert summary(rep) == folded(
                [run_trial(scheme, derive_trial_seed(master, i))
                 for i in range(40)])

    def test_chunk_count_is_trials_over_block(self, monkeypatch):
        import lsl.simulate
        scheme = default_scheme()
        block = lsl.simulate.CHUNK_DRAWS // 6  # K=3, N=2
        cases = ((3, [3]), (block, [block]),
                 (block + 1, [(block + 1) // 2, (block + 2) // 2]))
        expected = [run_campaign(scheme, trials, 12) for trials, _ in cases]
        sizes = []
        engine = lsl.simulate._batch_trial_arrays

        def recording_engine(scheme, key, lo, hi):
            sizes.append(hi - lo)
            return engine(scheme, key, lo, hi)

        monkeypatch.setattr(lsl.simulate, "_batch_trial_arrays",
                            recording_engine)
        for (trials, chunks), report in zip(cases, expected):
            sizes.clear()
            assert run_campaign(scheme, trials, 12) == report
            assert sizes == chunks

    def test_report_is_independent_of_block_size(self, monkeypatch):
        import lsl.simulate
        schemes = (default_scheme(), coded_benchmark_scheme())
        expected = [run_campaign(scheme, 50, 4) for scheme in schemes]
        sizes = []
        engine = lsl.simulate._batch_trial_arrays

        def recording_engine(scheme, key, lo, hi):
            sizes.append(hi - lo)
            return engine(scheme, key, lo, hi)

        # at most 7 trials a chunk for K=3, N=2; at most 3 for K=3, N=4
        monkeypatch.setattr(lsl.simulate, "CHUNK_DRAWS", 47)
        monkeypatch.setattr(lsl.simulate, "_batch_trial_arrays",
                            recording_engine)
        for scheme, report, rows in zip(schemes, expected, (7, 3)):
            sizes.clear()
            assert run_campaign(scheme, 50, 4) == report
            assert sum(sizes) == 50 and max(sizes) <= rows

    @pytest.mark.parametrize("k", [9, 12])
    def test_one_dimensional_campaign_matches_reference_trials(
            self, k, monkeypatch):
        # at N = 1 a trial's users lie side by side, where np.sum adds a
        # run of 8 or more pairwise: the engine's chunks, 1 to 300 trials,
        # and run_trial's single rows must still add them in one order
        import lsl.simulate
        cfg = SystemConfig(K=k, P=(10,) * k, a=(12,) * (k - 1))
        scheme = Scheme.for_config(cfg, make_cubic_pair(5, 1))
        report = run_campaign(scheme, 300, 31)
        assert summary(report) == folded(
            [run_trial(scheme, derive_trial_seed(31, i)) for i in range(300)])
        for rows in (1, 7, 8):
            monkeypatch.setattr(lsl.simulate, "CHUNK_DRAWS", rows * k)
            assert run_campaign(scheme, 300, 31) == report

    def test_codebook_is_built_once_per_coded_scheme(self, monkeypatch):
        # a Construction-A scheme looks its codewords up in the one array
        # its pair was built with: a campaign builds no lattice, so no
        # code, whatever its chunks
        import lsl.lattices
        import lsl.simulate
        schemes = coded_benchmark_scheme(), default_scheme()
        built = []
        init = lsl.lattices.Lattice.__post_init__

        def recording_init(lat):
            built.append(lat.family)
            init(lat)

        monkeypatch.setattr(lsl.lattices.Lattice, "__post_init__",
                            recording_init)
        # K=3: four chunks of two or three trials at N=4, three of six
        # at N=2
        monkeypatch.setattr(lsl.simulate, "CHUNK_DRAWS", 36)
        chunks = []
        engine = lsl.simulate._batch_trial_arrays

        def recording_engine(scheme, key, lo, hi):
            chunks.append(hi - lo)
            return engine(scheme, key, lo, hi)

        monkeypatch.setattr(lsl.simulate, "_batch_trial_arrays",
                            recording_engine)
        for scheme, trials in zip(schemes, (10, 18)):
            run_campaign(scheme, trials, 3)
        assert built == []
        assert chunks == [2, 3, 2, 3, 6, 6, 6]

    def test_cubic_scheme_allocates_no_codebook(self):
        # q=2, N=64: 2^64 codewords, read off their digits as drawn
        import tracemalloc
        cfg = SystemConfig(K=3, P=(10, 10, 10), a=(12, 12))
        pair = make_cubic_pair(2, 64)
        tracemalloc.start()
        try:
            Scheme.for_config(cfg, pair)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            run_campaign(default_scheme(), 0, 1)

    def test_default_campaign_wall_time(self):
        import time
        scheme = default_scheme()
        start = time.perf_counter()
        run_campaign(scheme, 10_000, 1)
        assert time.perf_counter() - start < 10.0


M32 = 2**32 - 1


def reference_block(key, counter):
    """Philox4x32-10 in Python integers, as Random123 writes it."""
    c, k = list(counter), [key & M32, key >> 32]
    for _ in range(10):
        p0, p1 = 0xD2511F53 * c[0], 0xCD9E8D57 * c[2]
        c = [(p1 >> 32) ^ c[1] ^ k[0], p1 & M32,
             (p0 >> 32) ^ c[3] ^ k[1], p0 & M32]
        k = [(k[0] + 0x9E3779B9) & M32, (k[1] + 0xBB67AE85) & M32]
    return c


def reference_draws(key, trial, q, digits, users, n):
    """One trial's draws by draw contract v2, a word at a time.  Returns
    the digits, uniforms and normals as flat lists, and the number of
    rejected digit words."""
    def block(b):
        return reference_block(key, (trial & M32, trial >> 32, b, 0))

    draws = users * n
    size, pairs = users * digits, (draws + 1) // 2
    end = size + 2 * draws + 4 * pairs
    blocks = -(-end // 4)
    words = [w for b in range(blocks) for w in block(b)]
    spare = itertools.count(blocks)
    coded, rejected = [], 0
    for w in words[:size]:
        while w * q % 2**32 < 2**32 % q:
            w = block(next(spare))[0]
            rejected += 1
        coded.append(w * q >> 32)
    rest = iter(words[size:end])
    uniforms = [((a << 32 | b) >> 11) / 2**53 for a, b in zip(rest, rest)]
    normals = []
    for u, v in zip(uniforms[draws::2], uniforms[draws + 1::2]):
        r = math.sqrt(-2.0 * math.log(1.0 - u))
        normals += [r * math.cos(2.0 * math.pi * v),
                    r * math.sin(2.0 * math.pi * v)]
    return coded, uniforms[:draws], normals[:draws], rejected


def assert_matches_reference(got, key, lo, q, digits, users, n):
    """``_draws`` output rows equal the reference: digits and uniforms
    bit for bit, normals to libm's last bits (numpy's SIMD log, cos and
    sin may differ from ``math``'s in the last ulp)."""
    coded, uniforms, normals = got
    rejected = 0
    for r in range(len(coded)):
        want = reference_draws(key, lo + r, q, digits, users, n)
        assert coded[r].ravel().tolist() == want[0]
        assert uniforms[r].ravel().tolist() == want[1]
        assert normals[r].ravel() == pytest.approx(want[2], rel=1e-13,
                                                  abs=1e-13)
        rejected += want[3]
    return rejected



class TestReplayDraws:
    def test_seed_words_of_a_batch_are_its_rows(self):
        # the engine replays run_trial on a whole chunk: the words a
        # batch of trial seeds (key, i) reads are, row for row, the words
        # each seed reads alone, counter (i lo32, i hi32, b, 0), at edge
        # keys and at indices that carry into the high word
        keys = (0, 2**64 - 1, derive_trial_seed(-5, 0)[0],
                derive_trial_seed(2**70, 0)[0])
        trials = np.array([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1],
                          dtype=np.uint64)
        blocks = np.arange(5, dtype=np.uint64)
        for key in keys:
            batch = _trial_blocks(key, trials[:, None], blocks)
            assert batch.shape == (len(trials), len(blocks), 4)
            for trial, row in zip(trials.tolist(), batch):
                assert np.array_equal(
                    row, _trial_blocks(key, np.uint64(trial), blocks))
                for b in range(len(blocks)):
                    assert row[b].tolist() == reference_block(
                        key, (trial & M32, trial >> 32, b, 0))

KEYS = st.integers(0, 2**64 - 1)
# Beyond a codebook's q: Lemire rejects a word in four at 3 * 2^30 and
# about one in two at 2^31 + 1; 2^32 - 1 and 2^32 - 5 are the widest.
MODULI = st.one_of(st.integers(2, 70_000), st.sampled_from(
    [3 * 2**30, 2**31 + 1, 2**32 - 1, 2**32 - 5]))


class TestDrawContract:
    def test_philox_known_answers(self):
        # Random123's kat_vectors for philox4x32_10
        zero, ones = np.uint64(0), np.uint64(M32)
        assert _philox(0, (zero,) * 4).tolist() == [
            0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8]
        assert _philox(2**64 - 1, (ones,) * 4).tolist() == [
            0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD]

    def test_trial_zero_known_answer(self):
        # master seed 1, the default K=3, q=2, N=2: a refactor that moves
        # any word of the contract changes these values
        coded, uniforms, normals = _draws(1, 0, 1, 2, 2, 3, 2)
        assert coded.tolist() == [[[1, 1], [1, 1], [0, 0]]]
        assert uniforms.tolist() == [[
            [0.2227945503378902, 0.9031374937739463],
            [0.246201945012256, 0.5386304407992616],
            [0.9252429192439334, 0.7312214599084481]]]
        assert normals.ravel() == pytest.approx([
            0.7993150090979413, -0.5455744755577904, -0.6106613099758358,
            1.004207046568105, 0.9885038189783074, 0.21927418353387618],
            rel=1e-13)
        assert_matches_reference((coded, uniforms, normals), 1, 0, 2, 2, 3, 2)

    @settings(max_examples=150, deadline=None)
    @given(KEYS, st.integers(0, 2**64 - 41), st.integers(0, 8),
           st.integers(1, 12), st.integers(0, 12), MODULI,
           st.integers(1, 3), st.integers(1, 4), st.integers(1, 5))
    @example(2**64 - 1, 2**32 - 3, 1, 2, 30, 3 * 2**30, 2, 3, 3)
    def test_a_range_is_the_rows_of_any_enclosing_range(
            self, key, start, before, rows, after, q, digits, users, n):
        lo, hi = start + before, start + before + rows
        got = _draws(key, lo, hi, q, digits, users, n)
        wide = _draws(key, start, hi + after, q, digits, users, n)
        for part, whole in zip(got, wide):
            assert same_bits(part, whole[before:before + rows])
        coded, uniforms, normals = got
        assert coded.dtype == np.int64
        assert coded.shape == (rows, users, digits)
        assert uniforms.shape == normals.shape == (rows, users, n)
        assert np.all((0 <= coded) & (coded < q))
        assert np.all((0.0 <= uniforms) & (uniforms < 1.0))
        assert np.all(np.isfinite(normals))
        assert_matches_reference(got, key, lo, q, digits, users, n)

    def test_rejected_digits_redraw_from_the_next_blocks(self):
        # at q = 3 * 2^30 Lemire rejects a word in four, so about 90 of
        # these 360 digits redraw, some rows several times
        key, q = 2026, 3 * 2**30
        got = _draws(key, 0, 40, q, 3, 3, 2)
        assert assert_matches_reference(got, key, 0, q, 3, 3, 2) > 40

    def test_committed_trial_takes_the_rejection_path(self):
        # found by search: under key 7, trial 27328 of a K=3 cubic
        # campaign at q=65175, N=1 (2^32 mod q = 65146) rejects the word
        # of its second digit; the engine still equals run_trial there
        key, trial, q = 7, 27328, 65175
        want = reference_draws(key, trial, q, 1, 3, 1)
        assert want[3] == 1
        assert_matches_reference(_draws(key, trial, trial + 1, q, 1, 3, 1),
                                 key, trial, q, 1, 3, 1)
        cfg = SystemConfig(K=3, P=(10, 10, 10), a=(12, 12))
        scheme = Scheme.for_config(cfg, make_cubic_pair(q, 1))
        part = _batch_trial_arrays(scheme, key, trial - 5, trial + 5)
        outcomes = [run_trial(scheme, (key, i))
                    for i in range(trial - 5, trial + 5)]
        assert part["e1"].tolist() == [o.e1 for o in outcomes]
        assert part["eff_power"].tolist() == [o.effective_noise_power
                                              for o in outcomes]

    def test_draws_follow_their_laws(self):
        # 60,000 digits mod 5, uniforms and normals of one key
        coded, uniforms, normals = _draws(11, 0, 10_000, 5, 2, 3, 2)
        assert stats.chisquare(np.bincount(coded.ravel())).pvalue > 1e-3
        assert stats.kstest(uniforms.ravel(), "uniform").pvalue > 1e-3
        assert stats.kstest(normals.ravel(), "norm").pvalue > 1e-3

    def test_digits_index_the_leaders(self):
        # a drawn codeword is the leader (codebook row) at its digits'
        # mixed-radix value, most significant first: a cubic pair reads
        # it off the digits with no table, a Construction-A pair looks it up
        import lsl.simulate
        cubic = ((2, 2), (3, 3), (4, 5), (5, 2), (2, 16), (65175, 1))
        for scheme in (*(default_scheme(q, n) for q, n in cubic),
                       coded_benchmark_scheme(), composite_scheme()):
            q = scheme.pair.q
            leaders = codebook(scheme.pair)
            d = round(math.log(len(leaders), q))
            assert q ** d == len(leaders)
            codewords = lsl.simulate._codeword_draws(scheme, 5, 0, 3000)[0]
            digits = _draws(5, 0, 3000, q, d, scheme.config.K,
                            scheme.dimension)[0]
            assert codewords.dtype == np.int64
            assert np.array_equal(codewords, leaders[np.ravel_multi_index(
                np.moveaxis(digits, -1, 0), (q,) * d)])


#: ROADMAP item 1's eight cubic configs, (K, P, a, q, N, master seed),
#: with the counts (e1, e2, e3, direct links) that draw contract v1 gave
#: at 100,000 trials, run at the commit before v2.
V1_CAMPAIGNS = (
    ((3, (10, 10, 10), (12, 12), 2, 2, 101), (1, 0, 810, (790, 808))),
    ((3, (5, 5, 0.5), (1, 1), 3, 2, 102),
     (45563, 0, 44155, (28855, 29055))),
    ((4, (3, 3, 3, 1), (1, 1, 1), 2, 1, 103),
     (25133, 47, 19821, (8318, 8276, 8347))),
    ((5, (4, 4, 4, 4, 1), (1, 1, 1, 1), 3, 2, 104),
     (64094, 1, 26999, (35565, 35745, 35814, 35986))),
    ((5, (8, 8, 8, 8, 2), (1.5, 1.5, 1.5, 1.5), 2, 3, 105),
     (18665, 0, 29125, (2711, 2695, 2711, 2845))),
    ((4, (2, 2, 2, 0.8), (1, 1, 1), 4, 1, 106),
     (61070, 21, 24962, (45922, 45994, 46302))),
    ((3, (2.1, 2.1, 1), (1, 1), 2, 2, 107),
     (49632, 1529, 22268, (23973, 23882))),
    ((4, (3.15, 3.15, 3.15, 2), (1, 1, 1), 2, 2, 108),
     (54549, 688, 13250, (14983, 14966, 14953))),
)
#: Two-sample |z| bound, fixed before the first v2 run.
V1_Z_BOUND = 5.0


def two_sample_z(a: int, b: int, trials: int) -> float:
    """Pooled two-proportion z of counts a and b, each of ``trials``."""
    pooled = (a + b) / (2 * trials)
    if pooled in (0.0, 1.0):
        return 0.0
    return (a - b) / math.sqrt(2 * trials * pooled * (1 - pooled))


def test_counts_agree_with_draw_contract_v1():
    # v2 draws other numbers from the same distributions: every event
    # and direct-link count stays within the fixed |z| bound of v1's
    # count at the same config, until an exact oracle replaces v1's
    for (k, p, a, q, n, seed), v1 in V1_CAMPAIGNS:
        scheme = Scheme.for_config(SystemConfig(K=k, P=p, a=a),
                                   make_cubic_pair(q, n))
        rep = run_campaign(scheme, 100_000, seed)
        v2 = (rep.e1_count, rep.e2_count, rep.e3_count,
              *rep.direct_error_counts)
        for old, new in zip((*v1[:3], *v1[3]), v2):
            assert abs(two_sample_z(old, new, 100_000)) <= V1_Z_BOUND, (
                k, p, q, n, seed, v1, v2)


class TestWilson:
    def test_basic_properties(self):
        lo, hi = wilson_interval(50, 100)
        assert 0.4 < lo < 0.5 < hi < 0.6
        lo0, hi0 = wilson_interval(0, 100)
        assert lo0 == pytest.approx(0.0, abs=1e-12)
        assert 0 < hi0 < 0.05
        lo1, hi1 = wilson_interval(100, 100)
        assert hi1 == pytest.approx(1.0, abs=1e-12)

    def test_contains_truth_mostly(self):
        rng = np.random.default_rng(13)
        p = 0.2
        cover = 0
        for _ in range(400):
            count = rng.binomial(500, p)
            lo, hi = wilson_interval(count, 500)
            cover += lo <= p <= hi
        assert cover / 400 > 0.9

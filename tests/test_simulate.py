"""Monte Carlo pipeline: encoding, channel, three-stage decoding, events."""

import functools
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lsl.errors import InvariantViolationError
from lsl.lattices import (
    codebook,
    in_voronoi,
    make_construction_a_pair,
    make_cubic_pair,
    mod_lattice,
)
from lsl.rates import SystemConfig, mmse_coefficients
from lsl.simulate import (
    Scheme,
    _pcg64_seed_state,
    _pcg64_words,
    _replay_draws,
    _row_draws,
    _seed_words,
    _table_normals,
    _trial_seeds,
    _ziggurat,
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
        origin = np.flatnonzero(~scheme.leaders.any(axis=1))[0]
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
        _, x = encode_interferer(scheme, np.full((20_000, 2), 3), dithers)
        powers = np.sum(x ** 2, axis=-1) / n
        for user in (1, 2):
            target = scheme.aligned_power / scheme.config.a[user - 1]
            assert np.mean(powers[:, user - 1]) == pytest.approx(target,
                                                                 rel=0.01)
            assert target <= scheme.config.P[user - 1] + 1e-12
        d_k = draw_dithers(scheme.pair.coarse, rng, 20_000)
        _, x_k = encode_user_k(scheme, np.ones(20_000, dtype=int), d_k)
        powers_k = np.sum(x_k ** 2, axis=-1) / n
        assert np.mean(powers_k) == pytest.approx(scheme.config.p_k, rel=0.01)

    def test_alignment_exact_algebra(self):
        # every interferer arrives at receiver K with amplitude sqrt(P)
        scheme = default_scheme()
        pair = scheme.pair
        rng = np.random.default_rng(7)
        d = draw_dithers(pair.coarse, rng, 2)
        u, x = encode_interferer(scheme, [2, 2], d)
        for user in (1, 2):
            expected_u = mod_lattice(
                pair.coarse, embed(pair, scheme.leaders[2])
                + d[user - 1])
            assert np.array_equal(u[user - 1], expected_u)
            arrived = math.sqrt(scheme.config.a[user - 1]) * x[user - 1]
            assert np.allclose(
                arrived, math.sqrt(scheme.aligned_power) * expected_u,
                rtol=1e-12)

    def test_rejects_index_or_user_out_of_range(self):
        scheme = default_scheme()
        m = len(scheme.leaders)
        for bad in ([0, m], [-1, 0], [[0, 1], [2, m + 5]]):
            with pytest.raises(ValueError):
                encode_interferer(scheme, bad, np.zeros(np.shape(bad) + (2,)))
        for bad in (len(scheme.leaders), -1, [0, -2]):
            with pytest.raises(ValueError):
                encode_user_k(scheme, bad, np.zeros(np.shape(bad) + (2,)))
        # the user axis must hold all K-1 = 2 links: a length-1 axis
        # would otherwise broadcast the first user's constants silently
        for direct, dithers in (((1, 2), (1, 2)), ((3, 2), (3, 2)),
                                ((2,), (2,)), ((5, 1, 2), (5, 2, 2)),
                                ((5, 2, 2), (5, 1, 2))):
            with pytest.raises(ValueError):
                decode_direct(scheme, np.zeros(direct), np.zeros(dithers))
        for index, dithers in (((1,), (1, 2)), ((3,), (3, 2)), ((), (2,)),
                               ((2,), (1, 2)), ((5, 1), (5, 1, 2)),
                               ((5, 2), (5, 1, 2)), ((5, 1), (5, 2, 2))):
            with pytest.raises(ValueError):
                encode_interferer(scheme, np.zeros(index, np.int64),
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
        for scheme in (default_scheme(q=3, dim=2), coded_benchmark_scheme()):
            assert scheme.leaders.dtype == np.int64
            assert not scheme.leaders.flags.writeable
            assert np.array_equal(scheme.leaders, codebook(scheme.pair))


class TestChannel:
    def test_noiseless_identity(self):
        scheme = default_scheme()
        pair = scheme.pair
        rng = np.random.default_rng(3)
        idx = [1, 3]
        dithers = draw_dithers(pair.coarse, rng, 2)
        _, signals = encode_interferer(scheme, idx, dithers)
        d_k = draw_dithers(scheme.pair.coarse, rng)
        _, signal_k = encode_user_k(scheme, 2, d_k)
        direct, _, y_k = apply_channel(scheme, signals, signal_k,
                                       np.zeros((3, 2)))
        for x, y in zip(signals, direct):
            assert np.array_equal(x, y)
        us = [mod_lattice(pair.coarse,
                          embed(pair, scheme.leaders[i]) + d)
              for i, d in zip(idx, dithers)]
        u_k = mod_lattice(scheme.pair.coarse,
                          embed(scheme.pair, scheme.leaders[2])
                          + d_k)
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
            leaders = scheme.leaders
            rng = np.random.default_rng(5)
            combos = np.array(list(itertools.product(
                range(len(leaders)), range(len(leaders)),
                range(len(scheme.leaders)))))
            idx, idx_k = combos[:, :2], combos[:, 2]
            # per combo: both interferer dithers, then user K's
            drawn = draw_dithers(pair.coarse, rng, len(combos), 3)
            dithers, d_k = drawn[:, :2], drawn[:, 2]
            _, signals = encode_interferer(scheme, idx, dithers)
            _, signal_k = encode_user_k(scheme, idx_k, d_k)
            direct, _, y_k = apply_channel(
                scheme, signals, signal_k,
                np.zeros((len(combos), 3, scheme.dimension)))
            assert np.array_equal(decode_direct(scheme, direct, dithers),
                                  leaders[idx])
            s_hat = decode_mod_sum(scheme, y_k, dithers)
            for row, (t1, t2) in zip(s_hat, idx):
                assert np.array_equal(row,
                                      pair.reduce(leaders[t1] + leaders[t2]))
            residual = subtract_interference(scheme, y_k, s_hat, dithers)
            assert np.array_equal(decode_user_k(scheme, residual, d_k),
                                  scheme.leaders[idx_k])

    def test_mod_sum_collapse_with_unit_alpha(self):
        # zero dither, zero noise, silent user K: folding y_K/sqrt(P)
        # directly (alpha = 1) returns the folded codeword sum exactly
        scheme = default_scheme(q=2, dim=2)
        pair = scheme.pair
        leaders = scheme.leaders
        for t1 in range(2):
            for t2 in range(2, len(leaders)):
                _, signals = encode_interferer(scheme, [t1, t2],
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
        leaders = scheme.leaders
        rng = np.random.default_rng(8)
        hits = 0
        for _ in range(200):
            idx = rng.integers(0, 4, size=2)
            t_k = rng.integers(0, 4)
            dithers = draw_dithers(pair.coarse, rng, 2)
            d_k = draw_dithers(scheme.pair.coarse, rng)
            _, signals = encode_interferer(scheme, idx, dithers)
            _, signal_k = encode_user_k(scheme, t_k, d_k)
            noise = rng.standard_normal((3, 2))
            _, _, y_k = apply_channel(scheme, signals, signal_k, noise)
            s_hat = decode_mod_sum(scheme, y_k, dithers)
            s_true = pair.reduce(leaders[idx[0]] + leaders[idx[1]])
            if not np.array_equal(s_hat, s_true):
                continue
            u_k = mod_lattice(scheme.pair.coarse,
                              embed(scheme.pair,
                                    scheme.leaders[t_k]) + d_k)
            z_k = y_k - math.sqrt(scheme.config.a[0]) * signals[0] \
                - math.sqrt(scheme.config.a[1]) * signals[1] - signal_k
            unwrapped = scheme.gamma * u_k \
                + z_k / math.sqrt(scheme.aligned_power)
            residual = subtract_interference(scheme, y_k, s_hat, dithers)
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
        idx = rng.integers(0, len(scheme.leaders), size=(t, k1))
        idx_k = rng.integers(0, len(scheme.leaders), size=t)
        dithers = draw_dithers(scheme.pair.coarse, rng, t, k1)
        d_k = draw_dithers(scheme.pair.coarse, rng, t)
        noise = (np.zeros((t, k1 + 1, n)) if noiseless
                 else rng.standard_normal((t, k1 + 1, n)))
        flags = rng.random((3, t)) < 0.5

        enc = encode_interferer(scheme, idx, dithers)
        enc_k = encode_user_k(scheme, idx_k, d_k)
        channel = apply_channel(scheme, enc[1], enc_k[1], noise)
        direct, _, y_k = channel
        decoded = decode_direct(scheme, direct, dithers)
        s_hat = decode_mod_sum(scheme, y_k, dithers)
        residual = subtract_interference(scheme, y_k, s_hat, dithers)
        t_k_hat = decode_user_k(scheme, residual, d_k)
        events = classify_events(*flags)

        for r in range(t):
            rows = (
                (enc, encode_interferer(scheme, idx[r], dithers[r])),
                (enc_k, encode_user_k(scheme, idx_k[r], d_k[r])),
                (channel, apply_channel(scheme, enc[1][r], enc_k[1][r],
                                        noise[r])),
                ((decoded,), (decode_direct(scheme, direct[r], dithers[r]),)),
                ((s_hat,), (decode_mod_sum(scheme, y_k[r], dithers[r]),)),
                ((residual,), (subtract_interference(
                    scheme, y_k[r], s_hat[r], dithers[r]),)),
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


class TestReproducibility:
    def test_seed_derivation_is_sha256(self):
        import hashlib
        digest = hashlib.sha256(b"77:3").digest()
        assert derive_trial_seed(77, 3) == int.from_bytes(digest[:8], "big")
        seeds = {derive_trial_seed(1, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_same_master_seed_same_report(self):
        scheme = default_scheme()
        a = run_campaign(scheme, 800, 5)
        b = run_campaign(scheme, 800, 5)
        assert a == b

    def test_campaign_matches_reference_trials(self):
        # the vectorized engine must reproduce run_trial bit for bit, on
        # cubic and Construction-A pairs alike, composite q included
        wrap = coded_wrap_scheme()
        for scheme in (default_scheme(q=2, dim=2), default_scheme(q=3, dim=3),
                       coded_benchmark_scheme(), wrap, composite_scheme(),
                       *unequal_schemes()):
            seeds = [derive_trial_seed(31, i) for i in range(400)]
            outcomes = [run_trial(scheme, s) for s in seeds]
            rep = run_campaign(scheme, 400, 31)
            if scheme is wrap:
                assert rep.e2_count > 0
            assert rep.e1_count == sum(o.e1 for o in outcomes)
            assert rep.e2_count == sum(o.e2 for o in outcomes)
            assert rep.e3_count == sum(o.e3 for o in outcomes)
            assert rep.direct_error_counts == tuple(
                sum(o.direct_errors[j] for o in outcomes)
                for j in range(scheme.config.K - 1))
            assert rep.mean_effective_noise_power == float(
                np.mean([o.effective_noise_power for o in outcomes]))
            assert rep.mean_residual_power == float(
                np.mean([o.residual_power for o in outcomes]))

    def test_noiseless_campaign_all_clean(self, monkeypatch):
        # the campaign engine with its channel normals zeroed: no trial
        # has an event or a direct-link error
        import lsl.simulate
        replay = lsl.simulate._replay_draws

        def noiseless_replay(*args):
            idx, uniforms, noise = replay(*args)
            return idx, uniforms, np.zeros_like(noise)

        monkeypatch.setattr(lsl.simulate, "_replay_draws", noiseless_replay)
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

        def recording_engine(scheme, seeds):
            seen.append(list(seeds))
            return engine(scheme, seeds)

        # K=3, N=2: six draws a trial, 16 trials a chunk
        monkeypatch.setattr(lsl.simulate, "CHUNK_DRAWS", 96)
        monkeypatch.setattr(lsl.simulate, "_batch_trial_arrays",
                            recording_engine)
        assert run_campaign(scheme, 50, 4) == expected
        assert [len(c) for c in seen] == [12, 13, 12, 13]
        assert sum(seen, []) == [derive_trial_seed(4, i) for i in range(50)]

    def test_chunk_count_is_trials_over_block(self, monkeypatch):
        import lsl.simulate
        scheme = default_scheme()
        block = lsl.simulate.CHUNK_DRAWS // 6  # K=3, N=2
        cases = ((3, [3]), (block, [block]),
                 (block + 1, [(block + 1) // 2, (block + 2) // 2]))
        expected = [run_campaign(scheme, trials, 12) for trials, _ in cases]
        sizes = []
        engine = lsl.simulate._batch_trial_arrays

        def recording_engine(scheme, seeds):
            sizes.append(len(seeds))
            return engine(scheme, seeds)

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

        def recording_engine(scheme, seeds):
            sizes.append(len(seeds))
            return engine(scheme, seeds)

        # at most 7 trials a chunk for K=3, N=2; at most 3 for K=3, N=4
        monkeypatch.setattr(lsl.simulate, "CHUNK_DRAWS", 47)
        monkeypatch.setattr(lsl.simulate, "_batch_trial_arrays",
                            recording_engine)
        for scheme, report, rows in zip(schemes, expected, (7, 3)):
            sizes.clear()
            assert run_campaign(scheme, 50, 4) == report
            assert sum(sizes) == 50 and max(sizes) <= rows

    def test_chunk_seeds_are_derive_trial_seed(self):
        for master in (0, 31, -5, 2**70):
            seeds = _trial_seeds(master, 990, 1010)
            assert seeds.dtype == np.uint64
            assert seeds.tolist() == [derive_trial_seed(master, i)
                                      for i in range(990, 1010)]

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            run_campaign(default_scheme(), 0, 1)

    def test_default_campaign_wall_time(self):
        import time
        scheme = default_scheme()
        start = time.perf_counter()
        run_campaign(scheme, 10_000, 1)
        assert time.perf_counter() - start < 10.0


EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)
UINT64_SEEDS = st.integers(min_value=0, max_value=2**64 - 1)


def with_edge_seeds(test):
    for seed in EDGE_SEEDS:
        test = example(seed)(test)
    return test


def literal_draws(seed, m, k1, n):
    """run_trial's default_rng call sequence, spelled out."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, m, size=k1)
    idx_k = rng.integers(0, m)
    uniforms = [rng.random(n) for _ in range(k1 + 1)]
    noise = [rng.standard_normal(n) for _ in range(k1 + 1)]
    return idx, idx_k, uniforms, noise


def pcg64_arrays(state: int, inc: int):
    """A 128-bit PCG64 state and increment as one row of uint64 words."""
    low = 2**64 - 1
    return tuple(np.array([word], dtype=np.uint64)
                 for word in (state >> 64, state & low, inc >> 64, inc & low))


def pcg64_ints(arrays) -> dict:
    """The first row of (hi, lo, inc_hi, inc_lo) words as numpy's state."""
    hi, lo, inc_hi, inc_lo = (int(a[0]) for a in arrays)
    return {"state": (hi << 64) | lo, "inc": (inc_hi << 64) | inc_lo}


class TestReplayDraws:
    @settings(max_examples=300, deadline=None)
    @given(UINT64_SEEDS)
    @with_edge_seeds
    def test_seed_words_match_seed_sequence(self, seed):
        expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        got = _seed_words([seed])
        assert got.dtype == np.uint64 and got.shape == (1, 4)
        assert np.array_equal(got[0], expected)

    def test_seed_words_of_a_batch_are_its_rows(self):
        seeds = list(EDGE_SEEDS) + [derive_trial_seed(3, i) for i in range(20)]
        batch = _seed_words(seeds)
        for seed, row in zip(seeds, batch):
            assert np.array_equal(row, _seed_words([seed])[0])

    @settings(max_examples=300, deadline=None)
    @given(UINT64_SEEDS)
    @with_edge_seeds
    def test_pcg64_state_matches_numpy(self, seed):
        # the seeded state, and the words and state after a K=3, N=2
        # chunk's indices and uniforms, and after its normals too
        state = _pcg64_seed_state([seed])
        assert pcg64_ints(state) == np.random.PCG64(seed).state["state"]
        for count in (2 + 6, 2 + 6 * 2):
            bit_gen = np.random.PCG64(seed)
            words, after = _pcg64_words(state, count)
            assert words.tolist() == [bit_gen.random_raw(count).tolist()]
            assert pcg64_ints(after) == bit_gen.state["state"]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**128 - 1),
           st.integers(0, 2**127 - 1).map(lambda x: 2 * x + 1))
    @example(2**64 - 1, 1)
    @example(2**64 - 1, 2**128 - 1)
    @example(2**128 - 1, 2**128 - 1)
    @example(0, 2**128 - 1)
    def test_pcg64_step_matches_random_raw(self, state, inc):
        # numpy uint64 (hi, lo) arithmetic against numpy's own PCG64, at
        # any 128-bit state and odd increment, carry edges included
        bit_gen = np.random.PCG64(0)
        bit_gen.state = {"bit_generator": "PCG64",
                         "state": {"state": state, "inc": inc},
                         "has_uint32": 0, "uinteger": 0}
        words, after = _pcg64_words(pcg64_arrays(state, inc), 5)
        assert words.tolist() == [bit_gen.random_raw(5).tolist()]
        assert pcg64_ints(after) == bit_gen.state["state"]

    # failed_tables: the ziggurat read-off failed its self-check, so that
    # every stepped row redraws its normals on the per-row path
    @pytest.mark.parametrize("failed_tables", [False, True])
    # "wide": trials just past _STEPPED_DRAWS, on the per-row path
    @pytest.mark.parametrize("n", [1, 4, "wide"])
    @pytest.mark.parametrize("k1", [2, 3])
    # two codebook sizes a case, each replayed in turn
    @pytest.mark.parametrize("m,m2,exact", [
        (4, 4, "none"),
        (9, 16, "none"),
        # numpy rejects and redraws about one index in four (m) and one
        # in two (m2) here, so some rows take the exact replay
        (3 * 2**30, 2**31 + 1, "some"),
    ])
    def test_replay_equals_default_rng(self, monkeypatch, m, m2, exact,
                                       k1, n, failed_tables):
        import lsl.simulate
        stepped = n != "wide"
        if not stepped:
            n = lsl.simulate._STEPPED_DRAWS // (k1 + 1) + 1
        seeds = list(EDGE_SEEDS) + [derive_trial_seed(7, i) for i in range(40)]
        exact_rows = []
        redrawn = []
        default_rng = np.random.default_rng

        def counting_rng(seed):
            exact_rows.append(seed)
            return default_rng(seed)

        def counting_row_draws(state, rows, raw, normals):
            if raw is None:
                redrawn.extend(rows)
            _row_draws(state, rows, raw, normals)

        monkeypatch.setattr(lsl.simulate, "_row_draws", counting_row_draws)
        if failed_tables:
            monkeypatch.setattr(lsl.simulate, "_ziggurat", lambda: (
                np.zeros(256), np.zeros(256, dtype=np.uint64)))
        for size in dict.fromkeys((m, m2)):
            expected = [literal_draws(s, size, k1, n) for s in seeds]
            exact_rows.clear()
            redrawn.clear()
            with monkeypatch.context() as patch:
                patch.setattr(np.random, "default_rng", counting_rng)
                idx, uniforms, noise = _replay_draws(seeds, size, k1, n)
            # a row takes the exact replay only where numpy rejected
            assert exact == ("some" if exact_rows else "none")
            assert len(exact_rows) < len(seeds)
            if stepped and failed_tables:
                assert sorted(redrawn) == list(range(len(seeds)))
            elif n == 4:
                # at 12 or 16 normals a trial, about one row in eight
                # leaves the ziggurat's fast path and redraws its normals
                assert redrawn
            assert idx.dtype == np.int64
            assert idx.shape == (len(seeds), k1 + 1)
            assert uniforms.shape == noise.shape == (len(seeds), k1 + 1, n)
            for i, (e_idx, e_idx_k, e_uni, e_noise) in enumerate(expected):
                assert np.array_equal(idx[i, :k1], e_idx)
                assert idx[i, k1] == e_idx_k
                assert np.array_equal(uniforms[i], np.stack(e_uni))
                assert np.array_equal(noise[i], np.stack(e_noise))


@pytest.fixture
def fresh_ziggurat():
    """Read the ziggurat tables anew in the test, and again after it."""
    _ziggurat.cache_clear()
    yield
    _ziggurat.cache_clear()


class TestZiggurat:
    def test_read_off_proves_every_layer(self, fresh_ziggurat):
        wi, bound = _ziggurat()
        # Marsaglia & Tsang: layer 1 has no fast path, the layer widths
        # grow from the top layer 1 to the base layer 255, and layer 0
        # (the base strip with the tail) is wider still
        assert bound[1] == 0 and np.all(bound[np.arange(256) != 1] > 0)
        assert np.all(np.diff(wi[1:]) > 0) and wi[0] > wi[255]

    def test_tables_reproduce_standard_normal(self):
        # 17,000 rows of 6 normals from the PCG64 streams of seeds 0, 1,
        # ...: each row from the tables, or redrawn by numpy when it
        # leaves the fast path, against default_rng(seed)
        rows, count = 17_000, 6
        state = _pcg64_seed_state(np.arange(rows))
        got = np.empty((rows, count))
        fast = _table_normals(_pcg64_words(state, count)[0], got, _ziggurat())
        _row_draws(state, np.flatnonzero(~fast), None, got)
        want = np.stack([np.random.default_rng(seed).standard_normal(count)
                         for seed in range(rows)])
        assert 0 < np.count_nonzero(~fast) < rows // 10
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_failed_self_check_redraws_every_noisy_row(self, monkeypatch,
                                                       fresh_ziggurat):
        import lsl.simulate
        monkeypatch.setattr(lsl.simulate, "_ziggurat_matches_numpy",
                            lambda tables: False)
        assert not _ziggurat()[1].any()
        seeds = list(EDGE_SEEDS) + [derive_trial_seed(8, i) for i in range(40)]
        redrawn = []

        def counting_row_draws(state, rows, raw, normals):
            redrawn.extend(rows)
            _row_draws(state, rows, raw, normals)

        monkeypatch.setattr(lsl.simulate, "_row_draws", counting_row_draws)
        idx, uniforms, noise = _replay_draws(seeds, 9, 2, 2)
        assert sorted(redrawn) == list(range(len(seeds)))
        for i, seed in enumerate(seeds):
            e_idx, e_idx_k, e_uni, e_noise = literal_draws(seed, 9, 2, 2)
            assert np.array_equal(idx[i], [*e_idx, e_idx_k])
            assert np.array_equal(uniforms[i], np.stack(e_uni))
            assert np.array_equal(noise[i], np.stack(e_noise))


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

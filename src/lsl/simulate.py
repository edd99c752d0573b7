"""Finite-dimensional Monte Carlo of the mod-sum secrecy scheme.

Per trial: each of the K-1 interfering users folds a uniformly drawn
codeword with a fresh dither and scales its transmit power so that all
interference arrives at receiver K with the common power P = min a_i*P_i
(signal-space alignment); user K transmits its own dithered codeword at
power P_K.  Receiver K decodes in three stages: MMSE-scaled mod-sum
decoding of the interference, subtraction of the decoded mod-sum, then
decoding of user K's codeword from the residual.  Receivers 1..K-1 see
interference-free direct links.

Error events are classified conditionally, in order: e1 (wrong mod-sum),
e2 (no e1, but the residual wrapped around the coarse cell), e3 (no e1
or e2, wrong user-K codeword).  The decoding-threshold formulas hold
only asymptotically in the dimension; campaigns report empirical rates
against them and never assert achievability at desk scale.

Stages: ``encode_interferer``, ``encode_user_k``, ``apply_channel``,
``decode_direct``, ``decode_mod_sum``, ``subtract_interference``,
``decode_user_k`` and ``classify_events`` each hold one step of that
pipeline, once.  They take arrays with leading batch axes: a codeword is
an index into the scheme's (M, N) leader array, the K-1 interferers form
a (..., K-1, N) stack, and a decoder returns centered leader coordinates
of shape (..., N).  The user axis is an ordinary batch axis: no stage
loops over users in Python.

Reproducibility: per-trial seeds are SHA-256 hashes of
``"{master_seed}:{trial_index}"`` (first 8 big-endian digest bytes).
``run_trial`` is the single-trial reference: it draws through
``np.random.default_rng(trial_seed)`` and calls the stages on one trial.
``run_campaign`` runs one vectorized engine for cubic and Construction-A
pairs alike: it replays the same draws without building a generator per
trial (``_replay_draws`` mirrors numpy's SeedSequence and PCG64 seeding
on whole chunks), then calls the same stages on (trials, ...) arrays, so
its reports are bit-identical to folding ``run_trial``.  A chunk holds
``CHUNK_DRAWS`` draws whatever K and N, and is folded as it finishes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolationError
from .lattices import (
    NestedPair,
    codebook,
    in_voronoi,
    mod_lattice,
    nearest_coords,
    quantize,  # unused here; perfbench's tracer test checks this binding
    second_moment,
)
from .rates import SystemConfig, mmse_coefficients

_WILSON_Z95 = 1.959963984540054

#: Draws one chunk holds in memory at once: a campaign or repr-check
#: chunk is max(1, CHUNK_DRAWS // (K*N)) trials.
CHUNK_DRAWS = 1 << 15

# SeedSequence's hash constants (numpy/random/bit_generator.pyx) and the
# multiplier of PCG64's 128-bit LCG (numpy/random/src/pcg64/pcg64.h).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1


@dataclass(frozen=True, eq=False)
class Scheme:
    """Immutable bundle of configuration, lattice pairs and derived constants.

    The first K-1 users share ``interferer_pair``; user K has its own
    ``user_k_pair``.  Both coarse lattices are unit-second-moment
    normalized, which is what makes the power accounting exact.  Each
    pair's codebook is a read-only (M, N) int64 array of coset-leader
    coordinates in ``codebook`` order; a codeword is a row index into it.
    """

    config: SystemConfig
    interferer_pair: NestedPair
    user_k_pair: NestedPair
    aligned_power: float
    gamma: float
    alpha_mod_sum: float
    alpha_user_k: float
    effective_noise_var: float
    interferer_amplitudes: tuple[float, ...]
    interferer_leaders: np.ndarray
    user_k_leaders: np.ndarray

    @classmethod
    def for_config(cls, cfg: SystemConfig, interferer_pair: NestedPair,
                   user_k_pair: NestedPair | None = None) -> "Scheme":
        if user_k_pair is None:
            user_k_pair = interferer_pair
        if interferer_pair.dimension != user_k_pair.dimension:
            raise ValueError("lattice pairs must share one dimension")
        for pair in (interferer_pair, user_k_pair):
            if abs(second_moment(pair.coarse) - 1.0) > 1e-9:
                raise ValueError(
                    "coarse lattices must be normalized to unit second moment")
        p = cfg.p_aligned
        mmse = mmse_coefficients(cfg)
        leaders = codebook(interferer_pair)
        leaders_k = (leaders if user_k_pair is interferer_pair
                     else codebook(user_k_pair))
        return cls(
            config=cfg,
            interferer_pair=interferer_pair,
            user_k_pair=user_k_pair,
            aligned_power=p,
            gamma=mmse.gamma,
            alpha_mod_sum=mmse.alpha,
            alpha_user_k=cfg.p_k / (cfg.p_k + 1.0),
            effective_noise_var=mmse.effective_noise_var,
            interferer_amplitudes=tuple(math.sqrt(p / g) for g in cfg.a),
            interferer_leaders=leaders,
            user_k_leaders=leaders_k)

    @property
    def dimension(self) -> int:
        return self.interferer_pair.dimension


@dataclass(frozen=True)
class TrialOutcome:
    """Flags and diagnostics for one simulated channel use block.

    The event flags are conditional by construction: e2 implies no e1,
    e3 implies neither e1 nor e2.  Violations are rejected at creation.
    """

    direct_errors: tuple[bool, ...]
    e1: bool
    e2: bool
    e3: bool
    effective_noise_power: float
    residual_power: float

    def __post_init__(self):
        if self.e2 and self.e1:
            raise InvariantViolationError("e2 set together with e1")
        if self.e3 and (self.e1 or self.e2):
            raise InvariantViolationError("e3 set together with e1 or e2")


@dataclass(frozen=True)
class CampaignReport:
    """Aggregated Monte Carlo statistics for one configuration."""

    trials: int
    master_seed: int
    e1_count: int
    e2_count: int
    e3_count: int
    direct_error_counts: tuple[int, ...]
    mean_effective_noise_power: float
    mean_residual_power: float

    def __post_init__(self):
        for c in (self.e1_count, self.e2_count, self.e3_count,
                  *self.direct_error_counts):
            if not 0 <= c <= self.trials:
                raise InvariantViolationError("event count exceeds trials")


def wilson_interval(count: int, trials: int,
                    z: float = _WILSON_Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (default 95%)."""
    if trials < 1:
        raise ValueError("trials must be positive")
    p = count / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials
                         + z * z / (4 * trials * trials)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def chunk_bounds(trials: int, draws_per_trial: int) -> list[tuple[int, int]]:
    """Balanced, contiguous ``(lo, hi)`` trial ranges in order, each of at
    most max(1, CHUNK_DRAWS // draws_per_trial) trials."""
    rows = max(1, CHUNK_DRAWS // draws_per_trial)
    chunks = math.ceil(trials / rows)
    bounds = [i * trials // chunks for i in range(chunks + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _codewords(leaders: np.ndarray, index) -> np.ndarray:
    """Rows of ``leaders`` at ``index``; an index outside them raises."""
    index = np.asarray(index)
    if np.any((index < 0) | (index >= len(leaders))):
        raise ValueError("codeword index outside the codebook")
    return leaders[index]


def _fold_dithers(scheme: Scheme, uniforms: np.ndarray):
    """Dithers from (..., K, N) uniforms on [0, 1), as ``sample_dither``.

    Each uniform vector is scaled to the coarse cell's box and folded into
    the cell.  Returns the (..., K-1, N) interferer dithers and user K's
    (..., N) dither, which comes from the last row.
    """
    coarse = scheme.interferer_pair.coarse
    coarse_k = scheme.user_k_pair.coarse
    return (mod_lattice(coarse, coarse.scale * uniforms[..., :-1, :]),
            mod_lattice(coarse_k, coarse_k.scale * uniforms[..., -1, :]))


def _decode(pair: NestedPair, x: np.ndarray) -> np.ndarray:
    """Fold ``x`` over the coarse cell, quantize it to the fine lattice and
    reduce to centered coset-leader coordinates, for every (..., N) row."""
    folded = mod_lattice(pair.coarse, x)
    return pair.reduce(nearest_coords(pair.fine, folded))


def encode_interferer(scheme: Scheme, index, dithers: np.ndarray):
    """Transmit signals of the K-1 interfering users.

    ``index`` holds codeword indices, shape (..., K-1), and ``dithers`` the
    matching (..., K-1, N) stack; a user axis of another length raises
    ``ValueError``.  Each codeword plus dither is folded over the coarse
    cell, giving ``u``; user i's row is then scaled by sqrt(P/a_i) so it
    arrives at receiver K with power P.  The transmit power P/a_i never
    exceeds the user's constraint.  Returns ``(u, signals)``, both of
    shape (..., K-1, N).
    """
    k1 = scheme.config.K - 1
    if np.shape(index)[-1:] != (k1,) or np.shape(dithers)[-2:-1] != (k1,):
        raise ValueError(f"interferer stacks need a user axis of length {k1}")
    pair = scheme.interferer_pair
    points = _codewords(scheme.interferer_leaders, index) * pair.fine.scale
    u = mod_lattice(pair.coarse, points + dithers)
    return u, np.asarray(scheme.interferer_amplitudes)[:, None] * u


def encode_user_k(scheme: Scheme, index, dither: np.ndarray):
    """Transmit signal of user K: dithered fold scaled to power P_K.

    ``index`` has shape (...) and ``dither`` (..., N).  Returns
    ``(u_k, signal_k)``: the folded codeword plus dither, and sqrt(P_K)*u_k.
    """
    pair = scheme.user_k_pair
    point = _codewords(scheme.user_k_leaders, index) * pair.fine.scale
    u_k = mod_lattice(pair.coarse, point + dither)
    return u_k, math.sqrt(scheme.config.p_k) * u_k


def apply_channel(scheme: Scheme, signals: np.ndarray, signal_k: np.ndarray,
                  noise: np.ndarray):
    """One block through the many-to-one channel.

    ``signals`` is the (..., K-1, N) interferer stack, ``signal_k`` user K's
    (..., N) signal and ``noise`` the (..., K, N) unit-variance channel
    noise, direct links first and receiver K last (zeros for a noiseless
    block); a user axis of another length raises ``ValueError``.
    Receivers 1..K-1 each see only their own sender plus noise; receiver
    K sees the cross-gain-weighted interference, accumulated left to
    right, plus user K's signal and its own noise.  Returns
    ``(direct, interference, y_k)``: the (..., K-1, N) direct outputs, the
    noiseless interference at receiver K and its (..., N) output.
    """
    k = scheme.config.K
    if np.shape(signals)[-2:-1] != (k - 1,) or np.shape(noise)[-2:-1] != (k,):
        raise ValueError(f"channel needs {k - 1} signals and {k} noise rows")
    weighted = np.sqrt(np.asarray(scheme.config.a))[:, None] * signals
    # cumsum adds the users left to right; np.sum would add them pairwise
    interference = np.cumsum(weighted, axis=-2)[..., -1, :]
    y_k = interference + signal_k + noise[..., -1, :]
    return signals + noise[..., :-1, :], interference, y_k


def decode_direct(scheme: Scheme, direct: np.ndarray,
                  dithers: np.ndarray) -> np.ndarray:
    """MMSE lattice decoding on the K-1 interference-free direct links.

    ``direct`` and ``dithers`` are (..., K-1, N) stacks, user 1 first; a
    user axis of another length raises ``ValueError``.  User j's physical
    SNR is S_j = P/a_j (the power actually transmitted): its output is
    scaled by alpha_j = S_j/(S_j+1) and 1/sqrt(S_j), its dither removed,
    and every link is folded, quantized to the fine lattice and reduced
    to centered coset-leader coordinates in one decode.  Returns the
    (..., K-1, N) decoded leaders.
    """
    k1 = scheme.config.K - 1
    if np.shape(direct)[-2:-1] != (k1,) or np.shape(dithers)[-2:-1] != (k1,):
        raise ValueError(f"direct-link stacks need a user axis of length {k1}")
    snr = np.array([amp ** 2 for amp in scheme.interferer_amplitudes])[:, None]
    alpha = snr / (snr + 1.0)
    return _decode(scheme.interferer_pair,
                   alpha * direct / np.sqrt(snr) - dithers)


def decode_mod_sum(scheme: Scheme, y_k: np.ndarray,
                   dithers: np.ndarray) -> np.ndarray:
    """Stage one at receiver K: decode the mod-sum of the interference.

    Normalizes by sqrt(P), applies the variance-minimizing alpha, strips
    the sum over axis -2 of the (..., K-1, N) dither stack, folds and
    quantizes.  Returns centered coset-leader coordinates (..., N).
    """
    scaled = scheme.alpha_mod_sum * y_k / math.sqrt(scheme.aligned_power)
    return _decode(scheme.interferer_pair,
                   scaled - np.sum(dithers, axis=-2))


def subtract_interference(scheme: Scheme, y_k: np.ndarray, s_hat: np.ndarray,
                          dithers: np.ndarray) -> np.ndarray:
    """Stage two: remove the decoded mod-sum from the normalized output.

    ``s_hat`` holds leader coordinates as ``decode_mod_sum`` returns them.
    When it is correct the result equals gamma*U_K + Z' modulo the coarse
    cell, with Z' the receiver noise scaled by 1/sqrt(P).
    """
    pair = scheme.interferer_pair
    normalized = y_k / math.sqrt(scheme.aligned_power)
    return mod_lattice(pair.coarse, normalized - s_hat * pair.fine.scale
                       - np.sum(dithers, axis=-2))


def decode_user_k(scheme: Scheme, residual: np.ndarray,
                  dither: np.ndarray) -> np.ndarray:
    """Stage three: decode user K's codeword from the residual.

    The residual carries gamma*U_K at noise variance 1/P, an effective
    SNR of P_K; rescale by 1/gamma, apply alpha = P_K/(P_K+1), strip
    user K's dither and quantize on user K's pair.  Returns centered
    coset-leader coordinates (..., N).
    """
    scaled = scheme.alpha_user_k * residual / scheme.gamma
    return _decode(scheme.user_k_pair, scaled - dither)


def classify_events(mod_sum_correct, residual_unwrapped, user_k_correct):
    """Conditional event flags (e1, e2, e3) from raw stage outcomes.

    Works elementwise on booleans or boolean arrays of one shape.
    """
    e1 = ~np.asarray(mod_sum_correct, dtype=bool)
    e2 = ~e1 & ~np.asarray(residual_unwrapped, dtype=bool)
    e3 = ~e1 & ~e2 & ~np.asarray(user_k_correct, dtype=bool)
    return e1, e2, e3


def derive_trial_seed(master_seed: int, index: int) -> int:
    """Stable per-trial seed: SHA-256 of "master:index", first 8 bytes."""
    digest = hashlib.sha256(f"{master_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def run_trial(scheme: Scheme, trial_seed: int,
              noiseless: bool = False) -> TrialOutcome:
    """Simulate one block: draw, encode, transmit, decode, classify.

    Draw order (fixed contract): interferer codeword indices, user K
    codeword index, the dither uniforms in user order (user K last), then
    the channel noise in the same order; with ``noiseless`` no noise is
    drawn.  ``rng.random((K, N))`` and ``standard_normal((K, N))`` read the
    same stream as one call per user.
    """
    rng = np.random.default_rng(trial_seed)
    k = scheme.config.K
    n = scheme.dimension
    pair = scheme.interferer_pair
    leaders = scheme.interferer_leaders
    leaders_k = scheme.user_k_leaders

    idx = rng.integers(0, len(leaders), size=k - 1)
    idx_k = rng.integers(0, len(leaders_k))
    dithers, dither_k = _fold_dithers(scheme, rng.random((k, n)))
    noise = np.zeros((k, n)) if noiseless else rng.standard_normal((k, n))

    u, signals = encode_interferer(scheme, idx, dithers)
    u_k, signal_k = encode_user_k(scheme, idx_k, dither_k)
    direct, interference, y_k = apply_channel(scheme, signals, signal_k,
                                              noise)

    decoded = decode_direct(scheme, direct, dithers)
    direct_errors = tuple(np.any(decoded != leaders[idx], axis=1).tolist())

    s_hat = decode_mod_sum(scheme, y_k, dithers)
    s_true = pair.reduce(leaders[idx].sum(axis=0))

    # Reconstruct the exact unwrapped residual from simulator-side truth:
    # gamma*U_K + Z'; the wrap event is its escape from the coarse cell.
    z_prime = (y_k - interference - signal_k) / math.sqrt(scheme.aligned_power)
    unwrapped = scheme.gamma * u_k + z_prime

    residual = subtract_interference(scheme, y_k, s_hat, dithers)
    t_k_hat = decode_user_k(scheme, residual, dither_k)

    e1, e2, e3 = classify_events(
        np.array_equal(s_hat, s_true),
        in_voronoi(pair.coarse, unwrapped),
        np.array_equal(t_k_hat, leaders_k[idx_k]))

    z_eff = (scheme.alpha_mod_sum - 1.0) * np.sum(u, axis=0) \
        + scheme.alpha_mod_sum * unwrapped
    return TrialOutcome(
        direct_errors=direct_errors,
        e1=bool(e1), e2=bool(e2), e3=bool(e3),
        effective_noise_power=float(np.sum(z_eff * z_eff)) / n,
        residual_power=float(np.sum(residual * residual)) / n)


def _seed_words(seeds) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for many seeds.

    ``seeds`` are integers in [0, 2^64); the result is a (len(seeds), 4)
    uint64 array.  The entropy words are [lo32, hi32] in a pool of four,
    padded with hashmix(0) as numpy pads, so seeds below 2^32 (one
    entropy word) agree as well.  All arithmetic wraps in uint32.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)

    def hasher(hash_const, mult):
        def hashmix(value):
            nonlocal hash_const
            value = value ^ np.uint32(hash_const)
            hash_const = (hash_const * mult) & _MASK32
            value = value * np.uint32(hash_const)
            return value ^ (value >> np.uint32(16))
        return hashmix

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    hashmix = hasher(_INIT_A, _MULT_A)
    lo = (seeds & np.uint64(_MASK32)).astype(np.uint32)
    hi = (seeds >> np.uint64(32)).astype(np.uint32)
    zero = np.zeros_like(lo)
    pool = [hashmix(word) for word in (lo, hi, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))

    # generate_state runs the same hash over the pool, with its own constants.
    output = hasher(_INIT_B, _MULT_B)
    halves = [output(pool[i % 4]).astype(np.uint64) for i in range(8)]
    # Little-endian pairs of 32-bit words, by shifts: no byte-order views.
    return np.stack([halves[2 * j] | (halves[2 * j + 1] << np.uint64(32))
                     for j in range(4)], axis=-1)


def _pcg64_state(words) -> tuple[int, int]:
    """(state, inc) of ``PCG64`` seeded with the four 64-bit ``words``."""
    w0, w1, w2, w3 = words
    inc = ((((w2 << 64) | w3) << 1) | 1) & _MASK128
    state = ((inc + ((w0 << 64) | w1)) * _PCG64_MULT + inc) & _MASK128
    return state, inc


def _replay_draws(seeds, m: int, m_k: int, k1: int, n: int,
                  noiseless: bool):
    """run_trial's draws for every seed, without a generator per trial.

    Returns ``(idx, uniforms, noise)``: the (trials, k1 + 1) codeword
    indices and the (trials, k1 + 1, n) dither uniforms and channel
    normals (zeros when ``noiseless``), interferers first and user K
    last, bit-identical to the draws of ``np.random.default_rng(seed)``
    in run_trial's order.

    The seeds are hashed for the whole chunk at once (``_seed_words``);
    per trial, one reused PCG64 gets its state set and hands out its raw
    words, and numpy's own ziggurat draws the normals.  The indices are
    Lemire's (x * m) >> 32 on the 32-bit halves, low half first, which is
    how ``integers`` consumes them; the uniforms are (w >> 11) * 2^-53.
    A row where ``integers`` would have rejected a draw, and every row
    when a codebook size lies outside [2, 2^32), is replayed through
    ``default_rng`` instead.
    """
    t_count = len(seeds)
    users = k1 + 1
    sizes = [m] * k1 + [m_k]
    idx = np.empty((t_count, users), dtype=np.int64)
    uniforms = np.empty((t_count, users, n))
    noise = np.zeros((t_count, users, n))
    exact = range(t_count)
    if all(2 <= size < 2 ** 32 for size in sizes):
        index_words = (users + 1) // 2
        raw = np.empty((t_count, index_words + users * n), dtype=np.uint64)
        flat_noise = noise.reshape(t_count, users * n)
        bit_gen = np.random.PCG64(0)
        gen = np.random.Generator(bit_gen)
        inner = {"state": 0, "inc": 0}
        state = {"bit_generator": "PCG64", "state": inner,
                 "has_uint32": 0, "uinteger": 0}
        words = _seed_words(seeds)
        for i in range(t_count):
            inner["state"], inner["inc"] = _pcg64_state(words[i].tolist())
            bit_gen.state = state
            raw[i] = bit_gen.random_raw(raw.shape[1])
            if not noiseless:
                gen.standard_normal(out=flat_noise[i])
        halves = np.empty((t_count, 2 * index_words), dtype=np.uint64)
        halves[:, 0::2] = raw[:, :index_words] & np.uint64(_MASK32)
        halves[:, 1::2] = raw[:, :index_words] >> np.uint64(32)
        scaled = halves[:, :users] * np.array(sizes, dtype=np.uint64)
        idx[:] = scaled >> np.uint64(32)
        thresholds = np.array([2 ** 32 % size for size in sizes],
                              dtype=np.uint64)
        exact = np.flatnonzero(np.any(
            (scaled & np.uint64(_MASK32)) < thresholds, axis=1)).tolist()
        uniforms[:] = ((raw[:, index_words:] >> np.uint64(11))
                       * (1.0 / 9007199254740992.0)).reshape(uniforms.shape)
    for i in exact:
        rng = np.random.default_rng(seeds[i])
        idx[i, :k1] = rng.integers(0, m, size=k1)
        idx[i, k1] = rng.integers(0, m_k)
        uniforms[i] = rng.random((users, n))
        if not noiseless:
            noise[i] = rng.standard_normal((users, n))
    return idx, uniforms, noise


def _batch_trial_arrays(scheme: Scheme, seeds, noiseless: bool) -> dict:
    """Vectorized engine: all trials for ``seeds`` as flat arrays.

    Takes run_trial's draws from ``_replay_draws`` (the v1 draw contract,
    replayed on the whole chunk) and calls the same stage functions on
    (trials, ...) arrays, each once per chunk.  Only the bookkeeping
    between the stages is its own, written apart from run_trial's so that
    the oracle engine = run_trial checks it; every per-trial value is
    bit-identical to the reference.
    """
    k1 = scheme.config.K - 1
    pair = scheme.interferer_pair
    leaders = scheme.interferer_leaders
    leaders_k = scheme.user_k_leaders
    n = scheme.dimension

    idx_all, uniforms, noise = _replay_draws(seeds, len(leaders),
                                             len(leaders_k), k1, n, noiseless)
    idx, idx_k = idx_all[:, :k1], idx_all[:, k1]
    dithers, dither_k = _fold_dithers(scheme, uniforms)

    u, signals = encode_interferer(scheme, idx, dithers)
    u_k, signal_k = encode_user_k(scheme, idx_k, dither_k)
    direct, interference, y_k = apply_channel(scheme, signals, signal_k,
                                              noise)

    direct_errors = np.any(decode_direct(scheme, direct, dithers)
                           != leaders[idx], axis=-1)

    s_hat = decode_mod_sum(scheme, y_k, dithers)
    s_true = pair.reduce(np.sum(leaders[idx], axis=1))

    z_prime = (y_k - interference - signal_k) / math.sqrt(scheme.aligned_power)
    unwrapped = scheme.gamma * u_k + z_prime

    residual = subtract_interference(scheme, y_k, s_hat, dithers)
    t_k_hat = decode_user_k(scheme, residual, dither_k)

    e1, e2, e3 = classify_events(
        np.all(s_hat == s_true, axis=1),
        in_voronoi(pair.coarse, unwrapped),
        np.all(t_k_hat == leaders_k[idx_k], axis=1))

    z_eff = (scheme.alpha_mod_sum - 1.0) * np.sum(u, axis=1) \
        + scheme.alpha_mod_sum * unwrapped
    return {
        "direct_errors": direct_errors,
        "e1": e1,
        "e2": e2,
        "e3": e3,
        "eff_power": np.sum(z_eff * z_eff, axis=1) / n,
        "residual_power": np.sum(residual * residual, axis=1) / n,
    }


def run_campaign(scheme: Scheme, trials: int, master_seed: int,
                 noiseless: bool = False) -> CampaignReport:
    """Run ``trials`` independent trials and fold the outcomes.

    The trials run in order, on one thread, in the chunks of
    ``chunk_bounds`` at K*N draws a trial, so a chunk's memory is bounded
    whatever K and N.  Each chunk derives its own seeds and is folded as
    it finishes: its event and direct-link counts are added as integers,
    and only its two per-trial power arrays are kept, so that the mean of
    their concatenation does not depend on the chunking.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    events = np.zeros(3, dtype=np.int64)
    direct = np.zeros(scheme.config.K - 1, dtype=np.int64)
    eff_power, residual_power = [], []
    for lo, hi in chunk_bounds(trials, scheme.config.K * scheme.dimension):
        part = _batch_trial_arrays(
            scheme, [derive_trial_seed(master_seed, i) for i in range(lo, hi)],
            noiseless)
        events += [np.count_nonzero(part[e]) for e in ("e1", "e2", "e3")]
        direct += np.count_nonzero(part["direct_errors"], axis=0)
        eff_power.append(part["eff_power"])
        residual_power.append(part["residual_power"])
    e1, e2, e3 = events.tolist()
    return CampaignReport(
        trials=trials,
        master_seed=master_seed,
        e1_count=e1, e2_count=e2, e3_count=e3,
        direct_error_counts=tuple(direct.tolist()),
        mean_effective_noise_power=float(np.mean(np.concatenate(eff_power))),
        mean_residual_power=float(np.mean(np.concatenate(residual_power))))

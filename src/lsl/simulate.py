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

Reproducibility: per-trial seeds are SHA-256 hashes of
``"{master_seed}:{trial_index}"`` (first 8 big-endian digest bytes).
``run_trial`` is the single-trial reference implementation, built from
the scalar stage functions; it draws through
``np.random.default_rng(trial_seed)``.  ``run_campaign`` runs one
vectorized engine for cubic and Construction-A pairs alike: it replays
the same draws without building a generator per trial (``_replay_draws``
mirrors numpy's SeedSequence and PCG64 seeding on whole chunks), then
runs the same ``lsl.lattices`` primitives on (trials, N) arrays, so its
reports are bit-identical to folding ``run_trial``.  Campaigns run on one
thread; the ``jobs`` argument is validated and otherwise ignored.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolationError
from .lattices import (
    LatticePoint,
    NestedPair,
    _centered_mod,
    codebook,
    in_voronoi,
    mod_lattice,
    nearest_coords,
    quantize,
    sample_dither,
    second_moment,
)
from .rates import SystemConfig, mmse_coefficients

_WILSON_Z95 = 1.959963984540054

#: Most trials one campaign chunk holds in memory at once.
_BLOCK = 4096

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
    normalized, which is what makes the power accounting exact.
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
    interferer_points: tuple[LatticePoint, ...]
    user_k_points: tuple[LatticePoint, ...]
    interferer_coord_set: frozenset
    user_k_coord_set: frozenset

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
        points = tuple(codebook(interferer_pair))
        points_k = tuple(codebook(user_k_pair))
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
            interferer_points=points,
            user_k_points=points_k,
            interferer_coord_set=frozenset(pt.coords for pt in points),
            user_k_coord_set=frozenset(pt.coords for pt in points_k))

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
    config_echo: str = ""

    def __post_init__(self):
        for c in (self.e1_count, self.e2_count, self.e3_count,
                  *self.direct_error_counts):
            if not 0 <= c <= self.trials:
                raise InvariantViolationError("event count exceeds trials")

    @property
    def e1_rate(self) -> float:
        return self.e1_count / self.trials

    @property
    def e2_rate(self) -> float:
        return self.e2_count / self.trials

    @property
    def e3_rate(self) -> float:
        return self.e3_count / self.trials

    @property
    def direct_error_rates(self) -> tuple[float, ...]:
        return tuple(c / self.trials for c in self.direct_error_counts)

    @property
    def direct_error_rate_pooled(self) -> float:
        return sum(self.direct_error_counts) / (
            self.trials * len(self.direct_error_counts))

    @property
    def e1_interval(self) -> tuple[float, float]:
        return wilson_interval(self.e1_count, self.trials)

    @property
    def e2_interval(self) -> tuple[float, float]:
        return wilson_interval(self.e2_count, self.trials)

    @property
    def e3_interval(self) -> tuple[float, float]:
        return wilson_interval(self.e3_count, self.trials)

    @property
    def direct_error_intervals(self) -> tuple[tuple[float, float], ...]:
        return tuple(wilson_interval(c, self.trials)
                     for c in self.direct_error_counts)


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


def encode_interferer(scheme: Scheme, user: int, point: LatticePoint,
                      dither: np.ndarray) -> np.ndarray:
    """Transmit signal of interfering user ``user`` (1-based).

    Folds codeword plus dither over the coarse cell, then scales by
    sqrt(P/a_user) so the signal arrives at receiver K with power P.
    The transmit power P/a_user never exceeds the user's constraint.
    """
    cfg = scheme.config
    if not 1 <= user <= cfg.K - 1:
        raise ValueError("interferer index out of range")
    if point.coords not in scheme.interferer_coord_set:
        raise ValueError("codeword is not in the interferer codebook")
    coarse = scheme.interferer_pair.coarse
    folded = mod_lattice(coarse, point.embed() + dither)
    return scheme.interferer_amplitudes[user - 1] * folded


def encode_user_k(scheme: Scheme, point: LatticePoint,
                  dither: np.ndarray) -> np.ndarray:
    """Transmit signal of user K: dithered fold scaled to power P_K."""
    if point.coords not in scheme.user_k_coord_set:
        raise ValueError("codeword is not in user K's codebook")
    coarse = scheme.user_k_pair.coarse
    folded = mod_lattice(coarse, point.embed() + dither)
    return math.sqrt(scheme.config.p_k) * folded


def _received_interference(scheme: Scheme, interferer_signals):
    """Cross-gain-weighted interference sum at receiver K.

    Explicit left-to-right accumulation.  Each signal may also be a
    (trials, N) array, which is how the batch engine shares this order
    with the reference path bit for bit.
    """
    acc = np.zeros(scheme.dimension)
    for g, x in zip(scheme.config.a, interferer_signals):
        acc = acc + math.sqrt(g) * x
    return acc


def apply_channel(scheme: Scheme, interferer_signals, user_k_signal,
                  rng: np.random.Generator, noiseless: bool = False):
    """One block through the many-to-one channel.

    Returns ``(direct_outputs, y_k)``: receivers 1..K-1 each see only
    their own sender plus unit-variance noise; receiver K sees the
    cross-gain-weighted sum of everything plus its own noise.  Noise is
    drawn in user order (direct links first, receiver K last); with
    ``noiseless`` no noise is drawn at all.
    """
    n = scheme.dimension
    direct = []
    for x in interferer_signals:
        z = np.zeros(n) if noiseless else rng.standard_normal(n)
        direct.append(x + z)
    z_k = np.zeros(n) if noiseless else rng.standard_normal(n)
    y_k = _received_interference(scheme, interferer_signals) \
        + user_k_signal + z_k
    return direct, y_k


def decode_direct(scheme: Scheme, user: int, y: np.ndarray,
                  dither: np.ndarray) -> LatticePoint:
    """MMSE lattice decoding on the interference-free direct link.

    Physical SNR is S = P/a_user (the power actually transmitted);
    scale by alpha = S/(S+1), remove the dither, fold, quantize to the
    fine lattice and reduce to a coset leader.
    """
    pair = scheme.interferer_pair
    snr = scheme.interferer_amplitudes[user - 1] ** 2
    alpha = snr / (snr + 1.0)
    folded = mod_lattice(pair.coarse,
                         alpha * y / math.sqrt(snr) - dither)
    return pair.reduce(quantize(pair.fine, folded))


def decode_mod_sum(scheme: Scheme, y_k: np.ndarray,
                   dithers) -> LatticePoint:
    """Stage one at receiver K: decode the mod-sum of the interference.

    Normalizes by sqrt(P), applies the variance-minimizing alpha,
    strips all interferer dithers, folds, and quantizes.
    """
    pair = scheme.interferer_pair
    scaled = scheme.alpha_mod_sum * y_k / math.sqrt(scheme.aligned_power)
    folded = mod_lattice(pair.coarse, scaled - np.sum(dithers, axis=0))
    return pair.reduce(quantize(pair.fine, folded))


def subtract_interference(scheme: Scheme, y_k: np.ndarray, s_hat: LatticePoint,
                          dithers) -> np.ndarray:
    """Stage two: remove the decoded mod-sum from the normalized output.

    When ``s_hat`` is correct the result equals gamma*U_K + Z' modulo
    the coarse cell, with Z' the receiver noise scaled by 1/sqrt(P).
    """
    coarse = scheme.interferer_pair.coarse
    normalized = y_k / math.sqrt(scheme.aligned_power)
    return mod_lattice(coarse,
                       normalized - s_hat.embed() - np.sum(dithers, axis=0))


def decode_user_k(scheme: Scheme, residual: np.ndarray,
                  dither: np.ndarray) -> LatticePoint:
    """Stage three: decode user K's codeword from the residual.

    The residual carries gamma*U_K at noise variance 1/P, an effective
    SNR of P_K; rescale by 1/gamma, apply alpha = P_K/(P_K+1), strip
    user K's dither and quantize on user K's pair.
    """
    pair = scheme.user_k_pair
    scaled = scheme.alpha_user_k * residual / scheme.gamma
    folded = mod_lattice(pair.coarse, scaled - dither)
    return pair.reduce(quantize(pair.fine, folded))


def classify_events(mod_sum_correct: bool, residual_unwrapped: bool,
                    user_k_correct: bool) -> tuple[bool, bool, bool]:
    """Conditional event flags (e1, e2, e3) from raw stage outcomes."""
    e1 = not mod_sum_correct
    e2 = (not e1) and (not residual_unwrapped)
    e3 = (not e1) and (not e2) and (not user_k_correct)
    return e1, e2, e3


def derive_trial_seed(master_seed: int, index: int) -> int:
    """Stable per-trial seed: SHA-256 of "master:index", first 8 bytes."""
    digest = hashlib.sha256(f"{master_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def run_trial(scheme: Scheme, trial_seed: int,
              noiseless: bool = False) -> TrialOutcome:
    """Simulate one block: draw, encode, transmit, decode, classify.

    Draw order (fixed contract): interferer codeword indices, user K
    codeword index, interferer dithers in user order, user K dither,
    then channel noise inside ``apply_channel``.
    """
    rng = np.random.default_rng(trial_seed)
    cfg = scheme.config
    pair = scheme.interferer_pair
    n = scheme.dimension

    idx = rng.integers(0, len(scheme.interferer_points), size=cfg.K - 1)
    points = [scheme.interferer_points[i] for i in idx]
    point_k = scheme.user_k_points[rng.integers(0, len(scheme.user_k_points))]
    dithers = [sample_dither(pair.coarse, rng) for _ in range(cfg.K - 1)]
    dither_k = sample_dither(scheme.user_k_pair.coarse, rng)

    signals = [encode_interferer(scheme, i + 1, t, d)
               for i, (t, d) in enumerate(zip(points, dithers))]
    signal_k = encode_user_k(scheme, point_k, dither_k)
    direct_outputs, y_k = apply_channel(scheme, signals, signal_k, rng,
                                        noiseless=noiseless)

    direct_errors = tuple(
        decode_direct(scheme, i + 1, y, d).coords != t.coords
        for i, (y, d, t) in enumerate(zip(direct_outputs, dithers, points)))

    s_hat = decode_mod_sum(scheme, y_k, dithers)
    total = points[0]
    for t in points[1:]:
        total = total + t
    s_true = pair.reduce(total)
    mod_sum_correct = s_hat.coords == s_true.coords

    # Reconstruct the exact unwrapped residual from simulator-side truth:
    # gamma*U_K + Z'; the wrap event is its escape from the coarse cell.
    u_k = mod_lattice(scheme.user_k_pair.coarse, point_k.embed() + dither_k)
    z_k = y_k - _received_interference(scheme, signals) - signal_k
    z_prime = z_k / math.sqrt(scheme.aligned_power)
    unwrapped = scheme.gamma * u_k + z_prime
    residual_unwrapped = in_voronoi(pair.coarse, unwrapped)

    residual = subtract_interference(scheme, y_k, s_hat, dithers)
    t_k_hat = decode_user_k(scheme, residual, dither_k)
    user_k_correct = t_k_hat.coords == point_k.coords

    e1, e2, e3 = classify_events(mod_sum_correct, residual_unwrapped,
                                 user_k_correct)

    u_sum = np.sum([mod_lattice(pair.coarse, t.embed() + d)
                    for t, d in zip(points, dithers)], axis=0)
    z_eff = (scheme.alpha_mod_sum - 1.0) * u_sum \
        + scheme.alpha_mod_sum * unwrapped
    return TrialOutcome(
        direct_errors=direct_errors,
        e1=e1, e2=e2, e3=e3,
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
        for j in range(users):
            uniforms[i, j] = rng.random(n)
        if not noiseless:
            for j in range(users):
                noise[i, j] = rng.standard_normal(n)
    return idx, uniforms, noise


def _batch_trial_arrays(scheme: Scheme, seeds, noiseless: bool) -> dict:
    """Vectorized engine: all trials for ``seeds`` as flat arrays.

    Takes run_trial's draws from ``_replay_draws`` (the v1 draw contract,
    replayed on the whole chunk), then performs the same arithmetic, in
    the same order, on (trials, ...) arrays; every per-trial value is
    bit-identical to the reference implementation.
    """
    cfg = scheme.config
    pair = scheme.interferer_pair
    pair_k = scheme.user_k_pair
    coarse = pair.coarse
    coarse_k = pair_k.coarse
    n = scheme.dimension
    k1 = cfg.K - 1
    t_count = len(seeds)
    m = len(scheme.interferer_points)
    m_k = len(scheme.user_k_points)
    s_coarse = coarse.scale
    s_coarse_k = coarse_k.scale

    leaders = np.array([p.coords for p in scheme.interferer_points],
                       dtype=np.int64)
    leaders_emb = leaders * pair.fine.scale
    leaders_k = np.array([p.coords for p in scheme.user_k_points],
                         dtype=np.int64)
    leaders_k_emb = leaders_k * pair_k.fine.scale

    idx_all, uniforms, noise_all = _replay_draws(seeds, m, m_k, k1, n,
                                                 noiseless)
    idx, idx_k = idx_all[:, :k1], idx_all[:, k1]
    dither_box = s_coarse * uniforms[:, :k1]
    dither_k_box = s_coarse_k * uniforms[:, k1]
    noise, noise_k = noise_all[:, :k1], noise_all[:, k1]

    def decode(folded, nested):
        # Batched ``nested.reduce(quantize(nested.fine, folded))``.
        return _centered_mod(nearest_coords(nested.fine, folded), nested.q)

    dithers = mod_lattice(coarse, dither_box)
    dither_k = mod_lattice(coarse_k, dither_k_box)

    u = mod_lattice(coarse, leaders_emb[idx] + dithers)
    amps = np.asarray(scheme.interferer_amplitudes)
    signals = amps[None, :, None] * u
    u_k = mod_lattice(coarse_k, leaders_k_emb[idx_k] + dither_k)
    signal_k = math.sqrt(cfg.p_k) * u_k

    direct_y = signals + noise
    received = _received_interference(scheme, np.moveaxis(signals, 1, 0))
    y_k = received + signal_k + noise_k

    direct_errors = np.empty((t_count, k1), dtype=bool)
    for j in range(k1):
        snr = scheme.interferer_amplitudes[j] ** 2
        alpha = snr / (snr + 1.0)
        folded = mod_lattice(coarse, alpha * direct_y[:, j, :]
                             / math.sqrt(snr) - dithers[:, j, :])
        decoded = decode(folded, pair)
        direct_errors[:, j] = np.any(decoded != leaders[idx[:, j]], axis=1)

    dither_sum = np.sum(dithers, axis=1)
    scaled = scheme.alpha_mod_sum * y_k / math.sqrt(scheme.aligned_power)
    s_hat = decode(mod_lattice(coarse, scaled - dither_sum), pair)
    s_true = _centered_mod(np.sum(leaders[idx], axis=1), pair.q)
    e1 = np.any(s_hat != s_true, axis=1)

    z_k = y_k - received - signal_k
    z_prime = z_k / math.sqrt(scheme.aligned_power)
    unwrapped = scheme.gamma * u_k + z_prime
    e2 = ~e1 & ~in_voronoi(coarse, unwrapped)

    normalized = y_k / math.sqrt(scheme.aligned_power)
    residual = mod_lattice(coarse,
                           normalized - s_hat * pair.fine.scale - dither_sum)
    scaled_k = scheme.alpha_user_k * residual / scheme.gamma
    t_k_hat = decode(mod_lattice(coarse_k, scaled_k - dither_k), pair_k)
    e3 = ~e1 & ~e2 & np.any(t_k_hat != leaders_k[idx_k], axis=1)

    u_sum = np.sum(u, axis=1)
    z_eff = (scheme.alpha_mod_sum - 1.0) * u_sum \
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
                 jobs: int = 1, noiseless: bool = False,
                 config_echo: str = "") -> CampaignReport:
    """Run ``trials`` independent trials and fold the outcomes.

    The trials run in order, on one thread, in ``ceil(trials / _BLOCK)``
    contiguous chunks; each chunk derives its own seeds, so memory stays
    bounded for any ``trials``.  The per-trial results are concatenated in
    index order before the single final aggregation.  ``jobs`` must be
    positive and is otherwise ignored: worker threads lost to one thread
    on the replay loop, so the report never depends on it.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if jobs < 1:
        raise ValueError("jobs must be positive")
    chunks = math.ceil(trials / _BLOCK)
    bounds = [i * trials // chunks for i in range(chunks + 1)]
    parts = [
        _batch_trial_arrays(
            scheme, [derive_trial_seed(master_seed, i) for i in range(lo, hi)],
            noiseless)
        for lo, hi in zip(bounds[:-1], bounds[1:])]
    merged = {key: np.concatenate([p[key] for p in parts])
              for key in parts[0]}
    direct_counts = tuple(
        int(np.sum(merged["direct_errors"][:, j]))
        for j in range(scheme.config.K - 1))
    return CampaignReport(
        trials=trials,
        master_seed=master_seed,
        e1_count=int(np.sum(merged["e1"])),
        e2_count=int(np.sum(merged["e2"])),
        e3_count=int(np.sum(merged["e3"])),
        direct_error_counts=direct_counts,
        mean_effective_noise_power=float(np.mean(merged["eff_power"])),
        mean_residual_power=float(np.mean(merged["residual_power"])),
        config_echo=config_echo)

"""Finite-dimensional Monte Carlo of the mod-sum secrecy scheme.

All K users share one nested lattice pair, so the interferers' mod-sum
is itself a codeword.  Per trial: each of the K-1 interfering users
folds a uniformly drawn codeword with a fresh dither and scales its
transmit power so that all interference arrives at receiver K with the
common power P = min a_i*P_i (signal-space alignment); user K transmits
its own dithered codeword at power P_K.  Receiver K decodes in three
stages: MMSE-scaled mod-sum decoding of the interference, subtraction of
the decoded mod-sum, then decoding of user K's codeword from the
residual.  Receivers 1..K-1 see interference-free direct links.

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
trial, then calls the same stages on (trials, ...) arrays, so its
reports are bit-identical to folding ``run_trial``.  A chunk holds
``CHUNK_DRAWS`` draws whatever K and N, and is folded as it finishes.

The replay (``_replay_draws``) hashes a chunk's seeds in one pass and
mirrors numpy's SeedSequence and PCG64 seeding on the whole chunk.  Up to
``_STEPPED_DRAWS`` = 32 draws (K*N) a trial, it steps every trial's PCG64
in numpy uint64 arithmetic, word by word (O'Neill, "PCG", 2014), and
turns each normal's word into numpy's ziggurat fast-path value (Marsaglia
& Tsang, JSS 2000) with numpy's own tables, read off
``Generator.standard_normal`` once per process (``_ziggurat``).  A row
with a normal off the fast path, about 1.5% of normals, redraws its
normals on one reused PCG64.  Wider trials take that per-row path for
all their draws: a stepped word costs about 0.15 us a trial, a per-row
state set about 6 us, and a noisy trial reads about 2*K*N words.
"""

from __future__ import annotations

import functools
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

# The same constants as uint64 words and shift counts: with numpy 1.24's
# value-based casting a Python int operand could widen a uint64 array.
_1, _8, _9, _32, _58, _63, _64 = map(np.uint64, (1, 8, 9, 32, 58, 63, 64))
_LO32 = np.uint64(_MASK32)
_BYTE = np.uint64(0xFF)
_MANTISSA = np.uint64((1 << 52) - 1)
_MULT_HI = np.uint64(_PCG64_MULT >> 64)
_MULT_LO = np.uint64(_PCG64_MULT & ((1 << 64) - 1))
_MULT_LO0, _MULT_LO1 = _MULT_LO & _LO32, _MULT_LO >> _32

#: Widest trial, in draws (K*N), whose PCG64 words are stepped in numpy
#: over the whole chunk; wider trials set one reused PCG64 per row.  The
#: two paths cost the same near K*N = 32 (measured on 2 cores, numpy 2.4).
_STEPPED_DRAWS = 32


@dataclass(frozen=True, eq=False)
class Scheme:
    """Immutable bundle of configuration, lattice pair and derived constants.

    All K users share ``pair``, whose coarse lattice is unit-second-moment
    normalized, which is what makes the power accounting exact.
    ``leaders`` is its codebook, a read-only (M, N) int64 array of
    coset-leader coordinates in ``codebook`` order; a codeword is a row
    index into it.
    """

    config: SystemConfig
    pair: NestedPair
    aligned_power: float
    gamma: float
    alpha_mod_sum: float
    alpha_user_k: float
    effective_noise_var: float
    interferer_amplitudes: tuple[float, ...]
    leaders: np.ndarray

    @classmethod
    def for_config(cls, cfg: SystemConfig, pair: NestedPair) -> "Scheme":
        if abs(second_moment(pair.coarse) - 1.0) > 1e-9:
            raise ValueError(
                "the coarse lattice must be normalized to unit second moment")
        p = cfg.p_aligned
        mmse = mmse_coefficients(cfg)
        return cls(
            config=cfg,
            pair=pair,
            aligned_power=p,
            gamma=mmse.gamma,
            alpha_mod_sum=mmse.alpha,
            alpha_user_k=cfg.p_k / (cfg.p_k + 1.0),
            effective_noise_var=mmse.effective_noise_var,
            interferer_amplitudes=tuple(math.sqrt(p / g) for g in cfg.a),
            leaders=codebook(pair))

    @property
    def dimension(self) -> int:
        return self.pair.dimension


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


def wilson_interval(count: int, trials: int) -> tuple[float, float]:
    """Wilson score interval at 95% for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be positive")
    p = count / trials
    z = _WILSON_Z95
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


def _fold_codewords(scheme: Scheme, index, dithers: np.ndarray):
    """The codewords at ``index`` plus ``dithers``, folded over the coarse
    cell; an index outside the codebook raises."""
    index = np.asarray(index)
    if np.any((index < 0) | (index >= len(scheme.leaders))):
        raise ValueError("codeword index outside the codebook")
    pair = scheme.pair
    return mod_lattice(pair.coarse,
                       scheme.leaders[index] * pair.fine.scale + dithers)


def _fold_dithers(scheme: Scheme, uniforms: np.ndarray):
    """Dithers from (..., K, N) uniforms on [0, 1), uniform over the cell.

    Each uniform vector is scaled to the coarse cell's box [0, s)^N and
    folded into the cell, a measure-preserving bijection.  Returns the
    (..., K-1, N) interferer dithers and user K's (..., N) dither, which
    comes from the last row.
    """
    coarse = scheme.pair.coarse
    return (mod_lattice(coarse, coarse.scale * uniforms[..., :-1, :]),
            mod_lattice(coarse, coarse.scale * uniforms[..., -1, :]))


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
    u = _fold_codewords(scheme, index, dithers)
    return u, np.asarray(scheme.interferer_amplitudes)[:, None] * u


def encode_user_k(scheme: Scheme, index, dither: np.ndarray):
    """Transmit signal of user K: dithered fold scaled to power P_K.

    ``index`` has shape (...) and ``dither`` (..., N).  Returns
    ``(u_k, signal_k)``: the folded codeword plus dither, and sqrt(P_K)*u_k.
    """
    u_k = _fold_codewords(scheme, index, dither)
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
    return _decode(scheme.pair,
                   alpha * direct / np.sqrt(snr) - dithers)


def decode_mod_sum(scheme: Scheme, y_k: np.ndarray,
                   dithers: np.ndarray) -> np.ndarray:
    """Stage one at receiver K: decode the mod-sum of the interference.

    Normalizes by sqrt(P), applies the variance-minimizing alpha, strips
    the sum over axis -2 of the (..., K-1, N) dither stack, folds and
    quantizes.  Returns centered coset-leader coordinates (..., N).
    """
    scaled = scheme.alpha_mod_sum * y_k / math.sqrt(scheme.aligned_power)
    return _decode(scheme.pair,
                   scaled - np.sum(dithers, axis=-2))


def subtract_interference(scheme: Scheme, y_k: np.ndarray, s_hat: np.ndarray,
                          dithers: np.ndarray) -> np.ndarray:
    """Stage two: remove the decoded mod-sum from the normalized output.

    ``s_hat`` holds leader coordinates as ``decode_mod_sum`` returns them.
    When it is correct the result equals gamma*U_K + Z' modulo the coarse
    cell, with Z' the receiver noise scaled by 1/sqrt(P).
    """
    pair = scheme.pair
    normalized = y_k / math.sqrt(scheme.aligned_power)
    return mod_lattice(pair.coarse, normalized - s_hat * pair.fine.scale
                       - np.sum(dithers, axis=-2))


def decode_user_k(scheme: Scheme, residual: np.ndarray,
                  dither: np.ndarray) -> np.ndarray:
    """Stage three: decode user K's codeword from the residual.

    The residual carries gamma*U_K at noise variance 1/P, an effective
    SNR of P_K; rescale by 1/gamma, apply alpha = P_K/(P_K+1), strip
    user K's dither and quantize.  Returns centered
    coset-leader coordinates (..., N).
    """
    scaled = scheme.alpha_user_k * residual / scheme.gamma
    return _decode(scheme.pair, scaled - dither)


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


def _trial_seeds(master_seed: int, lo: int, hi: int) -> np.ndarray:
    """``derive_trial_seed(master_seed, i)`` for i in [lo, hi), in one pass,
    as a uint64 array."""
    prefix = b"%d:" % master_seed
    digests = b"".join([hashlib.sha256(prefix + b"%d" % i).digest()[:8]
                        for i in range(lo, hi)])
    return np.frombuffer(digests, dtype=">u8").astype(np.uint64)


def run_trial(scheme: Scheme, trial_seed: int) -> TrialOutcome:
    """Simulate one block: draw, encode, transmit, decode, classify.

    Draw order (fixed contract): interferer codeword indices, user K
    codeword index, the dither uniforms in user order (user K last), then
    the channel noise in the same order.  ``rng.random((K, N))`` and
    ``standard_normal((K, N))`` read the same stream as one call per user.
    """
    rng = np.random.default_rng(trial_seed)
    k = scheme.config.K
    n = scheme.dimension
    pair = scheme.pair
    leaders = scheme.leaders

    idx = rng.integers(0, len(leaders), size=k - 1)
    idx_k = rng.integers(0, len(leaders))
    dithers, dither_k = _fold_dithers(scheme, rng.random((k, n)))
    noise = rng.standard_normal((k, n))

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
        np.array_equal(t_k_hat, leaders[idx_k]))

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
    lo = (seeds & _LO32).astype(np.uint32)
    hi = (seeds >> _32).astype(np.uint32)
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
    return np.stack([halves[2 * j] | (halves[2 * j + 1] << _32)
                     for j in range(4)], axis=-1)


def _pcg64_step(state):
    """One LCG step, ``state*MULT + inc`` mod 2^128, on (hi, lo, inc_hi,
    inc_lo) uint64 arrays; the increment words pass through unchanged."""
    hi, lo, inc_hi, inc_lo = state
    # high word of lo*MULT_LO from 32-bit halves, since numpy has no
    # 64x64->128 multiply
    lo0, lo1 = lo & _LO32, lo >> _32
    p00, p01, p10 = lo0 * _MULT_LO0, lo0 * _MULT_LO1, lo1 * _MULT_LO0
    mid = (p00 >> _32) + (p01 & _LO32) + (p10 & _LO32)
    new_lo = lo * _MULT_LO + inc_lo
    new_hi = (hi * _MULT_LO + lo * _MULT_HI + lo1 * _MULT_LO1 + (p01 >> _32)
              + (p10 >> _32) + (mid >> _32) + inc_hi + (new_lo < inc_lo))
    return new_hi, new_lo, inc_hi, inc_lo


def _pcg64_seed_state(seeds):
    """The (hi, lo, inc_hi, inc_lo) state of ``np.random.PCG64(seed)`` for
    every seed, from ``_seed_words``: with words (w0, w1, w2, w3), the
    increment is (w2:w3 << 1) | 1 and the state is one step on from
    inc + w0:w1, as ``pcg_setseq_128_srandom_r`` seeds it."""
    w0, w1, w2, w3 = _seed_words(seeds).T
    inc_hi = (w2 << _1) | (w3 >> _63)
    inc_lo = (w3 << _1) | _1
    lo = inc_lo + w1
    return _pcg64_step((inc_hi + w0 + (lo < w1), lo, inc_hi, inc_lo))


def _pcg64_words(state, count: int):
    """The next ``count`` PCG64 outputs of every row of ``state``.

    Each step is an LCG step then the XSL-RR output of the new state
    (high xor low word, rotated right by the top 6 bits), as numpy's
    ``random_raw``.  Returns the (rows, count) uint64 words and the state
    after them.
    """
    words = np.empty((count, len(state[0])), dtype=np.uint64)
    for j in range(count):
        state = _pcg64_step(state)
        hi, lo = state[:2]
        mixed = hi ^ lo
        rot = hi >> _58
        words[j] = (mixed >> rot) | (mixed << ((_64 - rot) & _63))
    return words.T, state


def _row_draws(state, rows, raw, normals) -> None:
    """Per-row draws on one reused PCG64, for each row ``i`` in ``rows``.

    Sets the generator to row i of ``state`` (the (hi, lo, inc_hi,
    inc_lo) arrays), then fills ``raw[i]`` with raw words, unless ``raw``
    is None, and ``normals[i]`` with numpy's ``standard_normal``.
    """
    rows = np.asarray(rows, dtype=np.intp)
    if not len(rows):
        return
    bit_gen = np.random.PCG64(0)
    gen = np.random.Generator(bit_gen)
    inner = {"state": 0, "inc": 0}
    full = {"bit_generator": "PCG64", "state": inner,
            "has_uint32": 0, "uinteger": 0}
    hi, lo, inc_hi, inc_lo = (word[rows].tolist() for word in state)
    for i, h, l, ih, il in zip(rows.tolist(), hi, lo, inc_hi, inc_lo):
        inner["state"], inner["inc"] = (h << 64) | l, (ih << 64) | il
        bit_gen.state = full
        if raw is not None:
            raw[i] = bit_gen.random_raw(raw.shape[1])
        gen.standard_normal(out=normals[i])


def _table_normals(words, out, tables) -> np.ndarray:
    """numpy's ziggurat fast path on whole (rows, count) word arrays.

    A word's low byte is its layer j, bit 8 its sign and the next 52 bits
    ``rabs``; the normal is ±rabs*wi[j] when rabs < ki[j].  Writes those
    values to ``out`` and returns, per row, whether every word of the row
    is under ``tables``' proven bound, so that its row is exact.
    """
    wi, bound = tables
    layer = (words & _BYTE).astype(np.intp)
    rabs = (words >> _9) & _MANTISSA
    x = rabs.astype(np.float64) * wi[layer]
    out[...] = np.where(((words >> _8) & _1).astype(bool), -x, x)
    return np.all(rabs < bound[layer], axis=1)


def _ziggurat_matches_numpy(tables) -> bool:
    """The self-check of a read-off: 64 fixed rows of 16 table normals
    equal ``standard_normal`` bit for bit wherever a row is exact."""
    state = _pcg64_seed_state(np.arange(64))
    got, want = np.empty((2, 64, 16))
    exact = _table_normals(_pcg64_words(state, 16)[0], got, tables)
    _row_draws(state, range(64), None, want)
    return bool(exact.any()) and np.array_equal(
        got[exact].view(np.uint64), want[exact].view(np.uint64))


@functools.cache
def _ziggurat():
    """numpy's normal ziggurat as ``(wi, bound)`` arrays over its 256
    layers, read off ``Generator.standard_normal`` once per process.

    numpy reads a word: layer j is its low byte, bit 8 the sign and the
    next 52 bits ``rabs``.  When rabs < ki[j] it returns ±rabs*wi[j] at
    once (the fast path); otherwise it reads more words.  A probe sets a
    PCG64 whose next two outputs are chosen words, draws normals, and
    reads the number of words used off the state afterwards.  Two normals
    that used two words both took the fast path.  One normal that used
    at most two words returned rabs*wi[j] as well: a wedge acceptance
    uses two words and returns that value, the tail of layer 0 at least
    three.

    wi is read at rabs = 1.  Marsaglia & Tsang's tables have ki[j] =
    2^52 wi[j-1]/wi[j] for j >= 2, ki[0] = 2^52 wi[255]/wi[0] and
    ki[1] = 0.  Such a candidate c becomes layer j's bound only once a
    probe at rabs = c - 1 took the fast path and returned (c-1)*wi[j],
    which proves that every rabs < c does.  If a probe or the self-check
    fails, every bound is 0: every normal then counts as off the fast
    path, and numpy draws each row's normals itself.
    """
    bit_gen = np.random.PCG64(0)
    gen = np.random.Generator(bit_gen)
    inner = {"state": 0, "inc": 0}
    full = {"bit_generator": "PCG64", "state": inner,
            "has_uint32": 0, "uinteger": 0}
    mult_inv = pow(_PCG64_MULT, -1, 1 << 128)

    def draw(first: int, second: int, count: int):
        # The states s1 = first and s2 (high half h, low half second ^ h)
        # output those two words.  h makes the increment odd, so the LCG
        # has full period and the state after the draw counts the words.
        h = (first ^ second ^ 1) & 1
        s2 = (h << 64) | (second ^ h)
        inc = (s2 - first * _PCG64_MULT) & _MASK128
        inner["state"] = ((first - inc) * mult_inv) & _MASK128
        inner["inc"] = inc
        bit_gen.state = full
        x = gen.standard_normal(count).tolist()
        after = bit_gen.state["state"]["state"]
        return x, {first: 1, s2: 2}.get(after, 0)

    def fast_normals(words):
        # the normals of ``words`` if each took the fast path, else None
        padded = words + words[:len(words) % 2]
        values = []
        for first, second in zip(padded[::2], padded[1::2]):
            x, used = draw(first, second, 2)
            if used != 2:
                return None
            values += x
        return values[:len(words)]

    failed = np.zeros(256), np.zeros(256, dtype=np.uint64)
    layers = [j for j in range(256) if j != 1]
    wi = fast_normals([(1 << 9) | j for j in layers])
    top, used = draw((1 << 9) | 1, 0, 1)
    if wi is None or not used:
        return failed
    wi.insert(1, top[0])
    bound = [int(2.0 ** 52 * (wi[j - 1] / wi[j])) for j in layers]
    if fast_normals([((c - 1) << 9) | j for c, j in zip(bound, layers)]) != [
            (c - 1) * wi[j] for c, j in zip(bound, layers)]:
        return failed
    bound.insert(1, 0)
    tables = np.array(wi), np.array(bound, dtype=np.uint64)
    return tables if _ziggurat_matches_numpy(tables) else failed


def _replay_draws(seeds, m: int, k1: int, n: int):
    """run_trial's draws for every seed, without a generator per trial.

    Returns ``(idx, uniforms, noise)``: the (trials, k1 + 1) indices into
    a codebook of size ``m`` and the (trials, k1 + 1, n) dither uniforms
    and channel normals, interferers first and user K last, bit-identical
    to the draws of ``np.random.default_rng(seed)`` in run_trial's order.

    The seeds' PCG64 states are made for the whole chunk at once
    (``_pcg64_seed_state``).  When a trial has at most ``_STEPPED_DRAWS``
    draws (K*N), every trial's PCG64 is stepped in numpy uint64
    arithmetic, word by word over the chunk, and the normals' words go
    through numpy's ziggurat tables (``_ziggurat``); a row with a normal
    off the fast path redraws its normals on one reused PCG64, from the
    state saved before its first normal word.  Wider trials take that
    per-row path for all their draws.  The indices are Lemire's
    (x * m) >> 32 on the 32-bit halves, low half first, which is how
    ``integers`` consumes them for 2 <= m < 2^32 (a codebook has 2 to
    ``ENUMERATION_CAP`` rows); the uniforms are (w >> 11) * 2^-53.  A row
    where ``integers`` would have rejected a draw is replayed through
    ``default_rng`` instead.
    """
    t_count = len(seeds)
    users = k1 + 1
    index_words = (users + 1) // 2
    state = _pcg64_seed_state(seeds)
    noise = np.empty((t_count, users, n))
    normals = noise.reshape(t_count, users * n)
    if users * n <= _STEPPED_DRAWS:
        raw, state = _pcg64_words(state, index_words + users * n)
        words = _pcg64_words(state, users * n)[0]
        fast = _table_normals(words, normals, _ziggurat())
        _row_draws(state, np.flatnonzero(~fast), None, normals)
    else:
        raw = np.empty((t_count, index_words + users * n), dtype=np.uint64)
        _row_draws(state, range(t_count), raw, normals)
    halves = np.empty((t_count, 2 * index_words), dtype=np.uint64)
    halves[:, 0::2] = raw[:, :index_words] & _LO32
    halves[:, 1::2] = raw[:, :index_words] >> _32
    scaled = halves[:, :users] * np.uint64(m)
    idx = (scaled >> _32).astype(np.int64)
    uniforms = ((raw[:, index_words:] >> np.uint64(11))
                * (1.0 / 9007199254740992.0)).reshape(t_count, users, n)
    rejected = np.any((scaled & _LO32) < np.uint64(2 ** 32 % m), axis=1)
    for i in np.flatnonzero(rejected).tolist():
        rng = np.random.default_rng(seeds[i])
        idx[i] = rng.integers(0, m, size=users)
        uniforms[i] = rng.random((users, n))
        noise[i] = rng.standard_normal((users, n))
    return idx, uniforms, noise


def _batch_trial_arrays(scheme: Scheme, seeds) -> dict:
    """Vectorized engine: all trials for ``seeds`` as flat arrays.

    Takes run_trial's draws from ``_replay_draws`` (the v1 draw contract,
    replayed on the whole chunk) and calls the same stage functions on
    (trials, ...) arrays, each once per chunk.  Only the bookkeeping
    between the stages is its own, written apart from run_trial's so that
    the oracle engine = run_trial checks it; every per-trial value is
    bit-identical to the reference.
    """
    k1 = scheme.config.K - 1
    pair = scheme.pair
    leaders = scheme.leaders
    n = scheme.dimension

    idx_all, uniforms, noise = _replay_draws(seeds, len(leaders), k1, n)
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
        np.all(t_k_hat == leaders[idx_k], axis=1))

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


def run_campaign(scheme: Scheme, trials: int,
                 master_seed: int) -> CampaignReport:
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
        part = _batch_trial_arrays(scheme, _trial_seeds(master_seed, lo, hi))
        events += [np.count_nonzero(part[e]) for e in ("e1", "e2", "e3")]
        direct += np.count_nonzero(part["direct_errors"], axis=0)
        eff_power.append(part["eff_power"])
        residual_power.append(part["residual_power"])
    e1, e2, e3 = events.tolist()
    return CampaignReport(
        trials=trials,
        e1_count=e1, e2_count=e2, e3_count=e3,
        direct_error_counts=tuple(direct.tolist()),
        mean_effective_noise_power=float(np.mean(np.concatenate(eff_power))),
        mean_residual_power=float(np.mean(np.concatenate(residual_power))))

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
its centered coset-leader coordinates, an int64 (..., N) row, the K-1
interferers form a (..., K-1, N) stack, and a decoder returns rows of
that format.  The user axis is an ordinary batch axis: no stage loops
over users in Python.

Reproducibility (draw contract v2): every draw of a campaign comes from
Philox4x32-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
3", SC'11), written in numpy uint64 arithmetic.  The key is set once per
campaign: the master seed when it lies in [0, 2^64), else the first 8
bytes of its SHA-256.  Trial i's block b is the counter (i lo32, i hi32,
b, 0), so a trial is replayed from (master seed, i) alone.  A trial's
words give, in order: K codewords of log_q(M) digits mod q (Lemire's
multiply-high with rejection), K*N 53-bit dither uniforms, and K*N
channel normals by Box-Muller; ``_draws`` states the rule exactly.
One draw function, ``_codeword_draws``, serves ``run_campaign`` on each
chunk's trial range and ``run_trial``, the single-trial reference, on
one row; both call the same stages, so the campaign's reports are
bit-identical to folding ``run_trial``.  A chunk holds ``CHUNK_DRAWS``
draws whatever K and N, and is folded as it finishes.  The normals go
through numpy's SIMD log, cos and sin, so the per-trial floats are
reproducible on one machine; the CSV's counts and six-decimal means are
the portable contract.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InvariantViolationError
from .lattices import (
    NestedPair,
    _reduce_axis,
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

# Philox4x32-10's round multipliers and Weyl key increments, as in
# Random123.
_PHILOX_MULT = (0xD2511F53, 0xCD9E8D57)
_PHILOX_WEYL = (0x9E3779B9, 0xBB67AE85)
_PHILOX_ROUNDS = 10
_MASK32 = (1 << 32) - 1

# uint64 constants and shift counts: with numpy 1.24's value-based
# casting a Python int operand could widen a uint64 array.
_LO32 = np.uint64(_MASK32)
_11, _32 = np.uint64(11), np.uint64(32)


@dataclass(frozen=True, eq=False)
class Scheme:
    """Immutable bundle of configuration, lattice pair and derived constants.

    All K users share ``pair``, whose coarse lattice is unit-second-moment
    normalized, which is what makes the power accounting exact.
    """

    config: SystemConfig
    pair: NestedPair
    aligned_power: float
    gamma: float
    alpha_mod_sum: float
    alpha_user_k: float
    effective_noise_var: float
    interferer_amplitudes: tuple[float, ...]

    @classmethod
    def for_config(cls, cfg: SystemConfig, pair: NestedPair) -> "Scheme":
        if abs(second_moment(pair.coarse) - 1.0) > 1e-9:
            raise ValueError(
                "the coarse lattice must be normalized to unit second moment")
        draws = cfg.K * pair.dimension
        if draws > CHUNK_DRAWS:
            raise CapacityError(f"K*N = {draws} draws exceed {CHUNK_DRAWS}")
        if pair.q > 1 << 32:
            raise CapacityError(f"q = {pair.q} exceeds 2^32")
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
            interferer_amplitudes=tuple(math.sqrt(p / g) for g in cfg.a))

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


def _fold_codewords(scheme: Scheme, codewords, dithers: np.ndarray):
    """``codewords`` plus ``dithers``, folded over the coarse cell."""
    pair = scheme.pair
    return mod_lattice(pair.coarse,
                       np.asarray(codewords) * pair.fine.scale + dithers)


def _fold_dithers(scheme: Scheme, uniforms: np.ndarray):
    """Dithers from (..., K, N) uniforms on [0, 1), uniform over the cell.

    Each uniform vector is scaled to the coarse cell's box [0, s)^N and
    folded into the cell, a measure-preserving bijection.  Returns the
    (..., K-1, N) interferer dithers, their (..., N) sum added user by
    user, and user K's (..., N) dither, which comes from the last row.
    """
    coarse = scheme.pair.coarse
    dithers = mod_lattice(coarse, coarse.scale * uniforms[..., :-1, :])
    return (dithers, _reduce_axis(np.add, dithers, -2),
            mod_lattice(coarse, coarse.scale * uniforms[..., -1, :]))


def _decode(pair: NestedPair, x: np.ndarray) -> np.ndarray:
    """Fold ``x`` over the coarse cell, quantize it to the fine lattice and
    reduce to centered coset-leader coordinates, for every (..., N) row."""
    folded = mod_lattice(pair.coarse, x)
    return pair.reduce(nearest_coords(pair.fine, folded))


def encode_interferer(scheme: Scheme, codewords, dithers: np.ndarray):
    """Transmit signals of the K-1 interfering users.

    ``codewords`` and ``dithers`` are (..., K-1, N) stacks; a user axis
    of another length raises ``ValueError``.  Each codeword plus dither
    is folded over the coarse cell, giving ``u``; user i's row is then
    scaled by sqrt(P/a_i) so it arrives at receiver K with power P.  The
    transmit power P/a_i never exceeds the user's constraint.  Returns
    ``(u, signals)``, both of shape (..., K-1, N).
    """
    k1 = scheme.config.K - 1
    if {np.shape(codewords)[-2:-1], np.shape(dithers)[-2:-1]} != {(k1,)}:
        raise ValueError(f"interferer stacks need a user axis of length {k1}")
    u = _fold_codewords(scheme, codewords, dithers)
    return u, np.asarray(scheme.interferer_amplitudes)[:, None] * u


def encode_user_k(scheme: Scheme, codeword, dither: np.ndarray):
    """Transmit signal of user K: dithered fold scaled to power P_K.

    ``codeword`` and ``dither`` have shape (..., N).  Returns
    ``(u_k, signal_k)``: the folded codeword plus dither, and sqrt(P_K)*u_k.
    """
    u_k = _fold_codewords(scheme, codeword, dither)
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
    # _reduce_axis adds the users in order, user 1 first, at every N and
    # batch size; np.sum adds a contiguous run of 8 or more pairwise
    interference = _reduce_axis(np.add, weighted, -2)
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
                   dither_sum: np.ndarray) -> np.ndarray:
    """Stage one at receiver K: decode the mod-sum of the interference.

    Normalizes by sqrt(P), applies the variance-minimizing alpha, strips
    ``dither_sum``, the (..., N) sum of the interferers' dithers, folds
    and quantizes.  Returns centered coset-leader coordinates (..., N).
    """
    scaled = scheme.alpha_mod_sum * y_k / math.sqrt(scheme.aligned_power)
    return _decode(scheme.pair, scaled - dither_sum)


def subtract_interference(scheme: Scheme, y_k: np.ndarray, s_hat: np.ndarray,
                          dither_sum: np.ndarray) -> np.ndarray:
    """Stage two: remove the decoded mod-sum from the normalized output.

    ``s_hat`` and ``dither_sum`` are as in ``decode_mod_sum``.  When
    ``s_hat`` is correct the result equals gamma*U_K + Z' modulo the
    coarse cell, with Z' the receiver noise scaled by 1/sqrt(P).
    """
    pair = scheme.pair
    normalized = y_k / math.sqrt(scheme.aligned_power)
    return mod_lattice(pair.coarse, normalized - s_hat * pair.fine.scale
                       - dither_sum)


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


def _campaign_key(master_seed: int) -> int:
    """The campaign's Philox key: the master seed itself when it lies in
    [0, 2^64), else the first 8 bytes (big-endian) of the SHA-256 of its
    decimal string."""
    if 0 <= master_seed < 1 << 64:
        return master_seed
    digest = hashlib.sha256(str(master_seed).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def derive_trial_seed(master_seed: int, index: int) -> tuple[int, int]:
    """Trial ``index``'s origin under draw contract v2: the pair
    (campaign key, index) that ``run_trial`` draws from."""
    if not 0 <= index < 1 << 64:
        raise ValueError("trial index must lie in [0, 2^64)")
    return _campaign_key(master_seed), index


def _philox(key: int, counter) -> np.ndarray:
    """Philox4x32-10 under ``key``'s (lo32, hi32) words of ``counter``,
    four uint64 arrays of 32-bit words that broadcast together; returns
    the four output words on a last axis.  Each 32x32-bit product fits
    in a uint64, so no step needs a wider multiply."""
    m0, m1 = map(np.uint64, _PHILOX_MULT)
    c0, c1, c2, c3 = np.broadcast_arrays(*counter)
    for r in range(_PHILOX_ROUNDS):
        k0, k1 = (np.uint64((word + r * weyl) & _MASK32) for word, weyl in
                  zip((key & _MASK32, key >> 32), _PHILOX_WEYL))
        # one word at a time, so that few chunk-sized arrays live at once
        p0, p1 = c0 * m0, c2 * m1
        c0 = (p1 >> _32) ^ c1 ^ k0
        c2 = (p0 >> _32) ^ c3 ^ k1
        c1, c3 = p1 & _LO32, p0 & _LO32
    return np.stack((c0, c1, c2, c3), axis=-1)


def _trial_blocks(key: int, trial, block) -> np.ndarray:
    """The words of counter blocks (trial lo32, trial hi32, block, 0), for
    uint64 ``trial`` and ``block`` arrays that broadcast together."""
    return _philox(key, (trial & _LO32, trial >> _32, block, np.uint64(0)))


def _draws(key: int, lo: int, hi: int, q: int, digits: int, users: int,
           n: int):
    """The draws of trials [lo, hi) under draw contract v2.

    Returns ``(digits, uniforms, normals)`` of shapes (rows, users,
    digits), (rows, users, n) and (rows, users, n): digits in [0, q),
    uniforms in [0, 1) and standard normals.  Row r reads trial lo + r's
    words, block by block (``_trial_blocks``), in this order: the digits,
    the uniforms, then the normals' uniforms.  A digit is (w*q) >> 32, unless
    (w*q) mod 2^32 < 2^32 mod q (Lemire); a rejected digit, in the
    trial's digit order, takes word 0 of the trial's next unused block,
    from the first block past those words, until it is accepted.  A
    uniform is ((a*2^32 + b) >> 11) * 2^-53 for its two words (a, b).
    Box-Muller turns the uniforms (u, v) of normal pair p into normals 2p
    and 2p + 1, sqrt(-2 ln(1-u)) times cos and sin of 2 pi v; the last
    sine is dropped when users*n is odd.  Every array np.log, np.cos or
    np.sin reads is contiguous, so a trial's floats do not depend on the
    rows drawn with it.  ``Scheme.for_config`` checks q <= 2^32 for the
    digit rule, and users*n <= ``CHUNK_DRAWS`` for the 32-bit block b.
    """
    rows, size, draws = hi - lo, users * digits, users * n
    pairs = (draws + 1) // 2
    end = size + 2 * draws + 4 * pairs
    blocks = -(-end // 4)
    trials = np.uint64(lo) + np.arange(rows, dtype=np.uint64)
    words = _trial_blocks(key, trials[:, None],
                          np.arange(blocks, dtype=np.uint64)).reshape(rows, -1)
    mult = np.uint64(q)
    threshold = np.uint64((1 << 32) % q)
    product = words[:, :size] * mult
    coded = (product >> _32).astype(np.int64)
    # a q dividing 2^32 rejects no word, so its scan is skipped
    rejected = (np.argwhere((product & _LO32) < threshold).tolist()
                if threshold else [])
    next_block = {}
    for r, j in rejected:
        block = next_block.get(r, blocks)
        word = np.uint64(0)  # rejected, as threshold > 0 here
        while word * mult & _LO32 < threshold:
            word = _trial_blocks(key, np.uint64(lo + r), np.uint64(block))[0]
            block += 1
        next_block[r] = block
        coded[r, j] = int(word * mult >> _32)
    high, low = words[:, size:end:2], words[:, size + 1:end:2]
    uniforms = ((high << _32 | low) >> _11) * 2.0 ** -53
    radius = np.sqrt(-2.0 * np.log(1.0 - uniforms[:, draws::2]))
    angle = 2.0 * math.pi * uniforms[:, draws + 1::2]
    normals = np.stack([radius * np.cos(angle), radius * np.sin(angle)], -1)
    return (coded.reshape(rows, users, digits),
            uniforms[:, :draws].reshape(rows, users, n),
            normals.reshape(rows, -1)[:, :draws].reshape(rows, users, n))


def _codeword_draws(scheme: Scheme, key: int, lo: int, hi: int):
    """``_draws`` of trials [lo, hi) for ``scheme``: the (rows, K, N) int64
    codewords, each the ``codebook`` row at its digits' mixed-radix value
    (most significant first), then the dither uniforms and the channel
    normals, interferers first and user K last.  A cubic codeword is its
    N digits minus (q-1)//2, with no table; a Construction-A one has
    log_q(M) digits and is looked up in the pair's ``codewords``."""
    q, n, table = scheme.pair.q, scheme.dimension, scheme.pair.fine.codewords
    d = n if table is None else round(math.log(len(table), q))
    digits, uniforms, normals = _draws(key, lo, hi, q, d, scheme.config.K, n)
    if table is None:
        return digits - (q - 1) // 2, uniforms, normals
    return table[digits @ q ** np.arange(d - 1, -1, -1)], uniforms, normals


def run_trial(scheme: Scheme, trial_seed: tuple[int, int]) -> TrialOutcome:
    """Simulate one block: draw, encode, transmit, decode, classify.

    ``trial_seed`` is ``derive_trial_seed(master_seed, i)``, the pair
    (key, i); the draws are row i of ``_codeword_draws``, the engine's
    draw function, in its order: codewords, dither uniforms and channel
    noise, interferers first and user K last.
    """
    key, i = trial_seed
    codewords, uniforms, noise = (a[0] for a in _codeword_draws(
        scheme, key, i, i + 1))
    k = scheme.config.K
    n = scheme.dimension
    pair = scheme.pair

    cw, cw_k = codewords[:k - 1], codewords[k - 1]
    dithers, dither_sum, dither_k = _fold_dithers(scheme, uniforms)

    u, signals = encode_interferer(scheme, cw, dithers)
    u_k, signal_k = encode_user_k(scheme, cw_k, dither_k)
    direct, interference, y_k = apply_channel(scheme, signals, signal_k,
                                              noise)

    decoded = decode_direct(scheme, direct, dithers)
    direct_errors = tuple(
        _reduce_axis(np.logical_or, decoded != cw, 1).tolist())

    s_hat = decode_mod_sum(scheme, y_k, dither_sum)
    s_true = pair.reduce(_reduce_axis(np.add, cw, 0))

    # Reconstruct the exact unwrapped residual from simulator-side truth:
    # gamma*U_K + Z'; the wrap event is its escape from the coarse cell.
    z_prime = (y_k - interference - signal_k) / math.sqrt(scheme.aligned_power)
    unwrapped = scheme.gamma * u_k + z_prime

    residual = subtract_interference(scheme, y_k, s_hat, dither_sum)
    t_k_hat = decode_user_k(scheme, residual, dither_k)

    e1, e2, e3 = classify_events(
        np.array_equal(s_hat, s_true),
        in_voronoi(pair.coarse, unwrapped),
        np.array_equal(t_k_hat, cw_k))

    z_eff = (scheme.alpha_mod_sum - 1.0) * _reduce_axis(np.add, u, 0) \
        + scheme.alpha_mod_sum * unwrapped
    return TrialOutcome(
        direct_errors=direct_errors,
        e1=bool(e1), e2=bool(e2), e3=bool(e3),
        effective_noise_power=float(np.sum(z_eff * z_eff)) / n,
        residual_power=float(np.sum(residual * residual)) / n)


def _batch_trial_arrays(scheme: Scheme, key: int, lo: int, hi: int) -> dict:
    """Vectorized engine: trials [lo, hi) under ``key`` as flat arrays.

    Draws through ``_codeword_draws`` on the whole range, as run_trial
    does on one row, and calls the same stage functions on (trials, ...)
    arrays, each once per chunk.  Only the bookkeeping between the stages
    is its own, written apart from run_trial's so that the oracle engine
    = run_trial checks it; every per-trial value is bit-identical to the
    reference.
    """
    k1 = scheme.config.K - 1
    pair = scheme.pair
    n = scheme.dimension

    codewords, uniforms, noise = _codeword_draws(scheme, key, lo, hi)
    cw, cw_k = codewords[:, :k1], codewords[:, k1]
    dithers, dither_sum, dither_k = _fold_dithers(scheme, uniforms)

    u, signals = encode_interferer(scheme, cw, dithers)
    u_k, signal_k = encode_user_k(scheme, cw_k, dither_k)
    direct, interference, y_k = apply_channel(scheme, signals, signal_k,
                                              noise)

    direct_errors = _reduce_axis(
        np.logical_or, decode_direct(scheme, direct, dithers) != cw, -1)

    s_hat = decode_mod_sum(scheme, y_k, dither_sum)
    s_true = pair.reduce(_reduce_axis(np.add, cw, 1))

    z_prime = (y_k - interference - signal_k) / math.sqrt(scheme.aligned_power)
    unwrapped = scheme.gamma * u_k + z_prime

    residual = subtract_interference(scheme, y_k, s_hat, dither_sum)
    t_k_hat = decode_user_k(scheme, residual, dither_k)

    e1, e2, e3 = classify_events(
        _reduce_axis(np.logical_and, s_hat == s_true, 1),
        in_voronoi(pair.coarse, unwrapped),
        _reduce_axis(np.logical_and, t_k_hat == cw_k, 1))

    z_eff = (scheme.alpha_mod_sum - 1.0) * _reduce_axis(np.add, u, 1) \
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
    whatever K and N.  The campaign key is derived once; each chunk draws
    its own trials' counter blocks under it and is folded as it finishes:
    its event and direct-link counts are added as integers, and only its
    two per-trial power arrays are kept, so that the mean of their
    concatenation does not depend on the chunking.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    events = np.zeros(3, dtype=np.int64)
    direct = np.zeros(scheme.config.K - 1, dtype=np.int64)
    eff_power, residual_power = [], []
    key = _campaign_key(master_seed)
    for lo, hi in chunk_bounds(trials, scheme.config.K * scheme.dimension):
        part = _batch_trial_arrays(scheme, key, lo, hi)
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

"""Exact secrecy accounting on finite quotient-group codebooks.

The eavesdropper-relevant observation of the K-1 interfering codewords
reduces to the pair (folded sum, candidate index): the mod-sum of the
codewords plus the small integer that pins down their true integer sum.
Everything here derives from exact integer tallies over the uniform
product distribution (denominators are powers of the codebook size), so
the entropy identities hold to float rounding, not to sampling error.
``leakage_row`` is the one leakage computation: it reads every column of
``lsl leakage`` off the tallies of 0, 1, K-2 and K-1 summed codewords.

A Construction-A pair is tallied whole by a ``DiscreteEnsemble``, whose
elements are the pair's ``codebook``: the centered coordinate rows of
the quotient fine/coarse, a group under coordinate addition mod q; each
``_sum_step`` adds every element to every support row.  A cubic pair's
coordinates are iid, so each of its entropies is N times that of one
coordinate.  The sums of j residues of Z_q are consecutive integers, so
its row keeps one Python-int count vector over them and steps it by a
prefix sum (``_residue_step``): no codebook, no closure test, no row
expansion, and a cap on the work a direct window sum would do, not on
the q^(K-1) joint states.  Entropies are in bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, InvariantViolationError
from .lattices import (
    CUBIC,
    NestedPair,
    _centered_mod,
    codebook,
    make_cubic_pair,
)
from .representation import window_index

#: Most work one leakage row may do: a Construction-A ensemble's M^(K-1)
#: joint states, or for a cubic row q additions per count of each step's
#: input, the work of a direct window sum.
STATE_CAP = 10_000_000

#: Most bits of a cubic pair's codebook size M = q^N, so N*log2(q).
#: Its row tallies one coordinate whatever N, and this bounds the rest:
#: M itself and the cells printed from it.
MAX_CODEBOOK_BITS = 4096


def check_power_bits(what: str, base: int, exponent: int):
    """Reject base^exponent over 2^MAX_CODEBOOK_BITS without building it."""
    if exponent * math.log2(base) > MAX_CODEBOOK_BITS:
        raise CapacityError(
            f"{what} {base}^{exponent} exceeds 2^{MAX_CODEBOOK_BITS}")


def _check_states(size: int, exponent: int):
    """Reject size^exponent states over ``STATE_CAP`` without building the
    power: any size >= 2 raised to the cap's bit length passes the cap."""
    if size ** min(exponent, STATE_CAP.bit_length()) > STATE_CAP:
        raise CapacityError(
            f"state space {size}^{exponent} exceeds cap {STATE_CAP}")


@dataclass(frozen=True)
class DiscreteEnsemble:
    """K-1 iid uniform codewords over the codebook of one nested pair.

    ``pair`` and ``num_users`` are the ensemble's identity.  ``elements``
    is ``codebook(pair)``, the read-only (M, N) int64 array of coset
    leaders, built on first use; the rows form a group under coordinate
    addition mod q.  Construction checks the M^(K-1) joint states, the
    largest tally any column reads, against ``STATE_CAP`` before the
    codebook is built and before the M^2 pair sums of its closure test
    are tallied; since K >= 3 that covers the closure test too.
    ``leakage_row`` builds one for Construction-A pairs only.
    """

    pair: NestedPair
    num_users: int
    #: ``_sum_counts`` results by number of summed elements.
    _tallies: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        if self.num_users < 3:
            raise ValueError("need at least 3 users")
        self._check_cap(self.num_users - 1)
        # Closed iff the folded pair sums add no row to the elements.
        rows = np.vstack([self.elements,
                          _centered_mod(self._sum_counts(2)[0], self.pair.q)])
        if len(_tally(rows, np.zeros(len(rows), np.int64))[0]) != self.size:
            raise InvariantViolationError(
                "codebook is not closed under mod-q addition")

    @functools.cached_property
    def elements(self) -> np.ndarray:
        return codebook(self.pair)

    @property
    def size(self) -> int:
        return self.pair.nesting_ratio

    def _check_cap(self, exponent: int):
        _check_states(self.size, exponent)

    def _sum_counts(self, num_vars: int):
        """The read-only tally of ``num_vars`` summed elements, kept on
        the ensemble: the closure check and ``leakage_row`` share it."""
        if num_vars not in self._tallies:
            if num_vars == 0:
                sums = np.zeros((1, self.pair.dimension), dtype=np.int64)
                counts = np.ones(1, dtype=np.int64)
            else:
                sums, counts = _sum_step(self._sum_counts(num_vars - 1),
                                         self.elements)
            sums.flags.writeable = counts.flags.writeable = False
            self._tallies[num_vars] = sums, counts
        return self._tallies[num_vars]


def _tally(keys: np.ndarray, counts: np.ndarray):
    """Merge the equal rows of ``keys`` (S, N), adding up their counts."""
    order = np.lexsort(keys.T[::-1])
    keys, counts = keys[order], counts[order]
    starts = np.flatnonzero(np.concatenate(
        ([True], np.any(keys[1:] != keys[:-1], axis=1))))
    return keys[starts], np.add.reduceat(counts, starts)


def _sum_step(tally, elements: np.ndarray):
    """The tally of one more summand: add every (M, N) element to every
    support row of ``tally`` (sums, counts) and merge equal sums, so
    memory is (support x M) rows, never the dense sum box."""
    sums, counts = tally
    return _tally((sums[:, None, :] + elements).reshape(-1, elements.shape[1]),
                  np.repeat(counts, len(elements)))


def _residue_step(counts: np.ndarray, q: int) -> np.ndarray:
    """The counts of one more summand uniform over q consecutive residues:
    over consecutive sums, c'[s] = c[s-q+1] + ... + c[s], one prefix sum
    and one difference q places back.  The support grows by q-1."""
    prefix = np.cumsum(np.concatenate((counts, np.zeros(q - 1, object))))
    return np.concatenate((prefix[:q], prefix[q:] - prefix[:-q]))


def _mean_log2(counts: np.ndarray) -> float:
    """Sum of (c/T)*log2(c) over the counts c of total T.  Python ints
    divide with correct rounding, so no count overflows a float."""
    counts = counts.tolist()
    total = sum(counts)
    return sum((c / total) * math.log2(c) for c in counts if c > 1)


def _entropy_bits(counts: np.ndarray) -> float:
    return math.log2(sum(counts.tolist())) - _mean_log2(counts)


def _folded_entropy(tally, q: int) -> float:
    """Entropy of the folded sum of a tally (sums, counts)."""
    sums, counts = tally
    return _entropy_bits(_tally(_centered_mod(sums, q), counts)[1])


@dataclass(frozen=True)
class LeakageRow:
    """The computed columns of an ``lsl leakage`` row, in its order."""

    M: int
    rate_per_dim: float
    h_cond: float
    identity_target: float
    identity_ok: bool
    chain_first: float
    chain_last: float
    leakage: float
    bound: float
    modsum_entropy: float
    index_entropy: float
    index_bound: float
    passed: bool


def _targets(pair: NestedPair, num_users: int):
    """The identity target (K-2)*N*R, the leakage cap N*R + N*log2(K-1)
    and the cap's index part N*log2(K-1) of ``pair`` with K users."""
    n, rate = pair.dimension, pair.rate_per_dim
    index_bound = n * math.log2(num_users - 1)
    return (num_users - 2) * n * rate, n * rate + index_bound, index_bound


def leakage_row(pair: NestedPair, num_users: int) -> LeakageRow:
    """Exact leakage accounting of ``pair`` with K = ``num_users`` users.

    A cubic pair's codewords are N iid coordinates, each uniform over the
    q centered residues, and the folded sum, the raw sum and the window
    index split per coordinate (the index is a mixed-radix bijection of
    the per-coordinate offsets).  So every entropy is N times that of the
    residues: one count vector over the consecutive sums j*lo .. j*hi of
    j residues, stepped K-1 times by ``_residue_step``.  Before any step
    come K >= 3, N*log2(q) <= ``MAX_CODEBOOK_BITS`` and the work of a
    direct window sum, q additions per count of each step's input,
    q(K-2)(2 + (q-1)(K-1))/2 <= ``STATE_CAP`` (q^2 at K=3).
    ``identity_ok`` and ``passed`` compare the tallied pair's own values
    with its own targets: at large N the scaled floats can miss their
    targets by rounding alone.
    """
    if num_users < 3:
        raise ValueError("need at least 3 users")
    q, n, senders = pair.q, pair.dimension, num_users - 1
    if pair.fine.family == CUBIC:
        check_power_bits("codebook size", q, n)
        rows = q * (senders - 1) * (2 + (q - 1) * senders) // 2
        if rows > STATE_CAP:
            raise CapacityError(
                f"cubic tally of {rows} sum rows exceeds cap {STATE_CAP}")
        tallied, scale = make_cubic_pair(q, 1), n
        lo, counts, tallies = -((q - 1) // 2), np.ones(1, object), {}
        for j in range(num_users):
            if j in (0, 1, senders - 1, senders):
                sums = np.arange(j * lo, j * lo + len(counts))[:, None]
                tallies[j] = sums, counts
            if j < senders:
                counts = _residue_step(counts, q)
    else:
        tallied, scale = pair, 1
        ens = DiscreteEnsemble(pair, num_users)
        tallies = {j: ens._sum_counts(j) for j in (0, 1, senders - 1, senders)}
    raw, counts = tallies[senders]
    folded = _centered_mod(raw, q)
    modsum_counts = _tally(folded, counts)[1]
    # Given any folded sum the K-1 codewords are uniform over M^(K-2)
    # tuples: H(codewords | folded sum) is the hidden payload.
    h_cond = _mean_log2(modsum_counts)
    modsum_entropy = _entropy_bits(modsum_counts)
    # In coarse-cell units the folded sum is folded/q and the removed
    # coarse point has integer coordinates (raw - folded)/q.
    indices = window_index(folded / q, (raw - folded) // q, senders)
    index_entropy = _entropy_bits(_tally(indices[:, None], counts)[1])
    # The observation is a function of the codewords, and (folded sum,
    # index) determines the raw sum and back: the leakage is H(raw sum).
    leakage = _entropy_bits(counts)
    # H(t_j | folded t_j + ... + t_{K-1}): in a group (t_j, tail sum) and
    # (t_j, rest sum) determine each other and t_j is independent of the
    # rest, so it is log2 M + H(rest) - H(tail).  The tail one-time-pads
    # t_j at j = 1 and determines it at j = K-1.
    log_m = math.log2(tallied.nesting_ratio)
    chain_first = (log_m + _folded_entropy(tallies[senders - 1], q)
                   - modsum_entropy)
    chain_last = (log_m + _folded_entropy(tallies[0], q)
                  - _folded_entropy(tallies[1], q))
    own_target, own_bound, own_index_bound = _targets(tallied, num_users)
    target, bound, index_bound = _targets(pair, num_users)
    return LeakageRow(
        M=pair.nesting_ratio,
        rate_per_dim=pair.rate_per_dim,
        h_cond=scale * h_cond,
        identity_target=target,
        identity_ok=abs(h_cond - own_target) <= 1e-12,
        chain_first=scale * chain_first,
        chain_last=scale * chain_last,
        leakage=scale * leakage,
        bound=bound,
        modsum_entropy=scale * modsum_entropy,
        index_entropy=scale * index_entropy,
        index_bound=index_bound,
        passed=(leakage <= own_bound + 1e-12
                and index_entropy <= own_index_bound + 1e-12))

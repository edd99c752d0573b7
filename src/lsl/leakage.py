"""Exact secrecy accounting on finite quotient-group codebooks.

The eavesdropper-relevant observation of the K-1 interfering codewords
reduces to the pair (folded sum, candidate index): the mod-sum of the
codewords plus the small integer that pins down their true integer sum.
Everything here derives from one exact integer tally over the uniform
product distribution (denominators are powers of the codebook size), so
the entropy identities hold to float rounding, not to sampling error.
``DiscreteEnsemble._sum_counts`` tallies the distinct raw coordinate sums
as int64 rows; the folded sums, the candidate indices and the chain terms
are read off it, and its memory never exceeds the joint state count.

Entropies are in bits.  Elements are centered coordinate tuples of the
quotient fine/coarse, a group under coordinate addition mod q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError
from .lattices import NestedPair, _centered_mod, codebook
from .representation import window_index

DEFAULT_STATE_CAP = 10_000_000


@dataclass(frozen=True)
class DiscreteEnsemble:
    """K-1 iid uniform codewords over a quotient-group codebook.

    ``elements`` are the coset leaders as length-``dimension`` integer
    tuples, the ensemble's identity; they form a group under coordinate
    addition mod q.  The joint state space has size M^(K-1) and each op
    checks it against ``state_cap`` before enumerating; construction
    checks the M^2 pair sums of its closure test the same way, first.
    """

    elements: tuple[tuple[int, ...], ...]
    q: int
    dimension: int
    num_users: int
    state_cap: int = DEFAULT_STATE_CAP
    #: ``_sum_counts`` results by number of summed elements.
    _tallies: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)
    #: ``elements`` as a read-only (M, N) int64 array.
    _coords: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.num_users < 3:
            raise ValueError("need at least 3 users")
        if self.q < 1:
            raise ValueError("modulus must be positive")
        if self.dimension < 1:
            raise ValueError("dimension must be a positive integer")
        if not self.elements:
            raise ValueError("codebook is empty")
        self._check_cap(2)
        message = f"elements must be length-{self.dimension} integer tuples"
        if not all(isinstance(e, tuple) and len(e) == self.dimension
                   for e in self.elements):
            raise ValueError(message)
        coords = np.array(self.elements)
        if coords.ndim != 2 or coords.dtype.kind != "i":
            raise ValueError(message)
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate codebook elements")
        coords = coords.astype(np.int64)
        coords.flags.writeable = False
        object.__setattr__(self, "_coords", coords)
        # Closed iff the folded pair sums add no row to the elements.
        rows = np.vstack([coords,
                          _centered_mod(self._sum_counts(2)[0], self.q)])
        if len(_tally(rows, np.zeros(len(rows), np.int64))[0]) != self.size:
            raise ValueError("codebook is not closed under mod-q addition")

    @classmethod
    def from_pair(cls, pair: NestedPair, num_users: int,
                  state_cap: int = DEFAULT_STATE_CAP) -> "DiscreteEnsemble":
        leaders = tuple(map(tuple, codebook(pair).tolist()))
        return cls(elements=leaders, q=pair.q, dimension=pair.dimension,
                   num_users=num_users, state_cap=state_cap)

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def num_senders(self) -> int:
        return self.num_users - 1

    @property
    def rate_per_dim(self) -> float:
        return math.log2(self.size) / self.dimension

    def _check_cap(self, exponent: int):
        if self.size ** exponent > self.state_cap:
            raise CapacityError(
                f"state space {self.size}^{exponent} exceeds cap "
                f"{self.state_cap}")

    def _sum_counts(self, num_vars: int):
        """Exact tally of the raw integer sum of ``num_vars`` elements.

        Returns the distinct sums as (S, N) int64 rows and their int64
        counts, both read-only.  Each step adds every element to every
        support row of the ``num_vars - 1`` tally, so memory is at most
        (support x M) rows, never the dense sum box.  Every tally is kept
        on the ensemble: the closure check and each op share them.
        """
        if num_vars not in self._tallies:
            if num_vars == 0:
                sums = np.zeros((1, self.dimension), dtype=np.int64)
                counts = np.ones(1, dtype=np.int64)
            else:
                prev, prev_counts = self._sum_counts(num_vars - 1)
                sums, counts = _tally(
                    (prev[:, None, :] + self._coords).reshape(
                        -1, self.dimension),
                    np.repeat(prev_counts, self.size))
            sums.flags.writeable = counts.flags.writeable = False
            self._tallies[num_vars] = sums, counts
        return self._tallies[num_vars]

    def _folded_counts(self, num_vars: int) -> np.ndarray:
        """Counts of the distinct folded sums of ``num_vars`` elements."""
        sums, counts = self._sum_counts(num_vars)
        return _tally(_centered_mod(sums, self.q), counts)[1]


def _tally(keys: np.ndarray, counts: np.ndarray):
    """Merge the equal rows of ``keys`` (S, N), adding up their counts."""
    order = np.lexsort(keys.T[::-1])
    keys, counts = keys[order], counts[order]
    starts = np.flatnonzero(np.concatenate(
        ([True], np.any(keys[1:] != keys[:-1], axis=1))))
    return keys[starts], np.add.reduceat(counts, starts)


def _plogp(counts: np.ndarray) -> float:
    return sum(c * math.log2(c) for c in counts.tolist() if c > 1)


def _entropy_bits(counts: np.ndarray) -> float:
    total = int(counts.sum())
    return math.log2(total) - _plogp(counts) / total


def conditional_entropy_given_modsum(ens: DiscreteEnsemble) -> float:
    """Exact H(codeword tuple | folded sum) in bits.

    With K-1 iid uniform codewords over a size-M group the conditional
    distribution given any folded sum is uniform over M^(K-2) tuples, so
    the value equals (K-2) * dimension * rate_per_dim: the confidential
    payload hidden behind the mod-sum observation.
    """
    ens._check_cap(ens.num_senders)
    total = ens.size ** ens.num_senders
    return _plogp(ens._folded_counts(ens.num_senders)) / total


def chain_conditional_entropy(ens: DiscreteEnsemble, j: int) -> float:
    """Exact H(t_j | folded sum of t_j..t_{K-1}) in bits, 1-based j.

    The tail sum one-time-pads t_j whenever at least one other variable
    participates, giving the full per-codeword entropy; the last term
    (j = K-1) is zero because the sum then determines t_j.  In a group
    (t_j, tail sum) and (t_j, rest sum) determine each other and t_j is
    independent of the rest, so H(t_j, tail) = log2 M + H(rest).
    """
    if not 1 <= j <= ens.num_senders:
        raise ValueError("term index out of range")
    ens._check_cap(ens.num_senders - j + 1)
    rest = ens._folded_counts(ens.num_senders - j)
    tail = ens._folded_counts(ens.num_senders - j + 1)
    return math.log2(ens.size) + _entropy_bits(rest) - _entropy_bits(tail)


@dataclass(frozen=True)
class LeakageCheck:
    """Exact leakage of the (folded sum, index) observation vs. its bound."""

    leakage: float
    bound: float
    modsum_entropy: float
    index_entropy: float
    index_bound: float
    passed: bool


def leakage_bound_check(ens: DiscreteEnsemble) -> LeakageCheck:
    """Exact I(codewords; folded sum, candidate index) against its cap.

    The observation is a deterministic function of the codewords, so the
    leakage equals the entropy of the (folded sum, index) pair.  The cap
    is N*R + N*log2(K-1) bits: the folded sum carries at most the
    codebook entropy N*R and the index at most N*log2(K-1) bits.
    """
    ens._check_cap(ens.num_senders)
    raw, counts = ens._sum_counts(ens.num_senders)
    folded = _centered_mod(raw, ens.q)
    # In coarse-cell units the folded sum is folded/q and the removed
    # coarse point has integer coordinates (raw - folded)/q.
    indices = window_index(folded / ens.q, (raw - folded) // ens.q,
                           ens.num_senders)
    n = ens.dimension
    # (folded sum, index) determines the raw sum and back: same entropy.
    leakage = _entropy_bits(counts)
    bound = n * ens.rate_per_dim + n * math.log2(ens.num_senders)
    index_entropy = _entropy_bits(_tally(indices[:, None], counts)[1])
    index_bound = n * math.log2(ens.num_senders)
    return LeakageCheck(
        leakage=leakage,
        bound=bound,
        modsum_entropy=_entropy_bits(_tally(folded, counts)[1]),
        index_entropy=index_entropy,
        index_bound=index_bound,
        passed=(leakage <= bound + 1e-12
                and index_entropy <= index_bound + 1e-12))

"""Exact secrecy accounting on finite quotient-group codebooks.

The eavesdropper-relevant observation of the K-1 interfering codewords
reduces to the pair (folded sum, candidate index): the mod-sum of the
codewords plus the small integer that pins down their true integer sum.
Everything here is computed from exact integer tallies over the uniform
product distribution (denominators are powers of the codebook size), so
the entropy identities hold to float rounding, not to sampling error.

Entropies are in bits.  Elements are centered coordinate tuples of the
quotient fine/coarse, a group under coordinate addition mod q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .lattices import NestedPair, _centered_mod, codebook
from .representation import window_index

DEFAULT_STATE_CAP = 10_000_000


@dataclass(frozen=True)
class DiscreteEnsemble:
    """K-1 iid uniform codewords over a quotient-group codebook.

    ``elements`` are the coset leaders as centered integer coordinate
    tuples; they form a group under coordinate addition mod q.  The
    joint state space has size M^(K-1) and each op checks it against
    ``state_cap`` before enumerating.
    """

    elements: tuple[tuple[int, ...], ...]
    q: int
    dimension: int
    num_users: int
    state_cap: int = DEFAULT_STATE_CAP

    def __post_init__(self):
        if self.num_users < 3:
            raise ValueError("need at least 3 users")
        if self.q < 1:
            raise ValueError("modulus must be positive")
        if not self.elements:
            raise ValueError("codebook is empty")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate codebook elements")
        element_set = set(self.elements)
        for a in self.elements:
            for b in self.elements:
                if self._add(a, b) not in element_set:
                    raise ValueError(
                        "codebook is not closed under mod-q addition")

    @classmethod
    def from_pair(cls, pair: NestedPair, num_users: int,
                  state_cap: int = DEFAULT_STATE_CAP) -> "DiscreteEnsemble":
        leaders = tuple(p.coords for p in codebook(pair))
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

    def _centered(self, value: int) -> int:
        r = value % self.q
        return r - self.q if 2 * r > self.q else r

    def _add(self, a, b):
        return tuple(self._centered(x + y) for x, y in zip(a, b))

    def _check_cap(self, exponent: int):
        if self.size ** exponent > self.state_cap:
            raise CapacityError(
                f"state space {self.size}^{exponent} exceeds cap "
                f"{self.state_cap}")

    def _group_sum_counts(self, num_vars: int) -> dict:
        """Exact tally of the folded sum of ``num_vars`` uniform elements."""
        counts = {(0,) * self.dimension: 1}
        for _ in range(num_vars):
            nxt: dict = {}
            for s, c in counts.items():
                for e in self.elements:
                    key = self._add(s, e)
                    nxt[key] = nxt.get(key, 0) + c
            counts = nxt
        return counts

    def _integer_sum_counts(self, num_vars: int) -> dict:
        """Exact tally of the raw (unfolded) integer coordinate sum."""
        counts = {(0,) * self.dimension: 1}
        for _ in range(num_vars):
            nxt: dict = {}
            for s, c in counts.items():
                for e in self.elements:
                    key = tuple(x + y for x, y in zip(s, e))
                    nxt[key] = nxt.get(key, 0) + c
            counts = nxt
        return counts


def _entropy_bits(counts: dict) -> float:
    total = sum(counts.values())
    return math.log2(total) - sum(
        c * math.log2(c) for c in counts.values() if c > 1) / total


def conditional_entropy_given_modsum(ens: DiscreteEnsemble) -> float:
    """Exact H(codeword tuple | folded sum) in bits.

    With K-1 iid uniform codewords over a size-M group the conditional
    distribution given any folded sum is uniform over M^(K-2) tuples, so
    the value equals (K-2) * dimension * rate_per_dim: the confidential
    payload hidden behind the mod-sum observation.
    """
    ens._check_cap(ens.num_senders)
    sum_counts = ens._group_sum_counts(ens.num_senders)
    total = ens.size ** ens.num_senders
    return sum(c * math.log2(c) for c in sum_counts.values() if c > 1) / total


def chain_conditional_entropy(ens: DiscreteEnsemble, j: int) -> float:
    """Exact H(t_j | folded sum of t_j..t_{K-1}) in bits, 1-based j.

    The tail sum one-time-pads t_j whenever at least one other variable
    participates, giving the full per-codeword entropy; the last term
    (j = K-1) is zero because the sum then determines t_j.
    """
    if not 1 <= j <= ens.num_senders:
        raise ValueError("term index out of range")
    ens._check_cap(ens.num_senders - j + 1)
    rest = ens._group_sum_counts(ens.num_senders - j)
    joint: dict = {}
    s_marginal: dict = {}
    for t in ens.elements:
        for s_rest, c in rest.items():
            s = ens._add(t, s_rest)
            joint[(t, s)] = joint.get((t, s), 0) + c
            s_marginal[s] = s_marginal.get(s, 0) + c
    return _entropy_bits(joint) - _entropy_bits(s_marginal)


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
    raw_counts = ens._integer_sum_counts(ens.num_senders)
    raw = np.array(list(raw_counts), dtype=np.int64)
    folded = _centered_mod(raw, ens.q)
    # In coarse-cell units the folded sum is folded/q and the removed
    # coarse point has integer coordinates (raw - folded)/q.
    indices = window_index(folded / ens.q, (raw - folded) // ens.q,
                           ens.num_senders)
    label_counts: dict = {}
    index_counts: dict = {}
    folded_counts: dict = {}
    for fold, index, c in zip(map(tuple, folded.tolist()),
                              indices.tolist(), raw_counts.values()):
        key = (fold, index)
        label_counts[key] = label_counts.get(key, 0) + c
        index_counts[index] = index_counts.get(index, 0) + c
        folded_counts[fold] = folded_counts.get(fold, 0) + c
    n = ens.dimension
    leakage = _entropy_bits(label_counts)
    bound = n * ens.rate_per_dim + n * math.log2(ens.num_senders)
    index_entropy = _entropy_bits(index_counts)
    index_bound = n * math.log2(ens.num_senders)
    return LeakageCheck(
        leakage=leakage,
        bound=bound,
        modsum_entropy=_entropy_bits(folded_counts),
        index_entropy=index_entropy,
        index_bound=index_bound,
        passed=(leakage <= bound + 1e-12
                and index_entropy <= index_bound + 1e-12))

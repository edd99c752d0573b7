"""Exact finite-codebook secrecy accounting against brute-force oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lsl.cli import main
from lsl.errors import CapacityError, InvalidCodeError
from lsl.lattices import make_construction_a_pair, make_cubic_pair
from lsl.leakage import (
    DiscreteEnsemble,
    chain_conditional_entropy,
    conditional_entropy_given_modsum,
    leakage_bound_check,
)


def entropy(dist):
    total = sum(dist.values())
    return -sum((c / total) * math.log2(c / total) for c in dist.values()
                if c > 0)


def brute_force_stats(ens):
    """Literal tuple enumeration: every quantity from first principles."""
    q, k1 = ens.q, ens.num_senders

    def centered(v):
        r = v % q
        return r - q if 2 * r > q else r

    def window_low(m_j):
        return (-k1 * q - 2 * m_j) // (2 * q) + 1

    joint_given_modsum = {}
    modsum_dist = {}
    label_dist = {}
    index_dist = {}
    # chain term j: joint (t_j, folded t_j + ... + t_{K-1}) and its sum
    chain_joint = [{} for _ in range(k1)]
    chain_sum = [{} for _ in range(k1)]
    for combo in itertools.product(ens.elements, repeat=k1):
        raw = tuple(sum(c) for c in zip(*combo))
        m = tuple(centered(v) for v in raw)
        modsum_dist[m] = modsum_dist.get(m, 0) + 1
        joint_given_modsum[(combo, m)] = 1
        for j in range(k1):
            tail = tuple(centered(sum(c)) for c in zip(*combo[j:]))
            key = (combo[j], tail)
            chain_joint[j][key] = chain_joint[j].get(key, 0) + 1
            chain_sum[j][tail] = chain_sum[j].get(tail, 0) + 1
        idx = 0
        for m_j, v_j in zip(m, raw):
            offset = (v_j - m_j) // q - window_low(m_j)
            assert 0 <= offset < k1
            idx = idx * k1 + offset
        label = (m, idx + 1)
        label_dist[label] = label_dist.get(label, 0) + 1
        index_dist[idx + 1] = index_dist.get(idx + 1, 0) + 1
    total = ens.size ** k1
    h_tuple_given_modsum = sum(
        (c / total) * math.log2(c) for c in modsum_dist.values())
    return {
        "h_cond": h_tuple_given_modsum,
        "leakage": entropy(label_dist),
        "modsum_entropy": entropy(modsum_dist),
        "index_entropy": entropy(index_dist),
        "chain": [entropy(chain_joint[j]) - entropy(chain_sum[j])
                  for j in range(k1)],
    }


STATE_LIMIT = 5_000


@st.composite
def small_ensembles(draw):
    """Cubic pairs and random Construction-A codes, K in {3, 4, 5}, with
    at most STATE_LIMIT joint states."""
    k = draw(st.sampled_from((3, 4, 5)))
    q = draw(st.integers(2, 5))
    # largest number of base-q digits per codeword within the state limit
    digits = max(r for r in range(1, 8) if q ** (r * (k - 1)) <= STATE_LIMIT)
    if draw(st.booleans()):
        pair = make_cubic_pair(q, draw(st.integers(1, digits)))
    else:
        n = draw(st.integers(1, 6))
        rows = draw(st.integers(1, min(n, digits)))
        row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
        generator = draw(st.lists(row, min_size=rows, max_size=rows))
        try:
            pair = make_construction_a_pair(q, n, generator)
        except InvalidCodeError:
            assume(False)
    return DiscreteEnsemble.from_pair(pair, k)


class TestConditionalEntropy:
    def test_k3_q2_n1(self):
        ens = DiscreteEnsemble.from_pair(make_cubic_pair(2, 1), 3)
        assert conditional_entropy_given_modsum(ens) == pytest.approx(
            1.0, abs=1e-12)

    def test_k4_q3_n1(self):
        ens = DiscreteEnsemble.from_pair(make_cubic_pair(3, 1), 4)
        assert conditional_entropy_given_modsum(ens) == pytest.approx(
            2 * math.log2(3), abs=1e-12)

    def test_trivial_codebook(self):
        ens = DiscreteEnsemble(elements=((0,),), q=1, dimension=1,
                               num_users=3)
        assert conditional_entropy_given_modsum(ens) == 0.0

    def test_identity_over_grid(self):
        for k in (3, 4, 5):
            for q in (2, 3):
                for n in (1, 2):
                    ens = DiscreteEnsemble.from_pair(make_cubic_pair(q, n), k)
                    target = (k - 2) * n * ens.rate_per_dim
                    assert abs(conditional_entropy_given_modsum(ens)
                               - target) <= 1e-12

    def test_matches_brute_force(self):
        for pair, k in ((make_cubic_pair(2, 1), 3),
                        (make_cubic_pair(3, 1), 3),
                        (make_cubic_pair(2, 2), 4)):
            ens = DiscreteEnsemble.from_pair(pair, k)
            oracle = brute_force_stats(ens)
            assert conditional_entropy_given_modsum(ens) == pytest.approx(
                oracle["h_cond"], abs=1e-12)

    def test_cap_enforced(self):
        ens = DiscreteEnsemble.from_pair(make_cubic_pair(2, 2), 5,
                                         state_cap=100)
        with pytest.raises(CapacityError):
            conditional_entropy_given_modsum(ens)

    def test_cap_checked_at_construction(self):
        # 27^2 pair sums exceed the cap before the closure check runs
        with pytest.raises(CapacityError):
            DiscreteEnsemble.from_pair(make_cubic_pair(3, 3), 3,
                                       state_cap=100)


class TestChainTerms:
    def test_one_time_pad_masking(self):
        ens = DiscreteEnsemble.from_pair(make_cubic_pair(2, 1), 3)
        assert chain_conditional_entropy(ens, 1) == pytest.approx(1.0,
                                                                  abs=1e-12)
        assert chain_conditional_entropy(ens, 2) == pytest.approx(0.0,
                                                                  abs=1e-12)

    def test_values_over_grid(self):
        for k in (3, 4, 5):
            for q in (2, 3):
                ens = DiscreteEnsemble.from_pair(make_cubic_pair(q, 2), k)
                per_word = 2 * ens.rate_per_dim
                for j in range(1, k - 1):
                    assert chain_conditional_entropy(ens, j) == pytest.approx(
                        per_word, abs=1e-12)
                assert chain_conditional_entropy(ens, k - 1) == pytest.approx(
                    0.0, abs=1e-12)

    def test_index_range(self):
        ens = DiscreteEnsemble.from_pair(make_cubic_pair(2, 1), 3)
        with pytest.raises(ValueError):
            chain_conditional_entropy(ens, 0)
        with pytest.raises(ValueError):
            chain_conditional_entropy(ens, 3)


class TestLeakageBound:
    def test_k3_q2_n1_values(self):
        ens = DiscreteEnsemble.from_pair(make_cubic_pair(2, 1), 3)
        check = leakage_bound_check(ens)
        # sums 0,1,2 with weights 1,2,1: entropy 1.5 bits
        assert check.leakage == pytest.approx(1.5, abs=1e-12)
        assert check.bound == pytest.approx(2.0, abs=1e-12)
        assert check.index_bound == pytest.approx(1.0, abs=1e-12)
        assert check.index_entropy <= check.index_bound + 1e-12
        assert check.passed

    def test_matches_brute_force(self):
        for pair, k in ((make_cubic_pair(2, 1), 3),
                        (make_cubic_pair(3, 1), 4),
                        (make_cubic_pair(2, 2), 3),
                        (make_construction_a_pair(2, 2, [(1, 1)]), 4)):
            ens = DiscreteEnsemble.from_pair(pair, k)
            oracle = brute_force_stats(ens)
            check = leakage_bound_check(ens)
            assert check.leakage == pytest.approx(oracle["leakage"],
                                                  abs=1e-12)
            assert check.modsum_entropy == pytest.approx(
                oracle["modsum_entropy"], abs=1e-12)
            assert check.index_entropy == pytest.approx(
                oracle["index_entropy"], abs=1e-12)

    def test_never_violated_over_grid(self):
        for k in (3, 4, 5):
            for q in (2, 3, 4):
                for n in (1, 2):
                    ens = DiscreteEnsemble.from_pair(make_cubic_pair(q, n), k)
                    if ens.size ** ens.num_senders > 200_000:
                        continue
                    check = leakage_bound_check(ens)
                    assert check.passed
                    # observing the index on top of the folded sum never
                    # reveals less than the folded sum alone
                    assert check.leakage >= check.modsum_entropy - 1e-12

    def test_trivial_codebook_leaks_nothing(self):
        ens = DiscreteEnsemble(elements=((0, 0),), q=1, dimension=2,
                               num_users=4)
        check = leakage_bound_check(ens)
        assert check.leakage == 0.0
        assert check.passed


class TestEnsembleValidation:
    def test_group_closure_required(self):
        with pytest.raises(ValueError):
            DiscreteEnsemble(elements=((0,), (1,)), q=3, dimension=1,
                             num_users=3)

    def test_construction_a_quotient(self):
        ens = DiscreteEnsemble.from_pair(
            make_construction_a_pair(2, 2, [(1, 1)]), 3)
        assert ens.size == 2
        assert ens.rate_per_dim == pytest.approx(0.5)
        target = (3 - 2) * 2 * ens.rate_per_dim
        assert conditional_entropy_given_modsum(ens) == pytest.approx(
            target, abs=1e-12)

    def test_duplicate_elements_rejected(self):
        with pytest.raises(ValueError):
            DiscreteEnsemble(elements=((0,), (0,)), q=2, dimension=1,
                             num_users=3)

    @pytest.mark.parametrize("elements,dimension", [
        (((0, 0), (1, 1)), 1),   # longer than the dimension
        (((0, 0), (1, 1)), 3),   # shorter than the dimension
        (((0,), (1, 1)), 1),     # ragged
        (((0.5,), (1,)), 1),     # not integers
        (((2 ** 70,), (1,)), 1),  # past int64
        (([0], [1]), 1),         # not tuples
    ])
    def test_malformed_elements_rejected(self, elements, dimension):
        with pytest.raises(ValueError, match="integer tuples"):
            DiscreteEnsemble(elements=elements, q=2, dimension=dimension,
                             num_users=3)

    def test_dimension_must_be_positive(self):
        with pytest.raises(ValueError):
            DiscreteEnsemble(elements=((),), q=2, dimension=0, num_users=3)


class TestSharedTally:
    def test_ops_reuse_the_ensemble_tallies(self):
        ens = DiscreteEnsemble.from_pair(make_cubic_pair(3, 2), 4)
        pair_sums = ens._sum_counts(2)  # already built by the closure check
        conditional_entropy_given_modsum(ens)
        triple_sums = ens._sum_counts(3)
        for j in (1, 2, 3):
            chain_conditional_entropy(ens, j)
        leakage_bound_check(ens)
        assert ens._sum_counts(2) is pair_sums
        assert ens._sum_counts(3) is triple_sums
        for array in (*pair_sums, *triple_sums):
            assert not array.flags.writeable

    def test_elements_become_one_int64_array(self):
        ens = DiscreteEnsemble.from_pair(make_cubic_pair(3, 2), 4)
        assert ens._coords.dtype == np.int64
        assert not ens._coords.flags.writeable
        assert ens._coords.tolist() == [list(e) for e in ens.elements]
        # the one-element tally is that array, row for row
        assert ens._sum_counts(1)[0].tolist() == ens._coords.tolist()

    def test_tallies_do_not_change_identity(self):
        used = DiscreteEnsemble.from_pair(make_cubic_pair(3, 2), 4)
        leakage_bound_check(used)
        fresh = DiscreteEnsemble.from_pair(make_cubic_pair(3, 2), 4)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)


class TestAgainstBruteForce:
    @settings(max_examples=40, deadline=None)
    @given(small_ensembles())
    def test_all_quantities_match(self, ens):
        oracle = brute_force_stats(ens)
        check = leakage_bound_check(ens)
        assert conditional_entropy_given_modsum(ens) == pytest.approx(
            oracle["h_cond"], abs=1e-12)
        for j, expected in enumerate(oracle["chain"], start=1):
            assert chain_conditional_entropy(ens, j) == pytest.approx(
                expected, abs=1e-12)
        assert check.leakage == pytest.approx(oracle["leakage"], abs=1e-12)
        assert check.modsum_entropy == pytest.approx(
            oracle["modsum_entropy"], abs=1e-12)
        assert check.index_entropy == pytest.approx(
            oracle["index_entropy"], abs=1e-12)


# Rows printed by the dict-of-tuples tallies that the integer tally
# replaced.  The q=2 code's K^N window indices pass int64; the q=3 code's
# generator columns are the base-3 digits of 0..59.
LONG_CODES = {
    "q2-N64-ones": (
        ["--q", "2", "--N", "64", "--generator", ",".join(["1"] * 64)],
        "3,2,64,2,0.015625,1.000000,1.000000,1,1.000000,0.000000,1.500000,"
        "65.000000,1.000000,0.811278,64.000000,1"),
    "q3-N60-three-rows": (
        ["--q", "3", "--N", "60", "--K", "4", "--generator",
         ";".join(",".join(str(i // 3 ** r % 3) for i in range(60))
                  for r in range(3))],
        "4,3,60,27,0.079248,9.509775,9.509775,1,4.754888,0.000000,"
        "11.385991,99.852638,4.754888,9.192478,95.097750,1"),
}


class TestLongCodes:
    @pytest.mark.parametrize("name", sorted(LONG_CODES))
    def test_row_is_pinned(self, name, tmp_path):
        args, row = LONG_CODES[name]
        out = tmp_path / "leak.csv"
        assert main(["leakage", "--family", "construction-a", *args,
                     "--out", str(out)]) == 0
        assert out.read_text().splitlines()[2] == row

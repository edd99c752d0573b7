"""Exact finite-codebook secrecy accounting against brute-force oracles."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import lsl.leakage
from lsl.cli import _fmt_bool, _fmt_rate, main
from lsl.errors import CapacityError, InvalidCodeError, InvariantViolationError
from lsl.lattices import codebook, make_construction_a_pair, make_cubic_pair
from lsl.leakage import DiscreteEnsemble, leakage_row


def entropy(dist):
    total = sum(dist.values())
    return -sum((c / total) * math.log2(c / total) for c in dist.values()
                if c > 0)


def brute_force_stats(ens):
    """Literal tuple enumeration: every ``LeakageRow`` column from first
    principles."""
    q, k1 = ens.pair.q, ens.num_users - 1

    def centered(v):
        r = v % q
        return r - q if 2 * r > q else r

    def window_low(m_j):
        return (-k1 * q - 2 * m_j) // (2 * q) + 1

    elements = list(map(tuple, ens.elements.tolist()))
    joint_given_modsum = {}
    modsum_dist = {}
    label_dist = {}
    index_dist = {}
    # chain term j: joint (t_j, folded t_j + ... + t_{K-1}) and its sum
    chain_joint = [{} for _ in range(k1)]
    chain_sum = [{} for _ in range(k1)]
    for combo in itertools.product(elements, repeat=k1):
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
    total = len(elements) ** k1
    h_tuple_given_modsum = sum(
        (c / total) * math.log2(c) for c in modsum_dist.values())
    chain = [entropy(chain_joint[j]) - entropy(chain_sum[j])
             for j in range(k1)]
    log_m = math.log2(len(elements))
    index_bound = ens.pair.dimension * math.log2(k1)
    return {
        "M": len(elements),
        "rate_per_dim": log_m / ens.pair.dimension,
        "h_cond": h_tuple_given_modsum,
        "identity_target": (k1 - 1) * log_m,
        "chain_first": chain[0],
        "chain_last": chain[-1],
        "leakage": entropy(label_dist),
        "bound": log_m + index_bound,
        "modsum_entropy": entropy(modsum_dist),
        "index_entropy": entropy(index_dist),
        "index_bound": index_bound,
    }


def assert_row_matches(row, ens):
    """Every column of ``row`` against the brute-force oracle of ``ens``.

    The identity and the bound are theorems: the oracle's own values
    meet them, and the row must report both as held.
    """
    oracle = brute_force_stats(ens)
    assert abs(oracle["h_cond"] - oracle["identity_target"]) <= 1e-9
    assert oracle["leakage"] <= oracle["bound"] + 1e-9
    assert oracle["index_entropy"] <= oracle["index_bound"] + 1e-9
    for name, value in dataclasses.asdict(row).items():
        if isinstance(value, float):
            assert value == pytest.approx(oracle[name], abs=1e-12), name
        else:
            assert value == oracle.get(name, True), name


def identity_pair(q, n):
    """The Construction-A pair of the whole q^n box, tallied whole."""
    return make_construction_a_pair(q, n, np.eye(n, dtype=int).tolist())


STATE_LIMIT = 5_000


@st.composite
def small_ensembles(draw):
    """(pair, K): cubic pairs and random Construction-A codes, K in
    {3, 4, 5}, with at most STATE_LIMIT joint states."""
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
    return pair, k


class TestConditionalEntropy:
    def test_k3_q2_n1(self):
        row = leakage_row(make_cubic_pair(2, 1), 3)
        assert row.h_cond == pytest.approx(1.0, abs=1e-12)

    def test_k4_q3_n1(self):
        row = leakage_row(make_cubic_pair(3, 1), 4)
        assert row.h_cond == pytest.approx(2 * math.log2(3), abs=1e-12)

    def test_identity_over_grid(self):
        for k in (3, 4, 5):
            for q in (2, 3):
                for n in (1, 2):
                    for pair in (make_cubic_pair(q, n), identity_pair(q, n)):
                        row = leakage_row(pair, k)
                        target = (k - 2) * n * pair.rate_per_dim
                        assert row.identity_target == target
                        assert abs(row.h_cond - target) <= 1e-12
                        assert row.identity_ok

    def test_matches_brute_force(self):
        for pair, k in ((make_cubic_pair(2, 1), 3),
                        (make_cubic_pair(3, 1), 3),
                        (make_cubic_pair(2, 2), 4)):
            assert_row_matches(leakage_row(pair, k), DiscreteEnsemble(pair, k))

    def test_cap_enforced(self):
        # 4^13 joint states of 13 senders pass the 10^7 cap
        with pytest.raises(CapacityError,
                           match=r"^state space 4\^13 exceeds cap 10000000$"):
            DiscreteEnsemble(make_cubic_pair(2, 2), 14)

    def test_cap_checked_before_the_codebook(self, monkeypatch):
        def no_codebook(*args, **kwargs):
            raise AssertionError("codebook built before the cap check")

        monkeypatch.setattr(lsl.leakage, "codebook", no_codebook)
        with pytest.raises(CapacityError,
                           match=r"^state space 65536\^2 exceeds cap 10000000$"):
            DiscreteEnsemble(make_cubic_pair(2, 16), 3)
        # 3163^2 pair sums: over the cap, though the codebook is not
        with pytest.raises(CapacityError,
                           match=r"^state space 3163\^2 exceeds cap 10000000$"):
            DiscreteEnsemble(make_construction_a_pair(3163, 1, [(1,)]), 3)

    def test_cap_checked_at_construction(self):
        # 4096^2 pair sums exceed the cap before the closure check runs
        with pytest.raises(CapacityError,
                           match=r"^state space 4096\^2 exceeds cap 10000000$"):
            DiscreteEnsemble(make_cubic_pair(2, 12), 3)

    def test_cap_checked_before_the_closure_tally(self, monkeypatch, capsys):
        # 1024^2 pair sums pass the cap, 1024^3 joint states do not: the
        # ensemble rejects the K=4 run before it tallies anything
        def no_tally(*args, **kwargs):
            raise AssertionError("tallied before the cap check")

        g10 = [[int(i == r) for i in range(10)] + [1] * 6 for r in range(10)]
        pair = make_construction_a_pair(2, 16, g10)
        monkeypatch.setattr(lsl.leakage, "_tally", no_tally)
        with pytest.raises(CapacityError,
                           match=r"^state space 1024\^3 exceeds cap 10000000$"):
            DiscreteEnsemble(pair, 4)
        generator = ";".join(",".join(map(str, row)) for row in g10)
        assert main(["leakage", "--family", "construction-a", "--q", "2",
                     "--N", "16", "--generator", generator, "--K", "4"]) == 2
        assert capsys.readouterr().err == (
            "cap exceeded: state space 1024^3 exceeds cap 10000000\n")

    @pytest.mark.parametrize("size,exponent", [
        (2, 23), (2, 24), (3, 14), (3, 15), (10, 7), (10, 8),
        (3162, 2), (3163, 2), (10**7, 1), (10**7 + 1, 1), (1, 10**9)])
    def test_cap_boundary_is_exact(self, size, exponent):
        if size ** exponent > lsl.leakage.STATE_CAP:
            with pytest.raises(CapacityError):
                lsl.leakage._check_states(size, exponent)
        else:
            lsl.leakage._check_states(size, exponent)


class TestChainTerms:
    def test_one_time_pad_masking(self):
        row = leakage_row(make_cubic_pair(2, 1), 3)
        assert row.chain_first == pytest.approx(1.0, abs=1e-12)
        assert row.chain_last == pytest.approx(0.0, abs=1e-12)

    def test_values_over_grid(self):
        for k in (3, 4, 5):
            for q in (2, 3):
                for pair in (make_cubic_pair(q, 2), identity_pair(q, 2)):
                    row = leakage_row(pair, k)
                    assert row.chain_first == pytest.approx(
                        2 * pair.rate_per_dim, abs=1e-12)
                    assert row.chain_last == pytest.approx(0.0, abs=1e-12)


class TestLeakageBound:
    def test_k3_q2_n1_values(self):
        row = leakage_row(make_cubic_pair(2, 1), 3)
        # sums 0,1,2 with weights 1,2,1: entropy 1.5 bits
        assert row.leakage == pytest.approx(1.5, abs=1e-12)
        assert row.bound == pytest.approx(2.0, abs=1e-12)
        assert row.index_bound == pytest.approx(1.0, abs=1e-12)
        assert row.index_entropy <= row.index_bound + 1e-12
        assert row.passed

    def test_matches_brute_force(self):
        for pair, k in ((make_cubic_pair(2, 1), 3),
                        (make_cubic_pair(3, 1), 4),
                        (make_cubic_pair(2, 2), 3),
                        (make_construction_a_pair(2, 2, [(1, 1)]), 4)):
            assert_row_matches(leakage_row(pair, k), DiscreteEnsemble(pair, k))

    def test_never_violated_over_grid(self):
        for k in (3, 4, 5):
            for q in (2, 3, 4):
                for n in (1, 2):
                    row = leakage_row(make_cubic_pair(q, n), k)
                    assert row.passed
                    # observing the index on top of the folded sum never
                    # reveals less than the folded sum alone
                    assert row.leakage >= row.modsum_entropy - 1e-12

class TestEnsembleValidation:
    @staticmethod
    def faulty_codebook(monkeypatch, rows):
        # an internal fault: ``codebook`` returns ``rows`` for every pair
        monkeypatch.setattr(lsl.leakage, "codebook",
                            lambda pair: np.array(rows, dtype=np.int64))

    def test_group_closure_required(self, monkeypatch):
        # two rows of the q=2 box, but (1, 0) + (0, 1) = (1, 1) is no row
        self.faulty_codebook(monkeypatch, [[1, 0], [0, 1]])
        with pytest.raises(InvariantViolationError, match="not closed"):
            DiscreteEnsemble(make_construction_a_pair(2, 2, [(1, 1)]), 3)

    def test_construction_a_quotient(self):
        ens = DiscreteEnsemble(make_construction_a_pair(2, 2, [(1, 1)]), 3)
        assert ens.size == 2
        assert ens.pair.rate_per_dim == pytest.approx(0.5)
        target = (3 - 2) * 2 * ens.pair.rate_per_dim
        assert leakage_row(ens.pair, 3).h_cond == pytest.approx(
            target, abs=1e-12)

    def test_duplicate_elements_rejected(self, monkeypatch):
        # two equal rows stand for the M = 2 elements: one is missing
        self.faulty_codebook(monkeypatch, [[0], [0]])
        with pytest.raises(InvariantViolationError, match="not closed"):
            DiscreteEnsemble(make_cubic_pair(2, 1), 3)

    def test_closure_fault_exits_3(self, monkeypatch, capsys):
        # a cubic row builds no codebook: the fault reaches a coded row
        self.faulty_codebook(monkeypatch, [[0, 0], [0, 0]])
        assert main(["leakage", "--family", "construction-a", "--q", "2",
                     "--N", "2", "--generator", "1,1"]) == 3
        assert capsys.readouterr().err == (
            "internal invariant violation: codebook is not closed under "
            "mod-q addition\n")

    def test_needs_three_users(self):
        with pytest.raises(ValueError, match="at least 3 users"):
            DiscreteEnsemble(make_cubic_pair(2, 1), 2)


class TestSharedTally:
    def test_ops_reuse_the_ensemble_tallies(self, monkeypatch):
        # each raw-sum tally is built once per row, the closure check's
        # included, and the K-1 sums are folded once
        built, folded_rows, ensembles = [], [], []
        sum_counts = DiscreteEnsemble._sum_counts
        post_init = DiscreteEnsemble.__post_init__
        centered_mod = lsl.leakage._centered_mod

        def count_builds(ens, num_vars):
            if num_vars not in ens._tallies:
                built.append(num_vars)
            return sum_counts(ens, num_vars)

        def keep(ens):
            ensembles.append(ens)
            post_init(ens)

        def count_folds(v, q):
            folded_rows.append(len(v))
            return centered_mod(v, q)

        monkeypatch.setattr(DiscreteEnsemble, "_sum_counts", count_builds)
        monkeypatch.setattr(DiscreteEnsemble, "__post_init__", keep)
        monkeypatch.setattr(lsl.leakage, "_centered_mod", count_folds)
        leakage_row(identity_pair(3, 2), 4)
        (ens,) = ensembles
        assert sorted(built) == [0, 1, 2, 3]
        triple_sums = ens._sum_counts(3)
        assert len(triple_sums[0]) == 7 ** 2  # coordinates -3..3
        assert folded_rows.count(len(triple_sums[0])) == 1
        for j in range(4):
            for array in ens._sum_counts(j):
                assert not array.flags.writeable

    def test_elements_become_one_int64_array(self):
        pair = make_cubic_pair(3, 2)
        ens = DiscreteEnsemble(pair, 4)
        assert ens.elements.dtype == np.int64
        assert not ens.elements.flags.writeable
        assert np.array_equal(ens.elements, codebook(pair))
        assert ens.elements is ens.elements  # built once
        assert (ens.pair.q, ens.pair.dimension, ens.size) == (3, 2, 9)
        # the one-element tally is that array, row for row
        assert ens._sum_counts(1)[0].tolist() == ens.elements.tolist()

    def test_tallies_do_not_change_identity(self):
        used = DiscreteEnsemble(make_cubic_pair(3, 2), 4)
        used._sum_counts(used.num_users - 1)
        fresh = DiscreteEnsemble(make_cubic_pair(3, 2), 4)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)


class TestAgainstBruteForce:
    @settings(max_examples=40, deadline=None)
    @given(small_ensembles())
    def test_all_quantities_match(self, config):
        pair, k = config
        assert_row_matches(leakage_row(pair, k), DiscreteEnsemble(pair, k))


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


#: Cubic (K, q, N) with at most 2*10^5 joint states q^(N(K-1)).
ENUMERABLE = [(k, q, n) for k in range(3, 9) for q in range(2, 8)
              for n in range(1, 18) if q ** (n * (k - 1)) <= 200_000]


def printed(values):
    """Cells as ``lsl leakage`` prints them."""
    return [_fmt_bool(v) if isinstance(v, bool)
            else str(v) if isinstance(v, int) else _fmt_rate(v)
            for v in values]


# Rows printed by the whole-ensemble tally, K=3, near its state cap.
CUBIC_ROWS = {
    ("3", "7"): "3,3,7,2187,1.584963,11.094738,11.094738,1,11.094738,"
                "0.000000,15.380118,18.094738,11.094738,6.428071,7.000000,1",
    ("2", "11"): "3,2,11,2048,1.000000,11.000000,11.000000,1,11.000000,"
                 "0.000000,16.500000,22.000000,11.000000,8.924059,"
                 "11.000000,1",
}


class TestCubicRow:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(ENUMERABLE))
    def test_row_equals_enumeration(self, config):
        # the whole q^N box as a Construction-A pair is tallied whole
        k, q, n = config
        row = leakage_row(make_cubic_pair(q, n), k)
        assert printed(dataclasses.astuple(row)) == printed(
            dataclasses.astuple(leakage_row(identity_pair(q, n), k)))

    @pytest.mark.parametrize("q, n", sorted(CUBIC_ROWS))
    def test_row_is_pinned(self, q, n, tmp_path):
        out = tmp_path / "leak.csv"
        assert main(["leakage", "--q", q, "--N", n, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[2] == CUBIC_ROWS[q, n]

    def test_q4_n64_row_is_closed_form(self, tmp_path):
        # Per coordinate, two uniform offsets on {-1, 0, 1, 2} sum to
        # -2..4 with triangular counts of 16.  The index says which lift
        # of the folded sum, s or s + 4, occurred: the upper lifts 2, 3
        # and 4 take 3 + 2 + 1 = 6 of the 16.
        def entropy_of(counts):
            return entropy(dict(enumerate(counts)))

        h_sum = entropy_of([1, 2, 3, 4, 3, 2, 1])
        h_index = entropy_of([6, 10])
        out = tmp_path / "leak.csv"
        assert main(["leakage", "--q", "4", "--N", "64",
                     "--out", str(out)]) == 0
        cells = out.read_text().splitlines()[2].split(",")
        assert cells == printed((
            3, 4, 64, 4 ** 64, 2.0, 128.0, 128.0, True, 128.0, 0.0,
            64 * h_sum, 192.0, 128.0, 64 * h_index, 64.0, True))
        assert cells[5] == "128.000000" and cells[10] == "169.960900"

    def test_construction_a_row_is_the_whole_tally(self, monkeypatch):
        pair = make_construction_a_pair(3, 4, [(1, 0, 1, 1), (0, 1, 1, 2)])
        ensembles = []
        post_init = DiscreteEnsemble.__post_init__

        def keep(ens):
            ensembles.append(ens)
            post_init(ens)

        monkeypatch.setattr(DiscreteEnsemble, "__post_init__", keep)
        row = leakage_row(pair, 4)
        (ens,) = ensembles
        assert ens.pair is pair and row.M == ens.size == 9
        assert_row_matches(row, ens)


def residue_rows(q, k):
    """The work a cubic row's cap counts, that of a direct window sum:
    step j adds q residues to each of the (j-1)(q-1)+1 sums of j-1
    residues."""
    return sum(((j - 1) * (q - 1) + 1) * q for j in range(2, k))


def largest_k(q):
    """The largest K whose residue tally stays within the state cap."""
    k, rows = 2, 0
    while rows + ((k - 1) * (q - 1) + 1) * q <= lsl.leakage.STATE_CAP:
        rows += ((k - 1) * (q - 1) + 1) * q
        k += 1
    return k


@st.composite
def huge_cubic_rows(draw):
    """(q, K, N) with q^(K-1) past 2^63 joint states, within the cap."""
    q = draw(st.integers(2, 40))
    k = draw(st.integers(63 // int(math.log2(q)) + 2, largest_k(q)))
    return q, k, draw(st.integers(1, 8))


class TestResidueTally:
    def test_q2_k1000_row_is_binomial(self, tmp_path):
        # The raw sum s of 999 bits has count C(999, s) of 2^999; its
        # folded sum is s mod 2 and its index the window offset of s.
        k1 = 999
        counts = [math.comb(k1, s) for s in range(k1 + 1)]
        index = {}
        for s, c in enumerate(counts):
            m = s % 2
            offset = (s - m) // 2 - ((-2 * k1 - 2 * m) // 4 + 1)
            index[offset] = index.get(offset, 0) + c
        h_sum = entropy(dict(enumerate(counts)))
        h_index = entropy(index)
        assert f"{h_sum:.6f}" == "6.029266"
        row = leakage_row(make_cubic_pair(2, 2), 1000)
        assert row.leakage == pytest.approx(2 * h_sum, abs=1e-9)
        assert row.index_entropy == pytest.approx(2 * h_index, abs=1e-9)
        assert (row.modsum_entropy, row.h_cond) == (2.0, 2 * 998.0)
        assert (row.chain_first, row.chain_last) == (2.0, 0.0)
        assert row.identity_ok and row.passed
        out = tmp_path / "leak.csv"
        assert main(["leakage", "--q", "2", "--K", "1000",
                     "--out", str(out)]) == 0
        cells = out.read_text().splitlines()[2].split(",")
        assert cells[10] == "12.058532" == f"{2 * h_sum:.6f}"
        assert cells[13] == f"{2 * h_index:.6f}"

    @settings(max_examples=8, deadline=None)
    @given(huge_cubic_rows())
    @example((2, 3162, 3))
    def test_identities_past_int64(self, config):
        q, k, n = config
        assert q ** (k - 1) > 2 ** 63
        row = leakage_row(make_cubic_pair(q, n), k)
        assert row.identity_ok and row.passed
        assert row.chain_first == pytest.approx(n * math.log2(q), abs=1e-9)
        assert row.chain_last == 0.0

    def test_cubic_row_builds_no_ensemble_or_codebook(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a cubic row built an ensemble, a codebook "
                                 "or a row expansion")

        whole = leakage_row(identity_pair(3, 2), 5)
        for name in ("DiscreteEnsemble", "codebook", "_sum_step"):
            monkeypatch.setattr(lsl.leakage, name, forbidden)
        row = leakage_row(make_cubic_pair(3, 2), 5)
        assert printed(dataclasses.astuple(row)) == printed(
            dataclasses.astuple(whole))

    @pytest.mark.parametrize("q, k, over", [
        (2, 3162, False), (2, 3163, True), (4, 1292, False), (4, 1293, True),
        (3162, 3, False), (3163, 3, True), (3, 10 ** 8, True)])
    def test_cap_checked_before_any_tally(self, q, k, over, monkeypatch):
        class Tallied(Exception):
            pass

        def no_step(*args, **kwargs):
            raise Tallied

        if k < 10 ** 4:
            assert (residue_rows(q, k) > lsl.leakage.STATE_CAP) == over
            assert (k > largest_k(q)) == over
        monkeypatch.setattr(lsl.leakage, "_residue_step", no_step)
        with pytest.raises(CapacityError if over else Tallied):
            leakage_row(make_cubic_pair(q, 1), k)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 40), st.integers(0, 30))
    @example(2, 30)
    def test_step_equals_the_row_expansion(self, q, summands):
        # the count vector over consecutive sums from summands*lo is the
        # tally that adding every residue to every support row gives
        lo = -((q - 1) // 2)
        residues = np.arange(lo, q // 2 + 1)[:, None]
        counts = np.ones(1, object)
        tally = np.zeros((1, 1), np.int64), np.ones(1, object)
        for _ in range(summands):
            counts = lsl.leakage._residue_step(counts, q)
            tally = lsl.leakage._sum_step(tally, residues)
        sums = np.arange(summands * lo, summands * lo + len(counts))
        assert np.array_equal(sums, tally[0][:, 0])
        assert counts.tolist() == tally[1].tolist()
        if q == 2:
            assert counts.tolist() == [math.comb(summands, s)
                                       for s in range(summands + 1)]

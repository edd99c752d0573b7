"""Sum certificates: folding, candidate enumeration, round trips."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lsl.representation
from lsl.errors import InvalidCertificateError, InvariantViolationError
from lsl.lattices import (
    CONSTRUCTION_A,
    CUBIC,
    Lattice,
    make_cubic_pair,
    mod_lattice,
)
from lsl.representation import (
    candidate_set,
    certify_batch,
    reconstruct_batch,
    window_index,
)

INT_LAT = Lattice(dimension=1, family=CUBIC, scale_sq=1.0)


def sample_dither(lat, rng):
    """One dither, uniform over the half-open cell of the cubic ``lat``:
    a uniform draw in the box [0, s)^N, folded into the cell."""
    return mod_lattice(lat, lat.scale * rng.random(lat.dimension))


def brute_force_candidates(lat, folded, k, span=12):
    """Independent oracle: box-scan lattice coordinates, test dilation
    membership by plain interval arithmetic (cubic only)."""
    u = np.asarray(folded, dtype=float) / lat.scale
    out = []
    for coords in itertools.product(range(-span, span + 1),
                                    repeat=lat.dimension):
        shifted = u + np.asarray(coords)
        if np.all(shifted > -k / 2 - 1e-12) and np.all(shifted <= k / 2 + 1e-12):
            # resolve the boundary strictly: reject exact lower boundary
            if np.any(np.abs(shifted + k / 2) <= 1e-12):
                continue
            out.append(coords)
    return sorted(out)


class TestModSum:
    """The folded sum of K cell points, a certificate's first part."""

    def test_two_points(self):
        out, _ = certify_batch([[0.4], [0.4]], INT_LAT)
        assert out[0] == pytest.approx(-0.2, abs=1e-12)

    def test_zeros(self):
        out, _ = certify_batch([[0.0], [0.0], [0.0]], INT_LAT)
        assert np.all(out == 0.0)

    def test_single_point_fixed(self):
        assert certify_batch([[0.37]], INT_LAT)[0][0] == 0.37

    def test_rejects_point_outside_cell(self):
        with pytest.raises(ValueError):
            certify_batch([[0.4], [0.7]], INT_LAT)


class TestCandidateSet:
    def test_window_example(self):
        cands = candidate_set([-0.2], 2, INT_LAT)
        assert cands.tolist() == [[0], [1]]

    def test_single_point_needs_no_correction(self):
        assert candidate_set([0.3], 1, INT_LAT).tolist() == [[0]]

    def test_cardinality_is_k_power_n(self):
        pair = make_cubic_pair(2, 2)
        rng = np.random.default_rng(4)
        for _ in range(50):
            m = sample_dither(pair.coarse, rng)
            cands = candidate_set(m, 3, pair.coarse)
            assert len(cands) == 3 ** 2

    def test_matches_brute_force(self):
        pair = make_cubic_pair(2, 2)
        rng = np.random.default_rng(14)
        for k in (1, 2, 3, 4):
            for _ in range(25):
                m = sample_dither(pair.coarse, rng)
                fast = [tuple(c) for c in
                        candidate_set(m, k, pair.coarse).tolist()]
                assert fast == brute_force_candidates(pair.coarse, m, k)

    def test_lex_ordering(self):
        pair = make_cubic_pair(3, 2)
        m = sample_dither(pair.coarse, np.random.default_rng(1))
        coords = [tuple(c) for c in candidate_set(m, 3, pair.coarse).tolist()]
        assert coords == sorted(coords)

    def test_rejects_folded_outside_cell(self):
        with pytest.raises(ValueError):
            candidate_set([0.7], 2, INT_LAT)


class TestCertify:
    def test_example_pair(self):
        folded, index = certify_batch([[0.4], [0.4]], INT_LAT)
        assert folded[0] == pytest.approx(-0.2, abs=1e-12)
        assert index == 2
        assert reconstruct_batch(folded, index, 2, INT_LAT)[0] == \
            pytest.approx(0.8, abs=1e-12)

    def test_all_zero(self):
        folded, index = certify_batch([[0.0], [0.0], [0.0]], INT_LAT)
        cands = [tuple(c) for c in candidate_set([0.0], 3, INT_LAT).tolist()]
        assert index == cands.index((0,)) + 1
        assert np.all(reconstruct_batch(folded, index, 3, INT_LAT) == 0.0)

    def test_index_out_of_range(self):
        folded, _ = certify_batch([[0.4], [0.4]], INT_LAT)
        with pytest.raises(InvalidCertificateError):
            reconstruct_batch(folded, 5, 2, INT_LAT)


class TestRoundTrip:
    def grid_points(self, scale, values, dim):
        return [scale * np.asarray(u) for u in
                itertools.product(values, repeat=dim)]

    @pytest.mark.parametrize("q,dim,k,values", [
        (2, 1, 4, (-0.375, -0.125, 0.0, 0.25, 0.5)),
        (3, 1, 4, (-0.4375, -0.125, 0.0, 0.25, 0.5)),
        (2, 2, 4, (-0.25, 0.25, 0.5)),
        (3, 2, 3, (-0.25, 0.0, 0.5)),
    ])
    def test_exhaustive_grid(self, q, dim, k, values):
        # grid includes the closed upper cell boundary (+s/2)
        lat = make_cubic_pair(q, dim).coarse
        pts = self.grid_points(lat.scale, values, dim)
        for combo in itertools.product(pts, repeat=k):
            folded, index = certify_batch(combo, lat)
            total = np.sum(combo, axis=0)
            assert np.allclose(reconstruct_batch(folded, index, k, lat),
                               total, atol=1e-9)
            assert 1 <= index <= k ** dim

    def test_randomized_campaign(self):
        # the same 10,000 tuples as K sample_dither draws per tuple in turn
        lat = make_cubic_pair(3, 2).coarse
        rng = np.random.default_rng(99)
        k = 3
        pts = mod_lattice(lat, lat.scale * rng.random((10_000, k, 2)))
        folded, index = certify_batch(pts, lat)
        rec = reconstruct_batch(folded, index, k, lat)
        for row, got, idx in zip(pts, rec, index):
            assert np.allclose(got, np.sum(list(row), axis=0), atol=1e-9)
            assert idx <= k ** 2

    def test_codeword_grid_tuples(self):
        # sums of codebook leaders hit the cell boundary for even q
        for q, dim, k in ((2, 2, 3), (3, 2, 3), (2, 1, 4)):
            pair = make_cubic_pair(q, dim)
            from lsl.lattices import codebook
            leaders = pair.fine.scale * codebook(pair)
            for combo in itertools.product(leaders, repeat=k):
                folded, index = certify_batch(combo, pair.coarse)
                assert np.allclose(
                    reconstruct_batch(folded, index, k, pair.coarse),
                    np.sum(combo, axis=0), atol=1e-9)
                assert index <= k ** dim


class TestUniqueness:
    def test_distinct_sums_get_distinct_indices(self):
        # brute force over a discretized tuple family: same folded value
        # with different true sums must yield different indices
        lat = make_cubic_pair(2, 1).coarse
        values = (-0.375, -0.125, 0.125, 0.25, 0.5)
        pts = [lat.scale * np.asarray([u]) for u in values]
        for k in (2, 3, 4):
            seen = {}
            for combo in itertools.product(pts, repeat=k):
                folded, index = certify_batch(combo, lat)
                key = (round(float(folded[0]), 9), int(index))
                total = round(float(np.sum(combo)), 9)
                if key in seen:
                    assert seen[key] == total
                else:
                    seen[key] = total
            # index bound over every observed folded value
            per_fold = {}
            for (fold, idx), _ in seen.items():
                per_fold.setdefault(fold, set()).add(idx)
            assert all(len(s) <= k ** 1 for s in per_fold.values())


class TestNonCubicLattice:
    def test_is_rejected(self):
        # certificates live on the coarse lattice, which is always cubic
        lat = Lattice(dimension=2, family=CONSTRUCTION_A, scale_sq=1.0,
                      modulus=2, codewords=((0, 0), (1, 1)))
        pts = [np.zeros(2), np.zeros(2), np.zeros(2)]
        with pytest.raises(ValueError, match="cubic"):
            candidate_set(np.zeros(2), 3, lat)
        with pytest.raises(ValueError, match="cubic"):
            certify_batch(pts, lat)
        with pytest.raises(ValueError, match="cubic"):
            reconstruct_batch((0.0, 0.0), 1, 3, lat)


class TestWindowIndex:
    def test_matches_candidate_positions(self):
        lat = make_cubic_pair(3, 2).coarse
        rng = np.random.default_rng(6)
        folded = np.array([sample_dither(lat, rng) for _ in range(20)])
        for k in (1, 2, 3):
            for m in folded:
                cands = [tuple(c) for c in candidate_set(m, k, lat).tolist()]
                got = window_index(np.tile(m / lat.scale, (len(cands), 1)),
                                   np.array(cands), k)
                assert got.tolist() == list(range(1, len(cands) + 1))

    def test_out_of_window_coordinate_is_an_invariant_violation(self):
        # u = 0.3 with K = 2: u + n must lie in (-1, 1], so the window
        # holds coordinates -1 and 0 only
        assert window_index(np.array([[0.3], [0.3]]),
                            np.array([[-1], [0]]), 2).tolist() == [1, 2]
        with pytest.raises(InvariantViolationError):
            window_index(np.array([[0.3], [0.3]]), np.array([[0], [1]]), 2)
        with pytest.raises(InvariantViolationError):
            window_index(np.array([0.3]), np.array([-2]), 2)

    def test_exact_past_int64(self):
        # 3^41 > 2^63: the last candidate's index needs a Python int
        n = 41
        index = window_index(np.zeros((1, n)), np.ones((1, n)), 3)
        assert index.tolist() == [3 ** n]
        assert int(window_index(np.zeros(n), np.ones(n), 3)) == 3 ** n


@st.composite
def certificate_batches(draw):
    """A cubic lattice and a (rows, K, N) batch of cell points.

    Entries are seeded uniform draws, or multiples of s/8, which put
    points on the closed upper cell boundary and sums on window edges.
    K reaches 12 in one dimension, where numpy sums a row pairwise.
    """
    dim = draw(st.integers(1, 3))
    k = draw(st.integers(1, 12 if dim == 1 else 4))
    lat = make_cubic_pair(draw(st.integers(2, 4)), dim).coarse
    shape = (draw(st.integers(1, 6)), k, dim)
    size = int(np.prod(shape))
    if draw(st.booleans()):
        eighths = draw(st.lists(st.integers(-3, 4), min_size=size,
                                max_size=size))
        pts = lat.scale * np.reshape(eighths, shape) / 8
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        pts = mod_lattice(lat, lat.scale * rng.random(shape))
    return lat, pts


class TestBatch:
    @settings(max_examples=150, deadline=None)
    @given(certificate_batches())
    def test_rows_equal_the_one_row_certificates(self, case):
        lat, pts = case
        k = pts.shape[1]
        folded, index = certify_batch(pts, lat)
        assert folded.shape == (len(pts), lat.dimension)
        assert index.shape == (len(pts),)
        for row, fold, idx in zip(pts, folded, index):
            one_fold, one_idx = certify_batch(row, lat)
            assert np.array_equal(one_fold, fold)
            assert one_idx == idx
            # bit-equal to reducing the list sum of the K points
            total = np.sum(list(row), axis=0)
            assert np.array_equal(fold, mod_lattice(lat, total))
            removed = tuple(int(c) for c in np.round((total - fold)
                                                     / lat.scale))
            cands = [tuple(c) for c in candidate_set(fold, k, lat).tolist()]
            assert cands.index(removed) + 1 == idx

    @settings(max_examples=150, deadline=None)
    @given(certificate_batches())
    def test_round_trip_gives_the_in_order_sum(self, case):
        lat, pts = case
        k = pts.shape[1]
        folded, index = certify_batch(pts, lat)
        rec = reconstruct_batch(folded, index, k, lat)
        for row, got in zip(pts, rec):
            assert np.allclose(got, np.sum(list(row), axis=0), atol=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(certificate_batches(), st.data())
    def test_out_of_range_index_names_its_row(self, case, data):
        lat, pts = case
        k = pts.shape[1]
        count = k ** lat.dimension
        folded, index = certify_batch(pts, lat)
        row = data.draw(st.integers(0, len(pts) - 1))
        index[row] = data.draw(st.sampled_from((0, -3, count + 1, count + 7)))
        with pytest.raises(InvalidCertificateError, match=f"row {row}$"):
            reconstruct_batch(folded, index, k, lat)

    @settings(max_examples=100, deadline=None)
    @given(certificate_batches(), st.data())
    def test_point_outside_the_cell_is_a_value_error(self, case, data):
        lat, pts = case
        at = tuple(data.draw(st.integers(0, n - 1)) for n in pts.shape)
        # just past the closed upper face, or on the open lower face
        pts[at] = data.draw(st.sampled_from((0.5 + 1e-6, -0.5))) * lat.scale
        with pytest.raises(ValueError, match="outside the fundamental cell"):
            certify_batch(pts, lat)

    @pytest.mark.parametrize("row", [0, 3, 6])
    def test_window_miss_names_its_row(self, row, monkeypatch):
        # move one row's window K coordinates up: its removed point then
        # sits below the window
        lat = make_cubic_pair(2, 2).coarse
        k = 3
        rng = np.random.default_rng(8)
        pts = mod_lattice(lat, lat.scale * rng.random((7, k, 2)))
        window_lows = lsl.representation._window_lows

        def shifted(u, num_points):
            lows = window_lows(u, num_points)
            lows[row, 0] += num_points
            return lows

        monkeypatch.setattr(lsl.representation, "_window_lows", shifted)
        with pytest.raises(InvariantViolationError,
                           match=f"candidate window in row {row}$"):
            certify_batch(pts, lat)

    def test_exact_past_int64(self):
        # 4^33 > 2^63: indices are Python ints, and still exact
        k, n = 4, 33
        lat = make_cubic_pair(2, n).coarse
        rng = np.random.default_rng(12)
        pts = mod_lattice(lat, lat.scale * rng.random((40, k, n)))
        folded, index = certify_batch(pts, lat)
        assert index.dtype == object
        assert all(1 <= i <= k ** n for i in index)
        rec = reconstruct_batch(folded, index, k, lat)
        for row, idx, got in zip(pts, index, rec):
            assert certify_batch(row, lat)[1] == idx
            assert np.allclose(got, np.sum(list(row), axis=0), atol=1e-9)
        # the first and last candidates sit at the window's two ends:
        # every coordinate of u + n in (-K/2, -K/2 + 1], resp. (K/2 - 1, K/2]
        ends = reconstruct_batch(folded[:2], [1, k ** n], k, lat) / lat.scale
        assert np.all((ends[0] > -k / 2) & (ends[0] <= -k / 2 + 1))
        assert np.all((ends[1] > k / 2 - 1) & (ends[1] <= k / 2))
        with pytest.raises(InvalidCertificateError, match="row 1$"):
            reconstruct_batch(folded[:2], [1, k ** n + 1], k, lat)

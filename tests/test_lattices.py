"""Lattice algebra: construction, quantization, folding, diagnostics."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from lsl.errors import CapacityError, InvalidCodeError
from lsl.lattices import (
    CONSTRUCTION_A,
    CUBIC,
    Lattice,
    ball_normalized_second_moment,
    codebook,
    covering_ball_second_moment,
    covering_radius,
    effective_radius,
    gaussian_approx_epsilon,
    in_voronoi,
    make_construction_a_pair,
    make_cubic_pair,
    mod_lattice,
    nearest_coords,
    quantize,
    sample_dither,
    second_moment,
    second_moment_mc,
)


def unit_cubic(n):
    return Lattice(dimension=n, family=CUBIC, scale_sq=1.0)


def embed(lat, coords):
    """Real embedding ``lat.scale * coords`` of integer coordinates."""
    return lat.scale * np.asarray(coords, dtype=float)


class TestPairConstruction:
    def test_normalized_coarse_interval(self):
        pair = make_cubic_pair(2, 1)
        # coarse cell is (-sqrt(3), sqrt(3)]: side 2*sqrt(3)
        assert pair.coarse.scale == pytest.approx(2 * math.sqrt(3), rel=1e-15)
        # uniform on an interval of width w has variance w^2/12
        w = pair.coarse.scale
        assert w * w / 12 == pytest.approx(1.0, rel=1e-15)
        assert second_moment(pair.coarse) == 1.0  # exact by construction
        assert pair.rate_per_dim == 1.0

    def test_cardinality_and_rate(self):
        pair = make_cubic_pair(4, 2)
        assert pair.nesting_ratio == 4 ** 2
        assert pair.rate_per_dim == 2.0
        assert pair.nesting_ratio == len(codebook(pair))

    def test_fine_scale(self):
        for q in (2, 3, 4, 5):
            pair = make_cubic_pair(q, 1)
            assert pair.fine.scale == pytest.approx(math.sqrt(12) / q, rel=1e-15)

    def test_coarse_nested_in_fine(self):
        # every coarse basis vector quantizes to itself in the fine lattice
        for pair in (make_cubic_pair(2, 2), make_cubic_pair(3, 3),
                     make_construction_a_pair(2, 2, [(1, 1)])):
            n = pair.dimension
            for j in range(n):
                basis = np.zeros(n)
                basis[j] = pair.coarse.scale
                pt = quantize(pair.fine, basis)
                assert pt.tolist() == [pair.q if i == j else 0
                                       for i in range(n)]
                assert pair.reduce(pt).tolist() == [0] * n

    def test_bad_args(self):
        with pytest.raises(ValueError):
            make_cubic_pair(1, 1)
        with pytest.raises(ValueError):
            make_cubic_pair(2, 0)


class TestConstructionA:
    def test_single_row_codebook(self):
        pair = make_construction_a_pair(2, 2, [(1, 1)])
        # oracle: enumerate all residue vectors, keep those spanned by the row
        spanned = {tuple((m * g) % 2 for g in (1, 1)) for m in range(2)}
        assert spanned == {(0, 0), (1, 1)}
        assert pair.nesting_ratio == 2
        assert pair.rate_per_dim == pytest.approx(0.5)
        assert codebook(pair).tolist() == [[0, 0], [1, 1]]

    def test_identity_generator_equals_cubic(self):
        pair_a = make_construction_a_pair(3, 2, [(1, 0), (0, 1)])
        pair_c = make_cubic_pair(3, 2)
        rng = np.random.default_rng(11)
        for _ in range(200):
            x = rng.uniform(-5, 5, size=2)
            assert np.array_equal(quantize(pair_a.fine, x),
                                  quantize(pair_c.fine, x))

    def test_zero_rank_rejected(self):
        with pytest.raises(InvalidCodeError):
            make_construction_a_pair(2, 2, [(0, 0)])

    def test_codewords_are_the_sorted_residues(self):
        for q, gen in ((2, [(1, 1, 0), (0, 1, 1)]), (4, [(1, 2), (0, 3)]),
                       (3, [(1, 0, 1, 1), (0, 1, 1, 2)]),
                       (5, [(10 ** 20 + 1, 7, -3)])):
            literal = {tuple(sum(m * g for m, g in zip(msg, col)) % q
                             for col in zip(*gen))
                       for msg in itertools.product(range(q),
                                                    repeat=len(gen))}
            pair = make_construction_a_pair(q, len(gen[0]), gen)
            assert pair.fine.codewords == tuple(sorted(literal))

    def test_composite_modulus_rank(self):
        with pytest.raises(InvalidCodeError):
            make_construction_a_pair(4, 2, [(2, 0), (0, 2)])
        pair = make_construction_a_pair(4, 2, [(1, 2), (0, 3)])
        assert pair.nesting_ratio == 16

    def test_too_many_rows(self):
        with pytest.raises(InvalidCodeError):
            make_construction_a_pair(2, 1, [(1,), (1,)])


class TestQuantize:
    def test_nearest_integer(self):
        lat = unit_cubic(1)
        assert quantize(lat, [1.7]).tolist() == [2]
        assert quantize(lat, [-1.2]).tolist() == [-1]

    def test_tie_breaks_to_lex_smallest(self):
        lat = unit_cubic(1)
        assert quantize(lat, [0.5]).tolist() == [0]
        assert quantize(lat, [-0.5]).tolist() == [-1]
        assert quantize(lat, [1.5]).tolist() == [1]

    def test_construction_a_exhaustive_oracle(self):
        lat = Lattice(dimension=2, family=CONSTRUCTION_A, scale_sq=1.0,
                      modulus=2, generator=((1, 1),),
                      codewords=((0, 0), (1, 1)))
        assert quantize(lat, [0.9, 1.1]).tolist() == [1, 1]
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.uniform(-4, 4, size=2)
            best = min(
                ((float(np.sum((x - np.array(c) - 2 * np.array(z)) ** 2)),
                  tuple(np.array(c) + 2 * np.array(z)))
                 for c in [(0, 0), (1, 1)]
                 for z in itertools.product(range(-4, 5), repeat=2)),
            )
            assert quantize(lat, x).tolist() == list(best[1])

    def test_lattice_points_are_fixed(self):
        rng = np.random.default_rng(3)
        pair = make_cubic_pair(3, 3)
        for _ in range(50):
            coords = rng.integers(-20, 20, size=3)
            assert np.array_equal(
                quantize(pair.fine, embed(pair.fine, coords)), coords)
        lat = Lattice(dimension=2, family=CONSTRUCTION_A, scale_sq=1.0,
                      modulus=2, generator=((1, 1),),
                      codewords=((0, 0), (1, 1)))
        for _ in range(50):
            z = rng.integers(-10, 10, size=2)
            c = [(0, 0), (1, 1)][rng.integers(0, 2)]
            coords = np.array(c) + 2 * z
            assert np.array_equal(quantize(lat, embed(lat, coords)), coords)

    def test_rejects_bad_input(self):
        lat = unit_cubic(2)
        with pytest.raises(ValueError):
            quantize(lat, [1.0])
        with pytest.raises(ValueError):
            quantize(lat, [np.nan, 0.0])
        with pytest.raises(ValueError):
            quantize(lat, [np.inf, 0.0])


# Unit-scale lattices, so lattice coordinates equal real coordinates.
PROPERTY_LATTICES = (
    Lattice(dimension=2, family=CUBIC, scale_sq=1.0),
    Lattice(dimension=2, family=CONSTRUCTION_A, scale_sq=1.0, modulus=2,
            generator=((1, 1),), codewords=((0, 0), (1, 1))),
    Lattice(dimension=3, family=CONSTRUCTION_A, scale_sq=1.0, modulus=3,
            generator=((1, 1, 1),),
            codewords=((0, 0, 0), (1, 1, 1), (2, 2, 2))),
    Lattice(dimension=3, family=CONSTRUCTION_A, scale_sq=1.0, modulus=2,
            generator=((1, 1, 0), (0, 1, 1)),
            codewords=((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))),
)


def brute_force_nearest(lat, x):
    """Independent oracle: scan every coset representative in a box that
    covers the nearest point of any |x_j| <= 4, sort by (squared
    distance, coordinates) and take the first."""
    q = lat.modulus or 1
    codewords = lat.codewords or ((0,) * lat.dimension,)
    shifts = q * np.array(list(itertools.product(range(-5, 6),
                                                 repeat=lat.dimension)))
    cands = np.concatenate([np.array(c) + shifts for c in codewords])
    d2 = np.sum((x - cands) ** 2, axis=1)
    order = np.lexsort([cands[:, j] for j in reversed(range(lat.dimension))]
                       + [d2])
    return tuple(int(i) for i in cands[order[0]])


# Multiples of 1/16 in [-4, 4] keep every step of the coset search
# exact, so the brute force is a true oracle on them; half-integers put
# many points on cell boundaries, where only the lexicographic tie rule
# decides.
EXACT_ENTRY = st.one_of(st.integers(-8, 8).map(lambda h: h / 2),
                        st.integers(-64, 64).map(lambda k: k / 16))
ANY_ENTRY = st.floats(-4.0, 4.0, allow_nan=False)


@st.composite
def lattice_and_batch(draw, entry):
    lat = draw(st.sampled_from(PROPERTY_LATTICES))
    rows = draw(st.lists(st.lists(entry, min_size=lat.dimension,
                                  max_size=lat.dimension),
                         min_size=1, max_size=8))
    return lat, np.array(rows)


class TestNearestCoords:
    @settings(max_examples=200, deadline=None)
    @given(lattice_and_batch(EXACT_ENTRY))
    def test_batch_equals_row_by_row_brute_force(self, case):
        lat, batch = case
        got = nearest_coords(lat, batch)
        assert got.shape == batch.shape
        for x, coords in zip(batch, got):
            assert tuple(int(c) for c in coords) == \
                brute_force_nearest(lat, x)

    @settings(max_examples=200, deadline=None)
    @given(lattice_and_batch(ANY_ENTRY))
    def test_batch_equals_its_rows_for_any_floats(self, case):
        # Within an ulp of a coset boundary the rounded (u - c)/q can
        # pick a point an ulp farther than the exact nearest, as the
        # scalar quantizer always did; a batch must still equal its rows
        # bit for bit, which is what keeps the engine equal to run_trial.
        lat, batch = case
        rows = np.array([nearest_coords(lat, x) for x in batch])
        assert np.array_equal(nearest_coords(lat, batch), rows)

    def test_leading_axes_are_kept(self):
        lat = PROPERTY_LATTICES[1]
        x = np.random.default_rng(4).uniform(-3, 3, size=(5, 4, 2))
        got = nearest_coords(lat, x)
        assert got.shape == (5, 4, 2)
        assert np.array_equal(got.reshape(-1, 2),
                              nearest_coords(lat, x.reshape(-1, 2)))
        assert np.array_equal(mod_lattice(lat, x), x - got)
        assert np.array_equal(in_voronoi(lat, x), np.all(got == 0, axis=-1))

    def test_rejects_bad_batches(self):
        lat = PROPERTY_LATTICES[1]
        with pytest.raises(ValueError):
            nearest_coords(lat, np.zeros((4, 3)))
        with pytest.raises(ValueError):
            nearest_coords(lat, np.array([[0.0, 0.0], [np.nan, 1.0]]))
        with pytest.raises(ValueError):
            quantize(lat, np.zeros((2, 2)))


class TestMod:
    def test_simple(self):
        lat = unit_cubic(1)
        assert mod_lattice(lat, [1.7]) == pytest.approx([-0.3], abs=1e-12)

    def test_fixed_on_cell(self):
        lat = unit_cubic(1)
        for v in (0.3, -0.49, 0.5):
            out = mod_lattice(lat, [v])
            assert out[0] == v  # already in (-1/2, 1/2]

    def test_normalized_coarse_example(self):
        pair = make_cubic_pair(2, 1)
        out = mod_lattice(pair.coarse, [2.0])
        assert out[0] == pytest.approx(2.0 - 2 * math.sqrt(3), rel=1e-12)

    def test_idempotent_bitwise(self):
        rng = np.random.default_rng(7)
        for lat in (unit_cubic(4), make_cubic_pair(3, 4).coarse):
            for _ in range(200):
                x = rng.uniform(-30, 30, size=4)
                once = mod_lattice(lat, x)
                assert np.array_equal(mod_lattice(lat, once), once)

    def test_exact_zero_on_lattice_coords(self):
        pair = make_cubic_pair(2, 2)
        on_lattice = embed(pair.coarse, (3, -2))
        assert np.all(mod_lattice(pair.coarse, on_lattice) == 0.0)

    def test_difference_is_lattice_point(self):
        rng = np.random.default_rng(8)
        lat = make_cubic_pair(3, 2).coarse
        for _ in range(100):
            x = rng.uniform(-20, 20, size=2)
            diff = (x - mod_lattice(lat, x)) / lat.scale
            assert np.allclose(diff, np.round(diff), atol=1e-9)


class TestDither:
    def test_moments(self):
        pair = make_cubic_pair(2, 1)
        rng = np.random.default_rng(123)
        draws = np.array([sample_dither(pair.coarse, rng)[0]
                          for _ in range(100_000)])
        assert abs(draws.mean()) < 0.02
        assert np.mean(draws ** 2) == pytest.approx(1.0, rel=0.01)

    def test_deterministic_streams(self):
        pair = make_cubic_pair(3, 2)
        a = [sample_dither(pair.coarse, np.random.default_rng(9)) for _ in range(5)]
        b = [sample_dither(pair.coarse, np.random.default_rng(9)) for _ in range(5)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_support_is_half_open_cell(self):
        pair = make_cubic_pair(2, 3)
        rng = np.random.default_rng(21)
        s = pair.coarse.scale
        for _ in range(500):
            d = sample_dither(pair.coarse, rng)
            assert np.all(d > -s / 2) and np.all(d <= s / 2)
            assert in_voronoi(pair.coarse, d)

    def test_chi_squared_uniformity(self):
        # 16 equal bins per coordinate, significance 0.01
        pair = make_cubic_pair(2, 2)
        rng = np.random.default_rng(2024)
        n = 100_000
        draws = np.array([sample_dither(pair.coarse, rng) for _ in range(n)])
        s = pair.coarse.scale
        edges = np.linspace(-s / 2, s / 2, 17)
        crit = stats.chi2.ppf(0.99, 15)
        for coord in range(2):
            counts, _ = np.histogram(draws[:, coord], bins=edges)
            expected = n / 16
            stat = np.sum((counts - expected) ** 2 / expected)
            assert stat < crit

    def test_not_implemented_for_coded(self):
        pair = make_construction_a_pair(2, 2, [(1, 1)])
        with pytest.raises(NotImplementedError):
            sample_dither(pair.fine, np.random.default_rng(0))


class TestSecondMoment:
    def test_closed_forms(self):
        assert second_moment(make_cubic_pair(5, 3).coarse) == 1.0
        # side-2 cell (scale 1, q 2): uniform variance (2)^2/12 = 1/3
        coarse = Lattice(dimension=1, family=CUBIC, scale_sq=4.0)
        assert second_moment(coarse) == pytest.approx(1 / 3, rel=1e-15)

    def test_mc_matches_closed_form(self):
        coarse = Lattice(dimension=1, family=CUBIC, scale_sq=4.0)
        est, se = second_moment_mc(coarse, 20_000, np.random.default_rng(17))
        assert abs(est - 1 / 3) < 3 * se

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("seed", [17, 2024])
    def test_mc_is_bit_equal_to_per_sample_draws(self, dim, seed):
        lat = make_cubic_pair(3, dim).coarse
        rng = np.random.default_rng(seed)
        per_draw = np.empty(5_000)
        for i in range(len(per_draw)):
            d = sample_dither(lat, rng)
            per_draw[i] = np.sum(d * d) / dim
        expected = (float(np.mean(per_draw)),
                    float(np.std(per_draw, ddof=1) / math.sqrt(5_000)))
        assert second_moment_mc(lat, 5_000,
                                np.random.default_rng(seed)) == expected

    def test_mc_needs_a_cubic_lattice(self):
        pair = make_construction_a_pair(2, 2, [(1, 1)])
        with pytest.raises(NotImplementedError):
            second_moment_mc(pair.fine, 10, np.random.default_rng(0))


def centered(v, q):
    r = v % q
    return r - q if 2 * r > q else r


@st.composite
def codebook_pairs(draw):
    """A cubic pair, or a Construction-A pair with a random full-rank
    generator, with at most 256 leaders; and the literal enumeration of
    its leaders.  The generator has an identity block on k random
    columns, random residues elsewhere, and its second row has a random
    multiple of the first added, so its rank is k mod any q."""
    q = draw(st.integers(2, 6))
    digits = max(r for r in range(1, 6) if q ** r <= 256)
    if draw(st.booleans()):
        n = draw(st.integers(1, digits))
        residues = sorted(centered(r, q) for r in range(q))
        return make_cubic_pair(q, n), list(itertools.product(residues,
                                                             repeat=n))
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, min(n, digits)))
    rows = [draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
            for _ in range(k)]
    pivots = draw(st.permutations(range(n)))[:k]
    for i, row in enumerate(rows):
        for j, col in enumerate(pivots):
            row[col] = int(i == j)
    if k > 1:
        mult = draw(st.integers(0, q - 1))
        rows[1] = [(a + mult * b) % q for a, b in zip(rows[1], rows[0])]
    words = {tuple(sum(m * g for m, g in zip(msg, col)) % q
                   for col in zip(*rows))
             for msg in itertools.product(range(q), repeat=k)}
    return (make_construction_a_pair(q, n, rows),
            sorted(tuple(centered(v, q) for v in w) for w in words))


class TestCodebook:
    @settings(max_examples=100, deadline=None)
    @given(codebook_pairs())
    def test_codebook_properties(self, case):
        pair, expected = case
        q, n = pair.q, pair.dimension
        leaders = codebook(pair)
        assert isinstance(leaders, np.ndarray)
        assert leaders.dtype == np.int64
        assert leaders.shape == (pair.nesting_ratio, n)
        assert not leaders.flags.writeable
        assert leaders.flags.c_contiguous
        rows = [tuple(r) for r in leaders.tolist()]
        assert all(a < b for a, b in zip(rows, rows[1:]))
        assert np.all((2 * leaders > -q) & (2 * leaders <= q))
        assert np.all(in_voronoi(pair.coarse, pair.fine.scale * leaders))
        sums = pair.reduce(leaders[:, None, :] + leaders[None, :, :])
        assert {tuple(r) for r in sums.reshape(-1, n).tolist()} == set(rows)
        assert rows == expected

    def test_sizes(self):
        assert len(codebook(make_cubic_pair(2, 2))) == 4
        assert len(codebook(make_construction_a_pair(2, 2, [(1, 1)]))) == 2

    def test_cap(self):
        with pytest.raises(CapacityError):
            codebook(make_cubic_pair(2, 2), cap=1)

    def test_leaders_in_coarse_cell_and_distinct(self):
        for pair in (make_cubic_pair(2, 2), make_cubic_pair(3, 2),
                     make_cubic_pair(4, 2),
                     make_construction_a_pair(2, 3, [(1, 1, 0), (0, 1, 1)])):
            points = codebook(pair)
            coords = [tuple(p) for p in points.tolist()]
            assert len(set(coords)) == pair.nesting_ratio
            assert coords == sorted(coords)
            for p in points:
                assert in_voronoi(pair.coarse, embed(pair.fine, p))

    def test_group_closure_exhaustive(self):
        for pair in (make_cubic_pair(2, 2), make_cubic_pair(4, 2),
                     make_cubic_pair(3, 3),
                     make_construction_a_pair(2, 3, [(1, 1, 0), (0, 1, 1)])):
            points = codebook(pair)
            assert pair.nesting_ratio <= 256
            members = {tuple(p) for p in points.tolist()}
            for s, t in itertools.product(points, repeat=2):
                assert tuple(pair.reduce(s + t).tolist()) in members


class TestDiagnostics:
    def test_radii_dim1(self):
        coarse = make_cubic_pair(2, 1).coarse
        assert covering_radius(coarse) == pytest.approx(math.sqrt(3), rel=1e-15)
        # 1-ball volume is 2, so the volume-matching radius is side/2
        assert effective_radius(coarse) == pytest.approx(math.sqrt(3), rel=1e-12)

    def test_radii_dim2(self):
        coarse = make_cubic_pair(2, 2).coarse
        assert covering_radius(coarse) ** 2 == pytest.approx(6.0, rel=1e-12)
        assert effective_radius(coarse) ** 2 == pytest.approx(12 / math.pi,
                                                              rel=1e-12)

    def test_ratio_at_least_one(self):
        for n in range(1, 13):
            coarse = make_cubic_pair(2, n).coarse
            assert covering_radius(coarse) >= effective_radius(coarse) - 1e-12

    def test_ball_constant(self):
        assert ball_normalized_second_moment(1) == pytest.approx(1 / 12,
                                                                 rel=1e-12)
        limit = 1 / (2 * math.pi * math.e)
        assert ball_normalized_second_moment(100) == pytest.approx(limit,
                                                                   rel=0.05)
        values = [ball_normalized_second_moment(n) for n in range(1, 200)]
        assert all(a > b for a, b in zip(values, values[1:]))
        with pytest.raises(ValueError):
            ball_normalized_second_moment(0)

    def test_epsilon_dim1(self):
        coarse = make_cubic_pair(2, 1).coarse
        diag = gaussian_approx_epsilon(coarse)
        expected = 0.5 * math.log(2 * math.pi * math.e / 12) + 1.0
        assert diag.epsilon == pytest.approx(expected, rel=1e-9)
        assert diag.amplification == pytest.approx(math.exp(diag.epsilon),
                                                   rel=1e-12)

    def test_epsilon_floor(self):
        # the radius-ratio term is nonnegative, so epsilon never drops
        # below the ratio-1 floor
        for n in range(1, 9):
            coarse = make_cubic_pair(2, n).coarse
            floor = 0.5 * math.log(
                2 * math.pi * math.e * ball_normalized_second_moment(n)) + 1 / n
            assert gaussian_approx_epsilon(coarse).epsilon >= floor - 1e-12

    def test_covering_ball_moment(self):
        c1 = make_cubic_pair(2, 1).coarse
        assert covering_ball_second_moment(c1) == pytest.approx(1.0, rel=1e-12)
        c2 = make_cubic_pair(2, 2).coarse
        assert covering_ball_second_moment(c2) == pytest.approx(1.5, rel=1e-12)
        ratio_sq = (covering_radius(c2) / effective_radius(c2)) ** 2
        assert ratio_sq == pytest.approx(math.pi / 2, rel=1e-12)

    def test_moment_sandwich_through_dim8(self):
        for q in (2, 3):
            for n in range(1, 9):
                coarse = make_cubic_pair(q, n).coarse
                sigma_sq = covering_ball_second_moment(coarse)
                upper = (covering_radius(coarse) / effective_radius(coarse)) ** 2
                assert n / (n + 2) - 1e-12 <= sigma_sq <= upper + 1e-12

    def test_unsupported_family(self):
        pair = make_construction_a_pair(2, 2, [(1, 1)])
        with pytest.raises(NotImplementedError):
            covering_radius(pair.fine)
        with pytest.raises(NotImplementedError):
            effective_radius(pair.fine)

"""Lattice algebra: construction, quantization, folding, diagnostics."""

import functools
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import lsl.lattices
from lsl.errors import CapacityError, InvalidCodeError
from lsl.lattices import (
    CONSTRUCTION_A,
    CUBIC,
    Lattice,
    NestedPair,
    _reduce_axis,
    _round_half_down,
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
    second_moment,
)


def unit_cubic(n):
    return Lattice(dimension=n, family=CUBIC, scale_sq=1.0)


def embed(lat, coords):
    """Real embedding ``lat.scale * coords`` of integer coordinates."""
    return lat.scale * np.asarray(coords, dtype=float)


def sample_dither(lat, rng):
    """One dither, uniform over the half-open cell of the cubic ``lat``:
    a uniform draw in the box [0, s)^N, folded by ``mod_lattice``, which
    maps the box one to one onto the cell and keeps its measure."""
    return mod_lattice(lat, lat.scale * rng.random(lat.dimension))


def second_moment_mc(lat, samples, rng):
    """Monte Carlo ``(estimate, standard_error)`` of the per-dimension
    second moment of the cubic ``lat`` from ``samples`` dithers, drawn
    row-major: the same stream as ``samples`` sample_dither calls."""
    d = mod_lattice(lat, lat.scale * rng.random((samples, lat.dimension)))
    per_draw = np.sum(d * d, axis=-1) / lat.dimension
    return (float(np.mean(per_draw)),
            float(np.std(per_draw, ddof=1) / math.sqrt(samples)))


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

    @pytest.mark.parametrize("coords", [[0.5, 2.7], np.array([1.0, 2.0]),
                                        np.array([True, False])])
    def test_reduce_rejects_non_integer_coordinates(self, coords):
        with pytest.raises(ValueError, match="integer coordinates"):
            make_cubic_pair(2, 2).reduce(coords)

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint16])
    def test_reduce_on_any_integer_dtype(self, dtype):
        pair = make_cubic_pair(4, 3)
        raw = [[5, 2, 0], [7, 126, 3]]
        want = [[((v + 1) % 4) - 1 for v in row] for row in raw]
        out = pair.reduce(np.array(raw, dtype=dtype))
        assert out.dtype == np.int64 and out.tolist() == want
        assert pair.reduce(raw).tolist() == want

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
               st.integers(-2**63, 2**63 - 1),
               st.integers(-2**63, -2**63 + 2**33),
               st.integers(2**63 - 2**33, 2**63 - 1),
               st.sampled_from([-2**62, 2**62, -1, 0, 1])),
               min_size=1, max_size=8),
           st.integers(2, 2**32))
    @example([2**63 - 1, 2**63 - 2, -2**63, -2**63 + 1, 2**62, -2**62], 2**32)
    @example([2**63 - 1, 2**63 - 2, -2**63, -2**63 + 1], 3)
    @example([2**63 - 1, -2**63], 2**32 - 1)
    def test_reduce_is_the_centered_residue_over_all_int64(self, v, q):
        # the one coset-reduction rule is exact on every int64, within
        # q/2 of either end too, where an offset v + (q-1)//2 would wrap
        got = make_cubic_pair(q, 1).reduce(np.array(v, dtype=np.int64))
        want = [x - q * ((x + (q - 1) // 2) // q) for x in v]
        assert got.dtype == np.int64 and got.tolist() == want
        assert all(-q < 2 * r <= q for r in got.tolist())


class TestReduceAxis:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 20), min_size=1, max_size=3),
           st.integers(0, 2), st.integers(0, 2**32 - 1))
    def test_adds_in_order_whatever_the_shape(self, shape, axis, seed):
        # terms of many magnitudes, so that another order (numpy adds a
        # contiguous run of 8 or more pairwise) gives other floats
        axis %= len(shape)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
        want = functools.reduce(np.add, np.moveaxis(x, axis, 0))
        got = _reduce_axis(np.add, x, axis)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        flags = x > 0
        for ufunc, numpy_reduction in ((np.logical_and, np.all),
                                       (np.logical_or, np.any)):
            assert np.array_equal(_reduce_axis(ufunc, flags, axis),
                                  numpy_reduction(flags, axis=axis))
        ints = rng.integers(-2**40, 2**40, shape)
        assert np.array_equal(_reduce_axis(np.add, ints, axis),
                              np.sum(ints, axis=axis))


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
        # centered in (-q/2, q/2], rows in lexicographic order
        for q, gen in ((2, [(1, 1, 0), (0, 1, 1)]), (4, [(1, 2), (0, 3)]),
                       (3, [(1, 0, 1, 1), (0, 1, 1, 2)]),
                       (5, [(10 ** 20 + 1, 7, -3)])):
            pair = make_construction_a_pair(q, len(gen[0]), gen)
            assert pair.fine.codewords.tolist() == [
                list(w) for w in reference_code(q, gen)]

    def test_composite_modulus_rank(self):
        with pytest.raises(InvalidCodeError):
            make_construction_a_pair(4, 2, [(2, 0), (0, 2)])
        for q, gen in ((4, [(1, 2), (0, 3)]), (6, [(2, 3)])):
            pair = make_construction_a_pair(q, 2, gen)
            assert pair.nesting_ratio == q ** len(gen)

    def test_enumeration_cap_checked_first(self):
        # 2^17 messages over the cap; the zero rows are never enumerated
        with pytest.raises(CapacityError):
            make_construction_a_pair(2, 17, [(0,) * 17] * 17)

    def test_enumerated_entries_checked_before_enumeration(self,
                                                           monkeypatch):
        # [I16 | 1...] has 2^16 codewords: 64 coordinates are 2^22
        # entries, 65 are over the cap.  Enumerating them would cost
        # about 0.7 MB a coordinate.
        def no_enumeration(*args, **kwargs):
            raise AssertionError("the messages were enumerated")

        gen = [[int(i == r) for i in range(16)] + [1] * 49
               for r in range(16)]
        monkeypatch.setattr(np, "arange", no_enumeration)
        with pytest.raises(CapacityError, match=(
                r"^codeword enumeration of 65536x65 entries exceeds cap "
                r"4194304$")):
            make_construction_a_pair(2, 65, gen)

    @pytest.mark.parametrize("n, over", [(6, False), (7, True)])
    def test_enumerated_entries_cap_is_exact(self, n, over, monkeypatch):
        # 2^3 codewords of n coordinates against a cap of 48 entries
        monkeypatch.setattr(lsl.lattices, "_ENUMERATION_ENTRIES", 48)
        gen = [[int(i == r) for i in range(3)] + [1] * (n - 3)
               for r in range(3)]
        if over:
            with pytest.raises(CapacityError):
                make_construction_a_pair(2, n, gen)
        else:
            assert make_construction_a_pair(2, n, gen).nesting_ratio == 8

    def test_pair_rejects_fine_modulus_other_than_q(self):
        fine = Lattice(dimension=2, family=CONSTRUCTION_A, scale_sq=3.0,
                       modulus=3, codewords=((0, 0), (1, 1), (2, 2)))
        coarse = Lattice(dimension=2, family=CUBIC, scale_sq=12.0)
        with pytest.raises(ValueError, match="modulus"):
            NestedPair(fine=fine, coarse=coarse, q=2)

    def test_equal_codes_compare_and_hash_equal(self):
        gen = [(1, 1, 0), (0, 1, 1)]
        pair = make_construction_a_pair(2, 3, gen)
        same = (make_construction_a_pair(2, 3, gen),
                # another basis of the same code
                make_construction_a_pair(2, 3, [(1, 0, 1), (0, 1, 1)]))
        for other in same:
            assert pair == other and hash(pair) == hash(other)
            assert pair.fine == other.fine
            assert hash(pair.fine) == hash(other.fine)
        other_codes = (
            make_construction_a_pair(2, 3, [(1, 1, 0), (0, 0, 1)]),
            make_construction_a_pair(2, 3, [(1, 1, 1)]),
            make_construction_a_pair(3, 3, gen),
            make_cubic_pair(2, 3))
        for other in other_codes:
            assert pair != other and pair.fine != other.fine
        assert pair.fine != pair.coarse and pair.fine != "code"
        assert len({pair, *same, *other_codes}) == 1 + len(other_codes)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads /proc/self/status")
    def test_large_code_build_memory_is_bounded(self):
        # The [I16 | 1] code is one 10 MB array of 2^16 x 20 int64s; its
        # build adds three one-byte copies of it.
        growth = peak_growth_kb(
            "", "pair = make_construction_a_pair(2, 20, I16_1)\n")
        assert growth < 40 * 1024

    def test_too_many_rows(self):
        with pytest.raises(InvalidCodeError):
            make_construction_a_pair(2, 1, [(1,), (1,)])

    @pytest.mark.parametrize("codewords", [
        ((0, 0, 0), (1, 1, 1)),  # once a numpy broadcast error on N=2
        ((0, 0), (1, 1, 1)),
        ((0,), (1,)),
        (0, 1),
        ((0, 0), (0.5, 1)),
        ((False, False), (True, True)),
        ((0, 0), ("1", "1")),
        np.array([[0, 0], [1, 1]], np.uint8),
    ])
    def test_lattice_rejects_codewords_that_are_not_n_integers(self,
                                                               codewords):
        with pytest.raises(ValueError, match="must be 2 integers each"):
            Lattice(dimension=2, family=CONSTRUCTION_A, scale_sq=1.0,
                    modulus=2, codewords=codewords)

    def test_codewords_are_one_read_only_array(self):
        # literal rows of any signed dtype are reduced to (-q/2, q/2]
        # and sorted, also where the dtype cannot hold q
        for q, rows in ((3, ((0, 0), (4, -2), (2, 1))),
                        (3, np.array([[0, 0], [4, -2], [2, 1]], np.int8)),
                        (200, np.array([[1, 1], [-1, 1], [0, 0]], np.int8))):
            lat = Lattice(dimension=2, family=CONSTRUCTION_A, scale_sq=1.0,
                          modulus=q, codewords=rows)
            assert lat.codewords.dtype == np.int64
            assert lat.codewords.tolist() == [[-1, 1], [0, 0], [1, 1]]
            assert not lat.codewords.flags.writeable
        assert unit_cubic(2).codewords is None


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
                      modulus=2, codewords=((0, 0), (1, 1)))
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
                      modulus=2, codewords=((0, 0), (1, 1)))
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
            codewords=((0, 0), (1, 1))),
    Lattice(dimension=3, family=CONSTRUCTION_A, scale_sq=1.0, modulus=3,
            codewords=((0, 0, 0), (1, 1, 1), (2, 2, 2))),
    Lattice(dimension=3, family=CONSTRUCTION_A, scale_sq=1.0, modulus=2,
            codewords=((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))),
    # composite q: the code of generator (2, 3) mod 6
    Lattice(dimension=2, family=CONSTRUCTION_A, scale_sq=1.0, modulus=6,
            codewords=((0, 0), (0, 3), (2, 0), (2, 3), (4, 0), (4, 3))),
)


def unit_code(q, generator):
    """The unit-scale Construction-A lattice of ``generator`` mod q."""
    n = len(generator[0])
    words = make_construction_a_pair(q, n, generator).fine.codewords
    return Lattice(dimension=n, family=CONSTRUCTION_A, scale_sq=1.0,
                   modulus=q, codewords=words)


# The [8,4] extended Hamming code and a [16,12] code (M = 4096) whose
# parity columns are the 4 bits of the row number plus one.
HAMMING_8_4 = unit_code(2, [(1, 0, 0, 0, 0, 1, 1, 1),
                            (0, 1, 0, 0, 1, 0, 1, 1),
                            (0, 0, 1, 0, 1, 1, 0, 1),
                            (0, 0, 0, 1, 1, 1, 1, 0)])
CODE_16_12 = unit_code(2, [[int(i == r) for i in range(12)]
                           + [(r + 1) >> b & 1 for b in range(4)]
                           for r in range(12)])


def coset_loop_nearest(lat, x):
    """Reference Construction-A quantizer, one codeword coset at a time:
    take each coset's best representative (halves rounded down, then
    stepped by q where u_j - v_j leaves (-q/2, q/2]), sum its squared
    distance with ``np.sum`` and keep a running best under (distance,
    lexicographic order).  ``np.sum`` adds left to right for N < 8."""
    u = np.asarray(x, dtype=float) / lat.scale
    q = lat.modulus
    best = np.zeros(u.shape, dtype=np.int64)
    best_d2 = np.full(u.shape[:-1], np.inf)
    for c in lat.codewords:
        carr = np.asarray(c, dtype=np.int64)
        v = carr + q * _round_half_down((u - carr) / q).astype(np.int64)
        v = v + q * ((u > v + q / 2).astype(np.int64) - (u <= v - q / 2))
        d2 = np.sum((u - v) ** 2, axis=-1)
        differs = v != best
        first = np.argmax(differs, axis=-1)[..., None]
        lex_smaller = np.take_along_axis(v < best, first, axis=-1)[..., 0]
        better = (d2 < best_d2) | ((d2 == best_d2) & lex_smaller)
        best = np.where(better[..., None], v, best)
        best_d2 = np.where(better, d2, best_d2)
    return best


def brute_force_nearest(lat, x):
    """Independent oracle: scan every coset representative in a box that
    covers the nearest point of any |x_j| <= 4, sort by (squared
    distance, coordinates) and return the first, with the set of every
    candidate at its squared distance."""
    q = lat.modulus or 1
    codewords = (np.zeros((1, lat.dimension), np.int64)
                 if lat.codewords is None else lat.codewords)
    shifts = q * np.array(list(itertools.product(range(-5, 6),
                                                 repeat=lat.dimension)))
    cands = np.concatenate([np.array(c) + shifts for c in codewords])
    d2 = np.sum((x - cands) ** 2, axis=1)
    order = np.lexsort([cands[:, j] for j in reversed(range(lat.dimension))]
                       + [d2])
    ties = {tuple(int(i) for i in c) for c in cands[d2 == d2[order[0]]]}
    return tuple(int(i) for i in cands[order[0]]), ties


# Multiples of 1/16 in [-4, 4] keep every step of the coset search
# exact; half-integers put many points on cell boundaries, where only
# the lexicographic tie rule decides.
EXACT_ENTRY = st.one_of(st.integers(-8, 8).map(lambda h: h / 2),
                        st.integers(-64, 64).map(lambda k: k / 16))
ANY_ENTRY = st.floats(-4.0, 4.0, allow_nan=False)


@st.composite
def lattice_and_batch(draw, entry, lattices=PROPERTY_LATTICES):
    lat = draw(st.sampled_from(lattices))
    rows = draw(st.lists(st.lists(entry, min_size=lat.dimension,
                                  max_size=lat.dimension),
                         min_size=1, max_size=8))
    return lat, np.array(rows)


CODED_LATTICES = tuple(lat for lat in PROPERTY_LATTICES
                       if lat.family == CONSTRUCTION_A)


@st.composite
def long_batch(draw, lattices, any_floats):
    """A lattice of ``lattices`` and 100 to 300 rows from a drawn seed:
    entries are half-integers, multiples of 1/16 and, with
    ``any_floats``, uniform floats in [-4, 4], mixed at random.  The
    seed keeps the drawn data small where hypothesis would refuse
    thousands of drawn entries."""
    lat = draw(st.sampled_from(lattices))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (draw(st.integers(100, 300)), lat.dimension)
    kinds = [rng.integers(-8, 9, shape) / 2, rng.integers(-64, 65, shape) / 16]
    if any_floats:
        kinds.append(rng.uniform(-4.0, 4.0, shape))
    return lat, np.choose(rng.integers(0, len(kinds), shape), kinds)


def peak_growth_kb(setup, work):
    """How far ``work`` raises the peak RSS of a fresh interpreter that
    has run ``setup``, in kB.  VmHWM is the child's own peak RSS, without
    what fork passes on to ru_maxrss.  Both scripts see numpy as np,
    ``make_construction_a_pair``, ``nearest_coords`` and I16_1, the
    generator [I16 | 1] of 2^16 codewords at N = 20."""
    script = (
        "import numpy as np\n"
        "from lsl.lattices import make_construction_a_pair, "
        "nearest_coords\n"
        "def peak_kb():\n"
        "    with open('/proc/self/status') as f:\n"
        "        return next(int(l.split()[1]) for l in f\n"
        "                    if l.startswith('VmHWM'))\n"
        "I16_1 = [[int(i == r) for i in range(16)] + [1] * 4\n"
        "         for r in range(16)]\n"
        f"{setup}"
        "before = peak_kb()\n"
        f"{work}"
        "print(peak_kb() - before)\n")
    src = os.path.dirname(os.path.dirname(lsl.lattices.__file__))
    result = subprocess.run([sys.executable, "-c", script],
                            env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, check=True)
    return int(result.stdout)


class TestNearestCoords:
    @settings(max_examples=300, deadline=None)
    @given(lattice_and_batch(st.one_of(EXACT_ENTRY, ANY_ENTRY)))
    @example((PROPERTY_LATTICES[3], np.array([[1e-323, 1.5e-323, 3.0]])))
    def test_batch_equals_row_by_row_brute_force(self, case):
        # The result lies at the brute force's float distance.  Two
        # points can tie there while their exact distances differ (next
        # to an ulp-small coordinate, (0, 0, 2) and (-1, 0, 3) are both
        # at 1.0 above); away from such ties, and on exact entries, the
        # result is the brute force's point.
        lat, batch = case
        got = nearest_coords(lat, batch)
        assert got.shape == batch.shape
        for x, coords in zip(batch, got):
            nearest, ties = brute_force_nearest(lat, x)
            coords = tuple(int(c) for c in coords)
            assert coords in ties
            if len(ties) == 1 or np.all(x * 16 == np.round(x * 16)):
                assert coords == nearest

    def test_nearest_within_an_ulp_of_a_boundary(self):
        # (u - c)/q once rounded the coset-(1,1) point of this x to
        # (-5, 1), giving (-4, 0) at d^2 = 1.0; and t - 0.5 once rounded
        # -0.49999999999999994 down to the coordinate -1
        d2_code, cubic = PROPERTY_LATTICES[1], PROPERTY_LATTICES[0]
        x = np.array([np.nextafter(-4.0, 0.0), 1.0])
        assert nearest_coords(d2_code, x).tolist() == [-3, 1]
        assert np.sum((x - [-3, 1]) ** 2) < 1.0
        assert nearest_coords(cubic, [-0.49999999999999994, 0.5]).tolist() \
            == [0, 0]
        assert np.array_equal(mod_lattice(d2_code, x), x - [-3, 1])

    @settings(max_examples=200, deadline=None)
    @given(lattice_and_batch(ANY_ENTRY))
    def test_batch_equals_its_rows_for_any_floats(self, case):
        # a batch equals its rows bit for bit, which is what keeps the
        # engine equal to run_trial
        lat, batch = case
        rows = np.array([nearest_coords(lat, x) for x in batch])
        assert np.array_equal(nearest_coords(lat, batch), rows)

    @settings(max_examples=200, deadline=None)
    @given(lattice_and_batch(st.one_of(EXACT_ENTRY, ANY_ENTRY),
                             CODED_LATTICES))
    def test_equals_the_coset_loop_for_any_floats(self, case):
        # N < 8: both sum a codeword's distance left to right
        lat, batch = case
        assert np.array_equal(nearest_coords(lat, batch),
                              coset_loop_nearest(lat, batch))

    @settings(max_examples=6, deadline=None)
    @given(long_batch((HAMMING_8_4, CODE_16_12), any_floats=False))
    def test_equals_the_coset_loop_on_long_codes(self, case):
        # Multiples of 1/16 make every distance exact, so the summation
        # order of N >= 8 cannot matter; 100+ rows of the M = 4096 code
        # score it in two or more blocks, whose winners merge.
        lat, batch = case
        if lat is CODE_16_12:
            assert len(batch) * len(lat.codewords) \
                > lsl.lattices.SCORE_BLOCK
        assert np.array_equal(nearest_coords(lat, batch),
                              coset_loop_nearest(lat, batch))

    @settings(max_examples=4, deadline=None)
    @given(long_batch((CODE_16_12,), any_floats=True))
    def test_long_code_batch_equals_its_rows(self, case):
        # a row alone is one block; in a batch the blocks shrink with the
        # row count
        lat, batch = case
        rows = np.array([nearest_coords(lat, x) for x in batch])
        assert np.array_equal(nearest_coords(lat, batch), rows)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads /proc/self/status")
    def test_large_code_decode_memory_is_bounded(self):
        # One chunk of direct-link rows at K=3 (546 trials x 2 links) on
        # the 2^16-codeword [I16 | 1] code: a full row x codeword table
        # would be 1092 x 65536 floats, over half a GB.
        growth = peak_growth_kb(
            "pair = make_construction_a_pair(2, 20, I16_1)\n"
            "x = np.random.default_rng(0).uniform(-2, 2, (546, 2, 20))\n",
            "coords = nearest_coords(pair.fine, x)\n"
            "assert coords.shape == x.shape\n")
        assert growth < 64 * 1024

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


def reference_code(q, rows):
    """The sorted set of the centered codewords sum_i m_i g_i mod q over
    every message m, enumerated in Python ints."""
    return sorted({tuple(centered(sum(m * g for m, g in zip(msg, col)), q)
                         for col in zip(*rows))
                   for msg in itertools.product(range(q), repeat=len(rows))})


@st.composite
def generators(draw, moduli=st.integers(2, 8)):
    """A modulus q in 2..8 (or drawn from ``moduli``), composites
    included, and a random k x N integer generator, entries unreduced
    and of either sign."""
    q = draw(moduli)
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, n))
    entry = st.integers(-2 * q, 2 * q)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=k, max_size=k))
    return q, n, rows


class TestValidityRule:
    @settings(max_examples=300, deadline=None)
    @given(generators())
    @example((6, 2, [[2, 3]]))
    def test_accepted_exactly_when_injective(self, case):
        """The pair exists iff the q^k messages give q^k distinct
        codewords, and then its size and rate are those of the code."""
        q, n, rows = case
        k = len(rows)
        words = reference_code(q, rows)
        if len(words) < q ** k:
            with pytest.raises(InvalidCodeError):
                make_construction_a_pair(q, n, rows)
            return
        pair = make_construction_a_pair(q, n, rows)
        m = pair.nesting_ratio
        assert m == len(codebook(pair)) == q ** k
        assert pair.rate_per_dim == math.log2(m) / n

    @settings(max_examples=200, deadline=None)
    @given(generators(st.sampled_from((2, 3, 4, 5, 6))), st.data())
    def test_codewords_are_the_reference_enumeration(self, case, data):
        """The code's one array is the sorted set of centered codewords,
        a non-injective generator is refused with its distinct count, and
        the set's rows, shifted by multiples of q and shuffled, give the
        same lattice."""
        q, n, rows = case
        words = reference_code(q, rows)
        if len(words) < q ** len(rows):
            with pytest.raises(InvalidCodeError, match=(
                    rf"^the {q ** len(rows)} messages give only "
                    rf"{len(words)} distinct codewords mod q$")):
                make_construction_a_pair(q, n, rows)
            return
        fine = make_construction_a_pair(q, n, rows).fine
        assert fine.codewords.tolist() == [list(w) for w in words]
        shifts = data.draw(st.lists(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n),
            min_size=len(words), max_size=len(words)))
        literal = data.draw(st.permutations(
            [tuple(c + q * z for c, z in zip(w, shift))
             for w, shift in zip(words, shifts)]))
        lat = Lattice(dimension=n, family=CONSTRUCTION_A,
                      scale_sq=fine.scale_sq, modulus=q,
                      codewords=tuple(literal))
        assert lat == fine and hash(lat) == hash(fine)
        assert np.array_equal(lat.codewords, fine.codewords)


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
        # 2^17 leaders over the 2^16 cap, checked before any enumeration
        with pytest.raises(CapacityError,
                           match=r"^codebook size 131072 exceeds cap 65536$"):
            codebook(make_cubic_pair(2, 17))

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

"""Exact algebra for scaled cubic and Construction-A nested lattice pairs.

A lattice point is its integer coordinates, an int64 array of shape
(..., N); the scale lives on the ``Lattice``.  Point arithmetic (sums,
coset reduction) is exact integer array work, and floating point enters
only at ``lat.scale * coords`` or when real vectors are quantized.

Quantizer convention: the nearest point wins and ties go to the
lexicographically smallest coordinate vector.  Per coordinate this is
round-half-down, which makes the fundamental cell of a cubic lattice the
half-open box (-s/2, s/2]^N and the modulo reduction a true function.

The pair constructors scale the coarse lattice so the per-dimension
second moment of its fundamental cell is exactly 1.  For a coarse cell
of side ``s = scale_fine * q`` that forces ``scale_fine = sqrt(12)/q``;
the squared scale is kept as the authoritative (rational) quantity so
the normalization survives round-tripping through floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InvalidCodeError, InvariantViolationError

CUBIC = "cubic"
CONSTRUCTION_A = "construction-a"

#: Absolute tolerance (in cell-side units) used when deciding half-open
#: boundary membership for embedded points.  Exact-coordinate points land
#: within a few ulp of the boundary after float embedding; anything a
#: caller feeds deliberately should clear the boundary by more than this.
BOUNDARY_TOL = 1e-9

#: Most codewords a Construction-A generator may enumerate, and the most
#: coset leaders ``codebook`` may list.
ENUMERATION_CAP = 1 << 16

#: Most entries, q^k codewords x N coordinates, a Construction-A
#: generator may enumerate: about 11 bytes each at q = 2, an int64 in the
#: code's one array and three one-byte copies while it is built.
_ENUMERATION_ENTRIES = 1 << 22

#: Most entries a Construction-A decode holds in one array: row x codeword
#: distances of a scored block, and row x coordinate x residue entries of
#: a distance table (unless one row's N*q entries are more).
SCORE_BLOCK = 1 << 18


def _round_half_down(t):
    """Nearest integer per entry as a float, halves rounded toward -inf.

    ``t - 0.5`` can round down onto the integer below a value just over a
    half (-0.49999999999999994 - 0.5 gives -1.0); ``t > r + 0.5``
    compares exactly and steps such an entry back up.
    """
    t = np.asarray(t, dtype=float)
    r = np.ceil(t - 0.5)
    r += t > r + 0.5
    return r


def _centered_mod(v, q):
    """Residues of the integers ``v`` mod q in the centered range
    (-q/2, q/2]; a non-integer dtype is rejected, not truncated.

    One scalar floor division, which numpy runs far faster than np.mod:
    v - q*(v // q) is v mod q in [0, q), exact in int64 even where
    q*(v // q) wraps, and a residue over q/2 steps down by q.  The
    offset form v - q*((v + (q-1)//2) // q) saves that step but wraps
    for v within q/2 of 2^63.
    """
    v = np.asarray(v)
    if v.dtype.kind not in "iu":
        raise ValueError(f"expected integer coordinates, got {v.dtype}")
    v = v.astype(np.int64, copy=False)
    r = v - q * (v // q)
    return r - q * (r > q // 2)


def _reduce_axis(ufunc, a, axis):
    """``ufunc`` reduced over one axis of ``a``, the terms taken in order
    from the first, whatever the shape around the axis.

    numpy reduces an axis that is not the innermost in a tiny inner loop
    per output entry, and adds a contiguous run of 8 or more terms
    pairwise.  Here, with 8 or more entries per term, the axis is moved
    to the front of a contiguous copy and reduced in one pass over whole
    rows per term; with fewer, such passes cost more than accumulating
    along the axis, moved last.  Both branches add in order, and differ
    only in the sign of a sum of negative zeros.
    """
    a = np.asarray(a)
    if a.size < 8 * a.shape[axis]:
        along = np.ascontiguousarray(np.moveaxis(a, axis, -1))
        return ufunc.accumulate(along, axis=-1)[..., -1]
    return ufunc.reduce(np.ascontiguousarray(np.moveaxis(a, axis, 0)), axis=0)


def _check_vector(lat, x):
    """``x`` as a float array of shape (..., N), rejecting non-finite entries."""
    x = np.asarray(x, dtype=float)
    if x.ndim < 1 or x.shape[-1] != lat.dimension:
        raise ValueError(
            f"expected length-{lat.dimension} vectors, got shape {x.shape}")
    # Non-finite entries always poison the sum; the elementwise re-check
    # only runs to acquit huge-but-finite vectors whose sum overflowed.
    if not np.isfinite(np.sum(x)) and not np.all(np.isfinite(x)):
        raise ValueError("vector has non-finite entries")
    return x


@dataclass(frozen=True, eq=False)
class Lattice:
    """A scaled integer lattice or Construction-A lattice in R^N.

    ``scale_sq`` is the squared coordinate scale; the real embedding of a
    point with integer coordinates ``v`` is ``sqrt(scale_sq) * v``.  For
    Construction-A, valid coordinate vectors are ``c + q*z`` with ``c`` a
    codeword of the stored linear code and ``z`` integer.  ``codewords``
    holds the code once: a read-only (M, N) int64 array, centered in
    (-q/2, q/2] and sorted lexicographically, whatever integer rows were
    given.  A cubic lattice has none.  Equality compares codes by row.
    """

    dimension: int
    family: str
    scale_sq: float
    modulus: int | None = None
    codewords: np.ndarray | None = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be a positive integer")
        if not self.scale_sq > 0:
            raise ValueError("scale_sq must be positive")
        if self.family == CUBIC:
            if self.codewords is not None:
                raise ValueError("cubic lattices carry no code")
        elif self.family == CONSTRUCTION_A:
            q = self.modulus
            if q is None or q < 2:
                raise ValueError("construction-A requires a modulus q >= 2")
            try:
                words = np.asarray(self.codewords)
            except ValueError:  # ragged rows
                words = np.array(None)
            if (not words.size or words.dtype.kind != "i"
                    or words.shape[1:] != (self.dimension,)):
                raise ValueError("construction-A requires a code: codewords "
                                 f"must be {self.dimension} integers each")
            # Reduced into one new array of the least signed dtype that
            # holds q and the given one, centered in place, sorted by one
            # gather and only then widened, so a narrow build stays small.
            words = np.remainder(words, q, dtype=np.promote_types(
                words.dtype, np.min_scalar_type(-q)))
            np.subtract(words, q, out=words, where=words > q // 2)
            words = np.take(words, np.lexsort(words.T[::-1]),
                            axis=0).astype(np.int64, copy=False)
            words.setflags(write=False)
            object.__setattr__(self, "codewords", words)
        else:
            raise ValueError(f"unknown lattice family {self.family!r}")

    def _key(self):
        return (self.dimension, self.family, self.scale_sq, self.modulus,
                np.shape(self.codewords))

    def __eq__(self, other):
        return (isinstance(other, Lattice) and self._key() == other._key()
                and np.array_equal(self.codewords, other.codewords))

    def __hash__(self):
        return hash(self._key())

    @property
    def scale(self) -> float:
        return math.sqrt(self.scale_sq)


@dataclass(frozen=True)
class NestedPair:
    """Fine/coarse lattice pair with coarse = q * fine (as point sets).

    The codebook is the quotient fine/coarse, represented by coset
    leaders inside the half-open coarse cell.  Its size and rate are read
    off the fine lattice, never stored: a Construction-A fine lattice has
    one coset per codeword, a cubic one has q^N.
    """

    fine: Lattice
    coarse: Lattice
    q: int

    def __post_init__(self):
        if self.fine.dimension != self.coarse.dimension:
            raise ValueError("fine and coarse dimensions differ")
        if self.coarse.family != CUBIC:
            raise ValueError("coarse lattice must be cubic")
        if self.q < 2:
            raise ValueError("nesting modulus must be >= 2")
        if self.fine.family == CONSTRUCTION_A and self.fine.modulus != self.q:
            raise ValueError("fine code modulus differs from the nesting q")
        expect = self.fine.scale_sq * self.q * self.q
        if abs(expect - self.coarse.scale_sq) > 1e-9 * self.coarse.scale_sq:
            raise ValueError("coarse scale is not q times the fine scale")

    @property
    def dimension(self) -> int:
        return self.fine.dimension

    @property
    def nesting_ratio(self) -> int:
        """Codebook size M: the codeword count, or q^N for a cubic pair."""
        if self.fine.family == CUBIC:
            return self.q ** self.dimension
        return len(self.fine.codewords)

    @property
    def rate_per_dim(self) -> float:
        """log2(M)/N bits per dimension."""
        return math.log2(self.nesting_ratio) / self.dimension

    def reduce(self, coords) -> np.ndarray:
        """Coset leaders of the integer fine coordinates ``coords`` (..., N):
        the exact centered residues in (-q/2, q/2], which embed inside the
        half-open coarse cell.  This is the one coset-reduction rule."""
        return _centered_mod(coords, self.q)


def _fine_scale_sq(q: int) -> float:
    """12/q^2, the squared fine scale of a pair with unit coarse moment."""
    try:
        return 12.0 / (q * q)
    except OverflowError:
        raise ValueError(f"q={q} is too large: q^2 overflows a float") \
            from None


def make_cubic_pair(q: int, dimension: int) -> NestedPair:
    """Nested pair fine = s*Z^N, coarse = s*q*Z^N with unit coarse moment.

    The coarse cell has per-dimension second moment (s*q)^2/12 = 1, so
    s = sqrt(12)/q.
    """
    if q < 2:
        raise ValueError("q must be an integer >= 2")
    if dimension < 1:
        raise ValueError("dimension must be a positive integer")
    fine = Lattice(dimension=dimension, family=CUBIC,
                   scale_sq=_fine_scale_sq(q))
    coarse = Lattice(dimension=dimension, family=CUBIC, scale_sq=12.0)
    return NestedPair(fine=fine, coarse=coarse, q=q)


def make_construction_a_pair(q: int, dimension: int, generator) -> NestedPair:
    """Nested pair with fine = s*(C + q*Z^N) for a linear code C mod q.

    ``generator`` is a k x N integer matrix whose rows span C.  The one
    validity rule is injectivity: the q^k messages, enumerated under
    ``ENUMERATION_CAP`` and q^k*N <= ``_ENUMERATION_ENTRIES`` (checked
    first), must give q^k distinct codewords.  This accepts every
    injective code, also over composite q where a generator need not
    have unit pivots.
    """
    if q < 2:
        raise ValueError("q must be an integer >= 2")
    rows = [[int(x) % q for x in row] for row in generator]
    if not rows or any(len(r) != dimension for r in rows):
        raise ValueError("generator must be a k x N matrix")
    k = len(rows)
    if k > dimension:
        raise InvalidCodeError("more generator rows than dimensions")
    if q ** k > ENUMERATION_CAP:
        raise CapacityError(
            f"codeword enumeration would exceed cap ({q ** k} > {ENUMERATION_CAP})")
    if q ** k * dimension > _ENUMERATION_ENTRIES:
        raise CapacityError(
            f"codeword enumeration of {q ** k}x{dimension} entries exceeds "
            f"cap {_ENUMERATION_ENTRIES}")
    # Every message times the generator, one row at a time, in the least
    # signed dtype that holds k*q^2; the Lattice centers and sorts them.
    dtype = np.min_scalar_type(-k * q * q)
    multiples = (np.arange(q, dtype=dtype)[:, None, None]
                 * np.array(rows, dtype))
    words = multiples[:, 0]
    for i in range(1, k):
        words = (multiples[:, i, None] + words).reshape(-1, dimension)
    fine = Lattice(dimension=dimension, family=CONSTRUCTION_A,
                   scale_sq=_fine_scale_sq(q), modulus=q, codewords=words)
    words = fine.codewords  # sorted: equal codewords are neighbours
    distinct = 1 + np.count_nonzero((words[1:] != words[:-1]).any(axis=1))
    if distinct != q ** k:
        raise InvalidCodeError(
            f"the {q ** k} messages give only {distinct} distinct codewords mod q")
    coarse = Lattice(dimension=dimension, family=CUBIC, scale_sq=12.0)
    return NestedPair(fine=fine, coarse=coarse, q=q)


def _coset_table(u, q):
    """Best representative of every residue class mod q, per coordinate.

    ``u`` holds rows coordinate-major, shape (N, R).  Returns ``(v, d)``,
    both (N, q, R): v[j, a, r] is the integer congruent to a mod q
    nearest u[j, r], halves rounded down, and d its float squared
    distance (u - v)^2.
    """
    a = np.arange(q, dtype=np.int64)[:, None]
    u = u[:, None, :]
    v = a + q * _round_half_down((u - a) / q).astype(np.int64)
    # (u - a)/q can round across a half-integer near a coset boundary:
    # step v by q where u - v leaves (-q/2, q/2], compared exactly
    v = v + q * ((u > v + q / 2).astype(np.int64) - (u <= v - q / 2))
    return v, (u - v) ** 2


def _lex_first(v, block, tied):
    """Per row, the index in ``block`` of the lexicographically smallest
    tied candidate: ``v`` is the (N, q, R) representative table of the
    rows, ``tied`` their (M, R) candidate mask, narrowed one coordinate
    at a time.  Distinct codewords give distinct vectors, so one stays."""
    for j in range(len(v)):
        vals = np.where(tied, v[j, block[:, j]], np.iinfo(np.int64).max)
        tied &= vals == vals.min(axis=0)
    return np.argmax(tied, axis=0)


def _lex_less(a, b):
    """Per row of the (R, N) arrays: does ``a`` sort before ``b``?"""
    first = np.argmax(a != b, axis=-1)[:, None]
    return np.take_along_axis(a < b, first, axis=-1)[:, 0]


def _nearest_in_code(words, q, u):
    """``nearest_coords`` of the (R, N) rows ``u`` on the Construction-A
    lattice of the (M, N) centered codewords ``words``: numpy reads an
    entry c < 0 on the table's residue axis as q + c, which is c mod q."""
    v, d = _coset_table(u.T, q)
    n, _, rows = v.shape
    span = max(1, SCORE_BLOCK // rows)
    cols, at = np.arange(n)[:, None], np.arange(rows)
    best = best_d2 = None
    for lo in range(0, len(words), span):
        block = words[lo:lo + span]
        d2 = d[0, block[:, 0]]
        for j in range(1, n):
            d2 += d[j, block[:, j]]
        pick = np.argmin(d2, axis=0)
        low = d2[pick, at]
        tied = np.flatnonzero(np.count_nonzero(d2 == low, axis=0) > 1)
        if tied.size:
            pick[tied] = _lex_first(v[:, :, tied], block,
                                    d2[:, tied] == low[tied])
        coords = v[cols, block[pick].T, at].T
        if best is None:
            best, best_d2 = coords, low
            continue
        better = (low < best_d2) | ((low == best_d2)
                                    & _lex_less(coords, best))
        best = np.where(better[:, None], coords, best)
        best_d2 = np.where(better, low, best_d2)
    return best


def nearest_coords(lat: Lattice, x) -> np.ndarray:
    """Integer coordinates of the lattice points nearest to ``x``.

    ``x`` has shape (..., N) and so does the result.  Ties go to the
    lexicographically smallest coordinate vector.  Cubic lattices round
    per coordinate, halves down.  Construction-A tabulates, for every
    row, coordinate j and residue a mod q, the nearest integer v_j(a)
    congruent to a and its squared distance d_j(a).  A codeword c then
    scores sum_j d_j(c_j), added left to right over j (the float that
    ``np.sum`` gives for N < 8), and every codeword is scored from the
    table.  A row keeps its least score; exact ties go to the
    lexicographically smallest vector, narrowed one coordinate at a time.
    Memory is bounded by ``SCORE_BLOCK``: rows are decoded in passes of
    max(1, SCORE_BLOCK // (N*q)), so a pass's table holds at most
    max(SCORE_BLOCK, N*q) entries, and each pass scores the codewords in
    blocks of max(1, SCORE_BLOCK // rows).  The blocks' winners merge by the same
    (distance, lexicographic) rule, so every row gets the same answer
    whatever batch it is in.
    """
    u = _check_vector(lat, x) / lat.scale
    if lat.family == CUBIC:
        return _round_half_down(u).astype(np.int64)
    rows = u.reshape(-1, lat.dimension)
    out = np.empty(rows.shape, dtype=np.int64)
    step = max(1, SCORE_BLOCK // (lat.dimension * lat.modulus))
    for lo in range(0, len(rows), step):
        out[lo:lo + step] = _nearest_in_code(lat.codewords, lat.modulus,
                                             rows[lo:lo + step])
    return out.reshape(u.shape)


def quantize(lat: Lattice, x) -> np.ndarray:
    """(N,) int64 coordinates of the lattice point nearest to one vector
    ``x``: ``nearest_coords`` checked for one row, kept for perfbench's
    tracer, which times it and checks its binding in ``lsl.simulate``."""
    coords = nearest_coords(lat, x)
    if coords.ndim != 1:
        raise ValueError(f"expected one vector, got shape {coords.shape}")
    return coords


def mod_lattice(lat: Lattice, x) -> np.ndarray:
    """Rows of ``x`` minus their nearest lattice points, in the half-open cell."""
    x = _check_vector(lat, x)
    if lat.family == CUBIC:
        # Same arithmetic as nearest_coords, without the integer cast.
        s = lat.scale
        return x - s * _round_half_down(x / s)
    return x - lat.scale * nearest_coords(lat, x)


def in_voronoi(lat: Lattice, x):
    """Membership in the half-open fundamental cell, per (..., N) row.

    For cubic lattices the closed upper boundary is accepted with
    ``BOUNDARY_TOL`` slack so that exact-coordinate points survive float
    embedding; the open lower boundary stays strict.
    """
    x = _check_vector(lat, x)
    if lat.family == CUBIC:
        u = x / lat.scale
        return _reduce_axis(np.logical_and,
                            (u <= 0.5 + BOUNDARY_TOL) & (u > -0.5), -1)
    return np.all(nearest_coords(lat, x) == 0, axis=-1)


def second_moment(lat: Lattice) -> float:
    """Per-dimension second moment of the fundamental cell, closed form.

    A cubic cell of side s has per-dimension moment s^2/12, which is
    exactly 1.0 for normalized coarse lattices.
    """
    if lat.family != CUBIC:
        raise NotImplementedError("closed form available for cubic lattices only")
    return lat.scale_sq / 12.0


def codebook(pair: NestedPair) -> np.ndarray:
    """All coset leaders of fine/coarse as a read-only (M, N) int64 array.

    Rows are in lexicographic order and hold coordinates in the centered
    residue range (-q/2, q/2], so each embeds inside the half-open coarse
    cell.  The rows form a group under addition followed by
    ``pair.reduce``.  ``ENUMERATION_CAP`` is checked before any enumeration.
    """
    if pair.nesting_ratio > ENUMERATION_CAP:
        raise CapacityError(
            f"codebook size {pair.nesting_ratio} exceeds cap {ENUMERATION_CAP}")
    if pair.fine.family == CUBIC:
        # every residue vector: the code of the identity generator
        pair = make_construction_a_pair(pair.q, pair.dimension,
                                        np.eye(pair.dimension, dtype=int))
    return pair.fine.codewords


def _log_ball_volume(dimension: int) -> float:
    """log of the volume of the unit N-ball."""
    return 0.5 * dimension * math.log(math.pi) - math.lgamma(0.5 * dimension + 1)


def covering_radius(lat: Lattice) -> float:
    """Radius of the smallest origin ball covering the fundamental cell.

    For a cubic cell of side s this is the half-diagonal s*sqrt(N)/2.
    """
    if lat.family != CUBIC:
        raise NotImplementedError("covering radius known for cubic lattices only")
    return lat.scale * math.sqrt(lat.dimension) / 2.0


def effective_radius(lat: Lattice) -> float:
    """Radius of the ball whose volume equals the cell volume s^N."""
    if lat.family != CUBIC:
        raise NotImplementedError("effective radius known for cubic lattices only")
    n = lat.dimension
    return lat.scale * math.exp(-_log_ball_volume(n) / n)


def ball_normalized_second_moment(dimension: int) -> float:
    """Normalized per-dimension second moment of the unit N-ball.

    Equals 1/((N+2) * V_N^(2/N)) and decreases toward 1/(2*pi*e).
    """
    if dimension < 1:
        raise ValueError("dimension must be a positive integer")
    return 1.0 / ((dimension + 2)
                  * math.exp(2.0 * _log_ball_volume(dimension) / dimension))


@dataclass(frozen=True)
class EpsilonDiagnostic:
    """Gaussian-approximation gap of a lattice cell.

    ``epsilon`` uses natural logarithms; ``amplification`` is
    exp(N * epsilon), the factor by which a dithered cell density may
    exceed the matched Gaussian density, or ``inf`` where that overflows
    a float (a cubic cell from N = 978 up).
    """

    epsilon: float
    amplification: float


def gaussian_approx_epsilon(lat: Lattice) -> EpsilonDiagnostic:
    """Goodness-for-covering diagnostic (natural-log convention).

    epsilon = ln(R_cover/R_eff) + 0.5*ln(2*pi*e*G_N) + 1/N, where G_N is
    the normalized N-ball second moment.  Smaller is better; the value is
    reported, never assumed small, because the concrete cell shapes here
    are far from covering-optimal.
    """
    n = lat.dimension
    ratio = covering_radius(lat) / effective_radius(lat)
    g = ball_normalized_second_moment(n)
    eps = math.log(ratio) + 0.5 * math.log(2.0 * math.pi * math.e * g) + 1.0 / n
    try:
        amplification = math.exp(n * eps)
    except OverflowError:
        amplification = math.inf
    return EpsilonDiagnostic(epsilon=eps, amplification=amplification)


def covering_ball_second_moment(lat: Lattice) -> float:
    """Per-dimension second moment of the smallest cell-covering ball.

    Uniform on a ball of radius R has per-dimension moment R^2/(N+2).
    The value is checked against the sandwich
    N/(N+2) <= sigma^2 <= (R_cover/R_eff)^2 rather than assumed.
    """
    n = lat.dimension
    r_u = covering_radius(lat)
    sigma_sq = r_u * r_u / (n + 2)
    lower = n / (n + 2)
    upper = (r_u / effective_radius(lat)) ** 2
    if not (lower - 1e-12 <= sigma_sq <= upper + 1e-12):
        raise InvariantViolationError(
            f"covering-ball moment {sigma_sq} escapes [{lower}, {upper}]")
    return sigma_sq

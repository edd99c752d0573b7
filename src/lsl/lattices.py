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

DEFAULT_ENUMERATION_CAP = 1 << 16


def _round_half_down(t):
    """Nearest integer per entry, halves rounded toward -inf."""
    return np.ceil(np.asarray(t, dtype=float) - 0.5).astype(np.int64)


def _centered_mod(v, q):
    """Residues of ``v`` mod q in the centered range (-q/2, q/2]."""
    r = np.mod(np.asarray(v, dtype=np.int64), q)
    return np.where(2 * r > q, r - q, r)


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


@dataclass(frozen=True)
class Lattice:
    """A scaled integer lattice or Construction-A lattice in R^N.

    ``scale_sq`` is the squared coordinate scale; the real embedding of a
    point with integer coordinates ``v`` is ``sqrt(scale_sq) * v``.  For
    Construction-A, valid coordinate vectors are ``c + q*z`` with ``c`` a
    codeword of the stored linear code and ``z`` integer.
    """

    dimension: int
    family: str
    scale_sq: float
    modulus: int | None = None
    generator: tuple[tuple[int, ...], ...] | None = None
    codewords: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be a positive integer")
        if not self.scale_sq > 0:
            raise ValueError("scale_sq must be positive")
        if self.family == CUBIC:
            if self.generator is not None or self.codewords is not None:
                raise ValueError("cubic lattices carry no code")
        elif self.family == CONSTRUCTION_A:
            if self.modulus is None or self.modulus < 2:
                raise ValueError("construction-A requires a modulus q >= 2")
            if not self.generator or not self.codewords:
                raise ValueError("construction-A requires a code")
        else:
            raise ValueError(f"unknown lattice family {self.family!r}")

    @property
    def scale(self) -> float:
        return math.sqrt(self.scale_sq)


@dataclass(frozen=True)
class NestedPair:
    """Fine/coarse lattice pair with coarse = q * fine (as point sets).

    The codebook is the quotient fine/coarse, of size ``nesting_ratio``,
    represented by coset leaders inside the half-open coarse cell.
    ``rate_per_dim`` is log2(nesting_ratio)/dimension.
    """

    fine: Lattice
    coarse: Lattice
    q: int
    nesting_ratio: int
    rate_per_dim: float

    def __post_init__(self):
        if self.fine.dimension != self.coarse.dimension:
            raise ValueError("fine and coarse dimensions differ")
        if self.coarse.family != CUBIC:
            raise ValueError("coarse lattice must be cubic")
        if self.q < 2:
            raise ValueError("nesting modulus must be >= 2")
        expect = self.fine.scale_sq * self.q * self.q
        if abs(expect - self.coarse.scale_sq) > 1e-9 * self.coarse.scale_sq:
            raise ValueError("coarse scale is not q times the fine scale")

    @property
    def dimension(self) -> int:
        return self.fine.dimension

    def reduce(self, coords) -> np.ndarray:
        """Coset leaders of the integer fine coordinates ``coords`` (..., N):
        the exact centered residues in (-q/2, q/2], which embed inside the
        half-open coarse cell.  This is the one coset-reduction rule."""
        return _centered_mod(coords, self.q)


def make_cubic_pair(q: int, dimension: int) -> NestedPair:
    """Nested pair fine = s*Z^N, coarse = s*q*Z^N with unit coarse moment.

    The coarse cell has per-dimension second moment (s*q)^2/12 = 1, so
    s = sqrt(12)/q.  Rate is log2(q) bits per dimension.
    """
    if q < 2:
        raise ValueError("q must be an integer >= 2")
    if dimension < 1:
        raise ValueError("dimension must be a positive integer")
    fine = Lattice(dimension=dimension, family=CUBIC, scale_sq=12.0 / (q * q))
    coarse = Lattice(dimension=dimension, family=CUBIC, scale_sq=12.0)
    return NestedPair(fine=fine, coarse=coarse, q=q,
                      nesting_ratio=q ** dimension,
                      rate_per_dim=math.log2(q))


def _mod_q_rank(rows, q):
    """Row rank over the integers mod q via unit-pivot elimination.

    For composite q only entries coprime to q can serve as pivots; a
    leftover nonzero row without a unit entry cannot contribute, which is
    exactly the case where the message-to-codeword map fails injectivity.
    """
    a = [[int(x) % q for x in row] for row in rows]
    k, n = len(a), len(a[0])
    used_cols: set[int] = set()
    rank = 0
    while rank < k:
        pivot = None
        for i in range(rank, k):
            for j in range(n):
                if j not in used_cols and math.gcd(a[i][j], q) == 1:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        i, j = pivot
        a[rank], a[i] = a[i], a[rank]
        inv = pow(a[rank][j], -1, q)
        a[rank] = [(inv * x) % q for x in a[rank]]
        for r in range(k):
            if r != rank and a[r][j]:
                f = a[r][j]
                a[r] = [(x - f * y) % q for x, y in zip(a[r], a[rank])]
        used_cols.add(j)
        rank += 1
    return rank


def make_construction_a_pair(q: int, dimension: int, generator,
                             enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
                             ) -> NestedPair:
    """Nested pair with fine = s*(C + q*Z^N) for a linear code C mod q.

    ``generator`` is a k x N integer matrix whose rows span C; it must
    have rank k mod q (checked by row reduction, and independently by
    enumerating all q^k codewords).  Rate is (k/N)*log2(q) bits per
    dimension.
    """
    if q < 2:
        raise ValueError("q must be an integer >= 2")
    rows = [tuple(int(x) for x in row) for row in generator]
    if not rows or any(len(r) != dimension for r in rows):
        raise ValueError("generator must be a k x N matrix")
    k = len(rows)
    if k > dimension:
        raise InvalidCodeError("more generator rows than dimensions")
    if _mod_q_rank(rows, q) != k:
        raise InvalidCodeError("generator is rank deficient mod q")
    if q ** k > enumeration_cap:
        raise CapacityError(
            f"codeword enumeration would exceed cap ({q ** k} > {enumeration_cap})")
    # Every message times the generator, reduced first to stay in int64.
    messages = np.indices((q,) * k).reshape(k, -1).T
    residues = np.array([[x % q for x in row] for row in rows], np.int64)
    words = sorted(set(map(tuple, (messages @ residues % q).tolist())))
    if len(words) != q ** k:
        raise InvalidCodeError("generator rows are dependent mod q")
    fine = Lattice(dimension=dimension, family=CONSTRUCTION_A,
                   scale_sq=12.0 / (q * q), modulus=q,
                   generator=tuple(rows), codewords=tuple(words))
    coarse = Lattice(dimension=dimension, family=CUBIC, scale_sq=12.0)
    return NestedPair(fine=fine, coarse=coarse, q=q,
                      nesting_ratio=q ** k,
                      rate_per_dim=k * math.log2(q) / dimension)


def nearest_coords(lat: Lattice, x) -> np.ndarray:
    """Integer coordinates of the lattice points nearest to ``x``.

    ``x`` has shape (..., N) and so does the result.  Ties go to the
    lexicographically smallest coordinate vector.  Cubic lattices round
    per coordinate.  Construction-A scans the q^k codeword cosets, takes
    the best representative of each, and keeps a running best, so the
    result is globally nearest and memory stays at a few (..., N) arrays.
    Within an ulp of a coset boundary, float rounding may pick a point an
    ulp farther than the exact nearest; every row gets the same answer
    whatever batch it is in.
    """
    u = _check_vector(lat, x) / lat.scale
    if lat.family == CUBIC:
        return _round_half_down(u)
    q = lat.modulus
    best = np.zeros(u.shape, dtype=np.int64)
    best_d2 = np.full(u.shape[:-1], np.inf)
    for c in lat.codewords:
        carr = np.asarray(c, dtype=np.int64)
        v = carr + q * _round_half_down((u - carr) / q)
        d2 = np.sum((u - v) ** 2, axis=-1)
        differs = v != best
        first = np.argmax(differs, axis=-1)[..., None]
        lex_smaller = np.take_along_axis(v < best, first, axis=-1)[..., 0]
        better = (d2 < best_d2) | ((d2 == best_d2) & lex_smaller)
        best = np.where(better[..., None], v, best)
        best_d2 = np.where(better, d2, best_d2)
    return best


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
        return x - s * np.ceil(x / s - 0.5)
    return x - lat.scale * nearest_coords(lat, x)


def in_voronoi(lat: Lattice, x, tol: float = BOUNDARY_TOL):
    """Membership in the half-open fundamental cell, per (..., N) row.

    For cubic lattices the closed upper boundary is accepted with ``tol``
    slack so that exact-coordinate points survive float embedding; the
    open lower boundary stays strict.
    """
    x = _check_vector(lat, x)
    if lat.family == CUBIC:
        u = x / lat.scale
        return np.all((u <= 0.5 + tol) & (u > -0.5), axis=-1)
    return np.all(nearest_coords(lat, x) == 0, axis=-1)


def sample_dither(lat: Lattice, rng: np.random.Generator) -> np.ndarray:
    """Draw exactly uniform over the half-open fundamental cell.

    Samples uniformly in the fundamental box [0, s)^N of the generator
    and folds with ``mod_lattice``; the fold is a measure-preserving
    bijection onto the cell.
    """
    if lat.family != CUBIC:
        raise NotImplementedError("dither sampling implemented for cubic lattices")
    box = lat.scale * rng.random(lat.dimension)
    return mod_lattice(lat, box)


def second_moment(lat: Lattice) -> float:
    """Per-dimension second moment of the fundamental cell, closed form.

    A cubic cell of side s has per-dimension moment s^2/12, which is
    exactly 1.0 for normalized coarse lattices.
    """
    if lat.family != CUBIC:
        raise NotImplementedError("closed form available for cubic lattices only")
    return lat.scale_sq / 12.0


def second_moment_mc(lat: Lattice, samples: int,
                     rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo estimate of the per-dimension second moment.

    Returns ``(estimate, standard_error)`` from ``samples`` dither draws.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    if lat.family != CUBIC:
        raise NotImplementedError("dither sampling implemented for cubic lattices")
    # Row-major: the same stream and values as ``samples`` sample_dither
    # calls in turn.
    d = mod_lattice(lat, lat.scale * rng.random((samples, lat.dimension)))
    per_draw = np.sum(d * d, axis=-1) / lat.dimension
    est = float(np.mean(per_draw))
    se = float(np.std(per_draw, ddof=1) / math.sqrt(samples))
    return est, se


def codebook(pair: NestedPair,
             cap: int = DEFAULT_ENUMERATION_CAP) -> np.ndarray:
    """All coset leaders of fine/coarse as a read-only (M, N) int64 array.

    Rows are in lexicographic order and hold coordinates in the centered
    residue range (-q/2, q/2], so each embeds inside the half-open coarse
    cell.  The rows form a group under addition followed by
    ``pair.reduce``.  The cap is checked before any enumeration.
    """
    if pair.nesting_ratio > cap:
        raise CapacityError(
            f"codebook size {pair.nesting_ratio} exceeds cap {cap}")
    if pair.fine.family == CUBIC:
        # q consecutive centered residues; copy() makes rows contiguous.
        grid = np.indices((pair.q,) * pair.dimension, dtype=np.int64)
        lowest = -((pair.q - 1) // 2)
        leaders = (grid.reshape(pair.dimension, -1) + lowest).T.copy()
    else:
        centered = pair.reduce(pair.fine.codewords).tolist()
        leaders = np.array(sorted(centered), dtype=np.int64)
    leaders.setflags(write=False)
    return leaders


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
    exceed the matched Gaussian density.
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
    return EpsilonDiagnostic(epsilon=eps, amplification=math.exp(n * eps))


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

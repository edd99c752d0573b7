"""Sum certificates: recover an exact real sum of fundamental-cell points
from its lattice reduction plus a bounded integer index.

For K vectors t_1..t_K in the half-open cell V of a lattice, the raw sum
lies in the K-fold dilation K*V, so the lattice point removed by the
modulo reduction belongs to a small geometric candidate list.  A
certificate stores the reduction ``folded`` together with the 1-based
position ``index`` of that point in the lexicographically ordered list.
Certificates live on the coarse lattice, which is cubic for every nested
pair, so only cubic lattices are accepted.  The list always has exactly
K^dimension entries (one length-K integer window per coordinate), so the
index fits in dimension*log2(K) bits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidCertificateError, InvariantViolationError
from .lattices import (
    CUBIC,
    BOUNDARY_TOL,
    Lattice,
    LatticePoint,
    in_voronoi,
    mod_lattice,
)


@dataclass(frozen=True)
class SumCertificate:
    """Lossless record of a K-fold sum of fundamental-cell points."""

    folded: tuple[float, ...]
    index: int
    num_points: int
    lattice: Lattice


def mod_sum(points, lat: Lattice) -> np.ndarray:
    """Modulo reduction of the sum of fundamental-cell points.

    Every point must already lie in the half-open cell of ``lat``;
    anything else is a caller error, not a wrap to be hidden.
    """
    arrs = [np.asarray(p, dtype=float) for p in points]
    if not arrs:
        raise ValueError("need at least one point")
    if not np.all(in_voronoi(lat, arrs)):
        raise ValueError("input point lies outside the fundamental cell")
    return mod_lattice(lat, np.sum(arrs, axis=0))


def _snap_half_units(u, tol=BOUNDARY_TOL):
    """Snap near-half-integer entries of ``u`` (cell-side units) exact.

    Embedded exact-coordinate points land within a few ulp of half-integer
    boundaries; snapping first makes the half-open window arithmetic
    deterministic.
    """
    doubled = 2.0 * np.asarray(u, dtype=float)
    nearest = np.round(doubled)
    return np.where(np.abs(doubled - nearest) <= 2.0 * tol,
                    nearest / 2.0, u)


def _window_lows(u, num_points):
    """Per-coordinate smallest candidate coordinate, cubic windows.

    ``u`` is the folded vector in cell-side units, shape (..., N).
    Candidates for coordinate j are the ``num_points`` consecutive
    integers n with u_j + n in the half-open dilated window
    (-K/2, K/2].
    """
    return np.floor(-0.5 * num_points - _snap_half_units(u)).astype(
        np.int64) + 1


def window_index(u, coords, num_points: int) -> np.ndarray:
    """1-based position of ``coords`` in the cubic candidate list of ``u``.

    ``u`` (folded vectors in cell-side units) and ``coords`` (integer
    lattice coordinates) have shape (..., N); the result has shape (...).
    A coordinate outside its window is an invariant violation.  Indices
    are Python ints when K^N does not fit in int64.
    """
    offsets = np.asarray(coords, dtype=np.int64) - _window_lows(u, num_points)
    if np.any(offsets < 0) or np.any(offsets >= num_points):
        raise InvariantViolationError(
            "removed lattice point escaped the candidate window")
    n = offsets.shape[-1]
    dtype = np.int64 if num_points ** n <= np.iinfo(np.int64).max else object
    index = np.zeros(offsets.shape[:-1], dtype=dtype)
    for j in range(n):
        index = index * num_points + offsets[..., j].astype(dtype)
    return index + 1


def _require_cubic(lat: Lattice):
    if lat.family != CUBIC:
        raise ValueError("sum certificates need a cubic lattice")


def candidate_set(folded, num_points: int, lat: Lattice) -> list[LatticePoint]:
    """Lattice points l with folded + l inside the K-fold dilated cell.

    Ordered lexicographically by coordinates.  ``folded`` must lie in the
    fundamental cell of the cubic ``lat``.  The set is a Cartesian product
    of per-coordinate integer windows of length exactly ``num_points``.
    """
    _require_cubic(lat)
    folded = np.asarray(folded, dtype=float)
    if num_points < 1:
        raise ValueError("num_points must be >= 1")
    if not in_voronoi(lat, folded):
        raise ValueError("folded vector lies outside the fundamental cell")
    lows = _window_lows(folded / lat.scale, num_points)
    ranges = [range(int(lo), int(lo) + num_points) for lo in lows]
    return [LatticePoint(c, lat) for c in itertools.product(*ranges)]


def certify_sum(points, lat: Lattice) -> SumCertificate:
    """Build the certificate (folded sum, candidate index) for ``points``.

    The removed lattice point must appear in the candidate list; a miss is
    an internal invariant violation, never expected behavior.
    """
    _require_cubic(lat)
    arrs = [np.asarray(p, dtype=float) for p in points]
    num_points = len(arrs)
    folded = mod_sum(arrs, lat)
    total = np.sum(arrs, axis=0)
    raw = (total - folded) / lat.scale
    coords = np.round(raw).astype(np.int64)
    if not np.allclose(raw, coords, atol=1e-6):
        raise InvariantViolationError(
            "difference between sum and its reduction is not a lattice point")
    index = int(window_index(folded / lat.scale, coords, num_points))
    return SumCertificate(folded=tuple(float(v) for v in folded),
                          index=index, num_points=num_points, lattice=lat)


def reconstruct_sum(cert: SumCertificate) -> np.ndarray:
    """Invert ``certify_sum``: the exact real sum of the original points."""
    lat = cert.lattice
    _require_cubic(lat)
    k = cert.num_points
    folded = np.asarray(cert.folded, dtype=float)
    count = k ** lat.dimension
    if not 1 <= cert.index <= count:
        raise InvalidCertificateError(f"index {cert.index} outside 1..{count}")
    # Mixed-radix digits of index - 1, most significant first.
    offsets = [(cert.index - 1) // k ** j % k
               for j in reversed(range(lat.dimension))]
    coords = _window_lows(folded / lat.scale, k) + np.array(
        offsets, dtype=np.int64)
    return folded + lat.scale * coords.astype(float)

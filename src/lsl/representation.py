"""Sum certificates: recover an exact real sum of fundamental-cell points
from its lattice reduction plus a bounded integer index.

For K vectors t_1..t_K in the half-open cell V of a lattice, the raw sum
lies in the K-fold dilation K*V, so the lattice point removed by the
modulo reduction belongs to a small geometric candidate list.  A
certificate stores the reduction ``folded`` together with the 1-based
position ``index`` of that point in the lexicographically ordered list.
For a cubic lattice the list always has exactly K^dimension entries
(one length-K integer window per coordinate), so the index fits in
dimension*log2(K) bits.
"""

from __future__ import annotations

import itertools
import math
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


def candidate_set(folded, num_points: int, lat: Lattice) -> list[LatticePoint]:
    """Lattice points l with folded + l inside the K-fold dilated cell.

    Ordered lexicographically by coordinates.  ``folded`` must lie in the
    fundamental cell.  For cubic lattices the set is a Cartesian product
    of per-coordinate integer windows of length exactly ``num_points``;
    other families fall back to a bounded box search (dilated coarse-cell
    covering ball plus one lattice layer of slack).
    """
    folded = np.asarray(folded, dtype=float)
    if num_points < 1:
        raise ValueError("num_points must be >= 1")
    if not in_voronoi(lat, folded):
        raise ValueError("folded vector lies outside the fundamental cell")
    if lat.family == CUBIC:
        lows = _window_lows(folded / lat.scale, num_points)
        ranges = [range(int(lo), int(lo) + num_points) for lo in lows]
        return [LatticePoint(c, lat) for c in itertools.product(*ranges)]
    # Generic path: enumerate codeword cosets inside a safe box.  The
    # fine cell sits inside the coarse cell's covering ball of radius
    # q*scale*sqrt(N)/2, which bounds every dilated-cell coordinate.
    q = lat.modulus
    n = lat.dimension
    reach = num_points * q * math.sqrt(n) / 2 + q  # fine-coordinate units
    u = folded / lat.scale
    zmax = int(math.ceil((reach + float(np.max(np.abs(u)))) / q)) + 1
    shifts = q * np.array(list(itertools.product(range(-zmax, zmax + 1),
                                                 repeat=n)), dtype=np.int64)
    found = []
    for c in lat.codewords:
        v = np.asarray(c, dtype=np.int64) + shifts
        inside = in_voronoi(lat, (folded + lat.scale * v) / num_points)
        found += map(tuple, v[inside].tolist())
    return [LatticePoint(c, lat) for c in sorted(found)]


def certify_sum(points, lat: Lattice) -> SumCertificate:
    """Build the certificate (folded sum, candidate index) for ``points``.

    The removed lattice point must appear in the candidate list; a miss is
    an internal invariant violation, never expected behavior.
    """
    arrs = [np.asarray(p, dtype=float) for p in points]
    num_points = len(arrs)
    folded = mod_sum(arrs, lat)
    total = np.sum(arrs, axis=0)
    raw = (total - folded) / lat.scale
    coords = np.round(raw).astype(np.int64)
    if not np.allclose(raw, coords, atol=1e-6):
        raise InvariantViolationError(
            "difference between sum and its reduction is not a lattice point")
    if lat.family == CUBIC:
        index = int(window_index(folded / lat.scale, coords, num_points))
    else:
        target = tuple(int(c) for c in coords)
        candidates = [p.coords for p in candidate_set(folded, num_points, lat)]
        try:
            index = candidates.index(target) + 1
        except ValueError:
            raise InvariantViolationError(
                "removed lattice point missing from candidate set") from None
    return SumCertificate(folded=tuple(float(v) for v in folded),
                          index=index, num_points=num_points, lattice=lat)


def reconstruct_sum(cert: SumCertificate) -> np.ndarray:
    """Invert ``certify_sum``: the exact real sum of the original points."""
    lat = cert.lattice
    k = cert.num_points
    folded = np.asarray(cert.folded, dtype=float)
    if lat.family == CUBIC:
        count = k ** lat.dimension
        if not 1 <= cert.index <= count:
            raise InvalidCertificateError(
                f"index {cert.index} outside 1..{count}")
        # Mixed-radix digits of index - 1, most significant first.
        offsets = [(cert.index - 1) // k ** j % k
                   for j in reversed(range(lat.dimension))]
        coords = _window_lows(folded / lat.scale, k) + np.array(
            offsets, dtype=np.int64)
        return folded + lat.scale * coords.astype(float)
    candidates = candidate_set(folded, k, lat)
    if not 1 <= cert.index <= len(candidates):
        raise InvalidCertificateError(
            f"index {cert.index} outside 1..{len(candidates)}")
    return folded + candidates[cert.index - 1].embed()

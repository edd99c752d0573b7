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

Certificates are batched: ``certify_batch`` and ``reconstruct_batch``
work on (..., K, N) arrays of tuples with one fold, one window lookup and
one mixed-radix expansion per call, and ``certify_sum``/
``reconstruct_sum`` are their one-row wrappers.  ``candidate_set`` builds
the explicit list as a (K^N, N) int64 coordinate array and serves as the
test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidCertificateError, InvariantViolationError
from .lattices import (
    CUBIC,
    BOUNDARY_TOL,
    Lattice,
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


def _checked_sum(points, lat: Lattice) -> tuple[np.ndarray, int]:
    """Sum over axis -2 of ``points``, shape (..., K, N), and K, after
    checking that every point lies in the half-open cell of ``lat``.

    Anything outside the cell is a caller error, not a wrap to be hidden.
    numpy adds the K points of a row as ``np.sum`` over a list of them
    would, so a row's sum does not depend on the batch around it.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim < 2 or pts.shape[-2] == 0:
        raise ValueError("need at least one point")
    if not np.all(in_voronoi(lat, pts)):
        raise ValueError("input point lies outside the fundamental cell")
    return pts.sum(axis=-2), pts.shape[-2]


def mod_sum(points, lat: Lattice) -> np.ndarray:
    """Modulo reduction of the sum of fundamental-cell points.

    ``points`` is a list of K points, or any (..., K, N) array.
    """
    return mod_lattice(lat, _checked_sum(points, lat)[0])


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
        miss = np.any((offsets < 0) | (offsets >= num_points), axis=-1)
        raise InvariantViolationError(
            "removed lattice point escaped the candidate window"
            + _first_row(miss)[1])
    n = offsets.shape[-1]
    dtype = np.int64 if num_points ** n <= np.iinfo(np.int64).max else object
    index = np.zeros(offsets.shape[:-1], dtype=dtype)
    for j in range(n):
        index = index * num_points + offsets[..., j].astype(dtype)
    return index + 1


def _first_row(mask) -> tuple[tuple[int, ...], str]:
    """Position of the first set flag in a batch of flags, and error-text
    naming it (empty for a single, 0-d flag)."""
    row = tuple(int(i) for i in np.argwhere(mask)[0])
    if not row:
        return row, ""
    return row, f" in row {row[0] if len(row) == 1 else row}"


def _require_cubic(lat: Lattice):
    if lat.family != CUBIC:
        raise ValueError("sum certificates need a cubic lattice")


def candidate_set(folded, num_points: int, lat: Lattice) -> np.ndarray:
    """Lattice points l with folded + l inside the K-fold dilated cell.

    Returns their integer coordinates as a (K^N, N) int64 array, rows in
    lexicographic order.  ``folded`` must lie in the fundamental cell of
    the cubic ``lat``.  The set is a Cartesian product of per-coordinate
    integer windows of length exactly ``num_points``.
    """
    _require_cubic(lat)
    folded = np.asarray(folded, dtype=float)
    if num_points < 1:
        raise ValueError("num_points must be >= 1")
    if not in_voronoi(lat, folded):
        raise ValueError("folded vector lies outside the fundamental cell")
    grid = np.indices((num_points,) * lat.dimension)
    return (_window_lows(folded / lat.scale, num_points)
            + grid.reshape(lat.dimension, -1).T)


def certify_batch(points, lat: Lattice) -> tuple[np.ndarray, np.ndarray]:
    """Certificates of many K-point tuples at once.

    ``points`` has shape (..., K, N), one tuple of cell points per row.
    Returns ``(folded, index)`` with shapes (..., N) and (...): each
    row's folded sum and the 1-based position of the removed lattice point
    in its candidate list (int64, or Python ints once K^N passes int64).
    A point outside the cell is a ``ValueError``; a removed point outside
    its window is an invariant violation that names the row, never
    expected behavior.
    """
    _require_cubic(lat)
    total, num_points = _checked_sum(points, lat)
    folded = mod_lattice(lat, total)
    raw = (total - folded) / lat.scale
    coords = np.round(raw).astype(np.int64)
    if not np.allclose(raw, coords, atol=1e-6):
        raise InvariantViolationError(
            "difference between sum and its reduction is not a lattice point")
    return folded, window_index(folded / lat.scale, coords, num_points)


def reconstruct_batch(folded, index, num_points: int,
                      lat: Lattice) -> np.ndarray:
    """Invert ``certify_batch``: the exact real sum of every row.

    ``folded`` has shape (..., N) and ``index`` shape (...).  An index
    outside 1..K^N is an ``InvalidCertificateError`` that names its row.
    """
    _require_cubic(lat)
    folded = np.asarray(folded, dtype=float)
    count = num_points ** lat.dimension
    index = np.asarray(index)
    if count > np.iinfo(np.int64).max or index.dtype == object:
        index = index.astype(object)
    bad = (index < 1) | (index > count)
    if np.any(bad):
        row, where = _first_row(bad)
        raise InvalidCertificateError(
            f"index {index[row]} outside 1..{count}{where}")
    # Mixed-radix digits of index - 1, the most significant at coordinate 0.
    rest = index - 1
    offsets = np.empty(index.shape + (lat.dimension,), dtype=np.int64)
    for j in reversed(range(lat.dimension)):
        offsets[..., j] = rest % num_points
        rest = rest // num_points
    coords = _window_lows(folded / lat.scale, num_points) + offsets
    return folded + lat.scale * coords.astype(float)


def certify_sum(points, lat: Lattice) -> SumCertificate:
    """The certificate (folded sum, candidate index) of K cell points: a
    one-row ``certify_batch``."""
    folded, index = certify_batch(points, lat)
    return SumCertificate(folded=tuple(float(v) for v in folded),
                          index=int(index), num_points=len(points),
                          lattice=lat)


def reconstruct_sum(cert: SumCertificate) -> np.ndarray:
    """Invert ``certify_sum``: the exact real sum of the original points."""
    return reconstruct_batch(cert.folded, cert.index, cert.num_points,
                             cert.lattice)

"""Small dense linear-algebra plumbing: rank, affine fits, least squares, subset sums."""

from __future__ import annotations

import numpy as np

from .errors import DegenerateFitError, InputError, SizeError
from .net_core import Hyperplane, canonical_hyperplane
from .tolerances import DEFAULT_TOL, ZERO_TOL, ToleranceConfig

SUBSET_CAP = 20


def _as_matrix(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise InputError("expected a nonempty 2-d matrix", shape=list(a.shape))
    return a


def rank(matrix, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Numerical rank: singular values above rank_tol times the largest."""

    a = _as_matrix(matrix)
    sv = np.linalg.svd(a, compute_uv=False)
    if sv.size == 0 or sv[0] <= ZERO_TOL:
        return 0
    return int(np.sum(sv > tol.rank_tol * sv[0]))


def affine_fit(points, tol: ToleranceConfig = DEFAULT_TOL) -> Hyperplane:
    """Fit the unique hyperplane containing a set of d-dimensional points.

    The normal is the singular vector of the centered point matrix belonging
    to its smallest singular value, which treats all points symmetrically.
    Requires the points to affinely span exactly a (d-1)-flat.
    """

    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise InputError("points must form an (n, d) array", shape=list(pts.shape))
    n, d = pts.shape
    if n < d:
        raise InputError(f"need at least {d} points, got {n}")
    center = pts.mean(axis=0)
    centered = pts - center
    r = rank(centered, tol) if float(np.max(np.abs(centered))) > ZERO_TOL else 0
    if r != d - 1:
        raise DegenerateFitError(
            f"points affinely span a flat of dimension {r}, expected {d - 1}",
            spanned=r, expected=d - 1)
    _, _, vt = np.linalg.svd(centered)
    normal = vt[-1]
    return canonical_hyperplane(normal, -float(normal @ center))[0]


def solve_least_squares(a, y, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[np.ndarray, float]:
    """Minimum-norm least-squares solution of A z = y and its residual norm."""

    mat = _as_matrix(a)
    rhs = np.asarray(y, dtype=float)
    if rhs.ndim != 1 or rhs.shape[0] != mat.shape[0]:
        raise InputError("right-hand side length must match the row count",
                         rows=mat.shape[0], rhs=list(rhs.shape))
    solution, _, _, _ = np.linalg.lstsq(mat, rhs, rcond=tol.rank_tol)
    residual = float(np.linalg.norm(mat @ solution - rhs))
    return solution, residual


def subset_sums(rows, op=np.add, start=0.0) -> np.ndarray:
    """All 2^n combinations of the rows by doubling: entry ``mask`` folds
    ``op`` from ``start`` over the rows of its set bits (bit k for row k) in
    ascending order.  Raises SizeError above SUBSET_CAP rows, before allocating."""

    if len(rows) > SUBSET_CAP:
        raise SizeError(f"subset enumeration is capped at {SUBSET_CAP} rows",
                        rows=len(rows))
    rows = np.asarray(rows, dtype=float)
    out = np.full((1,) + rows.shape[1:], start, dtype=float)
    for row in rows:
        out = np.concatenate([out, op(out, row)])
    return out

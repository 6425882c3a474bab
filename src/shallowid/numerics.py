"""Small dense linear-algebra plumbing: rank, affine fits, least squares, subset sums."""

from __future__ import annotations

import numpy as np

from .errors import DegenerateFitError, InputError, SizeError
from .net_core import Hyperplane, _canonical_rows, _row_norms
from .tolerances import RANK_TOL, ZERO_TOL

SUBSET_CAP = 20


def _as_matrix(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise InputError("expected a nonempty 2-d matrix", shape=list(a.shape))
    return a


def _ranks(stack: np.ndarray) -> np.ndarray:
    """``rank`` of each matrix of a (k, n, d) stack."""

    sv = np.linalg.svd(stack, compute_uv=False)
    return np.where(sv[:, 0] > ZERO_TOL, np.sum(sv > RANK_TOL * sv[:, :1], axis=1), 0)


def rank(matrix) -> int:
    """Numerical rank: singular values above RANK_TOL times the largest, or 0
    when the largest is at most ZERO_TOL."""

    return int(_ranks(_as_matrix(matrix)[None])[0])


def affine_fits(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """affine_fit of every (n, d) matrix of a (k, n, d) stack, bit for bit: the
    (k, d) canonical normals (read-only), the (k,) offsets and the dimension of
    the flat each matrix affinely spans, where affine_fit needs d - 1."""

    center = points.mean(axis=1)
    centered = points - center[:, None, :]
    spanned = np.where(np.max(np.abs(centered), axis=(1, 2)) > ZERO_TOL,
                       _ranks(centered), 0)
    normal = np.linalg.svd(centered)[2][:, -1]
    A, B, _ = _canonical_rows(normal, -np.vecdot(normal, center), _row_norms(normal))
    A.setflags(write=False)
    return A, B, spanned


def affine_fit(points) -> Hyperplane:
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
    A, B, (r,) = affine_fits(pts[None])
    if r != d - 1:
        raise DegenerateFitError(
            f"points affinely span a flat of dimension {r}, expected {d - 1}",
            spanned=int(r), expected=d - 1)
    return Hyperplane(A[0], float(B[0]))


def solve_least_squares(a, y) -> tuple[np.ndarray, float]:
    """Minimum-norm least-squares solution of A z = y and its residual norm."""

    mat = _as_matrix(a)
    rhs = np.asarray(y, dtype=float)
    if rhs.ndim != 1 or rhs.shape[0] != mat.shape[0]:
        raise InputError("right-hand side length must match the row count",
                         rows=mat.shape[0], rhs=list(rhs.shape))
    solution, _, _, _ = np.linalg.lstsq(mat, rhs, rcond=RANK_TOL)
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

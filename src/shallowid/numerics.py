"""Small dense linear-algebra plumbing: rank, affine fits, least squares,
subset sums and the row blocks that bound large evaluations."""

from __future__ import annotations

import numpy as np

from .errors import InputError, SizeError
from .net_core import _canonical_rows, _row_norms
from .tolerances import RANK_TOL, ZERO_TOL

SUBSET_CAP = 20
_CHUNK_ENTRIES = 1 << 18  # numbers screened, evaluated or fitted at once, to bound memory


def _row_blocks(rows: int, row_entries: int) -> list[slice]:
    """Consecutive slices that cover range(rows) in order, each of at most
    _CHUNK_ENTRIES numbers at ``row_entries`` numbers a row, but never under
    8 rows.  Rows that fit in one block are one slice.  Otherwise every block
    but the last has a multiple of 8 rows, and a last block of one row joins
    the block before it: a matrix product may round a row differently in
    another block shape, and these two rules keep each row's bits (checked
    with one BLAS thread)."""

    if rows * row_entries <= _CHUNK_ENTRIES:
        return [slice(0, rows)]
    step = max(8, _CHUNK_ENTRIES // row_entries // 8 * 8)
    starts = list(range(0, rows, step))
    if len(starts) > 1 and rows - starts[-1] == 1:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [rows])]


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
    """The hyperplane through each (n, d) matrix of points of a (k, n, d)
    stack: its normal is the right singular vector of the centred points for
    their smallest singular value, which treats all points symmetrically.
    Returns the (k, d) canonical normals (read-only), the (k,) offsets and the
    dimension of the flat each matrix affinely spans; a fit is unique only
    where that is d - 1."""

    center = points.mean(axis=1)
    centered = points - center[:, None, :]
    spanned = np.where(np.max(np.abs(centered), axis=(1, 2)) > ZERO_TOL,
                       _ranks(centered), 0)
    normal = np.linalg.svd(centered)[2][:, -1]
    A, B, _ = _canonical_rows(normal, -np.vecdot(normal, center), _row_norms(normal))
    A.setflags(write=False)
    return A, B, spanned


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


def _capped(rows) -> np.ndarray:
    if len(rows) > SUBSET_CAP:
        raise SizeError(f"subset enumeration is capped at {SUBSET_CAP} rows", rows=len(rows))
    return np.asarray(rows, dtype=float)


def subset_sums(rows, op=np.add, start=0.0) -> np.ndarray:
    """All 2^n combinations of the rows by doubling: entry ``mask`` folds
    ``op`` from ``start`` over the rows of its set bits (bit k for row k) in
    ascending order.  Raises SizeError above SUBSET_CAP rows, before allocating."""

    rows = _capped(rows)
    out = np.full((1,) + rows.shape[1:], start, dtype=float)
    for row in rows:
        out = np.concatenate([out, op(out, row)])
    return out


def _screen_subset_sums(rows, keep, start=0.0) -> np.ndarray:
    """Ascending masks whose entry of ``subset_sums(rows, start=start)`` passes
    ``keep`` (a (k, d) block of sums in, k booleans out), from blocks of at most
    _CHUNK_ENTRIES numbers (or one sum) with the same bits: the low rows once,
    then each block adds the rows past them in ascending order, as the fold does."""

    rows = _capped(rows)
    n = len(rows)
    low = min(n, max(1, _CHUNK_ENTRIES // max(1, rows[:1].size)).bit_length() - 1)
    head = subset_sums(rows[:low], start=start)
    masks = []
    for high in range(1 << (n - low)):
        sums = sum((rows[j] for j in range(low, n) if high >> (j - low) & 1), head)
        masks.append(np.flatnonzero(keep(sums)) + (high << low))
    return np.concatenate(masks)

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shallowid import (DegenerateFitError, InputError, SizeError, ToleranceConfig,
                       affine_fit, numerics, rank, solve_least_squares)
from shallowid.numerics import SUBSET_CAP, _screen_subset_sums, affine_fits, subset_sums
from shallowid.tolerances import RANK_TOL

from helpers import oracle_affine_fit, rank_by_elimination


def test_rank_identity():
    assert rank(np.eye(3)) == 3


def test_rank_repeated_rows():
    assert rank(np.array([[1.0, 2.0], [1.0, 2.0]])) == 1


def test_rank_three_rows_in_plane():
    # hand elimination: rows (2,0), (1,1), (1,-1); (1,1)+(1,-1) = (2,0)
    assert rank(np.array([[2.0, 0.0], [1.0, 1.0], [1.0, -1.0]])) == 2


def test_rank_empty_matrix_rejected():
    with pytest.raises(InputError):
        rank(np.zeros((0, 3)))


def test_tolerance_config_has_no_rank_cutoff():
    # every rank decision uses the fixed RANK_TOL, which is also match_tol's floor
    with pytest.raises(TypeError):
        ToleranceConfig(rank_tol=1e-5)
    assert ToleranceConfig(match_tol=RANK_TOL).match_tol == RANK_TOL
    with pytest.raises(ValueError, match="at least the rank cutoff"):
        ToleranceConfig(match_tol=RANK_TOL / 2)


def test_rank_matches_transpose_and_elimination():
    rng = np.random.default_rng(1)
    for _ in range(100):
        rows, cols = rng.integers(1, 9, size=2)
        a = rng.normal(size=(rows, cols))
        if rng.random() < 0.5 and min(rows, cols) > 1:
            a[:, -1] = a[:, 0] * rng.uniform(-2, 2)  # force rank deficiency
        r = rank(a)
        assert r == rank(a.T)
        assert r == rank_by_elimination(a)


def test_affine_fit_line_through_two_points():
    pts = np.array([(1.0, -1.0), (2.0, -2.0)])
    fit = affine_fit(pts)
    # direct normal computation: the segment direction is (1, -1), so the
    # unit normal is (1, 1)/sqrt(2) and the offset vanishes
    assert np.max(np.abs(fit.a - np.array([1.0, 1.0]) / np.sqrt(2))) < 1e-12
    assert abs(fit.b) < 1e-12
    assert np.max(np.abs(pts @ fit.a + fit.b)) < 1e-12


def test_affine_fit_plane_through_unit_points():
    fit = affine_fit([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
    assert np.max(np.abs(fit.a - np.ones(3) / np.sqrt(3))) < 1e-12
    assert fit.b == pytest.approx(-1 / np.sqrt(3))


def test_affine_fit_rejects_full_span():
    with pytest.raises(DegenerateFitError):
        affine_fit([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])


def test_affine_fit_rejects_undersized_flat():
    with pytest.raises(DegenerateFitError):
        affine_fit([(1.0, 1.0, 1.0), (1.0, 1.0, 1.0), (1.0, 1.0, 1.0)])


def test_affine_fit_residual_scales_with_points():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        normal = rng.normal(size=d)
        normal /= np.linalg.norm(normal)
        offset = rng.uniform(-2, 2)
        basis = np.linalg.svd(normal[None, :])[2][1:]
        pts = -offset * normal + rng.normal(size=(d + 3, d - 1)) @ basis
        fit = affine_fit(pts)
        scale = 1.0 + float(np.max(np.abs(pts)))
        assert np.max(np.abs(pts @ fit.a + fit.b)) <= 1e-9 * scale


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 5), extra=st.integers(0, 6), k=st.integers(1, 5),
       seed=st.integers(0, 10**6), gap=st.sampled_from([None, 0.0, 1e-9]),
       flat=st.booleans())
def test_affine_fits_is_affine_fit_bit_for_bit(d, extra, k, seed, gap, flat):
    """Each matrix of a stack fits with the bits of the one-matrix fit, and
    the stack agrees on which matrices are degenerate: random points, points
    on one hyperplane, and stacks whose first two points are equal or 1e-9
    apart."""

    rng = np.random.default_rng(seed)
    n = d + extra
    stack = rng.normal(size=(k, n, d)) * 10.0 ** rng.uniform(-3, 3, size=(k, 1, 1))
    if flat:
        normal = rng.normal(size=d)
        normal /= np.linalg.norm(normal)
        stack -= (stack @ normal)[..., None] * normal - rng.uniform(-2, 2) * normal
    if gap is not None and n > 1:
        stack[:, 1] = stack[:, 0] + gap
    A, B, spanned = affine_fits(stack)
    assert not A.flags.writeable
    for j, pts in enumerate(stack):
        try:
            fit = oracle_affine_fit(pts)
        except DegenerateFitError as err:
            assert spanned[j] == err.details["spanned"] != d - 1
            with pytest.raises(DegenerateFitError):
                affine_fit(pts)
            continue
        assert spanned[j] == d - 1
        assert A[j].tobytes() == fit.a.tobytes() and B[j] == fit.b
        assert affine_fit(pts).a.tobytes() == fit.a.tobytes() and affine_fit(pts).b == fit.b


def test_least_squares_identity():
    z, res = solve_least_squares(np.eye(4), np.array([1.0, -2.0, 3.0, 0.5]))
    assert np.allclose(z, [1.0, -2.0, 3.0, 0.5]) and res < 1e-14


def test_least_squares_overdetermined_consistent():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(12, 4))
    truth = rng.normal(size=4)
    z, res = solve_least_squares(a, a @ truth)
    assert res <= 1e-10 * (1 + float(np.linalg.norm(a @ truth)))
    assert np.allclose(z, truth)


def test_least_squares_inconsistent_column():
    # minimize (z - 0)^2 + (z - 2)^2: minimizer 1, residual sqrt(2)
    z, res = solve_least_squares(np.array([[1.0], [1.0]]), np.array([0.0, 2.0]))
    assert z[0] == pytest.approx(1.0)
    assert res == pytest.approx(np.sqrt(2.0))


def test_least_squares_dimension_mismatch():
    with pytest.raises(InputError):
        solve_least_squares(np.eye(3), np.array([1.0, 2.0]))


def test_subset_sums_bit_k_stands_for_row_k():
    rows = np.array([[1.0, 0.0], [0.0, 10.0], [100.0, 0.0]])
    sums = subset_sums(rows, start=np.array([0.5, 0.5]))
    for mask in range(8):
        picked = [rows[k] for k in range(3) if mask >> k & 1]
        assert np.array_equal(sums[mask], np.array([0.5, 0.5]) + sum(picked, np.zeros(2)))
    prods = subset_sums([2.0, 3.0, 5.0], np.multiply, 1.0)
    assert prods.tolist() == [1.0, 2.0, 3.0, 6.0, 5.0, 10.0, 15.0, 30.0]
    assert subset_sums(np.zeros((0, 2)), start=np.ones(2)).tolist() == [[1.0, 1.0]]


def test_subset_sums_cap_raises_before_allocating():
    assert SUBSET_CAP == 20
    assert subset_sums(np.ones(SUBSET_CAP)).shape == (2 ** SUBSET_CAP,)
    tracemalloc.start()
    try:
        with pytest.raises(SizeError):
            subset_sums(np.ones((SUBSET_CAP + 1, 4)))
        with pytest.raises(SizeError):
            _screen_subset_sums(np.ones((SUBSET_CAP + 1, 4)), lambda sums: sums[:, 0] > 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the 2^21 x 4 result alone would take 64 MiB


@settings(max_examples=80, deadline=None)
@given(n=st.integers(0, 10), d=st.integers(1, 4), chunk=st.integers(1, numerics._CHUNK_ENTRIES),
       seed=st.integers(0, 2 ** 32 - 1))
def test_screen_subset_sums_hands_keep_the_bits_of_the_full_fold(n, d, chunk, seed):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-6, 6, size=(n, 1))
    start = rng.normal(size=d)
    full = subset_sums(rows, start=start)
    radius = float(np.median(np.linalg.norm(full, axis=1)))
    blocks = []

    def keep(sums):
        blocks.append(sums.copy())
        return np.linalg.norm(sums, axis=1) <= radius

    with mock.patch.object(numerics, "_CHUNK_ENTRIES", chunk):
        masks = _screen_subset_sums(rows, keep, start)
    expected = np.flatnonzero(np.linalg.norm(full, axis=1) <= radius)
    assert masks.tolist() == expected.tolist()
    assert all(block.shape == blocks[0].shape for block in blocks)
    assert blocks[0].size <= max(chunk, d)
    assert np.concatenate(blocks).tobytes() == full.tobytes()


def test_screen_subset_sums_of_the_orientation_search_stays_small():
    """reconstruct's screen (a miss bound on the norm of each sum) over 20
    rows in d = 50: subset_sums would hold 2^20 x 50 floats, about 419 MB."""

    rng = np.random.default_rng(5)
    rows = rng.normal(size=(20, 50))
    start = -rows[[2, 7, 19]].sum(axis=0)   # masks 1<<2 | 1<<7 | 1<<19 cancel it
    tracemalloc.start()
    try:
        masks = _screen_subset_sums(rows, lambda sums: np.linalg.norm(sums, axis=1) <= 1e-9,
                                    start)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert masks.tolist() == [1 << 2 | 1 << 7 | 1 << 19]
    assert peak < 16 << 20

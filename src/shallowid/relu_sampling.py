"""Feasible line collections, the (2m+2)*m*d sample plan, and exact recovery
of a relu network from labeled samples.

A relu network restricted to a line is piecewise linear in the line parameter
with one breakpoint per hyperplane crossed.  Two samples per affine piece pin
the function on the whole line; the crossings of enough well-spread lines pin
the hyperplanes; a final least-squares solve pins scales and constant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import schema
from .errors import (ConstructionError, InputError, ParseError, ReconstructionError,
                     RecoveryError, SizeError)
from .net_core import (GroupedReLU, Hyperplane, ShallowNet, _canonical_rows, _row_norms,
                       evaluate_many, make_net)
from .numerics import SUBSET_CAP, _screen_subset_sums, affine_fits, rank, solve_least_squares
from .tolerances import DEFAULT_TOL, RANK_TOL, ToleranceConfig

# quantitative margins for the randomized constructions; the theory only needs
# the corresponding quantities to be nonzero, which holds for almost all draws,
# but float-exact recovery needs room between them and the match tolerances
_MIN_DIRECTION_NORM = 0.5
_MIN_TRANSVERSALITY = 1e-2   # |<a, v>| / |v| at every line/hyperplane pairing
_MIN_PARAM_GAP = 1e-2        # separation of crossing parameters on one line
_MIN_POINT_SEP = 1e-3        # separation of crossing points across lines
_MIN_SPREAD_DET = 1e-6       # normalized determinant of in-plane point subsets
_RETRY_BUDGET = 1000         # per failure site
_TOTAL_DRAW_CAP = 50_000
_CANDIDATE_BUDGET = 200_000    # seed tuples fitted by recover_hyperplanes
_CHUNK_FLOATS = 2 ** 18        # largest batched temporary in recover_hyperplanes
_BLOCK_ENTRIES = 2 ** 14       # (anchor, point) pairs per block of the collinearity filter
# the spread check keeps d + m numbers per subset of d lines, C(md, d) subsets:
# 2^27 of them is 1 GiB, above d=5, m=12 (92,845,704) and below d=5, m=13
_SPREAD_ENTRIES_CAP = 2 ** 27


@dataclass(frozen=True)
class Line:
    """Base point u and direction v of {u + t*v : t real}."""

    u: np.ndarray
    v: np.ndarray

    def points_at(self, params) -> np.ndarray:
        t = np.asarray(params, dtype=float)
        return self.u[None, :] + t[:, None] * self.v[None, :]


@dataclass(frozen=True)
class FeasibleLineSet:
    """m*d lines with the sorted parameters of each line's crossings."""

    lines: tuple[Line, ...]
    crossing_params: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class SamplePlan:
    lines: tuple[Line, ...]
    params: tuple[tuple[float, ...], ...]
    points: np.ndarray


@dataclass(frozen=True)
class LabeledSamples:
    plan: SamplePlan
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape[0] != self.plan.points.shape[0]:
            raise InputError("value count must equal plan point count",
                             values=int(self.values.shape[0]),
                             points=int(self.plan.points.shape[0]))


def _distinct_hyperplanes(g: GroupedReLU) -> list[Hyperplane]:
    if g.K1:
        raise InputError(
            "sampling requires a network whose hyperplanes are mutually "
            "distinct (no opposite-orientation pairs)")
    A = np.array([e.a for e in g.K2]).reshape(len(g.K2), g.d)
    U, beta, _ = _canonical_rows(A, np.array([e.b for e in g.K2]), _row_norms(A))
    U.setflags(write=False)
    return [Hyperplane(u, b) for u, b in zip(U, beta.tolist())]


def _line_crossings(line: Line, hyperplanes: list[Hyperplane]) -> np.ndarray | None:
    """Crossing parameters of one line with every hyperplane, or None when the
    line fails the transversality / separation margins."""

    vnorm = float(np.linalg.norm(line.v))
    if vnorm < _MIN_DIRECTION_NORM:
        return None
    params = np.empty(len(hyperplanes))
    for k, h in enumerate(hyperplanes):
        denom = float(h.a @ line.v)
        if abs(denom) < _MIN_TRANSVERSALITY * vnorm:
            return None
        params[k] = -(float(h.a @ line.u) + h.b) / denom
    gaps = np.diff(np.sort(params))
    if gaps.size and float(np.min(gaps)) < _MIN_PARAM_GAP:
        return None
    return params


def _combinations(n: int, r: int) -> np.ndarray:
    """All r-subsets of range(n) as rows of a (C(n, r), r) array, in
    itertools.combinations order: each row is extended by every larger value
    that leaves room for the rest."""

    combos = np.arange(n - r + 1)[:, None]
    for k in range(1, r):
        last = combos[:, -1]
        counts = n - r + k - last
        rows = np.repeat(np.arange(last.size), counts)
        step = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
        combos = np.column_stack([combos[rows], last[rows] + 1 + step])
    return combos


def _laplace_minors(rows) -> dict[int, np.ndarray]:
    """Minors of C matrices of r rows and k columns on every r-subset of their
    columns: ``rows`` yields r (k, C) arrays, and entry (j, c) of the i-th is
    entry (i, j) of matrix c.  Returns, for each mask of r set bits (bit j for
    column j), the (C,) minors on the columns of its set bits, all up to one
    sign that depends on r alone.

    Laplace expansion along the rows: after row i, ``minors[mask]`` holds, for
    every c, the minor of rows 0..i on the columns of ``mask``, and row i+1
    expands each larger minor along its last row with alternating signs.
    For a square matrix that is k * 2^(k-1) multiply-adds on contiguous (C,)
    arrays."""

    rows = iter(rows)
    minors = {1 << j: entry for j, entry in enumerate(next(rows))}
    k = len(minors)
    by_size = [[s for s in range(1 << k) if bin(s).count("1") == r] for r in range(k + 1)]
    term = np.empty_like(minors[1])
    for i, entries in enumerate(rows, 1):   # entries: (k, C), row i of every matrix
        grown = {}
        for mask in by_size[i + 1]:
            bits = [j for j in range(k) if mask >> j & 1]
            acc = entries[bits[0]] * minors[mask ^ 1 << bits[0]]
            for t, j in enumerate(bits[1:], 1):
                np.multiply(entries[j], minors[mask ^ 1 << j], out=term)
                if t % 2:
                    acc -= term
                else:
                    acc += term
            grown[mask] = acc
        minors = grown
    return minors


def _laplace_dets(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Determinants of C matrices of size k x k, where row r of matrix c is
    column ``rows[r, c]`` of the (k, N) ``table``, by ``_laplace_minors``."""

    minors = _laplace_minors(np.take(table, r, axis=1) for r in rows)
    return minors[(1 << len(table)) - 1]


def _spread_slack(k: int) -> float:
    """A bound on |fast - LAPACK| for the |det| of a k x k matrix A whose rows
    are unit vectors (2-norm 1 up to rounding, so |a_ij| <= 1), where fast is
    ``_laplace_dets`` and LAPACK is ``np.linalg.det``, and u = 2^-53.

    * Laplace: each minor of r rows adds one product and r - 1 sums to the
      minors below it, so every monomial of the expansion carries at most
      k(k+1)/2 roundings: |fast - det A| <= k(k+1)/2 u per(|A|), and
      per(|A|) <= prod_i |a_i|_1 <= k^(k/2).
    * LU with partial pivoting (Higham 2002, thm 9.3): L U = A + E with
      |E| <= k u |L| |U|, |l_ij| <= 1 and pivot growth |u_ij| <= 2^(k-1), so
      each row of E has 2-norm at most k^(5/2) 2^(k-1) u.  det is multilinear
      in the rows and Hadamard bounds every mixed term by its rows' norms, so
      |det(A + E) - det A| <= k^(7/2) 2^(k-1) u.
    * numpy forms det as exp(sum_i ln|u_ii|): each log and the exp are within
      an ulp and the sum adds k - 1 roundings, so the error is at most
      (k + 1) u P sum_i |ln|u_ii|| + 2 u P with P = |det(A + E)| <= 1.  As
      |u_ii| <= 2^(k-1) and P |ln P| <= 1/e, P sum_i |ln|u_ii|| is at most
      2 ln 2 k(k-1) + 1/e.

    The sum of the three, doubled to cover every second-order term (products
    of the roundings, row norms of 1 + O(k u)) and the rounding of the
    comparisons that use it."""

    u = 2.0 ** -53
    return 2 * u * (k * (k + 1) / 2 * k ** (k / 2) + k ** 3.5 * 2 ** (k - 1)
                    + (k + 1) * (2 * np.log(2) * k * (k - 1) + np.exp(-1)) + 2)


def _spread_culprit(coords: np.ndarray, members: np.ndarray, stale: np.ndarray,
                    dets: np.ndarray) -> int | None:
    """Every d-subset of one hyperplane's in-plane points (the columns of
    ``members``), which check (ii) has kept apart, must affinely span it: the
    unit vectors from its first point to the others must have a large
    |determinant|.  ``dets`` caches each subset's fast |determinant|; only
    subsets holding a ``stale`` line are recomputed, in blocks of about
    ``_CHUNK_FLOATS`` indices, by ``_laplace_dets`` on the (k, n^2) table of
    unit vectors between the n points (k = d - 1).

    The decision is LAPACK's: the first line of the first subset (by index)
    whose ``np.linalg.det`` is smallest, if that is below ``_MIN_SPREAD_DET``.
    A fast value is within ``_spread_slack(k)`` of LAPACK's, so when the
    smallest fast value exceeds the margin by the slack, every subset passes.
    Otherwise LAPACK's minimum can only lie among the subsets within twice the
    slack of the fast minimum; they alone get ``np.linalg.det``, in index
    order.  Returns the culprit line, or None."""

    redo = np.flatnonzero(np.any(stale[members], axis=0))
    n = len(coords)
    diff = coords[None, :, :] - coords[:, None, :]   # diff[i, k] = c_k - c_i
    dist = np.linalg.norm(diff, axis=2)
    np.fill_diagonal(dist, np.inf)
    unit = (diff / dist[:, :, None]).reshape(n * n, -1)
    table = np.ascontiguousarray(unit.T)
    step = max(1, _CHUNK_FLOATS // len(members))
    for start in range(0, redo.size, step):
        block = redo[start:start + step]
        sub = np.take(members, block, axis=1)   # contiguous rows, unlike members[:, block]
        pair = sub[0] * n + sub[1:]   # flat indices of (first, other) point pairs
        dets[block] = np.abs(_laplace_dets(table, pair))
    stale[:] = False
    slack = _spread_slack(len(table))
    least = float(np.min(dets))
    if least - slack >= _MIN_SPREAD_DET:
        return None
    near = np.flatnonzero(dets <= least + 2 * slack)
    pair = members[0, near] * n + members[1:, near]
    exact = np.abs(np.linalg.det(unit[pair.T]))
    worst = int(np.argmin(exact))
    if float(exact[worst]) < _MIN_SPREAD_DET:
        return int(members[0, near[worst]])
    return None


def build_feasible_lines(g: GroupedReLU, seed: int) -> FeasibleLineSet:
    """Draw m*d random lines and verify the three feasibility conditions:
    full-rank directions, mutually distinct crossings, and in-plane spread of
    every d crossings sharing a hyperplane.  Failing lines are resampled."""

    hyperplanes = _distinct_hyperplanes(g)
    m = len(hyperplanes)
    d = g.d
    if m < 1:
        raise InputError("need at least one neuron to build lines", m=m)
    if d < 2:
        raise InputError("line sampling needs input dimension >= 2", d=d)
    subsets = math.comb(m * d, d)
    if (d + m) * subsets > _SPREAD_ENTRIES_CAP:
        raise SizeError(f"spread check over C(md, d) = {subsets} line subsets needs "
                        f"{(d + m) * subsets} numbers, above the cap of {_SPREAD_ENTRIES_CAP}",
                        subsets=subsets, cap=_SPREAD_ENTRIES_CAP)

    rng = np.random.default_rng(seed)
    n_lines = m * d
    lines: list[Line] = [None] * n_lines  # type: ignore[list-item]
    params: list[np.ndarray] = [None] * n_lines  # type: ignore[list-item]
    draws = 0
    # per hyperplane: an in-plane basis, cached subset spreads, redrawn lines
    members = np.ascontiguousarray(_combinations(n_lines, d).T)  # one column per subset
    bases = [np.linalg.svd(h.a[None, :])[2][1:] for h in hyperplanes]
    dets = np.empty((m, members.shape[1]))
    stale = np.ones((m, n_lines), dtype=bool)

    def draw(j: int) -> None:
        nonlocal draws
        for _ in range(_RETRY_BUDGET):
            draws += 1
            if draws > _TOTAL_DRAW_CAP:
                break
            cand = Line(rng.uniform(-1.0, 1.0, size=d), rng.uniform(-1.0, 1.0, size=d))
            w = _line_crossings(cand, hyperplanes)
            if w is not None:
                lines[j], params[j] = cand, w
                stale[:, j] = True
                return
        raise ConstructionError(
            "line construction exhausted its retry budget; tolerances or the "
            "network geometry are pathological", draws=draws)

    for j in range(n_lines):
        draw(j)

    for _ in range(_RETRY_BUDGET):
        # (i) directions span the whole space
        if rank(np.stack([ln.v for ln in lines])) != d:
            draw(0)
            continue
        crossings = np.stack([ln.points_at(w) for ln, w in zip(lines, params)])
        flat = crossings.reshape(n_lines * m, d)
        # (ii) crossing points mutually distinct: the only separation test, as (iii)
        # sees them in orthonormal in-plane bases, which keep distances up to rounding
        diff = flat[:, None, :] - flat[None, :, :]
        dist = np.linalg.norm(diff, axis=2)
        np.fill_diagonal(dist, np.inf)
        bad = np.unravel_index(int(np.argmin(dist)), dist.shape)
        if float(dist[bad]) < _MIN_POINT_SEP:
            draw(bad[0] // m)
            continue
        # (iii) any d crossings inside one hyperplane affinely span it
        culprits = (_spread_culprit(crossings[:, k, :] @ bases[k].T, members,
                                    stale[k], dets[k]) for k in range(m))
        offender = next((c for c in culprits if c is not None), None)
        if offender is None:
            break
        draw(offender)
    else:
        raise ConstructionError(
            "feasibility conditions could not be met within the retry budget",
            draws=draws)

    return FeasibleLineSet(tuple(lines), tuple(tuple(np.sort(w).tolist()) for w in params))


def _point_line_distances(points: np.ndarray, line: Line) -> np.ndarray:
    v = line.v / np.linalg.norm(line.v)
    rel = points - line.u[None, :]
    along = rel @ v
    perp = rel - along[:, None] * v[None, :]
    return np.linalg.norm(perp, axis=1)


def _third_point_near(points: np.ndarray, check_i: np.ndarray, check_k: np.ndarray,
                      ctol: float) -> bool:
    """Whether some pair (check_i[j] < check_k[j]) has three points within
    ctol of the line through it, anchored at p_i.  Point-to-line distances
    come from the Gram identity dist^2 = |r - p|^2 - <r - p, u>^2, so no
    (pairs, points, d) tensor is ever materialized."""

    sq_norms = np.einsum("nd,nd->n", points, points)
    for start in range(0, check_i.size, 8192):
        ii = check_i[start:start + 8192]
        kk = check_k[start:start + 8192]
        anchors = points[ii]                                  # (B, d)
        unit = points[kk] - anchors
        unit /= np.linalg.norm(unit, axis=1, keepdims=True)
        cross = points @ anchors.T                            # (n, B)
        dist2 = (sq_norms[:, None] - 2.0 * cross
                 + np.einsum("bd,bd->b", anchors, anchors)[None, :])
        along = points @ unit.T - np.einsum("bd,bd->b", anchors, unit)[None, :]
        perp2 = np.maximum(dist2 - along * along, 0.0)
        close = perp2 <= ctol * ctol
        if np.any(np.sum(close, axis=0) >= 3):
            return True
    return False


def _collinearity_ok(points: np.ndarray, lines: tuple[Line, ...],
                     tol: ToleranceConfig) -> bool:
    """Condition: every collinear point triple lies on one of the plan lines.

    Pairs living together on a plan line are exempt (their triples sit on
    that line); every other pair must have no third point near its spanned
    line.  A sort over directions proposes a superset of the failing pairs
    and `_third_point_near` re-checks only those, with the arithmetic of the
    full check, so the decision is the same in O(n^2 log n) time, not O(n^3).
    The filter takes the anchors in blocks of about _BLOCK_ENTRIES (anchor,
    point) entries, so it holds O(block) floats beside the (n, n) exemptions.

    Superset: 16 (d+2) eps R^2 (R = 1 + max |p|) bounds the rounding error of
    the Gram identity to first order, so a third point it counts lies truly
    within tau/2 = sqrt(ctol^2 + 16 (d+2) eps R^2) of the pair's line.  From
    the anchor, its unit direction u (at distance rho) and the partner's then
    differ, up to sign, by a chord of at most sqrt(2) (tau/2) / rho; each
    direction is paired with all non-exempt others within a chord of
    2 tau / rho.  Directions are folded onto <g, u> >= 0, with a flipped copy
    of each one within its own window of the fold, and sorted by <h, u> plus
    4 per anchor of the block, so that anchors never share a window.  Fold
    and key are the points' projections onto g and h, differenced and divided
    by rho: with the offset they round by at most (4d + 8) eps R / rho +
    4 _BLOCK_ENTRIES eps, and the expanded pairs' unit vectors by (d + 3) eps.
    The window leaves a slack of (2 - sqrt(2)/2) tau / rho >= 10 sqrt((d+2)
    eps) R / rho, 10^4 times any of these, so it still holds a copy of the
    partner.  Only non-exempt entries are sorted, and one searches only when
    its sorted neighbour on some side lies in its window: a window holding a
    non-exempt entry holds the adjacent one on that side.  Exempt entries
    always search.  A window reaches 1 only for two points within 2 tau;
    then every non-exempt pair is re-checked.
    """

    n, d = points.shape
    scale = 1.0 + float(np.max(np.abs(points)))
    ctol = tol.match_tol * scale
    member = np.stack([_point_line_distances(points, ln) <= ctol for ln in lines],
                      axis=1).astype(float)
    candidate = member @ member.T == 0.0          # pairs sharing no plan line
    radius = 1.0 + float(np.max(np.linalg.norm(points, axis=1)))
    tau = 2.0 * np.sqrt(ctol * ctol + 16 * (d + 2) * np.finfo(float).eps * radius ** 2)
    g, h = np.sqrt(np.arange(2.0, d + 2.0)), np.cos(np.arange(d))  # fixed, generic
    h -= (h @ g) / (g @ g) * g
    g, h = g / np.linalg.norm(g), h / np.linalg.norm(h)
    along = np.stack([points @ g, points @ h])
    found = []
    rows = max(1, _BLOCK_ENTRIES // n)
    for first in range(0, n, rows):
        hits = _window_hits(points, np.arange(first, min(first + rows, n)), candidate,
                            along, tau)
        if hits is None:
            check_i, check_k = np.nonzero(np.triu(candidate, 1))
            break
        found.append(hits)
    else:
        flat = np.sort(np.concatenate(found))   # not np.unique, which imports numpy.ma
        check_i, check_k = np.divmod(flat[np.diff(flat, prepend=-1) > 0], n)
        upper = check_i < check_k
        check_i, check_k = check_i[upper], check_k[upper]
    return not _third_point_near(points, check_i, check_k, ctol)


def _window_hits(points: np.ndarray, anchors: np.ndarray, candidate: np.ndarray,
                 along: np.ndarray, tau: float) -> np.ndarray | None:
    """The filter of `_collinearity_ok` for one block of consecutive anchors:
    flat indices a * n + k of the non-exempt pairs (a, k) whose direction
    from a lies, up to sign, in the window of another direction from a; None
    when two points lie within 2 tau.  ``along`` holds the points'
    projections onto g and h."""

    n, first = points.shape[0], int(anchors[0])
    rho, step = np.zeros((2, anchors.size, n))   # |p_k - p_a| at [a - first, k]
    for x in points.T:
        np.subtract(x[None, :], x[anchors, None], out=step)
        step *= step
        rho += step
    np.sqrt(rho, out=rho)
    rho[anchors - first, anchors] = np.inf   # zero direction, empty window
    if float(np.min(rho)) <= 2.0 * tau:
        return None
    width = 2.0 * tau / rho
    fold = (along[0][None, :] - along[0][anchors, None]) / rho
    sign = np.where(fold < 0.0, -1.0, 1.0)
    key = sign * (along[1][None, :] - along[1][anchors, None]) / rho
    seam = np.flatnonzero(np.abs(fold) < width)
    origin = np.concatenate([np.arange(rho.size), seam])   # flat (a - first, point)
    sign = np.concatenate([sign.ravel(), -sign.ravel()[seam]])
    key = np.concatenate([(key + 4.0 * np.arange(anchors.size)[:, None]).ravel(),
                          4.0 * (seam // n) - key.ravel()[seam]])   # anchors stay apart
    width = width.ravel()[origin]
    free = candidate[anchors].ravel()[origin]   # entries that may be proposed
    entry = np.flatnonzero(free)
    entry = entry[np.argsort(key[entry])]
    free_key, free_width = key[entry], width[entry]
    below, above = free_key - free_width, free_key + free_width
    active = np.zeros(entry.size, dtype=bool)
    active[1:] = free_key[:-1] >= below[1:]
    active[:-1] |= free_key[1:] <= above[:-1]
    src = np.concatenate([entry[active], np.flatnonzero(~free)])
    lo = np.searchsorted(free_key, key[src] - width[src])
    count = np.searchsorted(free_key, key[src] + width[src], side="right") - lo
    src = np.repeat(src, count)
    dst = entry[np.repeat(lo - np.cumsum(count) + count, count) + np.arange(src.size)]
    ends = np.stack([src[dst != src], dst[dst != src]])
    pair = origin[ends]
    unit = ((points[pair % n] - points[first + pair // n])
            / rho.ravel()[pair][..., None] * sign[ends][..., None])
    near = np.linalg.norm(unit[0] - unit[1], axis=1) <= width[ends[0]]
    return first * n + pair[1, near]


def build_sample_plan(g: GroupedReLU, ls: FeasibleLineSet, seed: int,
                      tol: ToleranceConfig = DEFAULT_TOL) -> SamplePlan:
    """Place two jittered samples per affine piece of every line, re-rolling
    the jitter until no accidental cross-line collinear triples remain."""

    hyperplanes = _distinct_hyperplanes(g)
    m = len(hyperplanes)
    if len(ls.lines) != m * g.d:
        raise InputError("line set does not match the network",
                         lines=len(ls.lines), expected=m * g.d)

    rng = np.random.default_rng(seed)
    for _ in range(_RETRY_BUDGET):
        all_params: list[tuple[float, ...]] = []
        blocks = []
        for j, line in enumerate(ls.lines):
            w = np.asarray(ls.crossing_params[j])
            ts = []
            # unbounded first piece: offsets 2 and 1 below the first crossing
            ts.append(w[0] - 2.0 + rng.uniform(-0.25, 0.25))
            ts.append(w[0] - 1.0 + rng.uniform(-0.25, 0.25))
            for k in range(m - 1):
                lo, hi = w[k], w[k + 1]
                span = hi - lo
                ts.append(lo + span / 3.0 + rng.uniform(-0.1, 0.1) * span)
                ts.append(lo + 2.0 * span / 3.0 + rng.uniform(-0.1, 0.1) * span)
            ts.append(w[-1] + 1.0 + rng.uniform(-0.25, 0.25))
            ts.append(w[-1] + 2.0 + rng.uniform(-0.25, 0.25))
            ts = sorted(ts)
            all_params.append(tuple(float(t) for t in ts))
            blocks.append(line.points_at(ts))
        points = np.concatenate(blocks, axis=0)
        if _collinearity_ok(points, ls.lines, tol):
            return SamplePlan(ls.lines, tuple(all_params), points)
    raise ConstructionError("could not avoid accidental collinear triples",
                            retries=_RETRY_BUDGET)


def sample_values(net: ShallowNet, plan: SamplePlan) -> LabeledSamples:
    """Evaluate a network on every plan point; a value beyond the float range
    raises InputError."""

    values = evaluate_many(net, plan.points)
    if not np.all(np.isfinite(values)):
        raise InputError("network values on the plan overflow the float range",
                         point=int(np.flatnonzero(~np.isfinite(values))[0]))
    return LabeledSamples(plan, values)


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------

def _fit_pieces(t: np.ndarray, y: np.ndarray, tol: ToleranceConfig
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Breakpoints of every row of (lines, samples) arrays of params and
    values at once; see extract_breakpoints for the rule.

    Returns the (lines, pieces) mask of pieces that start a group, the
    (slope, intercept) of every group and the breakpoints between neighbouring
    groups, both in line order.
    """

    if np.any(t[:, 1:] <= t[:, :-1]):
        raise InputError("params must be strictly increasing")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
        raise InputError("params and values must be finite")

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # a pair shares its predecessor's group iff their slopes are within
        # merge_tol: that predecessor always ends the open group, so no loop
        slopes = (y[:, 1::2] - y[:, 0::2]) / (t[:, 1::2] - t[:, 0::2])
        merge_tol = 10.0 * tol.residual_tol * (1.0 + np.max(np.abs(slopes), axis=1))
        steps = np.abs(np.diff(slopes, axis=1))
        if not (np.all(np.isfinite(steps)) and np.all(np.isfinite(merge_tol))):
            raise InputError("piece slopes overflow the float range")
        starts = np.ones(slopes.shape, dtype=bool)
        starts[:, 1:] = ~(steps <= merge_tol[:, None])

        # centred least squares on each group's samples, a contiguous segment
        first = 2 * np.flatnonzero(starts)
        size = np.diff(first, append=t.size)
        tf, yf = t.ravel(), y.ravel()
        t_mean = np.add.reduceat(tf, first) / size
        y_mean = np.add.reduceat(yf, first) / size
        dt = tf - np.repeat(t_mean, size)
        sxx = np.add.reduceat(dt * dt, first)
        p = np.add.reduceat(dt * (yf - np.repeat(y_mean, size)), first) / sxx
        q = y_mean - p * t_mean
        # groups whose right neighbour is on the same line
        left = np.flatnonzero(first[1:] % t.shape[1])
        rise = p[left + 1] - p[left]
        breakpoints = (q[left] - q[left + 1]) / rise
    if not all(np.all(np.isfinite(a)) for a in (sxx, p, q, rise, breakpoints)):
        raise InputError("fitted pieces or breakpoints overflow the float range")
    return starts, np.stack([p, q], axis=1), breakpoints


def extract_breakpoints(line: Line, params, values,
                        tol: ToleranceConfig = DEFAULT_TOL
                        ) -> tuple[list[float], list[tuple[float, float]]]:
    """Fit consecutive sample pairs to affine pieces in the line parameter and
    intersect neighbouring pieces.

    Each pair's slope is compared with the slope of the pair before it, and
    the two share a piece when they differ by at most 10 * residual_tol *
    (1 + the largest |slope| on the line).  Merges chain, so a run of small
    steps is one piece even when its ends differ by more than that.  Each
    piece is the least-squares line through its samples, so fewer
    breakpoints than hyperplanes is an ordinary outcome, not an error.
    Non-finite params or values, and slopes, pieces or breakpoints that
    overflow the float range, raise InputError.
    Returns (breakpoints, merged (slope, intercept) pieces).
    """

    t = np.asarray(params, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != y.shape:
        raise InputError("params and values must be equal-length vectors")
    if t.size < 4 or t.size % 2 != 0:
        raise InputError("expected an even number (>= 4) of samples, two per piece",
                         count=int(t.size))
    _, pieces, breakpoints = _fit_pieces(t[None, :], y[None, :], tol)
    return breakpoints.tolist(), [(p, q) for p, q in pieces.tolist()]


def _seed_survivors(stacked: np.ndarray, seeds: np.ndarray, keep_tol: float
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the seed tuples (``seeds``: (tuples, d, d), one crossing p_i
    of each of d lines) that may pass ``recover_hyperplanes``' exact test,
    and the (lines, m, tuples) distances of every crossing from each tuple's
    rough plane, by which that test matches.

    Each tuple gets a rough plane through its seeds' centroid q.  Its normal
    is the cofactor vector c of M, the (d - 1) x d matrix of rows p_i - p_1:
    c_j = (-1)^j det(M without column j), the last level of
    ``_laplace_minors``.  c is orthogonal to every row of M, and |c| is the
    product of M's singular values (Cauchy-Binet).  A tuple whose normal is
    zero or not finite defines no plane and is dropped.  A tuple is kept
    outright when some line has a second crossing within keep_tol of the one
    nearest its rough plane: the miss bound below needs each seed to be the
    crossing its line matches.  Every other tuple is dropped when its rough
    plane provably misses some line, and kept otherwise.  For well-spread
    points, as a real hyperplane's crossings are, this leaves about m tuples
    of a line combination's m^d, and every tuple the exact test accepts
    survives.

    The miss bound.  Let n be a unit normal of the rough plane with residual
    rho = |M n|, t = 4 keep_tol (a margin above the exact test's keep_tol)
    and F = |M|_F.  Suppose the refit H' = {x : n'.x + b' = 0}, |n'| = 1,
    passes the exact test: on every line it comes within keep_tol < t of the
    crossing it is fitted on, the one nearest the rough plane.  n.(p_i - q)
    is an entry of M n less their mean, so the seeds lie within 2 rho of the
    rough plane, and without a tie, while 2 rho is below keep_tol, each seed
    is that crossing of its line.
    * Each entry of M n' is a difference of two values at most t in size, so
      |M n'| <= 2 sqrt(d - 1) t; and |n'.q + b'| <= t.
    * Write n' = cos(a) n + sin(a) w, w a unit vector orthogonal to n, with
      the sign of n' that makes a <= pi/2.  Then |sin a| |M w| <= |M n'| +
      rho.  M w = M' w for M' = M (I - n n^T), which has n in its kernel, so
      |M w| >= s_{d-1}(M') >= s_{d-1}(M) - rho (Weyl, as |M - M'| = rho).
    * s_{d-1}(M) >= |c| / G, where G^2 sums, over the rows of M, the product
      of the other rows' squared norms.  The other d - 2 singular values
      multiply to at most G: the product of their squares is at most their
      (d - 2)-th elementary symmetric function, the sum of the principal
      (d - 2)-minors of M M^T (Cauchy-Binet), and each of those Gram
      determinants is at most the product of its rows' squared norms
      (Hadamard).  At d = 3, G = F.  So
          |sin a| <= (2 sqrt(d - 1) t + rho) / (|c| / G - rho)
      whenever the denominator is positive.
    * |n - n'| = 2 sin(a/2) <= sqrt(2) sin a.  A crossing x within t of H'
      therefore lies within |n'.(x - q)| + |n - n'| |x - q| <= 2t + sqrt(2) R
      sin a of the rough plane, where R >= |x - q| for every crossing: here R
      = r + |q - o|, with o the mean of all crossings and r their largest
      distance from o.
    So every line has a crossing within B = 2t + sqrt(2) R sin a + eta of the
    rough plane, and a tuple whose nearest crossing on some line is farther
    than B cannot pass the exact test.

    Rounding, with u = 2^-53 and M the computed differences.  These are
    within u F of the exact ones, which adds u F to |M n'|.  Each Laplace
    cofactor carries at most d(d - 1)/2 roundings per monomial, so it is
    within d(d - 1)/2 u times the permanent of |M| without its column, at
    most the product of M's row 1-norms, which is at most d^((d-1)/2) times
    the product of the row norms.  That product over G is at most the
    smallest row norm, so over the d cofactors and divided by G this is at
    most d^(d/2 + 1) (d - 1) u F.  The computed residual is within d u F of
    |M n| for the float normal, whose norm is 1 within 2 d u, and |c|, F and
    G carry at most d^2 relative roundings, which move |c| / G <= F by at
    most d^2 u F.  slack = 4 d^(d/2 + 2) u F covers their sum with room for
    second-order terms, so with the computed |c| and residual rho,
        sin a <= (2 sqrt(d - 1) t + rho + slack) / max(0, |c| / G - rho - slack),
    and a tuple is only dropped when 2 (rho + slack) + eta < keep_tol.
    With P the largest coordinate size, the centroid, the float normal's norm
    and the distances each move a distance by O(d^2 u P), and a drop needs B
    < nearest <= R <= 4 sqrt(d) P, so B's own few relative roundings are of
    that size too; eta = 64 d^3 u (1 + P) covers each with room.  At d = 1
    the normal is fixed and sin a = 0.  A tuple whose bound is infinite
    (|c| / G at most rho + slack) is kept.
    """

    n_lines, m, d = stacked.shape
    flat = stacked.reshape(n_lines * m, d)
    center = seeds.mean(axis=1)
    t = 4.0 * keep_tol
    eta = 64 * d ** 3 * 2.0 ** -53 * (1.0 + float(np.max(np.abs(flat))))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if d == 1:
            normal, sin, loose = np.ones((1, len(seeds))), 0.0, False
        else:
            points = np.ascontiguousarray(seeds.transpose(1, 2, 0))  # (seed, coordinate, tuple)
            diff = points[1:] - points[0]                            # M of every tuple
            minors = _laplace_minors(diff)
            cof = np.stack([minors[(1 << d) - 1 ^ 1 << j] for j in range(d)])
            cof[1::2] *= -1.0
            size = np.sqrt(np.einsum("jc,jc->c", cof, cof))
            normal = cof / size
            resid = np.einsum("ijc,jc->ic", diff, normal)
            resid = np.sqrt(np.einsum("ic,ic->c", resid, resid))
            sq = np.einsum("ijc,ijc->ic", diff, diff)                # squared row norms
            frob = np.sqrt(np.sum(sq, axis=0))
            gram = np.sqrt(sum(np.prod(np.delete(sq, i, axis=0), axis=0) for i in range(d - 1)))
            slack = 4 * d ** (d / 2 + 2) * 2.0 ** -53 * frob
            sin = ((2 * np.sqrt(d - 1) * t + resid + slack)
                   / np.maximum(size / gram - resid - slack, 0.0))
            loose = 2 * (resid + slack) + eta >= keep_tol   # a seed may not match
        plane = np.all(np.isfinite(normal), axis=0) & np.any(normal != 0.0, axis=0)
        rough = flat @ normal
        rough -= np.einsum("dc,cd->c", normal, center)
        rough = np.abs(rough, out=rough).reshape(n_lines, m, -1)
        nearest = np.min(rough, axis=1)
        tie = np.any(np.sum(rough <= nearest[:, None] + keep_tol, axis=1) > 1, axis=0)

        mid = flat.mean(axis=0)
        reach = np.max(_row_norms(flat - mid)) + _row_norms(center - mid)
        bound = 2 * t + np.sqrt(2) * reach * sin + eta
        keep = tie | loose | ~np.any(nearest > bound, axis=0)
        return np.flatnonzero(plane & keep), rough


def _plane_distances(stacked: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """|a.x + b| of every crossing x of ``stacked`` (lines, m, d) from each plane
    (a, b) of (A, B): (planes, lines, m), with the bits of ``stacked[j] @ a + b``."""

    return np.abs(np.matmul(stacked, A[:, None, :, None])[..., 0] + B[:, None, None])


def _exact_fits(stacked: np.ndarray, rough: np.ndarray, keep_tol: float
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``recover_hyperplanes``' exact test on each seed tuple, given the
    (lines, m, tuples) distances of the crossings from its rough plane:
    refit on every line's nearest crossing, and accept a refit whose
    crossings span at least a (d - 1)-flat and that comes within keep_tol of
    exactly one crossing of every line, the one it is fitted on.  Returns the
    refits' normals and offsets and the accepted ones' indices."""

    n_lines, _, d = stacked.shape
    rows = np.argmin(rough, axis=1).T
    A, B, spanned = affine_fits(stacked[np.arange(n_lines), rows])
    near = _plane_distances(stacked, A, B) <= keep_tol
    alone = np.take_along_axis(near, rows[..., None], axis=2)[..., 0] & (near.sum(axis=2) == 1)
    return A, B, np.flatnonzero((spanned >= d - 1) & np.all(alone, axis=1))


def recover_hyperplanes(crossings_by_line, tol: ToleranceConfig = DEFAULT_TOL
                        ) -> list[Hyperplane]:
    """Fit candidate hyperplanes through d crossings from d distinct lines and
    keep those containing exactly one crossing of every line.

    Each candidate is refitted on every line's crossing nearest the plane
    through its d seeds before the final containment test, which makes the
    fit insensitive to how well spread the seeds happened to be.  Seed tuples
    go in chunks through the miss-bound screen ``_seed_survivors``, then one
    batched exact test ``_exact_fits`` on its survivors.  Accepted refits are
    taken in itertools order and a refit matching one already found is
    skipped, so the result is the one of testing every tuple on its own.  It
    is sorted on a grid of step match_tol, so rounding cannot reorder it.
    """

    groups = [np.asarray(grp, dtype=float) for grp in crossings_by_line]
    if not groups:
        raise InputError("no crossing points supplied")
    n_lines = len(groups)
    m = groups[0].shape[0]
    d = groups[0].shape[1]
    for j, grp in enumerate(groups):
        if grp.shape != (m, d):
            raise InputError(f"line {j} contributes {grp.shape[0]} crossings, expected {m}")
    if n_lines != m * d:
        raise InputError("line count must be m*d", lines=n_lines, m=m, d=d)
    stacked = np.stack(groups)
    if not np.all(np.isfinite(stacked)):
        raise InputError("crossing points must be finite")

    keep_tol = tol.match_tol * (1.0 + float(np.max(np.abs(stacked))))
    found: list[Hyperplane] = []
    fits = 0
    tuples = m ** d
    chunk = max(1, _CHUNK_FLOATS // (n_lines * max(m, d)))
    for line_combo in itertools.combinations(range(n_lines), d):
        for start in range(0, tuples, chunk):
            if fits == _CANDIDATE_BUDGET:
                raise RecoveryError("candidate budget exhausted before finding "
                                    "all hyperplanes", found=len(found), expected=m)
            index = np.arange(start, min(start + chunk, tuples,
                                         start + _CANDIDATE_BUDGET - fits))
            fits += index.size
            choices = np.stack(np.unravel_index(index, (m,) * d), axis=1)  # itertools.product order
            kept, rough = _seed_survivors(stacked, stacked[list(line_combo), choices], keep_tol)
            if not kept.size:
                continue
            A, B, accepted = _exact_fits(stacked, rough[:, :, kept], keep_tol)
            for k in accepted:
                refit = Hyperplane(A[k], float(B[k]))
                if any(refit.matches(h, tol) for h in found):
                    continue
                found.append(refit)
                if len(found) == m:
                    return sorted(found, key=lambda h: np.round(
                        np.append(h.a, h.b) / tol.match_tol).tolist())
    raise RecoveryError("hyperplane recovery found the wrong candidate count",
                        found=len(found), expected=m)


def reconstruct(data: LabeledSamples, tol: ToleranceConfig = DEFAULT_TOL) -> ShallowNet:
    """Rebuild a network from plan samples: breakpoints per line, hyperplanes
    from the crossings, one solve for scales and linear term, then the sign
    patterns whose flips cancel that term until one reproduces the samples."""

    plan = data.plan
    lines = plan.lines
    if not lines:
        raise ReconstructionError("plan carries no lines")
    values = np.asarray(data.values, dtype=float)
    d = lines[0].u.shape[0]
    counts = {len(p) for p in plan.params}
    if len(counts) != 1:
        raise ReconstructionError("plan lines carry differing sample counts")
    per_line = counts.pop()
    if per_line < 4 or per_line % 2 != 0:
        raise ReconstructionError("plan does not have two samples per piece",
                                  per_line=per_line)
    m_plan = per_line // 2 - 1

    total = len(lines) * per_line
    if values[:total].shape != (total,):
        raise InputError("params and values must be equal-length vectors")
    starts, _, breakpoints = _fit_pieces(np.array(plan.params, dtype=float),
                                         values[:total].reshape(len(lines), per_line), tol)
    found = np.sum(starts, axis=1) - 1      # breakpoints per line

    m = int(np.max(found))
    value_scale = 1.0 + float(np.max(np.abs(values)))

    if m == 0:
        design = np.concatenate([plan.points, np.ones((plan.points.shape[0], 1))], axis=1)
        sol, _ = solve_least_squares(design, values)
        gradient, const = sol[:-1], float(sol[-1])
        residual = float(np.max(np.abs(design @ sol - values)))
        if residual > tol.residual_tol * value_scale:
            raise ReconstructionError("no breakpoints found but data is not affine",
                                      residual=residual)
        if float(np.linalg.norm(gradient)) > tol.match_tol * value_scale:
            raise ReconstructionError(
                "data is affine but not constant; it cannot come from a plan "
                "built for an irreducible network")
        return make_net("relu", [], const, d=d)

    if m != m_plan:
        raise ReconstructionError(
            "detected breakpoint count disagrees with the plan structure",
            detected=m, plan=m_plan)
    if len(lines) != m * d:
        raise ReconstructionError("plan line count disagrees with detected m",
                                  lines=len(lines), m=m, d=d)
    short = np.flatnonzero(found != m).tolist()
    if short:
        raise ReconstructionError(
            "some lines show fewer breakpoints than the detected neuron count",
            lines=short, detected=m)
    if m > SUBSET_CAP:  # fail before the costly hyperplane recovery
        raise SizeError(f"orientation search is capped at m <= {SUBSET_CAP}", m=m)

    # Line.points_at on every line in one broadcast
    u = np.stack([line.u for line in lines])
    v = np.stack([line.v for line in lines])
    crossings = u[:, None, :] + breakpoints.reshape(len(lines), m)[:, :, None] * v[:, None, :]
    hyperplanes = recover_hyperplanes(crossings, tol)

    margins = np.stack([plan.points @ h.a + h.b for h in hyperplanes], axis=1)
    ones = np.ones((plan.points.shape[0], 1))
    # relu(h) = h + relu(-h): a flip set F whose pattern fits within tolerance
    # r gives the design [relu(h_k), x, 1] a solution with w = -sum_F sigma_k a_k
    # and residual norm <= sqrt(n) r.  The one least-squares solution then lies
    # within 2 sqrt(n) r / s_min of it, so F's miss |w + sum_F sigma_k a_k| is
    # at most sqrt(1+m) times that.  Only flip sets within that bound, plus a
    # match_tol term for rounding (all of them if the design is rank
    # deficient), get the per-pattern check.  Neuron 0 on the top bit makes
    # ascending masks follow itertools.product order.
    full = np.concatenate([np.maximum(margins, 0.0), plan.points, ones], axis=1)
    sol, _, _, sv = np.linalg.lstsq(full, values, rcond=RANK_TOL)
    sigma, w = sol[:m], sol[m:m + d]
    moved = sigma[::-1, None] * np.stack([h.a for h in hyperplanes[::-1]])
    slack = (2.0 * np.sqrt((1.0 + m) * len(values)) * tol.residual_tol * value_scale / sv[-1]
             if len(sv) == full.shape[1] and sv[-1] > RANK_TOL * sv[0] else np.inf)
    bound = tol.match_tol * (1.0 + float(np.linalg.norm(w)) + float(np.sum(np.abs(sigma))))
    for mask in _screen_subset_sums(
            moved, lambda sums: np.linalg.norm(sums, axis=1) <= bound + slack, w).tolist():
        eps = [-1.0 if mask >> (m - 1 - k) & 1 else 1.0 for k in range(m)]
        design = np.concatenate([np.maximum(margins * np.asarray(eps)[None, :], 0.0), ones],
                                axis=1)
        sol, _ = solve_least_squares(design, values)
        residual = float(np.max(np.abs(design @ sol - values)))
        if residual <= tol.residual_tol * value_scale:
            neurons = [(eps[k] * hyperplanes[k].a, eps[k] * hyperplanes[k].b,
                        float(sol[k])) for k in range(m)]
            return make_net("relu", neurons, float(sol[-1]), d=d)
    raise ReconstructionError(
        "no orientation assignment reproduces the samples; data is "
        "inconsistent with the model class or m was misdetected")


# ---------------------------------------------------------------------------
# plan / sample files
# ---------------------------------------------------------------------------

def plan_to_json_obj(plan: SamplePlan) -> dict:
    return {
        "lines": [{"u": [float(x) for x in ln.u], "v": [float(x) for x in ln.v]}
                  for ln in plan.lines],
        "params": [[float(t) for t in row] for row in plan.params],
    }


def plan_from_json_obj(obj) -> SamplePlan:
    raw_lines, _ = schema.field(obj, "lines", "plan", list)
    raw_params, _ = schema.field(obj, "params", "plan", list)
    if len(raw_lines) != len(raw_params) or not raw_lines:
        raise ParseError("'lines' and 'params' must be equal-length nonempty lists",
                         location="plan")
    lines = []
    params = []
    blocks = []
    for j, (entry, row) in enumerate(zip(raw_lines, raw_params)):
        loc = f"plan.lines[{j}]"
        u = schema.vector(*schema.field(entry, "u", loc), lines[0].u.size if lines else None)
        if not u.size:
            raise ParseError("a line needs at least one coordinate", location=f"{loc}.u")
        line = Line(u, schema.vector(*schema.field(entry, "v", loc), u.size))
        ts = schema.vector(row, f"plan.params[{j}]")
        if ts.size < 4:
            raise ParseError("params row must list at least four values",
                             location=f"plan.params[{j}]")
        with np.errstate(over="ignore", invalid="ignore"):
            block = line.points_at(ts)
        if not np.all(np.isfinite(block)):
            raise ParseError("plan points overflow the float range",
                             location=f"plan.params[{j}]")
        lines.append(line)
        params.append(tuple(ts.tolist()))
        blocks.append(block)
    return SamplePlan(tuple(lines), tuple(params), np.concatenate(blocks, axis=0))


def samples_to_json_obj(samples: LabeledSamples, plan_ref: str) -> dict:
    return {
        "plan_ref": plan_ref,
        "points": [[float(x) for x in row] for row in samples.plan.points],
        "values": [float(v) for v in samples.values],
    }


def samples_from_json_obj(obj, plan: SamplePlan,
                          tol: ToleranceConfig = DEFAULT_TOL) -> LabeledSamples:
    n, d = plan.points.shape
    values = schema.vector(*schema.field(obj, "values", "samples"), n)
    points = schema.matrix(*schema.field(obj, "points", "samples"), d)
    if points.shape != plan.points.shape:
        raise ParseError("sample points do not match the referenced plan",
                         location="samples.points")
    scale = 1.0 + float(np.max(np.abs(plan.points)))
    if float(np.max(np.abs(points - plan.points))) > tol.match_tol * scale:
        raise ParseError("sample points disagree with the referenced plan",
                         location="samples.points")
    return LabeledSamples(plan, values)

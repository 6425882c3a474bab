"""Feasible line collections, the (2m+2)*m*d sample plan, and exact recovery
of a relu network from labeled samples.

A relu network restricted to a line is piecewise linear in the line parameter
with one breakpoint per hyperplane crossed.  Two samples per affine piece pin
the function on the whole line; the crossings of enough well-spread lines pin
the hyperplanes; a final least-squares solve pins scales and constant.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import numerics, schema
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
# margin on the Laplace |det| of a subset's k = d - 1 unit vectors (``_spread_ok``).
# With at most k(k+1)/2 roundings a monomial, the value lies within k(k+1)/2 u k^(k/2)
# of the exact |det| (u = 2^-53, first order), below 1e-13 for d <= 6; and a pass
# gives sigma_min >= |det| / k^((k-1)/2), as |det| = prod sigma_i, sigma_max <= sqrt(k)
_MIN_SPREAD_DET = 1e-6
_RETRY_BUDGET = 1000         # per failure site
_TOTAL_DRAW_CAP = 50_000
_CANDIDATE_BUDGET = 200_000    # seed tuples fitted by recover_hyperplanes
_BLOCK_ENTRIES = 2 ** 14       # (anchor, point) pairs per block of the collinearity filter
_SPREAD_BLOCK = 2 ** 13        # (hyperplane, subset) entries per block of the spread check
# subset tests of one spread pass, m * C(md, d): above d=5, m=12 (65,538,144)
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


def _candidate_crossings(cands: np.ndarray, A: np.ndarray, B: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Which of the candidate lines ``cands`` ((b, 2, d): rows u, v) pass the
    transversality / separation margins against every hyperplane (rows of the
    stacked normals A and offsets B), and the (b, m) crossing parameters of
    those that do (the rows of the others are 0).  Each candidate gets the
    bits of a test of it alone: sqrt(v . v) is ``np.linalg.norm(v)``, and
    ``np.vecdot`` forms one dot product at a time."""

    U, V = cands[:, 0], cands[:, 1]
    vnorm = np.sqrt(np.vecdot(V, V))
    denom = np.vecdot(V[:, None, :], A)
    ok = (vnorm >= _MIN_DIRECTION_NORM) & np.all(
        np.abs(denom) >= _MIN_TRANSVERSALITY * vnorm[:, None], axis=1)
    params = np.zeros(denom.shape)
    params[ok] = -(np.vecdot(U[ok, None, :], A) + B) / denom[ok]
    ok[ok] = np.all(np.diff(np.sort(params[ok]), axis=1) >= _MIN_PARAM_GAP, axis=1)
    return ok, params


def _colex(n: int, r: int) -> np.ndarray:
    """All r-subsets of range(n) as the columns of a C-contiguous (r, C(n, r))
    array in colex order: by last element j, and before j the (r-1)-subsets
    of range(j), which are the first C(j, r-1) columns of that order.  (On a
    column-major array, ``np.take`` along axis 1 copies the whole array.)"""

    cols = np.zeros((0, 1), dtype=np.intp)   # the empty subset
    for k in range(r):
        count = np.array([math.comb(j, k) for j in range(k, n)])
        prefix = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        cols = np.vstack([cols[:, prefix], np.repeat(np.arange(k, n), count)])
    return np.ascontiguousarray(cols)


@functools.cache
def _expansion_steps(k: int) -> tuple[tuple[tuple[int, ...], np.ndarray, np.ndarray], ...]:
    """For r = 1..k: the masks of r of k bits in increasing order, and two
    (r, C(k, r)) index arrays.  Entry (t, i) of the first is the t-th set
    bit j of mask i; of the second, the place of mask i without bit j among
    the masks of r - 1 bits."""

    levels = [[s for s in range(1 << k) if bin(s).count("1") == r] for r in range(k + 1)]
    steps = []
    for r in range(1, k + 1):
        index = {s: i for i, s in enumerate(levels[r - 1])}
        bits = [[j for j in range(k) if s >> j & 1] for s in levels[r]]
        cols = np.array(bits).T
        place = np.array([[index[s ^ 1 << j] for j in b] for s, b in zip(levels[r], bits)]).T
        cols.setflags(write=False)
        place.setflags(write=False)
        steps.append((tuple(levels[r]), cols, place))
    return tuple(steps)


def _alternating_sum(terms: np.ndarray) -> np.ndarray:
    """terms[0] - terms[1] + terms[2] - ..., summed in that order into terms[0]."""

    acc = terms[0]
    for t in range(1, len(terms)):
        if t % 2:
            acc -= terms[t]
        else:
            acc += terms[t]
    return acc


def _laplace_minors(rows: np.ndarray) -> dict[int, np.ndarray]:
    """Minors of C matrices of r rows and k columns on every r-subset of their
    columns: ``rows`` is an (r, k, C) array whose entry (i, j, c) is entry
    (i, j) of matrix c.  Returns, for each mask of r set bits (bit j for
    column j), the (C,) minors on the columns of its set bits, all up to one
    sign that depends on r alone; for r = 0, the empty minor 1.

    Laplace expansion along the rows: after row i, the minors hold, for
    every c, the minor of rows 0..i on the columns of each mask, and row i+1
    expands each larger minor along its last row with alternating signs,
    all minors of one size at once.  For a square matrix that is
    k * 2^(k-1) multiply-adds on (C,) arrays."""

    r, k, count = rows.shape
    if r == 0:
        return {0: np.ones(count)}
    steps = _expansion_steps(k)
    masks, minors = steps[0][0], rows[0]   # the minors of one row are its entries
    for (masks, cols, place), entries in zip(steps[1:], rows[1:]):
        minors = _alternating_sum(entries[cols] * minors[place])
    return dict(zip(masks, minors))


def _unit_vectors(coords: np.ndarray) -> np.ndarray:
    """The (k, m, n, n) table of unit vectors between the in-plane points
    ``coords`` (m, n, k) of m hyperplanes: entry [:, h, i, j] is the unit
    vector from point i to point j of hyperplane h, and 0 for i = j."""

    m, n, k = coords.shape
    diff = coords[:, None, :, :] - coords[:, :, None, :]   # diff[h, i, j] = c_hj - c_hi
    dist = np.linalg.norm(diff, axis=3)
    dist[:, range(n), range(n)] = np.inf
    return np.ascontiguousarray(np.moveaxis(diff / dist[..., None], 3, 0))


def _last_point_spreads(table: np.ndarray, sub: np.ndarray) -> np.ndarray:
    """(m C,): the fast |det| of each (hyperplane, subset) entry of
    ``_spread_ok`` from its subset's last point (row k of ``sub``): its rows
    are the unit vectors to the points of rows k - 1, ..., 0 in that order,
    and the expansion ends along the row to row 0.  The first k - 1 rows
    depend on the subset's rows 1..k alone, so a node, a run of columns that
    agree there with the column before, gets their ``_laplace_minors`` once;
    each entry then expands along its last row: k gathers and k
    multiply-adds.  The values are bit for bit those of ``_laplace_minors``
    on the k rows."""

    k, m, n, _ = table.shape
    flat = table.reshape(k, m * n * n)
    count = sub.shape[1]
    edge = np.ones(count + 1, dtype=bool)   # where a node starts, and the end
    np.any(sub[1:, 1:] != sub[1:, :-1], axis=0, out=edge[1:-1])
    start = np.flatnonzero(edge)
    plane = np.arange(0, m * n * n, n * n)[:, None]   # hyperplane h's block of the flat table
    anchor = sub[k] * n   # the last point's row of each block
    node = anchor[start[:-1]] + sub[k - 1:0:-1, start[:-1]]
    middle = np.take(flat, plane + node[:, None], axis=1)   # (k, k - 1, m, nodes)
    minors = _laplace_minors(middle.reshape(k, k - 1, m * (start.size - 1)).swapaxes(0, 1))
    shared = np.stack([minors[(1 << k) - 1 ^ 1 << j] for j in range(k)]).reshape(k, m, -1)
    last = np.take(flat, plane + (anchor + sub[0]), axis=1)
    return np.abs(_alternating_sum(last * np.repeat(shared, np.diff(start), axis=2))).ravel()


def _spread_ok(table: np.ndarray, sub: np.ndarray) -> np.ndarray:
    """(m, C): whether each d-subset (a column of ``sub``) of each of m
    hyperplanes' n in-plane points affinely spans that hyperplane, given the
    points' ``_unit_vectors`` ``table`` (k = d - 1, m, n, n): from some
    anchor point of the subset, the Laplace |det| (``_laplace_minors``) of
    the unit vectors to the other k must be at least ``_MIN_SPREAD_DET``.
    Every (hyperplane, subset) entry is anchored at its subset's last point
    (``_last_point_spreads``); those below the margin try anchors 0..k-1 in
    turn, with rows in subset order, until one passes them.  All m C entries
    go through one pass: hyperplane h's pair indices are offset by h n^2
    into the flat table.  Minors are elementwise, so an entry's decision
    depends neither on the others nor on the order of its anchors."""

    k, m, n, _ = table.shape
    flat = table.reshape(k, m * n * n)
    count = sub.shape[1]
    ok = _last_point_spreads(table, sub) >= _MIN_SPREAD_DET   # entry h * count + c
    low = np.flatnonzero(~ok)
    for anchor in range(k):
        if low.size:
            rows = np.take(sub, low % count, axis=1)
            pair = low // count * (n * n) + rows[anchor] * n + np.delete(rows, anchor, axis=0)
            minors = _laplace_minors(np.take(flat, pair, axis=1).swapaxes(0, 1))
            ok[low] = np.abs(minors[(1 << k) - 1]) >= _MIN_SPREAD_DET
            low = low[~ok[low]]
    return ok.reshape(m, count)


def _first_failure(crossings: np.ndarray, bases: np.ndarray, head: np.ndarray,
                   start: int) -> int | None:
    """The first line f that fails (ii), a crossing within ``_MIN_POINT_SEP``
    of one of a line up to f, or (iii), a d-subset of lines with last line f
    that fails ``_spread_ok`` in some hyperplane; None if none fails.

    (ii): the m^2 d crossings are sorted by coordinate 0, and a pair gets
    the exact test, the ``np.linalg.norm`` of its difference below
    ``_MIN_POINT_SEP``, when its computed gap fl(x_j - x_i) in that
    coordinate is below ``_MIN_POINT_SEP`` (1 + 1e-9).  Rounding is
    monotone, so along the sorted order the gap does not decrease, and
    raising the offset j - i until no gap is below finds every such pair.
    No close pair is left out: the computed sum of squares is at least
    fl(fl(x_j - x_i)^2), so with u = 2^-53 the computed norm is at least
    |fl(x_j - x_i)| (1 - u)^(3/2) >= |fl(x_j - x_i)| (1 - 2u), which is at
    least ``_MIN_POINT_SEP`` for every pair left out.

    (iii): in colex order, subset r has last line f for C(f, d) <= r <
    C(f + 1, d) and its other lines in column r - C(f, d) of ``head``, the
    colex order of the first md - 1 lines.  Only subsets with last line
    ``start`` or later, and before the first line that fails (ii), are
    tested, in blocks of about ``_SPREAD_BLOCK`` (hyperplane, subset)
    entries: one subset table per block, all m hyperplanes in one
    ``_spread_ok`` pass.  The first block with a failing entry names the
    smallest last line among its failing entries; every subset of a smaller
    last line has passed in every hyperplane."""

    n_lines, m, d = crossings.shape
    flat = crossings.reshape(n_lines * m, d)
    # (ii) on all crossings in space: (iii) sees them in orthonormal in-plane
    # bases, which keep distances up to rounding, and does not test them again
    order = np.argsort(flat[:, 0])
    x = flat[order, 0]
    reach = _MIN_POINT_SEP * (1.0 + 1e-9)
    live, gap, near = np.arange(x.size - 1), 1, []
    while live.size:
        live = live[x[live + gap] - x[live] < reach]
        near.append(np.stack([live, live + gap]))
        gap += 1
        live = live[live + gap < x.size]
    a, b = order[np.concatenate(near, axis=1)]
    close = np.linalg.norm(flat[a] - flat[b], axis=1) < _MIN_POINT_SEP
    first = int(np.min(np.maximum(a, b)[close])) // m if np.any(close) else n_lines
    below = np.array([math.comb(j, d) for j in range(n_lines + 1)])   # rows before line j
    table = _unit_vectors(np.stack([crossings[:, k, :] @ bases[k].T for k in range(m)]))
    step = max(1, _SPREAD_BLOCK // m)
    for lo in range(int(below[start]), int(below[first]), step):
        rows = np.arange(lo, min(lo + step, int(below[first])))
        last = np.searchsorted(below, rows, side="right") - 1
        sub = np.concatenate([np.take(head, rows - below[last], axis=1), last[None, :]])
        failed = ~np.all(_spread_ok(table, sub), axis=0)
        if np.any(failed):
            return int(last[np.argmax(failed)])
    return first if first < n_lines else None


def build_feasible_lines(g: GroupedReLU, seed: int) -> FeasibleLineSet:
    """Draw m*d random lines and verify the three feasibility conditions:
    (i) full-rank directions, (ii) mutually distinct crossings, and (iii)
    in-plane spread of every d crossings sharing a hyperplane.  After (i),
    each round redraws the first line that fails (ii) or (iii).  Its one
    integer of state, p, counts the leading lines whose d-subsets all pass:
    a round tests the subsets whose last line is p or later, and a redraw of
    line f sets p to f.  (iii) is decided on the Laplace determinants that
    ``_spread_ok`` computes, with no LAPACK call.  A set that passes with no
    such redraw is bit for bit the one a check from each subset's first
    point alone accepts.  Over ``_SPREAD_ENTRIES_CAP`` subset tests per pass
    raise SizeError.

    Candidate lines are drawn in batches from one random stream: to fill k
    empty lines, one ``rng.uniform(-1, 1, size=(k, 2, d))`` draws k
    candidates (u, then v), tested at once by ``_candidate_crossings``, and
    each that passes fills the next empty line.  Filling k lines takes at
    least k candidates, so the stream, the lines and the count of draws are
    those of drawing one candidate at a time; a line that rejects
    ``_RETRY_BUDGET`` candidates in a row, or a draw past
    ``_TOTAL_DRAW_CAP``, raises ConstructionError."""

    hyperplanes = _distinct_hyperplanes(g)
    m = len(hyperplanes)
    d = g.d
    if m < 1:
        raise InputError("need at least one neuron to build lines", m=m)
    if d < 2:
        raise InputError("line sampling needs input dimension >= 2", d=d)
    subsets = math.comb(m * d, d)
    if m * subsets > _SPREAD_ENTRIES_CAP:
        raise SizeError(f"spread check makes m * C(md, d) = {m * subsets} subset tests "
                        f"per pass, above the cap of {_SPREAD_ENTRIES_CAP}",
                        subsets=subsets, cap=_SPREAD_ENTRIES_CAP)

    rng = np.random.default_rng(seed)
    n_lines = m * d
    ends = np.empty((n_lines, 2, d))   # u, v of each line
    params = np.empty((n_lines, m))
    draws = 0
    A = np.stack([h.a for h in hyperplanes])
    B = np.array([h.b for h in hyperplanes])
    bases = np.linalg.svd(A[:, None, :])[2][:, 1:]   # in-plane, orthonormal
    head = _colex(n_lines - 1, d - 1)

    def fill(slots: list[int]) -> None:   # draws the lines ``slots``, in order
        nonlocal draws
        tries = 0   # candidates rejected for slots[0]
        while slots:
            cands = rng.uniform(-1.0, 1.0, size=(len(slots), 2, d))
            for cand, passed, w in zip(cands, *_candidate_crossings(cands, A, B)):
                draws += 1
                tries = 0 if passed else tries + 1
                if draws > _TOTAL_DRAW_CAP or tries == _RETRY_BUDGET:
                    raise ConstructionError(
                        "line construction exhausted its retry budget; tolerances or the "
                        "network geometry are pathological", draws=draws)
                if passed:
                    ends[slots[0]], params[slots[0]] = cand, w
                    slots = slots[1:]

    fill(list(range(n_lines)))
    p = 0
    for _ in range(_RETRY_BUDGET):
        # (i) directions span the whole space
        if rank(ends[:, 1]) != d:
            fill([0])
            p = 0
            continue
        crossings = ends[:, None, 0] + params[:, :, None] * ends[:, None, 1]   # Line.points_at
        p = _first_failure(crossings, bases, head, p)
        if p is None:
            break
        fill([p])
    else:
        raise ConstructionError(
            "feasibility conditions could not be met within the retry budget",
            draws=draws)

    return FeasibleLineSet(tuple(Line(u, v) for u, v in ends),
                           tuple(map(tuple, np.sort(params).tolist())))


def _line_distances(points: np.ndarray, lines: tuple[Line, ...]) -> np.ndarray:
    """(n, lines) distances of every point from every line, by one batched
    matmul over the (lines, n, d) offsets from the lines' base points."""

    v = np.stack([ln.v / np.linalg.norm(ln.v) for ln in lines])
    rel = points[None, :, :] - np.stack([ln.u for ln in lines])[:, None, :]
    perp = rel - np.matmul(rel, v[:, :, None]) * v[:, None, :]
    return np.linalg.norm(perp, axis=2).T


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
    Anchor a sees only the points k > a, so the sort holds the n (n - 1) / 2
    entries (a, k) of the upper triangle, which the filter takes in row
    ranges of about _BLOCK_ENTRIES entries: it holds O(block) floats beside
    the (n, n) exemptions.  For two directions from a, to x and to y, that
    lie in one's window it proposes the non-exempt pairs among (a, x), (a, y)
    and (x, y).

    Superset: 16 (d+2) eps R^2 (R = 1 + max |p|) bounds the rounding error of
    the Gram identity to first order, so a third point r it counts for a
    pair (i, k), i < k, lies truly within tau/2 = sqrt(ctol^2 + 16 (d+2) eps
    R^2) of the pair's line.  The lowest point of the triple anchors the
    other two.  If r > i, the anchor is i, and its directions to r (at
    distance rho) and to k differ, up to sign, by a chord of at most sqrt(2)
    (tau/2) / rho.  If r < i, the anchor is r, within tau/2 of the line
    through p_i and p_k, so each of its directions to them makes an angle of
    at most asin(tau / (2 rho)) with that line: they differ, up to sign, by
    a chord of at most sqrt(2) tau / rho_min, rho_min the nearer distance.
    Each direction is paired with all others within a chord of 2 tau / rho,
    its window.  Directions are folded onto <g, u> >= 0, with a flipped copy
    of each one within its own window of the fold, and sorted by <h, u> plus
    4 per anchor of the block, so that anchors never share a window.  Fold
    and key are the points' projections onto g and h, differenced and
    divided by rho: with the offset they round by at most (4d + 8) eps R /
    rho + 4 _BLOCK_ENTRIES eps, and the expanded pairs' unit vectors by
    (d + 3) eps.  The window leaves a slack of (2 - sqrt(2)) tau / rho >=
    4 sqrt((d+2) eps) R / rho, over 10^3 times any of these, so the window
    of the direction to r (r > i), or of the nearer direction (r < i), still
    holds a copy of the other direction.  Every entry is sorted, and one
    searches when its sorted neighbour on some side lies in its window: a
    window holding an entry holds the adjacent one on that side.  An exempt
    entry of an anchor on at most one plan line searches only the non-exempt
    entries, always: of a failing triple, its partner is non-exempt, or both
    points lie on the anchor's one line and so the pair they make is exempt.
    A window reaches 1 only for two points within 2 tau; then every
    non-exempt pair is re-checked.
    """

    n, d = points.shape
    scale = 1.0 + float(np.max(np.abs(points)))
    ctol = tol.match_tol * scale
    member = (_line_distances(points, lines) <= ctol).astype(float)
    candidate = member @ member.T == 0.0          # pairs sharing no plan line
    lone = np.sum(member, axis=1) <= 1.0          # points on at most one plan line
    radius = 1.0 + float(np.max(np.linalg.norm(points, axis=1)))
    tau = 2.0 * np.sqrt(ctol * ctol + 16 * (d + 2) * np.finfo(float).eps * radius ** 2)
    g, h = np.sqrt(np.arange(2.0, d + 2.0)), np.cos(np.arange(d))  # fixed, generic
    h -= (h @ g) / (g @ g) * g
    g, h = g / np.linalg.norm(g), h / np.linalg.norm(h)
    along = np.stack([points @ g, points @ h])
    size = np.arange(n - 1, -1, -1)               # entries (a, k > a) of anchor a
    ends = np.cumsum(size)
    found, first = [np.zeros(0, dtype=np.intp)], 0
    while first < n - 1:
        last = max(first + 1, int(np.searchsorted(ends, ends[first] - size[first]
                                                  + _BLOCK_ENTRIES, side="right")))
        hits = _window_hits(points, np.arange(first, last), candidate, lone, along, tau)
        if hits is None:
            check_i, check_k = np.nonzero(np.triu(candidate, 1))
            break
        found.append(hits)
        first = last
    else:
        flat = np.sort(np.concatenate(found))   # not np.unique, which imports numpy.ma
        check_i, check_k = np.divmod(flat[np.diff(flat, prepend=-1) > 0], n)
    return not _third_point_near(points, check_i, check_k, ctol)


def _window_hits(points: np.ndarray, anchors: np.ndarray, candidate: np.ndarray,
                 lone: np.ndarray, along: np.ndarray, tau: float) -> np.ndarray | None:
    """The filter of `_collinearity_ok` on the entries (a, k > a) of the
    consecutive anchors ``anchors``, in row order: flat indices i * n + k
    (i < k) of the non-exempt pairs among (a, x), (a, y) and (x, y) for every
    anchor a and points x, y > a whose directions from a lie, up to sign, in
    the window of the direction to x; None when two points lie within
    2 tau.  ``lone`` marks the points on at most one plan line, ``along``
    holds the points' projections onto g and h."""

    n = points.shape[0]
    size = n - 1 - anchors
    base = np.repeat(anchors, size)                # entry e is the pair (base[e], other[e])
    other = np.arange(base.size) + np.repeat(anchors + 1 - (np.cumsum(size) - size), size)

    def step(x):   # x[other] - x[base], by 1-D gathers
        return x[other] - np.repeat(x[anchors], size)

    rho = np.zeros(base.size)
    for x in points.T:
        rho += np.square(step(x))
    np.sqrt(rho, out=rho)
    if float(np.min(rho, initial=np.inf)) <= 2.0 * tau:
        return None
    width = 2.0 * tau / rho
    fold = step(along[0]) / rho
    flip = fold < 0.0
    key = step(along[1]) / rho
    np.negative(key, out=key, where=flip)
    offset = 4.0 * (base - anchors[0])                       # anchors stay apart
    seam = np.flatnonzero(np.abs(fold) < width)
    origin = np.concatenate([np.arange(base.size), seam])   # the entry of each key
    flip = np.concatenate([flip, ~flip[seam]])
    key = np.concatenate([key + offset, offset[seam] - key[seam]])
    width = np.concatenate([width, width[seam]])
    free = candidate.ravel()[base * n + other]               # non-exempt entries
    free = np.concatenate([free, free[seam]])
    order = np.argsort(key)
    sorted_key, sorted_width = key[order], width[order]
    active = np.zeros(order.size, dtype=bool)   # a sorted neighbour lies in the window
    active[1:] = sorted_key[:-1] >= sorted_key[1:] - sorted_width[1:]
    active[:-1] |= sorted_key[1:] <= sorted_key[:-1] + sorted_width[:-1]
    searching = order[active]
    searching = searching[free[searching] | ~lone[base[origin[searching]]]]
    narrow = np.flatnonzero(~free)
    narrow = narrow[lone[base[origin[narrow]]]]   # exempt entries of one-line anchors
    free_sorted = free[order]

    def window(src, targets, target_key):   # (src, dst) pairs, dst in src's window
        lo = np.searchsorted(target_key, key[src] - width[src])
        count = np.searchsorted(target_key, key[src] + width[src], side="right") - lo
        src = np.repeat(src, count)
        return src, targets[np.repeat(lo - np.cumsum(count) + count, count) + np.arange(src.size)]

    ends = np.concatenate([window(searching, order, sorted_key),
                           window(narrow, order[free_sorted], sorted_key[free_sorted])], axis=1)
    ends = ends[:, ends[0] != ends[1]]
    pair = origin[ends]
    unit = ((points[other[pair]] - points[base[pair]]) / rho[pair][..., None]
            * np.where(flip[ends], -1.0, 1.0)[..., None])
    near = np.linalg.norm(unit[0] - unit[1], axis=1) <= width[ends[0]]
    a, x, y = base[pair[0, near]], other[pair[0, near]], other[pair[1, near]]
    i = np.concatenate([a, a, np.minimum(x, y)])
    k = np.concatenate([x, y, np.maximum(x, y)])
    keep = candidate[i, k]
    return i[keep] * n + k[keep]


def build_sample_plan(g: GroupedReLU, ls: FeasibleLineSet, seed: int,
                      tol: ToleranceConfig = DEFAULT_TOL) -> SamplePlan:
    """Place two jittered samples per affine piece of every line, re-rolling
    the jitter until no accidental cross-line collinear triples remain."""

    hyperplanes = _distinct_hyperplanes(g)
    m = len(hyperplanes)
    if len(ls.lines) != m * g.d:
        raise InputError("line set does not match the network",
                         lines=len(ls.lines), expected=m * g.d)

    w = np.asarray(ls.crossing_params)                           # (lines, m)
    lo, span = w[:, :-1], np.diff(w, axis=1)
    # jitter half-widths of a line's samples: the unbounded first and last
    # pieces at offsets 2 and 1 beyond their crossing, each bounded piece at
    # 1/3 and 2/3 of its span
    half = np.array([0.25, 0.25] + [0.1] * (2 * m - 2) + [0.25, 0.25])
    u = np.stack([ln.u for ln in ls.lines])[:, None, :]
    v = np.stack([ln.v for ln in ls.lines])[:, None, :]
    rng = np.random.default_rng(seed)
    for _ in range(_RETRY_BUDGET):
        # one call, in row order: the stream of drawing sample by sample, line by line
        jitter = rng.uniform(-half, half, size=w.shape[:1] + half.shape)
        inner = jitter[:, 2:-2].reshape(len(w), m - 1, 2) * span[..., None]
        params = np.concatenate([
            w[:, :1] - 2.0 + jitter[:, :1], w[:, :1] - 1.0 + jitter[:, 1:2],
            np.stack([lo + span / 3.0 + inner[..., 0], lo + 2.0 * span / 3.0 + inner[..., 1]],
                     axis=2).reshape(len(w), -1),
            w[:, -1:] + 1.0 + jitter[:, -2:-1], w[:, -1:] + 2.0 + jitter[:, -1:]], axis=1)
        params.sort(axis=1)
        points = (u + params[..., None] * v).reshape(-1, g.d)
        if _collinearity_ok(points, ls.lines, tol):
            return SamplePlan(ls.lines, tuple(map(tuple, params.tolist())), points)
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
    taken in itertools order and a refit matching one already found within
    keep_tol, the scale at which the exact test accepts it, is skipped, so
    the result is the one of testing every tuple on its own.  It is sorted on
    a grid of step match_tol, so rounding cannot reorder it.
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
    same = dataclasses.replace(tol, match_tol=keep_tol)   # the exact test's own scale
    found: list[Hyperplane] = []
    fits = 0
    tuples = m ** d
    chunk = max(1, numerics._CHUNK_ENTRIES // (n_lines * max(m, d)))
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
                if any(refit.matches(h, same) for h in found):
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

import functools
import itertools
import tracemalloc
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import shallowid as si
from shallowid import (ConstructionError, InputError, Line, LabeledSamples, ParseError,
                       ToleranceConfig, build_feasible_lines, build_sample_plan,
                       canonical_hyperplane, extract_breakpoints, group, make_net,
                       net_core, numerics, reconstruct, recover_hyperplanes,
                       relu_sampling, sample_values)
from shallowid.numerics import affine_fits
from shallowid.relu_sampling import (plan_from_json_obj, plan_to_json_obj,
                                     samples_from_json_obj, samples_to_json_obj)

from conftest import examples
from helpers import (_point_line_distances, _spread_slack, oracle_build_feasible_lines,
                     oracle_build_sample_plan, oracle_collinear_candidates,
                     oracle_collinearity_ok, oracle_extract_breakpoints, oracle_first_failing_line,
                     oracle_first_failure, oracle_first_point_spread_ok, oracle_flagged_pairs,
                     oracle_laplace_minors, oracle_last_point_spread_ok,
                     oracle_line_crossings, oracle_orientation,
                     oracle_plane_fits,
                     oracle_recover_hyperplanes, oracle_refit_screen, oracle_seed_fit_recovery,
                     oracle_seed_survivors, oracle_spread_culprit, oracle_stacked_line_crossings,
                     oracle_two_sided_collinearity_ok, random_irreducible_relu)


def cross_net():
    return make_net("relu", [((1.0, 1.0), 0.0, 1.0), ((1.0, -1.0), 0.0, 1.0)], 0.0)


def exhaustive_collinear_triples_ok(points, lines, tol=1e-8):
    """Independent O(n^3) check of the plan collinearity condition."""

    n = points.shape[0]
    scale = 1.0 + float(np.max(np.abs(points)))
    for i, j, k in itertools.combinations(range(n), 3):
        p, q, r = points[i], points[j], points[k]
        dv = q - p
        dv = dv / np.linalg.norm(dv)
        perp = (r - p) - float((r - p) @ dv) * dv
        if float(np.linalg.norm(perp)) > tol * scale:
            continue  # not collinear
        on_plan_line = False
        for line in lines:
            v = line.v / np.linalg.norm(line.v)
            ok = True
            for x in (p, q, r):
                rel = x - line.u
                if float(np.linalg.norm(rel - float(rel @ v) * v)) > tol * scale:
                    ok = False
                    break
            if ok:
                on_plan_line = True
                break
        if not on_plan_line:
            return False
    return True


def test_combinations_are_itertools_rows():
    """``_colex`` columns are the itertools rows, sorted by their last
    element, then by the one before it, and so on."""

    for n in range(1, 13):
        for r in range(1, n + 1):
            rows = [list(c) for c in itertools.combinations(range(n), r)]
            assert relu_sampling._colex(n, r).T.tolist() == sorted(rows, key=lambda c: c[::-1])


def line_bits(ls):
    return [(ln.u.tobytes(), ln.v.tobytes()) for ln in ls.lines], ls.crossing_params


def line_set_outcome(build, g, seed):
    """A line set's exact bits, or the message and details of the error."""

    try:
        return line_bits(build(g, seed))
    except ConstructionError as err:
        return err.message, err.details


def builder_rounds(g, seed):
    """Per round of the line builder after check (i): the crossings, the
    first line whose subsets it tests (p), the lowest last line of a subset
    handed to the spread test (None: none), and the first failing line it
    names.  Also returns the line set, or the error's message and details."""

    rounds = []
    real_first, real_ok = relu_sampling._first_failure, relu_sampling._spread_ok

    def first_spy(crossings, bases, head, start):
        rounds.append([crossings.copy(), start, None, None])
        rounds[-1][3] = real_first(crossings, bases, head, start)
        return rounds[-1][3]

    def ok_spy(table, sub):
        lowest = int(np.min(sub[-1]))
        rounds[-1][2] = lowest if rounds[-1][2] is None else min(rounds[-1][2], lowest)
        return real_ok(table, sub)

    with mock.patch.multiple(relu_sampling, _first_failure=first_spy, _spread_ok=ok_spy):
        outcome = line_set_outcome(build_feasible_lines, g, seed)
    return rounds, outcome


def from_scratch_failures(g, seed):
    """Builds lines and asserts that every round names the first failing line
    of ``oracle_first_failing_line``, which checks every crossing pair and,
    from every anchor, every d-subset with LAPACK.  So the lines below p pass
    as the builder assumes, and an accepted set passes the whole check.
    Returns the crossings and the line named of every round."""

    hyperplanes = relu_sampling._distinct_hyperplanes(g)
    rounds, _ = builder_rounds(g, seed)
    for crossings, _, _, named in rounds:
        assert named == oracle_first_failing_line(crossings, hyperplanes)
    return [(crossings, named) for crossings, *_, named in rounds]


# every (d, m) with d 2-6, m 1-7 whose C(md, d) subsets the from-scratch
# oracle checks in well under a second
LINE_SHAPES = [(d, m) for d in range(2, 7) for m in range(1, 8) if comb(m * d, d) <= 20_000]


@pytest.mark.parametrize("d, m", LINE_SHAPES)
@settings(max_examples=examples(5), deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_feasible_lines_are_bit_identical_to_the_from_scratch_check(d, m, seed):
    """Where the build this one replaced (``oracle_build_feasible_lines``,
    which checks every subset from its first point) accepts with no redraw at
    check (ii) or (iii), the lines are bit-identical to its lines.  Where it
    redraws, the lines pass the from-scratch check."""

    g = group(random_irreducible_relu(np.random.default_rng(seed), m, d))
    redraws = []
    expected = line_set_outcome(functools.partial(oracle_build_feasible_lines,
                                                  redraws=redraws), g, seed)
    ls = build_feasible_lines(g, seed)
    if not redraws:
        assert line_bits(ls) == expected
    hyperplanes = relu_sampling._distinct_hyperplanes(g)
    assert oracle_first_failing_line(hyperplane_crossings(hyperplanes, ls), hyperplanes) is None


def hyperplane_crossings(hyperplanes, ls):
    """(lines, m, d) crossings of a line set, in hyperplane order."""

    A, B = np.stack([h.a for h in hyperplanes]), np.array([h.b for h in hyperplanes])
    return np.stack([ln.points_at(oracle_stacked_line_crossings(ln, A, B)) for ln in ls.lines])


@pytest.mark.parametrize("d, m, seed", [(5, 4, 1), (4, 6, 0), (6, 3, 0)])
def test_feasible_lines_recheck_only_the_subsets_of_a_redrawn_line(d, m, seed):
    """The first round tests from the first subset, whose last line is d - 1;
    after a redraw of line f the next round tests only the subsets whose last
    line is f or later."""

    g = group(random_irreducible_relu(np.random.default_rng(seed), m, d))
    with mock.patch.object(relu_sampling, "_MIN_SPREAD_DET", 3e-5):
        rounds, _ = builder_rounds(g, seed)
    assert rounds[0][1:3] == [0, d - 1]
    assert sum(named is not None for *_, named in rounds) >= 2
    for (_, _, _, named), (_, start, lowest, _) in zip(rounds, rounds[1:]):
        assert start == named
        assert lowest is None or lowest >= start


def test_feasible_lines_recheck_every_subset_after_a_redraw_at_check_i():
    """A redraw of line 0 at check (i) sets p to 0: the second round sees
    directions of rank d - 1, and the round after it tests every subset."""

    g = group(random_irreducible_relu(np.random.default_rng(0), 6, 4))
    ranks = []

    def rank_spy(*args):
        ranks.append(numerics.rank(*args))
        return ranks[-1] - (len(ranks) == 2)

    with mock.patch.multiple(relu_sampling, rank=rank_spy, _MIN_SPREAD_DET=3e-5):
        rounds, _ = builder_rounds(g, 0)
    assert ranks[:2] == [4, 4] and rounds[0][3] is not None
    assert rounds[1][1:3] == [0, 3]


STRICT_SPREAD_CASES = [(3, 3, 1, 1e-2), (3, 5, 2, 3e-3), (4, 3, 3, 3e-3), (5, 2, 4, 3e-3)]


def spread_ok(coords, sub):
    """``_spread_ok`` on one hyperplane's in-plane points ``coords``."""

    return relu_sampling._spread_ok(relu_sampling._unit_vectors(coords[None]), sub)[0]


def anchor_0_accepts(coords, sub):
    """The columns of ``sub`` that the replaced check, from each subset's
    first point, accepts on its own."""

    return [c for c in range(sub.shape[1])
            if oracle_spread_culprit(coords, sub[:, [c]], np.ones(len(coords), dtype=bool),
                                     np.empty(1)) is None]


@pytest.mark.parametrize("d, m, seed, spread", STRICT_SPREAD_CASES)
def test_feasible_lines_match_the_oracle_under_a_strict_spread_margin(d, m, seed, spread):
    """A spread margin that many subsets miss, so lines are redrawn: in no
    hyperplane does the spread test reject a subset that the replaced check
    accepts."""

    g = group(random_irreducible_relu(np.random.default_rng(seed), m, d))
    real, real_unit = relu_sampling._spread_ok, relu_sampling._unit_vectors
    planes, rejected = [], []

    def unit_spy(coords):
        planes.append(coords)
        return real_unit(coords)

    def spy(table, sub):
        ok = real(table, sub)
        rejected.append(np.flatnonzero(~ok).size)
        for coords, passed in zip(planes[-1], ok):
            assert not anchor_0_accepts(coords, sub[:, ~passed])
        return ok

    with mock.patch.multiple(relu_sampling, _MIN_SPREAD_DET=spread, _spread_ok=spy,
                             _unit_vectors=unit_spy):
        build_feasible_lines(g, seed)
    assert sum(n > 0 for n in rejected) >= 2


@pytest.mark.parametrize("d, m, seed", [(2, 4, 0), (3, 5, 2)])
def test_feasible_lines_match_the_oracle_under_a_strict_separation_margin(d, m, seed):
    """Check (ii) alone decides crossing separation, and the line it names
    is the from-scratch oracle's.  A margin of 0.1 redraws lines at (ii)."""

    g = group(random_irreducible_relu(np.random.default_rng(seed), m, d))
    with mock.patch.object(relu_sampling, "_MIN_POINT_SEP", 0.1):
        rounds = from_scratch_failures(g, seed)
    separations = 0
    for crossings, _ in rounds:
        flat = crossings.reshape(-1, d)
        i, j = np.triu_indices(len(flat), 1)
        separations += float(np.min(np.linalg.norm(flat[i] - flat[j], axis=1))) < 0.1
    assert separations >= 5 and rounds[-1][1] is None


@pytest.mark.parametrize("budget, spread, draw_cap, message", [
    (25, 2.0, 50_000, "feasibility conditions could not be met within the retry budget"),
    (1000, 0.3, 40, "line construction exhausted its retry budget; tolerances or the "
                    "network geometry are pathological")])
def test_feasible_lines_fail_as_the_oracle(budget, spread, draw_cap, message):
    """|det| of unit rows is at most 1, so a margin of 2 exhausts the round
    budget; a small draw cap stops the draws themselves."""

    g = group(random_irreducible_relu(np.random.default_rng(5), 3, 3))
    with mock.patch.multiple(relu_sampling, _RETRY_BUDGET=budget, _MIN_SPREAD_DET=spread,
                             _TOTAL_DRAW_CAP=draw_cap):
        outcome = line_set_outcome(build_feasible_lines, g, 5)
        assert outcome == line_set_outcome(oracle_build_feasible_lines, g, 5)
    assert outcome[0] == message


def test_feasible_lines_refuse_a_spread_check_above_the_cap_before_allocating():
    """d=8, m=8 would make 8 C(64, 8) subset tests per pass: a size error
    before any line is drawn.  d=5, m=12 and every round trip of the tests
    and of CI stay below the cap."""

    cap = relu_sampling._SPREAD_ENTRIES_CAP
    for d, m in [(5, 12), (2, 8), (4, 8), (5, 4), (5, 5), (5, 6), (5, 7), (5, 8), (6, 3),
                 (3, 5), (4, 6)]:
        assert m * comb(m * d, d) <= cap
    g = group(random_irreducible_relu(np.random.default_rng(8), 8, 8))
    tracemalloc.start()
    try:
        with pytest.raises(si.SizeError) as err:
            build_feasible_lines(g, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err.value.details == {"subsets": comb(64, 8), "cap": cap}
    assert peak < 1 << 20


@pytest.mark.parametrize("d, m", LINE_SHAPES)
def test_spread_check_names_the_lapack_oracles_culprit(d, m):
    for seed in range(3):
        g = group(random_irreducible_relu(np.random.default_rng(seed), m, d))
        assert from_scratch_failures(g, seed)[-1][1] is None


@pytest.mark.parametrize("d, m, seed, spread", STRICT_SPREAD_CASES)
def test_spread_check_names_the_lapack_oracles_culprit_under_a_strict_margin(d, m, seed, spread):
    g = group(random_irreducible_relu(np.random.default_rng(seed), m, d))
    with mock.patch.object(relu_sampling, "_MIN_SPREAD_DET", spread):
        rounds = from_scratch_failures(g, seed)
    assert sum(named is not None for _, named in rounds) >= 2


@pytest.mark.parametrize("block", [1, 40, 1000])
@pytest.mark.parametrize("d, m, seed", [(3, 5, 2), (5, 2, 4)])
def test_spread_check_in_blocks_names_the_lapack_oracles_culprit(monkeypatch, block, d, m, seed):
    """Blocks of one subset (in every hyperplane), of a few that leave a
    partial last block, and of a few hundred, under a margin that redraws
    lines; the lines are those of one block."""

    g = group(random_irreducible_relu(np.random.default_rng(seed), m, d))
    monkeypatch.setattr(relu_sampling, "_MIN_SPREAD_DET", 3e-3)
    monkeypatch.setattr(relu_sampling, "_SPREAD_BLOCK", 10 ** 9)
    whole = line_set_outcome(build_feasible_lines, g, seed)
    monkeypatch.setattr(relu_sampling, "_SPREAD_BLOCK", block)
    assert sum(named is not None for _, named in from_scratch_failures(g, seed)) >= 2
    assert line_set_outcome(build_feasible_lines, g, seed) == whole


def stacked_dets(matrices):
    """The full ``_laplace_minors`` of a (C, k, k) stack."""

    k = matrices.shape[1]
    return relu_sampling._laplace_minors(matrices.transpose(1, 2, 0))[(1 << k) - 1]


def unit_rows(rows):
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


@settings(max_examples=examples(150), deadline=None)
@given(k=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       delta=st.sampled_from([0.0] + [10.0 ** -e for e in range(3, 16)]))
def test_laplace_dets_are_within_the_slack_of_lapack(k, seed, delta):
    """Random unit rows, and rows whose last one is a combination of the
    others plus delta (delta 0: random rows only)."""

    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(64, k, k))
    if delta:
        rows[:, -1] = (np.einsum("ci,cij->cj", rng.normal(size=(64, k - 1)), rows[:, :-1])
                       + delta * rng.normal(size=(64, k)))
    matrices = unit_rows(rows)
    diff = np.abs(stacked_dets(matrices)) - np.abs(np.linalg.det(matrices))
    assert np.all(np.abs(diff) <= _spread_slack(k))


@settings(max_examples=examples(60), deadline=None)
@given(k=st.integers(1, 6), r=st.integers(0, 6), count=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
def test_laplace_minors_are_the_per_mask_expansion(k, r, count, seed):
    """Each level's minors, formed for all masks at once, are bit for bit
    those of one mask at a time (``oracle_laplace_minors``); no rows give
    the empty minor, 1."""

    rows = np.random.default_rng(seed).normal(size=(min(r, k), k, count))
    minors = relu_sampling._laplace_minors(rows)
    if not len(rows):
        assert minors.keys() == {0} and minors[0].tolist() == [1.0] * count
        return
    expected = oracle_laplace_minors(rows)
    assert minors.keys() == expected.keys()
    assert all(minors[mask].tobytes() == expected[mask].tobytes() for mask in expected)


@settings(max_examples=examples(40), deadline=None)
@given(k=st.integers(1, 5), m=st.integers(1, 3), extra=st.integers(0, 3),
       shuffle=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_last_point_spreads_are_the_full_expansion_from_the_last_point(k, m, extra, shuffle,
                                                                       seed):
    """The first pass's value of each entry, with minors shared along runs
    of columns, is bit for bit the full Laplace expansion of the unit
    vectors from the subset's last point to rows k - 1, ..., 0: the value
    ``_spread_ok`` decides on from that anchor."""

    rng = np.random.default_rng(seed)
    n = k + 1 + extra
    table = relu_sampling._unit_vectors(rng.uniform(-1.0, 1.0, size=(m, n, k)))
    sub = relu_sampling._colex(n, k + 1)
    if shuffle:
        sub = np.ascontiguousarray(sub[:, rng.permutation(sub.shape[1])])
    rows = table[:, :, sub[k], sub[::-1][1:]]   # (k components, m, k rows, C)
    full = oracle_laplace_minors(rows.transpose(2, 0, 1, 3).reshape(k, k, -1))[(1 << k) - 1]
    assert relu_sampling._last_point_spreads(table, sub).tobytes() == np.abs(full).tobytes()


def lapack_spreads(coords, sub):
    """LAPACK's |det| of each subset (the columns of ``sub``) from its best
    anchor, on the unit vectors ``_spread_ok`` forms."""

    n, k = coords.shape
    diff = coords[None, :, :] - coords[:, None, :]
    dist = np.linalg.norm(diff, axis=2)
    np.fill_diagonal(dist, np.inf)
    unit = diff / dist[:, :, None]
    return np.max([np.abs(np.linalg.det(unit[sub[a][:, None], np.delete(sub, a, axis=0).T]))
                   for a in range(k + 1)], axis=0)


def fast_spreads(coords, sub):
    """The Laplace |det| of each subset (the columns of ``sub``) from its
    best anchor, on the unit vectors ``_spread_ok`` forms and in its row
    orders: from the last point to rows k - 1, ..., 0, and from any other
    anchor to the others in row order (``oracle_laplace_minors``)."""

    k = coords.shape[1]
    unit = relu_sampling._unit_vectors(coords[None])[:, 0]   # (k, n, n)
    best = np.zeros(sub.shape[1])
    for a in range(k + 1):
        others = np.delete(sub, a, axis=0)
        if a == k:
            others = others[::-1]
        rows = unit[:, sub[a][None, :], others].swapaxes(0, 1)   # (k rows, k, C)
        best = np.maximum(best, np.abs(oracle_laplace_minors(rows)[(1 << k) - 1]))
    return best


def assert_far_entries_decided_as_lapack(ok, table, sub, fast, exact, margin):
    """The entries whose best fast |det| lies farther than the slack from
    ``margin`` are decided as LAPACK decides them: by their best LAPACK
    |det| ``exact``, and as the replaced check from the last point with
    LAPACK at near ties (``oracle_last_point_spread_ok``) decides them."""

    far = np.abs(fast - margin) > _spread_slack(table.shape[0])
    parent = oracle_last_point_spread_ok(table, sub).ravel()
    assert ok.ravel()[far].tolist() == parent[far].tolist() == (exact[far] >= margin).tolist()


@pytest.mark.parametrize("d, m, seed", [(2, 3, 0), (3, 3, 1), (4, 3, 0), (5, 2, 4), (6, 2, 0)])
def test_spread_check_at_a_margin_on_the_worst_lapack_determinant(d, m, seed):
    """On an accepted line set's crossings in all its hyperplanes at once, a
    margin of exactly the worst (hyperplane, subset) entry's best fast |det|
    passes every entry, one ulp more fails the entries of that |det| alone
    (at d=2, every pair of every hyperplane: |det| is 1), one ulp less
    passes.  That value lies within the slack of the worst best LAPACK
    |det|, and every entry farther than the slack from the margin gets
    LAPACK's decision."""

    g, ls = seeded_line_set(d, m, seed)
    hyperplanes = relu_sampling._distinct_hyperplanes(g)
    crossings = hyperplane_crossings(hyperplanes, ls)
    coords = np.stack([crossings[:, k, :] @ np.linalg.svd(h.a[None, :])[2][1:].T
                       for k, h in enumerate(hyperplanes)])
    sub = relu_sampling._colex(len(crossings), d)
    exact = np.stack([lapack_spreads(c, sub) for c in coords]).ravel()
    fast = np.stack([fast_spreads(c, sub) for c in coords]).ravel()
    worst = float(np.min(fast))
    assert abs(worst - np.min(exact)) <= _spread_slack(d - 1)
    table = relu_sampling._unit_vectors(coords)
    outcomes = []
    for margin in (np.nextafter(worst, 0.0), worst, np.nextafter(worst, np.inf)):
        with mock.patch.object(relu_sampling, "_MIN_SPREAD_DET", float(margin)):
            ok = relu_sampling._spread_ok(table, sub)
            assert_far_entries_decided_as_lapack(ok, table, sub, fast, exact, margin)
        outcomes.append(np.flatnonzero(~ok).tolist())
    assert outcomes == [[], [], np.flatnonzero(fast == worst).tolist()]


def mirrored_triples(order=(0, 1, 2, 3, 4, 5), shrink=1.0):
    """Six in-plane points, listed in ``order``: a near-collinear triple and
    its mirror image across x = 0, whose third point is ``shrink`` times as
    far off the line.  Returns the coords, the columns of the two triples
    and the best LAPACK |det| of each."""

    def triple(eps):
        return np.array([[1.0, 0.0], [2.0, 1.0], [3.0, 2.0 + eps]])

    coords = np.concatenate([triple(1e-7), triple(1e-7 * shrink) * [-1.0, 1.0]])[list(order)]
    at = np.argsort(order)
    sub = np.stack([np.sort(at[:3]), np.sort(at[3:])], axis=1)
    return coords, sub, lapack_spreads(coords, sub)


@pytest.mark.parametrize("order", [(0, 1, 2, 3, 4, 5), (0, 3, 1, 4, 2, 5)])
def test_spread_check_names_the_first_of_two_equal_determinants(order):
    """The triple and its mirror image have equal |det| below the margin
    from every anchor, and they are the only failing subsets of the six
    points: the line named is the last line of the triple that comes first
    in colex order."""

    coords, sub, exact = mirrored_triples(order)
    assert exact[0] == exact[1] < relu_sampling._MIN_SPREAD_DET
    every = relu_sampling._colex(6, 3)
    assert np.sum(~spread_ok(coords, every)) == 2
    crossings = np.concatenate([coords, np.zeros((6, 1))], axis=1)[:, None, :]
    named = relu_sampling._first_failure(crossings, [np.eye(3)[:2]], relu_sampling._colex(5, 2), 0)
    assert named == min(sub[-1])


def test_spread_check_decides_by_the_fast_values_where_they_swap_a_near_tie(monkeypatch):
    """The mirror image's |det| is smaller by about 4e-16, and the margin
    lies between the two.  Fast values moved by 0.7 slack, the first
    triple's down and its mirror image's up, stay within the slack of
    LAPACK's and rank the first triple lower: the check fails the first
    triple and passes its mirror image, the other way round from LAPACK
    (``oracle_last_point_spread_ok``).  The values are moved where they are
    formed: by the first pass, from each subset's last point, and as the
    full minors of the other anchors.  Only from its middle point does
    either triple come near the margin, so both try every anchor."""

    coords, sub, exact = mirrored_triples(shrink=1 - 2e-8)
    slack = _spread_slack(2)
    assert exact[1] < exact[0] < exact[1] + slack / 4
    margin = float(np.mean(exact))
    monkeypatch.setattr(relu_sampling, "_MIN_SPREAD_DET", margin)
    real_first, real_minors = relu_sampling._last_point_spreads, relu_sampling._laplace_minors
    fast = []

    def shifted(values):
        fast.append(np.abs(values) + [-0.7 * slack, 0.7 * slack])
        return fast[-1]

    def first_pass(table, sub):
        return shifted(real_first(table, sub))

    def minors(rows):
        found = real_minors(rows)
        if len(rows) == 2:   # a full 2 x 2 minor, not the first pass's one row
            found[3] = shifted(found[3])
        return found

    monkeypatch.setattr(relu_sampling, "_last_point_spreads", first_pass)
    monkeypatch.setattr(relu_sampling, "_laplace_minors", minors)
    assert spread_ok(coords, sub).tolist() == [False, True]
    assert len(fast) == 3   # the last point, then anchors 0 and 1
    best = np.max(fast, axis=0)
    assert best[0] < margin <= best[1] and np.max(np.abs(best - exact)) <= slack
    # both entries lie within the slack of the margin, where LAPACK decides
    assert np.all(np.abs(best - margin) <= slack)
    table = relu_sampling._unit_vectors(coords[None])
    assert oracle_last_point_spread_ok(table, sub)[0].tolist() == [True, False]


@settings(max_examples=examples(40), deadline=None)
@given(d=st.integers(3, 6), n=st.integers(0, 4), far=st.floats(20.0, 1000.0),
       seed=st.integers(0, 2**32 - 1))
def test_spread_check_accepts_what_the_first_point_check_accepts(d, n, far, seed):
    """In-plane points around the origin, the first of them planted ``far``
    away: every subset that the replaced check from the subset's first
    point accepts is accepted.  At d >= 5 and a distance R of 600 or more,
    that check rejects every subset holding the far point: its unit vectors
    to the others differ by at most 4 / R (the cube's diagonal over R), so
    their |det| is at most (4 / R)^(d-2) < 1e-6.  Another anchor accepts
    some of those subsets."""

    rng = np.random.default_rng(seed)
    coords = rng.uniform(-1.0, 1.0, size=(d + n, d - 1))
    coords[0] = far * unit_rows(rng.normal(size=d - 1))
    sub = relu_sampling._colex(d + n, d)
    ok = spread_ok(coords, sub)
    accepted = anchor_0_accepts(coords, sub)
    assert np.all(ok[accepted])
    if d >= 5 and far >= 600.0:
        assert not np.any(sub[0, accepted] == 0) and np.any(ok[sub[0] == 0])


@settings(max_examples=examples(60), deadline=None)
@given(k=st.integers(1, 5), m=st.integers(1, 3), extra=st.integers(0, 3),
       far=st.floats(20.0, 1000.0), order=st.sampled_from(["colex", "columns", "rows"]),
       seed=st.integers(0, 2**32 - 1))
@example(k=1, m=2, extra=3, far=20.0, order="colex", seed=0)
@example(k=4, m=2, extra=3, far=900.0, order="colex", seed=1)
@example(k=5, m=1, extra=2, far=50.0, order="columns", seed=2)
def test_spread_check_decides_every_entry_as_the_first_point_pass(k, m, extra, far, order, seed):
    """In-plane points of m hyperplanes, the first of each planted ``far``
    away: the pass from each subset's last point, with minors shared along
    runs of columns, decides every (hyperplane, subset) entry by its best
    fast |det|.  Wherever that value lies farther than the slack from the
    margin, the decision is also that of the pass from each subset's first
    point (``oracle_first_point_spread_ok``), of the replaced pass from the
    last point and of LAPACK.  Under the default margin, and at margins set
    at entries' best fast |det| and one ulp either side; with
    the subsets in colex order, in shuffled column order, and with each
    column's points shuffled too."""

    rng = np.random.default_rng(seed)
    d, n = k + 1, k + 1 + extra
    coords = rng.uniform(-1.0, 1.0, size=(m, n, k))
    coords[:, 0] = far * unit_rows(rng.normal(size=(m, k)))
    sub = relu_sampling._colex(n, d)
    if order != "colex":
        sub = sub[:, rng.permutation(sub.shape[1])]
    if order == "rows":
        sub = rng.permuted(sub, axis=0)
    sub = np.ascontiguousarray(sub)
    table = relu_sampling._unit_vectors(coords)
    exact = np.concatenate([lapack_spreads(c, sub) for c in coords])
    fast = np.concatenate([fast_spreads(c, sub) for c in coords])
    margins = [relu_sampling._MIN_SPREAD_DET]
    for value in rng.choice(fast, 2):
        margins += [np.nextafter(value, 0.0), value, np.nextafter(value, np.inf)]
    for margin in margins:
        with mock.patch.object(relu_sampling, "_MIN_SPREAD_DET", float(margin)):
            ok = relu_sampling._spread_ok(table, sub)
            far = np.abs(fast - margin) > _spread_slack(k)
            first = oracle_first_point_spread_ok(table, sub).ravel()
            assert ok.ravel()[far].tolist() == first[far].tolist()
            assert_far_entries_decided_as_lapack(ok, table, sub, fast, exact, margin)
            assert ok.ravel().tolist() == (fast >= margin).tolist()


def round_inputs(rng, m, d):
    """Random inputs of one round of the line check: (md, m, d) crossings,
    each on its own hyperplane, the hyperplanes' orthonormal in-plane bases
    and the colex table of the first md - 1 lines."""

    normals = unit_rows(rng.normal(size=(m, d)))
    crossings = rng.uniform(-2.0, 2.0, size=(m * d, m, d))
    crossings -= ((np.einsum("lkd,kd->lk", crossings, normals) + rng.uniform(-1.0, 1.0, m))
                  [..., None] * normals)
    bases = [np.linalg.svd(a[None, :])[2][1:] for a in normals]
    return crossings, bases, relu_sampling._colex(m * d - 1, d - 1)


def plant_flat(rng, crossings, bases, k, last):
    """Moves the crossings in hyperplane k of d lines, the last of them
    ``last``, onto one random (d - 2)-flat of that hyperplane: that subset
    fails (iii) in hyperplane k, and its d - 1-subsets stay spread."""

    d = crossings.shape[2]
    lines = np.append(rng.choice(last, d - 1, replace=False), last)
    directions = rng.normal(size=(d - 2, d - 1)) @ bases[k]
    crossings[lines, k] = crossings[lines[0], k] + rng.normal(size=(d, d - 2)) @ directions


def plant_pair(rng, crossings, gap, i, j):
    """Moves a crossing (j, h') to ``gap`` from a crossing (i, h), i < j, in
    one coordinate c, with coordinate c of (i, h) set to 0 so that the
    difference is exact; returns j."""

    _, m, d = crossings.shape
    h, c = rng.integers(m), rng.integers(d)
    crossings[i, h, c] = 0.0
    crossings[j, rng.integers(m)] = crossings[i, h] + gap * np.eye(d)[c]
    return int(j)


ROUND_PLANTS = ["at_sep", "below_sep", "tie", "reversed", "last_hyperplane", "later_in_0"]


@settings(max_examples=examples(150), deadline=None)
@given(shape=st.sampled_from([(2, 1), (2, 4), (3, 2), (3, 4), (4, 2), (4, 3), (5, 2)]),
       seed=st.integers(0, 2**32 - 1), start=st.integers(0, 19),
       block=st.sampled_from([1, 5, relu_sampling._SPREAD_BLOCK]),
       spread=st.sampled_from([relu_sampling._MIN_SPREAD_DET, 1e-2]),
       plants=st.sets(st.sampled_from(ROUND_PLANTS)))
@example(shape=(3, 2), seed=0, start=0, block=1, spread=1e-6, plants={"at_sep"})
@example(shape=(3, 2), seed=0, start=0, block=1, spread=1e-6, plants={"below_sep"})
@example(shape=(4, 3), seed=1, start=0, block=8192, spread=1e-6, plants={"tie"})
@example(shape=(4, 3), seed=2, start=0, block=8192, spread=1e-6, plants={"reversed"})
@example(shape=(3, 4), seed=3, start=0, block=8192, spread=1e-6, plants={"last_hyperplane"})
@example(shape=(4, 3), seed=4, start=0, block=8192, spread=1e-6, plants={"later_in_0"})
@example(shape=(5, 2), seed=5, start=3, block=1, spread=1e-6, plants={"later_in_0"})
def test_round_check_names_the_line_of_the_per_hyperplane_check(shape, seed, start, block,
                                                                spread, plants):
    """One round of the line check names the line that the check it replaced
    (``oracle_first_failure``: an all-pairs table for (ii), one spread pass
    per hyperplane for (iii)) names, on random crossings and on planted
    cases: a pair at exactly ``_MIN_POINT_SEP`` (not close) and one ulp
    below it (close), pairs that tie in coordinate 0 but lie far apart,
    close pairs whose coordinate-0 order is the reverse of their index
    order, a spread failure in the last hyperplane alone, and one in
    hyperplane 0 at a later line than one in hyperplane m - 1; in blocks of
    one subset, of a few, and of the default size, under the default and a
    strict spread margin.  A plant alone bites: the line named is at most
    the planted line."""

    d, m = shape
    rng = np.random.default_rng(seed)
    crossings, bases, head = round_inputs(rng, m, d)
    n_lines = m * d
    start %= n_lines
    sep = relu_sampling._MIN_POINT_SEP
    bound = n_lines
    if "tie" in plants:
        flat = crossings.reshape(-1, d)
        a, b = rng.choice(len(flat), (2, len(flat) // 2))
        flat[b, 0] = flat[a, 0]
    # two pairs of lines, disjoint when there are four lines: a plant that
    # zeroed coordinate c of the other's moved crossing could make it equal
    # to that plant's fixed one
    pairs = np.sort(rng.permutation(n_lines)[:4].reshape(-1, 2), axis=1)
    if "at_sep" in plants:
        plant_pair(rng, crossings, sep, *pairs[0])
    if "below_sep" in plants:
        bound = min(bound, plant_pair(rng, crossings, np.nextafter(sep, 0.0), *pairs[-1]))
    if "reversed" in plants:
        for i, j in np.sort(rng.choice(n_lines, (min(3, n_lines // 2), 2), replace=False)):
            step = unit_rows(rng.normal(size=d)) * sep / 2.0
            step[0] = -abs(step[0])
            crossings[j, rng.integers(m)] = crossings[i, rng.integers(m)] + step
            bound = min(bound, int(j))
    if d >= 3:
        lasts = np.sort(rng.choice(np.arange(d - 1, n_lines), 2, replace=False))
        if "last_hyperplane" in plants:
            plant_flat(rng, crossings, bases, m - 1, lasts[0])
            bound = min(bound, max(int(lasts[0]), n_lines * (lasts[0] < start)))
        if "later_in_0" in plants and m >= 2:
            plant_flat(rng, crossings, bases, m - 1, lasts[0])
            plant_flat(rng, crossings, bases, 0, lasts[1])
            bound = min(bound, max(int(lasts[0]), n_lines * (lasts[0] < start)))
    with mock.patch.multiple(relu_sampling, _SPREAD_BLOCK=block, _MIN_SPREAD_DET=spread):
        named = relu_sampling._first_failure(crossings, bases, head, start)
        assert named == oracle_first_failure(crossings, bases, head, start)
    if len(plants) == 1:   # several plants may move each other's crossings
        assert (n_lines if named is None else named) <= bound


@settings(max_examples=examples(40), deadline=None)
@given(shape=st.sampled_from([(2, 2), (2, 5), (3, 3), (3, 4), (4, 2), (4, 3), (5, 2)]),
       seed=st.integers(0, 2**32 - 1), spread=st.sampled_from([1e-6, 3e-3, 2e-2]),
       sep=st.sampled_from([1e-3, 0.05]))
def test_feasible_lines_are_bit_identical_to_the_per_hyperplane_check(shape, seed, spread, sep):
    """With the round check it replaced (``oracle_first_failure``), and
    candidates tested one at a time by the crossings that check used
    (``oracle_line_crossings``), the builder makes the same lines bit for
    bit, or raises the same error after the same draws, under margins that
    redraw lines at (ii) and (iii) and a retry budget of 40 rounds that
    strict margins exhaust."""

    d, m = shape
    g = group(random_irreducible_relu(np.random.default_rng(seed), m, d))
    tested = []

    def one_at_a_time(cands, A, B):
        hyperplanes = [net_core.Hyperplane(a, b) for a, b in zip(A, B)]
        found = [oracle_line_crossings(Line(u, v), hyperplanes) for u, v in cands]
        tested.append(len(found))
        return (np.array([w is not None for w in found]),
                np.array([np.zeros(m) if w is None else w for w in found]))

    with mock.patch.multiple(relu_sampling, _RETRY_BUDGET=40, _MIN_SPREAD_DET=spread,
                             _MIN_POINT_SEP=sep):
        outcome = line_set_outcome(build_feasible_lines, g, seed)
        with mock.patch.multiple(relu_sampling, _first_failure=oracle_first_failure,
                                 _candidate_crossings=one_at_a_time):
            assert line_set_outcome(build_feasible_lines, g, seed) == outcome
    assert sum(tested) >= m * d


@settings(max_examples=examples(60), deadline=None)
@given(d=st.integers(2, 6), m=st.integers(1, 8), count=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
def test_candidate_crossings_are_the_per_candidate_bits(d, m, count, seed):
    """Each candidate of a batch passes exactly when a test of it alone
    (``oracle_stacked_line_crossings``) passes, with the same crossing
    parameters bit for bit."""

    rng = np.random.default_rng(seed)
    A, B = unit_rows(rng.normal(size=(m, d))), rng.uniform(-1.0, 1.0, m)
    cands = rng.uniform(-1.0, 1.0, size=(count, 2, d))
    for cand, passed, w in zip(cands, *relu_sampling._candidate_crossings(cands, A, B)):
        alone = oracle_stacked_line_crossings(Line(*cand), A, B)
        assert passed == (alone is not None)
        if passed:
            assert w.tobytes() == alone.tobytes()


def test_candidate_crossings_reject_at_every_margin():
    """The batches of the test above meet every rejection: a short
    direction, a nearly parallel hyperplane and two close crossings."""

    rng = np.random.default_rng(0)
    A, B = unit_rows(rng.normal(size=(8, 2))), rng.uniform(-1.0, 1.0, 8)
    cands = rng.uniform(-1.0, 1.0, size=(400, 2, 2))
    ok, _ = relu_sampling._candidate_crossings(cands, A, B)
    vnorm = np.linalg.norm(cands[:, 1], axis=1)
    short = vnorm < relu_sampling._MIN_DIRECTION_NORM
    parallel = ~short & np.any(np.abs(cands[:, 1] @ A.T)
                               < relu_sampling._MIN_TRANSVERSALITY * vnorm[:, None], axis=1)
    close = ~ok & ~short & ~parallel
    assert ok.any() and short.any() and parallel.any() and close.any()
    assert not np.any(ok & (short | parallel))


@settings(max_examples=examples(60), deadline=None)
@given(shape=st.sampled_from([(2, 3), (2, 6), (3, 2), (3, 4), (4, 3)]),
       seed=st.integers(0, 2**32 - 1), budget=st.integers(1, 4), extra=st.integers(-2, 12))
@example(shape=(2, 6), seed=0, budget=2, extra=12)
@example(shape=(2, 6), seed=0, budget=4, extra=2)
def test_feasible_lines_raise_as_the_oracle_under_small_budgets(shape, seed, budget, extra):
    """With a retry budget of a few candidates per line (and as many
    rounds) and a draw cap near md, the builder makes the lines of the
    per-candidate build it replaced (``oracle_build_feasible_lines``), or
    raises the same error after the same draws, wherever that build redraws
    no line at check (ii) or (iii)."""

    d, m = shape
    g = group(random_irreducible_relu(np.random.default_rng(seed), m, d))
    redraws = []
    with mock.patch.multiple(relu_sampling, _RETRY_BUDGET=budget,
                             _TOTAL_DRAW_CAP=m * d + extra):
        expected = line_set_outcome(functools.partial(oracle_build_feasible_lines,
                                                      redraws=redraws), g, seed)
        outcome = line_set_outcome(build_feasible_lines, g, seed)
    if not redraws:
        assert outcome == expected


@pytest.mark.parametrize("budget, extra, draws",
                         [(1, 12, 3), (2, 12, 6), (1000, 2, 15), (1000, -1, 12)])
def test_feasible_lines_raise_after_the_draw_that_exhausts_a_budget(budget, extra, draws):
    """d=2, m=6, seed 0: the candidates of the first batch of 12 are
    accepted, accepted, rejected (draw 3), accepted, then rejected eight
    times, so a budget of one reject per line raises at draw 3 and one of
    two at draw 6.  The twelfth line is accepted at draw 23, so a cap of md +
    2 raises at draw md + 3, and one of md - 1 at draw md."""

    g = group(random_irreducible_relu(np.random.default_rng(0), 6, 2))
    with mock.patch.multiple(relu_sampling, _RETRY_BUDGET=budget, _TOTAL_DRAW_CAP=12 + extra):
        with pytest.raises(ConstructionError, match="exhausted its retry budget") as err:
            build_feasible_lines(g, 0)
    assert err.value.details == {"draws": draws}


@settings(max_examples=examples(20), deadline=None)
@given(shape=st.sampled_from([(2, 1), (2, 5), (3, 3), (4, 2), (5, 2), (6, 2)]),
       seed=st.integers(0, 2**32 - 1))
def test_feasible_lines_use_the_per_hyperplane_in_plane_bases(shape, seed):
    """The builder's in-plane bases, from one stacked SVD, are bit for bit
    the SVD of each hyperplane's normal alone."""

    d, m = shape
    g = group(random_irreducible_relu(np.random.default_rng(seed), m, d))
    real, seen = relu_sampling._first_failure, []

    def spy(crossings, bases, head, start):
        seen.append(bases)
        return real(crossings, bases, head, start)

    with mock.patch.object(relu_sampling, "_first_failure", spy):
        build_feasible_lines(g, seed)
    for basis, h in zip(seen[0], relu_sampling._distinct_hyperplanes(g), strict=True):
        assert basis.tobytes() == np.linalg.svd(h.a[None, :])[2][1:].tobytes()


@settings(max_examples=examples(60), deadline=None)
@given(d=st.integers(1, 9), lines=st.integers(1, 12), n=st.integers(1, 40),
       scale=st.floats(1e-3, 1e4), seed=st.integers(0, 2**32 - 1))
def test_line_distances_are_the_per_line_distances(d, lines, n, scale, seed):
    """The batched point-to-line distances of the plan's membership table
    are bit for bit those of one line at a time."""

    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, d)) * scale
    plan_lines = tuple(Line(rng.uniform(-1.0, 1.0, d) * scale, rng.uniform(-1.0, 1.0, d))
                       for _ in range(lines))
    expected = np.stack([_point_line_distances(points, ln) for ln in plan_lines], axis=1)
    assert relu_sampling._line_distances(points, plan_lines).tobytes() == expected.tobytes()


def test_feasible_lines_cardinality_and_crossings():
    g = group(cross_net())
    ls = build_feasible_lines(g, seed=0)
    assert len(ls.lines) == 2 * 2
    assert all(len(w) == 2 for w in ls.crossing_params)
    assert all(sorted(w) == list(w) for w in ls.crossing_params)


def test_feasible_line_directions_have_full_rank():
    rng = np.random.default_rng(1)
    net = random_irreducible_relu(rng, 3, 3)
    ls = build_feasible_lines(group(net), seed=5)
    assert si.rank(np.stack([ln.v for ln in ls.lines])) == 3


def test_feasible_lines_reject_paired_networks():
    a = np.array([1.0, 0.0])
    paired = make_net("relu", [(a, 0.0, 1.0), (-a, 0.0, 2.0)], 0.0)
    with pytest.raises(InputError):
        build_feasible_lines(group(paired), seed=0)


def test_plan_point_counts():
    g = group(cross_net())
    ls = build_feasible_lines(g, seed=0)
    plan = build_sample_plan(g, ls, seed=0)
    assert plan.points.shape == (24, 2)  # (2*2+2)*2*2
    assert all(len(p) == 6 for p in plan.params)


def test_plan_two_params_per_interval():
    g = group(cross_net())
    ls = build_feasible_lines(g, seed=3)
    plan = build_sample_plan(g, ls, seed=3)
    for ts, w in zip(plan.params, ls.crossing_params):
        edges = [-np.inf] + list(w) + [np.inf]
        for k in range(len(edges) - 1):
            inside = [t for t in ts if edges[k] < t < edges[k + 1]]
            assert len(inside) == 2


def test_plan_collinear_triples_all_on_plan_lines():
    g = group(cross_net())
    ls = build_feasible_lines(g, seed=0)
    plan = build_sample_plan(g, ls, seed=0)
    assert exhaustive_collinear_triples_ok(plan.points, plan.lines)


# (d, m, seed); at d=2 with m=8 and m=9 most jitter draws are rejected, and
# the d=2 seeds are ones whose first draws include rejected and accepted ones
COLLINEARITY_CORPUS = [(2, 3, 0), (2, 6, 4), (2, 8, 3), (2, 9, 4), (3, 4, 4),
                       (3, 6, 5), (4, 4, 6), (4, 5, 7), (5, 3, 8), (5, 4, 9)]
CORPUS_DRAWS = 6

# A match tolerance far above the rounding error of the Gram identity, so
# that a point planted at 0.5 or 2 match tolerances is not decided by the
# last bits of a matrix product, whose blocking differs between the oracle's
# batches of all pairs and the re-check's batch of candidates.
WIDE_TOL = ToleranceConfig(match_tol=1e-6)


class EnoughDraws(Exception):
    pass


def seeded_line_set(d, m, seed):
    g = group(random_irreducible_relu(np.random.default_rng(seed), m, d))
    return g, build_feasible_lines(g, seed=seed)


@functools.lru_cache(maxsize=None)
def small_plan(d):
    g, ls = seeded_line_set(d, 3 if d == 2 else 2, d)
    return build_sample_plan(g, ls, seed=d)


def non_exempt_pair_count(points, lines, tol):
    ctol = tol.match_tol * (1.0 + float(np.max(np.abs(points))))
    member = np.stack([_point_line_distances(points, ln) <= ctol for ln in lines],
                      axis=1).astype(int)
    return int(np.sum(np.triu(member @ member.T == 0, 1)))


def proposals(points, lines, tol, check=relu_sampling._collinearity_ok):
    """The decision of `_collinearity_ok` and the pairs its filter sends to
    the exact re-check."""

    with mock.patch.object(relu_sampling, "_third_point_near",
                           wraps=relu_sampling._third_point_near) as spy:
        ok = check(points, lines, tol)
    check_i, check_k = spy.call_args.args[1:3]
    return ok, set(zip(check_i.tolist(), check_k.tolist()))


def flagged_missed_pairs(points, lines, tol, proposed):
    """The pairs that the unblocked filter proposes, the blocked one does
    not, and the exact re-check flags."""

    old_i, old_k, ctol = oracle_collinear_candidates(points, lines, tol)
    missed = [(i, k) for i, k in zip(old_i.tolist(), old_k.tolist()) if (i, k) not in proposed]
    return [(i, k) for i, k in missed
            if relu_sampling._third_point_near(points, np.array([i]), np.array([k]), ctol)]


@pytest.mark.parametrize("d, m, seed", COLLINEARITY_CORPUS)
def test_collinearity_check_decides_as_the_oracle_on_seeded_draws(monkeypatch, d, m, seed):
    """The check, the O(n^3) oracle and the two-sided filter judge each
    jitter draw of a plan build, up to the first CORPUS_DRAWS draws, at the
    default and the wide tolerance; the build goes on with the new check's
    verdict at the default one.  Every pair that the O(n^3) oracle flags, or
    that the unblocked filter proposes and the re-check flags, is proposed
    too."""

    g, ls = seeded_line_set(d, m, seed)
    check = relu_sampling._collinearity_ok
    decisions = []

    def both(points, lines, tol):
        for each in (tol, WIDE_TOL):
            ok, proposed = proposals(points, lines, each, check)
            assert not flagged_missed_pairs(points, lines, each, proposed)
            flagged = oracle_flagged_pairs(points, lines, each)
            assert flagged <= proposed
            assert oracle_two_sided_collinearity_ok(points, lines, each) == ok
            decisions.append((ok, not flagged))
        if len(decisions) == 2 * CORPUS_DRAWS:
            raise EnoughDraws
        return decisions[-2][0]

    monkeypatch.setattr(relu_sampling, "_collinearity_ok", both)
    try:
        build_sample_plan(g, ls, seed=seed)
    except EnoughDraws:
        pass
    assert all(new == old for new, old in decisions), decisions
    if d == 2 and m >= 8:
        assert not all(old for _, old in decisions[::2])  # rejected draws are covered


# d=2, m=8 with seed 6 rejects its first two jitter draws
@pytest.mark.parametrize("d, m, seed", [(2, 6, 4), (2, 7, 3), (2, 8, 6), (3, 5, 3), (3, 7, 1),
                                         (3, 8, 2), (4, 4, 4)])
def test_sample_plan_is_bit_identical_under_the_oracle(monkeypatch, d, m, seed):
    g, ls = seeded_line_set(d, m, seed)
    plan = build_sample_plan(g, ls, seed=seed)
    monkeypatch.setattr(relu_sampling, "_collinearity_ok", oracle_collinearity_ok)
    reference = build_sample_plan(g, ls, seed=seed)
    assert np.array_equal(plan.points, reference.points)
    assert plan.params == reference.params


def plan_outcome(build, g, ls, seed):
    """A plan's point bits and params, or the error's class, message and details."""

    try:
        plan = build(g, ls, seed)
    except si.ToolkitError as exc:
        return type(exc), exc.message, exc.details
    return plan.points.tobytes(), plan.params


# d=2, m=8 with seed 6 rejects its first two jitter draws
@pytest.mark.parametrize("d, m, seed", [(d, m, seed) for d, m in LINE_SHAPES for seed in (0, 1)]
                         + [(2, 8, 6)])
def test_one_jitter_draw_per_plan_is_the_per_line_loop(d, m, seed):
    """The plan's one rng.uniform call per draw gives the per-line loop's
    params and point bits, through the same re-rolls."""

    g, ls = seeded_line_set(d, m, seed)
    with mock.patch.object(relu_sampling, "_collinearity_ok",
                           wraps=relu_sampling._collinearity_ok) as spy:
        outcome = plan_outcome(build_sample_plan, g, ls, seed)
    assert outcome == plan_outcome(oracle_build_sample_plan, g, ls, seed)
    if (d, m, seed) == (2, 8, 6):
        assert spy.call_count == 3


def test_one_jitter_draw_per_plan_fails_as_the_per_line_loop(monkeypatch):
    g, ls = seeded_line_set(2, 3, 0)
    monkeypatch.setattr(relu_sampling, "_RETRY_BUDGET", 3)
    monkeypatch.setattr(relu_sampling, "_collinearity_ok", lambda *args: False)
    expected = plan_outcome(oracle_build_sample_plan, g, ls, 0)
    assert expected[0] is ConstructionError
    assert plan_outcome(build_sample_plan, g, ls, 0) == expected


def reconstruct_with_oracle(monkeypatch, data):
    """reconstruct(data) and the solve loop's network on the hyperplanes
    that reconstruct recovered."""

    recovered = []

    def spy(*args):
        recovered.append(recover_hyperplanes(*args))
        return recovered[-1]

    monkeypatch.setattr(relu_sampling, "recover_hyperplanes", spy)
    rebuilt = reconstruct(data)
    return rebuilt, oracle_orientation(recovered[0], data.plan.points, data.values)


@pytest.mark.parametrize("d, m, seed", [(2, 2, 1), (2, 5, 3), (2, 7, 4), (3, 3, 5),
                                         (3, 7, 7), (4, 3, 8), (4, 5, 9), (5, 3, 10),
                                         (5, 4, 11)])
def test_reconstruct_is_byte_identical_to_the_orientation_loop(monkeypatch, d, m, seed):
    net = random_irreducible_relu(np.random.default_rng(seed), m, d)
    g = group(net)
    plan = build_sample_plan(g, build_feasible_lines(g, seed=seed), seed=seed)
    data = sample_values(net, plan)
    rebuilt, expected = reconstruct_with_oracle(monkeypatch, data)
    assert net_core.serialize(rebuilt) == net_core.serialize(expected)
    # the flip sets' sums screened a few at a time, in many chunks, and the
    # seed tuples of hyperplane recovery fitted one at a time
    monkeypatch.setattr(numerics, "_CHUNK_ENTRIES", 16)
    assert net_core.serialize(reconstruct(data)) == net_core.serialize(expected)


@pytest.mark.parametrize("deficient", [False, True])
@pytest.mark.parametrize("d, m, seed", [(2, 5, 3), (2, 7, 4), (4, 5, 9)])
def test_reconstruct_keeps_a_fitting_pattern_whose_linear_term_misses(
        monkeypatch, d, m, seed, deficient):
    """Noise of 2e-9 along the weakest direction of the design
    [relu(h_k), x, 1] moves the single solve's linear term by more than
    match_tol, while the first orientation pattern still fits the samples
    within residual_tol: the flip-set screen must keep that pattern, also
    when the design reports itself rank deficient."""

    net = random_irreducible_relu(np.random.default_rng(seed), m, d)
    g = group(net)
    plan = build_sample_plan(g, build_feasible_lines(g, seed=seed), seed=seed)
    data = sample_values(net, plan)
    margins = plan.points @ np.stack([n.a for n in net.neurons]).T + [n.b for n in net.neurons]
    design = np.concatenate([np.maximum(margins, 0.0), plan.points,
                             np.ones((plan.points.shape[0], 1))], axis=1)
    weakest = np.linalg.svd(design, full_matrices=False)[0][:, -1]
    if deficient:
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: lstsq(*a, **k)[:3] + (np.ones(1),))
    noise = 2e-9 * (1.0 + np.max(np.abs(data.values))) * weakest / np.max(np.abs(weakest))
    rebuilt, expected = reconstruct_with_oracle(
        monkeypatch, LabeledSamples(plan, data.values + noise))
    assert expected is not None
    assert net_core.serialize(rebuilt) == net_core.serialize(expected)


def test_reconstruct_caps_the_orientation_search_before_recovery(monkeypatch):
    g = group(cross_net())
    plan = build_sample_plan(g, build_feasible_lines(g, seed=0), seed=0)
    monkeypatch.setattr(relu_sampling, "SUBSET_CAP", 1)
    monkeypatch.setattr(relu_sampling, "recover_hyperplanes", mock.Mock(side_effect=AssertionError))
    with pytest.raises(si.SizeError):
        reconstruct(sample_values(cross_net(), plan))


@settings(max_examples=examples(60), deadline=None)
@given(d=st.sampled_from([2, 3]), pair=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
       t=st.floats(0.2, 0.8), factor=st.sampled_from([0.5, 2.0]),
       normal=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
def test_collinearity_check_on_planted_third_points(d, pair, t, factor, normal):
    """A third point planted 0.5 or 2 match tolerances off the line of two
    points on different plan lines."""

    plan = small_plan(d)
    n, per_line = plan.points.shape[0], len(plan.params[0])
    i, k = pair[0] % n, pair[1] % n
    assume(i // per_line != k // per_line)
    p, q = plan.points[i], plan.points[k]
    along = (q - p) / np.linalg.norm(q - p)
    off = np.asarray(normal[:d]) - (np.asarray(normal[:d]) @ along) * along
    assume(np.linalg.norm(off) > 0.1)
    ctol = WIDE_TOL.match_tol * (1.0 + float(np.max(np.abs(plan.points))))
    planted = p + t * (q - p) + factor * ctol * off / np.linalg.norm(off)
    points = np.concatenate([plan.points, planted[None, :]])
    expected = oracle_collinearity_ok(points, plan.lines, WIDE_TOL)
    if factor < 1.0:
        assert not expected
    assert relu_sampling._collinearity_ok(points, plan.lines, WIDE_TOL) == expected


def assert_proposes_every_flagged_pair(points, lines, tol=WIDE_TOL):
    """The check decides as the O(n^3) oracle and proposes every pair that
    the oracle flags; returns the flagged pairs."""

    ok, proposed = proposals(points, lines, tol)
    flagged = oracle_flagged_pairs(points, lines, tol)
    assert flagged <= proposed
    assert ok == (not flagged)
    return flagged


@settings(max_examples=examples(60), deadline=None)
@given(d=st.sampled_from([2, 3]), pair=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
       t=st.one_of(st.floats(-1.5, -0.2), st.floats(0.2, 0.8), st.floats(1.2, 2.5)),
       factor=st.sampled_from([0.5, 2.0]),
       normal=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
def test_collinearity_check_on_planted_third_points_with_the_lowest_index(d, pair, t, factor,
                                                                         normal):
    """A third point planted 0.5 or 2 match tolerances off the line of two
    points on different plan lines, beyond either end of the pair or between
    them, and put first: only its own anchor sees both points of the pair."""

    plan = small_plan(d)
    n, per_line = plan.points.shape[0], len(plan.params[0])
    i, k = sorted((pair[0] % n, pair[1] % n))
    assume(i // per_line != k // per_line)
    p, q = plan.points[i], plan.points[k]
    along = (q - p) / np.linalg.norm(q - p)
    off = np.asarray(normal[:d]) - (np.asarray(normal[:d]) @ along) * along
    assume(np.linalg.norm(off) > 0.1)
    foot = p + t * (q - p)
    scale = 1.0 + max(float(np.max(np.abs(plan.points))), float(np.max(np.abs(foot))))
    planted = foot + factor * WIDE_TOL.match_tol * scale * off / np.linalg.norm(off)
    points = np.concatenate([planted[None, :], plan.points])
    flagged = assert_proposes_every_flagged_pair(points, plan.lines)
    if factor < 1.0:
        assert (i + 1, k + 1) in flagged


def anchored_triple(d, center, e, normal, near, delta):
    """The small plan and points a, x, y inside its box: y at 0.4 M from a
    along e (M the plan's largest coordinate), x at ``near`` times that on
    a's other side, with a ``delta`` match tolerances off the line through x
    and y, in ``normal``'s direction; and ctol at WIDE_TOL."""

    plan = small_plan(d)
    big = float(np.max(np.abs(plan.points)))
    e = np.asarray(e[:d]) / np.linalg.norm(e[:d])
    normal = np.asarray(normal[:d]) - (np.asarray(normal[:d]) @ e) * e
    normal /= np.linalg.norm(normal)
    a = 0.5 * big * np.asarray(center[:d])
    reach = 0.4 * big
    ctol = WIDE_TOL.match_tol * (1.0 + big)
    y = a + reach * e
    x = a - near * reach * e + delta * ctol * (1.0 + near) * normal
    return plan, a, x, y, ctol


@settings(max_examples=examples(60), deadline=None)
@given(d=st.sampled_from([2, 3]), lines_through_a=st.sampled_from([1, 2]),
       near=st.floats(0.1, 1.0), delta=st.sampled_from([0.5, 0.9, 2.0]),
       center=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       e=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       normal=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
@example(d=3, lines_through_a=2, near=0.2, delta=0.9, center=[0.3, -0.2, 0.5],
         e=[1.0, 2.0, 2.0], normal=[0.0, 1.0, -0.5])
def test_collinearity_check_on_an_anchor_on_the_lines_of_its_partners(
        d, lines_through_a, near, delta, center, e, normal):
    """A point a put first, within delta match tolerances of the line
    through x and y, which lie on either side of it.  Extra plan lines make
    (a, y) exempt, and with two of them (a, x) too, so that a lies on two
    plan lines; (x, y) stays non-exempt where x is off the lines."""

    e_d, normal_d = np.asarray(e[:d]), np.asarray(normal[:d])
    assume(np.linalg.norm(e_d) > 0.1)
    assume(np.linalg.norm(normal_d - (normal_d @ e_d) / (e_d @ e_d) * e_d) > 0.1)
    plan, a, x, y, _ = anchored_triple(d, center, e, normal, near, delta)
    extra = (Line(a, y - a),) if lines_through_a == 1 else (Line(a, y - a), Line(a, x - a))
    points = np.concatenate([np.stack([a, x, y]), plan.points])
    assert_proposes_every_flagged_pair(points, plan.lines + extra)


def test_collinearity_check_finds_a_pair_past_an_exempt_entrys_window():
    """From a, on one plan line with y, the direction to y is exempt, and
    its window, 2 tau over the distance to y, misses the direction to x, at
    a fifth of that distance on a's other side.  a lies 0.9 match
    tolerances off the line through x and y, and x is off a's line, so the
    pair (x, y) fails, and only a sees both points.  The non-exempt entry
    (a, x), whose window is five times wider, must find (a, y): exempt
    entries are sorted as well."""

    plan, a, x, y, ctol = anchored_triple(3, [0.3, -0.2, 0.5], [1.0, 2.0, 2.0],
                                          [0.0, 1.0, -0.5], 0.2, 0.9)
    lines = plan.lines + (Line(a, y - a),)
    points = np.concatenate([np.stack([a, x, y]), plan.points])
    assert 1.0 + float(np.max(np.abs(points))) == pytest.approx(ctol / WIDE_TOL.match_tol)
    member = np.stack([_point_line_distances(points[:3], ln) <= ctol for ln in lines], axis=1)
    assert not np.any(member[:, :-1]) and member[:, -1].tolist() == [True, False, True]
    radius = 1.0 + float(np.max(np.linalg.norm(points, axis=1)))
    tau = 2.0 * np.sqrt(ctol * ctol + 16 * 5 * np.finfo(float).eps * radius ** 2)
    from_a = (np.stack([x, y]) - a) / np.linalg.norm(np.stack([x, y]) - a, axis=1)[:, None]
    assert np.linalg.norm(from_a[0] + from_a[1]) > 2.0 * tau / np.linalg.norm(y - a)
    flagged = assert_proposes_every_flagged_pair(points, lines)
    assert flagged == {(1, 2)}


@settings(max_examples=examples(40), deadline=None)
@given(d=st.sampled_from([2, 3]), index=st.integers(0, 10**6),
       factor=st.sampled_from([0.0, 0.5, 1.0, 1000.0]),
       shift=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
def test_collinearity_check_on_near_coincident_points(d, index, factor, shift):
    """A point planted within 1000 match tolerances of a plan point; within
    one, every non-exempt pair is re-checked."""

    plan = small_plan(d)
    p = plan.points[index % plan.points.shape[0]]
    step = np.asarray(shift[:d])
    assume(np.linalg.norm(step) > 0.1)
    ctol = WIDE_TOL.match_tol * (1.0 + float(np.max(np.abs(plan.points))))
    planted = p + factor * ctol * step / np.linalg.norm(step)
    points = np.concatenate([plan.points, planted[None, :]])
    with mock.patch.object(relu_sampling, "_third_point_near",
                           wraps=relu_sampling._third_point_near) as spy:
        ok = relu_sampling._collinearity_ok(points, plan.lines, WIDE_TOL)
    assert ok == oracle_collinearity_ok(points, plan.lines, WIDE_TOL)
    if factor <= 1.0:
        assert spy.call_args.args[1].size == non_exempt_pair_count(points, plan.lines,
                                                                   WIDE_TOL)


@pytest.mark.parametrize("d", [2, 3])
def test_collinearity_check_finds_a_triple_straddling_the_fold(d):
    """Three near-collinear points whose directions, seen from both anchors
    the check uses, fall on either side of the filter's fold plane
    <g, u> = 0 (g as in `_collinearity_ok`); only the flipped copies near
    the fold pair them up."""

    g = np.sqrt(np.arange(2.0, d + 2.0))
    g /= np.linalg.norm(g)
    along = np.eye(d)[0] - g[0] * g
    along /= np.linalg.norm(along)
    base = np.full(d, 0.3)
    y = 0.1 * WIDE_TOL.match_tol
    points = np.stack([base, base + 0.5 * along - y * g, base + along + y * g])
    far_line = (Line(np.full(d, 5.0), np.eye(d)[1]),)
    assert not oracle_collinearity_ok(points, far_line, WIDE_TOL)
    assert not relu_sampling._collinearity_ok(points, far_line, WIDE_TOL)


@functools.lru_cache(maxsize=None)
def blocked_plan():
    """A d=3, m=6 plan of 252 points, 14 to a line: with one or two planted
    points the filter works through two row ranges of the upper triangle,
    and the last one is partial."""

    g, ls = seeded_line_set(3, 6, 1)
    return build_sample_plan(g, ls, seed=1)


def last_block_start(n):
    """The first anchor of the filter's last row range on n points."""

    points = np.random.default_rng(0).normal(size=(n, 3))
    with mock.patch.object(relu_sampling, "_window_hits",
                           wraps=relu_sampling._window_hits) as spy:
        relu_sampling._collinearity_ok(points, blocked_plan().lines, WIDE_TOL)
    anchors = [call.args[1] for call in spy.call_args_list]
    assert len(anchors) >= 2                                          # carried over
    assert np.sum(n - 1 - anchors[-1]) < relu_sampling._BLOCK_ENTRIES   # partial
    return int(anchors[-1][0])


def planted_check(planted, tol=WIDE_TOL):
    """The blocked plan with the planted points appended: the check's
    decision (which must be the oracle's) and the pairs it re-checked."""

    plan = blocked_plan()
    points = np.concatenate([plan.points, planted])
    ok, proposed = proposals(points, plan.lines, tol)
    assert ok == oracle_collinearity_ok(points, plan.lines, tol)
    return ok, proposed, points


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_collinearity_check_finds_a_triple_in_the_last_partial_block(factor):
    """A point planted 0.5 or 2 match tolerances off the line of two plan
    points on different lines, all three anchored in the last block."""

    plan = blocked_plan()
    n, per_line = plan.points.shape[0], len(plan.params[0])
    i, k = last_block_start(n + 1) + 1, n - 1
    assert i // per_line != k // per_line and i < n - per_line
    p, q = plan.points[i], plan.points[k]
    along = (q - p) / np.linalg.norm(q - p)
    off = np.cross(along, np.ones(3))
    ctol = WIDE_TOL.match_tol * (1.0 + float(np.max(np.abs(plan.points))))
    planted = p + 0.4 * (q - p) + factor * ctol * off / np.linalg.norm(off)
    ok, proposed, _ = planted_check(planted[None, :])
    if factor < 1.0:
        assert not ok and (i, k) in proposed


def test_collinearity_check_finds_a_fold_straddling_triple_in_the_last_block():
    """As `test_collinearity_check_finds_a_triple_straddling_the_fold`, from
    a plan point of the last block and two points planted off it."""

    plan = blocked_plan()
    n = plan.points.shape[0]
    i = last_block_start(n + 2) + 3
    g = np.sqrt(np.arange(2.0, 5.0))
    g /= np.linalg.norm(g)
    along = np.eye(3)[0] - g[0] * g
    along /= np.linalg.norm(along)
    y = 0.1 * WIDE_TOL.match_tol
    base = plan.points[i]
    planted = np.stack([base + 0.5 * along - y * g, base + along + y * g])
    ok, proposed, _ = planted_check(planted)
    assert not ok and {(i, n), (i, n + 1)} <= proposed


@pytest.mark.parametrize("factor", [0.0, 0.5])
def test_near_coincident_point_in_the_last_block_rechecks_every_pair(factor):
    """Only the last block holds two points within 2 tau, so the filter
    gives up there, after the earlier blocks, and re-checks every pair."""

    plan = blocked_plan()
    n = plan.points.shape[0]
    j = n - 2
    assert j >= last_block_start(n + 1)
    ctol = WIDE_TOL.match_tol * (1.0 + float(np.max(np.abs(plan.points))))
    planted = plan.points[j] + factor * ctol * np.ones(3) / np.sqrt(3.0)
    ok, proposed, points = planted_check(planted[None, :])
    assert len(proposed) == non_exempt_pair_count(points, plan.lines, WIDE_TOL)


@pytest.mark.parametrize("tol", [si.DEFAULT_TOL, WIDE_TOL])
def test_collinearity_filter_does_not_depend_on_the_block_size(monkeypatch, tol):
    """Row ranges of the upper triangle of one row each, of about n and 3n
    entries, and the whole triangle in one range propose the same pairs;
    the ranges take every anchor once, in order."""

    plan = blocked_plan()
    n = plan.points.shape[0]
    expected = proposals(plan.points, plan.lines, tol)
    for entries, blocks in ((1, n - 1), (n, None), (3 * n, None), (n * (n - 1) // 2, 1)):
        monkeypatch.setattr(relu_sampling, "_BLOCK_ENTRIES", entries)
        with mock.patch.object(relu_sampling, "_window_hits",
                               wraps=relu_sampling._window_hits) as spy:
            assert proposals(plan.points, plan.lines, tol) == expected
        anchors = [call.args[1] for call in spy.call_args_list]
        assert np.array_equal(np.concatenate(anchors), np.arange(n))
        # at most ``entries`` entries to a range, or one longer row
        assert all(np.sum(n - 1 - rows) <= max(entries, n - 1 - rows[0]) for rows in anchors)
        if blocks is not None:
            assert len(anchors) == blocks


def test_extract_breakpoints_single_relu_on_line():
    bps, pieces = extract_breakpoints(
        Line(np.zeros(2), np.ones(2)), [-2.0, -1.0, 1.0, 2.0], [0.0, 0.0, 1.0, 2.0])
    assert bps == pytest.approx([0.0])
    assert pieces[0][0] == pytest.approx(0.0)
    assert pieces[1][0] == pytest.approx(1.0)


def test_extract_breakpoints_constant_data():
    bps, pieces = extract_breakpoints(
        Line(np.zeros(2), np.ones(2)), [0.0, 1.0, 2.0, 3.0], [4.0, 4.0, 4.0, 4.0])
    assert bps == [] and len(pieces) == 1


def test_extract_breakpoints_matches_known_crossings():
    net = cross_net()
    g = group(net)
    ls = build_feasible_lines(g, seed=2)
    plan = build_sample_plan(g, ls, seed=2)
    data = sample_values(net, plan)
    for j, line in enumerate(plan.lines):
        values = data.values[6 * j:6 * (j + 1)]
        bps, _ = extract_breakpoints(line, plan.params[j], values)
        assert np.allclose(sorted(bps), ls.crossing_params[j], atol=1e-9)


def test_extract_breakpoints_rejects_unsorted():
    with pytest.raises(InputError):
        extract_breakpoints(Line(np.zeros(2), np.ones(2)),
                            [1.0, 0.0, 2.0, 3.0], [0.0] * 4)


@pytest.mark.parametrize("params, values, message", [
    ([0.0, 1.0, 2.0, 3.0], [0.0, np.inf, 1.0, 2.0], "params and values must be finite"),
    ([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, np.nan, 2.0], "params and values must be finite"),
    ([0.0, 1.0, 2.0, np.inf], [0.0, 0.0, 1.0, 2.0], "params and values must be finite"),
    # a slope step of -2e308 overflows; an infinite merge_tol would merge the kink away
    ([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 1e308, -1e308], "piece slopes overflow the float range"),
    # slope steps of +-2e308 overflow; the intercepts would give nan breakpoints
    ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 1e308, 0.0, -1e308, 0.0, 1e308],
     "piece slopes overflow the float range"),
    # finite slopes 1e10 and 0, but the first piece's intercept is -1e310
    ([1e300, 1.0000000001e300, 2e300, 2.0000000001e300], [0.0, 1e300, 0.0, 0.0],
     "fitted pieces or breakpoints overflow the float range"),
], ids=["inf-value", "nan-value", "inf-param", "merged-kink", "nan-breakpoints",
        "intercept-overflow"])
def test_extract_breakpoints_rejects_values_beyond_the_float_range(params, values, message):
    with pytest.raises(InputError) as err:
        extract_breakpoints(Line(np.zeros(2), np.ones(2)), params, values)
    assert err.value.message == message


def test_reconstruct_rejects_a_non_finite_sample_value():
    net = cross_net()
    g = group(net)
    plan = build_sample_plan(g, build_feasible_lines(g, seed=0), seed=0)
    values = sample_values(net, plan).values.copy()
    values[7] = np.inf
    with pytest.raises(InputError, match="params and values must be finite"):
        reconstruct(LabeledSamples(plan, values))


STEP_KINDS = {"equal": 0.0, "inside": 0.999, "outside": 1.001, "chain": 0.6}


@st.composite
def planted_line(draw, steps):
    """Params and values of a continuous piecewise-linear function, two
    samples per piece, whose slope steps are planted: equal slopes, steps well
    above merge_tol ("big"), steps just inside and just outside it, and
    chains of steps of 0.6 merge_tol in one direction, whose ends differ by
    more than merge_tol.  Returns them with the kinds of the steps."""

    near = draw(st.booleans())
    kinds = draw(st.lists(st.sampled_from(["big", *STEP_KINDS] if near else ["big", "equal"]),
                          min_size=steps, max_size=steps))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = rng.uniform(-10.0, 0.0) + np.cumsum(rng.uniform(0.05, 1.0, size=2 * steps + 2))
    kinks = t[1:-1:2] + rng.uniform(0.1, 0.9, size=steps) * (t[2::2] - t[1:-1:2])
    # slope k is base[k] + small[k] * merge_tol; lines of one batch differ in
    # scale, so each needs its own merge_tol
    scale, sign = 10.0 ** rng.uniform(-1.0, 1.0), rng.choice([-1.0, 1.0])
    base, small = [scale * rng.uniform(-3.0, 3.0)], [0.0]
    for kind in kinds:
        big = rng.choice([-1.0, 1.0]) * scale * rng.uniform(0.1, 2.0) if kind == "big" else 0.0
        base.append(base[-1] + big)
        step = STEP_KINDS.get(kind, 0.0)
        small.append(small[-1] + (sign if kind == "chain" else rng.choice([-1.0, 1.0])) * step)
    base, small = np.array(base), np.array(small)
    merge_tol = 0.0
    for _ in range(3):
        merge_tol = 10.0 * si.DEFAULT_TOL.residual_tol * (
            1.0 + np.max(np.abs(base + small * merge_tol)))
    slopes = base + small * merge_tol
    values = (rng.uniform(-5.0, 5.0) + slopes[0] * t
              + np.maximum(t[:, None] - kinks[None, :], 0.0) @ np.diff(slopes))
    return t, values, kinds


@settings(max_examples=examples(300), deadline=None)
@given(st.integers(1, 9).flatmap(lambda steps: st.lists(planted_line(steps),
                                                        min_size=1, max_size=4)))
def test_extract_breakpoints_merges_as_the_per_piece_polyfit_loop(batch):
    """One batched pass over several lines gives each line what
    extract_breakpoints gives it alone, and its merged groups are the
    oracle's exactly.  Where every step is equal or well above merge_tol, a
    slope moves by O(eps Y / h) between the two fits, with Y = 1 +
    max|value| and h the closest pair of samples; an intercept by that times
    1 + max|param|, and a breakpoint by the sum over the smallest slope step
    between neighbouring pieces."""

    starts, pieces, breakpoints = relu_sampling._fit_pieces(
        np.stack([t for t, _, _ in batch]), np.stack([y for _, y, _ in batch]), si.DEFAULT_TOL)
    counts = np.sum(starts, axis=1)
    for k, (t, y, kinds) in enumerate(batch):
        first = int(np.sum(counts[:k]))       # line k's first group; k fewer breakpoints
        bps, own = extract_breakpoints(None, t, y)
        assert pieces[first:first + counts[k]].tolist() == [list(pq) for pq in own]
        assert breakpoints[first - k:first - k + counts[k] - 1].tolist() == bps
        oracle_bps, oracle_pieces, groups = oracle_extract_breakpoints(None, t, y)
        assert np.flatnonzero(starts[k]).tolist() == [grp[0] for grp in groups]
        assert starts[k, 1:].tolist() == [kind in ("big", "outside") for kind in kinds]
        if not set(kinds) <= {"big", "equal"}:
            continue
        scale = (np.finfo(float).eps * (1.0 + np.max(np.abs(y))) / np.min(t[1::2] - t[0::2])
                 * (1.0 + np.max(np.abs(t))))
        assert np.all(np.abs(np.asarray(own) - oracle_pieces) <= 64.0 * scale)
        if len(groups) > 1:
            rise = np.min(np.abs(np.diff(np.asarray(oracle_pieces)[:, 0])))
            assert np.all(np.abs(np.asarray(bps) - oracle_bps) <= 64.0 * scale / rise)


def test_recover_hyperplanes_cross_net_exact():
    g = group(cross_net())
    ls = build_feasible_lines(g, seed=0)
    crossings = [line.points_at(w) for line, w in zip(ls.lines, ls.crossing_params)]
    recovered = recover_hyperplanes(crossings)
    root2 = np.sqrt(2.0)
    expected = sorted([((1 / root2, -1 / root2), 0.0), ((1 / root2, 1 / root2), 0.0)])
    got = sorted((tuple(h.a), h.b) for h in recovered)
    for (ea, eb), (ga, gb) in zip(expected, got):
        assert np.max(np.abs(np.asarray(ea) - np.asarray(ga))) < 1e-9
        assert abs(eb - gb) < 1e-9


def test_recover_hyperplanes_orders_perturbed_cross_net_crossings_alike():
    """The cross net's hyperplanes share their first coordinate, 1/sqrt(2),
    so an order by exact coordinates followed its last bits, and crossings
    perturbed by 1e-15 gave both orders.  On the match_tol grid the second
    coordinate decides."""

    ls = build_feasible_lines(group(cross_net()), seed=3)
    crossings = [line.points_at(w) for line, w in zip(ls.lines, ls.crossing_params)]
    rng = np.random.default_rng(0)
    orders = {tuple(float(np.sign(h.a[1])) for h in recover_hyperplanes(
        [grp + rng.normal(scale=1e-15, size=grp.shape) for grp in crossings]))
        for _ in range(40)}
    assert orders == {(-1.0, 1.0)}


def test_recover_hyperplanes_round_trip():
    rng = np.random.default_rng(8)
    net = random_irreducible_relu(rng, 3, 2)
    g = group(net)
    truth = sorted((canonical_hyperplane(e.a, e.b)[0] for e in g.K2),
                   key=lambda h: (tuple(h.a), h.b))
    ls = build_feasible_lines(g, seed=11)
    crossings = [line.points_at(w) for line, w in zip(ls.lines, ls.crossing_params)]
    recovered = recover_hyperplanes(crossings)
    assert len(recovered) == 3
    for h_true, h_rec in zip(truth, recovered):
        assert np.max(np.abs(h_true.a - h_rec.a)) < 1e-8
        assert abs(h_true.b - h_rec.b) < 1e-8


def test_recover_hyperplanes_invariant_under_line_permutation():
    rng = np.random.default_rng(9)
    net = random_irreducible_relu(rng, 2, 2)
    g = group(net)
    ls = build_feasible_lines(g, seed=4)
    crossings = [line.points_at(w) for line, w in zip(ls.lines, ls.crossing_params)]
    first = recover_hyperplanes(crossings)
    second = recover_hyperplanes(crossings[::-1])
    for h1, h2 in zip(first, second):
        assert h1.matches(h2)


def test_reconstruct_round_trip_cross_net():
    net = cross_net()
    g = group(net)
    ls = build_feasible_lines(g, seed=0)
    plan = build_sample_plan(g, ls, seed=0)
    rec = reconstruct(sample_values(net, plan))
    assert si.test_equivalent(net, rec) is not None


def test_reconstruct_constant_data():
    net = cross_net()
    g = group(net)
    ls = build_feasible_lines(g, seed=1)
    plan = build_sample_plan(g, ls, seed=1)
    values = np.full(plan.points.shape[0], 3.25)
    rec = reconstruct(LabeledSamples(plan, values))
    assert rec.m == 0 and rec.c == pytest.approx(3.25)


def test_reconstruct_flipped_three_neuron_class(monkeypatch):
    root2 = np.sqrt(2.0)
    a = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0]) / root2]
    s = [1.0, 1.0, -root2]
    net = make_net("relu", [(-a[k], 0.0, s[k]) for k in range(3)], 0.0)
    g = group(net)
    ls = build_feasible_lines(g, seed=6)
    plan = build_sample_plan(g, ls, seed=6)
    rec, expected = reconstruct_with_oracle(monkeypatch, sample_values(net, plan))
    assert si.test_equivalent(net, rec) is not None
    # flipping all three neurons also reproduces the samples (sum s_k a_k = 0);
    # the reconstruction must be the first such pattern, as in the solve loop
    assert net_core.serialize(rec) == net_core.serialize(expected)


def test_plan_json_round_trip():
    g = group(cross_net())
    ls = build_feasible_lines(g, seed=0)
    plan = build_sample_plan(g, ls, seed=0)
    loaded = plan_from_json_obj(plan_to_json_obj(plan))
    assert np.max(np.abs(loaded.points - plan.points)) == 0.0
    data = sample_values(cross_net(), plan)
    obj = samples_to_json_obj(data, "plan.json")
    restored = samples_from_json_obj(obj, loaded)
    rec = reconstruct(restored)
    assert si.test_equivalent(cross_net(), rec) is not None


def test_reconstruct_rejects_corrupted_values():
    net = cross_net()
    g = group(net)
    ls = build_feasible_lines(g, seed=7)
    plan = build_sample_plan(g, ls, seed=7)
    values = si.evaluate_many(net, plan.points)
    values = values + np.sin(np.arange(values.size))  # not piecewise linear on lines
    with pytest.raises(si.ToolkitError):
        reconstruct(LabeledSamples(plan, values))


def test_recover_hyperplanes_rejects_scattered_points():
    rng = np.random.default_rng(23)
    scattered = [rng.uniform(-1, 1, size=(2, 2)) for _ in range(4)]
    assert assert_recovers_as_the_oracle(scattered)[0] is si.RecoveryError


def pipeline_samples(d, m, seed):
    """Plan samples of a seeded net, through its lines and plan."""

    net = random_irreducible_relu(np.random.default_rng(seed), m, d)
    g = group(net)
    return sample_values(net, build_sample_plan(g, build_feasible_lines(g, seed=seed),
                                                seed=seed))


def pipeline_crossings(d, m, seed):
    """The crossings reconstruct hands to recover_hyperplanes for a seeded
    net: lines, plan, samples and the breakpoints extracted on every line."""

    data = pipeline_samples(d, m, seed)
    plan = data.plan
    values = data.values.reshape(len(plan.lines), -1)
    return [line.points_at(extract_breakpoints(line, params, vals)[0])
            for line, params, vals in zip(plan.lines, plan.params, values)]


@pytest.mark.parametrize("d, m, seed", [(2, 3, 0), (3, 5, 1), (4, 4, 2)])
def test_reconstruct_hands_recovery_the_public_extraction_bit_for_bit(d, m, seed):
    with mock.patch.object(relu_sampling, "recover_hyperplanes",
                           wraps=relu_sampling.recover_hyperplanes) as spy:
        reconstruct(pipeline_samples(d, m, seed))
    handed = spy.call_args.args[0]
    expected = pipeline_crossings(d, m, seed)
    assert len(handed) == len(expected)
    assert all(a.shape == b.shape and a.tobytes() == b.tobytes()
               for a, b in zip(handed, expected))


def recovery_outcome(recover, crossings, tol=si.DEFAULT_TOL):
    """The recovered (a, b) bits, or the error's class, message and details."""

    try:
        return [(h.a.tobytes(), h.b) for h in recover(crossings, tol)]
    except si.ToolkitError as exc:
        return type(exc), exc.message, exc.details


def assert_recovers_as_the_oracle(crossings, tol=si.DEFAULT_TOL):
    expected = recovery_outcome(oracle_recover_hyperplanes, crossings, tol)
    assert recovery_outcome(recover_hyperplanes, crossings, tol) == expected
    return expected


@settings(max_examples=examples(20), deadline=None)
@given(shape=st.sampled_from([(d, m) for d in range(2, 6) for m in range(2, 7) if d * m <= 24]),
       seed=st.integers(0, 10**6), budget=st.floats(0.0, 1.2))
def test_recover_hyperplanes_is_bit_identical_to_the_per_candidate_loop(shape, seed, budget):
    """Seeded nets through the plan pipeline, as they come, with the lines
    permuted, with the first line combination degenerate (line d-1 a copy of
    line d-2, so the search goes on to the second combination), and with the
    candidate budget cut to a share of the m^d tuples of one combination."""

    d, m = shape
    crossings = pipeline_crossings(d, m, seed)
    assert_recovers_as_the_oracle(crossings)
    order = np.random.default_rng(seed).permutation(len(crossings))
    assert_recovers_as_the_oracle([crossings[j] for j in order])
    assert_recovers_as_the_oracle(crossings[:d - 1] + [crossings[d - 2]] + crossings[d:])
    with mock.patch.object(relu_sampling, "_CANDIDATE_BUDGET", int(budget * m ** d)):
        assert_recovers_as_the_oracle(crossings)


@functools.lru_cache(maxsize=None)
def crossings_and_oracle_budget(d, m, seed):
    """pipeline_crossings and the fewest seed tuples with which the oracle
    recovers every hyperplane from them."""

    crossings = tuple(pipeline_crossings(d, m, seed))

    def succeeds(budget):
        with mock.patch.object(relu_sampling, "_CANDIDATE_BUDGET", budget):
            return isinstance(recovery_outcome(oracle_recover_hyperplanes, crossings), list)

    fails, enough = 0, 1
    while not succeeds(enough):
        fails, enough = enough, 2 * enough
    while enough - fails > 1:
        mid = (fails + enough) // 2
        fails, enough = (fails, mid) if succeeds(mid) else (mid, enough)
    return crossings, enough


@pytest.mark.parametrize("tuples", [1, 3, 7])
@pytest.mark.parametrize("d, m, seed", [(4, 5, 2), (3, 7, 5)])
def test_recover_hyperplanes_chunk_edges_keep_the_oracle_order(monkeypatch, d, m, seed, tuples):
    """Chunks of a few tuples tile the itertools order without gap or
    overlap, and the search stops where the oracle's does: with the oracle's
    smallest sufficient budget both succeed, with one tuple less both fail
    alike."""

    crossings, needed = crossings_and_oracle_budget(d, m, seed)
    monkeypatch.setattr(numerics, "_CHUNK_ENTRIES", tuples * m * d * max(m, d))
    with mock.patch.object(relu_sampling, "_seed_survivors",
                           wraps=relu_sampling._seed_survivors) as spy:
        assert isinstance(assert_recovers_as_the_oracle(crossings), list)
    chunks = [call.args[1] for call in spy.call_args_list]
    assert {len(seeds) for seeds in chunks} <= {tuples, m ** d % tuples}
    seen = np.concatenate(chunks)
    assert needed <= len(seen) < needed + tuples
    stacked = np.stack(crossings)
    order = itertools.islice(((combo, choice)
                              for combo in itertools.combinations(range(m * d), d)
                              for choice in itertools.product(range(m), repeat=d)), len(seen))
    assert np.array_equal(seen, np.stack([stacked[list(c), list(i)] for c, i in order]))
    for budget in (needed, needed - 1):
        monkeypatch.setattr(relu_sampling, "_CANDIDATE_BUDGET", budget)
        assert_recovers_as_the_oracle(crossings)


def test_seed_survivors_keeps_a_near_tie_of_the_rough_match():
    """d = 2, m = 2: the seeds (0, 0) and (1, 0) give the rough plane y = 0,
    from which line 2's crossings (0.5, 1) and (0.5, -1) are equally far, so
    the match may take either; the tuple survives although the refit on the
    first misses line 3.  Without the tie it is dropped."""

    stacked = np.array([[[0.0, 0.0], [0.0, 2.0]], [[1.0, 0.0], [1.0, -3.0]],
                        [[0.5, 1.0], [0.5, -1.0]], [[2.0, 0.3], [3.0, 5.0]]])
    seeds = stacked[[0, 1], [0, 0]][None]
    (_, _, accepted), reached = counting_refits(screened_exact_fits, stacked, seeds, 1e-8)
    assert reached == 1 and accepted.tolist() == []
    stacked[2, 1, 1] = -1.5
    assert relu_sampling._seed_survivors(stacked, seeds, 1e-8)[0].tolist() == []


def counting_refits(fn, *args):
    """fn(*args) and the number of seed tuples the batched exact test received."""

    with mock.patch.object(relu_sampling, "_exact_fits",
                           wraps=relu_sampling._exact_fits) as spy:
        result = fn(*args)
    return result, sum(call.args[1].shape[2] for call in spy.call_args_list)


def screened_exact_fits(stacked, seeds, keep_tol):
    """recover_hyperplanes' two stages on one chunk of seed tuples."""

    kept, rough = relu_sampling._seed_survivors(stacked, seeds, keep_tol)
    return relu_sampling._exact_fits(stacked, rough[:, :, kept], keep_tol)


def exact_test_accepts(stacked, seed_pts, keep_tol):
    """recover_hyperplanes' exact test on one seed tuple, whether the screen
    keeps it or not: the refit on every line's crossing nearest the tuple's
    rough plane, its span and containment."""

    _, rough = relu_sampling._seed_survivors(stacked, seed_pts[None], keep_tol)
    return relu_sampling._exact_fits(stacked, rough, keep_tol)[2].size == 1


def old_refit_seed_miss(stacked, combo, choice):
    """How far the old screen's refit, on every line's crossing nearest the
    rough plane, passes from the farthest of the tuple's own seeds."""

    n_lines, m, d = stacked.shape
    flat = stacked.reshape(n_lines * m, d)
    rough = oracle_plane_fits(flat, stacked[list(combo), choice][None])[0]
    matched = stacked[np.arange(n_lines), rough.reshape(n_lines, m).argmin(axis=1)]
    refit = oracle_plane_fits(flat, matched[None])[0].reshape(n_lines, m)
    return max(refit[j, i] for j, i in zip(combo, choice))


def assert_screen_keeps_the_oracles_survivors(crossings, tol=si.DEFAULT_TOL):
    """On the first and the last line combination, every tuple that the
    refitting screen (``oracle_refit_screen``) or the older screen kept
    reaches the exact test, with one exception.  Under a loose tol their
    refit margins also keep some tuples whose refit passes more than 4
    keep_tol from one of their own seeds; the miss bound assumes the
    opposite, so it may drop those, but only if the exact test rejects them.
    Returns how many."""

    stacked = np.stack(crossings)
    n_lines, m, d = stacked.shape
    keep_tol = tol.match_tol * (1.0 + float(np.max(np.abs(stacked))))
    dropped = 0
    for combo in (range(d), range(n_lines - d, n_lines)):
        choices = np.array(list(itertools.product(range(m), repeat=d)))
        seeds = stacked[list(combo), choices]
        survivors = relu_sampling._seed_survivors(stacked, seeds, keep_tol)[0]
        kept = np.union1d(oracle_refit_screen(stacked, seeds, keep_tol),
                          oracle_seed_survivors(stacked, seeds, keep_tol))
        for k in np.setdiff1d(kept, survivors):
            assert old_refit_seed_miss(stacked, combo, choices[k]) > 4.0 * keep_tol
            assert not exact_test_accepts(stacked, seeds[k], keep_tol)
            dropped += 1
    return dropped


NOISY_TOL = ToleranceConfig(match_tol=1e-5)


def assert_recovers_as_the_seed_fit(crossings):
    """At NOISY_TOL, recovery ends as the seed-fit recovery did with its rank
    cutoff raised to match_tol, which noisy crossings needed."""

    expected = recovery_outcome(functools.partial(oracle_seed_fit_recovery, rank_tol=1e-5),
                                crossings, NOISY_TOL)
    assert recovery_outcome(recover_hyperplanes, crossings, NOISY_TOL) == expected
    return expected


@settings(max_examples=examples(25), deadline=None)
@given(shape=st.sampled_from([(d, m) for d in range(2, 6) for m in range(2, 8) if d * m <= 24]),
       seed=st.integers(0, 10**6))
@example(shape=(2, 7), seed=3083)
def test_seed_survivors_keep_every_survivor_of_the_old_screen(shape, seed):
    """Pipeline crossings as they come and with the lines permuted: the
    screen keeps every tuple the old one kept.  With 1e-7 noise at match_tol
    = 1e-5, where the miss bound is loosest, it keeps every tuple that the
    old one kept and the exact test accepts, and recovery ends as the
    seed-fit recovery at a rank cutoff of 1e-5.  At d = 2, m = 7, seed 3083
    the noise leaves one plane's crossings unmatched and a second refit of
    another plane, 1e-4 from the first and within keep_tol of it: recovery
    skips that copy and fails as the seed-fit recovery does."""

    d, m = shape
    crossings = pipeline_crossings(d, m, seed)
    rng = np.random.default_rng(seed)
    assert assert_screen_keeps_the_oracles_survivors(crossings) == 0
    permuted = [crossings[j] for j in rng.permutation(len(crossings))]
    assert assert_screen_keeps_the_oracles_survivors(permuted) == 0
    noisy = [grp + rng.normal(scale=1e-7, size=grp.shape) for grp in crossings]
    assert_screen_keeps_the_oracles_survivors(noisy, NOISY_TOL)
    assert_recovers_as_the_seed_fit(noisy)


def test_seed_survivors_drop_an_old_survivor_only_off_its_own_seeds():
    """d = 2, m = 7, seed 30798 with noise: the old screen kept one tuple of
    the last line combination whose refit passes within 4 keep_tol of a
    crossing of every line, but not of its own seeds; the exact test rejects
    it and the new screen drops it."""

    crossings = pipeline_crossings(2, 7, 30798)
    rng = np.random.default_rng(30798)
    rng.permutation(len(crossings))
    noisy = [grp + rng.normal(scale=1e-7, size=grp.shape) for grp in crossings]
    assert assert_screen_keeps_the_oracles_survivors(noisy, NOISY_TOL) == 1


@settings(max_examples=examples(25), deadline=None)
@given(shape=st.sampled_from([(d, m) for d in range(2, 6) for m in range(2, 8) if d * m <= 24]),
       seed=st.integers(0, 10**6), gap=st.sampled_from([0.0, 1e-9]))
def test_seed_survivors_refit_ill_conditioned_tuples(shape, seed, gap):
    """Two seeds of a tuple 1e-9 apart: the miss bound is useless, so the
    tuple reaches the exact test's refit.  Two seeds equal (s_{d-1} = 0):
    the cofactor normal is zero and the tuple goes no further, as the seed
    fit's rank test dropped it."""

    d, m = shape
    stacked = np.stack(pipeline_crossings(d, m, seed))
    rng = np.random.default_rng(seed)
    choice = rng.integers(m, size=d)
    stacked[1, choice[1]] = stacked[0, choice[0]] + gap
    keep_tol = 1e-8 * (1.0 + float(np.max(np.abs(stacked))))
    seeds = stacked[np.arange(d), choice][None]
    _, reached = counting_refits(screened_exact_fits, stacked, seeds, keep_tol)
    assert reached == (gap > 0)
    assert gap > 0 or affine_fits(seeds)[2][0] < d - 1


def test_seed_survivors_drop_a_tuple_whose_cofactor_normal_is_nan():
    """m = 1 and every crossing at one point: c = 0, so the normal and the
    bound are NaN.  The old screens kept the lone tuple and the seed fit
    rejected it as degenerate; now it goes no further, and recovery fails
    as the per-candidate loop does."""

    stacked = np.full((3, 1, 3), 0.5)
    seeds = stacked[np.arange(3), 0][None]
    (_, _, accepted), reached = counting_refits(screened_exact_fits, stacked, seeds, 1e-8)
    assert reached == 0 and accepted.tolist() == []
    assert (oracle_seed_survivors(stacked, seeds, 1e-8).tolist()
            == oracle_refit_screen(stacked, seeds, 1e-8).tolist() == [0])
    assert assert_recovers_as_the_oracle(list(stacked))[0] is si.RecoveryError


def test_recover_hyperplanes_refits_only_a_few_seed_tuples():
    """Of the 1,296 seed tuples of (d, m, seed) = (4, 6, 0), the batched
    exact test sees at most 2m: the miss bound drops the rest."""

    found, refitted = counting_refits(recover_hyperplanes, pipeline_crossings(4, 6, 0))
    assert len(found) == 6 and refitted <= 12


def raw_crossings(d, m, seed):
    """The crossings of m random hyperplanes with m*d random lines, in the
    order of their line parameters: what extraction hands recovery, without
    the line feasibility checks, and at any d (at d = 1 every line crosses the
    same m points)."""

    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, d))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b = rng.uniform(-1.0, 1.0, size=m)
    crossings = []
    for _ in range(m * d):
        u, v = rng.normal(size=d), rng.normal(size=d)
        params = np.sort(-(a @ u + b) / (a @ v))
        crossings.append(u + params[:, None] * v)
    return crossings


def assert_screen_keeps_every_accepted_tuple(crossings, tol=si.DEFAULT_TOL):
    """On the first and the last line combination, the exact test, run on
    every seed tuple, accepts only tuples that survive the screen."""

    stacked = np.stack(crossings)
    n_lines, m, d = stacked.shape
    keep_tol = tol.match_tol * (1.0 + float(np.max(np.abs(stacked))))
    choices = np.array(list(itertools.product(range(m), repeat=d)))
    for combo in (range(d), range(n_lines - d, n_lines)):
        survivors, rough = relu_sampling._seed_survivors(stacked, stacked[list(combo), choices],
                                                         keep_tol)
        accepted = relu_sampling._exact_fits(stacked, rough, keep_tol)[2]
        assert set(accepted.tolist()) <= set(survivors.tolist())


@settings(max_examples=examples(30), deadline=None)
@given(shape=st.sampled_from([(d, m) for d in range(1, 7) for m in range(2, 8)
                              if d * m <= 24 and m ** d <= 1024]),
       seed=st.integers(0, 10**6))
def test_cofactor_screen_keeps_every_tuple_the_exact_test_accepts(shape, seed):
    """Pipeline crossings (raw crossings at d = 1, which has no line
    sampling) as they come and with the lines permuted: the exact test, run
    on every tuple, accepts only tuples the screen keeps, and the
    hyperplanes are the per-candidate loop's.  With 1e-7 noise at match_tol
    = 1e-5, where the miss bound is loosest, it accepts only kept tuples
    too.  Recovery then ends as the seed-fit recovery at a rank cutoff of
    1e-5, except at d = 1: there every refit spans the noise, a flat of
    dimension d, which that recovery rejected at any cutoff, and now the
    hyperplanes are the clean ones within match_tol."""

    d, m = shape
    crossings = pipeline_crossings(d, m, seed) if d > 1 else raw_crossings(d, m, seed)
    rng = np.random.default_rng(seed)
    permuted = [crossings[j] for j in rng.permutation(len(crossings))]
    for case in (crossings, permuted):
        assert_screen_keeps_every_accepted_tuple(case)
        assert isinstance(assert_recovers_as_the_oracle(case), list)
    noisy = [grp + rng.normal(scale=1e-7, size=grp.shape) for grp in crossings]
    assert_screen_keeps_every_accepted_tuple(noisy, NOISY_TOL)
    if d > 1:
        assert_recovers_as_the_seed_fit(noisy)
    else:
        rebuilt = recover_hyperplanes(noisy, NOISY_TOL)
        assert all(h.matches(c, NOISY_TOL) for h, c in zip(rebuilt, recover_hyperplanes(crossings)))


@pytest.mark.parametrize("d, m", [(1, 4), (2, 5), (3, 4), (4, 3), (5, 3), (6, 2)])
def test_seed_survivors_fit_no_svd(d, m):
    """The rough planes are cofactor vectors: the screen makes no SVD call."""

    stacked = np.stack(raw_crossings(d, m, d))
    seeds = stacked[np.arange(d), np.array(list(itertools.product(range(m), repeat=d)))]
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as spy:
        survivors = relu_sampling._seed_survivors(stacked, seeds, 1e-8)[0]
    assert spy.call_count == 0 and len(survivors)


def test_recover_hyperplanes_skips_chunks_the_screen_empties(monkeypatch):
    """Scattered crossings that exhaust a lowered candidate budget in chunks
    of at most 20 tuples: the screen empties most chunks, and those never
    reach the exact test; the error is the per-candidate loop's, with the
    same count of hyperplanes found."""

    rng = np.random.default_rng(0)
    scattered = [rng.uniform(-1, 1, size=(3, 3)) for _ in range(9)]
    monkeypatch.setattr(numerics, "_CHUNK_ENTRIES", 20 * 9 * 3)
    monkeypatch.setattr(relu_sampling, "_CANDIDATE_BUDGET", 2000)
    with mock.patch.object(relu_sampling, "_seed_survivors",
                           wraps=relu_sampling._seed_survivors) as screen, \
            mock.patch.object(relu_sampling, "_exact_fits",
                              wraps=relu_sampling._exact_fits) as exact:
        outcome = assert_recovers_as_the_oracle(scattered)
    assert outcome[0] is si.RecoveryError and "budget" in outcome[1]
    assert screen.call_count > 2 * exact.call_count
    assert all(call.args[1].shape[2] for call in exact.call_args_list)


def test_recover_hyperplanes_rejects_non_finite_crossings():
    crossings = pipeline_crossings(2, 2, 0)
    crossings[1][0, 0] = np.nan
    with pytest.raises(InputError):
        recover_hyperplanes(crossings)


@pytest.mark.parametrize("bad", [True, "0.5", float("nan"), float("inf")])
def test_plan_from_json_rejects_non_numeric_params(bad):
    g = group(cross_net())
    obj = plan_to_json_obj(build_sample_plan(g, build_feasible_lines(g, seed=0), seed=0))
    obj["params"][1][2] = bad
    with pytest.raises(ParseError) as err:
        plan_from_json_obj(obj)
    assert err.value.location == "plan.params[1][2]"


@pytest.mark.parametrize("field, bad, location", [
    ("values", float("nan"), "samples.values[3]"),
    ("values", float("-inf"), "samples.values[3]"),
    ("values", True, "samples.values[3]"),
    ("values", "0.5", "samples.values[3]"),
    ("points", float("nan"), "samples.points"),
    ("points", float("inf"), "samples.points"),
])
def test_samples_from_json_rejects_non_finite_entries(field, bad, location):
    g = group(cross_net())
    plan = build_sample_plan(g, build_feasible_lines(g, seed=0), seed=0)
    obj = samples_to_json_obj(sample_values(cross_net(), plan), "plan.json")
    if field == "values":
        obj["values"][3] = bad
    else:
        obj["points"][3][0] = bad
    with pytest.raises(ParseError) as err:
        samples_from_json_obj(obj, plan)
    assert err.value.location == location

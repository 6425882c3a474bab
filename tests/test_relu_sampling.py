import functools
import itertools
import tracemalloc
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import shallowid as si
from shallowid import (ConstructionError, InputError, Line, LabeledSamples, ParseError,
                       ToleranceConfig, build_feasible_lines, build_sample_plan,
                       canonical_hyperplane, extract_breakpoints, group, make_net,
                       net_core, numerics, reconstruct, recover_hyperplanes,
                       relu_sampling, sample_values)
from shallowid.numerics import affine_fits
from shallowid.relu_sampling import (_point_line_distances, plan_from_json_obj,
                                     plan_to_json_obj, samples_from_json_obj,
                                     samples_to_json_obj)

from helpers import (oracle_build_feasible_lines, oracle_collinear_candidates,
                     oracle_collinearity_ok, oracle_extract_breakpoints, oracle_orientation,
                     oracle_plane_fits, oracle_recover_hyperplanes, oracle_refit_screen,
                     oracle_seed_fit_recovery, oracle_seed_survivors, oracle_spread_culprit,
                     random_irreducible_relu)


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
    for n in range(1, 13):
        for r in range(1, n + 1):
            combos = relu_sampling._combinations(n, r)
            assert combos.tolist() == [list(c) for c in itertools.combinations(range(n), r)]


def line_bits(ls):
    return [(ln.u.tobytes(), ln.v.tobytes()) for ln in ls.lines], ls.crossing_params


def line_set_outcome(build, g, seed):
    """A line set's exact bits, or the message and details of the error."""

    try:
        return line_bits(build(g, seed))
    except ConstructionError as err:
        return err.message, err.details


def spread_checks(g, seed):
    """(lines marked stale, culprit) of every spread check the line builder
    makes, and the line set it returns."""

    calls = []
    real = relu_sampling._spread_culprit

    def spy(coords, members, stale, dets):
        calls.append((int(np.sum(stale)), real(coords, members, stale, dets)))
        return calls[-1][1]

    with mock.patch.object(relu_sampling, "_spread_culprit", spy):
        return calls, build_feasible_lines(g, seed)


# every (d, m) with d 2-6, m 1-7 whose C(md, d) subsets the from-scratch
# oracle checks in well under a second
LINE_SHAPES = [(d, m) for d in range(2, 7) for m in range(1, 8) if comb(m * d, d) <= 20_000]


@pytest.mark.parametrize("d, m", LINE_SHAPES)
def test_feasible_lines_are_bit_identical_to_the_from_scratch_check(d, m):
    for seed in range(3):
        g = group(random_irreducible_relu(np.random.default_rng(seed), m, d))
        assert (line_set_outcome(build_feasible_lines, g, seed)
                == line_set_outcome(oracle_build_feasible_lines, g, seed))


@pytest.mark.parametrize("d, m, seed", [(5, 4, 1), (4, 6, 0), (6, 3, 0)])
def test_feasible_lines_recheck_only_the_subsets_of_a_redrawn_line(d, m, seed):
    g = group(random_irreducible_relu(np.random.default_rng(seed), m, d))
    calls, ls = spread_checks(g, seed)
    assert calls[0][0] == m * d                            # first pass: every line
    redraws = [k for k, (_, culprit) in enumerate(calls) if culprit is not None]
    assert len(redraws) >= 2
    # after a spread redraw the next check recomputes only the redrawn line's subsets
    assert any(calls[k + 1][0] == 1 for k in redraws)
    assert line_bits(ls) == line_set_outcome(oracle_build_feasible_lines, g, seed)


STRICT_SPREAD_CASES = [(3, 3, 1, 1e-2), (3, 5, 2, 3e-3), (4, 3, 3, 3e-3), (5, 2, 4, 3e-3)]


@pytest.mark.parametrize("d, m, seed, spread", STRICT_SPREAD_CASES)
def test_feasible_lines_match_the_oracle_under_a_strict_spread_margin(d, m, seed, spread):
    """A spread margin that many subsets miss, so lines are redrawn often and
    each hyperplane's cache is updated many times."""

    g = group(random_irreducible_relu(np.random.default_rng(seed), m, d))
    with mock.patch.object(relu_sampling, "_MIN_SPREAD_DET", spread):
        calls, ls = spread_checks(g, seed)
        assert sum(culprit is not None for _, culprit in calls) >= 10
        assert line_bits(ls) == line_set_outcome(oracle_build_feasible_lines, g, seed)


def separation_redraws(g, seed):
    """Rounds of the line builder that redrew a line at check (ii): their
    directions had full rank, but no spread check followed.  Also returns the
    line set."""

    rounds = []   # per round: [full rank, spread checks made]
    real_rank, real_spread = relu_sampling.rank, relu_sampling._spread_culprit

    def rank_spy(*args):
        full = real_rank(*args)
        rounds.append([full == g.d, 0])
        return full

    def spread_spy(*args):
        rounds[-1][1] += 1
        return real_spread(*args)

    with mock.patch.multiple(relu_sampling, rank=rank_spy, _spread_culprit=spread_spy):
        ls = build_feasible_lines(g, seed)
    return sum(full and not checks for full, checks in rounds), ls


@pytest.mark.parametrize("d, m, seed", [(2, 4, 0), (3, 5, 2)])
def test_feasible_lines_match_the_oracle_under_a_strict_separation_margin(d, m, seed):
    """Check (ii) alone decides crossing separation; the oracle also tests
    it in every hyperplane's plane.  A margin of 0.1 redraws lines at (ii)."""

    g = group(random_irreducible_relu(np.random.default_rng(seed), m, d))
    with mock.patch.object(relu_sampling, "_MIN_POINT_SEP", 0.1):
        redraws, ls = separation_redraws(g, seed)
        assert redraws >= 5
        assert line_bits(ls) == line_set_outcome(oracle_build_feasible_lines, g, seed)


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
    """d=8, m=8 has C(64, 8) subsets of 16 numbers each, 566 GB: a size
    error before any table is built.  d=5, m=12 and every round trip of the
    tests and of CI stay below the cap."""

    cap = relu_sampling._SPREAD_ENTRIES_CAP
    for d, m in [(5, 12), (2, 8), (4, 8), (5, 4), (5, 5), (5, 6), (6, 3), (3, 5), (4, 6)]:
        assert (d + m) * comb(m * d, d) <= cap
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


def spread_checks_against_the_oracle(g, seed):
    """Builds lines with every spread check also made by oracle_spread_culprit,
    on copies of the same coords and stale mask and on the oracle's own
    caches (one per hyperplane), which also hold its separation test.  Each
    call must name the same culprit and keep every |det| within the slack of
    LAPACK's.  Returns the culprits."""

    real = relu_sampling._spread_culprit
    caches = {}
    culprits = []

    def both(coords, members, stale, dets):
        own_dets, own_nearest = caches.setdefault(dets.ctypes.data, np.empty((2, dets.size)))
        expected = oracle_spread_culprit(coords.copy(), members, stale.copy(), own_dets,
                                         own_nearest)
        culprits.append(real(coords, members, stale, dets))
        assert culprits[-1] == expected
        assert np.max(np.abs(dets - own_dets)) <= relu_sampling._spread_slack(coords.shape[1])
        return culprits[-1]

    with mock.patch.object(relu_sampling, "_spread_culprit", both):
        line_set_outcome(build_feasible_lines, g, seed)
    return culprits


@pytest.mark.parametrize("d, m", LINE_SHAPES)
def test_spread_check_names_the_lapack_oracles_culprit(d, m):
    for seed in range(3):
        g = group(random_irreducible_relu(np.random.default_rng(seed), m, d))
        assert spread_checks_against_the_oracle(g, seed)


@pytest.mark.parametrize("d, m, seed, spread", STRICT_SPREAD_CASES)
def test_spread_check_names_the_lapack_oracles_culprit_under_a_strict_margin(d, m, seed, spread):
    g = group(random_irreducible_relu(np.random.default_rng(seed), m, d))
    with mock.patch.object(relu_sampling, "_MIN_SPREAD_DET", spread):
        culprits = spread_checks_against_the_oracle(g, seed)
    assert sum(c is not None for c in culprits) >= 10


@pytest.mark.parametrize("chunk", [1, 40, 1000])
@pytest.mark.parametrize("d, m, seed", [(3, 5, 2), (5, 2, 4)])
def test_spread_check_in_blocks_names_the_lapack_oracles_culprit(monkeypatch, chunk, d, m, seed):
    """Blocks of one subset, of a few that leave a partial last block, and of
    a few hundred."""

    monkeypatch.setattr(relu_sampling, "_CHUNK_FLOATS", chunk)
    g = group(random_irreducible_relu(np.random.default_rng(seed), m, d))
    assert spread_checks_against_the_oracle(g, seed)


def stacked_dets(matrices):
    """``_laplace_dets`` of a (C, k, k) stack, through a (k, C*k) table."""

    count, k, _ = matrices.shape
    table = np.ascontiguousarray(matrices.reshape(count * k, k).T)
    return relu_sampling._laplace_dets(table, np.arange(count)[None, :] * k + np.arange(k)[:, None])


def unit_rows(rows):
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


@settings(max_examples=150, deadline=None)
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
    assert np.all(np.abs(diff) <= relu_sampling._spread_slack(k))


def passing_spread_checks(d, m, seed):
    """Coords and members of a seeded build's spread checks that passed."""

    g = group(random_irreducible_relu(np.random.default_rng(seed), m, d))
    real = relu_sampling._spread_culprit
    passed = []

    def spy(coords, members, stale, dets):
        culprit = real(coords, members, stale, dets)
        if culprit is None:
            passed.append((coords.copy(), members))
        return culprit

    with mock.patch.object(relu_sampling, "_spread_culprit", spy):
        build_feasible_lines(g, seed)
    return passed


def fresh_spread_culprits(check, coords, members):
    """The culprit of a first check; the oracle also takes a separation cache."""

    caches = np.empty((1 + (check is oracle_spread_culprit), members.shape[1]))
    return check(coords, members, np.ones(len(coords), dtype=bool), *caches)


@pytest.mark.parametrize("d, m, seed", [(2, 3, 0), (3, 3, 1), (4, 3, 0), (5, 2, 4), (6, 2, 0)])
def test_spread_check_at_a_margin_on_the_worst_lapack_determinant(d, m, seed):
    """A margin of exactly the worst subset's LAPACK |det| passes it, one ulp
    more names its first line, one ulp less passes: the fast values sit
    within the slack of the margin, so every decision is LAPACK's."""

    coords, members = passing_spread_checks(d, m, seed)[-1]
    diff = (coords[members[1:]] - coords[members[0]]).transpose(1, 0, 2)   # (C, d-1, d-1)
    exact = np.abs(np.linalg.det(diff / np.linalg.norm(diff, axis=2, keepdims=True)))
    worst = int(np.argmin(exact))
    outcomes = []
    for margin in (np.nextafter(exact[worst], 0.0), exact[worst],
                   np.nextafter(exact[worst], np.inf)):
        with mock.patch.object(relu_sampling, "_MIN_SPREAD_DET", float(margin)):
            outcomes.append(fresh_spread_culprits(relu_sampling._spread_culprit, coords, members))
            assert outcomes[-1] == fresh_spread_culprits(oracle_spread_culprit, coords, members)
    assert outcomes == [None, None, int(members[0, worst])]


def mirrored_triples(order=(0, 1, 2, 3, 4, 5), shrink=1.0):
    """Six in-plane points, listed in ``order``: a near-collinear triple and
    its mirror image across x = 0, whose third point is ``shrink`` times as
    far off the line.  Returns the coords, the 3-subsets, the indices of the
    two triples' subsets, and LAPACK's |det| of every subset."""

    def triple(eps):
        return np.array([[1.0, 0.0], [2.0, 1.0], [3.0, 2.0 + eps]])

    coords = np.concatenate([triple(1e-7), triple(1e-7 * shrink) * [-1.0, 1.0]])[list(order)]
    members = np.ascontiguousarray(relu_sampling._combinations(6, 3).T)
    at = np.argsort(order)
    first, mirrored = (int(np.flatnonzero(np.all(members == np.sort(at[idx])[:, None], axis=0))[0])
                       for idx in ([0, 1, 2], [3, 4, 5]))
    dets = np.empty(members.shape[1])
    oracle_spread_culprit(coords, members, np.ones(6, dtype=bool), dets, np.empty_like(dets))
    return coords, members, first, mirrored, dets


@pytest.mark.parametrize("order", [(0, 1, 2, 3, 4, 5), (0, 3, 1, 4, 2, 5)])
def test_spread_check_names_the_first_of_two_equal_determinants(order):
    """The triple and its mirror image have equal |det| below the margin; the
    first subset in index order is the culprit."""

    coords, members, first, mirrored, dets = mirrored_triples(order)
    assert dets[first] == dets[mirrored] == np.min(dets) < relu_sampling._MIN_SPREAD_DET
    assert np.sum(dets == dets[first]) == 2
    expected = fresh_spread_culprits(oracle_spread_culprit, coords, members)
    assert expected == members[0, min(first, mirrored)]
    assert fresh_spread_culprits(relu_sampling._spread_culprit, coords, members) == expected


def test_spread_check_decides_by_lapack_where_fast_values_swap_a_near_tie(monkeypatch):
    """The mirror image's |det| is smaller by about 4e-16.  Fast values
    moved by 0.7 slack in opposite directions, which stay within the slack
    of LAPACK's, rank the first triple lower; the culprit is the mirror
    image's first line all the same."""

    coords, members, first, mirrored, dets = mirrored_triples(shrink=1 - 2e-8)
    slack = relu_sampling._spread_slack(2)
    assert dets[mirrored] < dets[first] < dets[mirrored] + slack / 4
    assert np.sum(dets < 1e-6) == 2
    shift = np.zeros_like(dets)
    shift[[first, mirrored]] = -0.7 * slack, 0.7 * slack
    fast = relu_sampling._laplace_dets
    monkeypatch.setattr(relu_sampling, "_laplace_dets",
                        lambda table, rows: np.abs(fast(table, rows)) + shift)
    cached = np.empty_like(dets)
    culprit = relu_sampling._spread_culprit(coords, members, np.ones(6, dtype=bool), cached)
    assert int(np.argmin(cached)) == first
    assert np.max(np.abs(cached - dets)) <= slack
    assert culprit == members[0, mirrored] == fresh_spread_culprits(oracle_spread_culprit,
                                                                    coords, members)


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
    """Both checks judge each jitter draw of a plan build, up to the first
    CORPUS_DRAWS draws, at the default and the wide tolerance; the build goes
    on with the new check's verdict at the default one.  Every pair that the
    unblocked filter proposes and the re-check flags is proposed too."""

    g, ls = seeded_line_set(d, m, seed)
    check = relu_sampling._collinearity_ok
    decisions = []

    def both(points, lines, tol):
        for each in (tol, WIDE_TOL):
            ok, proposed = proposals(points, lines, each, check)
            assert not flagged_missed_pairs(points, lines, each, proposed)
            decisions.append((ok, oracle_collinearity_ok(points, lines, each)))
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
    # the flip sets' sums screened a few at a time, in many chunks
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


@settings(max_examples=60, deadline=None)
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


@settings(max_examples=40, deadline=None)
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
    points the filter works through four blocks of anchors, and the last one
    is partial."""

    g, ls = seeded_line_set(3, 6, 1)
    return build_sample_plan(g, ls, seed=1)


def last_block_start(n):
    rows = relu_sampling._BLOCK_ENTRIES // n
    assert n > 2 * rows                  # more than two blocks
    return (n - 1) // rows * rows


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
    plan = blocked_plan()
    n = plan.points.shape[0]
    expected = proposals(plan.points, plan.lines, tol)
    for entries in (1, 3 * n, n * n):       # one anchor, three anchors, one block
        monkeypatch.setattr(relu_sampling, "_BLOCK_ENTRIES", entries)
        assert proposals(plan.points, plan.lines, tol) == expected


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


@settings(max_examples=300, deadline=None)
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


@settings(max_examples=20, deadline=None)
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
    monkeypatch.setattr(relu_sampling, "_CHUNK_FLOATS", tuples * m * d * max(m, d))
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


@settings(max_examples=25, deadline=None)
@given(shape=st.sampled_from([(d, m) for d in range(2, 6) for m in range(2, 8) if d * m <= 24]),
       seed=st.integers(0, 10**6))
def test_seed_survivors_keep_every_survivor_of_the_old_screen(shape, seed):
    """Pipeline crossings as they come and with the lines permuted: the
    screen keeps every tuple the old one kept.  With 1e-7 noise at match_tol
    = 1e-5, where the miss bound is loosest, it keeps every tuple that the
    old one kept and the exact test accepts, and recovery ends as the
    seed-fit recovery at a rank cutoff of 1e-5."""

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


@settings(max_examples=25, deadline=None)
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


@settings(max_examples=30, deadline=None)
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
    monkeypatch.setattr(relu_sampling, "_CHUNK_FLOATS", 20 * 9 * 3)
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

import ast
import dataclasses
import itertools
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

import shallowid as si
from shallowid import (InputError, admissibility_violations, analytic_id, build_analytic_plan,
                       cleared_form_value, evaluate_many, exp_sum_expansion,
                       make_net, numerics, sigmoid_form, vandermonde_frame,
                       verify_identification)
from shallowid.tolerances import DEFAULT_TOL, ToleranceConfig

from helpers import (equivalent_analytic_variant, oracle_exp_sum_evaluate,
                     oracle_exp_sum_expansion, oracle_verify_identification,
                     random_analytic_net, run_single_threaded, separating_direction)


def test_admissible_simple_sigmoid():
    net = make_net("sigmoid", [((1.0, 0.0), 0.0, 1.0)], 0.0)
    assert admissibility_violations(net) == []


def test_sign_duplicate_is_inadmissible():
    net = make_net("tanh", [((1.0, 0.0), 0.5, 1.0), ((-1.0, 0.0), -0.5, 2.0)], 0.0)
    violations = admissibility_violations(net)
    assert violations and violations[0]["clause"] == "ii"


def test_zero_direction_is_inadmissible():
    net = make_net("sigmoid", [((0.0, 0.0), 0.5, 1.0)], 0.0)
    violations = admissibility_violations(net)
    assert violations and violations[0]["clause"] == "i"


def test_relu_input_rejected():
    plan = build_analytic_plan(1, 1)
    net = make_net("relu", [((1.0,), 0.0, 1.0)], 0.0)
    with pytest.raises(InputError):
        verify_identification(net, net, plan)


def test_tanh_flip_certificate_keeps_constant():
    net = make_net("tanh", [((-1.0,), 0.0, 2.0)], 0.3)
    flipped = make_net("tanh", [((1.0,), 0.0, -2.0)], 0.3)
    cert = si.test_equivalent(net, flipped)
    assert cert is not None and cert.K == frozenset({0}) and cert.epsilon == (-1,)
    assert cert.lam == (1.0,) and cert.constant_shift == 0.0


def test_sigmoid_flip_certificate_shifts_constant():
    net = make_net("sigmoid", [((-1.0,), 1.0, 2.0)], 0.0)
    flipped = make_net("sigmoid", [((1.0,), -1.0, -2.0)], 2.0)
    cert = si.test_equivalent(net, flipped)
    assert cert is not None and cert.K == frozenset({0}) and cert.constant_shift == 2.0
    xs = np.linspace(-4, 4, 101)[:, None]
    dev = np.abs(evaluate_many(net, xs) - evaluate_many(flipped, xs))
    assert np.max(dev) < 1e-12
    moved = make_net("sigmoid", [((1.0,), -1.0, -2.0)], 2.1)
    assert si.test_equivalent(net, moved) is None


def test_self_certificate_is_the_identity():
    rng = np.random.default_rng(2)
    for kind in ("sigmoid", "tanh"):
        net = random_analytic_net(rng, 3, 2, kind)
        cert = si.test_equivalent(net, net)
        assert cert.permutation == (0, 1, 2) and cert.epsilon == (1, 1, 1)
        assert cert.lam == (1.0, 1.0, 1.0) and cert.K == frozenset()
        assert cert.constant_shift == 0.0


def test_certified_variants_agree_pointwise():
    rng = np.random.default_rng(4)
    for kind in ("sigmoid", "tanh"):
        net = random_analytic_net(rng, 4, 3, kind)
        other = equivalent_analytic_variant(rng, net)
        cert = si.test_equivalent(net, other)
        assert cert is not None
        for k, j in enumerate(cert.permutation):
            e = cert.epsilon[k]
            assert np.array_equal(e * net.neurons[k].a, other.neurons[j].a)
            assert e * net.neurons[k].s == other.neurons[j].s
        x = rng.uniform(-3, 3, size=(1000, 3))
        base = evaluate_many(net, x)
        assert np.max(np.abs(evaluate_many(other, x) - base)) \
            <= 1e-10 * (1 + np.max(np.abs(base)))


def test_equivalent_analytic_permuted_copy():
    rng = np.random.default_rng(6)
    net = random_analytic_net(rng, 3, 2, "sigmoid")
    other = equivalent_analytic_variant(rng, net)
    assert si.test_equivalent(net, other) is not None


def test_equivalent_analytic_tanh_sign_flip():
    net = make_net("tanh", [((0.8, -0.3), 0.4, 1.5), ((0.2, 1.0), -0.1, -0.6)], 0.2)
    flipped = make_net("tanh", [((-0.8, 0.3), -0.4, -1.5), ((0.2, 1.0), -0.1, -0.6)], 0.2)
    x = np.random.default_rng(0).uniform(-2, 2, size=(500, 2))
    assert np.max(np.abs(evaluate_many(net, x) - evaluate_many(flipped, x))) < 1e-12
    assert si.test_equivalent(net, flipped) is not None


def test_not_equivalent_after_bias_shift():
    net = make_net("sigmoid", [((1.0, 0.2), 0.4, 1.0)], 0.0)
    other = make_net("sigmoid", [((1.0, 0.2), 0.5, 1.0)], 0.0)
    assert si.test_equivalent(net, other) is None


def test_activation_mismatch_rejected():
    with pytest.raises(InputError):
        si.test_equivalent(
            make_net("sigmoid", [((1.0,), 0.0, 1.0)], 0.0),
            make_net("tanh", [((1.0,), 0.0, 1.0)], 0.0))


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

def test_vandermonde_three_nodes():
    frame = vandermonde_frame(2, 3)
    assert np.allclose(frame.vectors, [[1.0, -1.0], [1.0, 0.0], [1.0, 1.0]])
    for combo in itertools.combinations(range(3), 2):
        assert si.rank(frame.vectors[list(combo)]) == 2


def test_vandermonde_exhaustive_subset_determinants():
    for d in range(1, 5):
        for n in range(d, 13):
            frame = vandermonde_frame(d, n)
            for combo in itertools.combinations(range(n), d):
                sub = frame.vectors[list(combo)]
                norms = np.linalg.norm(sub, axis=1, keepdims=True)
                assert abs(np.linalg.det(sub / norms)) > 1e-9


def test_vandermonde_single_vector():
    frame = vandermonde_frame(1, 1)
    assert frame.vectors.shape == (1, 1) and frame.vectors[0, 0] == 1.0


def test_vandermonde_rejects_undersized():
    with pytest.raises(InputError):
        vandermonde_frame(3, 2)


def test_separating_direction_two_axes():
    frame = vandermonde_frame(2, 2)  # nodes -1, 1 -> vectors (1,-1), (1,1)
    v = separating_direction(frame, np.array([[1.0, 0.0], [0.0, 1.0]]))
    # (1,1) fails because both inner products are 1; (1,-1) separates
    assert np.allclose(v, [1.0, -1.0])


def test_separating_direction_single_vector():
    frame = vandermonde_frame(3, 4)
    v = separating_direction(frame, np.array([[0.3, 0.2, -1.0]]))
    assert np.allclose(v, frame.vectors[0])


def test_separating_direction_opposite_pair_and_zero():
    frame = vandermonde_frame(2, 4)  # C(3,2)*(2-1)+1 = 4
    a = np.array([0.7, -0.4])
    family = np.stack([a, -a, np.zeros(2)])
    v = separating_direction(frame, family)
    inner = family @ v
    gaps = np.abs(inner[:, None] - inner[None, :])
    np.fill_diagonal(gaps, np.inf)
    assert float(np.min(gaps)) > 1e-12


def test_separating_direction_rejects_duplicates():
    frame = vandermonde_frame(2, 4)
    with pytest.raises(InputError):
        separating_direction(frame, np.array([[1.0, 0.0], [1.0, 0.0]]))


def test_separating_direction_rejects_small_frame():
    frame = vandermonde_frame(2, 2)
    family = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    with pytest.raises(InputError):
        separating_direction(frame, family)


# ---------------------------------------------------------------------------
# plans and identification
# ---------------------------------------------------------------------------

def test_plan_point_counts():
    plan = build_analytic_plan(1, 2)
    assert plan.frame.size == 7 and len(plan.scalars) == 4 and plan.size == 28
    plan = build_analytic_plan(2, 2)
    assert plan.frame.size == 29 and plan.size == 464
    plan = build_analytic_plan(1, 1)
    assert plan.frame.size == 1 and plan.size == 4


def test_plan_cap():
    with pytest.raises(si.SizeError) as err:
        build_analytic_plan(5, 4, cap=1000)
    assert err.value.details == {"points": 571 * 1024, "cap": 1000}
    # C(12000, 2) + 1 (27 bits) frame vectors times 2^6000 scalars: the
    # count is reported by its bit length, not in 1,800 digits
    with pytest.raises(si.SizeError) as err:
        build_analytic_plan(3000, 2)
    assert err.value.details == {"points_log2": 6026, "cap": 1_000_000}


def test_verify_identification_equivalent_pair():
    rng = np.random.default_rng(12)
    net = random_analytic_net(rng, 2, 2, "sigmoid")
    other = equivalent_analytic_variant(rng, net)
    plan = build_analytic_plan(2, 2)
    report = verify_identification(net, other, plan)
    assert report.equal_on_plan and report.equivalent and report.warning is None
    assert report.max_gap <= 1e-10


def test_verify_identification_distinct_pair():
    rng = np.random.default_rng(13)
    net = random_analytic_net(rng, 2, 2, "sigmoid")
    other = random_analytic_net(rng, 2, 2, "sigmoid")
    plan = build_analytic_plan(2, 2)
    report = verify_identification(net, other, plan)
    assert not report.equivalent
    assert report.max_gap > 1e-8


def test_verify_identification_constant_offset_visible():
    rng = np.random.default_rng(14)
    net = random_analytic_net(rng, 2, 2, "tanh")
    shifted = make_net("tanh", [(n.a, n.b, n.s) for n in net.neurons],
                       net.c + 1e-3, d=2)
    plan = build_analytic_plan(2, 2)
    report = verify_identification(net, shifted, plan)
    assert not report.equal_on_plan
    assert report.max_gap == pytest.approx(1e-3)


def test_verify_identification_scales_the_plan_gap_with_the_outputs():
    # scales of 1e8 leave a rounding gap of about 1.5e-8 between exactly
    # equivalent nets; a constant moved by 10 is still a gap
    net = make_net("sigmoid", [((1.0, 0.5), 0.2, 1e8)], 0.3)
    flipped = make_net("sigmoid", [((-1.0, -0.5), -0.2, -1e8)], 0.3 + 1e8)
    plan = build_analytic_plan(1, 2)
    report = verify_identification(net, flipped, plan)
    assert report.max_gap > DEFAULT_TOL.residual_tol
    assert report.equal_on_plan and report.equivalent
    moved = make_net("sigmoid", [((-1.0, -0.5), -0.2, -1e8)], 10.3 + 1e8)
    report = verify_identification(net, moved, plan)
    assert not report.equal_on_plan and not report.equivalent


def test_verify_identification_m_mismatch():
    rng = np.random.default_rng(15)
    net = random_analytic_net(rng, 3, 2, "sigmoid")
    other = random_analytic_net(rng, 3, 2, "sigmoid")
    with pytest.raises(InputError):
        verify_identification(net, other, build_analytic_plan(2, 2))


# ---------------------------------------------------------------------------
# exponential sums
# ---------------------------------------------------------------------------

def test_exp_sum_single_term_coefficients():
    a, b, s, s0 = [1.2], [0.4], [0.7], 0.3
    expansion = exp_sum_expansion(a, b, s, s0)
    terms = dict(zip(expansion.exponents, expansion.coefficients))
    assert terms[0.0] == pytest.approx(s0 + s[0])
    assert terms[1.2] == pytest.approx(s0 * np.exp(-b[0]))


def test_exp_sum_all_zero_scales():
    expansion = exp_sum_expansion([1.0, 2.0], [0.1, 0.2], [0.0, 0.0], 0.0)
    assert all(c == 0.0 for c in expansion.coefficients)


def test_exp_sum_identity_on_random_instances():
    rng = np.random.default_rng(16)
    xs = rng.uniform(-1.0, 1.0, size=100)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        a = rng.uniform(0.3, 2.0, n) * rng.choice([-1.0, 1.0], n)
        b = rng.uniform(-1.0, 1.0, n)
        s = rng.uniform(-2.0, 2.0, n)
        s0 = rng.uniform(-1.0, 1.0)
        expansion = exp_sum_expansion(a, b, s, s0)
        assert expansion == oracle_exp_sum_expansion(a, b, s, s0)
        lhs = cleared_form_value(a, b, s, s0, xs)
        rhs = expansion.evaluate(xs)
        assert np.max(np.abs(lhs - rhs) / (1.0 + np.abs(lhs))) <= 1e-9


@pytest.mark.parametrize("ties", [False, True])
def test_exp_sum_matches_the_mask_loop(ties):
    rng = np.random.default_rng(20 + ties)
    for n in range(1, 15):
        if ties:  # small integer directions: many subset sums coincide exactly
            a = rng.integers(1, 4, n) * rng.choice([-1.0, 1.0], n)
        else:
            a = rng.uniform(0.3, 2.0, n) * rng.choice([-1.0, 1.0], n)
        b = rng.uniform(-1.0, 1.0, n)
        s = rng.uniform(-2.0, 2.0, n)
        s0 = rng.uniform(-1.0, 1.0)
        expansion = exp_sum_expansion(a, b, s, s0)
        assert expansion == oracle_exp_sum_expansion(a, b, s, s0)
        if ties and n >= 5:  # 2^n subset sums take at most 6n + 1 values
            assert len(expansion.exponents) < 2 ** n


def test_exp_sum_merges_exponents_within_match_tol_as_the_mask_loop():
    a = [1.0, 2.0, 3.0 + 5e-9, -0.5]
    args = (a, [0.1, 0.2, 0.3, 0.4], [1.0, -0.5, 0.25, 2.0], 0.3)
    expansion = exp_sum_expansion(*args)
    assert expansion == oracle_exp_sum_expansion(*args)
    assert len(expansion.exponents) < 16


_DYADIC_TOL = ToleranceConfig(match_tol=2.0 ** -20)


@pytest.mark.parametrize("tol, gap, merged", [
    (DEFAULT_TOL, 1e-8, True),
    (DEFAULT_TOL, np.nextafter(1e-8, 1.0), False),
    # every subset sum of these directions is exact, so all four gaps of
    # a[0] merge, or none does; 2^-53 is one ulp of the exponents in [0.5, 1)
    (_DYADIC_TOL, 2.0 ** -20, True),
    (_DYADIC_TOL, 2.0 ** -20 + 2.0 ** -53, False),
])
def test_exp_sum_merges_a_gap_of_exactly_match_tol_as_the_mask_loop(tol, gap, merged):
    args = ([gap, 0.5, 0.25], [0.1, 0.2, 0.3], [1.0, -0.5, 2.0], 0.3)
    expansion = exp_sum_expansion(*args, tol=tol)
    assert expansion == oracle_exp_sum_expansion(*args, tol=tol)
    assert (expansion.exponents[1] == gap) != merged
    if tol is _DYADIC_TOL:
        assert len(expansion.exponents) == (4 if merged else 8)


def test_exp_sum_nonzero_scale_gives_nonzero_coefficient():
    rng = np.random.default_rng(18)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        a = rng.uniform(0.3, 2.0, n) * rng.choice([-1.0, 1.0], n)
        b = rng.uniform(-1.0, 1.0, n)
        s = rng.uniform(-2.0, 2.0, n)
        s[int(rng.integers(n))] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        s0 = rng.uniform(-1.0, 1.0)
        expansion = exp_sum_expansion(a, b, s, s0)
        scale = 1.0 + float(np.max(np.abs(s))) + abs(s0)
        assert max(abs(c) for c in expansion.coefficients) > 1e-9 * scale


def test_exp_sum_rejects_zero_direction_and_opposite_pairs():
    with pytest.raises(InputError):
        exp_sum_expansion([0.0], [0.1], [1.0], 0.0)
    with pytest.raises(InputError):
        exp_sum_expansion([1.0, -1.0], [0.5, -0.5], [1.0, 1.0], 0.0)


@pytest.mark.parametrize("a, b, s, s0", [
    ([6e307, 7e307, 8e307], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 0.0),  # an exponent
    ([1.0, 2.0], [-800.0, 0.0], [1.0, 1.0], 0.0),          # a coefficient, e^800
    ([1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [1.0, 1.0, 2.0], 1e308 - 4.0),  # {3} and {1, 2} merged
    ([1e308, 1.5e308], [0.0, 1.0], [1.0, 1.0], 0.0),   # directions whose difference overflows
])
def test_exp_sum_rejects_overflow(a, b, s, s0):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InputError, match="overflows the float range"):
            exp_sum_expansion(a, b, s, s0)


def test_sigmoid_form_matches_tanh_pointwise():
    rng = np.random.default_rng(19)
    net = random_analytic_net(rng, 3, 1, "tanh")
    converted = sigmoid_form(net)
    xs = rng.uniform(-3, 3, size=(200, 1))
    assert np.max(np.abs(evaluate_many(net, xs) - evaluate_many(converted, xs))) < 1e-12


def test_exp_sum_size_cap():
    n = 21
    with pytest.raises(si.SizeError):
        exp_sum_expansion(np.arange(1, n + 1, dtype=float), np.zeros(n),
                          np.ones(n), 0.0)


# ---------------------------------------------------------------------------
# the analytic path in row blocks
# ---------------------------------------------------------------------------

_ORACLE_ENTRIES = 1 << 24  # the one-call oracle's (len(xs), 2^n) buffer, 128 MiB at most


def evaluate_block_mismatches():
    """(n, merged, x count) cases, n = 9..16, whose ExpSumExpansion.evaluate
    differs in any bit from the one-call oracle, and the number of cases
    evaluated in more than one block.  Cases whose oracle buffer would pass
    _ORACLE_ENTRIES are left out: 1,000 x values at n = 15 and 16, 257 at 16.
    A merged expansion has two equal directions."""

    rng = np.random.default_rng(40)
    mismatches, blocked = [], 0
    for n, merged in itertools.product(range(9, 17), (False, True)):
        a = rng.uniform(0.3, 2.0, n) * rng.choice([-1.0, 1.0], n)
        if merged:  # 3 * 2^(n-2) exponents: a block's row count is then no power of 2
            a[1] = a[0]
        expansion = exp_sum_expansion(a, rng.uniform(-1.0, 1.0, n), rng.uniform(-2.0, 2.0, n),
                                      rng.uniform(-1.0, 1.0))
        for count in (1, 7, 8, 9, 33, 101, 257, 1000):
            if count << n > _ORACLE_ENTRIES:
                continue
            xs = np.linspace(-1.0, 1.0, count)
            blocked += len(numerics._row_blocks(count, len(expansion.exponents))) > 1
            expected = oracle_exp_sum_evaluate(expansion, xs)
            if expansion.evaluate(xs).tobytes() != expected.tobytes():
                mismatches.append((n, merged, count))
    return mismatches, blocked


def verify_block_mismatches():
    """(m, d, kind, budget) cases of verify_identification, m and d in 1..4,
    whose report differs from the one-call oracle's, or whose values on the
    plan, read block by block, differ in any bit from one evaluation of
    each net over the whole plan; and the number of cases run in more than
    one block.  Budgets below the default patch numerics._CHUNK_ENTRIES."""

    rng = np.random.default_rng(41)
    mismatches, blocked = [], 0
    for m, d, kind in itertools.product(range(1, 5), range(1, 5), ("sigmoid", "tanh")):
        net = random_analytic_net(rng, m, d, kind)
        other = (equivalent_analytic_variant(rng, net) if rng.random() < 0.5
                 else random_analytic_net(rng, m, d, kind))
        plan = build_analytic_plan(m, d)
        whole = [evaluate_many(n, plan.points).tobytes() for n in (net, other)]
        for budget in (1 << 6, 1 << 9, 1 << 12, numerics._CHUNK_ENTRIES):
            blocks = ([], [])

            def spy(n, points):
                values = evaluate_many(n, points)
                blocks[n is other].append(values)
                return values

            with mock.patch.object(numerics, "_CHUNK_ENTRIES", budget), \
                    mock.patch.object(analytic_id, "evaluate_many", spy):
                report = verify_identification(net, other, plan)
            blocked += len(blocks[0]) > 1
            if (report != oracle_verify_identification(net, other, plan)
                    or [np.concatenate(b).tobytes() for b in blocks] != whole):
                mismatches.append((m, d, kind, budget))
    return mismatches, blocked


def test_evaluate_in_row_blocks_keeps_the_one_call_bits():
    out = run_single_threaded("import test_analytic_id as t; print(t.evaluate_block_mismatches())")
    mismatches, blocked = ast.literal_eval(out)
    assert mismatches == []
    assert blocked == 38   # the other cases are one block: the one call itself


def test_verify_identification_in_row_blocks_keeps_the_one_call_bits():
    out = run_single_threaded("import test_analytic_id as t; print(t.verify_block_mismatches())")
    mismatches, blocked = ast.literal_eval(out)
    assert mismatches == []
    assert blocked == 62   # the cases whose plan takes more than one block of the budget


def test_verify_identification_keeps_a_nan_of_any_block():
    rng = np.random.default_rng(42)
    net = random_analytic_net(rng, 2, 2, "sigmoid")
    plan = build_analytic_plan(2, 2)
    for row in (0, plan.size - 1):   # in the first and in the last of many blocks
        points = plan.points.copy()
        points[row, 0] = np.nan
        bad = dataclasses.replace(plan, points=points)
        with mock.patch.object(numerics, "_CHUNK_ENTRIES", 1 << 6):
            report = verify_identification(net, net, bad)
        assert math.isnan(report.max_gap) and not report.equal_on_plan
        assert math.isnan(oracle_verify_identification(net, net, bad).max_gap)


def test_evaluate_of_a_16_neuron_expansion_stays_small():
    """expsum's identity check: 101 x values times 2^16 exponents would be one
    53 MB buffer in one call."""

    rng = np.random.default_rng(43)
    a = rng.uniform(0.3, 2.0, 16) * rng.choice([-1.0, 1.0], 16)
    expansion = exp_sum_expansion(a, rng.uniform(-1.0, 1.0, 16), rng.uniform(-2.0, 2.0, 16), 0.3)
    xs = np.linspace(-1.0, 1.0, 101)
    tracemalloc.start()
    try:
        values = expansion.evaluate(xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.shape == (101,) and np.all(np.isfinite(values))
    assert peak < 8 << 20


def test_verify_identification_of_a_195584_point_plan_stays_small():
    """d=2, m=5: one evaluation over the whole plan peaks at about 24 MiB of
    hidden-layer values; the plan itself is built before tracing starts."""

    rng = np.random.default_rng(44)
    net = random_analytic_net(rng, 5, 2, "tanh")
    other = equivalent_analytic_variant(rng, net)
    plan = build_analytic_plan(5, 2)
    assert plan.size == 195_584
    tracemalloc.start()
    try:
        report = verify_identification(net, other, plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.equal_on_plan and report.equivalent
    assert peak < 12 << 20

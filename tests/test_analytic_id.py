import itertools
import warnings

import numpy as np
import pytest

import shallowid as si
from shallowid import (InputError, admissibility_violations, build_analytic_plan,
                       cleared_form_value, evaluate_many, exp_sum_expansion,
                       make_net, sigmoid_form, vandermonde_frame,
                       verify_identification)
from shallowid.tolerances import DEFAULT_TOL

from helpers import (equivalent_analytic_variant, oracle_exp_sum_expansion,
                     random_analytic_net, separating_direction)


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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shallowid as si
from shallowid import (HypothesisError, InvariantError, admissibility_violations,
                       evaluate_many, group, make_net, numerics, reduce_fully,
                       reduce_once)
from shallowid.net_core import certificate_to_json_obj

from conftest import examples
from helpers import (cancelling_pairs_instance, clause_i_instance,
                     clause_ii_instance, clause_k1_ge_3_instance, dense_grid,
                     oracle_reducible, oracle_test_reducible,
                     random_irreducible_relu, random_structured_relu,
                     rel_max_dev, structured_relu)


def cross_net():
    return make_net("relu", [((1.0, 1.0), 0.0, 1.0), ((1.0, -1.0), 0.0, 1.0)], 0.0)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

def test_admissible_cross_net():
    assert admissibility_violations(cross_net()) == []


def test_zero_scale_violates_clause_i():
    violations = admissibility_violations(make_net("relu", [((1.0, 0.0), 0.0, 0.0)], 0.0))
    assert violations and violations[0]["clause"] == "i"


def test_positive_duplicate_violates_clause_ii():
    net = make_net("relu", [((1.0, 0.0), 0.5, 1.0), ((2.0, 0.0), 1.0, 1.0)], 0.0)
    violations = admissibility_violations(net)
    assert violations and violations[0]["clause"] == "ii"


# ---------------------------------------------------------------------------
# reducibility
# ---------------------------------------------------------------------------

def test_cross_net_irreducible():
    assert si.test_reducible(group(cross_net())) is None


def test_cancelling_pairs_detected_and_reduced_to_two():
    net = cancelling_pairs_instance()
    g = group(net)
    witness = si.test_reducible(g)
    assert witness is not None and witness.case == "cancellation"
    reduced = reduce_fully(net)
    assert reduced.m == 2
    # fixpoint is the single-ridge pair on the summed direction a1 + a2
    g2 = group(reduced)
    assert len(g2.K1) == 1 and not g2.K2
    summed = net.neurons[0].a + net.neurons[2].a
    summed = summed / np.linalg.norm(summed)
    assert min(np.max(np.abs(g2.K1[0].h.a - sign * summed)) for sign in (1, -1)) < 1e-12


def test_three_unit_pairs_all_ones_reduce_to_five():
    rng = np.random.default_rng(55)
    neurons = []
    for _ in range(3):
        a = rng.normal(size=2)
        a /= np.linalg.norm(a)
        b = rng.uniform(-1, 1)
        neurons.append((a, b, 1.0))
        neurons.append((-a, -b, 1.0))
    net = make_net("relu", neurons, 0.0, d=2)
    reduced = reduce_fully(net)
    assert reduced.m <= 5
    pts = rng.uniform(-3, 3, size=(1000, 2))
    base = evaluate_many(net, pts)
    assert np.max(np.abs(evaluate_many(reduced, pts) - base) / (1 + np.abs(base))) <= 1e-9


def test_three_pairs_reduce():
    net = clause_k1_ge_3_instance()
    witness = si.test_reducible(group(net))
    assert witness is not None and witness.case == "K1_ge_3"
    assert all(e == 1 for e in witness.epsilon)
    reduced = reduce_fully(net)
    assert reduced.m <= 5
    pts = dense_grid(2)
    base = evaluate_many(net, pts)
    assert np.max(np.abs(evaluate_many(reduced, pts) - base)) <= 1e-9 * (1 + np.max(np.abs(base)))


def test_clause_i_detected():
    witness = si.test_reducible(group(clause_i_instance()))
    assert witness is not None and witness.case == "K1_eq_1"


def test_clause_ii_detected():
    witness = si.test_reducible(group(clause_ii_instance()))
    assert witness is not None and witness.case == "K1_eq_2"
    assert witness.k0 is not None and witness.c0 is not None


def test_reduce_once_drops_exactly_one_neuron_for_clause_i():
    g = group(clause_i_instance())
    reduced = reduce_once(g, si.test_reducible(g))
    assert reduced.m == g.m - 1


def test_lone_cancelling_pair_is_a_fixpoint():
    a = np.array([0.6, -0.8])
    net = make_net("relu", [(a, 0.0, 1.0), (-a, 0.0, -1.0)], 0.0)
    assert si.test_reducible(group(net)) is None
    reduced = reduce_fully(net)
    assert reduced.m == 2
    assert not oracle_reducible(net)


def test_already_irreducible_net_unchanged():
    rng = np.random.default_rng(4)
    net = random_irreducible_relu(rng, 3, 2)
    reduced = reduce_fully(net)
    assert reduced.m == net.m
    pts = rng.uniform(-3, 3, size=(500, 2))
    assert np.allclose(evaluate_many(reduced, pts), evaluate_many(net, pts))


def test_stale_witness_rejected():
    g = group(clause_i_instance())
    witness = si.test_reducible(g)
    other = group(cross_net())
    with pytest.raises(InvariantError):
        reduce_once(other, witness)


def test_reduce_fully_never_increases_and_preserves_values():
    rng = np.random.default_rng(99)
    for _ in range(25):
        net = random_structured_relu(rng)
        reduced = reduce_fully(net)
        assert reduced.m <= net.m
        pts = rng.uniform(-3, 3, size=(400, 2))
        base = evaluate_many(net, pts)
        dev = np.max(np.abs(evaluate_many(reduced, pts) - base) / (1 + np.abs(base)))
        assert dev <= 1e-9


@settings(max_examples=examples(60), deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_reduce_fully_gives_an_irreducible_equivalent_net(seed):
    net = random_structured_relu(np.random.default_rng(seed))
    reduced = reduce_fully(net)
    assert reduced.m <= net.m
    assert si.test_reducible(group(reduced)) is None
    assert rel_max_dev(net, reduced, dense_grid(2)) <= 1e-9
    again = reduce_fully(reduced)
    assert again.m == reduced.m
    if not group(reduced).K1:
        assert si.test_equivalent(reduced, again) is not None


def _witness_key(witness):
    if witness is None:
        return None
    return witness.case, witness.epsilon, witness.k2_prime, witness.k0


def test_reducible_agrees_with_oracle_on_structured_nets():
    rng = np.random.default_rng(123)
    grid = dense_grid(2)
    for i in range(1000):
        net = random_structured_relu(rng, max_m=4 if i < 60 else int(rng.integers(2, 8)))
        witness = si.test_reducible(group(net))
        assert _witness_key(witness) == _witness_key(oracle_test_reducible(group(net)))
        if i < 60:
            assert (witness is not None) == oracle_reducible(net, grid)


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("kind, sizes", [
    ("k1_1", (0, 5, 12)), ("k1_1_planted", (0, 5, 12)),
    ("k1_2", (0, 5, 9)), ("k1_2_planted", (0, 5, 9)),
    ("cancel", (0, 5, 12)), ("cancel_planted", (0, 5, 12)),
])
@pytest.mark.parametrize("screen", [None, 16])
def test_witness_matches_the_loop_search(monkeypatch, d, kind, sizes, screen):
    if screen:  # screen the subset sums four at a time, in many chunks
        monkeypatch.setattr(numerics, "_CHUNK_ENTRIES", screen)
    rng = np.random.default_rng(1000 * d + len(kind))
    for n_lone in sizes:
        g = group(structured_relu(rng, d, kind, n_lone))
        witness = si.test_reducible(g)
        expected = oracle_test_reducible(g)
        assert _witness_key(witness) == _witness_key(expected)
        if kind.endswith("_planted"):
            assert witness is not None and witness.c0 == expected.c0


def test_k1_eq_2_witness_takes_the_first_sign_pattern_in_order():
    # the patterns (1, -1) and (-1, 1) each free a term along one lone
    # neuron; (1, 1) comes first but frees nothing absorbable
    a1, a2 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    s11, s12, s21, s22 = 1.0, 0.5, 0.8, 0.7
    along = [s11 * a1 - s22 * a2, -s12 * a1 + s21 * a2]
    neurons = [(a1, 0.1, s11), (-a1, -0.1, s12), (a2, -0.2, s21), (-a2, 0.2, s22),
               (along[0] / np.linalg.norm(along[0]), 0.3, 0.9),
               (along[1] / np.linalg.norm(along[1]), -0.4, -1.1)]
    g = group(make_net("relu", neurons, 0.0, d=3))
    witness = si.test_reducible(g)
    assert _witness_key(witness) == _witness_key(oracle_test_reducible(g))
    assert witness.epsilon == (1, -1) and witness.k0 == 2


def test_witness_search_is_capped_at_twenty_lone_neurons():
    rng = np.random.default_rng(21)
    g = group(structured_relu(rng, 3, "k1_1", 21))
    with pytest.raises(si.SizeError):
        si.test_reducible(g)


def test_ridge_functions_linearly_independent_on_grid():
    # families with mutually distinct hyperplanes and a nonzero coefficient
    # cannot vanish on a dense grid; with all-zero coefficients they do
    rng = np.random.default_rng(17)
    for _ in range(20):
        d = int(rng.integers(2, 4))
        m = int(rng.integers(1, 6))
        net = random_irreducible_relu(rng, m, d)
        coeffs = rng.uniform(-2, 2, size=m)
        coeffs[int(rng.integers(m))] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        lin = rng.uniform(-1, 1, size=d)
        const = rng.uniform(-1, 1)
        grid = dense_grid(d)
        margins = np.maximum(grid @ net.weight_matrix().T + net.biases(), 0.0)
        values = margins @ coeffs + grid @ lin + const
        assert np.max(np.abs(values)) > 1e-6
        zero = margins @ np.zeros(m) + grid @ np.zeros(d) + 0.0
        assert np.max(np.abs(zero)) == 0.0


# ---------------------------------------------------------------------------
# equivalence certificates
# ---------------------------------------------------------------------------

def test_equivalent_under_permutation_and_rescaling():
    rng = np.random.default_rng(21)
    net = random_irreducible_relu(rng, 4, 3)
    order = rng.permutation(4)
    rows = []
    for k in order:
        n = net.neurons[int(k)]
        lam = rng.uniform(0.5, 2.0)
        rows.append((lam * n.a, lam * n.b, n.s / lam))
    other = make_net("relu", rows, net.c, d=3)
    cert = si.test_equivalent(net, other)
    assert cert is not None and cert.K == frozenset()
    assert sorted(cert.permutation) == [0, 1, 2, 3]
    assert all(l > 0 for l in cert.lam)


def test_equivalent_all_flipped_with_vanishing_flip_sum():
    root2 = np.sqrt(2.0)
    a = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0]) / root2]
    s = [1.0, 1.0, -root2]
    net = make_net("relu", [(a[k], 0.0, s[k]) for k in range(3)], 0.0)
    flipped = make_net("relu", [(-a[k], 0.0, s[k]) for k in range(3)], 0.0)
    cert = si.test_equivalent(net, flipped)
    assert cert is not None and cert.K == frozenset({0, 1, 2})
    pts = np.random.default_rng(2).uniform(-3, 3, size=(1000, 2))
    base = evaluate_many(net, pts)
    dev = np.max(np.abs(evaluate_many(flipped, pts) - base) / (1 + np.abs(base)))
    assert dev <= 1e-8


def test_constant_shift_breaks_equivalence():
    net = cross_net()
    shifted = make_net("relu", [(n.a, n.b, n.s) for n in net.neurons], net.c + 1.0, d=2)
    assert si.test_equivalent(net, shifted) is None


def test_different_neuron_counts_not_equivalent():
    net = cross_net()
    bigger = make_net("relu", [(n.a, n.b, n.s) for n in net.neurons]
                      + [((0.0, 1.0), 0.5, 1.0)], net.c, d=2)
    assert si.test_equivalent(net, bigger) is None


def test_certificates_are_sound_on_random_pairs():
    rng = np.random.default_rng(31)
    for _ in range(20):
        d = int(rng.integers(2, 4))
        m = int(rng.integers(1, 5))
        net = random_irreducible_relu(rng, m, d)
        order = rng.permutation(m)
        rows = []
        for k in order:
            n = net.neurons[int(k)]
            lam = rng.uniform(0.5, 2.0)
            rows.append((lam * n.a, lam * n.b, n.s / lam))
        other = make_net("relu", rows, net.c, d=d)
        cert = si.test_equivalent(net, other)
        assert cert is not None
        pts = rng.uniform(-3, 3, size=(1000, d))
        base = evaluate_many(net, pts)
        assert np.max(np.abs(evaluate_many(other, pts) - base)) <= 1e-8 * (1 + np.max(np.abs(base)))


def test_equivalence_requires_distinct_hyperplanes():
    a = np.array([1.0, 0.0])
    paired = make_net("relu", [(a, 0.0, 1.0), (-a, 0.0, 2.0)], 0.0)
    with pytest.raises(HypothesisError):
        si.test_equivalent(paired, paired)


def test_certificate_json_shape():
    rng = np.random.default_rng(77)
    net = random_irreducible_relu(rng, 2, 2)
    cert = si.test_equivalent(net, net)
    obj = certificate_to_json_obj(cert)
    assert set(obj) == {"permutation", "epsilon", "lambda", "K", "constant_shift"}
    assert obj["permutation"] == [0, 1] and obj["K"] == []

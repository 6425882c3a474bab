import numpy as np
import pytest

import shallowid as si
from shallowid import InputError, build_pair, evaluate, evaluate_many, group
from shallowid.relu_adversary import pair_to_json_obj


def test_pair_agrees_on_points_and_splits_at_witness():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-2.0, 2.0, size=(10, 3))
    pair = build_pair(pts, m=2, seed=1)
    agree = np.max(np.abs(evaluate_many(pair.net1, pts) - evaluate_many(pair.net2, pts)))
    assert agree <= 1e-12
    gap = abs(evaluate(pair.net1, pair.witness) - evaluate(pair.net2, pair.witness))
    p = pair.params
    # on the base hyperplane the two nets differ by (eps' - eps) * <n, x0>
    assert gap == pytest.approx((p.eps_prime - p.eps) * float(p.n @ pair.witness),
                                rel=1e-9)
    assert gap > 0


def test_witness_sits_on_base_hyperplane_with_positive_normal_component():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.0, 1.0, size=(30, 4))
    pair = build_pair(pts, m=3, seed=9)
    p = pair.params
    assert abs(float(p.w @ pair.witness) + p.b) < 1e-12
    assert float(p.n @ pair.witness) == pytest.approx(1.0)
    assert abs(float(p.n @ p.w)) < 1e-12
    assert 0 < p.eps < p.eps_prime


def test_both_nets_irreducible_and_not_equivalent():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-2.0, 2.0, size=(50, 2))
    pair = build_pair(pts, m=4, seed=2)
    for net in (pair.net1, pair.net2):
        g = group(net)
        assert not g.K1  # all hyperplanes distinct
        assert si.test_reducible(g) is None
    assert si.test_equivalent(pair.net1, pair.net2) is None


def test_margin_condition_holds_at_every_point():
    rng = np.random.default_rng(8)
    pts = rng.uniform(-3.0, 3.0, size=(100, 3))
    pair = build_pair(pts, m=5, seed=4)
    p = pair.params
    base = np.abs(pts @ p.w + p.b)
    reach = np.abs(pts @ p.n)
    assert np.all(p.eps_prime * reach < base)
    assert np.all(base > 0)


def test_rejects_dimension_one_and_single_neuron():
    with pytest.raises(InputError):
        build_pair(np.array([[1.0], [2.0]]), m=2, seed=0)
    with pytest.raises(InputError):
        build_pair(np.array([[1.0, 2.0]]), m=1, seed=0)


def test_pair_json_contains_both_nets_and_parameters():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.0, 1.0, size=(5, 2))
    pair = build_pair(pts, m=2, seed=3)
    obj = pair_to_json_obj(pair)
    assert set(obj) == {"net1", "net2", "witness", "params"}
    assert len(obj["params"]["extra_neurons"]) == 0
    assert obj["params"]["eps"] < obj["params"]["eps_prime"]


def test_extra_neurons_avoid_every_earlier_hyperplane():
    # a coarse match_tol makes the construction redraw about three extras
    # for every one it keeps
    from shallowid.tolerances import ToleranceConfig
    from helpers import oracle_canonical_hyperplane

    tol = ToleranceConfig(match_tol=0.8)
    rng = np.random.default_rng(12)
    for seed in range(5):
        pts = rng.uniform(-2.0, 2.0, size=(30, 3))
        p = build_pair(pts, m=6, seed=seed, tol=tol).params
        taken = [oracle_canonical_hyperplane(p.w + sign * eps * p.n, p.b)[0]
                 for eps in (p.eps, p.eps_prime) for sign in (1.0, -1.0)]
        for a, b in p.extra_neurons:
            h, _ = oracle_canonical_hyperplane(a, b)
            assert not any(h.matches(other, tol) for other in taken)
            taken.append(h)

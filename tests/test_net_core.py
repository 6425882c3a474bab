import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shallowid as si
from shallowid import (AdmissibilityError, InputError, ParseError, deserialize,
                       evaluate, evaluate_many, group, make_net, serialize)
from shallowid.net_core import (_duplicate_ridges, _row_norms, admissibility_violations,
                                canonical_hyperplane, grouped_from_entries)
from shallowid.tolerances import DEFAULT_TOL

from conftest import examples
from helpers import (equivalent_analytic_variant, oracle_admissibility_violations,
                     oracle_canonical_hyperplane, oracle_duplicate_ridges, oracle_group,
                     oracle_grouped_from_entries, oracle_test_equivalent,
                     oracle_test_equivalent_analytic, random_analytic_net,
                     random_irreducible_relu, random_structured_relu)


def cross_net():
    return make_net("relu", [((1.0, 1.0), 0.0, 1.0), ((1.0, -1.0), 0.0, 1.0)], 0.0)


def test_evaluate_relu_two_ridges():
    assert evaluate(cross_net(), (1.0, 0.0)) == pytest.approx(2.0)


def test_evaluate_sigmoid_at_zero():
    net = make_net("sigmoid", [((1.0,), 0.0, 1.0)], 0.0)
    assert evaluate(net, (0.0,)) == pytest.approx(0.5)


def test_tanh_matches_doubled_sigmoid_pointwise():
    rng = np.random.default_rng(0)
    tnet = make_net("tanh", [((0.7, -0.4), 0.3, 1.2), ((-1.1, 0.5), -0.2, -0.8)], 0.4)
    # tanh(u) = 2*sigmoid(2u) - 1, so doubling (a, b), doubling s and shifting
    # the constant by -sum(s) gives the same function
    snet = make_net("sigmoid",
                    [(2 * n.a, 2 * n.b, 2 * n.s) for n in tnet.neurons],
                    tnet.c - sum(n.s for n in tnet.neurons), d=2)
    x = rng.uniform(-3.0, 3.0, size=(100, 2))
    assert np.max(np.abs(evaluate_many(tnet, x) - evaluate_many(snet, x))) < 1e-12


def test_evaluate_dimension_mismatch():
    with pytest.raises(InputError):
        evaluate(cross_net(), (1.0, 0.0, 0.0))


def test_group_folds_norms_into_scales():
    g = group(cross_net())
    assert not g.K1 and len(g.K2) == 2
    root2 = np.sqrt(2.0)
    directions = sorted(tuple(np.round(e.a * root2)) for e in g.K2)
    assert directions == [(1.0, -1.0), (1.0, 1.0)]
    assert all(e.s == pytest.approx(root2) for e in g.K2)


def test_group_preserves_evaluation_on_random_nets():
    rng = np.random.default_rng(7)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        net = random_irreducible_relu(rng, int(rng.integers(1, 6)), d)
        g = group(net)
        x = rng.uniform(-4.0, 4.0, size=(1000, d))
        base = evaluate_many(net, x)
        regrouped = evaluate_many(g.to_net(), x)
        assert np.max(np.abs(regrouped - base)) <= 1e-10 * (1.0 + np.max(np.abs(base)))


def test_group_preserves_evaluation_with_paired_hyperplanes():
    rng = np.random.default_rng(8)
    for _ in range(10):
        net = random_structured_relu(rng)
        g = group(net)
        x = rng.uniform(-4.0, 4.0, size=(1000, 2))
        base = evaluate_many(net, x)
        regrouped = evaluate_many(g.to_net(), x)
        assert np.max(np.abs(regrouped - base)) <= 1e-10 * (1.0 + np.max(np.abs(base)))


def test_group_pairs_opposite_orientations():
    a1 = np.array([1.0, 0.0])
    a2 = np.array([0.0, 1.0])
    net = make_net("relu", [(a1, 0.0, 1.0), (-a1, 0.0, -1.0),
                            (a2, 0.0, 1.0), (-a2, 0.0, -1.0)], 0.0)
    g = group(net)
    assert len(g.K1) == 2 and len(g.K2) == 0 and g.m == 4


def test_group_rejects_positive_duplicate():
    net = make_net("relu", [((1.0, 0.0), 0.5, 1.0), ((2.0, 0.0), 1.0, -1.0)], 0.0)
    with pytest.raises(AdmissibilityError):
        group(net)


def test_group_rejects_zero_neuron():
    net = make_net("relu", [((1.0, 0.0), 0.5, 0.0)], 0.0)
    with pytest.raises(AdmissibilityError) as err:
        group(net)
    assert err.value.details["violations"][0]["clause"] == "i"


def test_group_equals_grouped_from_entries_on_rescaled_entries():
    rng = np.random.default_rng(4040)
    for i in range(300):
        if i % 3 == 0:
            net = random_irreducible_relu(rng, int(rng.integers(1, 7)), int(rng.integers(1, 5)))
        else:
            net = random_structured_relu(rng, max_m=6)
        g = group(net)
        ref = grouped_from_entries([(n.a, n.b, n.s * float(np.linalg.norm(n.a)))
                                    for n in net.neurons], net.c, net.d)
        assert (g.c, g.d, len(g.K1), len(g.K2)) == (ref.c, ref.d, len(ref.K1), len(ref.K2))
        for p, q in zip(g.K1, ref.K1):
            assert np.array_equal(p.h.a, q.h.a) and (p.h.b, p.s1, p.s2) == (q.h.b, q.s1, q.s2)
        for e, f in zip(g.K2, ref.K2):
            assert np.array_equal(e.a, f.a) and (e.b, e.s) == (f.b, f.s)


def test_group_rejects_duplicate_that_only_canonical_matching_sees():
    # dividing by a norm of 1 - 1e-13 pushes the bias gap just over match_tol
    # in the scan, while canonical form (no division at unit norm) keeps it
    # just under, so the two neurons meet in one orientation slot
    gap = DEFAULT_TOL.match_tol * (1 - 5e-14)
    net = make_net("relu", [((1.0, 0.0), 0.0, 1.0), ((1.0 - 1e-13, 0.0), gap, 1.0)], 0.0)
    with pytest.raises(AdmissibilityError, match=r"clause \(ii\)") as err:
        group(net)
    assert err.value.details["violations"] == admissibility_violations(net) == [
        {"clause": "ii", "neurons": [0, 1], "reason": "positive-scale duplicate ridge"}]


def test_admissibility_violations_name_the_tie_nets_slot_collision():
    # the unit rows' biases differ by just over match_tol, so the ridge check
    # passes them, but the canonical hyperplanes (the first row is not divided
    # at unit norm) match: admissibility_violations and group give one answer
    net = make_net("relu", [((1.0000000000005, 0.0), 1.0000000000005, 1.0),
                            ((1.0, 0.0), 1.0000000100003, 1.0)], 0.0)
    expected = [{"clause": "ii", "neurons": [0, 1], "reason": "positive-scale duplicate ridge"}]
    assert admissibility_violations(net) == expected
    with pytest.raises(AdmissibilityError) as err:
        group(net)
    assert err.value.details["violations"] == expected


@pytest.mark.parametrize("kind, second, reason", [
    ("relu", ((2.0, 0.0), 1.0), "positive-scale duplicate ridge"),
    ("relu", ((-1.0, 0.0), -0.5), None),
    ("sigmoid", ((2.0, 0.0), 1.0), None),
    ("tanh", ((-1.0, 0.0), -0.5), "sign-duplicate ridge")])
def test_duplicate_ridges_depend_on_the_activation(kind, second, reason):
    # relu is positively homogeneous; sigma(x) + sigma(-x) is constant for
    # sigmoid and tanh
    net = make_net(kind, [((1.0, 0.0), 0.5, 1.0), (*second, 1.0)], 0.0)
    reasons = [v["reason"] for v in admissibility_violations(net)]
    assert reasons == ([reason] if reason else [])


def test_canonical_hyperplane_idempotent_and_sign_stable():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.normal(size=4)
        b = rng.uniform(-2.0, 2.0)
        h, _ = canonical_hyperplane(a, b)
        h2, sign = canonical_hyperplane(h.a, h.b)
        assert sign == 1.0
        assert np.array_equal(h.a, h2.a) and h.b == h2.b
        flipped, sign = canonical_hyperplane(-3.0 * a, -3.0 * b)
        assert np.max(np.abs(flipped.a - h.a)) < 1e-12
        assert abs(flipped.b - h.b) < 1e-12


@settings(max_examples=examples(60), deadline=None)
@given(lam=st.floats(min_value=1e-3, max_value=1e3),
       seed=st.integers(min_value=0, max_value=2**16))
def test_relu_positive_homogeneity(lam, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=3)
    b, s = rng.uniform(-1, 1), rng.uniform(0.5, 2)
    net = make_net("relu", [(a, b, s)], 0.2)
    scaled = make_net("relu", [(lam * a, lam * b, s / lam)], 0.2)
    x = rng.uniform(-2.0, 2.0, size=(50, 3))
    base = evaluate_many(net, x)
    assert np.max(np.abs(evaluate_many(scaled, x) - base)) <= 1e-12 * (1 + np.max(np.abs(base)))


def test_serialize_round_trip():
    net = cross_net()
    back = deserialize(serialize(net))
    assert back.activation.kind == "relu" and back.d == 2 and back.m == 2
    assert back.c == net.c
    for n1, n2 in zip(net.neurons, back.neurons):
        assert np.array_equal(n1.a, n2.a) and n1.b == n2.b and n1.s == n2.s


def test_serialize_shortest_repr_survives():
    net = make_net("relu", [((0.1, 1 / 3), np.pi, 1e-17)], 2 / 7, d=2)
    back = deserialize(serialize(net))
    assert back.neurons[0].a[1] == 1 / 3 and back.neurons[0].b == np.pi
    assert back.neurons[0].s == 1e-17 and back.c == 2 / 7


def test_deserialize_missing_activation():
    with pytest.raises(ParseError):
        deserialize(json.dumps({"d": 2, "neurons": [], "c": 0.0}))


def test_deserialize_wrong_neuron_length_names_index():
    obj = {"activation": "relu", "d": 2,
           "neurons": [{"a": [1.0, 0.0], "b": 0.0, "s": 1.0},
                       {"a": [1.0], "b": 0.0, "s": 1.0}], "c": 0.0}
    with pytest.raises(ParseError) as err:
        deserialize(json.dumps(obj))
    assert "neuron 1" in str(err.value) or "neurons[1]" in err.value.location


def test_deserialize_rejects_bad_json():
    with pytest.raises(ParseError):
        deserialize(b"{not json")


def test_deserialize_rejects_nonfinite():
    with pytest.raises(ParseError):
        deserialize('{"activation":"relu","d":1,"neurons":[{"a":[NaN],"b":0,"s":1}],"c":0}')


@settings(max_examples=examples(50), deadline=None)
@given(neurons=st.lists(st.tuples(
    st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=3, max_size=3),
    st.floats(min_value=-1e6, max_value=1e6),
    st.floats(min_value=-1e6, max_value=1e6)), max_size=6),
    c=st.floats(min_value=-1e6, max_value=1e6),
    kind=st.sampled_from(["relu", "sigmoid", "tanh"]))
def test_serialize_round_trip_is_exact(neurons, c, kind):
    net = make_net(kind, neurons, c, d=3)
    back = deserialize(serialize(net))
    assert back.c == net.c and back.m == net.m
    for n1, n2 in zip(net.neurons, back.neurons):
        assert np.array_equal(n1.a, n2.a) and n1.b == n2.b and n1.s == n2.s


# ---------------------------------------------------------------------------
# the match matrices against the pairwise loops they replaced
# ---------------------------------------------------------------------------

TOL = DEFAULT_TOL.match_tol
# a planted gap exactly at the tolerance, one ulp either side of it, inside
# it, or none at all
GAPS = [0.0, 0.5 * TOL, TOL, -TOL, np.nextafter(TOL, 0.0), np.nextafter(TOL, 1.0),
        np.nextafter(-TOL, 0.0), np.nextafter(-TOL, -1.0), 2 * TOL]


def _planted_rows(rng, m, d, unit, gaps, lams):
    """m rows (a, b, s): fresh random or lattice rows, and copies lam * (a, b)
    of an earlier row moved by one of ``gaps`` in b or in one entry of a; one
    row in ten has a zero scale or a zero direction."""

    rows = []
    for _ in range(m):
        if rows and rng.random() < 0.6:
            a0, b0, _ = rows[int(rng.integers(len(rows)))]
            lam = float(rng.choice(lams))
            a, b = lam * a0, lam * b0
            gap = float(rng.choice(gaps))
            if rng.random() < 0.5:
                b = b + gap
            else:
                a = a.copy()
                a[int(rng.integers(d))] += gap
        elif rng.random() < 0.3:
            # zero entries make a planted gap exact: |0 - gap| == gap
            a = rng.choice([-1.0, 0.0, 0.0, 1.0], size=d)
            b = float(rng.choice([-0.5, 0.0, 0.0, 0.5]))
        else:
            a = rng.normal(size=d)
            if unit:
                a /= np.linalg.norm(a)
            b = float(rng.uniform(-1.0, 1.0))
        roll = rng.random()
        s = 0.0 if roll < 0.05 else float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
        rows.append((np.zeros(d) if 0.05 <= roll < 0.1 else a, float(b), s))
    return rows


def _grouped_bits(g):
    return ([(p.h.a.tobytes(), p.h.b.hex(), float(p.s1).hex(), float(p.s2).hex()) for p in g.K1],
            [(e.a.tobytes(), float(e.b).hex(), float(e.s).hex()) for e in g.K2], g.c.hex(), g.d)


def _outcome(fn, *args):
    """Bit-exact result of fn, or the type, message and details of its error."""

    try:
        return _grouped_bits(fn(*args))
    except (AdmissibilityError, InputError) as err:
        return type(err).__name__, err.message, err.details


_planted = dict(seed=st.integers(min_value=0, max_value=2**32 - 1),
                m=st.integers(min_value=0, max_value=7), d=st.integers(min_value=1, max_value=4),
                unit=st.booleans(), gaps=st.lists(st.sampled_from(GAPS), min_size=1, max_size=3))


@settings(max_examples=examples(200), deadline=None)
@given(shape=st.tuples(st.integers(0, 30), st.integers(1, 12)),
       scale=st.sampled_from([1e-150, 1e-3, 1.0, 1e3, 1e150]),
       seed=st.integers(min_value=0, max_value=2**32 - 1), strided=st.booleans())
def test_row_norms_are_the_per_row_norms_bit_for_bit(shape, scale, seed, strided):
    A = np.random.default_rng(seed).normal(size=(shape[0], 2 * shape[1])) * scale
    A = A[:, ::2] if strided else A[:, :shape[1]]
    assert _row_norms(A).tobytes() == np.array([np.linalg.norm(r) for r in A]).tobytes()


@settings(max_examples=examples(200), deadline=None)
@given(signs=st.sampled_from([(1,), (1.0, -1.0)]), **_planted)
def test_duplicate_ridges_match_the_pairwise_loop(signs, seed, m, d, unit, gaps):
    rng = np.random.default_rng(seed)
    rows = _planted_rows(rng, m, d, unit, gaps, [1.0, -1.0, 2.0])
    skipped = rng.random(m) < 0.2
    keep = np.flatnonzero(~skipped)
    A = np.array([a for a, _, _ in rows]).reshape(m, d)[keep]
    B = np.array([b for _, b, _ in rows])[keep]
    pairs = [keep[pair].tolist() for pair in _duplicate_ridges(A, B, signs, DEFAULT_TOL)]
    oracle = oracle_duplicate_ridges([None if skip else (a, b) for (a, b, _), skip
                                      in zip(rows, skipped)], signs)
    assert pairs == oracle


@settings(max_examples=examples(300), deadline=None)
@given(kind=st.sampled_from(["relu", "relu", "sigmoid", "tanh"]), **_planted)
def test_admissibility_and_group_match_the_pairwise_loops(kind, seed, m, d, unit, gaps):
    rng = np.random.default_rng(seed)
    # a positive multiple duplicates a relu ridge, a negative one pairs it
    rows = _planted_rows(rng, m, d, unit, gaps, [1.0, -1.0, 0.5, -2.0])
    net = make_net(kind, rows, float(rng.uniform(-1.0, 1.0)), d=d)
    violations = admissibility_violations(net)
    if kind == "relu":
        got, ref = _outcome(group, net), _outcome(oracle_group, net)
        merged = {"clause": "ii", "reason": "positive-scale duplicate ridge"}
        if ref[0] == "AdmissibilityError" and ref[2]["violations"] == [merged]:
            # the loop named no neurons when two met in one slot; group and
            # admissibility_violations name the two, which share an orientation
            k1, k2 = got[2]["violations"][0].pop("neurons")
            assert violations[0].pop("neurons") == [k1, k2]
            assert 0 <= k1 < k2 < m
            assert (oracle_canonical_hyperplane(*rows[k1][:2])[1]
                    == oracle_canonical_hyperplane(*rows[k2][:2])[1])
        assert got == ref
    assert violations == oracle_admissibility_violations(net)


@settings(max_examples=examples(300), deadline=None)
@given(**_planted)
def test_grouped_from_entries_matches_the_bucket_loop(seed, m, d, unit, gaps):
    # raw terms: scales of any size, coincident slots that merge, and a zero
    # direction, which neither can orient
    rng = np.random.default_rng(seed)
    rows = _planted_rows(rng, m, d, unit, gaps, [1.0, -1.0, 0.5, -2.0])
    c = float(rng.uniform(-1.0, 1.0))
    assert (_outcome(grouped_from_entries, rows, c, d)
            == _outcome(oracle_grouped_from_entries, rows, c, d))
    for a, b, _ in rows:
        try:
            h, sign = canonical_hyperplane(a, b)
        except InputError as err:
            with pytest.raises(InputError, match=err.message):
                oracle_canonical_hyperplane(a, b)
            continue
        ref, ref_sign = oracle_canonical_hyperplane(a, b)
        assert (h.a.tobytes(), h.b.hex(), sign) == (ref.a.tobytes(), ref.b.hex(), ref_sign)


def test_grouped_from_entries_rejects_a_zero_direction():
    with pytest.raises(InputError, match="numerically zero"):
        grouped_from_entries([((1.0, 0.0), 0.0, 1.0), ((0.0, 0.0), 1.0, 1.0)], 0.0, 2)


# ---------------------------------------------------------------------------
# equivalence certificates
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["relu", "sigmoid", "tanh"])
def test_equivalence_matches_ridges_across_the_sign_boundary(kind):
    # the first entries differ by 2e-11, far below match_tol, but they sit on
    # either side of the zero threshold that fixes a canonical sign
    second = ((0.6, -0.8), 0.1, -0.7)
    n1 = make_net(kind, [((1e-11, 1.0), 0.3, 1.5), second], 0.2)
    n2 = make_net(kind, [((-1e-11, 1.0), 0.3, 1.5), second], 0.2)
    cert = si.test_equivalent(n1, n2)
    assert cert is not None and cert.K == frozenset() and cert.epsilon == (1, 1)
    assert cert.permutation == (0, 1) and cert.constant_shift == 0.0


@pytest.mark.parametrize("position", ["first", "second"])
@pytest.mark.parametrize("kind, reason", [
    ("relu", ": clause (ii) positive-scale duplicate ridge"), ("sigmoid", ""), ("tanh", "")])
def test_equivalence_names_the_inadmissible_network(position, kind, reason):
    dup = make_net(kind, [((1.0, 0.0), 0.5, 1.0), ((1.0, 0.0), 0.5, -2.0)], 0.0)
    ok = make_net(kind, [((1.0, 1.0), 0.0, 1.0), ((1.0, -1.0), 0.0, 1.0)], 0.0)
    n1, n2 = (dup, ok) if position == "first" else (ok, dup)
    with pytest.raises(AdmissibilityError) as err:
        si.test_equivalent(n1, n2)
    assert err.value.message == f"{position} network is not admissible{reason}"
    assert err.value.details["network"] == position
    assert err.value.details["violations"][0]["clause"] == "ii"


@pytest.mark.parametrize("kind", ["relu", "sigmoid", "tanh"])
def test_equivalence_matching_is_bijective(kind):
    # both ridges of n1 lie within match_tol of n2's first ridge, but only one
    # of them may take it
    n1 = make_net(kind, [((1.0, 0.0), 0.0, 1.0), ((1.0, 0.0), 1.5e-8, 1.0)], 0.0)
    n2 = make_net(kind, [((1.0, 0.0), 0.75e-8, 1.0), ((0.0, 1.0), 0.5, 1.0)], 0.0)
    assert si.test_equivalent(n1, n2) is None


def _relu_with_parallel_pairs(rng, d, m, n_pairs, sep=5e-2):
    """Admissible relu net with distinct hyperplanes whose last 2*n_pairs
    neurons form parallel couples (a, b, s), (mu*a, b', -s/mu): flipping both
    members of a couple frees s*a - (s/mu)*(mu*a) = 0."""

    rows = [(n.a, n.b, n.s) for n in random_irreducible_relu(rng, m, d).neurons]
    planes = [canonical_hyperplane(a, b)[0] for a, b, _ in rows]
    added = 0
    while added < n_pairs:
        a = rng.normal(size=d)
        a *= rng.uniform(0.6, 1.8) / np.linalg.norm(a)
        mu = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        s = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        couple = [(a, rng.uniform(-1.0, 1.0), s), (mu * a, rng.uniform(-1.0, 1.0), -s / mu)]
        new = [canonical_hyperplane(a2, b2)[0] for a2, b2, _ in couple]
        if all(float(np.max(np.abs(h.a - h2.a))) + abs(h.b - h2.b) > sep
               for i, h in enumerate(new) for h2 in planes + new[:i]):
            rows += couple
            planes += new
            added += 1
    return make_net("relu", rows, rng.uniform(-1.0, 1.0), d=d)


def _perturbed(rng, net):
    """The net with one parameter moved by at least 100 * match_tol."""

    delta = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(np.log10(100 * DEFAULT_TOL.match_tol), -3)
    rows = [[n.a.copy(), n.b, n.s] for n in net.neurons]
    field = int(rng.integers(4))
    if field == 0:
        return make_net(net.activation.kind, rows, net.c + delta, d=net.d)
    k = int(rng.integers(len(rows)))
    if field == 1:
        rows[k][0][int(rng.integers(net.d))] += delta
    else:
        rows[k][field - 1] += delta
    return make_net(net.activation.kind, rows, net.c, d=net.d)


def _relu_pair(rng, d, m, variant):
    n_pairs = int(rng.integers(0, 3))
    net = _relu_with_parallel_pairs(rng, d, m, n_pairs)
    if variant == "unrelated":
        return net, random_irreducible_relu(rng, net.m - int(rng.integers(0, 2)), d)
    # flip every couple chosen, or nothing: a flip set whose s*a cancel; an
    # "uncancelled" pair flips one more neuron on its own
    flips = {k for j in range(n_pairs) if rng.random() < 0.7
             for k in (m + 2 * j, m + 2 * j + 1)}
    if variant == "uncancelled":
        flips.add(int(rng.integers(m)))
    rows, c = [], net.c
    for k in rng.permutation(net.m):
        n = net.neurons[int(k)]
        lam = rng.uniform(0.5, 2.0) * (-1.0 if k in flips else 1.0)
        rows.append((lam * n.a, lam * n.b, n.s / abs(lam)))
        if k in flips:
            c += n.s * n.b
    other = make_net("relu", rows, c, d=d)
    return net, (_perturbed(rng, other) if variant == "perturbed" else other)


def _analytic_pair(rng, kind, d, m, variant):
    net = random_analytic_net(rng, m, d, kind)
    if variant == "unrelated":
        return net, random_analytic_net(rng, m - int(rng.integers(0, 2)), d, kind)
    other = equivalent_analytic_variant(rng, net)
    return net, (_perturbed(rng, other) if variant == "perturbed" else other)


def _bits(cert):
    if cert is None:
        return None
    return (cert.permutation, cert.epsilon, tuple(v.hex() for v in cert.lam),
            cert.K, cert.constant_shift.hex())


@settings(max_examples=examples(150), deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       kind_variant=st.sampled_from(
           [("relu", v) for v in ("copy", "perturbed", "uncancelled", "unrelated")]
           + [(k, v) for k in ("sigmoid", "tanh") for v in ("copy", "perturbed", "unrelated")]),
       d=st.integers(min_value=1, max_value=4), m=st.integers(min_value=1, max_value=5))
def test_equivalent_agrees_with_the_old_tests(seed, kind_variant, d, m):
    kind, variant = kind_variant
    rng = np.random.default_rng(seed)
    if kind == "relu":
        n1, n2 = _relu_pair(rng, d, m, variant)
        cert = si.test_equivalent(n1, n2)
        assert _bits(cert) == _bits(oracle_test_equivalent(n1, n2))
    else:
        n1, n2 = _analytic_pair(rng, kind, d, m, variant)
        cert = si.test_equivalent(n1, n2)
        assert (cert is not None) == oracle_test_equivalent_analytic(n1, n2)
    assert (cert is not None) == (variant == "copy")
    if variant == "copy":
        x = rng.uniform(-3.0, 3.0, size=(200, d))
        base = evaluate_many(n1, x)
        assert np.max(np.abs(evaluate_many(n2, x) - base)) <= 1e-9 * (1 + np.max(np.abs(base)))

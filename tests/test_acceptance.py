"""Acceptance suite: every criterion at its stated tolerance, one PASS/FAIL
line printed per criterion (run with -s to watch them live)."""

import functools
import itertools
import json
import time
from math import comb

import numpy as np

import shallowid as si
from shallowid import (build_analytic_plan, build_feasible_lines, build_pair,
                       build_sample_plan, cleared_form_value, evaluate_many,
                       exp_sum_expansion, group, make_net, net_core,
                       reconstruct, reduce_fully, sample_values,
                       vandermonde_frame, verify_identification)

from helpers import (cancelling_pairs_instance, clause_i_instance,
                     clause_ii_instance, clause_k1_ge_3_instance, dense_grid,
                     equivalent_analytic_variant, oracle_reducible,
                     random_analytic_net, random_irreducible_relu,
                     random_structured_relu, run_cli, separating_direction)


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            start = time.monotonic()
            try:
                fn()
            except BaseException as exc:
                print(f"FAIL {label}: {type(exc).__name__}: {exc}")
                raise
            print(f"PASS {label} ({time.monotonic() - start:.2f}s)")
        return run
    return wrap


@criterion("criterion 1: exact sample-count formulas")
def test_criterion_1_sample_counts():
    # spin up the linear-algebra backend and code paths once, untimed
    rng = np.random.default_rng(100)
    warm = random_irreducible_relu(rng, 1, 2)
    build_sample_plan(group(warm), build_feasible_lines(group(warm), seed=0), seed=0)
    rng = np.random.default_rng(100)
    elapsed = 0.0
    for m, d in itertools.product(range(1, 6), range(2, 5)):
        net = random_irreducible_relu(rng, m, d)
        g = group(net)
        start = time.monotonic()
        lines = build_feasible_lines(g, seed=m * 10 + d)
        plan = build_sample_plan(g, lines, seed=m * 10 + d)
        elapsed += time.monotonic() - start
        assert plan.points.shape[0] == (2 * m + 2) * m * d
        assert len(lines.lines) == m * d
    for m, d in itertools.product(range(1, 4), range(1, 4)):
        start = time.monotonic()
        plan = build_analytic_plan(m, d)
        elapsed += time.monotonic() - start
        assert plan.size == (comb(4 * m, 2) * (d - 1) + 1) * 2 ** (2 * m)
    assert elapsed < 1.0, f"plan construction took {elapsed:.2f}s"


@criterion("criterion 2: relu round-trip identification, 100/100")
def test_criterion_2_round_trip():
    start = time.monotonic()
    combos = list(itertools.product((2, 3, 4), (1, 2, 3, 4, 5)))
    found = 0
    for i in range(100):
        d, m = combos[i % len(combos)]
        rng = np.random.default_rng(20_000 + i)
        net = random_irreducible_relu(rng, m, d)
        g = group(net)
        lines = build_feasible_lines(g, seed=i)
        plan = build_sample_plan(g, lines, seed=i)
        rebuilt = reconstruct(sample_values(net, plan))
        cert = si.test_equivalent(net, rebuilt)
        assert cert is not None, f"run {i}: no certificate (d={d}, m={m})"
        found += 1
        probe = rng.uniform(-3.0, 3.0, size=(1000, d))
        base = evaluate_many(net, probe)
        dev = np.max(np.abs(evaluate_many(rebuilt, probe) - base) / (1.0 + np.abs(base)))
        assert dev <= 1e-8, f"run {i}: deviation {dev:.2e}"
    assert found == 100
    assert time.monotonic() - start < 30.0


@criterion("criterion 3: impossibility pairs, 50/50")
def test_criterion_3_adversaries():
    start = time.monotonic()
    for i in range(50):
        rng = np.random.default_rng(30_000 + i)
        d = int(rng.integers(2, 6))
        m = int(rng.integers(2, 7))
        n = int(rng.integers(1, 201))
        pts = rng.uniform(-2.0, 2.0, size=(n, d))
        pair = build_pair(pts, m, seed=i)
        agree = float(np.max(np.abs(evaluate_many(pair.net1, pts)
                                    - evaluate_many(pair.net2, pts))))
        assert agree <= 1e-12, f"run {i}: agreement gap {agree:.2e}"
        gap = abs(si.evaluate(pair.net1, pair.witness)
                  - si.evaluate(pair.net2, pair.witness))
        assert gap >= 1e-6, f"run {i}: witness gap {gap:.2e}"
        assert si.test_equivalent(pair.net1, pair.net2) is None, f"run {i}"
    assert time.monotonic() - start < 5.0


@criterion("criterion 4: one reduction per decision branch")
def test_criterion_4_reduction_clauses():
    cases = [
        (clause_k1_ge_3_instance(), "K1_ge_3"),
        (clause_i_instance(), "K1_eq_1"),
        (clause_ii_instance(), "K1_eq_2"),
        (cancelling_pairs_instance(), "cancellation"),
    ]
    rng = np.random.default_rng(40_000)
    for net, expected_case in cases:
        witness = si.test_reducible(group(net))
        assert witness is not None and witness.case == expected_case
        reduced = reduce_fully(net)
        assert reduced.m < net.m
        probe = rng.uniform(-3.0, 3.0, size=(1000, net.d))
        base = evaluate_many(net, probe)
        dev = np.max(np.abs(evaluate_many(reduced, probe) - base) / (1.0 + np.abs(base)))
        assert dev <= 1e-9, f"{expected_case}: deviation {dev:.2e}"


@criterion("criterion 5: brute-force oracle agreement, 200 nets")
def test_criterion_5_oracle_agreement():
    start = time.monotonic()
    grid = dense_grid(2)
    flagged = []
    for i in range(200):
        rng = np.random.default_rng(50_000 + i)
        net = random_structured_relu(rng)
        decided = si.test_reducible(group(net)) is not None
        oracle = oracle_reducible(net, grid)
        if decided != oracle:
            flagged.append({"run": i, "decided": decided, "oracle": oracle,
                            "net": net_core.net_to_json_obj(net)})
    assert flagged == [], f"disagreements: {json.dumps(flagged)[:2000]}"
    assert time.monotonic() - start < 60.0


@criterion("criterion 6: analytic identification, 50 pairs")
def test_criterion_6_analytic_pairs():
    plans = {}
    for i in range(50):
        rng = np.random.default_rng(60_000 + i)
        m = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        kind = "sigmoid" if i % 2 == 0 else "tanh"
        net = random_analytic_net(rng, m, d, kind)
        make_equivalent = i % 2 == 0
        if make_equivalent:
            other = equivalent_analytic_variant(rng, net)
        else:
            other = random_analytic_net(rng, m, d, kind)
        if (m, d) not in plans:
            plans[m, d] = build_analytic_plan(m, d)
        report = verify_identification(net, other, plans[m, d])
        grid = rng.uniform(-3.0, 3.0, size=(2000, d))
        base = evaluate_many(net, grid)
        grid_dev = float(np.max(np.abs(evaluate_many(other, grid) - base)))
        truly_equal = grid_dev <= 1e-10 * (1.0 + float(np.max(np.abs(base))))
        assert report.equivalent == truly_equal, f"run {i}"
        if report.equivalent:
            assert report.max_gap <= 1e-10, f"run {i}: gap {report.max_gap:.2e}"
        else:
            assert report.max_gap > 1e-8, f"run {i}: gap {report.max_gap:.2e}"


@criterion("criterion 7: exponential-sum oracle, 100 instances")
def test_criterion_7_exp_sum():
    rng = np.random.default_rng(70_000)
    xs = rng.uniform(-1.0, 1.0, size=100)
    for i in range(100):
        n = int(rng.integers(1, 7))
        a = rng.uniform(0.3, 2.0, n) * rng.choice([-1.0, 1.0], n)
        b = rng.uniform(-1.0, 1.0, n)
        all_zero = i % 10 == 0
        if all_zero:
            s, s0 = np.zeros(n), 0.0
        else:
            s = rng.uniform(-2.0, 2.0, n)
            s[int(rng.integers(n))] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
            s0 = rng.uniform(-1.0, 1.0)
        expansion = exp_sum_expansion(a, b, s, s0)
        lhs = cleared_form_value(a, b, s, s0, xs)
        rhs = expansion.evaluate(xs)
        residual = float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(lhs))))
        assert residual <= 1e-9, f"run {i}: residual {residual:.2e}"
        peak = max(abs(c) for c in expansion.coefficients)
        scale = 1.0 + float(np.max(np.abs(s))) + abs(s0)
        if all_zero:
            assert peak == 0.0, f"run {i}"
        else:
            assert peak > 1e-9 * scale, f"run {i}: peak {peak:.2e}"


@criterion("criterion 8: full spark exhaustion and separation")
def test_criterion_8_full_spark():
    for d in range(1, 5):
        for n in range(d, 13):
            frame = vandermonde_frame(d, n)
            for combo in itertools.combinations(range(n), d):
                sub = frame.vectors[list(combo)]
                norms = np.linalg.norm(sub, axis=1, keepdims=True)
                assert abs(np.linalg.det(sub / norms)) > 1e-9, (d, n, combo)
    successes = 0
    for i in range(100):
        rng = np.random.default_rng(80_000 + i)
        d = int(rng.integers(2, 5))
        m = int(rng.integers(1, 7))
        vectors = rng.uniform(-2.0, 2.0, size=(m, d))
        gaps = [np.max(np.abs(vectors[p] - vectors[q]))
                for p in range(m) for q in range(p + 1, m)]
        if gaps and min(gaps) < 1e-6:
            vectors += rng.normal(size=(m, d))
        # the separation bound, raised to d when below it (a frame needs at
        # least d vectors to span the space at all)
        frame = vandermonde_frame(d, max(d, comb(m, 2) * (d - 1) + 1))
        v = separating_direction(frame, vectors)
        inner = vectors @ v
        pair_gaps = np.abs(inner[:, None] - inner[None, :])
        np.fill_diagonal(pair_gaps, np.inf)
        assert float(np.min(pair_gaps)) > 1e-12
        successes += 1
    assert successes == 100


@criterion("criterion 9: byte-identical CLI outputs under a fixed seed")
def test_criterion_9_cli_determinism(tmp_path_factory=None):
    import tempfile
    from pathlib import Path

    def run(*args, cwd):
        proc = run_cli(*args, cwd=cwd)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        net = make_net("relu", [((1.0, 1.0), 0.0, 1.0), ((1.0, -1.0), 0.0, 1.0)], 0.0)
        (base / "net.json").write_bytes(net_core.serialize(net))
        rng = np.random.default_rng(90_000)
        (base / "pts.json").write_text(
            json.dumps({"points": rng.uniform(-2, 2, (20, 3)).tolist()}))
        an1 = make_net("sigmoid", [((1.0, 0.5), 0.2, 1.0)], 0.3)
        an2 = make_net("sigmoid", [((-1.0, -0.5), -0.2, -1.0)], 1.3)
        (base / "an1.json").write_bytes(net_core.serialize(an1))
        (base / "an2.json").write_bytes(net_core.serialize(an2))
        one_d = make_net("sigmoid", [((1.2,), 0.4, 0.7)], 0.3)
        (base / "oned.json").write_bytes(net_core.serialize(one_d))
        lin = make_net("relu", [((1.0, 0.2), 0.0, 1.0), ((-1.0, -0.2), 0.0, -1.0),
                                ((0.3, 1.0), 0.0, 1.0), ((-0.3, -1.0), 0.0, -1.0)], 0.0)
        (base / "lin.json").write_bytes(net_core.serialize(lin))

        recipes = [
            ("plan", ["plan-relu", "--net", "net.json", "--seed", "11",
                      "--out", "{out}"]),
            ("samples", ["sample", "--net", "net.json", "--plan", "plan_1.json",
                         "--out", "{out}"]),
            ("rec", ["reconstruct", "--data", "samples_1.json",
                     "--plan", "plan_1.json", "--out", "{out}"]),
            ("pair", ["adversary", "--points", "pts.json", "--m", "3",
                      "--seed", "11", "--out", "{out}"]),
            ("aplan", ["plan-analytic", "--m", "1", "--d", "2", "--out", "{out}"]),
            ("report", ["verify-analytic", "--net1", "an1.json", "--net2",
                        "an2.json", "--plan", "aplan_1.json", "--out", "{out}"]),
            ("exp", ["expsum", "--net", "oned.json", "--out", "{out}"]),
            ("red", ["reduce", "--net", "lin.json", "--out", "{out}"]),
        ]
        for name, args in recipes:
            outputs = []
            for attempt in (1, 2):
                out = f"{name}_{attempt}.json"
                run(*[a.format(out=out) for a in args], cwd=tmp)
                outputs.append((base / out).read_bytes())
            assert outputs[0] == outputs[1], f"{name} output not deterministic"
        run("equiv", "--net1", "net.json", "--net2", "net.json",
            "--cert", "cert_1.json", cwd=tmp)
        run("equiv", "--net1", "net.json", "--net2", "net.json",
            "--cert", "cert_2.json", cwd=tmp)
        assert (base / "cert_1.json").read_bytes() == (base / "cert_2.json").read_bytes()

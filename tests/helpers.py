"""Shared generators, the one-matrix affine fit, the brute-force
reducibility, witness-search, orientation, exp-sum (expansion and one-call
evaluation), one-call plan check, plan-collinearity,
hyperplane-recovery, seed-screen, line-feasibility, rank, equivalence and
pairwise grouping/admissibility oracles, the frame separating direction and
the CLI and single-BLAS-thread runners."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import numpy as np

import shallowid
from shallowid import (AdmissibilityError, ConstructionError, EquivalenceCertificate,
                       ExpSumExpansion, HypothesisError, InputError, RecoveryError,
                       ReductionWitness, ShallowNet, GroupedReLU, Hyperplane, Neuron,
                       PairedEntry, ToolkitError, admissibility_violations,
                       canonical_hyperplane, evaluate_many, group, make_net, numerics,
                       rank, relu_sampling, solve_least_squares)
from shallowid.net_core import _duplicate_ridges, _row_norms
from shallowid.numerics import affine_fits
from shallowid.relu_structure import (_cancelling_pairs, _coefficient_scale,
                                      _direction_of)
from shallowid.tolerances import DEFAULT_TOL, RANK_TOL, ZERO_TOL

# The directory that holds the imported package, so that a CLI child process
# imports the same code as the tests whatever its working directory is.
_PACKAGE_ROOT = str(Path(shallowid.__file__).resolve().parent.parent)

LATTICE_DIRECTIONS = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0),
                      (2.0, 1.0), (1.0, 2.0)]
LATTICE_BIASES = [0.0, 0.5, -0.5, 1.0]
LATTICE_SCALES = [1.0, -1.0, 0.5, -0.5, 2.0, -2.0]


def run_cli(*args, cwd=None):
    """Run ``python -m shallowid *args`` in a subprocess and capture its output."""

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "shallowid", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


def run_single_threaded(source):
    """Run ``source`` in a child Python with one BLAS thread, where the
    package and this directory import, and return its stdout.  Matrix
    products can round differently at another thread count, so bit-for-bit
    comparisons against a one-call oracle run here."""

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_PACKAGE_ROOT, str(Path(__file__).resolve().parent),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", source], capture_output=True, text=True,
                          env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def random_irreducible_relu(rng, m, d, sep=5e-2):
    """Random admissible net whose hyperplanes are pairwise separated, which
    makes it irreducible outright."""

    while True:
        neurons, hyperplanes = [], []
        ok = True
        for _ in range(m):
            for _ in range(200):
                a = rng.normal(size=d)
                a /= np.linalg.norm(a)
                a *= rng.uniform(0.6, 1.8)
                b = rng.uniform(-1.0, 1.0)
                s = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
                h, _ = canonical_hyperplane(a, b)
                if all(float(np.max(np.abs(h.a - h2.a))) + abs(h.b - h2.b) > sep
                       for h2 in hyperplanes):
                    hyperplanes.append(h)
                    neurons.append((a, b, s))
                    break
            else:
                ok = False
                break
        if ok:
            return make_net("relu", neurons, rng.uniform(-1.0, 1.0), d=d)


def _lattice_relu(rng, max_m):
    m = int(rng.integers(1, max_m + 1))
    neurons = []
    for _ in range(m):
        if neurons and rng.random() < 0.4:
            a0, b0, s0 = neurons[int(rng.integers(len(neurons)))]
            lam = float(rng.choice([1.0, 0.5, 2.0]))
            if rng.random() < 0.5:
                s = -s0 / lam  # grouped scales cancel exactly
            else:
                s = float(rng.choice(LATTICE_SCALES))
            neurons.append((tuple(-lam * np.asarray(a0)), -lam * b0, s))
        else:
            a = np.asarray(rng.choice(LATTICE_DIRECTIONS)) * rng.choice([1.0, -1.0])
            neurons.append((tuple(a), float(rng.choice(LATTICE_BIASES)),
                            float(rng.choice(LATTICE_SCALES))))
    return make_net("relu", neurons, float(rng.choice(LATTICE_BIASES)), d=2)


def _planted_flip_sum_relu(rng):
    """One opposite-orientation pair plus singles whose last direction zeroes
    the freed linear term for one flip pattern."""

    a1 = rng.normal(size=2)
    a1 /= np.linalg.norm(a1)
    s11 = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)
    s12 = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)
    b1 = rng.uniform(-1.0, 1.0)
    eps = int(rng.choice([1, -1]))
    residual = (s11 if eps == 1 else s12) * eps * a1
    neurons = [(a1, b1, s11), (-a1, -b1, s12)]
    for _ in range(int(rng.integers(0, 2))):
        a = rng.normal(size=2)
        a /= np.linalg.norm(a)
        s = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)
        residual = residual + s * a
        neurons.append((a, rng.uniform(-1.0, 1.0), s))
    norm = float(np.linalg.norm(residual))
    neurons.append((-residual / norm, rng.uniform(-1.0, 1.0), norm))
    return make_net("relu", neurons, rng.uniform(-1.0, 1.0), d=2)


def _parallel_pairs_relu(rng):
    """Two opposite-orientation pairs on parallel hyperplanes; the freed
    linear term is always parallel to their common direction."""

    a = rng.normal(size=2)
    a /= np.linalg.norm(a)
    b1 = rng.uniform(-1.0, 1.0)
    b2 = b1 + rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.0)
    scales = rng.choice([-1.0, 1.0], size=4) * rng.uniform(0.5, 1.5, size=4)
    neurons = [(a, b1, scales[0]), (-a, -b1, scales[1]),
               (a, b2, scales[2]), (-a, -b2, scales[3])]
    return make_net("relu", neurons, rng.uniform(-1.0, 1.0), d=2)


def random_structured_relu(rng, max_m=4):
    """Admissible d=2 net from a mix of lattice draws (duplicated hyperplanes
    and exact cancellations) and planted reducible structures, so both
    outcomes of the reducibility decision occur often."""

    while True:
        roll = rng.random()
        if roll < 0.6:
            net = _lattice_relu(rng, max_m)
        elif roll < 0.85:
            net = _planted_flip_sum_relu(rng)
        else:
            net = _parallel_pairs_relu(rng)
        try:
            group(net)
        except AdmissibilityError:
            continue
        return net


def structured_relu(rng, d, kind, n_lone):
    """Net of one or two opposite-orientation pairs and ``n_lone`` lone
    neurons, all on random hyperplanes.

    kind: ``k1_1`` / ``k1_2`` (that many pairs), ``cancel`` (one pair whose
    scales cancel), or one of these with ``_planted``: one more lone neuron
    is added for the term freed by flipping lone neurons 0, 1 and 2.  For
    ``k1_1`` flipping it too cancels that term; for ``k1_2`` and ``cancel``
    it lies along the term and can absorb it.
    """

    def unit():
        a = rng.normal(size=d)
        return a / np.linalg.norm(a)

    def scale():
        return float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))

    base = kind.removesuffix("_planted")
    neurons = []
    for _ in range(2 if base == "k1_2" else 1):
        a, b, s1 = unit(), float(rng.uniform(-1.0, 1.0)), scale()
        s2 = -s1 if base == "cancel" else scale()
        neurons += [(a, b, s1), (-a, -b, s2)]
    neurons += [(unit(), float(rng.uniform(-1.0, 1.0)), scale()) for _ in range(n_lone)]
    if kind.endswith("_planted"):
        pairs = 2 if base == "k1_2" else 1
        freed = sum(neurons[2 * i][2] * neurons[2 * i][0] for i in range(pairs))
        freed = freed + sum(s * a for a, _, s in neurons[2 * pairs:2 * pairs + 3])
        norm = float(np.linalg.norm(freed))
        if base == "k1_1":
            neurons.append((-freed / norm, float(rng.uniform(-1.0, 1.0)), norm))
        else:
            neurons.append((freed / norm, float(rng.uniform(-1.0, 1.0)), scale()))
    return make_net("relu", neurons, float(rng.uniform(-1.0, 1.0)), d=d)


def random_analytic_net(rng, m, d, kind="sigmoid", sep=5e-2):
    """Random admissible sigmoid/tanh net with sign-separated ridges."""

    while True:
        rows = []
        ok = True
        for _ in range(m):
            for _ in range(200):
                a = rng.uniform(-2.0, 2.0, size=d)
                if np.max(np.abs(a)) < 0.2:
                    continue
                b = rng.uniform(-2.0, 2.0)
                s = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0)
                distinct = all(
                    min(float(np.max(np.abs(a - sg * np.asarray(a2)))) + abs(b - sg * b2)
                        for sg in (1.0, -1.0)) > sep
                    for a2, b2, _ in rows)
                if distinct:
                    rows.append((a, b, s))
                    break
            else:
                ok = False
                break
        if ok:
            return make_net(kind, rows, rng.uniform(-2.0, 2.0), d=d)


def equivalent_analytic_variant(rng, net):
    """Permute the neurons and flip a random subset of signs, adjusting the
    constant by the flip identity; the result is pointwise equal."""

    c0 = net.activation.c0
    order = rng.permutation(net.m)
    rows = []
    c = net.c
    for k in order:
        n = net.neurons[int(k)]
        if rng.random() < 0.5:
            rows.append((-n.a, -n.b, -n.s))
            c += n.s * c0
        else:
            rows.append((n.a, n.b, n.s))
    return make_net(net.activation.kind, rows, c, d=net.d)


def dense_grid(d, span=3.0, target=2500):
    side = max(2, int(round(target ** (1.0 / d))))
    axes = [np.linspace(-span, span, side)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def rel_max_dev(net_a, net_b, points):
    va = evaluate_many(net_a, points)
    vb = evaluate_many(net_b, points)
    return float(np.max(np.abs(va - vb) / (1.0 + np.abs(va))))


# ---------------------------------------------------------------------------
# brute-force reducibility oracle
# ---------------------------------------------------------------------------

def _merge_oriented(entries):
    """Merge coincident (direction, bias) terms after unit normalization;
    opposite orientations stay separate neurons."""

    merged = []
    for a, b, s in entries:
        a = np.asarray(a, dtype=float)
        norm = float(np.linalg.norm(a))
        u, beta, sc = a / norm, b / norm, s * norm
        for row in merged:
            if float(np.max(np.abs(u - row[0]))) <= 1e-9 and abs(beta - row[1]) <= 1e-9:
                row[2] += sc
                break
        else:
            merged.append([u, beta, sc])
    return [(u, beta, sc) for u, beta, sc in merged if abs(sc) > 1e-11]


def _collapse_for_oracle(g, eps, flips):
    entries = []
    w = np.zeros(g.d)
    q = 0.0
    for i, pair in enumerate(g.K1):
        e = eps[i]
        si = pair.s1 if e == 1 else pair.s2
        entries.append((-e * pair.h.a, -e * pair.h.b, pair.s1 + pair.s2))
        w += si * e * pair.h.a
        q += si * e * pair.h.b
    for j, single in enumerate(g.K2):
        if j in flips:
            entries.append((-single.a, -single.b, single.s))
            w += single.s * single.a
            q += single.s * single.b
        else:
            entries.append((single.a, single.b, single.s))
    return entries, w, q


def oracle_reducible(net: ShallowNet, grid=None) -> bool:
    """Exhaustively apply every flip-pattern rewrite and every absorption of
    the freed linear term, then accept any candidate that has fewer neurons
    and matches the original on a dense grid."""

    g = group(net)
    if grid is None:
        grid = dense_grid(g.d)
    base = evaluate_many(net, grid)
    tol_vec = 1e-9 * (1.0 + np.abs(base))

    def matches(candidate_entries, c):
        neurons = [(u, beta, sc) for u, beta, sc in candidate_entries]
        if len(neurons) >= net.m:
            return False
        cand = make_net("relu", neurons, c, d=g.d)
        return bool(np.all(np.abs(evaluate_many(cand, grid) - base) <= tol_vec))

    for eps in itertools.product((1, -1), repeat=len(g.K1)):
        for size in range(len(g.K2) + 1):
            for combo in itertools.combinations(range(len(g.K2)), size):
                flips = frozenset(combo)
                entries, w, q = _collapse_for_oracle(g, eps, flips)
                # drop the linear term into the constant
                if matches(_merge_oriented(entries), g.c + q):
                    return True
                # absorb it at one of the surviving hyperplanes
                for a0, b0, _ in entries:
                    a0 = np.asarray(a0, dtype=float)
                    c0 = -float(w @ a0) / float(a0 @ a0)
                    extra = [(a0, b0, -c0), (-a0, -b0, c0)]
                    if matches(_merge_oriented(entries + extra), g.c + q + c0 * b0):
                        return True
                # spend a fresh cancelling pair on it
                norm = float(np.linalg.norm(w))
                if norm > 1e-14:
                    u = w / norm
                    extra = [(u, 0.0, norm), (-u, 0.0, -norm)]
                    if matches(_merge_oriented(entries + extra), g.c + q):
                        return True
    return False


# ---------------------------------------------------------------------------
# loop-by-loop witness search, orientation search and exp-sum expansion
# ---------------------------------------------------------------------------

# The subset enumerations that numerics.subset_sums replaced, kept verbatim.
def _freed_linear(g, epsilon, k2_prime):
    """Direction of the linear term freed by the given flip pattern."""

    w = np.zeros(g.d)
    for i, pair in enumerate(g.K1):
        e = epsilon[i]
        si = pair.s1 if e == 1 else pair.s2
        w += si * e * pair.h.a
    for j in k2_prime:
        w += g.K2[j].s * g.K2[j].a
    return w


def _subsets(n):
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            yield frozenset(combo)


def oracle_test_reducible(g, tol=DEFAULT_TOL):
    """Return a reduction witness when the neuron count can be lowered.

    Search order: cancellation pre-pass, then #K1 >= 3, #K1 = 1, #K1 = 2.
    A cancelling pair yields a witness only when removing it actually wins:
    a network that is exactly one cancelling pair plus lone neurons needs the
    freed linear term absorbed somewhere, just like the #K1 = 2 clause.
    """

    zero = ZERO_TOL * _coefficient_scale(g)
    cancelling = _cancelling_pairs(g)
    n_pairs = len(g.K1)
    all_plus = tuple(1 for _ in range(n_pairs))

    if cancelling:
        live_pairs = n_pairs - len(cancelling)
        if 2 * len(cancelling) + live_pairs >= 3:
            return ReductionWitness("cancellation", all_plus, frozenset())
        # exactly one cancelling pair and nothing else in K1: removing it
        # frees a linear term that must be absorbed for a strict win
        for k2p in _subsets(len(g.K2)):
            w = _freed_linear(g, all_plus, k2p)
            if float(np.linalg.norm(w)) <= zero:
                return ReductionWitness("cancellation", all_plus, k2p)
            for j, entry in enumerate(g.K2):
                c0 = -float(w @ entry.a) / float(entry.a @ entry.a)
                if float(np.linalg.norm(w + c0 * entry.a)) <= zero:
                    return ReductionWitness("cancellation", all_plus, k2p,
                                            k0=n_pairs + j, c0=c0)
        return None

    if n_pairs >= 3:
        return ReductionWitness("K1_ge_3", all_plus, frozenset())

    if n_pairs == 1:
        for eps in ((1,), (-1,)):
            for k2p in _subsets(len(g.K2)):
                w = _freed_linear(g, eps, k2p)
                if float(np.linalg.norm(w)) <= zero:
                    return ReductionWitness("K1_eq_1", eps, k2p)
        return None

    if n_pairs == 2:
        candidates = list(range(n_pairs + len(g.K2)))
        for eps in itertools.product((1, -1), repeat=2):
            for k2p in _subsets(len(g.K2)):
                w = _freed_linear(g, eps, k2p)
                for k0 in candidates:
                    a0, _ = _direction_of(g, k0)
                    c0 = -float(w @ a0) / float(a0 @ a0)
                    if float(np.linalg.norm(w + c0 * a0)) <= zero:
                        return ReductionWitness("K1_eq_2", eps, k2p, k0=k0, c0=c0)
        return None

    return None


def oracle_orientation(hyperplanes, points, values, tol=DEFAULT_TOL):
    """The network ``reconstruct`` built from its recovered hyperplanes before
    the single solve: one least-squares solve per orientation sign pattern,
    in itertools.product order, until the samples are reproduced; None when
    no pattern does."""

    m = len(hyperplanes)
    values = np.asarray(values, dtype=float)
    value_scale = 1.0 + float(np.max(np.abs(values)))
    margins = np.stack([points @ h.a + h.b for h in hyperplanes], axis=1)
    ones = np.ones((points.shape[0], 1))
    for eps in itertools.product((1.0, -1.0), repeat=m):
        sign = np.asarray(eps)
        design = np.concatenate([np.maximum(margins * sign[None, :], 0.0), ones],
                                axis=1)
        sol, _ = solve_least_squares(design, values)
        residual = float(np.max(np.abs(design @ sol - values)))
        if residual <= tol.residual_tol * value_scale:
            neurons = [(eps[k] * hyperplanes[k].a, eps[k] * hyperplanes[k].b,
                        float(sol[k])) for k in range(m)]
            return make_net("relu", neurons, float(sol[-1]), d=points.shape[1])
    return None


def oracle_exp_sum_expansion(a, b, s, s0, tol=DEFAULT_TOL):
    """The per-mask loop of ``exp_sum_expansion`` (its input checks left out)."""

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    s = np.asarray(s, dtype=float)
    n = a.shape[0]
    total = float(np.sum(s)) + float(s0)
    ebs = np.exp(-b)
    raw = []
    for mask in range(1 << n):
        alpha = 0.0
        prod = 1.0
        used = 0.0
        for k in range(n):
            if mask >> k & 1:
                alpha += float(a[k])
                prod *= float(ebs[k])
                used += float(s[k])
        raw.append((alpha, (total - used) * prod))

    raw.sort(key=lambda pair: pair[0])
    exponents = []
    coefficients = []
    for alpha, coeff in raw:
        if exponents and alpha - exponents[-1] <= tol.match_tol:
            coefficients[-1] += coeff
        else:
            exponents.append(alpha)
            coefficients.append(coeff)
    return ExpSumExpansion(tuple(exponents), tuple(coefficients))


# The one-call evaluation that ExpSumExpansion.evaluate replaced with row
# blocks: one (len(xs), 2^n) buffer for every x value at once.
def oracle_exp_sum_evaluate(expansion, x):
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    terms = np.multiply.outer(xs, np.asarray(expansion.exponents))
    np.negative(terms, out=terms)
    np.exp(terms, out=terms)
    return terms @ np.asarray(expansion.coefficients)


# The one-call plan check that verify_identification replaced with row
# blocks: both nets evaluated on every plan point at once (input checks left out).
def oracle_verify_identification(n1, n2, plan, tol=DEFAULT_TOL):
    equivalent = shallowid.test_equivalent(n1, n2, tol) is not None
    f1 = evaluate_many(n1, plan.points)
    max_gap = float(np.max(np.abs(f1 - evaluate_many(n2, plan.points))))
    equal_on_plan = max_gap <= tol.residual_tol * (1.0 + float(np.max(np.abs(f1))))
    warning = None
    if equal_on_plan and not equivalent:
        warning = ("networks agree on the plan but their canonical forms "
                   "differ; float saturation can hide a genuine gap")
    return shallowid.IdentificationReport(max_gap, equal_on_plan, equivalent, warning)


# ---------------------------------------------------------------------------
# brute-force plan collinearity oracle
# ---------------------------------------------------------------------------

# The distances of points from one line that relu_sampling._line_distances
# replaced with one batched matmul over every line.
def _point_line_distances(points, line):
    v = line.v / np.linalg.norm(line.v)
    rel = points - line.u[None, :]
    along = rel @ v
    perp = rel - along[:, None] * v[None, :]
    return np.linalg.norm(perp, axis=1)


# The O(n^3) check that relu_sampling._collinearity_ok replaced: every
# non-exempt pair is tested against all n points.
def oracle_flagged_pairs(points, lines, tol=DEFAULT_TOL) -> set[tuple[int, int]]:
    """The non-exempt pairs (i < k) that have a third point near their line.

    Pairs living together on a plan line are exempt (their triples sit on
    that line); every other pair must have no third point near its spanned
    line.  Point-to-line distances come from the Gram identity
    dist^2 = |r - p|^2 - <r - p, u>^2, so no (pairs, points, d) tensor is
    ever materialized.
    """

    n = points.shape[0]
    scale = 1.0 + float(np.max(np.abs(points)))
    ctol = tol.match_tol * scale
    member = np.stack([_point_line_distances(points, ln) <= ctol for ln in lines],
                      axis=1)
    idx_i, idx_k = np.triu_indices(n, k=1)
    shared = np.any(member[idx_i] & member[idx_k], axis=1)
    check_i, check_k = idx_i[~shared], idx_k[~shared]
    sq_norms = np.einsum("nd,nd->n", points, points)
    flagged = set()
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
        hit = np.sum(close, axis=0) >= 3
        flagged.update(zip(ii[hit].tolist(), kk[hit].tolist()))
    return flagged


def oracle_collinearity_ok(points, lines, tol=DEFAULT_TOL) -> bool:
    """Condition: every collinear point triple lies on one of the plan lines."""

    return not oracle_flagged_pairs(points, lines, tol)


# The sorted-direction filter that relu_sampling._collinearity_ok used before
# it worked one block of anchors at a time: (n, n, d) unit directions, one
# sort of all n^2 keys and a window search from every entry.
def oracle_collinear_candidates(points, lines, tol=DEFAULT_TOL):
    """The non-exempt pairs (check_i < check_k) that the filter proposes for
    the exact re-check, and the re-check's tolerance ctol."""

    n, d = points.shape
    scale = 1.0 + float(np.max(np.abs(points)))
    ctol = tol.match_tol * scale
    member = np.stack([_point_line_distances(points, ln) <= ctol for ln in lines],
                      axis=1).astype(float)
    candidate = member @ member.T == 0.0          # pairs sharing no plan line
    radius = 1.0 + float(np.max(np.linalg.norm(points, axis=1)))
    tau = 2.0 * np.sqrt(ctol * ctol + 16 * (d + 2) * np.finfo(float).eps * radius ** 2)
    unit = points[None, :, :] - points[:, None, :]            # p_k - p_a at [a, k]
    rho = np.sqrt(np.einsum("abd,abd->ab", unit, unit))
    np.fill_diagonal(rho, np.inf)             # zero direction, empty window
    if float(np.min(rho)) > 2.0 * tau:
        unit = (unit / rho[:, :, None]).reshape(n * n, d)
        width = (2.0 * tau / rho).ravel()
        g, h = np.sqrt(np.arange(2.0, d + 2.0)), np.cos(np.arange(d))  # fixed, generic
        h -= (h @ g) / (g @ g) * g
        g, h = g / np.linalg.norm(g), h / np.linalg.norm(h)
        fold = unit @ g
        unit *= np.where(fold < 0.0, -1.0, 1.0)[:, None]
        seam = np.flatnonzero(np.abs(fold) < width)
        origin = np.concatenate([np.arange(n * n), seam])   # flat (anchor, point)
        unit = np.concatenate([unit, -unit[seam]])
        width = width[origin]
        key = unit @ h + 4.0 * (origin // n)     # keys of one anchor stay apart
        order = np.argsort(key)
        key, sorted_width = key[order], width[order]
        lo = np.searchsorted(key, key - sorted_width)
        count = np.searchsorted(key, key + sorted_width, side="right") - lo - 1
        src = np.repeat(np.arange(key.size), count)
        dst = lo[src] + np.arange(src.size) - np.repeat(np.cumsum(count) - count, count)
        dst += dst >= src                         # skip the entry itself
        src, dst = order[src], order[dst]
        keep = candidate.ravel()[origin[dst]]     # propose non-exempt partners only
        src, dst = src[keep], dst[keep]
        near = np.linalg.norm(unit[src] - unit[dst], axis=1) <= width[src]
        hit = np.zeros(n * n, dtype=bool)
        hit[origin[dst[near]]] = True
        candidate &= hit.reshape(n, n)
    check_i, check_k = np.nonzero(np.triu(candidate, 1))
    return check_i, check_k, ctol


# The filter that relu_sampling._collinearity_ok used before each anchor saw
# only the points after it: every anchor sees all n points, a block is
# _BLOCK_ENTRIES // n whole rows of the (n, n) table (read at call time),
# only non-exempt entries are sorted, and exempt ones always search them.
def oracle_two_sided_collinearity_ok(points, lines, tol=DEFAULT_TOL) -> bool:
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
    rows = max(1, relu_sampling._BLOCK_ENTRIES // n)
    for first in range(0, n, rows):
        hits = _two_sided_window_hits(points, np.arange(first, min(first + rows, n)),
                                      candidate, along, tau)
        if hits is None:
            check_i, check_k = np.nonzero(np.triu(candidate, 1))
            break
        found.append(hits)
    else:
        flat = np.sort(np.concatenate(found))
        check_i, check_k = np.divmod(flat[np.diff(flat, prepend=-1) > 0], n)
        upper = check_i < check_k
        check_i, check_k = check_i[upper], check_k[upper]
    return not relu_sampling._third_point_near(points, check_i, check_k, ctol)


def _two_sided_window_hits(points, anchors, candidate, along, tau):
    """One block of `oracle_two_sided_collinearity_ok`: flat indices a * n + k
    of the non-exempt pairs (a, k) whose direction from a lies, up to sign,
    in the window of another direction from a; None when two points lie
    within 2 tau."""

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


# The plan builder before it drew a plan's jitter in one call: one
# rng.uniform call per sample, line by line.  Each draw is judged by
# relu_sampling._collinearity_ok, read at call time.
def oracle_build_sample_plan(g, ls, seed, tol=DEFAULT_TOL):
    hyperplanes = relu_sampling._distinct_hyperplanes(g)
    m = len(hyperplanes)
    if len(ls.lines) != m * g.d:
        raise InputError("line set does not match the network",
                         lines=len(ls.lines), expected=m * g.d)

    rng = np.random.default_rng(seed)
    for _ in range(relu_sampling._RETRY_BUDGET):
        all_params = []
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
        if relu_sampling._collinearity_ok(points, ls.lines, tol):
            return relu_sampling.SamplePlan(ls.lines, tuple(all_params), points)
    raise ConstructionError("could not avoid accidental collinear triples",
                            retries=relu_sampling._RETRY_BUDGET)


# ---------------------------------------------------------------------------
# per-piece breakpoint-extraction oracle
# ---------------------------------------------------------------------------

# The loop that relu_sampling.extract_breakpoints replaced: one np.polyfit
# per merged piece.  It also returns the merged groups of pair indices.
def oracle_extract_breakpoints(line, params, values, tol=DEFAULT_TOL):
    """Fit consecutive sample pairs to affine pieces in the line parameter and
    intersect neighbouring pieces.

    Pieces whose slopes agree within tolerance are merged, so fewer
    breakpoints than hyperplanes is an ordinary outcome, not an error.
    Returns (breakpoints, merged (slope, intercept) pieces, groups).
    """

    t = np.asarray(params, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != y.shape:
        raise InputError("params and values must be equal-length vectors")
    if t.size < 4 or t.size % 2 != 0:
        raise InputError("expected an even number (>= 4) of samples, two per piece",
                         count=int(t.size))
    if np.any(np.diff(t) <= 0):
        raise InputError("params must be strictly increasing")

    slopes = (y[1::2] - y[0::2]) / (t[1::2] - t[0::2])
    merge_tol = 10.0 * tol.residual_tol * (1.0 + float(np.max(np.abs(slopes))))

    groups: list[list[int]] = [[0]]
    for i in range(1, slopes.size):
        if abs(slopes[i] - slopes[groups[-1][-1]]) <= merge_tol:
            groups[-1].append(i)
        else:
            groups.append([i])

    pieces: list[tuple[float, float]] = []
    for grp in groups:
        sel = np.concatenate([[2 * i, 2 * i + 1] for i in grp])
        p, q = np.polyfit(t[sel], y[sel], 1)
        pieces.append((float(p), float(q)))

    breakpoints = []
    for (p1, q1), (p2, q2) in zip(pieces, pieces[1:]):
        breakpoints.append((q1 - q2) / (p2 - p1))
    return breakpoints, pieces, groups


class DegenerateFitError(ToolkitError):
    """Points do not determine a unique hyperplane."""

    code = "degenerate_fit"


# The library fits stacks through numerics.affine_fits; this is its
# one-matrix form, which the recovery oracle fits with.
def affine_fit(points) -> Hyperplane:
    """Fit the unique hyperplane containing a set of d-dimensional points.

    The normal is the singular vector of the centered point matrix belonging
    to its smallest singular value, which treats all points symmetrically.
    Requires the points to affinely span exactly a (d-1)-flat.
    """

    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise InputError("points must form an (n, d) array", shape=list(pts.shape))
    n, d = pts.shape
    if n < d:
        raise InputError(f"need at least {d} points, got {n}")
    A, B, (r,) = affine_fits(pts[None])
    if r != d - 1:
        raise DegenerateFitError(
            f"points affinely span a flat of dimension {r}, expected {d - 1}",
            spanned=int(r), expected=d - 1)
    return Hyperplane(A[0], float(B[0]))


# The one-matrix fit that numerics.affine_fits generalised to stacks.
def oracle_affine_fit(points):
    """The hyperplane through (n, d) points that affinely span a (d-1)-flat,
    from the last right singular vector of the centred points; raises
    DegenerateFitError for any other span."""

    pts = np.asarray(points, dtype=float)
    d = pts.shape[1]
    center = pts.mean(axis=0)
    centered = pts - center
    r = 0
    if float(np.max(np.abs(centered))) > ZERO_TOL:
        sv = np.linalg.svd(centered, compute_uv=False)
        r = int(np.sum(sv > RANK_TOL * sv[0])) if sv[0] > ZERO_TOL else 0
    if r != d - 1:
        raise DegenerateFitError(
            f"points affinely span a flat of dimension {r}, expected {d - 1}",
            spanned=r, expected=d - 1)
    _, _, vt = np.linalg.svd(centered)
    normal = vt[-1]
    return canonical_hyperplane(normal, -float(normal @ center))[0]


# ---------------------------------------------------------------------------
# per-candidate hyperplane-recovery oracle
# ---------------------------------------------------------------------------

# The loop that relu_sampling.recover_hyperplanes replaced: every seed tuple
# is fitted, matched, refitted and tested on its own.  The candidate budget is
# read from relu_sampling, so a test that lowers it lowers it for both.
def oracle_recover_hyperplanes(crossings_by_line, tol=DEFAULT_TOL):
    """Fit candidate hyperplanes through d crossings from d distinct lines and
    keep those containing exactly one crossing of every line.

    Each kept candidate is refitted on all of its matched crossings before the
    final containment test, which makes the fit insensitive to how well spread
    the d seed points happened to be.
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

    scale = 1.0 + max(float(np.max(np.abs(grp))) for grp in groups)
    keep_tol = tol.match_tol * scale
    same = dataclasses.replace(tol, match_tol=keep_tol)   # a copy of a found plane
    found = []
    fits = 0
    for line_combo in itertools.combinations(range(n_lines), d):
        for choice in itertools.product(range(m), repeat=d):
            fits += 1
            if fits > relu_sampling._CANDIDATE_BUDGET:
                raise RecoveryError("candidate budget exhausted before finding "
                                    "all hyperplanes", found=len(found), expected=m)
            seed_pts = np.stack([groups[j][i] for j, i in zip(line_combo, choice)])
            try:
                rough = affine_fit(seed_pts)
            except DegenerateFitError:
                continue
            matched = np.stack([grp[np.argmin(np.abs(grp @ rough.a + rough.b))]
                                for grp in groups])
            try:
                refit = affine_fit(matched)
            except DegenerateFitError:
                continue
            ok = True
            for grp in groups:
                dists = np.abs(grp @ refit.a + refit.b)
                if np.sum(dists <= keep_tol) != 1:
                    ok = False
                    break
            if not ok:
                continue
            if any(refit.matches(h, same) for h in found):
                continue
            found.append(refit)
            if len(found) == m:
                return sorted(found, key=lambda h: grid_key(h, tol))
    raise RecoveryError("hyperplane recovery found the wrong candidate count",
                        found=len(found), expected=m)


def grid_key(h, tol=DEFAULT_TOL):
    """The order of recovered hyperplanes: (a, b) on a grid of step match_tol."""

    return np.round(np.append(h.a, h.b) / tol.match_tol).tolist()


def _oracle_spans(points, rank_tol):
    """The dimension of the flat each (n, d) matrix of a (k, n, d) stack
    affinely spans, with singular values above rank_tol times the largest
    counted: ``affine_fits``' count, at a cutoff of one's choice."""

    centered = points - points.mean(axis=1)[:, None, :]
    sv = np.linalg.svd(centered, compute_uv=False)
    spans = np.where(sv[:, 0] > ZERO_TOL, np.sum(sv > rank_tol * sv[:, :1], axis=1), 0)
    return np.where(np.max(np.abs(centered), axis=(1, 2)) > ZERO_TOL, spans, 0)


# The batched recovery before its exact test refitted on the screen's rough
# planes: each seed tuple got an SVD fit, and its refit on every line's
# crossing nearest that fit had to span exactly a (d - 1)-flat at a relative
# singular-value cutoff rank_tol (ToleranceConfig.rank_tol then), which noisy
# crossings only met with rank_tol raised.  The miss-bound screen is left out:
# it only dropped tuples that this test rejects.
def oracle_seed_fit_recovery(crossings_by_line, tol=DEFAULT_TOL, rank_tol=RANK_TOL):
    stacked = np.stack([np.asarray(grp, dtype=float) for grp in crossings_by_line])
    n_lines, m, d = stacked.shape
    keep_tol = tol.match_tol * (1.0 + float(np.max(np.abs(stacked))))
    same = dataclasses.replace(tol, match_tol=keep_tol)   # a copy of a found plane
    choices = np.array(list(itertools.product(range(m), repeat=d)))
    found = []
    fits = 0
    for combo in itertools.combinations(range(n_lines), d):
        for start in range(0, len(choices), 4096):
            if fits == relu_sampling._CANDIDATE_BUDGET:
                raise RecoveryError("candidate budget exhausted before finding "
                                    "all hyperplanes", found=len(found), expected=m)
            chunk = choices[start:start + min(4096, relu_sampling._CANDIDATE_BUDGET - fits)]
            fits += len(chunk)
            seeds = stacked[list(combo), chunk]
            A, B, _ = affine_fits(seeds)
            fitted = _oracle_spans(seeds, rank_tol) == d - 1
            distances = relu_sampling._plane_distances(stacked, A[fitted], B[fitted])
            matched = stacked[np.arange(n_lines), np.argmin(distances, axis=2)]
            A, B, _ = affine_fits(matched)
            hits = np.sum(relu_sampling._plane_distances(stacked, A, B) <= keep_tol, axis=2)
            accepted = (_oracle_spans(matched, rank_tol) == d - 1) & np.all(hits == 1, axis=1)
            for k in np.flatnonzero(accepted):
                refit = Hyperplane(A[k], float(B[k]))
                if any(refit.matches(h, same) for h in found):
                    continue
                found.append(refit)
                if len(found) == m:
                    return sorted(found, key=lambda h: grid_key(h, tol))
    raise RecoveryError("hyperplane recovery found the wrong candidate count",
                        found=len(found), expected=m)


# The seed-tuple screen that relu_sampling._seed_survivors replaced: every
# tuple, tie or not, gets the batched refit on its nearest crossings.
def oracle_seed_survivors(stacked, seeds, keep_tol):
    """Indices of the seed tuples (``seeds``: (tuples, d, d), one crossing of
    each of d lines) that may pass ``recover_hyperplanes``' exact test: those
    whose rough plane has a near tie on some line, and those whose refit comes
    within 4 keep_tol of every line and within keep_tol / 4 of at most one
    crossing of each."""

    n_lines, m, d = stacked.shape
    flat = stacked.reshape(n_lines * m, d)

    def distances(points):                        # (lines, m, chunk)
        center = points.mean(axis=1)
        centered = points - center[:, None, :]
        if centered.shape[1] > d:
            centered = np.linalg.qr(centered, mode="r")
        normal = np.linalg.svd(centered)[2][:, -1]
        dist = flat @ normal.T
        dist -= np.einsum("cd,cd->c", normal, center)
        return np.abs(dist, out=dist).reshape(n_lines, m, -1)

    rough = distances(seeds)
    nearest = np.min(rough, axis=1)
    tie = np.any(np.sum(rough <= nearest[:, None] + keep_tol, axis=1) > 1, axis=0)
    refit = distances(stacked[np.arange(n_lines), np.argmin(rough, axis=1).T])
    keep = (np.all(np.min(refit, axis=1) <= 4.0 * keep_tol, axis=0)
            & np.all(np.sum(refit <= keep_tol / 4.0, axis=1) <= 1, axis=0))
    return np.flatnonzero(keep | tie)


# The two-stage screen that relu_sampling._seed_survivors replaced: the miss
# bound, then a batched refit with a safety margin on the tuples it leaves.
def oracle_plane_fits(flat, points):
    """Batched total least-squares planes through each of ``points``
    (tuples, k, d): the |distance| of every row of ``flat`` from each plane
    (len(flat), tuples), the singular values of the centred points
    (tuples, d) and their centroids.  For k > d the SVD is taken of the R
    factor, which has the same right singular vectors."""

    center = points.mean(axis=1)
    centered = points - center[:, None, :]
    if centered.shape[1] > centered.shape[2]:
        centered = np.linalg.qr(centered, mode="r")
    _, sv, vt = np.linalg.svd(centered)
    normal = vt[:, -1]
    dist = flat @ normal.T
    dist -= np.einsum("cd,cd->c", normal, center)
    return np.abs(dist, out=dist), sv, center


def oracle_refit_screen(stacked, seeds, keep_tol):
    """Indices of the seed tuples that survive the miss bound and then a
    refit on every line's crossing nearest the rough plane that comes within
    4 keep_tol of every line and within keep_tol / 4 of at most one crossing
    of each.  Tuples with a near tie on some line are kept outright."""

    n_lines, m, d = stacked.shape
    flat = stacked.reshape(n_lines * m, d)
    rough, sv, center = oracle_plane_fits(flat, seeds)
    rough = rough.reshape(n_lines, m, -1)
    nearest = np.min(rough, axis=1)
    tie = np.any(np.sum(rough <= nearest[:, None] + keep_tol, axis=1) > 1, axis=0)

    t = 4.0 * keep_tol
    eta = 64 * d ** 3 * 2.0 ** -53 * (1.0 + float(np.max(np.abs(flat))))
    mid = flat.mean(axis=0)
    reach = np.max(_row_norms(flat - mid)) + _row_norms(center - mid)
    with np.errstate(divide="ignore", invalid="ignore"):
        sin = (2 * np.sqrt(d) * t + sv[:, -1] + eta) / (sv[:, -2] if d > 1 else np.inf)
        bound = 2 * t + np.sqrt(2) * reach * sin + eta
        refit = ~tie & ~np.any(nearest > bound, axis=0)
    keep = tie
    rows = np.argmin(rough[:, :, refit], axis=1).T
    matched = stacked[np.arange(n_lines), rows]
    dist = oracle_plane_fits(flat, matched)[0].reshape(n_lines, m, -1)
    keep[refit] = (np.all(np.min(dist, axis=1) <= 4.0 * keep_tol, axis=0)
                   & np.all(np.sum(dist <= keep_tol / 4.0, axis=1) <= 1, axis=0))
    return np.flatnonzero(keep)


# ---------------------------------------------------------------------------
# line-feasibility oracles
# ---------------------------------------------------------------------------

# The crossings of one line that relu_sampling._line_crossings replaced:
# one dot product per hyperplane.
def oracle_line_crossings(line, hyperplanes):
    """Crossing parameters of one line with every hyperplane, or None when the
    line fails the transversality / separation margins."""

    vnorm = float(np.linalg.norm(line.v))
    if vnorm < relu_sampling._MIN_DIRECTION_NORM:
        return None
    params = np.empty(len(hyperplanes))
    for k, h in enumerate(hyperplanes):
        denom = float(h.a @ line.v)
        if abs(denom) < relu_sampling._MIN_TRANSVERSALITY * vnorm:
            return None
        params[k] = -(float(h.a @ line.u) + h.b) / denom
    gaps = np.diff(np.sort(params))
    if gaps.size and float(np.min(gaps)) < relu_sampling._MIN_PARAM_GAP:
        return None
    return params


# The Laplace minors that relu_sampling._laplace_minors replaced: one array
# per mask, expanded term by term.
def oracle_laplace_minors(rows):
    """For r >= 1 rows (each a (k, C) array), the minors of the C matrices
    on every r-subset of their k columns, keyed by column mask."""

    rows = iter(rows)
    minors = {1 << j: entry for j, entry in enumerate(next(rows))}
    k = len(minors)
    for i, entries in enumerate(rows, 1):
        grown = {}
        for mask in range(1 << k):
            bits = [j for j in range(k) if mask >> j & 1]
            if len(bits) != i + 1:
                continue
            acc = entries[bits[0]] * minors[mask ^ 1 << bits[0]]
            for t, j in enumerate(bits[1:], 1):
                term = entries[j] * minors[mask ^ 1 << j]
                if t % 2:
                    acc -= term
                else:
                    acc += term
            grown[mask] = acc
        minors = grown
    return minors


# The crossings of one candidate line that relu_sampling._candidate_crossings
# replaced: one candidate per call, against the stacked normals.
def oracle_stacked_line_crossings(line, A, B):
    """Crossing parameters of one line with every hyperplane (rows of the
    stacked normals A and offsets B), or None when the line fails the
    transversality / separation margins."""

    vnorm = float(np.linalg.norm(line.v))
    if vnorm < relu_sampling._MIN_DIRECTION_NORM:
        return None
    denom = np.vecdot(A, line.v)
    if np.any(np.abs(denom) < relu_sampling._MIN_TRANSVERSALITY * vnorm):
        return None
    params = -(np.vecdot(A, line.u) + B) / denom
    gaps = np.diff(np.sort(params))
    if gaps.size and float(np.min(gaps)) < relu_sampling._MIN_PARAM_GAP:
        return None
    return params


@functools.cache
def _spread_slack(k: int) -> float:
    """A bound on |fast - LAPACK| for the |det| of a k x k matrix A whose rows
    are unit vectors (2-norm 1 up to rounding, so |a_ij| <= 1), where fast is
    the full minor of ``_laplace_minors`` on A's rows in any order, LAPACK is
    ``np.linalg.det``, and u = 2^-53.

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


# The spread pass that relu_sampling._spread_ok replaced, which decided by
# LAPACK near the margin: every entry is first anchored at its subset's last
# point (relu_sampling._last_point_spreads), those below the margin plus the
# slack try anchors 0..k-1, and those whose best fast value is within the
# slack of the margin get np.linalg.det from every anchor.  Minors and the
# margin are read from relu_sampling.
def oracle_last_point_spread_ok(table, sub):
    """(m, C): whether each d-subset (a column of ``sub``) of each of m
    hyperplanes' n in-plane points affinely spans that hyperplane, given the
    points' ``_unit_vectors`` ``table`` (k = d - 1, m, n, n): from some
    anchor point of the subset, the unit vectors to the other k must have
    LAPACK |determinant| at least ``_MIN_SPREAD_DET``, decided from fast
    values within ``_spread_slack(k)`` of LAPACK's."""

    k, m, n, _ = table.shape
    flat = table.reshape(k, m * n * n)
    count = sub.shape[1]
    slack = _spread_slack(k)
    margin = relu_sampling._MIN_SPREAD_DET

    def pairs(h, c, anchor):   # flat (anchor, other point) indices, one row per other point
        rows = np.take(sub, c, axis=1)
        other = np.delete(rows, anchor, axis=0)[:, None]
        return (h * (n * n) + rows[anchor] * n + other).reshape(k, -1)

    best = relu_sampling._last_point_spreads(table, sub)   # entry h * count + c
    low = np.flatnonzero(best < margin + slack)
    for anchor in range(k):
        if low.size:
            rows = np.take(flat, pairs(*np.divmod(low, count), anchor), axis=1).swapaxes(0, 1)
            best[low] = np.maximum(best[low],
                                   np.abs(relu_sampling._laplace_minors(rows)[(1 << k) - 1]))
            low = low[best[low] < margin + slack]
    near = low[best[low] >= margin - slack]
    if near.size:
        best[near] = np.max([np.abs(np.linalg.det(flat.T[pairs(*np.divmod(near, count), a).T]))
                             for a in range(k + 1)], axis=0)
    return (best >= margin).reshape(m, count)


# The spread pass that oracle_last_point_spread_ok replaced: every entry is
# first anchored at its subset's first point, with a full Laplace expansion
# per entry.  Margins are read from relu_sampling.
def oracle_first_point_spread_ok(table, sub):
    """(m, C): whether each d-subset (a column of ``sub``) of each of m
    hyperplanes' in-plane points affinely spans that hyperplane, given the
    points' ``_unit_vectors`` ``table`` (k = d - 1, m, n, n).  Every entry is
    anchored at its subset's first point; those still below the margin plus
    ``_spread_slack(k)`` try the other anchors, and those whose best fast
    value is within the slack of the margin get ``np.linalg.det`` from every
    anchor."""

    k, m, n, _ = table.shape
    flat = table.reshape(k, m * n * n)
    count = sub.shape[1]
    slack = _spread_slack(k)
    margin = relu_sampling._MIN_SPREAD_DET

    def pairs(h, c, anchor):   # flat (anchor, other point) indices, one row per other point
        rows = np.take(sub, c, axis=1)
        other = np.delete(rows, anchor, axis=0)[:, None]
        return (h * (n * n) + rows[anchor] * n + other).reshape(k, -1)

    def fast(h, c, anchor):
        rows = np.take(flat, pairs(h, c, anchor), axis=1).swapaxes(0, 1)
        return np.abs(relu_sampling._laplace_minors(rows)[(1 << k) - 1])

    best = fast(np.arange(m)[:, None], np.arange(count), 0)   # entry h * count + c
    low = np.flatnonzero(best < margin + slack)
    for anchor in range(1, k + 1):
        if low.size:
            best[low] = np.maximum(best[low], fast(*np.divmod(low, count), anchor))
            low = low[best[low] < margin + slack]
    near = low[best[low] >= margin - slack]
    if near.size:
        best[near] = np.max([np.abs(np.linalg.det(flat.T[pairs(*np.divmod(near, count), a).T]))
                             for a in range(k + 1)], axis=0)
    return (best >= margin).reshape(m, count)


# The round check that relu_sampling._first_failure and _spread_ok replaced:
# an all-pairs distance table for (ii), and for (iii) one _spread_ok call
# per hyperplane and block, each building its own subset table and unit
# vectors.  Margins are read from relu_sampling, the block size from numerics.
def oracle_spread_ok(coords, sub):
    """Whether each d-subset (a column of ``sub``) of one hyperplane's
    in-plane points ``coords`` (n, k = d - 1) affinely spans it: from some
    anchor point of it, the unit vectors to the other k must have LAPACK
    |determinant| at least ``_MIN_SPREAD_DET``, decided from fast values
    within ``_spread_slack(k)`` of LAPACK's."""

    n, k = coords.shape
    diff = coords[None, :, :] - coords[:, None, :]   # diff[i, j] = c_j - c_i
    dist = np.linalg.norm(diff, axis=2)
    np.fill_diagonal(dist, np.inf)
    unit = (diff / dist[:, :, None]).reshape(n * n, k)
    table = np.ascontiguousarray(unit.T)
    slack = _spread_slack(k)
    margin = relu_sampling._MIN_SPREAD_DET

    def pairs(cols, anchor):   # flat (anchor, other point) indices, one row per other point
        rows = np.take(sub, cols, axis=1)
        return rows[anchor] * n + np.delete(rows, anchor, axis=0)

    def fast(cols, anchor):
        minors = relu_sampling._laplace_minors(
            np.take(table, pairs(cols, anchor), axis=1).swapaxes(0, 1))
        return np.abs(minors[(1 << k) - 1])

    best = fast(np.arange(sub.shape[1]), 0)
    low = np.flatnonzero(best < margin + slack)
    for anchor in range(1, k + 1):
        if low.size:
            best[low] = np.maximum(best[low], fast(low, anchor))
            low = low[best[low] < margin + slack]
    near = low[best[low] >= margin - slack]
    if near.size:
        best[near] = np.max([np.abs(np.linalg.det(unit[pairs(near, anchor).T]))
                             for anchor in range(k + 1)], axis=0)
    return best >= margin


def oracle_first_failure(crossings, bases, head, start):
    """The first line f that fails (ii), a crossing within ``_MIN_POINT_SEP``
    of one of a line up to f, or (iii), a d-subset of lines with last line f
    that fails ``oracle_spread_ok`` in some hyperplane; None if none fails.
    Only subsets with last line ``start`` or later are tested, in colex
    order (``head`` holds the colex order of the first md - 1 lines), in
    blocks of about ``_CHUNK_ENTRIES`` indices, and each hyperplane stops at
    the first line known to fail."""

    n_lines, m, d = crossings.shape
    flat = crossings.reshape(n_lines * m, d)
    diff = flat[:, None, :] - flat[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    np.fill_diagonal(dist, np.inf)
    close = np.argwhere(dist < relu_sampling._MIN_POINT_SEP)
    first = int(np.min(np.max(close, axis=1))) // m if close.size else n_lines
    below = np.array([comb(j, d) for j in range(n_lines + 1)])   # rows before line j
    step = max(1, numerics._CHUNK_ENTRIES // d)
    for k in range(m):
        coords = crossings[:, k, :] @ bases[k].T
        for lo in range(int(below[start]), int(below[first]), step):
            rows = np.arange(lo, min(lo + step, int(below[first])))
            last = np.searchsorted(below, rows, side="right") - 1
            sub = np.concatenate([np.take(head, rows - below[last], axis=1), last[None, :]])
            ok = oracle_spread_ok(coords, sub)
            if not np.all(ok):
                first = int(last[np.argmin(ok)])
                break
    return first if first < n_lines else None


# The line builder that relu_sampling.build_feasible_lines replaced: every
# hyperplane caches each d-subset's fast |det| from its first point, and each
# round recomputes the subsets that hold a redrawn line and redraws the
# culprit of the worst one.  Kept as it was, apart from its subset table,
# now from itertools, and the record of its redraws.  Budgets and margins are
# read from relu_sampling.
def oracle_spread_culprit(coords, members, stale, dets):
    """Every d-subset of one hyperplane's in-plane points (the columns of
    ``members``), which check (ii) has kept apart, must affinely span it: the
    unit vectors from its first point to the others must have a large
    |determinant|.  ``dets`` caches each subset's fast |determinant|; only
    subsets holding a ``stale`` line are recomputed, in blocks of about
    ``_CHUNK_ENTRIES`` indices, by ``_laplace_minors`` on the (k, n^2) table of
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
    step = max(1, numerics._CHUNK_ENTRIES // len(members))
    for start in range(0, redo.size, step):
        block = redo[start:start + step]
        sub = np.take(members, block, axis=1)   # contiguous rows, unlike members[:, block]
        pair = sub[0] * n + sub[1:]   # flat indices of (first, other) point pairs
        minors = relu_sampling._laplace_minors(np.take(table, pair, axis=1).swapaxes(0, 1))
        dets[block] = np.abs(minors[(1 << len(table)) - 1])
    stale[:] = False
    slack = _spread_slack(len(table))
    least = float(np.min(dets))
    if least - slack >= relu_sampling._MIN_SPREAD_DET:
        return None
    near = np.flatnonzero(dets <= least + 2 * slack)
    pair = members[0, near] * n + members[1:, near]
    exact = np.abs(np.linalg.det(unit[pair.T]))
    worst = int(np.argmin(exact))
    if float(exact[worst]) < relu_sampling._MIN_SPREAD_DET:
        return int(members[0, near[worst]])
    return None


def oracle_build_feasible_lines(g, seed, redraws=None):
    """Draw m*d random lines and verify the three feasibility conditions:
    full-rank directions, mutually distinct crossings, and in-plane spread of
    every d crossings sharing a hyperplane.  Failing lines are resampled.
    Each line redrawn at check (ii) or (iii) is appended to ``redraws``."""

    hyperplanes = relu_sampling._distinct_hyperplanes(g)
    m = len(hyperplanes)
    d = g.d
    if m < 1:
        raise InputError("need at least one neuron to build lines", m=m)
    if d < 2:
        raise InputError("line sampling needs input dimension >= 2", d=d)
    redraws = [] if redraws is None else redraws

    rng = np.random.default_rng(seed)
    n_lines = m * d
    lines = [None] * n_lines
    params = [None] * n_lines
    draws = 0
    # per hyperplane: an in-plane basis, cached subset spreads, redrawn lines
    members = np.array(list(itertools.combinations(range(n_lines), d))).T.copy()
    bases = [np.linalg.svd(h.a[None, :])[2][1:] for h in hyperplanes]
    dets = np.empty((m, members.shape[1]))
    stale = np.ones((m, n_lines), dtype=bool)

    def draw(j):
        nonlocal draws
        for _ in range(relu_sampling._RETRY_BUDGET):
            draws += 1
            if draws > relu_sampling._TOTAL_DRAW_CAP:
                break
            cand = relu_sampling.Line(rng.uniform(-1.0, 1.0, size=d),
                                      rng.uniform(-1.0, 1.0, size=d))
            w = oracle_line_crossings(cand, hyperplanes)
            if w is not None:
                lines[j], params[j] = cand, w
                stale[:, j] = True
                return
        raise ConstructionError(
            "line construction exhausted its retry budget; tolerances or the "
            "network geometry are pathological", draws=draws)

    for j in range(n_lines):
        draw(j)

    for _ in range(relu_sampling._RETRY_BUDGET):
        # (i) directions span the whole space
        if rank(np.stack([ln.v for ln in lines])) != d:
            draw(0)
            continue
        crossings = np.stack([ln.points_at(w) for ln, w in zip(lines, params)])
        flat = crossings.reshape(n_lines * m, d)
        # (ii) crossing points mutually distinct
        diff = flat[:, None, :] - flat[None, :, :]
        dist = np.linalg.norm(diff, axis=2)
        np.fill_diagonal(dist, np.inf)
        bad = np.unravel_index(int(np.argmin(dist)), dist.shape)
        if float(dist[bad]) < relu_sampling._MIN_POINT_SEP:
            redraws.append(int(bad[0] // m))
            draw(redraws[-1])
            continue
        # (iii) any d crossings inside one hyperplane affinely span it
        culprits = (oracle_spread_culprit(crossings[:, k, :] @ bases[k].T, members,
                                          stale[k], dets[k]) for k in range(m))
        offender = next((c for c in culprits if c is not None), None)
        if offender is None:
            break
        redraws.append(offender)
        draw(offender)
    else:
        raise ConstructionError(
            "feasibility conditions could not be met within the retry budget",
            draws=draws)

    return relu_sampling.FeasibleLineSet(
        tuple(lines), tuple(tuple(np.sort(w).tolist()) for w in params))


# A from-scratch check of the rule build_feasible_lines decides by, with
# itertools subsets and one LAPACK determinant per subset and anchor.
def oracle_first_failing_line(crossings, hyperplanes):
    """The first line (of crossings: (lines, m, d)) with a crossing within
    _MIN_POINT_SEP of a crossing of a line up to it, or that is the last line
    of a d-subset whose crossings in some hyperplane give |det| below
    _MIN_SPREAD_DET from every anchor; None when no line fails."""

    n_lines, m, d = crossings.shape
    flat = crossings.reshape(n_lines * m, d)
    i, j = np.triu_indices(len(flat), 1)
    dist = np.linalg.norm(flat[None, :, :] - flat[:, None, :], axis=2)[i, j]
    failing = [n_lines] + (j[dist < relu_sampling._MIN_POINT_SEP] // m).tolist()
    combos = np.array(list(itertools.combinations(range(n_lines), d)))
    for k, h in enumerate(hyperplanes):
        coords = crossings[:, k, :] @ np.linalg.svd(h.a[None, :])[2][1:].T
        diff = coords[None, :, :] - coords[:, None, :]
        dist = np.linalg.norm(diff, axis=2)
        np.fill_diagonal(dist, np.inf)
        unit = diff / dist[:, :, None]
        best = np.zeros(len(combos))
        for a in range(d):
            others = np.delete(combos, a, axis=1)
            rows = unit[combos[:, a][:, None], others]   # (subsets, d - 1, d - 1)
            best = np.maximum(best, np.abs(np.linalg.det(rows)))
        failing += combos[best < relu_sampling._MIN_SPREAD_DET, -1].tolist()
    first = min(failing)
    return first if first < n_lines else None


# ---------------------------------------------------------------------------
# constructed reducible instances, one per decision branch
# ---------------------------------------------------------------------------

def clause_k1_ge_3_instance():
    pairs = [((1.0, 0.0), 0.1, 1.0, 0.5), ((0.0, 1.0), -0.2, 0.7, 0.9),
             ((1.0, 1.0), 0.3, 1.2, -0.4)]
    neurons = []
    for a, b, s1, s2 in pairs:
        a = np.asarray(a)
        neurons.append((a, b, s1))
        neurons.append((-a, -b, s2))
    return make_net("relu", neurons, 0.3, d=2)


def clause_i_instance():
    a1 = np.array([1.0, 0.0])
    a2 = np.array([0.0, 1.0])
    s11, s12, s2 = 1.0, 0.6, 0.8
    residual = s11 * a1 + s2 * a2
    s3 = float(np.linalg.norm(residual))
    a3 = -residual / s3
    neurons = [(a1, 0.3, s11), (-a1, -0.3, s12), (a2, -0.2, s2), (a3, 0.4, s3)]
    return make_net("relu", neurons, -0.1, d=2)


def clause_ii_instance():
    a1 = np.array([1.0, 0.0])
    a2 = np.array([0.0, 1.0])
    s11, s12 = 1.0, 0.5
    s21, s22 = 0.8, 0.7
    residual = s11 * a1 + s21 * a2           # flip signs +1, +1, empty flip set
    a3 = residual / float(np.linalg.norm(residual))
    neurons = [(a1, 0.3, s11), (-a1, -0.3, s12),
               (a2, -0.2, s21), (-a2, 0.2, s22),
               (a3, 0.9, 0.6)]
    return make_net("relu", neurons, 0.2, d=2)


def cancelling_pairs_instance():
    a1 = np.array([1.0, 0.2])
    a2 = np.array([0.3, 1.0])
    neurons = [(a1, 0.0, 1.0), (-a1, 0.0, -1.0), (a2, 0.0, 1.0), (-a2, 0.0, -1.0)]
    return make_net("relu", neurons, 0.0, d=2)


# ---------------------------------------------------------------------------
# rank oracle
# ---------------------------------------------------------------------------

def rank_by_elimination(matrix) -> int:
    """Column-pivoted Gaussian elimination with the relative threshold that
    ``shallowid.rank`` applies to singular values; the two must agree."""

    a = np.array(matrix, dtype=float)
    scale = float(np.max(np.abs(a)))
    if scale <= ZERO_TOL:
        return 0
    threshold = RANK_TOL * scale
    rows, cols = a.shape
    r = 0
    for col in range(cols):
        if r == rows:
            break
        pivot = r + int(np.argmax(np.abs(a[r:, col])))
        if abs(a[pivot, col]) <= threshold:
            continue
        a[[r, pivot]] = a[[pivot, r]]
        a[r + 1:] -= np.outer(a[r + 1:, col] / a[r, col], a[r])
        r += 1
    return r


# ---------------------------------------------------------------------------
# separating direction of a full spark frame
# ---------------------------------------------------------------------------

def separating_direction(frame, vectors, tol=DEFAULT_TOL) -> np.ndarray:
    """First frame vector whose inner products with the given vectors are
    pairwise distinct; guaranteed to exist once the frame has at least
    C(M, 2)*(d-1)+1 members."""

    vecs = np.asarray(vectors, dtype=float)
    if vecs.ndim != 2 or vecs.shape[1] != frame.d:
        raise InputError("vectors must be an (M, d) array", shape=list(vecs.shape))
    m = vecs.shape[0]
    if m == 0:
        raise InputError("need at least one vector to separate")
    pairs = _duplicate_ridges(vecs, np.zeros(m), (1,), tol)
    if pairs:
        raise InputError("vectors must be pairwise distinct", pair=pairs[0])
    needed = comb(m, 2) * (frame.d - 1) + 1
    if frame.size < needed:
        raise InputError("frame is too small for this family",
                         size=frame.size, needed=needed)
    for v in frame.vectors:
        inner = vecs @ v
        gaps = np.abs(inner[:, None] - inner[None, :])
        np.fill_diagonal(gaps, np.inf)
        if float(np.min(gaps)) > ZERO_TOL:
            out = np.array(v, dtype=float)
            out.setflags(write=False)
            return out
    raise ValueError("no frame vector separates the family; inputs are "
                     "nearly duplicated")


# ---------------------------------------------------------------------------
# the two equivalence tests that net_core.test_equivalent replaced
# ---------------------------------------------------------------------------

# The relu test matched sign-canonical hyperplanes and the analytic test
# compared sorted sign-normalized forms; both are kept as they were, apart
# from ZERO_TOL now being a constant.
def oracle_test_equivalent(n1: ShallowNet, n2: ShallowNet,
                           tol=DEFAULT_TOL) -> EquivalenceCertificate | None:
    """Match hyperplanes bijectively and verify the scale and flip conditions.

    Requires both networks to be admissible with mutually distinct
    hyperplanes (no opposite-orientation pairs); a returned certificate
    guarantees the two networks agree at every input.  Hyperplanes, scales,
    the flip sum and the constant are all compared within match_tol, so a
    reconstruction from noisy samples can be certified.
    """

    for name, net in (("first", n1), ("second", n2)):
        if net.activation.kind != "relu":
            raise InputError(f"{name} network is not relu")
    if n1.d != n2.d:
        raise InputError("networks have different input dimensions", d1=n1.d, d2=n2.d)
    g1 = group(n1, tol)
    g2 = group(n2, tol)
    for name, g in (("first", g1), ("second", g2)):
        if g.K1:
            raise HypothesisError(
                f"{name} network has coincident hyperplanes; the equivalence "
                "characterization does not apply", network=name)

    if n1.m != n2.m:
        return None
    if n1.m == 0:
        if abs(n1.c - n2.c) <= tol.match_tol * (1.0 + abs(n1.c)):
            return EquivalenceCertificate((), (), (), frozenset(), 0.0)
        return None

    def describe(net: ShallowNet):
        rows = []
        for n in net.neurons:
            norm = float(np.linalg.norm(n.a))
            h, sign = canonical_hyperplane(n.a, n.b)
            rows.append((h, sign, norm, n))
        return rows

    rows1 = describe(n1)
    rows2 = describe(n2)
    unmatched = set(range(n2.m))
    permutation: list[int] = []
    epsilon: list[int] = []
    lam: list[float] = []
    for h1, sign1, norm1, neuron1 in rows1:
        match = None
        for j in unmatched:
            if h1.matches(rows2[j][0], tol):
                match = j
                break
        if match is None:
            return None
        unmatched.discard(match)
        _, sign2, norm2, neuron2 = rows2[match]
        eps = int(sign1 * sign2)
        scale = norm2 / norm1
        if abs(neuron1.s / scale - neuron2.s) > tol.match_tol * (1.0 + abs(neuron2.s)):
            return None
        permutation.append(match)
        epsilon.append(eps)
        lam.append(scale)

    flipped = frozenset(k for k, e in enumerate(epsilon) if e == -1)
    flip_sum = np.zeros(n1.d)
    shift = 0.0
    weight = 1.0
    for k in flipped:
        neuron = n1.neurons[k]
        flip_sum += neuron.s * neuron.a
        shift += neuron.s * neuron.b
        weight += abs(neuron.s) * float(np.linalg.norm(neuron.a))
    if float(np.linalg.norm(flip_sum)) > tol.match_tol * weight:
        return None
    if abs(n2.c - (n1.c + shift)) > tol.match_tol * (1.0 + abs(n1.c) + abs(shift)):
        return None
    return EquivalenceCertificate(tuple(permutation), tuple(epsilon),
                                  tuple(lam), flipped, shift)


def oracle_canonicalize_analytic(net: ShallowNet, tol=DEFAULT_TOL) -> ShallowNet:
    """Sign-normalized, sorted form of an admissible network: flip neurons
    whose direction starts negative (absorbing s*c0 into the constant), then
    sort.  Evaluation is unchanged pointwise, and equal forms mean equal
    networks."""

    if net.activation.kind == "relu":
        raise InputError("this operation applies to sigmoid/tanh networks; "
                         "use the relu-specific routines instead")
    violations = admissibility_violations(net, tol)
    if violations:
        raise AdmissibilityError("network is not admissible", violations=violations)
    c0 = net.activation.c0
    c = net.c
    rows = []
    for n in net.neurons:
        if _first_significant_sign(n.a) < 0:
            rows.append((-n.a, -n.b, -n.s))
            c += n.s * c0
        else:
            rows.append((n.a, n.b, n.s))
    rows.sort(key=lambda r: (tuple(r[0]), r[1], r[2]))
    return make_net(net.activation.kind, rows, c, d=net.d)


def oracle_test_equivalent_analytic(n1: ShallowNet, n2: ShallowNet, tol=DEFAULT_TOL) -> bool:
    """Field-by-field match of the two canonical forms within match_tol."""

    if n1.activation.kind != n2.activation.kind:
        raise InputError("networks use different activations",
                         first=n1.activation.kind, second=n2.activation.kind)
    if n1.d != n2.d:
        raise InputError("networks have different input dimensions")
    f1 = oracle_canonicalize_analytic(n1, tol)
    f2 = oracle_canonicalize_analytic(n2, tol)
    if len(f1.neurons) != len(f2.neurons):
        return False
    if abs(f1.c - f2.c) > tol.match_tol * (1.0 + abs(f1.c)):
        return False
    unmatched = list(range(len(f2.neurons)))
    for n in f1.neurons:
        hit = None
        for j in unmatched:
            other = f2.neurons[j]
            if (float(np.max(np.abs(n.a - other.a))) <= tol.match_tol
                    and abs(n.b - other.b) <= tol.match_tol
                    and abs(n.s - other.s) <= tol.match_tol * (1.0 + abs(n.s))):
                hit = j
                break
        if hit is None:
            return False
        unmatched.remove(hit)
    return True


# ---------------------------------------------------------------------------
# the pairwise loops that net_core's match matrices replaced
# ---------------------------------------------------------------------------

# Kept as they were, apart from the names: canonical_hyperplane,
# _duplicate_ridges (which took a list of (a, b) rows, None for a skipped
# row), admissibility_violations, group and grouped_from_entries.

def _first_significant_sign(a: np.ndarray) -> float:
    thresh = ZERO_TOL * max(1.0, float(np.max(np.abs(a))))
    for entry in a:
        if abs(entry) > thresh:
            return 1.0 if entry > 0 else -1.0
    raise InputError("cannot orient the zero vector")


def oracle_canonical_hyperplane(a, b: float) -> tuple[Hyperplane, float]:
    v = np.asarray(a, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm <= ZERO_TOL:
        raise InputError("hyperplane direction is numerically zero")
    if abs(norm - 1.0) <= ZERO_TOL:
        # already unit within tolerance: skip the division so that
        # canonicalization is exactly idempotent
        u, beta = v.astype(float), float(b)
    else:
        u, beta = v / norm, float(b) / norm
    sign = _first_significant_sign(u)
    if sign < 0:
        u, beta = -u, -beta
    u = u.copy()
    u.setflags(write=False)
    return Hyperplane(u, beta), sign


def oracle_duplicate_ridges(rows, signs, tol=DEFAULT_TOL) -> list[list[int]]:
    pairs = []
    for k1, r1 in enumerate(rows):
        for k2 in range(k1 + 1, len(rows)):
            if r1 is None or rows[k2] is None:
                continue
            (a1, b1), (a2, b2) = r1, rows[k2]
            pairs += [[k1, k2] for sign in signs
                      if float(np.max(np.abs(a1 - sign * a2))) <= tol.match_tol
                      and abs(b1 - sign * b2) <= tol.match_tol]
    return pairs


def oracle_admissibility_violations(net: ShallowNet, tol=DEFAULT_TOL) -> list[dict]:
    relu = net.activation.kind == "relu"
    violations: list[dict] = []
    rows = []
    for k, n in enumerate(net.neurons):
        norm = float(np.linalg.norm(n.a))
        if abs(n.s) * norm <= ZERO_TOL:
            reason = ("zero neuron" if not relu
                      else "zero direction" if norm <= ZERO_TOL else "zero scale")
            violations.append({"clause": "i", "neuron": k, "reason": reason})
            rows.append(None if relu else (n.a, n.b))
        else:
            rows.append((n.a / norm, n.b / norm) if relu else (n.a, n.b))
    reason = "positive-scale duplicate ridge" if relu else "sign-duplicate ridge"
    violations += [{"clause": "ii", "neurons": pair, "reason": reason}
                   for pair in oracle_duplicate_ridges(rows, (1,) if relu else (1.0, -1.0), tol)]
    if relu and not violations and _oracle_relu_group(net, tol).m != net.m:
        # two neurons met in one hyperplane/orientation slot and were merged
        violations = [{"clause": "ii", "reason": "positive-scale duplicate ridge"}]
    return violations


def _oracle_relu_group(net: ShallowNet, tol=DEFAULT_TOL) -> GroupedReLU:
    return oracle_grouped_from_entries(((n.a, n.b, n.s * float(np.linalg.norm(n.a)))
                                        for n in net.neurons), net.c, net.d, tol)


def oracle_group(net: ShallowNet, tol=DEFAULT_TOL) -> GroupedReLU:
    if net.activation.kind != "relu":
        raise InputError("admissibility grouping applies to relu networks only")
    violations = oracle_admissibility_violations(net, tol)
    if not violations:
        return _oracle_relu_group(net, tol)
    v = violations[0]
    raise AdmissibilityError(
        f"network is not admissible: clause ({v['clause']}) {v['reason']}",
        violations=violations)


def oracle_grouped_from_entries(entries, c: float, d: int, tol=DEFAULT_TOL) -> GroupedReLU:
    buckets: list[dict] = []
    for a, b, s in entries:
        h, sign = oracle_canonical_hyperplane(a, b)
        for bucket in buckets:
            if h.matches(bucket["h"], tol):
                break
        else:
            bucket = {"h": h, "plus": 0.0, "minus": 0.0}
            buckets.append(bucket)
        bucket["plus" if sign > 0 else "minus"] += s

    k1 = []
    k2 = []
    for bucket in buckets:
        sp = bucket["plus"] if abs(bucket["plus"]) > ZERO_TOL else 0.0
        sm = bucket["minus"] if abs(bucket["minus"]) > ZERO_TOL else 0.0
        if sp and sm:
            k1.append(PairedEntry(bucket["h"], sp, sm))
        elif sp:
            k2.append(Neuron(bucket["h"].a, bucket["h"].b, sp))
        elif sm:
            a = -bucket["h"].a
            a.setflags(write=False)
            k2.append(Neuron(a, -bucket["h"].b, sm))
    return GroupedReLU(tuple(k1), tuple(k2), float(c), d)

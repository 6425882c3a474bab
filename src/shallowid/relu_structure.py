"""Reducibility decision and constructive reduction for relu networks.

Everything here works on the paired/single normal form produced by
``net_core.group``.  The driving identity is relu(t) = t + relu(-t): flipping
the orientation of a neuron trades it for the opposite orientation plus a
linear term, and a network is reducible exactly when the linear terms freed by
some combination of flips can be absorbed with fewer neurons than they cost.

Decision layout (K1 = opposite-orientation pairs, K2 = lone orientations):

* a pair whose scales cancel (s1 + s2 = 0) is itself a linear function; the
  cancellation pre-pass handles every network containing one,
* with no cancelling pair:  #K1 >= 3 is always reducible;  #K1 = 1 is
  reducible iff some flip pattern zeroes the freed linear direction;
  #K1 = 2 is reducible iff the freed direction is parallel to one of the
  network's own hyperplane normals (absorbable at the cost of one neuron);
  #K1 = 0 is irreducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantError
from .net_core import GroupedReLU, ShallowNet, evaluate_many, group, grouped_from_entries
from .numerics import _screen_subset_sums, subset_sums
from .tolerances import DEFAULT_TOL, ZERO_TOL, ToleranceConfig

_PROBE_SEED = 0x5eed
_PROBE_POINTS = 200


@dataclass(frozen=True)
class ReductionWitness:
    """Recipe for one strict neuron-count reduction.

    epsilon assigns a flip sign to every K1 pair; k2_prime lists the K2
    entries to flip; k0 (a global index, K1 entries first) with coefficient c0
    names the hyperplane that absorbs the freed linear term when it is not
    zero.
    """

    case: str  # "K1_eq_1" | "K1_eq_2" | "K1_ge_3" | "cancellation"
    epsilon: tuple[int, ...]
    k2_prime: frozenset[int]
    k0: int | None = None
    c0: float | None = None


def _cancelling_pairs(g: GroupedReLU) -> list[int]:
    return [i for i, p in enumerate(g.K1) if abs(p.s1 + p.s2) <= ZERO_TOL]


def _coefficient_scale(g: GroupedReLU) -> float:
    total = sum(abs(p.s1) + abs(p.s2) for p in g.K1) + sum(abs(e.s) for e in g.K2)
    return 1.0 + total


def _direction_of(g: GroupedReLU, k0: int) -> tuple[np.ndarray, float]:
    """Stored (direction, bias) of the global entry index k0 (K1 first)."""

    if k0 < len(g.K1):
        pair = g.K1[k0]
        return pair.h.a, pair.h.b
    entry = g.K2[k0 - len(g.K1)]
    return entry.a, entry.b


def _absorption(w: np.ndarray, a0: np.ndarray) -> tuple[float, float]:
    """Coefficient c0 that cancels w along a0, and the norm of what is left."""

    c0 = -float(w @ a0) / float(a0 @ a0)
    return c0, float(np.linalg.norm(w + c0 * a0))


def _freed(g: GroupedReLU, epsilon, flips) -> tuple[np.ndarray, float]:
    """Linear term (w, q) freed by a flip pattern, summed over the K1 pairs'
    sides chosen by epsilon first, then the K2 entries of flips ascending."""

    terms = [((p.s1 if e == 1 else p.s2) * e, p.h) for e, p in zip(epsilon, g.K1)]
    terms += [(g.K2[j].s, g.K2[j]) for j in sorted(flips)]
    return sum((s * t.a for s, t in terms), np.zeros(g.d)), sum((s * t.b for s, t in terms), 0.0)


def _search(g: GroupedReLU, case: str, patterns, absorbers, allow_zero: bool,
            zero: float) -> ReductionWitness | None:
    """First witness over the K1 sign patterns in order, then the K2 flip sets
    F by size and lexicographically, whose freed vector w is zero (if
    allow_zero) or absorbable along an absorber's direction, by index.  A
    vectorised screen over the 2^n subset sums, with room for rounding, picks
    the flip sets, and the scalar test decides them on reduce_once's sum."""

    n = len(g.K2)
    rows = np.array([e.s * e.a for e in g.K2]).reshape(n, g.d)
    directions = {k: _direction_of(g, k)[0] for k in absorbers}
    # size * 2^n minus 2^(n-1-j) per row j sorts as itertools.combinations
    key = subset_sums(2.0 ** n - 2.0 ** np.arange(n - 1, -1, -1))

    def near(sums: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(sums, axis=1)
        loose = zero + 64.0 * (g.d + 2) * np.finfo(float).eps * norms
        hit = (norms <= loose) & allow_zero
        for a0 in directions.values():
            hit |= np.linalg.norm(sums - np.outer(sums @ a0 / (a0 @ a0), a0), axis=1) <= loose
        return hit

    for eps in patterns:
        masks = _screen_subset_sums(rows, near, _freed(g, eps, ())[0])
        for mask in masks[np.argsort(key[masks])].tolist():
            flips = [j for j in range(n) if mask >> j & 1]
            w = _freed(g, eps, flips)[0]
            if allow_zero and float(np.linalg.norm(w)) <= zero:
                return ReductionWitness(case, eps, frozenset(flips))
            for k, a0 in directions.items():
                c0, left = _absorption(w, a0)
                if left <= zero:
                    return ReductionWitness(case, eps, frozenset(flips), k, c0)
    return None


def test_reducible(g: GroupedReLU, tol: ToleranceConfig = DEFAULT_TOL) -> ReductionWitness | None:
    """Return a reduction witness when the neuron count can be lowered.

    Search order: cancellation pre-pass, then #K1 >= 3, #K1 = 1, #K1 = 2.
    A cancelling pair yields a witness only when removing it actually wins:
    a network that is exactly one cancelling pair plus lone neurons needs the
    freed linear term absorbed somewhere, just like the #K1 = 2 clause.
    A search over more than 20 lone neurons raises SizeError.
    """

    zero = ZERO_TOL * _coefficient_scale(g)
    cancelling = _cancelling_pairs(g)
    n_pairs = len(g.K1)
    all_plus = tuple(1 for _ in range(n_pairs))

    if cancelling and len(cancelling) + n_pairs >= 3:
        return ReductionWitness("cancellation", all_plus, frozenset())
    if cancelling:
        # exactly one cancelling pair and nothing else in K1: removing it
        # frees a linear term that must be absorbed for a strict win
        return _search(g, "cancellation", [all_plus], range(1, 1 + len(g.K2)), True, zero)
    if n_pairs >= 3:
        return ReductionWitness("K1_ge_3", all_plus, frozenset())
    if n_pairs == 1:
        return _search(g, "K1_eq_1", [(1,), (-1,)], (), True, zero)
    if n_pairs == 2:
        return _search(g, "K1_eq_2", [(1, 1), (1, -1), (-1, 1), (-1, -1)],
                       range(2 + len(g.K2)), False, zero)
    return None


def _probe_points(d: int) -> np.ndarray:
    rng = np.random.default_rng(_PROBE_SEED + d)
    return rng.uniform(-2.0, 2.0, size=(_PROBE_POINTS, d))


def reduce_once(g: GroupedReLU, witness: ReductionWitness,
                tol: ToleranceConfig = DEFAULT_TOL) -> GroupedReLU:
    """Apply one witnessed rewrite; the result has strictly fewer neurons and
    the same values everywhere (checked on a random grid)."""

    if len(witness.epsilon) != len(g.K1) or any(j >= len(g.K2) for j in witness.k2_prime):
        raise InvariantError("stale witness: index structure does not match the network")

    entries: list[tuple[np.ndarray, float, float]] = []
    for e, pair in zip(witness.epsilon, g.K1):
        if abs(pair.s1 + pair.s2) > ZERO_TOL:
            entries.append((-e * pair.h.a, -e * pair.h.b, pair.s1 + pair.s2))
    for j, entry in enumerate(g.K2):
        flip = -1.0 if j in witness.k2_prime else 1.0
        entries.append((flip * entry.a, flip * entry.b, entry.s))
    w, q = _freed(g, witness.epsilon, witness.k2_prime)

    c_new = g.c
    zero = ZERO_TOL * _coefficient_scale(g)
    if float(np.linalg.norm(w)) <= zero:
        c_new += q
    elif witness.k0 is not None:
        if witness.k0 >= len(g.K1) + len(g.K2):
            raise InvariantError("stale witness: absorption index out of range")
        a0, b0 = _direction_of(g, witness.k0)
        c0, left = _absorption(w, a0)
        if left > zero:
            raise InvariantError("stale witness: freed direction no longer absorbable")
        entries.append((a0, b0, -c0))
        entries.append((-a0, -b0, c0))
        c_new += q + c0 * b0
    else:
        norm = float(np.linalg.norm(w))
        u = w / norm
        entries.append((u, 0.0, norm))
        entries.append((-u, 0.0, -norm))
        c_new += q

    reduced = grouped_from_entries(entries, c_new, g.d, tol)
    if reduced.m >= g.m:
        raise InvariantError("stale witness: rewrite did not reduce the neuron count",
                             before=g.m, after=reduced.m)
    pts = _probe_points(g.d)
    before = evaluate_many(g.to_net(), pts)
    after = evaluate_many(reduced.to_net(), pts)
    bound = 1e-9 * (1.0 + np.abs(before))
    if np.any(np.abs(after - before) > bound):
        raise InvariantError("stale witness: rewrite changed the function",
                             max_gap=float(np.max(np.abs(after - before))))
    return reduced


def reduce_fully(net: ShallowNet, tol: ToleranceConfig = DEFAULT_TOL) -> ShallowNet:
    """Iterate reduction to a fixpoint; the result is irreducible."""

    g = group(net, tol)
    budget = g.m + 1
    for _ in range(budget + 1):
        witness = test_reducible(g, tol)
        if witness is None:
            return g.to_net()
        g = reduce_once(g, witness, tol)
    raise InvariantError("reduction did not terminate within the neuron budget")

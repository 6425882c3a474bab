"""Construct pairs of non-equivalent irreducible relu networks that agree on
every point of a given finite set.

The trick: split a base direction w into w + eps*n and w - eps*n with n
orthogonal to w.  When eps times |<n, x>| stays below |<w, x> + b| at every
given point, the two halves are jointly active or jointly inactive there, so
their sum collapses to a function of <w, x> + b alone, independent of eps.
On the hyperplane <w, x> + b = 0 the sum equals eps * <n, x>, which separates
different eps values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, InputError
from .net_core import (ShallowNet, _canonical_rows, _match_matrix, _row_norms, evaluate_many,
                       make_net, net_to_json_obj)
from .tolerances import DEFAULT_TOL, ZERO_TOL, ToleranceConfig

_RETRY_BUDGET = 1000
_MIN_MARGIN = 1e-3      # |<w, x_j> + b| floor relative to point scale
_MIN_EPS_PRIME = 1e-5   # keeps the witness gap comfortably above 1e-6


@dataclass(frozen=True)
class AdversaryParams:
    w: np.ndarray
    b: float
    n: np.ndarray
    eps: float
    eps_prime: float
    extra_neurons: tuple[tuple[np.ndarray, float], ...]


@dataclass(frozen=True)
class AdversarialPair:
    net1: ShallowNet
    net2: ShallowNet
    witness: np.ndarray
    params: AdversaryParams


def build_pair(points, m: int, seed: int,
               tol: ToleranceConfig = DEFAULT_TOL) -> AdversarialPair:
    """Two irreducible m-neuron networks equal on all given points but not at
    the returned witness point."""

    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise InputError("points must form a nonempty (n, d) array",
                         shape=list(pts.shape))
    d = pts.shape[1]
    if d < 2:
        raise InputError("the construction needs input dimension >= 2", d=d)
    if m < 2:
        raise InputError("the construction needs at least two neurons", m=m)

    rng = np.random.default_rng(seed)
    point_scale = 1.0 + float(np.max(np.abs(pts)))

    for _ in range(_RETRY_BUDGET):
        w = rng.normal(size=d)
        norm = float(np.linalg.norm(w))
        if norm <= ZERO_TOL:
            continue
        w = w / norm
        b = float(rng.uniform(-1.0, 1.0))
        gaps = pts @ w + b
        margin = float(np.min(np.abs(gaps)))
        if margin < _MIN_MARGIN * point_scale:
            continue
        raw = rng.normal(size=d)
        raw = raw - float(raw @ w) * w
        nnorm = float(np.linalg.norm(raw))
        if nnorm <= ZERO_TOL:
            continue
        n = raw / nnorm
        reach = float(np.max(np.abs(pts @ n)))
        eps_prime = 0.5 * margin / max(reach, ZERO_TOL)
        eps_prime = min(eps_prime, 1.0)
        if eps_prime < _MIN_EPS_PRIME:
            continue
        eps = eps_prime / 2.0

        special = np.array([w + eps * n, w - eps * n, w + eps_prime * n, w - eps_prime * n])
        taken = _canonical_rows(special, np.full(4, b), _row_norms(special))[:2]
        extras: list[tuple[np.ndarray, float]] = []
        ok = True
        for _ in range(m - 2):
            for _ in range(_RETRY_BUDGET):
                a = rng.normal(size=d)
                an = float(np.linalg.norm(a))
                if an <= ZERO_TOL:
                    continue
                a = a / an
                bk = float(rng.uniform(-1.0, 1.0))
                new = _canonical_rows(a[None], np.array([bk]), _row_norms(a[None]))[:2]
                if not np.any(_match_matrix(*new, *taken, 1, tol)):
                    extras.append((a, bk))
                    taken = (np.vstack([taken[0], new[0]]), np.append(taken[1], new[1]))
                    break
            else:
                ok = False
                break
        if not ok:
            continue

        shared = [(a, bk, 1.0) for a, bk in extras]
        net1 = make_net("relu", [(w + eps * n, b, 1.0), (w - eps * n, b, 1.0)] + shared,
                        0.0, d=d)
        net2 = make_net("relu", [(w + eps_prime * n, b, 1.0),
                                 (w - eps_prime * n, b, 1.0)] + shared, 0.0, d=d)
        witness = -b * w + n

        agree = float(np.max(np.abs(evaluate_many(net1, pts) - evaluate_many(net2, pts))))
        gap = abs(float(evaluate_many(net1, witness[None, :])[0]
                        - evaluate_many(net2, witness[None, :])[0]))
        if agree > 1e-12 * point_scale or gap < (eps_prime - eps) / 2.0:
            continue
        return AdversarialPair(net1, net2, witness,
                               AdversaryParams(w, b, n, eps, eps_prime, tuple(extras)))
    raise ConstructionError("adversarial construction exhausted its retry budget",
                            retries=_RETRY_BUDGET)


def pair_to_json_obj(pair: AdversarialPair) -> dict:
    p = pair.params
    return {
        "net1": net_to_json_obj(pair.net1),
        "net2": net_to_json_obj(pair.net2),
        "witness": [float(x) for x in pair.witness],
        "params": {
            "w": [float(x) for x in p.w],
            "b": p.b,
            "n": [float(x) for x in p.n],
            "eps": p.eps,
            "eps_prime": p.eps_prime,
            "extra_neurons": [{"a": [float(x) for x in a], "b": b}
                              for a, b in p.extra_neurons],
        },
    }

"""Two-layer network representation, evaluation, grouping, equivalence
certificates and JSON round trip.

A network computes  f(x) = sum_k s_k * act(<a_k, x> + b_k) + c  for one of the
activations relu, sigmoid or tanh.  For relu networks the neurons can be
regrouped by the hyperplane <a,x>+b = 0 they bend on: opposite orientations of
the same hyperplane form a pair (K1), lone orientations stay single (K2).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import schema
from .errors import AdmissibilityError, HypothesisError, InputError, ParseError
from .tolerances import DEFAULT_TOL, ZERO_TOL, ToleranceConfig

ACTIVATIONS = ("relu", "sigmoid", "tanh")

# sigma(x) + sigma(-x) for the analytic activations
FLIP_CONSTANT = {"sigmoid": 1.0, "tanh": 0.0}


@dataclass(frozen=True)
class Activation:
    """Activation tag plus its flip constant (unused for relu)."""

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ACTIVATIONS:
            raise InputError(f"unknown activation {self.kind!r}", kind=self.kind)

    @property
    def c0(self) -> float:
        if self.kind == "relu":
            raise InputError("flip constant is undefined for relu")
        return FLIP_CONSTANT[self.kind]

    def apply(self, z: np.ndarray) -> np.ndarray:
        if self.kind == "relu":
            return np.maximum(z, 0.0)
        if self.kind == "sigmoid":
            # overflow-free logistic: 1/(1+e^-z) = (1 + tanh(z/2)) / 2
            return 0.5 * (1.0 + np.tanh(0.5 * z))
        return np.tanh(z)


def _as_vector(a, name: str, d: int | None = None) -> np.ndarray:
    v = np.asarray(a, dtype=float)
    if v.ndim != 1:
        raise InputError(f"{name} must be a 1-d vector", shape=list(v.shape))
    if d is not None and v.shape[0] != d:
        raise InputError(f"{name} has length {v.shape[0]}, expected {d}")
    v = v.copy()
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class Neuron:
    a: np.ndarray
    b: float
    s: float


@dataclass(frozen=True)
class ShallowNet:
    """Parameters (a_k, b_k, s_k, c) of a two-layer scalar-output network."""

    activation: Activation
    d: int
    neurons: tuple[Neuron, ...]
    c: float

    def __post_init__(self) -> None:
        if self.d < 1:
            raise InputError("input dimension must be positive", d=self.d)
        for k, n in enumerate(self.neurons):
            if n.a.shape != (self.d,):
                raise InputError(
                    f"neuron {k} direction has length {n.a.shape[0]}, expected {self.d}",
                    neuron=k)

    @property
    def m(self) -> int:
        return len(self.neurons)

    def weight_matrix(self) -> np.ndarray:
        if not self.neurons:
            return np.zeros((0, self.d))
        return np.stack([n.a for n in self.neurons])

    def biases(self) -> np.ndarray:
        return np.array([n.b for n in self.neurons], dtype=float)

    def scales(self) -> np.ndarray:
        return np.array([n.s for n in self.neurons], dtype=float)


def make_net(activation: str, neurons: Iterable[tuple], c: float, d: int | None = None) -> ShallowNet:
    """Build a ShallowNet from (a, b, s) triples, inferring d when possible."""

    rows = [(np.asarray(a, dtype=float), float(b), float(s)) for a, b, s in neurons]
    if d is None:
        if not rows:
            raise InputError("d must be given for a network with no neurons")
        d = rows[0][0].shape[0]
    packed = tuple(Neuron(_as_vector(a, f"neuron {k} direction", d), b, s)
                   for k, (a, b, s) in enumerate(rows))
    return ShallowNet(Activation(activation), int(d), packed, float(c))


def evaluate(net: ShallowNet, x: Sequence[float] | np.ndarray) -> float:
    """Value of the network at a single point."""

    v = np.asarray(x, dtype=float)
    if v.shape != (net.d,):
        raise InputError(f"point has shape {list(v.shape)}, expected ({net.d},)")
    return float(evaluate_many(net, v[None, :])[0])


def evaluate_many(net: ShallowNet, points: np.ndarray) -> np.ndarray:
    """Vectorized evaluation over an (n, d) array of points."""

    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != net.d:
        raise InputError("points must be an (n, d) array", shape=list(pts.shape))
    if net.m == 0:
        return np.full(pts.shape[0], net.c)
    # huge finite points may overflow: sigmoid and tanh saturate correctly,
    # and callers that need finite values check for them
    with np.errstate(over="ignore", invalid="ignore"):
        z = pts @ net.weight_matrix().T + net.biases()
        return net.activation.apply(z) @ net.scales() + net.c


# ---------------------------------------------------------------------------
# hyperplanes and the paired/single normal form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hyperplane:
    """Zero set of <a,x>+b with unit a and canonical sign."""

    a: np.ndarray
    b: float

    def matches(self, other: "Hyperplane", tol: ToleranceConfig = DEFAULT_TOL) -> bool:
        return (float(np.max(np.abs(self.a - other.a))) <= tol.match_tol
                and abs(self.b - other.b) <= tol.match_tol)


def _row_norms(A: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of A, bit for bit the np.linalg.norm of the
    row on its own (np.linalg.norm(A, axis=1) sums in another order)."""

    A = np.ascontiguousarray(A)  # a strided row would take another BLAS kernel
    return np.sqrt(np.vecdot(A, A))


def _canonical_rows(A: np.ndarray, B: np.ndarray,
                    norms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """canonical_hyperplane of every row of (A, B), given the row norms:
    the (n, d) unit directions, the (n,) offsets and the (n,) orientations."""

    if (norms <= ZERO_TOL).any():
        raise InputError("hyperplane direction is numerically zero")
    # a row already unit within tolerance is not divided, so that
    # canonicalization is exactly idempotent
    scale = np.where(np.abs(norms - 1.0) <= ZERO_TOL, 1.0, norms)
    U = A / scale[:, None]
    beta = B / scale
    # orient by the first entry above ZERO_TOL relative to the row's largest
    mag = np.abs(U)
    significant = mag > ZERO_TOL * np.maximum(mag.max(axis=1), 1.0)[:, None]
    if not significant.any(axis=1).all():
        raise InputError("cannot orient the zero vector")
    sign = np.where(U[np.arange(len(U)), significant.argmax(axis=1)] > 0, 1.0, -1.0)
    U *= sign[:, None]
    beta *= sign
    return U, beta, sign


def canonical_hyperplane(a, b: float) -> tuple[Hyperplane, float]:
    """Unit-normalized, sign-fixed hyperplane through <a,x>+b=0.

    Returns (hyperplane, orientation) where orientation is +1 when (a, b) is a
    positive multiple of the canonical representative and -1 otherwise.
    """

    A = np.array(a, dtype=float, ndmin=2)
    U, beta, sign = _canonical_rows(A, np.array([float(b)]), _row_norms(A))
    U.setflags(write=False)
    return Hyperplane(U[0], float(beta[0])), float(sign[0])


def _match_matrix(A1: np.ndarray, B1: np.ndarray, A2: np.ndarray, B2: np.ndarray,
                  sign: float, tol: ToleranceConfig) -> np.ndarray:
    """(n1, n2) booleans: row i of (A1, B1) equals sign times row j of
    (A2, B2) within match_tol in every entry (Hyperplane.matches for sign 1)."""

    with np.errstate(over="ignore"):   # a difference that overflows is inf, a non-match
        return ((np.abs(A1[:, None, :] - sign * A2[None, :, :]).max(axis=2) <= tol.match_tol)
                & (np.abs(B1[:, None] - sign * B2[None, :]) <= tol.match_tol))


@dataclass(frozen=True)
class PairedEntry:
    """Opposite-orientation couple on one hyperplane: s1 multiplies the
    canonical orientation, s2 the reversed one."""

    h: Hyperplane
    s1: float
    s2: float


@dataclass(frozen=True)
class GroupedReLU:
    """Normal form of a relu network: K1 pairs, K2 singles, constant."""

    K1: tuple[PairedEntry, ...]
    K2: tuple[Neuron, ...]  # lone orientations, unit direction (not sign-canonicalized)
    c: float
    d: int

    @property
    def m(self) -> int:
        return 2 * len(self.K1) + len(self.K2)

    def to_net(self) -> ShallowNet:
        neurons = []
        for p in self.K1:
            neurons.append((p.h.a, p.h.b, p.s1))
            neurons.append((-p.h.a, -p.h.b, p.s2))
        for e in self.K2:
            neurons.append((e.a, e.b, e.s))
        return make_net("relu", neurons, self.c, d=self.d)


def _duplicate_ridges(A: np.ndarray, B: np.ndarray, signs,
                      tol: ToleranceConfig) -> list[list[int]]:
    """Index pairs [k1, k2], k1 < k2, whose rows (A, B) satisfy
    (a1, b1) = sign * (a2, b2) within match_tol, once per matching sign in
    ``signs``, ordered by (k1, k2, sign)."""

    if len(B) < 2:
        return []
    upper = np.arange(len(B))[:, None] < np.arange(len(B))
    k1, k2, _ = np.nonzero(np.stack([_match_matrix(A, B, A, B, sign, tol) & upper
                                     for sign in signs], axis=2))
    return [list(pair) for pair in zip(k1.tolist(), k2.tolist())]


def _admissibility(net: ShallowNet, tol: ToleranceConfig
                   ) -> tuple[list[dict], GroupedReLU | None]:
    """admissibility_violations and, for an admissible relu network, its
    normal form, from one grouping pass."""

    relu = net.activation.kind == "relu"
    A = net.weight_matrix()
    norms = _row_norms(A)
    zero = np.abs(net.scales()) * norms <= ZERO_TOL
    violations: list[dict] = [
        {"clause": "i", "neuron": k,
         "reason": ("zero neuron" if not relu
                    else "zero direction" if norms[k] <= ZERO_TOL else "zero scale")}
        for k in np.flatnonzero(zero).tolist()]
    if relu:  # a zero relu neuron has no ridge
        keep = np.flatnonzero(~zero)
        rows, offsets = A[keep] / norms[keep, None], net.biases()[keep] / norms[keep]
    else:
        keep = np.arange(net.m)
        rows, offsets = A, net.biases()
    reason = "positive-scale duplicate ridge" if relu else "sign-duplicate ridge"
    violations += [{"clause": "ii", "neurons": keep[pair].tolist(), "reason": reason}
                   for pair in _duplicate_ridges(rows, offsets,
                                                 (1,) if relu else (1.0, -1.0), tol)]
    if violations or not relu:
        return violations, None
    g, slots = _grouped(A, net.biases(), (net.scales() * norms).tolist(), norms,
                        net.c, net.d, tol)
    first: dict[tuple, int] = {}
    for k, slot in enumerate(slots):
        if slot in first:
            # two neurons met in one hyperplane/orientation slot, which the
            # unit-row check can miss: a canonical row is not divided at unit
            # norm, and a bucket takes what its first term matches
            return [{"clause": "ii", "neurons": [first[slot], k], "reason": reason}], None
        first[slot] = k
    return [], g


def admissibility_violations(net: ShallowNet, tol: ToleranceConfig = DEFAULT_TOL) -> list[dict]:
    """Every violated clause of admissibility; an empty list means admissible.

    Clause (i): every s_k * a_k nonzero.  Clause (ii): no ridge (a_k, b_k)
    duplicates another.  Relu is positively homogeneous, so ridges are
    compared as unit rows and only a positive multiple duplicates.  For
    sigmoid and tanh sigma(x) + sigma(-x) is constant, so a ridge equal to
    plus or minus another duplicates it, and admissible means irreducible.
    Two relu neurons that meet in one slot of ``group``'s normal form also
    violate clause (ii).
    """

    return _admissibility(net, tol)[0]


def group(net: ShallowNet, tol: ToleranceConfig = DEFAULT_TOL) -> GroupedReLU:
    """Rewrite an admissible relu network into the paired/single normal form.

    Each neuron is first rescaled to a unit direction (the norm folds into the
    scale, which leaves relu values unchanged), then neurons sharing one
    hyperplane with opposite orientations are paired.
    """

    if net.activation.kind != "relu":
        raise InputError("admissibility grouping applies to relu networks only")
    violations, g = _admissibility(net, tol)
    if g is not None:
        return g
    v = violations[0]
    raise AdmissibilityError(
        f"network is not admissible: clause ({v['clause']}) {v['reason']}",
        violations=violations)


def grouped_from_entries(entries: Iterable[tuple[np.ndarray, float, float]],
                         c: float, d: int,
                         tol: ToleranceConfig = DEFAULT_TOL) -> GroupedReLU:
    """Regroup raw oriented (a, b, coefficient) terms, merging coincident
    hyperplane/orientation slots and dropping coefficients below ZERO_TOL."""

    entries = list(entries)
    A = np.array([a for a, _, _ in entries], dtype=float).reshape(len(entries), d)
    B = np.array([b for _, b, _ in entries], dtype=float)
    return _grouped(A, B, [s for _, _, s in entries], _row_norms(A), c, d, tol)[0]


def _grouped(A: np.ndarray, B: np.ndarray, S: list, norms: np.ndarray,
             c: float, d: int, tol: ToleranceConfig) -> tuple[GroupedReLU, list[tuple]]:
    """grouped_from_entries on the rows (A, B) with coefficients S, given the
    row norms; also returns each term's (bucket, orientation) slot.

    A term joins the first bucket, in creation order, whose representative
    (the bucket's first term) has a matching canonical hyperplane, and the
    coefficients are summed in term order."""

    U, beta, signs = _canonical_rows(A, B, norms)
    U.setflags(write=False)
    reps: list[int] = []
    slots = []
    sums: list[dict] = []
    for k, (row, sign, s) in enumerate(zip(_match_matrix(U, beta, U, beta, 1, tol).tolist(),
                                           signs.tolist(), S)):
        bucket = next((i for i, r in enumerate(reps) if row[r]), len(reps))
        if bucket == len(reps):
            reps.append(k)
            sums.append({1.0: 0.0, -1.0: 0.0})
        sums[bucket][sign] += s
        slots.append((bucket, sign))

    k1 = []
    k2 = []
    for r, bucket in zip(reps, sums):
        h = Hyperplane(U[r], float(beta[r]))
        sp = bucket[1.0] if abs(bucket[1.0]) > ZERO_TOL else 0.0
        sm = bucket[-1.0] if abs(bucket[-1.0]) > ZERO_TOL else 0.0
        if sp and sm:
            k1.append(PairedEntry(h, sp, sm))
        elif sp:
            k2.append(Neuron(h.a, h.b, sp))
        elif sm:
            a = -h.a
            a.setflags(write=False)
            k2.append(Neuron(a, -h.b, sm))
    return GroupedReLU(tuple(k1), tuple(k2), float(c), d), slots


# ---------------------------------------------------------------------------
# equivalence certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquivalenceCertificate:
    """Permutation/sign/scale data witnessing pointwise equality of two nets.

    Neuron k of the first network maps to neuron permutation[k] of the second
    via epsilon[k] * lam[k] * (a_k, b_k) = (a'_pi(k), b'_pi(k)), with
    s_k / lam[k] = s'_pi(k) for relu and lam[k] = 1, epsilon[k] * s_k =
    s'_pi(k) for sigmoid and tanh.  K collects the sign-flipped indices;
    flipping them shifts the constant by constant_shift.
    """

    permutation: tuple[int, ...]
    epsilon: tuple[int, ...]
    lam: tuple[float, ...]
    K: frozenset[int]
    constant_shift: float


def certificate_to_json_obj(cert: EquivalenceCertificate) -> dict:
    return {
        "permutation": list(cert.permutation),
        "epsilon": list(cert.epsilon),
        "lambda": [float(v) for v in cert.lam],
        "K": sorted(cert.K),
        "constant_shift": cert.constant_shift,
    }


def test_equivalent(n1: ShallowNet, n2: ShallowNet,
                    tol: ToleranceConfig = DEFAULT_TOL) -> EquivalenceCertificate | None:
    """Match the neurons bijectively up to permutation and sign, then check
    the scales, the flipped neurons and the constant; a returned certificate
    guarantees the two networks agree at every input.

    Relu is positively homogeneous, so ridges are compared as unit rows and a
    positive rescaling is free; relu(t) = t + relu(-t), so the flipped
    neurons' scaled directions must cancel, which needs mutually distinct
    hyperplanes (no K1 pairs).  For sigmoid and tanh sigma(t) + sigma(-t) =
    c0, so ridges are compared as they are and a flip only negates the scale
    and moves the constant (Sussmann 1992).  Every comparison is within
    match_tol, so a reconstruction from noisy samples can be certified.
    """

    if n1.activation.kind != n2.activation.kind:
        raise InputError("networks use different activations",
                         first=n1.activation.kind, second=n2.activation.kind)
    if n1.d != n2.d:
        raise InputError("networks have different input dimensions", d1=n1.d, d2=n2.d)
    relu = n1.activation.kind == "relu"
    for name, net in (("first", n1), ("second", n2)):
        violations, g = _admissibility(net, tol)
        if violations:
            v = violations[0]
            clause = f": clause ({v['clause']}) {v['reason']}" if relu else ""
            raise AdmissibilityError(f"{name} network is not admissible{clause}",
                                     network=name, violations=violations)
        if g is not None and g.K1:
            raise HypothesisError(
                f"{name} network has coincident hyperplanes; the equivalence "
                "characterization does not apply", network=name)
    if n1.m != n2.m:
        return None

    def ridges(net: ShallowNet) -> tuple[tuple[np.ndarray, np.ndarray], list[float]]:
        A, B = net.weight_matrix(), net.biases()
        norms = _row_norms(A)
        return ((A / norms[:, None], B / norms) if relu else (A, B)), norms.tolist()

    rows1, norms1 = ridges(n1)
    rows2, norms2 = ridges(n2)
    plus, minus = (_match_matrix(*rows1, *rows2, sign, tol) for sign in (1, -1))
    free = np.ones(n2.m, dtype=bool)
    permutation: list[int] = []
    epsilon: list[int] = []
    lam: list[float] = []
    for k in range(n1.m):
        hits = np.flatnonzero(free & (plus[k] | minus[k]))
        if hits.size == 0:
            return None
        j = int(hits[0])
        eps = 1 if plus[k, j] else -1
        scale = norms2[j] / norms1[k] if relu else 1.0
        s1, s2 = n1.neurons[k].s, n2.neurons[j].s
        if abs((s1 / scale if relu else eps * s1) - s2) > tol.match_tol * (1.0 + abs(s2)):
            return None
        free[j] = False
        permutation.append(j)
        epsilon.append(eps)
        lam.append(scale)

    flipped = frozenset(k for k, e in enumerate(epsilon) if e == -1)
    flip_sum = np.zeros(n1.d)
    shift = 0.0
    weight = 1.0
    for k in flipped:
        neuron = n1.neurons[k]
        flip_sum += neuron.s * neuron.a
        shift += neuron.s * (neuron.b if relu else n1.activation.c0)
        weight += abs(neuron.s) * norms1[k]
    if relu and float(np.linalg.norm(flip_sum)) > tol.match_tol * weight:
        return None
    if abs(n2.c - (n1.c + shift)) > tol.match_tol * (1.0 + abs(n1.c) + abs(shift)):
        return None
    return EquivalenceCertificate(tuple(permutation), tuple(epsilon),
                                  tuple(lam), flipped, shift)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def net_to_json_obj(net: ShallowNet) -> dict:
    return {
        "activation": net.activation.kind,
        "d": net.d,
        "neurons": [{"a": [float(v) for v in n.a], "b": n.b, "s": n.s}
                    for n in net.neurons],
        "c": net.c,
    }


def net_from_json_obj(obj, location: str = "net") -> ShallowNet:
    kind, where = schema.field(obj, "activation", location, str)
    if kind not in ACTIVATIONS:
        raise ParseError(f"unknown activation {kind!r}", location=where)
    d = schema.positive_int(*schema.field(obj, "d", location))
    raw_neurons, where = schema.field(obj, "neurons", location, list)
    c = schema.number(*schema.field(obj, "c", location))
    neurons = []
    for k, entry in enumerate(raw_neurons):
        loc = f"{where}[{k}]"
        a = schema.vector(*schema.field(entry, "a", loc), d)
        with np.errstate(over="ignore"):
            if not np.isfinite(a @ a):  # its norm would overflow to inf
                raise ParseError("direction norm overflows the float range",
                                 location=f"{loc}.a")
        neurons.append((a, schema.number(*schema.field(entry, "b", loc)),
                        schema.number(*schema.field(entry, "s", loc))))
    return make_net(kind, neurons, c, d=d)


def serialize(net: ShallowNet) -> bytes:
    """UTF-8 JSON with shortest round-trip float representation."""

    return (json.dumps(net_to_json_obj(net), sort_keys=True,
                       separators=(",", ":"), allow_nan=False) + "\n").encode("utf-8")


def deserialize(data: bytes | str) -> ShallowNet:
    return net_from_json_obj(schema.load_json(data))

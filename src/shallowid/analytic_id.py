"""Identification machinery for sigmoid/tanh networks: full spark frames, the
universal sample plan, and the exponential-sum oracle.

For these activations sigma(x) + sigma(-x) is the constant c0 (1 for sigmoid,
0 for tanh), so flipping a neuron's sign is the only parameter ambiguity and
net_core.test_equivalent decides equivalence outright.  The sample plan
scales a full spark frame by a batch of distinct scalars; restricted to any
ray it yields enough zeros of a difference of networks to force all its
exponential-sum coefficients, and hence the difference itself, to vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from . import schema
from .errors import InputError, ParseError, SizeError
from .net_core import ShallowNet, _duplicate_ridges, evaluate_many, make_net, test_equivalent
from .numerics import _row_blocks, subset_sums
from .tolerances import DEFAULT_TOL, ZERO_TOL, ToleranceConfig

_DEFAULT_PLAN_CAP = 1_000_000


def _require_analytic(net: ShallowNet) -> None:
    if net.activation.kind == "relu":
        raise InputError("this operation applies to sigmoid/tanh networks; "
                         "use the relu-specific routines instead")


# ---------------------------------------------------------------------------
# full spark frames and the universal plan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FullSparkFrame:
    """Moment vectors (1, t, ..., t^(d-1)) at pairwise distinct nodes t.  Every
    d-subset is a Vandermonde system with determinant prod(t_j - t_i) != 0, so
    the distinct nodes certify that every d-subset is a basis."""

    vectors: np.ndarray
    nodes: tuple[float, ...]

    @property
    def size(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def d(self) -> int:
        return int(self.vectors.shape[1])


def _moment_frame(nodes: np.ndarray, d: int) -> FullSparkFrame:
    return FullSparkFrame(np.vander(nodes, N=d, increasing=True), tuple(nodes.tolist()))


def vandermonde_frame(d: int, n: int) -> FullSparkFrame:
    """Moment vectors at n distinct equispaced nodes in [-1, 1]."""

    if d < 1:
        raise InputError("dimension must be positive", d=d)
    if n < d:
        raise InputError("frame size must be at least the dimension", n=n, d=d)
    return _moment_frame(np.linspace(-1.0, 1.0, n), d)


@dataclass(frozen=True)
class AnalyticSamplePlan:
    """Scaled-frame point grid x[i, j] = scalar_i * frame_j."""

    m: int
    d: int
    frame: FullSparkFrame
    scalars: tuple[float, ...]
    points: np.ndarray

    @property
    def size(self) -> int:
        return int(self.points.shape[0])


def _check_plan_size(frame_size: int, log2_scalars: int, d: int, cap: int) -> None:
    # compare bit lengths first, so that a huge point count is never expanded
    bits = frame_size.bit_length() + log2_scalars
    if bits > max(cap.bit_length(), 64):
        raise SizeError(f"plan would hold over 2^{bits - 1} points, above the cap {cap}",
                        points_log2=bits - 1, cap=cap)
    count = frame_size << log2_scalars
    if count > cap:
        raise SizeError(f"plan would hold {count} points, above the cap {cap}",
                        points=count, cap=cap)
    if count * d * 8 > np.iinfo(np.intp).max:   # numpy refuses such an array outright
        raise SizeError(f"plan would hold {count} points, more than one array can address",
                        points=count, d=d)


def _scaled_plan(m: int, frame: FullSparkFrame, scalars: np.ndarray) -> AnalyticSamplePlan:
    """Every scalar times every frame vector, scalar-major."""

    points = (scalars[:, None, None] * frame.vectors[None, :, :]).reshape(-1, frame.d)
    return AnalyticSamplePlan(m, frame.d, frame, tuple(scalars.tolist()), points)


def build_analytic_plan(m: int, d: int, cap: int = _DEFAULT_PLAN_CAP) -> AnalyticSamplePlan:
    """Universal plan for m-neuron sigmoid/tanh networks: a Vandermonde full
    spark frame of size C(4m, 2)*(d-1)+1 scaled by 2^(2m) distinct scalars."""

    if m < 1 or d < 1:
        raise InputError("need m >= 1 and d >= 1", m=m, d=d)
    n = comb(4 * m, 2) * (d - 1) + 1
    _check_plan_size(n, 2 * m, d, cap)
    return _scaled_plan(m, vandermonde_frame(d, n), np.linspace(-2.0, 2.0, 1 << (2 * m)))


@dataclass(frozen=True)
class IdentificationReport:
    max_gap: float
    equal_on_plan: bool
    equivalent: bool
    warning: str | None


def verify_identification(n1: ShallowNet, n2: ShallowNet, plan: AnalyticSamplePlan,
                          tol: ToleranceConfig = DEFAULT_TOL) -> IdentificationReport:
    """Compare two networks on the plan and against the equivalence decision.
    The plan gap is relative to the first network's largest value there.
    Agreement on the plan without equivalence is reported as a
    numerical-saturation warning, never as a certificate.  Both networks are
    evaluated on one block of plan points at a time (numerics._row_blocks),
    so the extra memory is one block whatever the plan's size, and the two
    maxima are those of one evaluation over the whole plan."""

    _require_analytic(n1)
    _require_analytic(n2)
    equivalent = test_equivalent(n1, n2, tol) is not None
    if n1.m != plan.m or n2.m != plan.m:
        raise InputError("plan was built for a different neuron count",
                         plan_m=plan.m, m1=n1.m, m2=n2.m)
    if n1.d != plan.d:
        raise InputError("plan was built for a different dimension",
                         plan_d=plan.d, d1=n1.d, d2=n2.d)
    gaps, scales = [], []
    for rows in _row_blocks(plan.size, max(plan.d, plan.m)):
        f1 = evaluate_many(n1, plan.points[rows])
        gaps.append(np.max(np.abs(f1 - evaluate_many(n2, plan.points[rows]))))
        scales.append(np.max(np.abs(f1)))
    max_gap = float(np.max(gaps))   # np.max, not max: a NaN in any block propagates
    equal_on_plan = max_gap <= tol.residual_tol * (1.0 + float(np.max(scales)))
    warning = None
    if equal_on_plan and not equivalent:
        warning = ("networks agree on the plan but their canonical forms "
                   "differ; float saturation can hide a genuine gap")
    return IdentificationReport(max_gap, equal_on_plan, equivalent, warning)


def report_to_json_obj(report: IdentificationReport) -> dict:
    return {"max_gap": report.max_gap, "equal_on_plan": report.equal_on_plan,
            "equivalent": report.equivalent, "warning": report.warning}


# ---------------------------------------------------------------------------
# exponential-sum expansion of a one-dimensional sigmoid network
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpSumExpansion:
    """Coefficients c over the subset-sum exponent set of the directions:
    clearing the sigmoid denominators of f(x) = sum s_k/(1+e^-(a_k x+b_k))+s0
    leaves sum_alpha c_alpha * e^(-alpha x)."""

    exponents: tuple[float, ...]
    coefficients: tuple[float, ...]

    def evaluate(self, x) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        alphas = np.asarray(self.exponents)
        coeffs = np.asarray(self.coefficients)
        out = np.empty(xs.shape)
        # one (block rows, 2^n) buffer per block of x values, reused in place
        for rows in _row_blocks(len(xs), alphas.size * xs[:1].size):
            terms = np.multiply.outer(xs[rows], alphas)
            np.negative(terms, out=terms)
            np.exp(terms, out=terms)
            out[rows] = terms @ coeffs
            del terms   # so that the next block's buffer replaces this one
        return out


def cleared_form_value(a, b, s, s0: float, x) -> np.ndarray:
    """f(x) times the product of all sigmoid denominators (1 + e^-(a x + b))."""

    xs = np.atleast_1d(np.asarray(x, dtype=float))
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    s = np.asarray(s, dtype=float)
    z = np.outer(xs, a) + b
    f = (1.0 / (1.0 + np.exp(-z))) @ s + s0
    return f * np.prod(1.0 + np.exp(-z), axis=1)


def exp_sum_expansion(a, b, s, s0: float,
                      tol: ToleranceConfig = DEFAULT_TOL) -> ExpSumExpansion:
    """Exponents are the 2^n subset sums of the directions (merged within
    match_tol); each coefficient sums, over the subsets hitting that exponent,
    the unused scales times the product of e^(-b) over the subset.  Raises
    InputError when an exponent or a coefficient overflows the float range."""

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    s = np.asarray(s, dtype=float)
    if not (a.shape == b.shape == s.shape) or a.ndim != 1:
        raise InputError("a, b, s must be equal-length vectors")
    # subset sums first, so that an oversized input fails before the checks;
    # an overflow is reported from the merged terms
    with np.errstate(over="ignore", invalid="ignore"):
        alphas = subset_sums(a)
        used = subset_sums(s)
        terms = (float(np.sum(s)) + float(s0) - used) * subset_sums(np.exp(-b), np.multiply, 1.0)
    if np.any(np.abs(a) <= ZERO_TOL):
        raise InputError("all direction coefficients must be nonzero")
    pairs = _duplicate_ridges(a[:, None], b, (1.0, -1.0), tol)
    if pairs:
        raise InputError("ridge pairs must be distinct and non-opposite", pair=pairs[0])

    order = np.argsort(alphas, kind="stable")
    alphas, terms = alphas[order], terms[order]
    exponents, coefficients = alphas.tolist(), terms.tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        apart = bool(np.all(np.diff(alphas) > tol.match_tol))
    # the loop's first merge is at the first gap <= match_tol, so when every
    # gap is above it the sorted lists are already the result (a NaN gap keeps the loop)
    if not apart:
        raw = zip(exponents, coefficients)
        exponents, coefficients = [], []
        for alpha, coeff in raw:
            if exponents and alpha - exponents[-1] <= tol.match_tol:
                coefficients[-1] += coeff
            else:
                exponents.append(alpha)
                coefficients.append(coeff)
    # a list of 2^n floats is slow to convert: read the coefficients only if terms merged
    merged = coefficients if len(coefficients) < alphas.size else []
    if not (np.isfinite(alphas).all() and np.isfinite(terms).all() and np.isfinite(merged).all()):
        raise InputError("the expansion overflows the float range")
    return ExpSumExpansion(tuple(exponents), tuple(coefficients))


def sigmoid_form(net: ShallowNet) -> ShallowNet:
    """Equivalent sigmoid-activation network: tanh(u) = 2*sigmoid(2u) - 1."""

    _require_analytic(net)
    if net.activation.kind == "sigmoid":
        return net
    neurons = [(2.0 * n.a, 2.0 * n.b, 2.0 * n.s) for n in net.neurons]
    shift = sum(n.s for n in net.neurons)
    return make_net("sigmoid", neurons, net.c - shift, d=net.d)


# ---------------------------------------------------------------------------
# plan file round trip
# ---------------------------------------------------------------------------

def analytic_plan_to_json_obj(plan: AnalyticSamplePlan) -> dict:
    return {"m": plan.m, "d": plan.d, "nodes": list(plan.frame.nodes),
            "scalars": list(plan.scalars)}


def analytic_plan_from_json_obj(obj, *, cap: int = _DEFAULT_PLAN_CAP) -> AnalyticSamplePlan:
    """Inverse of analytic_plan_to_json_obj: C(4m, 2)*(d-1)+1 nodes and
    2^(2m) scalars, each pairwise distinct; a plan above ``cap`` points
    raises SizeError.  Distinct nodes are the full spark certificate."""

    m = schema.positive_int(*schema.field(obj, "m", "plan"))
    d = schema.positive_int(*schema.field(obj, "d", "plan"))
    scalars = schema.vector(*schema.field(obj, "scalars", "plan"))
    # compare bit lengths first so that a huge file-supplied m is never expanded
    if scalars.size.bit_length() != 2 * m + 1 or scalars.size != 1 << (2 * m):
        raise ParseError("scalars must list 2^(2m) numbers", location="plan.scalars")
    nodes = schema.vector(*schema.field(obj, "nodes", "plan"), comb(4 * m, 2) * (d - 1) + 1)
    for name, values in (("nodes", nodes), ("scalars", scalars)):
        if np.unique(values).size != values.size:
            raise ParseError(f"{name} must be pairwise distinct", location=f"plan.{name}")
    _check_plan_size(nodes.size, 2 * m, d, cap)
    with np.errstate(over="ignore", invalid="ignore"):
        plan = _scaled_plan(m, _moment_frame(nodes, d), scalars)
    for name, values in (("nodes", plan.frame.vectors), ("scalars", plan.points)):
        if not np.all(np.isfinite(values)):
            raise ParseError("plan points overflow the float range", location=f"plan.{name}")
    return plan

"""Command-line surface: JSON files in, JSON files out, deterministic given
the seed.  Exit codes: 0 success, 2 domain error, 3 parse error.

One cap of 20 covers every subset enumeration: the reducibility search's
lone neurons, the reconstruction orientation search's m and expsum's n.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import tempfile

import numpy as np

from . import analytic_id, net_core, relu_adversary, relu_sampling, relu_structure, schema
from .errors import InputError, ParseError, ToolkitError
from .tolerances import DEFAULT_TOL, ToleranceConfig


def _write_atomic(path: str, obj) -> None:
    payload = (json.dumps(obj, sort_keys=True, separators=(",", ":"),
                          allow_nan=False) + "\n").encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)   # mkstemp's 0600 would survive the replace
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:  # a missing directory, or a directory as the path
        raise InputError(f"cannot write {path}: {exc.strerror}", path=path) from None


def _read_json(path: str):
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}", location=path) from exc
    return schema.load_json(data, path)


def _read_net(path: str) -> net_core.ShallowNet:
    return net_core.net_from_json_obj(_read_json(path), location=path)


def _tol_from_args(args) -> ToleranceConfig:
    given = {name: value for name, value in (("match_tol", args.tol_match),
                                             ("residual_tol", args.tol_residual))
             if value is not None}
    try:
        return dataclasses.replace(DEFAULT_TOL, **given)
    except ValueError as exc:  # a value ToleranceConfig rejects
        raise InputError(str(exc), **given) from None


def _cmd_check(args, tol) -> int:
    net = _read_net(args.net)
    relu = net.activation.kind == "relu"
    violations, g = net_core._admissibility(net, tol)  # relu: merged neurons included
    if violations:
        # dropping a zero neuron or merging a duplicate ridge reduces m
        reason = violations[0]["reason"]
        print(f"reducible ({net.m} neurons, not admissible: {reason})" if relu
              else f"reducible ({net.m} neurons): {reason}")
        return 0
    # for sigmoid and tanh, admissible means irreducible
    witness = relu_structure.test_reducible(g, tol) if relu else None
    if witness is None:
        print(f"irreducible ({net.m} neurons)")
    else:
        print(f"reducible ({net.m} neurons, witness case {witness.case})")
    return 0


def _cmd_reduce(args, tol) -> int:
    net = _read_net(args.net)
    if net.activation.kind != "relu":
        raise InputError("reduce applies to relu networks")
    reduced = relu_structure.reduce_fully(net, tol)
    _write_atomic(args.out, net_core.net_to_json_obj(reduced))
    print(f"reduced {net.m} -> {reduced.m} neurons; wrote {args.out}")
    return 0


def _cmd_equiv(args, tol) -> int:
    cert = net_core.test_equivalent(_read_net(args.net1), _read_net(args.net2), tol)
    print(f"equivalent: {'no' if cert is None else 'yes'}")
    if cert is not None and args.cert:
        _write_atomic(args.cert, net_core.certificate_to_json_obj(cert))
        print(f"certificate written to {args.cert}")
    return 0


def _cmd_plan_relu(args, tol) -> int:
    net = _read_net(args.net)
    if net.activation.kind != "relu":
        raise InputError("plan-relu applies to relu networks")
    g = net_core.group(net, tol)
    if relu_structure.test_reducible(g, tol) is not None:
        raise InputError("network is reducible; reduce it before planning")
    lines = relu_sampling.build_feasible_lines(g, args.seed)
    plan = relu_sampling.build_sample_plan(g, lines, args.seed, tol)
    _write_atomic(args.out, relu_sampling.plan_to_json_obj(plan))
    print(f"plan with {len(plan.lines)} lines and {plan.points.shape[0]} points; "
          f"wrote {args.out}")
    return 0


def _cmd_sample(args, tol) -> int:
    net = _read_net(args.net)
    plan = relu_sampling.plan_from_json_obj(_read_json(args.plan))
    samples = relu_sampling.sample_values(net, plan)
    # plan_ref is stored relative to the samples file, where reconstruct looks
    ref = os.path.relpath(os.path.abspath(args.plan), os.path.dirname(os.path.abspath(args.out)))
    _write_atomic(args.out, relu_sampling.samples_to_json_obj(samples, ref))
    print(f"sampled {samples.values.shape[0]} values; wrote {args.out}")
    return 0


def _cmd_reconstruct(args, tol) -> int:
    data_obj = _read_json(args.data)
    plan_path = args.plan
    if not plan_path:  # plan_ref is relative to the samples file
        ref, _ = schema.field(data_obj, "plan_ref", args.data, str)
        plan_path = os.path.join(os.path.dirname(os.path.abspath(args.data)), ref)
    plan = relu_sampling.plan_from_json_obj(_read_json(plan_path))
    samples = relu_sampling.samples_from_json_obj(data_obj, plan, tol)
    net = relu_sampling.reconstruct(samples, tol)
    # certify before writing, so a failing --against leaves no output file
    cert = args.against and net_core.test_equivalent(_read_net(args.against), net, tol)
    _write_atomic(args.out, net_core.net_to_json_obj(net))
    print(f"reconstructed a {net.m}-neuron network; wrote {args.out}")
    if args.against:
        print(f"equivalence certificate: {'found' if cert else 'none'}")
    return 0


def _cmd_adversary(args, tol) -> int:
    pts = schema.matrix(*schema.field(_read_json(args.points), "points", args.points))
    pair = relu_adversary.build_pair(pts, args.m, args.seed, tol)
    _write_atomic(args.out, relu_adversary.pair_to_json_obj(pair))
    agree = float(np.max(np.abs(net_core.evaluate_many(pair.net1, pts)
                                - net_core.evaluate_many(pair.net2, pts))))
    gap = abs(net_core.evaluate(pair.net1, pair.witness)
              - net_core.evaluate(pair.net2, pair.witness))
    print(f"agreement gap on the {pts.shape[0]} given points: {agree:.3e}")
    print(f"witness gap: {gap:.3e}; wrote {args.out}")
    return 0


def _cmd_plan_analytic(args, tol) -> int:
    plan = analytic_id.build_analytic_plan(args.m, args.d, cap=args.cap)
    _write_atomic(args.out, analytic_id.analytic_plan_to_json_obj(plan))
    print(f"plan with {plan.size} points ({plan.frame.size} frame vectors x "
          f"{len(plan.scalars)} scalars); wrote {args.out}")
    return 0


def _cmd_verify_analytic(args, tol) -> int:
    n1 = _read_net(args.net1)
    n2 = _read_net(args.net2)
    plan = analytic_id.analytic_plan_from_json_obj(_read_json(args.plan), cap=args.cap)
    report = analytic_id.verify_identification(n1, n2, plan, tol)
    _write_atomic(args.out, analytic_id.report_to_json_obj(report))
    print(f"max gap on plan: {report.max_gap:.3e}; equal_on_plan="
          f"{report.equal_on_plan}; equivalent={report.equivalent}")
    if report.warning:
        print(f"warning: {report.warning}")
    return 0


def _cmd_expsum(args, tol) -> int:
    net = _read_net(args.net)
    if net.activation.kind == "relu":
        raise InputError("expsum applies to sigmoid/tanh networks")
    if net.d != 1:
        raise InputError("expsum applies to one-dimensional networks", d=net.d)
    net = analytic_id.sigmoid_form(net)
    a = [float(n.a[0]) for n in net.neurons]
    b = [float(n.b) for n in net.neurons]
    s = [float(n.s) for n in net.neurons]
    expansion = analytic_id.exp_sum_expansion(a, b, s, net.c, tol)
    # check the identity before writing, so that an overflow leaves no output file
    xs = np.linspace(-1.0, 1.0, 101)
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = analytic_id.cleared_form_value(a, b, s, net.c, xs)
        rhs = expansion.evaluate(xs)
        residual = float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(lhs))))
    if not (np.all(np.isfinite(lhs)) and np.all(np.isfinite(rhs))):
        raise InputError("the identity check overflows the float range on [-1, 1]")
    _write_atomic(args.out, {"exponents": list(expansion.exponents),
                             "coefficients": list(expansion.coefficients)})
    print(f"{len(expansion.exponents)} exponents; identity residual "
          f"{residual:.3e}; wrote {args.out}")
    return 0


@functools.cache  # one build per process: main reuses it on every call
def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    shared.add_argument("--tol-match", type=float, default=argparse.SUPPRESS)
    shared.add_argument("--tol-residual", type=float, default=argparse.SUPPRESS)
    shared.add_argument("--cap", type=int, default=argparse.SUPPRESS,
                        help="analytic plan size cap")

    parser = argparse.ArgumentParser(
        prog="shallowid",
        parents=[shared],
        description=("Decide irreducibility and equivalence of two-layer "
                     "networks, build sampling plans, reconstruct relu "
                     "networks from samples, and construct point-set "
                     "adversaries.  Searches are exponential in the neuron "
                     "count; intended for desk-scale networks."))
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, func, *required: str, optional=None):
        p = sub.add_parser(name, help=help_text, parents=[shared])
        for flag in required:
            p.add_argument(flag, required=True, type=int if flag in ("--m", "--d") else str)
        for flag, flag_help in (optional or {}).items():
            p.add_argument(flag, default=None, help=flag_help)
        p.set_defaults(func=func)

    add("check", "report (ir)reducibility of a network", _cmd_check, "--net")
    add("reduce", "reduce a relu network to a fixpoint", _cmd_reduce, "--net", "--out")
    add("equiv", "test equivalence of two networks", _cmd_equiv, "--net1", "--net2",
        optional={"--cert": "write the certificate here"})
    add("plan-relu", "build a sampling plan for a relu network", _cmd_plan_relu,
        "--net", "--out")
    add("sample", "evaluate a network on a plan", _cmd_sample, "--net", "--plan", "--out")
    add("reconstruct", "rebuild a relu network from samples", _cmd_reconstruct,
        "--data", "--out", optional={"--plan": None, "--against":
                                     "also test equivalence against this network"})
    add("adversary", "build an agreeing non-equivalent pair", _cmd_adversary,
        "--points", "--m", "--out")
    add("plan-analytic", "build the universal analytic plan", _cmd_plan_analytic,
        "--m", "--d", "--out")
    add("verify-analytic", "compare two analytic networks on a plan", _cmd_verify_analytic,
        "--net1", "--net2", "--plan", "--out")
    add("expsum", "exponential-sum expansion of a 1-d analytic net", _cmd_expsum,
        "--net", "--out")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the global flags are SUPPRESS-defaulted so that either position
    # (before or after the subcommand) wins; fill the gaps here
    for name, default in (("seed", 0), ("tol_match", None),
                          ("tol_residual", None), ("cap", 1_000_000)):
        if not hasattr(args, name):
            setattr(args, name, default)
    try:
        if args.seed < 0:  # numpy's generators take non-negative seeds only
            raise InputError("seed must be non-negative", seed=args.seed)
        return args.func(args, _tol_from_args(args))
    except ParseError as exc:
        print(json.dumps(exc.to_json_obj(), sort_keys=True), file=sys.stderr)
        return 3
    except ToolkitError as exc:
        print(json.dumps(exc.to_json_obj(), sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

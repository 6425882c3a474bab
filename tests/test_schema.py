"""One validation layer for every input file: a single bad field gives a
ParseError at that field's location, and the CLI turns it into exit 3."""

import contextlib
import copy
import io
import json
import os
import tempfile
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shallowid import (ParseError, build_analytic_plan, build_feasible_lines,
                       build_sample_plan, cli, group, make_net, net_core,
                       sample_values, schema)
from shallowid.analytic_id import analytic_plan_from_json_obj, analytic_plan_to_json_obj
from shallowid.relu_sampling import (plan_from_json_obj, plan_to_json_obj,
                                     samples_from_json_obj, samples_to_json_obj)

from conftest import examples

# 1e999 parses to inf; 10**400 is an int that no float can hold
BAD_VALUES = [True, False, None, "0.5", {}, float("nan"), float("inf"),
              float("-inf"), 1e999, 10 ** 400]


def cross_net():
    return make_net("relu", [((1.0, 1.0), 0.0, 1.0), ((1.0, -1.0), 0.0, 1.0)], 0.0)


@lru_cache(maxsize=None)
def relu_plan():
    g = group(cross_net())
    return build_sample_plan(g, build_feasible_lines(g, seed=0), seed=0)


def points_obj():
    return {"points": np.random.default_rng(5).uniform(-2.0, 2.0, (6, 3)).tolist()}


def formats():
    """name -> (valid object, parser, root location, length-pinned lists)."""

    plan = relu_plan()
    samples = samples_to_json_obj(sample_values(cross_net(), plan), "plan.json")
    plan_obj = plan_to_json_obj(plan)
    return {
        "net": (net_core.net_to_json_obj(cross_net()), net_core.net_from_json_obj,
                "net", [("neurons", k, "a") for k in range(2)]),
        "plan": (plan_obj, plan_from_json_obj, "plan",
                 [("lines", j, key) for j in range(len(plan_obj["lines"]))
                  for key in ("u", "v")]),
        "samples": (samples, lambda obj: samples_from_json_obj(obj, plan), "samples",
                    [("values",), ("points",)]
                    + [("points", i) for i in range(len(samples["points"]))]),
        "analytic": (analytic_plan_to_json_obj(build_analytic_plan(1, 2)),
                     analytic_plan_from_json_obj, "plan", [("nodes",), ("scalars",)]),
    }


def paths(obj, prefix=()):
    """Every member and element path below obj, skipping the unread plan_ref."""

    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    out = []
    for key, value in items:
        if key == "plan_ref":
            continue
        out.append(prefix + (key,))
        if isinstance(value, (dict, list)):
            out += paths(value, prefix + (key,))
    return out


def location(root, path):
    return root + "".join(f".{k}" if isinstance(k, str) else f"[{k}]" for k in path)


def mutate(obj, root, pinned, data):
    """A copy of obj with one field made invalid, and the location the error
    must name (None where only the error type is pinned)."""

    bad = copy.deepcopy(obj)
    if data.draw(st.booleans(), label="replace a value"):
        path = data.draw(st.sampled_from(paths(obj)), label="path")
        value = data.draw(st.sampled_from(BAD_VALUES), label="value")
        parent = bad
        for key in path[:-1]:
            parent = parent[key]
        original = parent[path[-1]]
        parent[path[-1]] = value
        # a huge integer is a well-formed m or d; its error surfaces where
        # the count it implies is checked
        if type(original) is int and type(value) is int:
            return bad, None
        return bad, location(root, path)
    target = bad
    for key in data.draw(st.sampled_from(pinned), label="pinned list"):
        target = target[key]
    if data.draw(st.booleans(), label="shrink"):
        target.pop()
    else:
        target.append(copy.deepcopy(target[-1]))
    return bad, None


def error_location(err: ParseError) -> str:
    """Matrix errors sit at the matrix and name the offending entry."""

    return err.details.get("entry", err.location)


@pytest.mark.parametrize("name", ["net", "plan", "samples", "analytic"])
@settings(max_examples=examples(60), deadline=None)
@given(data=st.data())
def test_one_bad_field_is_a_parse_error(name, data):
    obj, parse, root, pinned = formats()[name]
    bad, expected = mutate(obj, root, pinned, data)
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert err.value.location.startswith(root)
    if expected is not None:
        assert error_location(err.value) == expected


def run_main(*argv):
    """cli.main in-process: its exit code and the error object it printed."""

    out = io.StringIO()
    with contextlib.redirect_stderr(out), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    return code, json.loads(out.getvalue())["error"] if out.getvalue() else None


@settings(max_examples=examples(60), deadline=None)
@given(data=st.data())
def test_adversary_points_file_with_one_bad_field_exits_3(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pts.json")
        obj = points_obj()
        bad, expected = mutate(obj, path, [("points", i) for i in range(6)], data)
        with open(path, "w") as handle:
            json.dump(bad, handle)
        code, err = run_main("adversary", "--points", path, "--m", 2,
                             "--out", os.path.join(tmp, "pair.json"))
    assert code == 3 and err["type"] == "parse"
    assert err["details"]["location"].startswith(f"{path}.points")
    if expected is not None:
        assert err["details"].get("entry", err["details"]["location"]) == expected


# ---------------------------------------------------------------------------
# CLI probes: each malformed file exits 3 with a located parse error
# ---------------------------------------------------------------------------

def _set(*path_and_value):
    *path, value = path_and_value

    def apply(obj):
        target = obj
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return apply


# the literal JSON number 1e999 (not the constant Infinity) replaces this
_OVERFLOW = "__1e999__"

CLI_PROBES = {
    "plan_line_dimension": ("plan", lambda o: o["lines"][1]["u"].append(0.5),
                            "plan.lines[1].u"),
    "plan_param_overflow": ("plan", _set("params", 0, 1, _OVERFLOW), "plan.params[0][1]"),
    "samples_ragged_points": ("samples", lambda o: o["points"][2].pop(), "samples.points"),
    "samples_string_point": ("samples", _set("points", 2, 0, "0.5"), "samples.points"),
    "samples_bool_point": ("samples", _set("points", 2, 1, True), "samples.points"),
    "analytic_bool_m": ("aplan", _set("m", True), "plan.m"),
    "analytic_bool_d": ("aplan", _set("d", True), "plan.d"),
    "analytic_nan_node": ("aplan", _set("nodes", 3, float("nan")), "plan.nodes[3]"),
    "analytic_nan_scalar": ("aplan", _set("scalars", 1, float("nan")), "plan.scalars[1]"),
    "analytic_string_scalar": ("aplan", _set("scalars", 1, "0.5"), "plan.scalars[1]"),
    "analytic_bool_scalar": ("aplan", _set("scalars", 1, True), "plan.scalars[1]"),
    "analytic_huge_m": ("aplan", _set("m", 10 ** 30), "plan.scalars"),
    "points_ragged_row": ("pts", lambda o: o["points"][4].pop(), "{pts}.points"),
    "points_nan": ("pts", _set("points", 1, 2, float("nan")), "{pts}.points"),
    "points_string": ("pts", _set("points", 1, 2, "0.5"), "{pts}.points"),
    "points_bool": ("pts", _set("points", 1, 2, False), "{pts}.points"),
    "net_overflow_bias": ("net", _set("neurons", 0, "b", _OVERFLOW), "{net}.neurons[0].b"),
}


@pytest.fixture()
def cli_files(tmp_path):
    """Valid inputs for every subcommand that reads a file, and the command
    that reads each."""

    plan = relu_plan()
    an1 = make_net("sigmoid", [((1.0, 0.5), 0.2, 1.0)], 0.3)
    an2 = make_net("sigmoid", [((-1.0, -0.5), -0.2, -1.0)], 1.3)
    objs = {
        "net": net_core.net_to_json_obj(cross_net()),
        "plan": plan_to_json_obj(plan),
        "samples": samples_to_json_obj(sample_values(cross_net(), plan), "plan.json"),
        "aplan": analytic_plan_to_json_obj(build_analytic_plan(1, 2)),
        "an1": net_core.net_to_json_obj(an1),
        "an2": net_core.net_to_json_obj(an2),
        "pts": points_obj(),
    }
    files = {name: tmp_path / f"{name}.json" for name in objs}
    for name, obj in objs.items():
        files[name].write_text(json.dumps(obj))
    out = tmp_path / "out.json"
    commands = {
        "net": ["check", "--net", files["net"]],
        "plan": ["sample", "--net", files["net"], "--plan", files["plan"], "--out", out],
        "samples": ["reconstruct", "--data", files["samples"], "--plan", files["plan"],
                    "--out", out],
        "aplan": ["verify-analytic", "--net1", files["an1"], "--net2", files["an2"],
                  "--plan", files["aplan"], "--out", out],
        "pts": ["adversary", "--points", files["pts"], "--m", 2, "--out", out],
    }
    return objs, files, commands


def test_cli_inputs_are_valid_before_probing(cli_files):
    _, _, commands = cli_files
    for argv in commands.values():
        assert run_main(*argv) == (0, None)


@pytest.mark.parametrize("probe", sorted(CLI_PROBES))
def test_cli_probe_exits_3_at_location(cli_files, probe):
    objs, files, commands = cli_files
    name, apply, expected = CLI_PROBES[probe]
    obj = copy.deepcopy(objs[name])
    apply(obj)
    files[name].write_text(json.dumps(obj).replace(f'"{_OVERFLOW}"', "1e999"))
    code, err = run_main(*commands[name])
    assert code == 3 and err["type"] == "parse"
    assert err["details"]["location"] == expected.format(**{k: str(v) for k, v in files.items()})


@pytest.mark.parametrize("payload", [b'{"activation": "relu", "d": \xff}',
                                     b'{"d": ' + b"1" * 5000 + b"}",
                                     b"[" * 100_000])
def test_cli_undecodable_net_file_exits_3(tmp_path, payload):
    path = tmp_path / "net.json"
    path.write_bytes(payload)
    code, err = run_main("check", "--net", path)
    assert code == 3 and err["type"] == "parse"
    assert err["details"]["location"].startswith(str(path))


def test_verify_analytic_applies_the_cap(cli_files):
    _, _, commands = cli_files
    code, err = run_main(*commands["aplan"], "--cap", 10)
    assert code == 2 and err["type"] == "size" and err["details"]["cap"] == 10


def test_analytic_plan_default_cap_keeps_one_argument_call():
    for m in (1, 2):
        for d in range(1, 13):
            built = build_analytic_plan(m, d)
            plan = analytic_plan_from_json_obj(
                json.loads(json.dumps(analytic_plan_to_json_obj(built))))
            assert plan.m == m and plan.d == d and plan.size == built.size
            assert plan.points.tobytes() == built.points.tobytes(), (m, d)


# ---------------------------------------------------------------------------
# the helpers themselves
# ---------------------------------------------------------------------------

def test_load_json_locates_decode_errors():
    with pytest.raises(ParseError) as err:
        schema.load_json('{"a": }', "f.json")
    assert err.value.location == "f.json:offset 6"
    with pytest.raises(ParseError) as err:
        schema.load_json(b'"\xff"', "f.json")
    assert err.value.location == "f.json" and "position 1" in err.value.message


def test_matrix_infers_width_from_first_row():
    assert schema.matrix([[1, 2.5], [3, 4]], "m").tolist() == [[1.0, 2.5], [3.0, 4.0]]
    assert schema.matrix([], "m").shape == (0, 0)
    with pytest.raises(ParseError) as err:
        schema.matrix([[1, 2], [3]], "m")
    assert err.value.location == "m" and err.value.details["entry"] == "m[1]"


def test_vector_and_number_keep_exact_values():
    assert schema.vector([1, 0.1, -2], "v", 3).tolist() == [1.0, 0.1, -2.0]
    assert schema.number(2 / 7, "x") == 2 / 7
    assert schema.positive_int(3, "n") == 3
    for bad in (0, -1, 2.0, True):
        with pytest.raises(ParseError):
            schema.positive_int(bad, "n")

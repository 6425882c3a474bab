import json
import os
import stat
import time
import warnings

import numpy as np
import pytest

from shallowid import cli, deserialize, make_net, net_core

from helpers import random_analytic_net, random_irreducible_relu, run_cli, structured_relu


def write_net(path, net):
    path.write_bytes(net_core.serialize(net))


@pytest.fixture()
def cross_net_file(tmp_path):
    net = make_net("relu", [((1.0, 1.0), 0.0, 1.0), ((1.0, -1.0), 0.0, 1.0)], 0.0)
    path = tmp_path / "net.json"
    write_net(path, net)
    return path


def test_check_reports_irreducible(cross_net_file):
    proc = run_cli("check", "--net", str(cross_net_file))
    assert proc.returncode == 0
    assert "irreducible" in proc.stdout


def test_check_reports_reducible(tmp_path):
    a = np.array([1.0, 0.2])
    net = make_net("relu", [(a, 0.0, 1.0), (-a, 0.0, -1.0),
                            ((0.3, 1.0), 0.0, 1.0), ((-0.3, -1.0), 0.0, -1.0)], 0.0)
    path = tmp_path / "lin.json"
    write_net(path, net)
    proc = run_cli("check", "--net", str(path))
    assert proc.returncode == 0 and "reducible" in proc.stdout


def test_check_reports_a_duplicate_that_only_grouping_sees(tmp_path):
    # the unit rows' biases differ by just over match_tol, the canonical
    # hyperplanes' (the first row is not divided at unit norm) by just under
    path = tmp_path / "tie.json"
    path.write_text('{"activation":"relu","d":2,"neurons":['
                    '{"a":[1.0000000000005,0],"b":1.0000000000005,"s":1},'
                    '{"a":[1,0],"b":1.0000000100003,"s":1}],"c":0}')
    proc = run_cli("check", "--net", str(path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "reducible (2 neurons, not admissible: positive-scale duplicate ridge)\n"
    proc = run_cli("reduce", "--net", str(path), "--out", str(tmp_path / "out.json"))
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"]["details"]["violations"] == [
        {"clause": "ii", "neurons": [0, 1], "reason": "positive-scale duplicate ridge"}]


def test_missing_file_is_parse_error_exit_3(tmp_path):
    proc = run_cli("check", "--net", str(tmp_path / "nope.json"))
    assert proc.returncode == 3
    err = json.loads(proc.stderr)
    assert err["error"]["type"] == "parse"


def test_malformed_net_exit_3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"activation": "relu"}')
    proc = run_cli("check", "--net", str(bad))
    assert proc.returncode == 3
    assert json.loads(proc.stderr)["error"]["type"] == "parse"


def test_domain_error_exit_2(tmp_path, cross_net_file):
    # adversary with m=1 violates a precondition: domain error, exit 2
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps({"points": [[0.0, 0.0]]}))
    proc = run_cli("adversary", "--points", str(pts), "--m", "1",
                   "--out", str(tmp_path / "pair.json"))
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"]["type"] == "input"


def test_plan_sample_reconstruct_pipeline(tmp_path, cross_net_file):
    plan = tmp_path / "plan.json"
    samples = tmp_path / "samples.json"
    rec = tmp_path / "rec.json"
    assert run_cli("plan-relu", "--net", str(cross_net_file), "--out", str(plan),
                   "--seed", "3").returncode == 0
    assert run_cli("sample", "--net", str(cross_net_file), "--plan", str(plan),
                   "--out", str(samples)).returncode == 0
    proc = run_cli("reconstruct", "--data", str(samples), "--out", str(rec),
                   "--against", str(cross_net_file))
    assert proc.returncode == 0
    assert "equivalence certificate: found" in proc.stdout
    rebuilt = deserialize(rec.read_bytes())
    assert rebuilt.m == 2


def test_reconstruct_certifies_against_before_writing(tmp_path, cross_net_file, capsys):
    """An --against net that cannot be certified (a K1 pair) fails before
    the rebuilt net is written or reported."""

    a = np.array([1.0, 0.2])
    lin = tmp_path / "lin.json"
    write_net(lin, make_net("relu", [(a, 0.0, 1.0), (-a, 0.0, -1.0),
                                     ((0.3, 1.0), 0.0, 1.0), ((-0.3, -1.0), 0.0, -1.0)], 0.0))
    plan, samples, rec = (str(tmp_path / f) for f in ("plan.json", "samples.json", "rec.json"))
    assert cli.main(["plan-relu", "--net", str(cross_net_file), "--out", plan]) == 0
    assert cli.main(["sample", "--net", str(cross_net_file), "--plan", plan,
                     "--out", samples]) == 0
    capsys.readouterr()
    assert cli.main(["reconstruct", "--data", samples, "--out", rec,
                     "--against", str(lin)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "hypothesis" and error["details"]["network"] == "first"
    assert not (tmp_path / "rec.json").exists()
    assert cli.main(["reconstruct", "--data", samples, "--out", rec,
                     "--against", str(cross_net_file)]) == 0
    assert capsys.readouterr().out == (f"reconstructed a 2-neuron network; wrote {rec}\n"
                                       "equivalence certificate: found\n")


def test_reconstruct_resolves_plan_ref_relative_to_data(tmp_path, cross_net_file):
    plan = tmp_path / "plan.json"
    samples = tmp_path / "samples.json"
    proc = run_cli("plan-relu", "--net", str(cross_net_file), "--out", str(plan))
    assert proc.returncode == 0, proc.stderr
    # run sample from inside tmp_path, with relative paths
    proc = run_cli("sample", "--net", str(cross_net_file), "--plan", "plan.json",
                   "--out", "samples.json", cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    proc = run_cli("reconstruct", "--data", str(samples),
                   "--out", str(tmp_path / "rec.json"))
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("plan, ref", [("runs/plan.json", "plan.json"),
                                       ("plans/plan.json", "../plans/plan.json")])
def test_sample_then_reconstruct_with_paths_below_the_working_directory(
        tmp_path, cross_net_file, plan, ref):
    """sample stores plan_ref relative to the samples file, which is where
    reconstruct resolves it."""

    for name in ("runs", "plans"):
        (tmp_path / name).mkdir()
    for args in (("plan-relu", "--net", str(cross_net_file), "--out", plan),
                 ("sample", "--net", str(cross_net_file), "--plan", plan,
                  "--out", "runs/samples.json"),
                 ("reconstruct", "--data", "runs/samples.json", "--out", "runs/rec.json",
                  "--against", str(cross_net_file))):
        proc = run_cli(*args, cwd=str(tmp_path))
        assert proc.returncode == 0, proc.stderr
    assert "equivalence certificate: found" in proc.stdout
    assert json.loads((tmp_path / "runs" / "samples.json").read_text())["plan_ref"] == ref


def test_reconstruct_resolves_plan_ref_against_the_samples_file_not_the_cwd(
        tmp_path, cross_net_file):
    for name, seed in (("a", "1"), ("b", "2")):
        (tmp_path / name).mkdir()
        for args in (("plan-relu", "--net", str(cross_net_file), "--out", "plan.json",
                      "--seed", seed),
                     ("sample", "--net", str(cross_net_file), "--plan", "plan.json",
                      "--out", "samples.json")):
            proc = run_cli(*args, cwd=str(tmp_path / name))
            assert proc.returncode == 0, proc.stderr
    proc = run_cli("reconstruct", "--data", "../b/samples.json", "--out", "rec.json",
                   cwd=str(tmp_path / "a"))
    assert proc.returncode == 0, proc.stderr
    proc = run_cli("reconstruct", "--data", "samples.json", "--out", "rec.json",
                   cwd=str(tmp_path / "b"))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "a" / "rec.json").read_bytes() == (tmp_path / "b" / "rec.json").read_bytes()


def test_reconstruct_rejects_nan_sample_value_exit_3(tmp_path, cross_net_file):
    plan = tmp_path / "plan.json"
    samples = tmp_path / "samples.json"
    assert run_cli("plan-relu", "--net", str(cross_net_file),
                   "--out", str(plan)).returncode == 0
    assert run_cli("sample", "--net", str(cross_net_file), "--plan", str(plan),
                   "--out", str(samples)).returncode == 0
    obj = json.loads(samples.read_text())
    obj["values"][0] = float("nan")
    samples.write_text(json.dumps(obj))
    proc = run_cli("reconstruct", "--data", str(samples), "--out", str(tmp_path / "rec.json"))
    assert proc.returncode == 3, proc.stderr
    err = json.loads(proc.stderr)["error"]
    assert err["type"] == "parse" and err["details"]["location"] == "samples.values[0]"


def test_reconstruct_rejects_params_not_increasing_on_one_line_exit_2(
        tmp_path, cross_net_file, capsys):
    """Line 1's first two samples swapped in the plan and in the samples file,
    so the files agree with each other but the params go down."""

    plan, samples = tmp_path / "plan.json", tmp_path / "samples.json"
    assert cli.main(["plan-relu", "--net", str(cross_net_file), "--out", str(plan)]) == 0
    assert cli.main(["sample", "--net", str(cross_net_file), "--plan", str(plan),
                     "--out", str(samples)]) == 0
    plan_obj, samples_obj = json.loads(plan.read_text()), json.loads(samples.read_text())
    row = plan_obj["params"][1]
    row[0], row[1] = row[1], row[0]
    first = len(plan_obj["params"][0])
    for key in ("points", "values"):
        col = samples_obj[key]
        col[first], col[first + 1] = col[first + 1], col[first]
    plan.write_text(json.dumps(plan_obj))
    samples.write_text(json.dumps(samples_obj))
    capsys.readouterr()
    assert cli.main(["reconstruct", "--data", str(samples),
                     "--out", str(tmp_path / "rec.json")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == {"type": "input", "details": {},
                                        "message": "params must be strictly increasing"}
    assert not (tmp_path / "rec.json").exists()


def test_reduce_writes_fixpoint(tmp_path):
    a = np.array([1.0, 0.2])
    net = make_net("relu", [(a, 0.0, 1.0), (-a, 0.0, -1.0),
                            ((0.3, 1.0), 0.0, 1.0), ((-0.3, -1.0), 0.0, -1.0)], 0.0)
    src = tmp_path / "lin.json"
    out = tmp_path / "red.json"
    write_net(src, net)
    proc = run_cli("reduce", "--net", str(src), "--out", str(out))
    assert proc.returncode == 0
    assert deserialize(out.read_bytes()).m == 2


def test_equiv_writes_certificate(tmp_path, cross_net_file):
    cert = tmp_path / "cert.json"
    proc = run_cli("equiv", "--net1", str(cross_net_file),
                   "--net2", str(cross_net_file), "--cert", str(cert))
    assert proc.returncode == 0 and "equivalent: yes" in proc.stdout
    obj = json.loads(cert.read_text())
    assert obj["permutation"] == [0, 1]


def test_adversary_summary(tmp_path):
    pts = tmp_path / "pts.json"
    rng = np.random.default_rng(5)
    pts.write_text(json.dumps({"points": rng.uniform(-2, 2, (10, 3)).tolist()}))
    proc = run_cli("adversary", "--points", str(pts), "--m", "2", "--seed", "7",
                   "--out", str(tmp_path / "pair.json"))
    assert proc.returncode == 0
    assert "witness gap" in proc.stdout


def test_verify_analytic_and_expsum(tmp_path):
    n1 = make_net("sigmoid", [((1.0, 0.5), 0.2, 1.0)], 0.3)
    n2 = make_net("sigmoid", [((-1.0, -0.5), -0.2, -1.0)], 1.3)
    f1, f2 = tmp_path / "n1.json", tmp_path / "n2.json"
    write_net(f1, n1)
    write_net(f2, n2)
    aplan = tmp_path / "aplan.json"
    report = tmp_path / "report.json"
    assert run_cli("plan-analytic", "--m", "1", "--d", "2",
                   "--out", str(aplan)).returncode == 0
    proc = run_cli("verify-analytic", "--net1", str(f1), "--net2", str(f2),
                   "--plan", str(aplan), "--out", str(report))
    assert proc.returncode == 0
    obj = json.loads(report.read_text())
    assert obj["equal_on_plan"] and obj["equivalent"] and obj["warning"] is None

    one_d = make_net("sigmoid", [((1.2,), 0.4, 0.7)], 0.3)
    f3 = tmp_path / "oned.json"
    write_net(f3, one_d)
    proc = run_cli("expsum", "--net", str(f3), "--out", str(tmp_path / "exp.json"))
    assert proc.returncode == 0
    obj = json.loads((tmp_path / "exp.json").read_text())
    assert len(obj["exponents"]) == 2


@pytest.mark.parametrize("neurons, message", [
    ([((1.0,), -800.0, 1.0), ((2.0,), 0.0, 1.0)], "the expansion overflows the float range"),
    ([((800.0,), 0.0, 1.0)], "the identity check overflows the float range on [-1, 1]"),
])
def test_expsum_overflow_is_input_error_exit_2(tmp_path, capsys, neurons, message):
    """e^800 in a coefficient, or in both sides of the identity check on
    [-1, 1]: exit 2 with an input error, no output file and no warning."""

    path = tmp_path / "big.json"
    write_net(path, make_net("sigmoid", neurons, 0.0))
    out = tmp_path / "exp.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["expsum", "--net", str(path), "--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert (error["type"], error["message"]) == ("input", message)
    assert not out.exists()


def test_plan_analytic_refuses_a_huge_m_without_expanding_it(tmp_path, capsys):
    out = tmp_path / "aplan.json"
    assert cli.main(["plan-analytic", "--m", "100000000", "--d", "2", "--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "size"
    assert error["details"] == {"points_log2": 200000056, "cap": 1000000}
    assert not out.exists()


def test_plan_analytic_refuses_a_plan_numpy_cannot_address(tmp_path, capsys):
    """Under a cap of 10^30, m = 40 asks for 12,721 * 2^80 points, below the
    cap but more than one array can hold: a size error before numpy sees it."""

    out = tmp_path / "aplan.json"
    args = ["--cap", str(10 ** 30), "plan-analytic", "--m", "40", "--d", "2", "--out", str(out)]
    assert cli.main(args) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "size"
    assert error["details"] == {"points": 12721 << 80, "d": 2}
    assert not out.exists()


def test_global_flags_accepted_after_subcommand(tmp_path, cross_net_file):
    out1 = tmp_path / "p1.json"
    out2 = tmp_path / "p2.json"
    assert run_cli("plan-relu", "--net", str(cross_net_file), "--out", str(out1),
                   "--seed", "9").returncode == 0
    assert run_cli("--seed", "9", "plan-relu", "--net", str(cross_net_file),
                   "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_plan_relu_rejects_reducible_net(tmp_path):
    a = np.array([1.0, 0.2])
    net = make_net("relu", [(a, 0.0, 1.0), (-a, 0.0, -1.0),
                            ((0.3, 1.0), 0.0, 1.0), ((-0.3, -1.0), 0.0, -1.0)], 0.0)
    path = tmp_path / "lin.json"
    write_net(path, net)
    proc = run_cli("plan-relu", "--net", str(path), "--out", str(tmp_path / "p.json"))
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"]["type"] == "input"


def test_evaluate_constant_net_via_check(tmp_path):
    net = make_net("relu", [], 1.5, d=2)
    path = tmp_path / "const.json"
    write_net(path, net)
    proc = run_cli("check", "--net", str(path))
    assert proc.returncode == 0 and "irreducible (0 neurons)" in proc.stdout


def test_tolerance_override_flows_through(tmp_path):
    n1 = make_net("sigmoid", [((1.0, 0.5), 0.2, 1.0)], 0.3)
    n2 = make_net("sigmoid", [((-1.0, -0.5), -0.2, -1.0)], 1.3)  # equivalent
    f1, f2 = tmp_path / "n1.json", tmp_path / "n2.json"
    write_net(f1, n1)
    write_net(f2, n2)
    aplan = tmp_path / "aplan.json"
    run_cli("plan-analytic", "--m", "1", "--d", "2", "--out", str(aplan))
    out = tmp_path / "r.json"
    run_cli("verify-analytic", "--net1", str(f1), "--net2", str(f2),
            "--plan", str(aplan), "--out", str(out))
    assert json.loads(out.read_text())["equal_on_plan"] is True
    # an absurdly strict residual tolerance flips only the plan-gap verdict
    run_cli("verify-analytic", "--net1", str(f1), "--net2", str(f2),
            "--plan", str(aplan), "--out", str(out), "--tol-residual", "1e-20")
    obj = json.loads(out.read_text())
    assert obj["equal_on_plan"] is False and obj["equivalent"] is True


@pytest.mark.parametrize("flag, value, message", [
    ("--tol-residual", "nan", "residual_tol must be strictly positive and finite"),
    ("--tol-match", "inf", "match_tol must be strictly positive and finite"),
    ("--tol-match", "1e-12", "match_tol must be at least the rank cutoff 1e-09"),
    ("--seed", "-1", "seed must be non-negative")])
def test_invalid_tolerance_flag_is_input_error_exit_2(cross_net_file, flag, value, message):
    proc = run_cli("check", "--net", str(cross_net_file), flag, value)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    err = json.loads(proc.stderr)["error"]
    assert err["type"] == "input" and err["message"] == message


@pytest.mark.parametrize("before", [True, False])
def test_tol_rank_flag_is_refused_exit_2(cross_net_file, before):
    # the rank cutoff is a fixed constant; noise is judged by --tol-match
    args = ["check", "--net", str(cross_net_file)]
    flag = ["--tol-rank", "1e-5"]
    proc = run_cli(*(flag + args if before else args + flag))
    assert proc.returncode == 2 and proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("usage: shallowid")


@pytest.mark.parametrize("target, reason", [("missing/plan.json", "No such file or directory"),
                                            ("adir", "Is a directory")])
def test_unwritable_out_is_input_error_exit_2(tmp_path, capsys, target, reason):
    """A missing directory fails to make the temporary file; a directory as
    the path fails to replace it, and the temporary file is removed."""

    (tmp_path / "adir").mkdir()
    out = str(tmp_path / target)
    assert cli.main(["plan-analytic", "--m", "1", "--d", "2", "--out", out]) == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert json.loads(stderr)["error"] == {
        "type": "input", "message": f"cannot write {out}: {reason}", "details": {"path": out}}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir"]
    assert not any((tmp_path / "adir").iterdir())


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_outputs_get_the_mode_of_a_plain_write(tmp_path, cross_net_file, umask, mode):
    """Outputs are written through a temporary file, yet get 0o666 less the
    umask, as a plain open() would give them."""

    plan, samples = str(tmp_path / "plan.json"), str(tmp_path / "samples.json")
    old = os.umask(umask)
    try:
        assert cli.main(["plan-relu", "--net", str(cross_net_file), "--out", plan]) == 0
        assert cli.main(["sample", "--net", str(cross_net_file), "--plan", plan,
                         "--out", samples]) == 0
    finally:
        os.umask(old)
    assert [stat.S_IMODE(os.stat(path).st_mode) for path in (plan, samples)] == [mode, mode]


def test_check_reports_reducible_analytic(tmp_path):
    net = make_net("tanh", [((1.0, 0.0), 0.5, 1.0), ((-1.0, 0.0), -0.5, 2.0)], 0.0)
    path = tmp_path / "dup.json"
    write_net(path, net)
    proc = run_cli("check", "--net", str(path))
    assert proc.returncode == 0 and "reducible" in proc.stdout


def test_check_caps_the_witness_search_at_twenty_lone_neurons(tmp_path, capsys):
    net = structured_relu(np.random.default_rng(7), 3, "k1_1", 21)
    path = tmp_path / "wide.json"
    write_net(path, net)
    start = time.perf_counter()
    code = cli.main(["check", "--net", str(path)])
    elapsed = time.perf_counter() - start
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "size"
    assert elapsed < 1.0


def test_plan_relu_refuses_a_spread_check_above_the_cap(tmp_path, capsys):
    """d=8, m=8 would tabulate C(64, 8) line subsets: exit 2 with a size
    error, not a traceback from a failed allocation."""

    path = tmp_path / "wide.json"
    write_net(path, random_irreducible_relu(np.random.default_rng(8), 8, 8))
    out = tmp_path / "plan.json"
    assert cli.main(["plan-relu", "--net", str(path), "--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "size"
    assert error["details"]["subsets"] == 4_426_165_368
    assert not out.exists()


def test_plan_analytic_at_d10_and_d12_separates_a_planted_pair(tmp_path):
    rng = np.random.default_rng(10)
    for m in (1, 2):
        for d in (10, 12):
            aplan = tmp_path / f"a{m}_{d}.json"
            assert cli.main(["plan-analytic", "--m", str(m), "--d", str(d),
                             "--out", str(aplan)]) == 0
            net = random_analytic_net(rng, m, d)
            first = net.neurons[0]
            rows = [(n.a, n.b, n.s) for n in net.neurons]
            # s*sigmoid(z) = -s*sigmoid(-z) + s
            flipped = make_net("sigmoid", [(-first.a, -first.b, -first.s)] + rows[1:],
                               net.c + first.s, d=d)
            planted = make_net("sigmoid", [(first.a, first.b + 1e-3, first.s)] + rows[1:],
                               net.c, d=d)
            files = {}
            for name, other in (("net", net), ("flipped", flipped), ("planted", planted)):
                files[name] = tmp_path / f"{name}{m}_{d}.json"
                write_net(files[name], other)
            report = tmp_path / "report.json"
            for name, equal in (("flipped", True), ("planted", False)):
                assert cli.main(["verify-analytic", "--net1", str(files["net"]),
                                 "--net2", str(files[name]), "--plan", str(aplan),
                                 "--out", str(report)]) == 0
                obj = json.loads(report.read_text())
                assert (obj["equal_on_plan"], obj["equivalent"]) == (equal, equal), (m, d, name)


@pytest.mark.parametrize("edit, location", [
    ({"nodes": (12, 3.0), "scalars": (3, 1e308)}, "plan.scalars"),
    ({"nodes": (12, 1e200)}, "plan.nodes")])
def test_verify_analytic_refuses_plan_points_beyond_the_float_range(tmp_path, edit, location):
    aplan = tmp_path / "aplan.json"
    assert cli.main(["plan-analytic", "--m", "1", "--d", "3", "--out", str(aplan)]) == 0
    obj = json.loads(aplan.read_text())
    for key, (index, value) in edit.items():
        obj[key][index] = value
    aplan.write_text(json.dumps(obj))
    net = make_net("sigmoid", [((1.0, 0.5, -0.3), 0.2, 1.0)], 0.3)
    write_net(tmp_path / "n.json", net)
    proc = run_cli("verify-analytic", "--net1", str(tmp_path / "n.json"), "--net2",
                   str(tmp_path / "n.json"), "--plan", str(aplan),
                   "--out", str(tmp_path / "r.json"))
    # the whole of stderr is the JSON error: no traceback, no numpy warning
    err = json.loads(proc.stderr)["error"]
    assert proc.returncode == 3 and err["type"] == "parse"
    assert err["details"]["location"] == location


def test_reconstruct_certifies_a_reconstruction_from_noisy_samples(tmp_path):
    # the rebuilt constant is off by about 6e-8: within --tol-match, so the
    # constants must be compared with match_tol like the hyperplanes
    write_net(tmp_path / "net.json", random_irreducible_relu(np.random.default_rng(3), 5, 3))
    assert run_cli("plan-relu", "--net", "net.json", "--seed", "1", "--out", "plan.json",
                   cwd=tmp_path).returncode == 0
    assert run_cli("sample", "--net", "net.json", "--plan", "plan.json",
                   "--out", "samples.json", cwd=tmp_path).returncode == 0
    obj = json.loads((tmp_path / "samples.json").read_text())
    values = np.array(obj["values"])
    obj["values"] = (values + np.random.default_rng(0).normal(scale=1e-7, size=values.size)).tolist()
    (tmp_path / "samples.json").write_text(json.dumps(obj))
    proc = run_cli("reconstruct", "--data", "samples.json", "--out", "rec.json",
                   "--against", "net.json", "--tol-match", "1e-5",
                   "--tol-residual", "1e-5", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "equivalence certificate: found" in proc.stdout


def test_reconstruct_certifies_an_axis_parallel_ridge_from_noisy_samples(tmp_path):
    # neuron 0's ridge has first entry 0; the rebuilt one has a tiny first
    # entry of either sign, so matching must not depend on a canonical sign
    net = random_irreducible_relu(np.random.default_rng(0), 4, 3)
    rows = [(n.a.copy(), n.b, n.s) for n in net.neurons]
    rows[0][0][0] = 0.0
    write_net(tmp_path / "net.json", make_net("relu", rows, net.c, d=3))
    assert run_cli("plan-relu", "--net", "net.json", "--seed", "1", "--out", "plan.json",
                   cwd=tmp_path).returncode == 0
    assert run_cli("sample", "--net", "net.json", "--plan", "plan.json",
                   "--out", "samples.json", cwd=tmp_path).returncode == 0
    obj = json.loads((tmp_path / "samples.json").read_text())
    values = np.array(obj["values"])
    obj["values"] = (values + np.random.default_rng(0).normal(scale=1e-7, size=values.size)).tolist()
    (tmp_path / "samples.json").write_text(json.dumps(obj))
    proc = run_cli("reconstruct", "--data", "samples.json", "--out", "rec.json",
                   "--against", "net.json", "--tol-match", "1e-5",
                   "--tol-residual", "1e-5", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "equivalence certificate: found" in proc.stdout


def test_equiv_writes_an_analytic_certificate(tmp_path):
    a = [0.1 * (k + 1) for k in range(10)]
    write_net(tmp_path / "a.json", make_net("sigmoid", [(a, 0.3, 1.5)], 0.2))
    write_net(tmp_path / "b.json", make_net("sigmoid", [([-x for x in a], -0.3, -1.5)], 1.7))
    proc = run_cli("equiv", "--net1", "a.json", "--net2", "b.json", "--cert", "cert.json",
                   cwd=tmp_path)
    assert proc.returncode == 0 and "equivalent: yes" in proc.stdout
    obj = json.loads((tmp_path / "cert.json").read_text())
    assert obj == {"permutation": [0], "epsilon": [-1], "lambda": [1.0], "K": [0],
                   "constant_shift": 1.5}


def _cross_plan(tmp_path, cross_net_file, last_param):
    """A plan-relu plan for the cross net with params[0][-1] and lines[0].v
    replaced."""

    plan = tmp_path / "plan.json"
    assert run_cli("plan-relu", "--net", str(cross_net_file), "--out", str(plan)).returncode == 0
    obj = json.loads(plan.read_text())
    obj["params"][0][-1] = last_param
    obj["lines"][0]["v"] = [3.0, 2.0]
    plan.write_text(json.dumps(obj))
    return plan


def test_sample_refuses_plan_points_beyond_the_float_range_exit_3(tmp_path, cross_net_file):
    plan = _cross_plan(tmp_path, cross_net_file, 1e308)
    proc = run_cli("sample", "--net", str(cross_net_file), "--plan", str(plan),
                   "--out", str(tmp_path / "samples.json"))
    assert proc.returncode == 3, proc.stderr
    err = json.loads(proc.stderr)["error"]
    assert err["type"] == "parse" and err["details"]["location"] == "plan.params[0]"


def test_sample_refuses_values_beyond_the_float_range_exit_2(tmp_path, cross_net_file):
    plan = _cross_plan(tmp_path, cross_net_file, 1e307)  # finite points
    big = make_net("relu", [((10.0, 10.0), 0.0, 1.0), ((10.0, -10.0), 0.0, 1.0)], 0.0)
    write_net(tmp_path / "big.json", big)
    proc = run_cli("sample", "--net", str(tmp_path / "big.json"), "--plan", str(plan),
                   "--out", str(tmp_path / "samples.json"))
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stderr)["error"]["type"] == "input"


def test_verify_analytic_saturates_huge_finite_plan_points_silently(tmp_path):
    aplan = tmp_path / "aplan.json"
    assert run_cli("plan-analytic", "--m", "1", "--d", "3", "--out", str(aplan)).returncode == 0
    obj = json.loads(aplan.read_text())
    obj["scalars"][3] = 1e308
    aplan.write_text(json.dumps(obj))
    write_net(tmp_path / "n1.json", make_net("sigmoid", [((2.0, -2.0, 0.5), 0.2, 1.0)], 0.0))
    # s*sigmoid(z) = -s*sigmoid(-z) + s
    write_net(tmp_path / "n2.json", make_net("sigmoid", [((-2.0, 2.0, -0.5), -0.2, -1.0)], 1.0))
    proc = run_cli("verify-analytic", "--net1", str(tmp_path / "n1.json"), "--net2",
                   str(tmp_path / "n2.json"), "--plan", str(aplan),
                   "--out", str(tmp_path / "r.json"))
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads((tmp_path / "r.json").read_text())["equivalent"] is True


def test_check_refuses_a_direction_whose_norm_overflows_exit_3(tmp_path):
    # at 1e154 the norm overflows, both unit rows would be zero and the two
    # distinct ridges would be reported as duplicates
    big = make_net("relu", [((1e154, 1e154), 0.0, 1.0), ((1e154, -1e154), 0.0, 1.0)], 0.0)
    write_net(tmp_path / "big.json", big)
    proc = run_cli("check", "--net", str(tmp_path / "big.json"))
    assert proc.returncode == 3, proc.stderr
    err = json.loads(proc.stderr)["error"]
    assert err["type"] == "parse" and err["details"]["location"].endswith("neurons[0].a")

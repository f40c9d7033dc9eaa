"""Problem file parsing, report serialization, exit codes, determinism."""

import dataclasses
import json

import numpy as np
import pytest

import ddsolve as dd
import ddsolve.cli as cli_module
from ddsolve.cli import main, parse_problem_file, run_solve


def test_parse_box_file(instance_path):
    problem, start = parse_problem_file(instance_path("inst_box.dd"))
    assert problem.theta == 2.0
    assert problem.m == 1 and problem.n == 1
    assert start.z0[0] == pytest.approx(0.5)


def test_parse_soc_file(instance_path):
    problem, start = parse_problem_file(instance_path("inst_soc.dd"))
    assert problem.theta == 2.0
    assert problem.atoms[0].kind == "soc"
    # membership (x2, x1, 1) in the cone encodes x2 >= ||(x1, 1)||
    assert dd.in_qdd(problem, start, np.zeros(2), 1.0, start.y0)


def test_parse_rejects_overlapping_coords(tmp_path):
    doc = {"n": 1, "m": 2, "A": [[1.0], [-1.0]], "c": [1.0],
           "atoms": [{"type": "halfline_lower", "coords": [1], "bounds": 0.0},
                     {"type": "halfline_lower", "coords": [1], "bounds": 0.0}]}
    path = tmp_path / "bad.dd"
    path.write_text(json.dumps(doc))
    with pytest.raises(dd.AtomCoverage):
        parse_problem_file(str(path))


def test_parse_reports_field_on_bad_atom(tmp_path):
    doc = {"n": 1, "m": 1, "A": [[1.0]], "c": [1.0],
           "atoms": [{"type": "mystery", "coords": [1]}]}
    path = tmp_path / "bad.dd"
    path.write_text(json.dumps(doc))
    with pytest.raises(dd.ParseError) as err:
        parse_problem_file(str(path))
    assert "atoms[0]" in str(err.value)


def test_parse_rejects_fractional_coords(tmp_path, capsys):
    # int() would truncate these to [1] and [2] and solve the wrong problem
    doc = {"n": 1, "m": 2, "A": [[1.0], [-1.0]], "c": [1.0],
           "atoms": [{"type": "halfline_lower", "coords": [1.7], "bounds": 0.0},
                     {"type": "halfline_lower", "coords": [2.9], "bounds": -1.0}]}
    path = tmp_path / "bad.dd"
    path.write_text(json.dumps(doc))
    with pytest.raises(dd.ParseError) as err:
        parse_problem_file(str(path))
    assert err.value.field == "atoms[0].coords"
    assert main(["solve", str(path)]) == 4
    assert "atoms[0].coords" in json.loads(capsys.readouterr().out)["error"]


def test_parse_rejects_several_coords_on_scalar_atom(tmp_path, capsys):
    doc = {"n": 1, "m": 2, "A": [[1.0], [-1.0]], "c": [1.0],
           "atoms": [{"type": "halfline_lower", "coords": [1, 2], "bounds": 0.0}]}
    path = tmp_path / "bad.dd"
    path.write_text(json.dumps(doc))
    with pytest.raises(dd.ParseError) as err:
        parse_problem_file(str(path))
    assert err.value.field == "atoms[0].coords"
    assert main(["solve", str(path)]) == 4
    out = json.loads(capsys.readouterr().out)
    assert "exactly one coordinate" in out["error"] and "partition" not in out["error"]


BOX_DOC = {"n": 1, "m": 1, "A": [[1.0]], "c": [1.0],
           "atoms": [{"type": "box", "coords": [1], "bounds": [0.0, 1.0]}]}


@pytest.mark.parametrize("change,field", [
    ({"xi": None}, "xi"),
    ({"xi": "three"}, "xi"),
    ({"kappa": None}, "kappa"),
    ({"kappa": [0.25]}, "kappa"),
    ({"z0": ["half"]}, "z0"),
    ({"z0": [None]}, "z0"),
    ({"atoms": {"type": "box", "coords": [1], "bounds": [0.0, 1.0]}}, "atoms"),
    ({"atoms": 3}, "atoms"),
    # int() would truncate these to 1 and solve the wrong problem
    ({"n": 1.7}, "n"),
    ({"m": 1.5}, "m"),
    # numeric strings would be converted by float() and solved as numbers
    ({"A": [["1.0"]]}, "A"),
    ({"A": [[True]]}, "A"),
    ({"c": ["1"]}, "c"),
    # numpy inferred a float array here and solved the boolean as 1.0
    ({"m": 2, "A": [[1.0], [True]], "atoms": [{"type": "soc", "coords": [1, 2]}]}, "A"),
    ({"n": 2, "A": [[1.0, 0.0]], "c": [1.0, True]}, "c"),
    # float() overflowed on these and the CLI exited 1 with a traceback
    ({"xi": 10**400}, "xi"),
    ({"kappa": 10**400}, "kappa"),
    ({"z0": [10**400]}, "z0"),
    ({"atoms": [{"type": "box", "coords": [1], "bounds": [0, 10**400]}]}, "atoms[0].bounds"),
    ({"z0": [0.5, 0.5]}, "z0"),
    ({"atoms": [{"type": "box", "coords": [1], "bounds": ["0", "1"]}]}, "atoms[0].bounds"),
    ({"atoms": [{"type": "box", "coords": [1], "bounds": [0.0, 1.0], "offset": "0.5"}]},
     "atoms[0].offset"),
    # an unhashable type raised TypeError in the kind lookup
    ({"atoms": [{"type": ["box"], "coords": [1], "bounds": [0.0, 1.0]}]}, "atoms[0].type"),
    ({"atoms": [{"type": {"box": 1}, "coords": [1], "bounds": [0.0, 1.0]}]}, "atoms[0].type"),
    # a non-finite bound or offset used to reach the solver
    ({"atoms": [{"type": "box", "coords": [1], "bounds": [0.0, float("inf")]}]}, "atoms[0]"),
    ({"atoms": [{"type": "box", "coords": [1], "bounds": [float("nan"), 1.0]}]}, "atoms[0]"),
    ({"atoms": [{"type": "halfline_lower", "coords": [1], "bounds": float("-inf")}]},
     "atoms[0]"),
    ({"atoms": [{"type": "halfline_upper", "coords": [1], "bounds": float("nan")}]},
     "atoms[0]"),
    ({"atoms": [{"type": "box", "coords": [1], "bounds": [0.0, 1.0],
                 "offset": float("nan")}]}, "atoms[0]"),
    # float() would take a boolean as 0 or 1, and a soc's bounds were ignored
    ({"atoms": [{"type": "halfline_lower", "coords": [1], "bounds": True}]},
     "atoms[0].bounds"),
    ({"atoms": [{"type": "box", "coords": [1], "bounds": [False, True]}]}, "atoms[0].bounds"),
    ({"m": 2, "A": [[1.0], [0.0]],
      "atoms": [{"type": "soc", "coords": [1, 2], "bounds": [0.0, 1.0]}]}, "atoms[0].bounds"),
    ({"atoms": [{"type": "box", "coords": [1], "bounds": [0.0, 1.0], "offset": [0.5]}]},
     "atoms[0].offset"),
    ({"m": 2, "A": [[1.0], [0.0]],
      "atoms": [{"type": "soc", "coords": [1, 2], "offset": [1.0, False]}]}, "atoms[0].offset"),
    # a misspelt optional key used to be ignored, solving another problem
    ({"kapa": 0.9}, "kapa"),
    ({"atoms": [{"type": "box", "coords": [1], "bounds": [0.0, 1.0], "ofset": 0.5}]},
     "atoms[0].ofset"),
    ({"xi": 3.0, "zeta": 1, "kapa": 0.9}, "kapa"),
    ({"atoms": [3]}, "atoms[0]"),
    ({"atoms": [{"type": "box", "coords": [], "bounds": [0.0, 1.0]}]}, "atoms[0].coords"),
    ({"atoms": [{"type": "box", "coords": [0], "bounds": [0.0, 1.0]}]}, "atoms[0].coords"),
], ids=["xi-null", "xi-text", "kappa-null", "kappa-list", "z0-text", "z0-null",
        "atoms-object", "atoms-number", "n-fractional", "m-fractional",
        "A-text", "A-bool", "c-text", "A-bool-among-numbers", "c-bool-among-numbers",
        "xi-huge-int", "kappa-huge-int", "z0-huge-int", "bounds-huge-int", "z0-length",
        "bounds-text", "offset-text", "type-list", "type-object",
        "bounds-inf", "bounds-nan", "halfline-inf", "halfline-nan", "offset-nan",
        "halfline-bounds-bool", "box-bounds-bool", "soc-bounds", "offset-list",
        "offset-bool", "unknown-key", "atom-unknown-key", "unknown-keys",
        "atom-not-object", "coords-empty", "coords-zero"])
def test_parse_rejects_malformed_entry(change, field, tmp_path, capsys):
    path = tmp_path / "bad.dd"
    path.write_text(json.dumps({**BOX_DOC, **change}))
    with pytest.raises(dd.ParseError) as err:
        parse_problem_file(str(path))
    assert err.value.field == field
    assert main(["solve", str(path)]) == 4
    assert f"(field: {field})" in json.loads(capsys.readouterr().out)["error"]


@pytest.mark.parametrize("data,message", [
    (b'{"n": 1, "m": 1,', "Expecting property name"),
    (b"[1.0]", "must hold a JSON object"),
    (json.dumps({key: v for key, v in BOX_DOC.items() if key != "A"}).encode(),
     "missing required entry 'A'"),
    # a valid document in another encoding: UTF-8 is the only one read
    (json.dumps(BOX_DOC).encode("utf-16"), "'utf-8' codec can't decode byte 0xff"),
    (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
], ids=["malformed-json", "not-an-object", "missing-A", "not-utf8", "nested-too-deep"])
def test_unreadable_document_is_input_error(data, message, tmp_path, capsys):
    # written as bytes, so that a document need not be text
    path = tmp_path / "bad.dd"
    path.write_bytes(data)
    with pytest.raises(dd.ParseError, match=message):
        parse_problem_file(str(path))
    assert main(["solve", str(path)]) == 4
    assert message in json.loads(capsys.readouterr().out)["error"]


@pytest.mark.parametrize("change,message", [
    ({"A": [[float("nan")]]}, "non-finite"),
    ({"c": [float("inf")]}, "non-finite"),
    ({"n": 0, "m": 0, "A": [], "c": [], "atoms": []}, "at least one atom"),
], ids=["A-nan", "c-inf", "no-atoms"])
def test_non_finite_data_is_input_error(change, message, tmp_path, capsys):
    # NaN in A used to escape as an uncaught LinAlgError from the rank
    # check, and a problem without atoms as a DomainViolation of the solve
    path = tmp_path / "bad.dd"
    path.write_text(json.dumps({**BOX_DOC, **change}))
    with pytest.raises(dd.ValidationError, match=message):
        parse_problem_file(str(path))
    assert main(["solve", str(path)]) == 4
    assert message in json.loads(capsys.readouterr().out)["error"]


def test_start_whose_metric_overflows_is_input_error(tmp_path, capsys):
    # the box's middle is interior, but 1/s^2 overflows there: make_start
    # rejects the anchor, where the solve's first evaluation would raise
    # outside the failure handling
    path = tmp_path / "narrow.dd"
    path.write_text(json.dumps({**BOX_DOC, "atoms": [{"type": "box", "coords": [1],
                                                      "bounds": [0.0, 1e-160]}]}))
    assert main(["solve", str(path)]) == 4
    captured = capsys.readouterr()
    assert "diagonal metric entry is not positive and finite" in json.loads(captured.out)["error"]
    assert captured.err == ""


@pytest.mark.parametrize("argv,change", [([], {"xi": 9e307}), (["--xi", "9e307"], {})],
                         ids=["file", "option"])
def test_overflowing_xi_theta_is_input_error(argv, change, tmp_path, capsys):
    # xi * theta = 1.8e308 overflowed y_tau0, and the first iterate raised
    # DomainViolation out of the solve
    path = tmp_path / "bad.dd"
    path.write_text(json.dumps({**BOX_DOC, **change}))
    if change:
        with pytest.raises(dd.BadConstants):
            parse_problem_file(str(path))
    assert main(["solve", str(path), *argv]) == 4
    assert "xi * theta" in json.loads(capsys.readouterr().out)["error"]


def test_parse_rejects_scalar_soc_offset(tmp_path):
    doc = {"n": 2, "m": 3, "A": [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]], "c": [-1.0, 1.0],
           "atoms": [{"type": "soc", "coords": [1, 2, 3], "offset": 1.0}]}
    path = tmp_path / "bad.dd"
    path.write_text(json.dumps(doc))
    with pytest.raises(dd.ParseError) as err:
        parse_problem_file(str(path))
    assert "offset" in str(err.value)


def test_unwritable_trace_path_is_input_error(instance_path, tmp_path, capsys):
    # checked with the other inputs, before the solve, not after it
    target = tmp_path / "missing" / "t.csv"
    assert main(["solve", instance_path("inst_box.dd"), "--trace", str(target)]) == 4
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "InputError" and "--trace" in out["error"]
    assert not target.parent.exists()


def test_parse_missing_file():
    with pytest.raises(dd.ParseError):
        parse_problem_file("/nonexistent/problem.dd")


def test_parse_explicit_z0_and_constants(tmp_path):
    doc = {"n": 1, "m": 1, "A": [[1.0]], "c": [1.0],
           "atoms": [{"type": "box", "coords": [1], "bounds": [0.0, 1.0]}],
           "z0": [0.25], "xi": 3.0, "kappa": 0.5}
    path = tmp_path / "prob.dd"
    path.write_text(json.dumps(doc))
    problem, start = parse_problem_file(str(path))
    assert problem.xi == 3.0 and problem.kappa == 0.5
    assert start.z0[0] == 0.25


def test_exit_codes(instance_path, capsys):
    assert main(["solve", instance_path("inst_box.dd"), "--eps", "1e-6"]) == 0
    assert main(["solve", instance_path("inst_inf.dd"), "--eps", "1e-6"]) == 1
    assert main(["solve", instance_path("inst_unb.dd"), "--eps", "1e-6"]) == 2
    assert main(["solve", "/nonexistent.dd"]) == 4
    capsys.readouterr()


def test_overlapping_coords_exit_code(tmp_path, capsys):
    doc = {"n": 1, "m": 2, "A": [[1.0], [-1.0]], "c": [1.0],
           "atoms": [{"type": "halfline_lower", "coords": [1], "bounds": 0.0},
                     {"type": "halfline_lower", "coords": [1], "bounds": 0.0}]}
    path = tmp_path / "overlap.dd"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 4
    out = json.loads(capsys.readouterr().out)
    assert "partition" in out["error"]


def test_mu_cap_exit_code(tmp_path, capsys):
    # tangent-slice instance: the path parameter cap is the only trigger
    doc = {"n": 3, "m": 5,
           "A": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, -1], [1, 0, -1]],
           "c": [0.0, -1.0, 0.0],
           "atoms": [{"type": "soc", "coords": [1, 2, 3]},
                     {"type": "halfline_lower", "coords": [4], "bounds": 0.0},
                     {"type": "halfline_upper", "coords": [5], "bounds": 0.0}]}
    path = tmp_path / "tangent.dd"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path), "--eps", "1e-2"]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "IllConditioned"
    assert out["objective_estimate"] == 0.0


def test_bad_eps_is_input_error(instance_path, capsys):
    assert main(["solve", instance_path("inst_box.dd"), "--eps", "2.0"]) == 4
    out = json.loads(capsys.readouterr().out)
    assert out["exit_code"] == 4


def test_negative_max_iters_is_input_error(instance_path, capsys):
    assert main(["solve", instance_path("inst_box.dd"), "--max-iters", "-3"]) == 4
    out = json.loads(capsys.readouterr().out)
    assert out["exit_code"] == 4 and "--max-iters" in out["error"]


def test_iteration_limit_exit_code(instance_path, capsys):
    assert main(["solve", instance_path("inst_box.dd"), "--eps", "1e-6",
                 "--max-iters", "2"]) == 5
    capsys.readouterr()


def test_strict_flag_upgrades_certificate(instance_path, capsys):
    code = main(["solve", instance_path("inst_inf.dd"), "--eps", "1e-6", "--strict"])
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    cert = out["certificate"]
    assert cert["strict"] is True
    y = np.array(cert["y"])
    assert np.max(np.abs(y - np.array([-1.0, -1.0]))) <= 1e-9
    assert out["diagnostics"]["strict_projection"] == "succeeded"


def test_strict_flag_on_unbounded(instance_path, capsys):
    code = main(["solve", instance_path("inst_unb.dd"), "--eps", "1e-6", "--strict"])
    assert code == 2
    out = json.loads(capsys.readouterr().out)
    assert out["certificate"]["kind"] == "unboundedness"
    assert out["certificate"]["strict"] is True
    assert out["diagnostics"]["strict_projection"] == "succeeded"


def _refused_projection(*args):
    raise dd.ProjectionOutsideCone("projected direction left the dual cone")


def _unverified_projection(*args):
    # a strict direction outside D*: A'y = 0, but every margin is negative
    return dd.Certificate(kind="infeasibility", strict=True, eps=np.inf, y=np.array([1.0, 1.0]))


@pytest.mark.parametrize("projector,note", [
    (_refused_projection, "ProjectionOutsideCone: projected direction left the dual cone"),
    (_unverified_projection,
     "verification failed: y in dual cone (margins >= 0), support(y) <= -1 + 1e-8"),
], ids=["projection-raises", "verification-fails"])
def test_strict_flag_keeps_weak_certificate_on_failure(projector, note, instance_path, capsys,
                                                      monkeypatch):
    monkeypatch.setattr(dd.status, "strict_infeasibility_certificate", projector)
    code = main(["solve", instance_path("inst_inf.dd"), "--eps", "1e-6", "--strict"])
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert out["certificate"]["kind"] == "infeasibility"
    assert out["certificate"]["strict"] is False
    assert all(check["passed"] for check in out["verification"])
    assert out["diagnostics"]["strict_projection"] == note


def test_problem_without_columns_solves(tmp_path, capsys):
    # A is 2 x 0: the only unknowns are tau and y, and every formula of
    # the follower reads empty x, c and A'y
    doc = {"n": 0, "m": 2, "A": [[], []], "c": [],
           "atoms": [{"type": "box", "coords": [1], "bounds": [0.0, 1.0]},
                     {"type": "halfline_lower", "coords": [2], "bounds": 0.0}]}
    path = tmp_path / "empty.dd"
    path.write_text(json.dumps(doc))
    problem, start = parse_problem_file(str(path))
    assert problem.A.shape == (2, 0)
    result = dd.follow(problem, start)
    assert result.report.status == "EpsSolution"
    assert result.report.x.shape == (0,)
    assert result.invariant_violations == []
    assert main(["solve", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "EpsSolution" and out["certificate"]["x"] == []


def test_strict_flag_no_false_positive_on_box(instance_path, capsys):
    code = main(["solve", instance_path("inst_box.dd"), "--eps", "1e-6", "--strict"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "EpsSolution"
    assert out["certificate"]["kind"] == "optimal-pair"


def test_constant_overrides(instance_path, capsys):
    code = main(["solve", instance_path("inst_box.dd"), "--eps", "1e-6",
                 "--xi", "3.0", "--kappa", "0.4"])
    assert code == 0
    capsys.readouterr()


@pytest.mark.parametrize("change,argv,code,validated", [
    ({}, ["--xi", "3.0"], 0, [(3.0, 0.25)]),
    ({"xi": 1.0}, ["--xi", "2.0"], 0, [(2.0, 0.25)]),
    ({"kappa": 2.0}, ["--kappa", "0.5"], 0, [(2.0, 0.5)]),
    ({"xi": "abc"}, ["--xi", "2.0"], 4, []),
], ids=["xi-flag", "xi-replaced", "kappa-replaced", "xi-malformed"])
def test_flags_replace_file_constants_before_validation(change, argv, code, validated,
                                                         tmp_path, capsys, monkeypatch):
    # the file's constant a flag replaces is read, so a malformed one is
    # still an input error, but never validated; the problem is validated
    # and its start built once
    path = tmp_path / "box.dd"
    path.write_text(json.dumps({**BOX_DOC, **change}))
    calls = []
    original_validate, original_start = cli_module.validate_problem, cli_module.make_start

    def validate(*args, **kwargs):
        calls.append((kwargs["xi"], kwargs["kappa"]))
        return original_validate(*args, **kwargs)

    def make_start(*args):
        calls.append("make_start")
        return original_start(*args)
    monkeypatch.setattr(cli_module, "validate_problem", validate)
    monkeypatch.setattr(cli_module, "make_start", make_start)
    assert main(["solve", str(path), "--eps", "1e-6", *argv]) == code
    assert calls == (validated + ["make_start"] if validated else [])
    capsys.readouterr()


def test_report_round_trips(box_problem):
    problem, start = box_problem
    report = run_solve(problem, start, 1e-6)
    blob = report.to_json()
    assert json.loads(blob) == report.to_dict()


@pytest.mark.parametrize("name", ["inst_box.dd", "inst_inf.dd", "inst_soc.dd", "inst_unb.dd"])
def test_report_json_matches_deep_copy(name, instance_path):
    # to_dict copies the fields shallowly; the JSON must be the bytes the
    # deep-copying dataclasses.asdict form gives
    problem, start = parse_problem_file(instance_path(name))
    report = run_solve(problem, start, 1e-6, strict=True)
    assert report.to_json() == json.dumps(dataclasses.asdict(report), indent=2)


def test_trace_csv_contents(box_problem, tmp_path):
    problem, start = box_problem
    trace_path = tmp_path / "trace.csv"
    report = run_solve(problem, start, 1e-6, trace_path=str(trace_path))
    lines = trace_path.read_text().splitlines()
    assert lines[0] == "iter,mu,tau,gap,p_feas,d_feas,proximity"
    assert len(lines) - 1 == report.diagnostics["iterations"] + 1
    # floats are shortest round-trip decimals
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == 1.0
    for row in lines[1:]:
        for cell in row.split(",")[1:]:
            assert repr(float(cell)) == cell


def test_determinism_bit_for_bit(instance_path, tmp_path, capsys):
    outputs, traces = [], []
    for k in range(2):
        trace = tmp_path / f"t{k}.csv"
        code = main(["solve", instance_path("inst_box.dd"), "--eps", "1e-6",
                     "--trace", str(trace)])
        assert code == 0
        outputs.append(capsys.readouterr().out)
        traces.append(trace.read_bytes())
    assert outputs[0] == outputs[1]
    assert traces[0] == traces[1]

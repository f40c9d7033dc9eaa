"""Problem file parsing, report serialization, exit codes, determinism."""

import json

import numpy as np
import pytest

import ddsolve as dd
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
    ({"atoms": [{"type": "box", "coords": [1], "bounds": ["0", "1"]}]}, "atoms[0].bounds"),
    ({"atoms": [{"type": "box", "coords": [1], "bounds": [0.0, 1.0], "offset": "0.5"}]},
     "atoms[0].offset"),
], ids=["xi-null", "xi-text", "kappa-null", "kappa-list", "z0-text", "z0-null",
        "atoms-object", "atoms-number", "n-fractional", "m-fractional",
        "A-text", "A-bool", "c-text", "bounds-text", "offset-text"])
def test_parse_rejects_malformed_entry(change, field, tmp_path, capsys):
    path = tmp_path / "bad.dd"
    path.write_text(json.dumps({**BOX_DOC, **change}))
    with pytest.raises(dd.ParseError) as err:
        parse_problem_file(str(path))
    assert err.value.field == field
    assert main(["solve", str(path)]) == 4
    assert f"(field: {field})" in json.loads(capsys.readouterr().out)["error"]


@pytest.mark.parametrize("change", [{"A": [[float("nan")]]}, {"c": [float("inf")]}],
                         ids=["A-nan", "c-inf"])
def test_non_finite_data_is_input_error(change, tmp_path, capsys):
    # NaN in A used to escape as an uncaught LinAlgError from the rank check
    path = tmp_path / "bad.dd"
    path.write_text(json.dumps({**BOX_DOC, **change}))
    with pytest.raises(dd.ValidationError):
        parse_problem_file(str(path))
    assert main(["solve", str(path)]) == 4
    assert "non-finite" in json.loads(capsys.readouterr().out)["error"]


def test_parse_rejects_scalar_soc_offset(tmp_path):
    doc = {"n": 2, "m": 3, "A": [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]], "c": [-1.0, 1.0],
           "atoms": [{"type": "soc", "coords": [1, 2, 3], "offset": 1.0}]}
    path = tmp_path / "bad.dd"
    path.write_text(json.dumps(doc))
    with pytest.raises(dd.ParseError) as err:
        parse_problem_file(str(path))
    assert "offset" in str(err.value)


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


def test_report_round_trips(box_problem):
    problem, start = box_problem
    report = run_solve(problem, start, 1e-6)
    blob = report.to_json()
    assert json.loads(blob) == report.to_dict()


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

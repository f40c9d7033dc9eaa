"""Problem file parsing, report serialization, exit codes, determinism."""

import copy
import dataclasses
import functools
import inspect
import json
import operator
import re

import numpy as np
import pytest

import ddsolve as dd
import ddsolve.cli as cli_module
from ddsolve.cli import main, parse_problem_file, run_solve
from conftest import MANY_ATOM_SEEDS, many_atom_document
from fuzz import documents, main as fuzz_main, run_failure
from oracles import repeat_run_failures


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
    assert dd.model.in_qdd(problem, start, np.zeros(2), 1.0, start.y0)


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
SOC_DOC = {"n": 1, "m": 3, "A": [[1.0], [0.0], [0.0]], "c": [1.0],
           "atoms": [{"type": "soc", "coords": [1, 2, 3]}]}
# three image rows, for atom lists whose bad entry follows good ones
THREE = {"m": 3, "A": [[1.0], [0.5], [0.0]]}
HALF = [{"type": "halfline_lower", "coords": [i], "bounds": 0.0} for i in (1, 2, 3)]


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
    ({"atoms": [{"type": "mystery", "coords": [1]}]}, "atoms[0].type"),
    # int() would truncate these to [1] and [2] and solve the wrong problem
    ({"m": 2, "A": [[1.0], [-1.0]],
      "atoms": [{"type": "halfline_lower", "coords": [1.7], "bounds": 0.0},
                {"type": "halfline_lower", "coords": [2.9], "bounds": -1.0}]}, "atoms[0].coords"),
    ({"n": 2, "m": 3, "A": [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]], "c": [-1.0, 1.0],
      "atoms": [{"type": "soc", "coords": [1, 2, 3], "offset": 1.0}]}, "atoms[0].offset"),
    # the first bad entry is named, past good ones
    ({**THREE, "atoms": [HALF[0], {**HALF[1], "type": "mystery"}, HALF[2]]}, "atoms[1].type"),
    ({**THREE, "atoms": [*HALF[:2], {**HALF[2], "coords": [3.5]}]}, "atoms[2].coords"),
    ({**THREE, "atoms": [HALF[0], {**HALF[1], "bounds": "0"}, HALF[2]]}, "atoms[1].bounds"),
    ({**THREE, "atoms": [*HALF[:2], {"type": "box", "coords": [3], "bounds": [0.0, 1.0],
                                     "offset": [0.5]}]}, "atoms[2].offset"),
    ({**THREE, "atoms": [HALF[0], {**HALF[1], "ofset": 0.5}, HALF[2]]}, "atoms[1].ofset"),
    ({**THREE, "atoms": [*HALF[:2], {**HALF[2], "bounds": float("nan")}]}, "atoms[2]"),
    ({**THREE, "atoms": [HALF[0], {**HALF[1], "bounds": "0"}, {**HALF[2], "type": "mystery"}]},
     "atoms[1].bounds"),
    ({**THREE, "atoms": [HALF[0], {**HALF[1], "bounds": float("inf")},
                         {**HALF[2], "type": "mystery"}]}, "atoms[1]"),
], ids=["xi-null", "xi-text", "kappa-null", "kappa-list", "z0-text", "z0-null",
        "atoms-object", "atoms-number", "n-fractional", "m-fractional",
        "A-text", "A-bool", "c-text", "A-bool-among-numbers", "c-bool-among-numbers",
        "xi-huge-int", "kappa-huge-int", "z0-huge-int", "bounds-huge-int", "z0-length",
        "bounds-text", "offset-text", "type-list", "type-object",
        "bounds-inf", "bounds-nan", "halfline-inf", "halfline-nan", "offset-nan",
        "halfline-bounds-bool", "box-bounds-bool", "soc-bounds", "offset-list",
        "offset-bool", "unknown-key", "atom-unknown-key", "unknown-keys",
        "atom-not-object", "coords-empty", "coords-zero", "type-unknown", "coords-fractional",
        "soc-offset-scalar", "later-type", "later-coords", "later-bounds", "later-offset",
        "later-unknown-key", "later-non-finite", "two-bad-entries", "bad-number-then-bad-type"])
def test_parse_rejects_malformed_entry(change, field, tmp_path, capsys):
    path = tmp_path / "bad.dd"
    path.write_text(json.dumps({**BOX_DOC, **change}))
    with pytest.raises(dd.ParseError) as err:
        parse_problem_file(str(path))
    assert err.value.field == field
    assert main(["solve", str(path)]) == 4
    assert f"(field: {field})" in json.loads(capsys.readouterr().out)["error"]


@pytest.mark.parametrize("doc,integral", [
    ({**BOX_DOC, "atoms": [{"type": "halfline_lower", "coords": [1.0], "bounds": 0.0}]}, [1]),
    ({**SOC_DOC, "atoms": [{"type": "soc", "coords": [1.0, 2.0, 3.0]}]}, [1, 2, 3]),
], ids=["halfline", "soc"])
def test_integral_float_coords_read_as_integers(doc, integral, tmp_path):
    # a writer may print an integer coordinate as 1.0: the file holds the
    # atom its integer coordinates give, with int coordinates
    path = tmp_path / "coords.dd"
    problems = []
    for coords in (doc["atoms"][0]["coords"], integral):
        path.write_text(json.dumps({**doc, "atoms": [{**doc["atoms"][0], "coords": coords}]}))
        problems.append(parse_problem_file(str(path))[0])
    assert problems[0].atoms == problems[1].atoms
    assert {type(i) for i in problems[0].atoms[0].coords} == {int}


def test_boolean_coord_is_not_an_integer(tmp_path):
    # True is an int to Python and 1 to int(); a coordinate is a JSON number
    path = tmp_path / "coords.dd"
    path.write_text(json.dumps({**BOX_DOC, "atoms": [{**BOX_DOC["atoms"][0], "coords": [True]}]}))
    with pytest.raises(dd.ParseError, match="coords must be integers") as err:
        parse_problem_file(str(path))
    assert err.value.field == "atoms[0].coords"


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
    # each anchor is interior, but a value formed from it is not finite:
    # make_start rejects it, where the solve's first evaluation would raise
    # outside the failure handling or end NumericalFailure after warnings
    anchors = [
        # the cone's q underflows to 0, so y0 would be (-inf, nan, nan)
        ({**SOC_DOC, "z0": [1e-200, 0.0, 0.0]}, dd.FactorizationFailure,
         "soc metric eigenvalue is not positive and finite"),
        # q overflows, so y0 would be 0, which is not dual-interior
        ({**SOC_DOC, "z0": [1e200, 0.0, 0.0]}, dd.FactorizationFailure,
         "soc metric eigenvalue is not positive and finite"),
        # y0 is finite, but the largest eigenvalue 2/margin^2 is not
        ({**SOC_DOC, "z0": [1e-160, 0.0, 0.0]}, dd.FactorizationFailure,
         "soc metric eigenvalue is not positive and finite"),
        # the metric is finite, but A'y0 overflows and mu would be NaN
        ({**BOX_DOC, "A": [[1e300]], "z0": [1e-10],
          "atoms": [{"type": "halfline_lower", "coords": [1], "bounds": 0.0}]},
         dd.DomainViolation, "||A'y0||_inf"),
        # the box's middle, where 1/s^2 overflows, and where s^2 underflows
        # to 0, so that 1/s^2 divides by zero
        ({**BOX_DOC, "atoms": [{"type": "box", "coords": [1], "bounds": [0.0, 1e-160]}]},
         dd.FactorizationFailure, "diagonal metric entry is not positive and finite"),
        ({**BOX_DOC, "atoms": [{"type": "box", "coords": [1], "bounds": [0.0, 1e-170]}]},
         dd.FactorizationFailure, "diagonal metric entry is not positive and finite"),
        # the shifted anchor z0 + offset overflows to inf, whose slack to
        # the infinite bound is inf - inf = NaN
        ({**BOX_DOC, "z0": [1e308], "atoms": [
            {"type": "halfline_lower", "coords": [1], "bounds": 0.0, "offset": 1e308}]},
         dd.DomainViolation, "z0 is not strictly interior to the domain"),
        ({**BOX_DOC, "z0": [-1e308], "atoms": [
            {"type": "halfline_upper", "coords": [1], "bounds": 0.0, "offset": -1e308}]},
         dd.DomainViolation, "z0 is not strictly interior to the domain"),
    ]
    path = tmp_path / "anchor.dd"
    for doc, error, message in anchors:
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path), "--eps", "1e-6", "--max-iters", "5"]) == 4
        captured = capsys.readouterr()
        assert message in json.loads(captured.out)["error"]
        assert captured.err == ""
        # the library paths reject it too, a RuntimeWarning failing the suite
        with pytest.raises(error, match=re.escape(message)):
            parse_problem_file(str(path))
        atoms = cli_module._atom_list(doc["atoms"])
        problem = dd.validate_problem(doc["A"], doc["c"], atoms)
        with pytest.raises(error, match=re.escape(message)):
            dd.make_start(problem, doc.get("z0"))


def _outcome(name, source, argv, code, status, reads=None, raises=None):
    """A row of OUTCOMES; ``raises`` is parse_problem_file's error, if any."""
    return pytest.param(source, argv, code, status, reads or {}, raises, id=name)


EPS_1E6, STRICT_1E4 = ["--eps", "1e-6"], ["--eps", "1e-4", "--strict"]
HUGE_C = {"c": [1e300], "xi": 2.0, "kappa": 0.0}

# a bundled instance, a document or a missing path, with the arguments
# after it; "{tmp}" stands for the test's directory.  A report entry is
# named by its keys joined with ".": a pattern searches its text, any
# other value equals it, true not being 1
OUTCOMES = [
    _outcome("box", "inst_box.dd", EPS_1E6, 0, "EpsSolution"),
    _outcome("infeasible", "inst_inf.dd", EPS_1E6, 1, "InfeasibilityCertificate"),
    _outcome("unbounded", "inst_unb.dd", EPS_1E6, 2, "UnboundednessCertificate"),
    _outcome("missing-file", "/nonexistent/problem.dd", [], 4, "InputError",
             raises=dd.ParseError),
    _outcome("constant-overrides", "inst_box.dd", [*EPS_1E6, "--xi", "3.0", "--kappa", "0.4"],
             0, "EpsSolution"),
    # the tangent slice: the path parameter cap is the only trigger
    _outcome("mu-cap", {"n": 3, "m": 5,
                        "A": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, -1], [1, 0, -1]],
                        "c": [0.0, -1.0, 0.0],
                        "atoms": [{"type": "soc", "coords": [1, 2, 3]},
                                  {"type": "halfline_lower", "coords": [4], "bounds": 0.0},
                                  {"type": "halfline_upper", "coords": [5], "bounds": 0.0}]},
             ["--eps", "1e-2"], 3, "IllConditioned", {"objective_estimate": 0.0}),
    _outcome("bad-eps", "inst_box.dd", ["--eps", "2.0"], 4, "InputError", {"exit_code": 4}),
    _outcome("negative-max-iters", "inst_box.dd", ["--max-iters", "-3"], 4, "InputError",
             {"exit_code": 4}),
    # usage errors: argparse printed its usage on stderr and exited 2, the
    # unbounded status's code
    _outcome("malformed-eps", "inst_box.dd", ["--eps", "abc"], 4, "InputError",
             {"error": re.compile("^ddsolve solve: argument --eps: invalid float value")}),
    _outcome("malformed-max-iters", "inst_box.dd", ["--max-iters", "2.5"], 4, "InputError",
             {"error": re.compile("^ddsolve solve: argument --max-iters: invalid int value")}),
    # the file is read before the options are checked
    _outcome("missing-file-bad-eps", "/nonexistent/problem.dd", ["--eps", "2.0"], 4,
             "InputError", {"error": re.compile("^cannot read /nonexistent/problem.dd")}),
    # xi * theta = 1.8e308 overflowed y_tau0, and the first iterate raised
    # DomainViolation out of the solve
    _outcome("overflowing-xi-theta-file", {**BOX_DOC, "xi": 9e307}, [], 4, "InputError",
             {"error": re.compile(r"xi \* theta")}, dd.BadConstants),
    _outcome("overflowing-xi-theta-option", BOX_DOC, ["--xi", "9e307"], 4, "InputError",
             {"error": re.compile(r"xi \* theta")}),
    # checked with the other inputs, before the solve, not after it
    _outcome("unwritable-trace", "inst_box.dd", ["--trace", "{tmp}/missing/t.csv"], 4,
             "InputError", {"error": re.compile("--trace")}),
    _outcome("iteration-limit", "inst_box.dd", [*EPS_1E6, "--max-iters", "2"], 5,
             "IterationLimit"),
    # theta eps^3 underflows to 0.0 at this eps, so no mu cap can fire
    _outcome("tiny-eps", "inst_box.dd", ["--eps", "1e-110", "--max-iters", "3"], 5,
             "IterationLimit"),
    # uncapped, the path runs on until tau**3, a Python float, overflows:
    # that ends NumericalFailure, not a traceback with exit code 1
    _outcome("tiny-eps-uncapped", "inst_box.dd", ["--eps", "1e-110"], 5, "NumericalFailure",
             {"diagnostics.reason": re.compile("^OverflowError")}),
    # A'HA overflows in the first tangent: the FloatingPointError is the
    # reason, and numpy's RuntimeWarning is not on stderr
    _outcome("numpy-overflow", {**BOX_DOC, "A": [[1e200]], "c": [1e-200]}, [], 5,
             "NumericalFailure",
             {"diagnostics.reason": re.compile("^FloatingPointError: overflow")}),
    _outcome("strict-infeasible", "inst_inf.dd", [*EPS_1E6, "--strict"], 1,
             "InfeasibilityCertificate", {
                 "certificate.strict": True, "diagnostics.strict_projection": "succeeded",
                 "certificate.y": pytest.approx([-1.0, -1.0], rel=0.0, abs=1e-9)}),
    _outcome("strict-unbounded", "inst_unb.dd", [*EPS_1E6, "--strict"], 2,
             "UnboundednessCertificate", {"certificate.kind": "unboundedness",
                                          "certificate.strict": True,
                                          "diagnostics.strict_projection": "succeeded"}),
    _outcome("strict-box", "inst_box.dd", [*EPS_1E6, "--strict"], 0, "EpsSolution",
             {"certificate.kind": "optimal-pair"}),
    # ||A'y/tau + c|| and ||c||, formed as sums of squares, overflowed once
    # an entry passed about 1.3e154: numpy warned on stderr, and D_feas
    # read inf or NaN in the report
    _outcome("huge-A", {**SOC_DOC, "A": [[1e300], [0.0], [3.0]]}, STRICT_1E4, 5,
             "NumericalFailure", {"diagnostics.d_feas": pytest.approx(5e299, rel=1e-12)}),
    _outcome("huge-c-stall", {**SOC_DOC, **HUGE_C, "A": [[3.0], [1.0], [1e-300]]}, STRICT_1E4, 5,
             "NumericalFailure", {"diagnostics.d_feas": pytest.approx(1.0, rel=1e-12)}),
    _outcome("huge-c-unbounded", {**SOC_DOC, **HUGE_C, "A": [[1e-300], [0.0], [1.0]]}, STRICT_1E4,
             2, "UnboundednessCertificate", {"diagnostics.d_feas": pytest.approx(1.0, rel=1e-12)}),
]


@pytest.mark.parametrize("source,argv,code,status,reads,raises", OUTCOMES)
def test_outcome(source, argv, code, status, reads, raises, instance_path, tmp_path, capsys):
    if isinstance(source, dict):
        (tmp_path / "doc.dd").write_text(json.dumps(source))
        path = str(tmp_path / "doc.dd")
    else:
        path = source if "/" in source else instance_path(source)
    assert main(["solve", path, *(arg.format(tmp=tmp_path) for arg in argv)]) == code
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert captured.err == "" and out["status"] == status
    for key, want in reads.items():
        got = functools.reduce(operator.getitem, key.split("."), out)
        if isinstance(want, re.Pattern):
            assert want.search(got), (key, got)
        else:
            assert got == want and isinstance(got, bool) == isinstance(want, bool), (key, got)
    # nothing is written beside the document: no --trace directory either
    assert [p.name for p in tmp_path.iterdir()] == (["doc.dd"] if isinstance(source, dict) else [])
    if raises is not None:
        with pytest.raises(raises):
            parse_problem_file(path)


@pytest.mark.parametrize("argv,error", [
    (["solve"], "ddsolve solve: the following arguments are required: file"),
    ([], "ddsolve: the following arguments are required: command"),
], ids=["no-file", "no-command"])
def test_usage_error_without_a_file_is_an_input_error(argv, error, capsys):
    # test_outcome's checks, for the usage errors that name no file
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out) == {"status": "InputError", "exit_code": 4, "error": error}


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["solve", "--help"])
    assert exited.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ddsolve solve")


OVERLAP_DOC = {**BOX_DOC, "m": 2, "A": [[1.0], [-1.0]], "atoms": HALF[:1] * 2}


def test_parse_rejects_overlapping_coords(tmp_path):
    (tmp_path / "bad.dd").write_text(json.dumps(OVERLAP_DOC))
    with pytest.raises(dd.AtomCoverage):
        parse_problem_file(str(tmp_path / "bad.dd"))


def test_overlapping_coords_exit_code(instance_path, tmp_path, capsys):
    # the outcome checks of test_outcome, on the same document
    test_outcome(OVERLAP_DOC, [], 4, "InputError", {"error": re.compile("partition")}, None,
                 instance_path, tmp_path, capsys)


def test_parse_explicit_z0_and_constants(tmp_path):
    doc = {"n": 1, "m": 1, "A": [[1.0]], "c": [1.0],
           "atoms": [{"type": "box", "coords": [1], "bounds": [0.0, 1.0]}],
           "z0": [0.25], "xi": 3.0, "kappa": 0.5}
    path = tmp_path / "prob.dd"
    path.write_text(json.dumps(doc))
    problem, start = parse_problem_file(str(path))
    assert problem.xi == 3.0 and problem.kappa == 0.5
    assert start.z0[0] == 0.25


def test_fuzzed_documents_exit_with_one_report(tmp_path):
    # the first 300 documents of tests/fuzz.py's seed 7; numpy warned once
    # the stop parameters' norms overflowed, and on document 183 (a
    # halfline bound and offset of -1e308 and 1e308) when its barrier was
    # grouped
    failures = [(k, doc, failure) for k, doc in enumerate(documents(7, 300))
                if (failure := run_failure(doc, tmp_path)) is not None]
    assert failures == []


@pytest.mark.parametrize("count", ["0", "-2"])
def test_fuzz_refuses_a_count_below_one(count):
    with pytest.raises(SystemExit, match="--count must be at least 1"):
        fuzz_main(["--count", count])


@pytest.mark.parametrize("failing", [(), (1,)], ids=["none-failed", "one-failed"])
def test_fuzz_exits_one_when_a_document_failed(monkeypatch, capsys, failing):
    # the documents at the indices in ``failing`` fail
    runs = []

    def run_failure(doc, directory):
        runs.append(doc)
        return "raised" if len(runs) - 1 in failing else None
    monkeypatch.setattr("fuzz.run_failure", run_failure)
    assert fuzz_main(["--count", "3"]) == int(bool(failing))
    assert len(runs) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"{len(failing)} of 3 documents warned, raised or misreported"
    assert len(lines) == len(failing) + 1


@pytest.mark.parametrize("shuffled", [False, True], ids=["ordered", "shuffled"])
@pytest.mark.parametrize("seed", MANY_ATOM_SEEDS)
def test_many_atom_file_round_trips(seed, shuffled, tmp_path):
    # a file of every kind, its numbers a mix of ints and floats, reads in
    # one pass as the atoms the API constructors build, and groups as they
    # do, bit for bit
    doc, atoms = many_atom_document(seed, shuffled)
    values = [entry[key] for entry in doc["atoms"] for key in ("bounds", "offset") if key in entry]
    numbers = [v for value in values for v in (value if type(value) is list else [value])]
    assert {type(v) for v in numbers} == {int, float}
    assert len(atoms) >= 30 and {a.kind for a in atoms} == set(dd.barriers.ATOM_THETA)
    assert cli_module._atom_list(doc["atoms"]) == atoms
    path = tmp_path / "many.dd"
    path.write_text(json.dumps(doc))
    problem, _ = parse_problem_file(str(path))
    assert list(problem.atoms) == atoms
    expected = dd.DomainBarrier(atoms, problem.m).groups
    assert [type(g) for g in problem.barrier.groups] == [type(g) for g in expected]
    for got, want in zip(problem.barrier.groups, expected):
        # each selector a slice when the coordinates run in order
        assert type(got.sel) is type(want.sel) and isinstance(got.sel, slice) != shuffled
        if shuffled:
            assert got.sel.tobytes() == want.sel.tobytes()
        else:
            assert got.sel == want.sel
        arrays = [name for name in ("d", "lower", "upper") if hasattr(want, name)]
        assert all(getattr(got, name).tobytes() == getattr(want, name).tobytes()
                   for name in arrays)
        assert getattr(got, "nh", None) == getattr(want, "nh", None)


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
        problem = original_validate(*args, **kwargs)
        calls.append((problem.xi, problem.kappa))
        return problem

    def make_start(*args):
        calls.append("make_start")
        return original_start(*args)
    monkeypatch.setattr(cli_module, "validate_problem", validate)
    monkeypatch.setattr(cli_module, "make_start", make_start)
    assert main(["solve", str(path), "--eps", "1e-6", *argv]) == code
    assert calls == (validated + ["make_start"] if validated else [])
    capsys.readouterr()


def test_defaults_are_validate_problem_and_follower_options(tmp_path, capsys, monkeypatch):
    # a file without xi or kappa, a command line without --eps or
    # --max-iters and run_solve without max_iters take each default from
    # its one owner
    defaults = inspect.signature(dd.validate_problem).parameters
    path = tmp_path / "box.dd"
    path.write_text(json.dumps(BOX_DOC))
    problem, start = parse_problem_file(str(path))
    assert (problem.xi, problem.kappa) == (defaults["xi"].default, defaults["kappa"].default)
    runs, original_follow = [], cli_module.follow

    def follow(problem, start, options):
        runs.append((problem.xi, problem.kappa, options))
        return original_follow(problem, start, options)
    monkeypatch.setattr(cli_module, "follow", follow)
    assert main(["solve", str(path)]) == 0
    run_solve(problem, start, dd.FollowerOptions().eps)
    assert runs == [(problem.xi, problem.kappa, dd.FollowerOptions())] * 2
    capsys.readouterr()


def _same(a, b) -> bool:
    """Whether two report values are equal field by field, arrays by value
    and NaN equal to NaN, dict keys in the same order."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b, equal_nan=True)
    return a == b or (a != a and b != b)


@pytest.mark.parametrize("problem_name,run_name,refuse", [
    ("box_problem", "box_run", False),
    ("inf_problem", "inf_run", False),
    ("inf_problem", "inf_run", True),
    ("unb_problem", "unb_run", False),
    ("tangent_problem", "tangent_run", False),
], ids=["eps-solution", "infeasible", "infeasible-refused", "unbounded", "ill-conditioned"])
def test_cli_paths_leave_the_follower_report_as_built(problem_name, run_name, refuse, request,
                                                      tmp_path, monkeypatch):
    # every run_solve path packages the follower's result without writing
    # into its report; the strict upgrade builds a new one
    problem, start = request.getfixturevalue(problem_name)
    result = request.getfixturevalue(run_name)
    built = copy.deepcopy(result.report)
    monkeypatch.setattr(cli_module, "follow", lambda *args: result)
    if refuse:
        monkeypatch.setattr(dd.status, "strict_infeasibility_certificate", _refused_projection)
    plain = run_solve(problem, start, 1e-6)
    upgraded = run_solve(problem, start, 1e-6, strict=True)
    run_solve(problem, start, 1e-6, strict=True, trace_path=str(tmp_path / "trace.csv"))
    assert _same(result.report, built)
    assert "strict_projection" not in plain.diagnostics
    if result.report.status in ("InfeasibilityCertificate", "UnboundednessCertificate"):
        note = ("ProjectionOutsideCone: projected direction left the dual cone" if refuse
                else "succeeded")
        assert upgraded.diagnostics == {**plain.diagnostics, "strict_projection": note}
        assert upgraded.certificate["strict"] is not refuse
    else:
        assert upgraded == plain
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.report.status = "EpsSolution"


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
    assert repeat_run_failures(instance_path("inst_box.dd"), "1e-6", tmp_path, capsys) == []

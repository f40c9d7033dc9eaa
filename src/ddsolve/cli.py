"""Command line front end: problem files in, status reports out.

Problem files are JSON documents::

    {
      "n": 1, "m": 1,
      "A": [[1.0]],              row-major dense
      "c": [1.0],
      "atoms": [ {"type": "box", "coords": [1], "bounds": [0.0, 1.0]} ],
      "z0": [0.5],               optional starting interior point
      "xi": 3.0, "kappa": 0.5    optional solver constants, else validate_problem's
    }

An atom ``type`` is one of "halfline_lower", "halfline_upper", "box" and
"soc".  Atom entries use 1-based coordinates: exactly one for a halfline
or a box, at least two for a soc.  ``bounds`` is a number for the halfline
types, a [lower, upper] pair for boxes and absent for a soc; ``offset`` is
optional, a number for a one-coordinate atom and a vector of one entry per
coordinate for a soc.  Every numeric entry (``A``, ``c``, bounds, offsets,
``z0``, ``xi``, ``kappa``) must be a JSON number a float can hold: a
numeric string such as "1.0", a boolean or an integer beyond float range
is an input error, and so is a non-finite entry.  So is a key not listed
here, in the file or in an atom entry: a misspelt optional key would
silently solve another problem.

Exit codes: 0 eps-solution, 1 infeasible, 2 unbounded, 3 ill-conditioned
(mu cap), 4 input or usage error, 5 numerical failure or iteration limit.
"""

from __future__ import annotations

import argparse
import json
import reprlib
import sys
from dataclasses import dataclass, fields, replace
from itertools import chain

import numpy as np

from . import barriers, status as status_engine
from .errors import ParseError, SolverError
from .model import Problem, StartData, make_start, validate_problem
from .path import FollowerOptions, FollowResult, TraceRow, follow, require_max_iters

INPUT_ERROR_EXIT = 4
FILE_KEYS = frozenset({"n", "m", "A", "c", "atoms", "z0", "xi", "kappa"})
ATOM_KEYS = frozenset({"type", "coords", "bounds", "offset"})


def _is_integral(v) -> bool:
    return not isinstance(v, bool) and (
        isinstance(v, int) or (isinstance(v, float) and v.is_integer()))


def _is_number(v) -> bool:
    """A JSON number a float can hold: ``json.load`` reads one as an int or a
    float (NaN and infinities included), and an int may lie beyond float range."""
    return type(v) is float or (type(v) is int and abs(v) <= sys.float_info.max)


def _unknown_keys_error(entry: dict, known: frozenset, prefix: str = "") -> ParseError:
    unknown = sorted(entry.keys() - known)
    return ParseError(f"unknown keys {unknown}", field=prefix + unknown[0])


def _numbers(value, field, count=None, rows=None, atom=None):
    """The entry ``field``, of atom entry ``atom`` when given, when it holds
    JSON numbers: one number when ``count`` is None, else a list of
    ``count`` numbers, or ``rows`` such lists, read into one float array.
    Anything else is a ParseError naming the field."""
    if count is None:
        if _is_number(value):
            return value
        shape = "a number"
    else:
        flat = value
        if rows is not None:  # well-shaped rows are read as one flat list
            shaped = (type(value) is list and len(value) == rows
                      and set(map(type, value)) <= {list} and set(map(len, value)) <= {count})
            flat = list(chain.from_iterable(value)) if shaped else None
        # one pass over the types, and entry by entry only when one is not a float
        if (type(flat) is list and len(flat) == (count if rows is None else rows * count)
                and (set(map(type, flat)) <= {float} or all(map(_is_number, flat)))):
            return value if rows is None else np.fromiter(flat, float).reshape(rows, count)
        shape = f"a list of {count} numbers" if rows is None else f"{rows} rows of {count} numbers"
    if atom is not None:
        field = f"atoms[{atom}].{field}"
    raise ParseError(f"{field} must be {shape}, got {reprlib.repr(value)}", field=field)


def _atom_list(entries: list) -> list:
    """The atoms of a file's atom list, read in one walk over its entries.
    Each entry must be an object of known keys, of a known kind, with
    integer coordinates >= 1 of the count the kind takes, bounds and an
    offset of the kind's shapes holding JSON numbers, and values that
    barriers._value_fault passes; the first rule an entry breaks is a
    ParseError naming its field."""
    # looked up once: a classmethod is bound anew at each lookup
    atoms, checked = [], barriers.BarrierAtom._checked
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ParseError(f"atom {index} must be an object", field=f"atoms[{index}]")
        if not entry.keys() <= ATOM_KEYS:
            raise _unknown_keys_error(entry, ATOM_KEYS, f"atoms[{index}].")
        kind = entry.get("type")
        coords = entry.get("coords")
        if type(kind) is not str or kind not in barriers.ATOM_THETA:
            raise ParseError(f"atom {index} has unknown type {kind!r}",
                             field=f"atoms[{index}].type")
        if not isinstance(coords, list) or not coords:
            raise ParseError(f"atom {index} needs a coords list", field=f"atoms[{index}].coords")
        k = len(coords)
        # 0-based, in one pass when every coordinate is an int
        zero_based = tuple([i - 1 for i in coords if type(i) is int])
        if len(zero_based) < k:
            if not all(map(_is_integral, coords)):
                raise ParseError(f"atom {index} coords must be integers, got {coords}",
                                 field=f"atoms[{index}].coords")
            zero_based = tuple([int(i) - 1 for i in coords])
        if (k == 1) == barriers.ATOM_CONE[kind]:
            takes = "at least two coordinates" if k == 1 else "exactly one coordinate"
            raise ParseError(f"atom {index}: a {kind} atom takes {takes}",
                             field=f"atoms[{index}].coords")
        if min(zero_based) < 0:
            raise ParseError(f"atom {index} coords are 1-based", field=f"atoms[{index}].coords")
        takes_lower, takes_upper = barriers.ATOM_BOUNDS[kind]
        if takes_lower and takes_upper:
            lower, upper = _numbers(entry.get("bounds"), "bounds", 2, atom=index)
        elif takes_lower or takes_upper:
            lower = upper = _numbers(entry.get("bounds"), "bounds", atom=index)
        elif "bounds" in entry:
            raise ParseError(f"atom {index}: a {kind} atom takes no bounds",
                             field=f"atoms[{index}].bounds")
        if k == 1:
            offset = (float(_numbers(entry.get("offset", 0.0), "offset", atom=index)),)
        else:
            offset = _numbers(entry.get("offset", [0.0] * k), "offset", k, atom=index)
            offset = tuple(map(float, offset))
        lower = float(lower) if takes_lower else None
        upper = float(upper) if takes_upper else None
        fault = barriers._value_fault(kind, offset, lower, upper)
        if fault is not None:
            raise ParseError(f"atom {index}: {fault}", field=f"atoms[{index}]")
        atoms.append(checked(kind, zero_based, offset, lower, upper))
    return atoms


def _read_problem_file(path, constants) -> tuple[Problem, StartData]:
    """The problem a file holds, validated with ``constants`` (a dict of xi
    and kappa) replacing the file's, and its start from the file's z0 or
    the default one.  :func:`make_start` rejects a start whose values
    overflow, divide by zero or are invalid, without a warning."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    except (UnicodeDecodeError, RecursionError) as exc:  # not UTF-8, or nested too deep
        raise ParseError(f"cannot decode {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("problem file must hold a JSON object")
    if not doc.keys() <= FILE_KEYS:
        raise _unknown_keys_error(doc, FILE_KEYS)
    for key in ("n", "m", "A", "c", "atoms"):
        if key not in doc:
            raise ParseError(f"missing required entry {key!r}", field=key)
    for key in ("n", "m"):
        if not _is_integral(doc[key]):
            raise ParseError(f"{key} must be an integer, got {doc[key]!r}", field=key)
    n, m = int(doc["n"]), int(doc["m"])
    A = _numbers(doc["A"], "A", n, m)
    c = np.array(_numbers(doc["c"], "c", n), dtype=float)
    if not isinstance(doc["atoms"], list):
        raise ParseError("atoms must be a list of atom objects", field="atoms")
    atoms = _atom_list(doc["atoms"])
    constants = {k: _numbers(doc[k], k) for k in ("xi", "kappa") if k in doc} | constants
    z0 = None if doc.get("z0") is None else _numbers(doc["z0"], "z0", m)
    problem = validate_problem(A, c, atoms, **constants)
    return problem, make_start(problem, z0)


def parse_problem_file(path) -> tuple[Problem, StartData]:
    """Parse and validate a problem file; synthesize the default starting
    point when the file does not carry one."""
    return _read_problem_file(path, {})


@dataclass
class RunReport:
    """Machine-readable outcome of one solve."""

    status: str
    exit_code: int
    certificate: dict | None
    objective_primal: float | None
    objective_estimate: float | None
    diagnostics: dict
    verification: list

    def to_dict(self) -> dict:
        """The fields by name, in order; the nested certificate,
        diagnostics and verification are the report's own, not copies."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _certificate_dict(cert) -> dict | None:
    if cert is None:
        return None
    out = {"kind": cert.kind, "strict": bool(cert.strict)}
    if cert.y is not None:
        out["y"] = np.asarray(cert.y, dtype=float).tolist()
    if cert.x is not None:
        out["x"] = np.asarray(cert.x, dtype=float).tolist()
    if cert.tau is not None:
        out["tau"] = float(cert.tau)
    if np.isfinite(cert.eps):
        out["eps"] = float(cert.eps)
    return out


def _attempt_strict(problem, start, result: FollowResult, eps):
    """A new report upgrading the follower's weak certificate by the
    local-norm projection detectors where the projection verifies, its
    outcome the last diagnostics entry; any other report as it is."""
    report = result.report
    if report.status == status_engine.INFEASIBILITY_CERTIFICATE:
        project, extra = status_engine.strict_infeasibility_certificate, ()
    elif report.status == status_engine.UNBOUNDEDNESS_CERTIFICATE:
        project, extra = status_engine.strict_unboundedness_certificate, (eps,)
    else:
        return report
    upgrade = {}
    try:
        cert = project(problem, start, result.iterates[-1], *extra)
        verification = status_engine.verify_certificate(problem, start, cert)
        if verification.passed:
            upgrade = {"certificate": cert, "verification": verification}
            note = "succeeded"
        else:
            note = "verification failed: " + ", ".join(verification.failed_names())
    except SolverError as exc:
        note = f"{type(exc).__name__}: {exc}"
    return replace(report, **upgrade,
                   diagnostics={**report.diagnostics, "strict_projection": note})


def run_solve(problem: Problem, start: StartData, eps: float, *, strict: bool = False,
              max_iters: int = FollowerOptions.max_iters, trace_path=None) -> RunReport:
    """Run the follower and package the outcome.

    With ``strict`` set, weak infeasibility/unboundedness outcomes are
    upgraded to exact certificates via the projection detectors when the
    projections verify.  ``trace_path`` writes one CSV row per accepted
    iterate.
    """
    options = FollowerOptions(eps=eps, max_iters=max_iters)
    result = follow(problem, start, options)
    report = _attempt_strict(problem, start, result, eps) if strict else result.report
    if trace_path is not None:
        write_trace(result.trace, trace_path)
    verification = []
    if report.verification is not None:
        verification = [{"check": c.name, "passed": c.passed, "value": c.value}
                        for c in report.verification.checks]
    return RunReport(
        status=report.status,
        exit_code=report.exit_code,
        certificate=_certificate_dict(report.certificate),
        objective_primal=report.objective_primal,
        objective_estimate=report.objective_estimate,
        diagnostics=dict(report.diagnostics),
        verification=verification,
    )


def write_trace(trace, path):
    """CSV trace, one row per accepted iterate; the columns are
    :class:`TraceRow`'s fields, the index, then shortest round-trip floats."""
    names = [f.name for f in fields(TraceRow)]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(names) + "\n")
        for row in trace:
            index, *values = (getattr(row, name) for name in names)
            handle.write(",".join([str(index), *(repr(float(v)) for v in values)]) + "\n")


class _Parser(argparse.ArgumentParser):
    """Raises a usage error (``--eps abc``, no file) as an input error, a
    ValueError, not exiting 2, the unbounded code; subparsers share it."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ddsolve", description="Barrier-domain convex solver")
    sub = parser.add_subparsers(dest="command", required=True)
    solve = sub.add_parser("solve", help="solve a problem file")
    solve.add_argument("file", help="problem file (JSON)")
    solve.add_argument("--eps", type=float, default=FollowerOptions.eps,
                       help="accuracy target in (0, 1)")
    solve.add_argument("--xi", type=float, default=None, help="override xi (> 1)")
    solve.add_argument("--kappa", type=float, default=None, help="override kappa")
    solve.add_argument("--max-iters", type=int, default=FollowerOptions.max_iters)
    solve.add_argument("--trace", metavar="PATH", default=None,
                       help="write per-iterate CSV trace to PATH")
    solve.add_argument("--strict", action="store_true",
                       help="attempt exact certificate projections on weak triggers")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        problem, start = _read_problem_file(args.file, {
            key: getattr(args, key) for key in ("xi", "kappa") if getattr(args, key) is not None})
        status_engine.require_eps(args.eps)
        require_max_iters(args.max_iters)
        if args.trace is not None:
            # append mode: an existing file stays as it is until the solve writes it
            try:
                with open(args.trace, "a", encoding="utf-8"):
                    pass
            except OSError as exc:
                raise ParseError(f"--trace path is not writable: {exc}") from exc
    except (SolverError, ValueError) as exc:
        print(json.dumps({"status": "InputError", "exit_code": INPUT_ERROR_EXIT,
                          "error": str(exc)}, indent=2))
        return INPUT_ERROR_EXIT
    report = run_solve(problem, start, args.eps, strict=args.strict,
                       max_iters=args.max_iters, trace_path=args.trace)
    print(report.to_json())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())

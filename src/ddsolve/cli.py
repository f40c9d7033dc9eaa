"""Command line front end: problem files in, status reports out.

Problem files are JSON documents::

    {
      "n": 1, "m": 1,
      "A": [[1.0]],              row-major dense
      "c": [1.0],
      "atoms": [ {"type": "box", "coords": [1], "bounds": [0.0, 1.0]} ],
      "z0": [0.5],               optional starting interior point
      "xi": 2.0, "kappa": 0.25   optional solver constants
    }

Atom entries use 1-based coordinates: exactly one for a halfline or a
box, at least two for a soc.  ``bounds`` is a number for the halfline
types, a [lower, upper] pair for boxes and absent for a soc; ``offset`` is
optional, a number for a one-coordinate atom and a vector of one entry per
coordinate for a soc.  Every numeric entry must be a JSON number: a
numeric string such as "1.0" or a boolean is an input error, and so is a
non-finite bound or offset.  So is a key not listed here, in the file or
in an atom entry: a misspelt optional key would silently solve another
problem.

Exit codes: 0 eps-solution, 1 infeasible, 2 unbounded, 3 ill-conditioned
(mu cap), 4 input error, 5 numerical failure or iteration limit.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import barriers, status as status_engine
from .errors import ParseError, SolverError, ValidationError
from .model import Problem, StartData, make_start, validate_problem
from .path import FollowerOptions, FollowResult, follow

INPUT_ERROR_EXIT = 4
FILE_KEYS = frozenset({"n", "m", "A", "c", "atoms", "z0", "xi", "kappa"})
ATOM_KEYS = frozenset({"type", "coords", "bounds", "offset"})


def _is_integral(v) -> bool:
    return not isinstance(v, bool) and (
        isinstance(v, int) or (isinstance(v, float) and v.is_integer()))


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _unknown_keys_error(entry: dict, known: frozenset, prefix: str = "") -> ParseError:
    unknown = sorted(entry.keys() - known)
    return ParseError(f"unknown keys {unknown}", field=prefix + unknown[0])


def _number(doc, key, default) -> float:
    """Optional numeric entry: a JSON number or absent."""
    value = doc.get(key, default)
    if not _is_number(value):
        raise ParseError(f"{key} must be a number, got {value!r}", field=key)
    return float(value)


def _atom_numbers(entry, index, key, count, default=None) -> list:
    """Entry ``key`` of atom ``index`` as ``count`` JSON numbers: absent
    when ``count`` is 0, one number when 1, a list of ``count`` numbers
    otherwise.  An absent entry reads as ``default``."""
    value = entry.get(key, default)
    if count == 1 and _is_number(value):
        return [value]
    if (count > 1 and isinstance(value, list) and len(value) == count
            and all(map(_is_number, value))):
        return value
    if count == 0 and key not in entry:
        return []
    shape = {0: "absent", 1: "a number"}.get(count, f"a list of {count} numbers")
    raise ParseError(f"atom {index} {key} must be {shape}, got {value!r}",
                     field=f"atoms[{index}].{key}")


def _parse_atom(entry, index):
    if not isinstance(entry, dict):
        raise ParseError(f"atom {index} must be an object", field=f"atoms[{index}]")
    if not entry.keys() <= ATOM_KEYS:
        raise _unknown_keys_error(entry, ATOM_KEYS, f"atoms[{index}].")
    kind = entry.get("type")
    coords = entry.get("coords")
    if kind not in barriers.ATOM_THETA:
        raise ParseError(f"atom {index} has unknown type {kind!r}", field=f"atoms[{index}].type")
    if not isinstance(coords, list) or not coords:
        raise ParseError(f"atom {index} needs a coords list", field=f"atoms[{index}].coords")
    if not all(map(_is_integral, coords)):
        raise ParseError(f"atom {index} coords must be integers, got {coords}",
                         field=f"atoms[{index}].coords")
    k = len(coords)
    if (k == 1) == (kind == barriers.SOC):
        takes = "at least two coordinates" if kind == barriers.SOC else "exactly one coordinate"
        raise ParseError(f"atom {index}: a {kind} atom takes {takes}",
                         field=f"atoms[{index}].coords")
    zero_based = [int(i) - 1 for i in coords]
    if any(i < 0 for i in zero_based):
        raise ParseError(f"atom {index} coords are 1-based", field=f"atoms[{index}].coords")
    takes_lower, takes_upper = barriers.ATOM_BOUNDS[kind]
    bounds = _atom_numbers(entry, index, "bounds", takes_lower + takes_upper)
    offset = _atom_numbers(entry, index, "offset", k, 0.0 if k == 1 else [0.0] * k)
    try:
        return barriers.BarrierAtom(kind, zero_based, offset,
                                    lower=float(bounds[0]) if takes_lower else None,
                                    upper=float(bounds[-1]) if takes_upper else None)
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"atom {index}: {exc}", field=f"atoms[{index}]") from exc


def parse_problem_file(path) -> tuple[Problem, StartData]:
    """Parse and validate a problem file; synthesize the default starting
    point when the file does not carry one."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from exc
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
    try:
        A = np.asarray(doc["A"])
        c = np.asarray(doc["c"])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad numeric data: {exc}") from exc
    for key, data in (("A", A), ("c", c)):
        # inferred, not converted: a numeric string would convert silently
        if data.dtype.kind not in "iuf":
            raise ParseError(f"{key} must hold JSON numbers only", field=key)
    A, c = A.astype(float), c.astype(float)
    if A.shape != (m, n):
        raise ParseError(f"A has shape {A.shape}, expected ({m}, {n})", field="A")
    if c.shape != (n,):
        raise ParseError(f"c has length {c.shape}, expected {n}", field="c")
    if not isinstance(doc["atoms"], list):
        raise ParseError("atoms must be a list of atom objects", field="atoms")
    atoms = [_parse_atom(entry, i) for i, entry in enumerate(doc["atoms"])]
    problem = validate_problem(A, c, atoms, xi=_number(doc, "xi", 2.0),
                               kappa=_number(doc, "kappa", 0.25))
    z0 = doc.get("z0")
    if z0 is not None:
        if not isinstance(z0, list) or not all(_is_number(v) for v in z0):
            raise ParseError("z0 must be a list of numbers", field="z0")
        z0 = np.asarray(z0, dtype=float)
    return problem, make_start(problem, z0)


def _as_floats(vec):
    return None if vec is None else [float(v) for v in vec]


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
        out["y"] = _as_floats(cert.y)
    if cert.x is not None:
        out["x"] = _as_floats(cert.x)
    if cert.tau is not None:
        out["tau"] = float(cert.tau)
    if np.isfinite(cert.eps):
        out["eps"] = float(cert.eps)
    return out


def _attempt_strict(problem, start, result: FollowResult, eps):
    """Upgrade a weak certificate by the local-norm projection detectors."""
    report = result.report
    if report.status == status_engine.INFEASIBILITY_CERTIFICATE:
        project, extra = status_engine.strict_infeasibility_certificate, ()
    elif report.status == status_engine.UNBOUNDEDNESS_CERTIFICATE:
        project, extra = status_engine.strict_unboundedness_certificate, (eps,)
    else:
        return
    try:
        cert = project(problem, start, result.iterates[-1], *extra)
        verification = status_engine.verify_certificate(problem, start, cert)
        if verification.passed:
            report.certificate, report.verification = cert, verification
            note = "succeeded"
        else:
            note = "verification failed: " + ", ".join(verification.failed_names())
    except SolverError as exc:
        note = f"{type(exc).__name__}: {exc}"
    report.diagnostics["strict_projection"] = note


def run_solve(problem: Problem, start: StartData, eps: float, *, strict: bool = False,
              max_iters: int = 500, trace_path=None) -> RunReport:
    """Run the follower and package the outcome.

    With ``strict`` set, weak infeasibility/unboundedness outcomes are
    upgraded to exact certificates via the projection detectors when the
    projections verify.  ``trace_path`` writes one CSV row per accepted
    iterate.
    """
    options = FollowerOptions(eps=eps, max_iters=max_iters)
    result = follow(problem, start, options)
    if strict:
        _attempt_strict(problem, start, result, eps)
    if trace_path is not None:
        write_trace(result.trace, trace_path)
    report = result.report

    def plain(v):
        if isinstance(v, (bool, np.bool_)):
            return bool(v)
        if isinstance(v, (int, np.integer)):
            return int(v)
        if isinstance(v, (float, np.floating)):
            return float(v)
        return v

    diagnostics = {k: plain(v) for k, v in report.diagnostics.items()}
    verification = []
    if report.verification is not None:
        verification = [{"check": c.name, "passed": c.passed, "value": float(c.value)}
                        for c in report.verification.checks]
    return RunReport(
        status=report.status,
        exit_code=report.exit_code,
        certificate=_certificate_dict(report.certificate),
        objective_primal=None if report.objective_primal is None else float(report.objective_primal),
        objective_estimate=None if report.objective_estimate is None else float(report.objective_estimate),
        diagnostics=diagnostics,
        verification=verification,
    )


def write_trace(trace, path):
    """CSV trace, one row per accepted iterate, shortest round-trip floats."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("iter,mu,tau,gap,p_feas,d_feas,proximity\n")
        for row in trace:
            handle.write(",".join([
                str(row.iter), repr(float(row.mu)), repr(float(row.tau)),
                repr(float(row.gap)), repr(float(row.p_feas)),
                repr(float(row.d_feas)), repr(float(row.proximity))]) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ddsolve",
                                     description="Barrier-domain convex solver")
    sub = parser.add_subparsers(dest="command", required=True)
    solve = sub.add_parser("solve", help="solve a problem file")
    solve.add_argument("file", help="problem file (JSON)")
    solve.add_argument("--eps", type=float, default=1e-8, help="accuracy target in (0, 1)")
    solve.add_argument("--xi", type=float, default=None, help="override xi (> 1)")
    solve.add_argument("--kappa", type=float, default=None, help="override kappa")
    solve.add_argument("--max-iters", type=int, default=500)
    solve.add_argument("--trace", metavar="PATH", default=None,
                       help="write per-iterate CSV trace to PATH")
    solve.add_argument("--strict", action="store_true",
                       help="attempt exact certificate projections on weak triggers")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        problem, start = parse_problem_file(args.file)
        if args.xi is not None or args.kappa is not None:
            problem = validate_problem(
                problem.A, problem.c, problem.atoms,
                xi=problem.xi if args.xi is None else args.xi,
                kappa=problem.kappa if args.kappa is None else args.kappa)
            start = make_start(problem, start.z0)
        if not 0.0 < args.eps < 1.0:
            raise ParseError(f"--eps must lie in (0, 1), got {args.eps}")
        if args.max_iters < 0:
            raise ParseError(f"--max-iters must not be negative, got {args.max_iters}")
        if args.trace is not None:
            # append mode: an existing file stays as it is until the solve writes it
            try:
                with open(args.trace, "a", encoding="utf-8"):
                    pass
            except OSError as exc:
                raise ParseError(f"--trace path is not writable: {exc}") from exc
    except (ParseError, ValidationError, SolverError) as exc:
        print(json.dumps({"status": "InputError", "exit_code": INPUT_ERROR_EXIT,
                          "error": str(exc)}, indent=2))
        return INPUT_ERROR_EXIT
    report = run_solve(problem, start, args.eps, strict=args.strict,
                       max_iters=args.max_iters, trace_path=args.trace)
    print(report.to_json())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())

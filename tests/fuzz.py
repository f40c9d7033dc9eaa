"""Seeded fuzz of ``ddsolve solve``: perturbed copies of one problem file.

    PYTHONPATH=src python tests/fuzz.py --seed 7 --count 4000

Each document is the one-variable second-order-cone file ``BASE`` with one
perturbation, drawn from ``seed``: with probability 0.3 one top-level key
takes a value from ``POOL``; with probability 0.15 the atoms become one
random atom (kind, coordinates, and bounds and offset from the pool plus
a few pairs); with probability 0.15 they become the three halflines
``HALFLINES`` on coordinates 1-3, one of them, at a random index,
replaced by such a random atom, so that a bad entry can follow good
ones; otherwise A's and c's entries are drawn from small sets that
include 1e-300 and 1e300, with an optional anchor, xi and kappa.

Each document runs through ``ddsolve solve`` with ``ARGS``
(``--eps 1e-4 --max-iters 60 --strict``), and every run must exit 0-5
without raising, print one JSON report and raise no warning.
Printed: one line per document that failed, with its index, what went
wrong and the document, then how many of the documents failed.  The
script exits 1 when any document failed and 0 otherwise, as
``tests/digest.py --parent`` does when a line differs.
``tests/test_cli.py`` runs the first 300 documents of seed 7.
"""

import argparse
import contextlib
import io
import json
import math
import random
import sys
import tempfile
import warnings
from pathlib import Path

from ddsolve import cli

BASE = {"n": 1, "m": 3, "A": [[1.0], [0.5], [0.0]], "c": [1.0],
        "atoms": [{"type": "soc", "coords": [1, 2, 3]}]}
KEYS = ["n", "m", "A", "c", "atoms", "z0", "xi", "kappa"]
POOL = [0, 1, -1, 1.5, -0.0, 1e308, -1e308, 1e-320, 10**400, "1", None, True,
        [], [1], [1, 2], [[1]], {}, math.nan, math.inf, -math.inf]
PAIRS = [[0.0, 1.0], [1.0, 0.0], [-1.0, 1e308], [0.0, 1e-320], [1.0, 2.0, 3.0]]
KINDS = ["halfline_lower", "halfline_upper", "box", "soc"]
COORDS = [[1], [1, 2, 3], [3], [2, 3], [1, 1, 2]]
HALFLINES = [{"type": "halfline_lower", "coords": [i], "bounds": 0.0} for i in (1, 2, 3)]
A_ENTRIES = [0.0, 1.0, -1.0, 3.0, 1e-300, 1e300]
C_ENTRIES = [1.0, -1.0, 0.0, 1e300]
ANCHORS = [[2.0, 0.0, 0.0], [1.0, 0.5, -0.5], [1e300, 0.0, 0.0], [1e-300, 0.0, 0.0]]
ARGS = ["--eps", "1e-4", "--max-iters", "60", "--strict"]


def _random_atom(rng: random.Random) -> dict:
    """An atom entry of a random kind and coordinates, with bounds and an
    offset each drawn from the pool plus the pairs half the time."""
    atom = {"type": rng.choice(KINDS), "coords": rng.choice(COORDS)}
    for key in ("bounds", "offset"):
        if rng.random() < 0.5:
            atom[key] = rng.choice(POOL + PAIRS)
    return atom


def documents(seed: int, count: int):
    """The first ``count`` perturbed copies of ``BASE`` drawn from ``seed``."""
    rng = random.Random(seed)
    for _ in range(count):
        doc = dict(BASE)  # each perturbation replaces a top-level value
        draw = rng.random()
        if draw < 0.3:
            doc[rng.choice(KEYS)] = rng.choice(POOL)
        elif draw < 0.45:
            doc["atoms"] = [_random_atom(rng)]
        elif draw < 0.6:
            atoms = list(HALFLINES)
            atoms[rng.randrange(len(atoms))] = _random_atom(rng)
            doc["atoms"] = atoms
        else:
            doc["A"] = [[rng.choice(A_ENTRIES)] for _ in range(3)]
            doc["c"] = [rng.choice(C_ENTRIES)]
            for key, values in (("z0", ANCHORS), ("xi", [1.5, 2.0, 3.0]),
                                ("kappa", [0.0, 0.25, 0.5])):
                if rng.random() < 0.3:
                    doc[key] = rng.choice(values)
        yield doc


def run_failure(doc, directory) -> str | None:
    """What went wrong when ``ddsolve solve`` ran ``doc``, written into
    ``directory``, with ``ARGS``: a warning, an exception, an exit code
    outside 0-5 or an output that is not one JSON report; None if nothing."""
    path = Path(directory) / "fuzz.dd"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(["solve", str(path), *ARGS])
        except Exception as exc:  # the fuzz records any escape and goes on
            return f"raised {type(exc).__name__}: {exc}"
    if caught:
        return f"warned {caught[0].category.__name__}: {caught[0].message}"
    if code not in range(6):
        return f"exit code {code}"
    try:
        report = json.loads(out.getvalue())
    except json.JSONDecodeError as exc:
        return f"output is not one JSON report: {exc}"
    return None if isinstance(report, dict) and "status" in report else "report has no status"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--count", type=int, default=4000)
    args = parser.parse_args(argv)
    if args.count < 1:
        raise SystemExit("--count must be at least 1")
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for k, doc in enumerate(documents(args.seed, args.count)):
            failure = run_failure(doc, tmp)
            if failure is not None:
                failed += 1
                print(f"{k}: {failure}: {json.dumps(doc)}")
    print(f"{failed} of {args.count} documents warned, raised or misreported")
    return int(bool(failed))


if __name__ == "__main__":
    sys.exit(main())

"""The strict taxonomy beyond toy sizes: strictly infeasible and strictly
unbounded instances at n = 20 / m = 100 and n = 100 / m = 500 end with the
right certificate, and the ``--strict`` upgrade succeeds and verifies.

The instances come from the benchmark's seeded builders
(``bench/families.py``), each built backwards from a witness that the
builder re-checks, so the expected status is known before the solve.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import ddsolve as dd
from ddsolve import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import families  # noqa: E402

# (n, n_scalar, soc_dims, seeds): 60 scalar atoms and 4 SOC(10), m = 100;
# 300 scalar atoms and 4 SOC(50), m = 500
SIZES = {
    "m100": (20, 60, (10,) * 4, (1000, 1001, 1002)),
    "m500": (100, 300, (50,) * 4, (1000,)),
}
CASES = [(size, seed, kind) for size, (*_, seeds) in SIZES.items() for seed in seeds
         for kind in (families.INFEASIBLE, families.UNBOUNDED)]
BUILDERS = {families.INFEASIBLE: families.infeasible, families.UNBOUNDED: families.unbounded}
DUAL_EQUALITY = "dual equality residual above tolerance at mu="


def build(size, seed, kind):
    """The ``families`` instance of that size, seed and kind."""
    n, n_scalar, soc_dims, _ = SIZES[size]
    return BUILDERS[kind](np.random.default_rng(seed), f"{kind}-{size}-{seed}", n, n_scalar,
                          soc_dims)


def certificate(report) -> dd.Certificate:
    """The certificate of a ``run_solve`` report, read back from its dict."""
    cert = report.certificate
    vector = lambda key: None if key not in cert else np.asarray(cert[key])
    return dd.Certificate(kind=cert["kind"], strict=cert["strict"],
                          eps=cert.get("eps", np.nan), y=vector("y"), x=vector("x"))


@pytest.mark.parametrize("eps", [1e-6, 1e-8])
@pytest.mark.parametrize("size,seed,kind", CASES, ids=[f"{k}-{s}-{d}" for s, d, k in CASES])
def test_strict_certificate_at_medium_size(size, seed, kind, eps, monkeypatch):
    inst = build(size, seed, kind)
    problem = dd.validate_problem(inst.A, inst.c, inst.atoms)
    start = dd.make_start(problem)
    runs = []

    def follow(*args):
        # kept for the run's invariant messages, which the CLI report counts
        runs.append(dd.follow(*args))
        return runs[-1]
    monkeypatch.setattr(cli, "follow", follow)

    report = cli.run_solve(problem, start, eps, strict=True)

    assert report.status == inst.expected, report.diagnostics
    assert report.diagnostics["strict_projection"] == "succeeded"
    assert report.certificate["strict"] is True
    verification = dd.verify_certificate(problem, start, certificate(report))
    assert verification.passed, verification.failed_names()
    violations = runs[0].invariant_violations
    assert report.diagnostics["invariant_violations"] == len(violations)
    assert all(v.startswith(DUAL_EQUALITY) for v in violations), violations

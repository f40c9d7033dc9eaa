"""A pytest plugin that puts rounding noise into every KKT solution.

Loaded only by ``tests/noise.py`` (``-p noise_plugin`` with ``tests/`` on
the path); it is not a conftest, so a plain ``pytest`` never sees it.

``--noise-seed S`` wraps ``ddsolve.path._kkt_solve`` so that each solution
``(dx, dtau, dy)`` is scaled by ``1 + k * 2**-52``, with k in [-1, 1]
taken from a sha256 of the solution's bytes and S.  The noise is as large
as one rounding of the solve, deterministic per input and free of any
algorithmic content.  ``--noise-out FILE`` writes to FILE, as JSON, the
number of tests run, the node ids of the failed ones and the seed's
counts (:func:`seed_counts`), which the session computes under the same
noise once its tests have run.  The counts solve only the runs they
count: the 21 runs of ``digest.counted_runs``, each once, whose results
``digest.counts_line`` formats, and the two fixture runs.  A
RuntimeWarning there is shown, not raised; counts that raise leave FILE
without them (pytest exits 3).
"""

import hashlib
import json
import warnings
from pathlib import Path

import numpy as np

import ddsolve.path


def noise_factor(dx, dtau, dy, seed: int) -> float:
    """1 + k * 2**-52, k in [-1, 1] from a sha256 of the solution and ``seed``.
    The sum rounds to exactly 1 for k in [-0.25, 0.5], so about four
    solutions in ten keep their bits."""
    h = hashlib.sha256()
    for part in (dx, np.float64(dtau), dy):
        h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
    h.update(str(seed).encode())
    k = 2.0 * int.from_bytes(h.digest()[:8], "little") / 2.0**64 - 1.0
    return 1.0 + k * 2.0**-52


def perturbed(solve, seed: int):
    """``solve`` with each of its solutions scaled by :func:`noise_factor`."""
    def noisy(*args, **kwargs):
        dx, dtau, dy = solve(*args, **kwargs)
        f = noise_factor(dx, dtau, dy, seed)
        return dx * f, dtau * f, dy * f
    return noisy


def seed_counts() -> tuple:
    """(digest counts line, false passes, iterates) of the digest's
    counted runs under this process's noise, each solved once, then
    (float mu-forms failures, exact ones, iterates) of the ``box_run`` and
    ``soc_run`` runs.  The noise is the one ``pytest_configure`` put in;
    putting it in again would perturb every KKT solution twice."""
    # imported at session end, so that pytest has imported them its own way
    import conftest
    import digest
    import oracles
    from test_model import mu_forms
    results, found, forms = [], [0, 0], [0, 0, 0]
    for _, problem, start, _, result in digest.counted_runs():
        results.append(result)
        found[0] += oracles.false_passes(problem, start, result.iterates)
        found[1] += len(result.iterates)
    for build, eps in (conftest.BOX_RUN, conftest.SOC_RUN):
        problem, start = pair = conftest.started(build)
        for it in conftest.follow_at(pair, eps).iterates:
            args = problem, start, it.x, it.tau, it.y
            forms[0] += not oracles.mu_forms_agree(*mu_forms(*args))
            forms[1] += not oracles.mu_forms_agree(*oracles.exact_mu_forms(*args))
            forms[2] += 1
    return (digest.counts_line(results), *found, *forms)


def pytest_addoption(parser):
    parser.addoption("--noise-seed", type=int, required=True,
                     help="seed of the rounding noise put into each KKT solution")
    parser.addoption("--noise-out", required=True,
                     help="JSON file for the test count, the failed node ids and the "
                          "seed's counts")


class Outcomes:
    """The node ids run and failed, written with the seed's counts to
    ``path`` when the session ends."""

    def __init__(self, path):
        self.path, self.tests, self.failed = Path(path), set(), []

    def pytest_collectreport(self, report):
        if report.failed:
            self.failed.append(report.nodeid)

    def pytest_runtest_logreport(self, report):
        # once per phase: a test that fails its set-up, call or teardown
        # is listed once
        self.tests.add(report.nodeid)
        if report.failed and report.nodeid not in self.failed:
            self.failed.append(report.nodeid)

    def pytest_sessionfinish(self):
        # the outcomes are written first, so that counts that raise keep them
        outcomes = {"tests": len(self.tests), "failed": self.failed}
        self.path.write_text(json.dumps(outcomes))
        with warnings.catch_warnings():
            # pytest runs this hook under the suite's error::RuntimeWarning;
            # a warning the noise causes in a counted run is shown instead
            warnings.simplefilter("default", RuntimeWarning)
            outcomes["counts"] = seed_counts()
        self.path.write_text(json.dumps(outcomes))


def pytest_configure(config):
    # before collection, so that a test module importing _kkt_solve by
    # name gets the perturbed one too
    ddsolve.path._kkt_solve = perturbed(ddsolve.path._kkt_solve, config.getoption("noise_seed"))
    config.pluginmanager.register(Outcomes(config.getoption("noise_out")))

"""A pytest plugin that puts rounding noise into every KKT solution.

Loaded only by ``tests/noise.py`` (``-p noise_plugin`` with ``tests/`` on
the path); it is not a conftest, so a plain ``pytest`` never sees it.

``--noise-seed S`` wraps ``ddsolve.path._kkt_solve`` so that each solution
``(dx, dtau, dy)`` is scaled by ``1 + k * 2**-52``, with k in [-1, 1]
taken from a sha256 of the solution's bytes and S.  The noise is as large
as one rounding of the solve, deterministic per input and free of any
algorithmic content.  ``--noise-out FILE`` writes the number of tests run
and the node ids of the failed ones to FILE as JSON.
"""

import hashlib
import json
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


def install(seed: int) -> None:
    """Perturb every later KKT solve of this process."""
    ddsolve.path._kkt_solve = perturbed(ddsolve.path._kkt_solve, seed)


def pytest_addoption(parser):
    parser.addoption("--noise-seed", type=int, required=True,
                     help="seed of the rounding noise put into each KKT solution")
    parser.addoption("--noise-out", required=True,
                     help="JSON file for the test count and the failed node ids")


class Outcomes:
    """The node ids run and failed, written to ``path`` when the session ends."""

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
        self.path.write_text(json.dumps({"tests": len(self.tests), "failed": self.failed}))


def pytest_configure(config):
    # before collection, so that a test module importing _kkt_solve by
    # name gets the perturbed one too
    install(config.getoption("noise_seed"))
    config.pluginmanager.register(Outcomes(config.getoption("noise_out")))

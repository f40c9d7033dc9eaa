"""The bit-for-bit digest script runs end to end."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import digest

ROOT = Path(__file__).resolve().parents[1]
RUN = re.compile(r"\S+@\S+ \w+ iterations=\d+ violations=\d+ [0-9a-f]{64}")
REPORT = re.compile(r"build_\w+@[0-9.e-]+/\d+/(True|False) \w+ exit=\d+ [0-9a-f]{64}")
PARSE = re.compile(r"parse:(fuzz-\d+|many-\d+-(ordered|shuffled)) [0-9a-f]{64}")


@pytest.fixture(scope="module")
def printed():
    """The output lines of ``tests/digest.py --runs`` on this checkout's src."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "tests" / "digest.py"), "--runs"],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    return done.stdout.splitlines()


def test_digest_prints_three_digests_the_counts_and_the_parse_digest(printed):
    # the format only: a change of rounding may move the values
    lines = printed[-5:]
    assert [line.split(" ", 1)[0] for line in lines] == [
        "cli", "iterates", "reports", "counts", "parse"]
    for line in lines[:3] + lines[4:]:
        assert re.fullmatch(r"\w+ [0-9a-f]{64}", line), line
    assert re.fullmatch(r"counts \w+:\d+(,\w+:\d+)* iterations=\d+ violations=\d+", lines[3]), \
        lines[3]


def test_runs_prints_a_line_per_run_and_document_then_the_five_lines(printed):
    lines = printed
    # the follow runs, then one line per short run_solve report, then one
    # per parsed document
    n_runs = len(list(digest._runs())) + len(digest.CONE_SEEDS)
    n_reports = 5 * len(digest.SMALL_EPS) * len(digest.SMALL_MAX_ITERS) * 2
    runs, reports = lines[:n_runs], lines[n_runs:n_runs + n_reports]
    parsed = lines[n_runs + n_reports:-5]
    for line in runs:
        assert RUN.fullmatch(line), line
    for line in reports:
        assert REPORT.fullmatch(line), line
    assert len(reports) == 120
    for line in parsed:
        assert PARSE.fullmatch(line), line
    assert len(parsed) == digest.PARSE_COUNT + 2 * len(digest.MANY_ATOM_SEEDS)
    labels = [line.split(" ", 1)[0] for line in lines[:-5]]
    assert len(set(labels)) == len(labels)
    # the short runs reach all six statuses
    assert {line.split(" ")[1] for line in reports} == {
        "EpsSolution", "InfeasibilityCertificate", "UnboundednessCertificate", "IllConditioned",
        "IterationLimit", "NumericalFailure"}
    # the counts line sums the run lines
    iterations = sum(int(re.search(r"iterations=(\d+)", line)[1]) for line in runs)
    violations = sum(int(re.search(r"violations=(\d+)", line)[1]) for line in runs)
    assert lines[-2].endswith(f" iterations={iterations} violations={violations}")


def test_runs_prints_its_lines_then_the_five_lines_of_a_plain_run(monkeypatch, capsys):
    monkeypatch.setattr(digest, "cli_digest", lambda: "c")
    monkeypatch.setattr(digest, "solve_digests", lambda: ("i", "r", "n", ["run", "report"]))
    monkeypatch.setattr(digest, "parse_digest", lambda: ("p", ["document"]))
    digest.main([])
    five = ["cli c", "iterates i", "reports r", "counts n", "parse p"]
    assert capsys.readouterr().out.splitlines() == five
    digest.main(["--runs"])
    assert capsys.readouterr().out.splitlines() == ["run", "report", "document", *five]


def test_differing_prints_each_side_of_a_changed_or_missing_run():
    change = ["a@1 EpsSolution iterations=3 violations=0 h1",
              "b@1 EpsSolution iterations=3 violations=0 h2",
              "c@1 EpsSolution iterations=3 violations=0 h3"]
    parent = [change[0], "b@1 EpsSolution iterations=4 violations=0 h9",
              "d@1 IterationLimit iterations=9 violations=1 h4"]
    assert digest.differing(change, change) == []
    assert digest.differing(change, parent) == [
        "change: " + change[1], "parent: " + parent[1], "change: " + change[2],
        "parent: " + parent[2]]


def test_parent_without_a_package_is_refused(tmp_path):
    with pytest.raises(SystemExit, match="has no src/ddsolve"):
        digest.main(["--parent", str(tmp_path)])


def test_parent_exits_one_when_it_prints_a_differing_line(tmp_path, monkeypatch, capsys):
    (tmp_path / "src" / "ddsolve").mkdir(parents=True)
    change, moved = "a@1 EpsSolution iterations=3 h1", "a@1 EpsSolution iterations=4 h9"
    for parent, printed in ((change, []), (moved, ["change: " + change, "parent: " + moved])):
        monkeypatch.setattr(digest, "_side_lines",
                            lambda root: [parent if root == tmp_path.resolve() else change])
        assert digest.main(["--parent", str(tmp_path)]) == (1 if printed else 0)
        assert capsys.readouterr().out.splitlines() == printed

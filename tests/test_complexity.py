"""The complexity table script runs end to end."""

import re

import pytest

import complexity

ROW = re.compile(r"(scalar|cones|mixed)-\d+@[0-9.e-]+ +(\w+) +\d+ +\d+ +\d+ (\w+) +(yes|no)"
                 r" +(\d+) +\d+\.\d\d +\d+\.\d\d +\d+\.\d\d +\d+\.\d\d +\d+\.\d\d"
                 r" +(\d+)/(\d+)/(\d+)/(\d+)( +\d+\.\d{3}){4}")


def test_two_smallest_cases_print_rows_and_the_fit(capsys):
    # the format only, on the two smallest all-scalar cases, so the
    # exponent is fitted over two thetas
    assert complexity.main(["--shapes", "scalar-10", "scalar-40", "--eps", "1e-4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == complexity.HEADER
    assert len(lines) == 5
    for line in lines[1:3]:
        row = ROW.fullmatch(line)
        assert row, line
        assert row.group(2, 3, 4) == ("mixed_feasible", "EpsSolution", "yes")
        # each predictor step that returned has one first-trial cap
        assert sum(int(c) for c in row.group(6, 7, 8, 9)) == int(row.group(5))
    assert re.fullmatch(r"exponent of it/dec in theta -?\d+\.\d{3} over 2 all-scalar "
                        r"mixed_feasible rows", lines[3]), lines[3]
    assert re.fullmatch(r"largest iters / \(sqrt\(theta\) ln\(1/eps\)\) \d+\.\d{3} over "
                        r"mixed_feasible rows", lines[4]), lines[4]


@pytest.mark.parametrize("kind,status", [("infeasible", "InfeasibilityCertificate"),
                                         ("unbounded", "UnboundednessCertificate")])
def test_certificate_kinds_end_with_their_certificate(kind, status, capsys):
    assert complexity.main(["--kinds", kind, "--shapes", "scalar-10", "--eps", "1e-4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == complexity.HEADER
    assert len(lines) == 3
    row = ROW.fullmatch(lines[1])
    assert row, lines[1]
    assert row.group(2, 3, 4) == (kind, status, "yes")
    # no exponent is fitted for a family that expects a certificate
    assert re.fullmatch(rf"largest iters / \(sqrt\(theta\) ln\(1/eps\)\) \d+\.\d{{3}} over "
                        rf"{kind} rows", lines[2]), lines[2]

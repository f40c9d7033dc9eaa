"""The complexity table script runs end to end."""

import re

import complexity

ROW = re.compile(r"(scalar|cones)-\d+@[0-9.e-]+ +\d+ +\d+ +\d+ \w+ +\d+ +\d+\.\d\d +\d+\.\d\d"
                 r" +\d+\.\d\d +\d+\.\d\d")


def test_two_smallest_cases_print_rows_and_the_fit(capsys):
    # the format only, on the two smallest all-scalar cases, so the
    # exponent is fitted over two thetas
    assert complexity.main(["--shapes", "scalar-10", "scalar-40", "--eps", "1e-4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == complexity.HEADER
    assert len(lines) == 5
    for line in lines[1:3]:
        assert ROW.fullmatch(line), line
        assert " EpsSolution " in line
    assert re.fullmatch(r"exponent of it/dec in theta -?\d+\.\d{3} over 2 all-scalar rows",
                        lines[3]), lines[3]
    assert re.fullmatch(r"largest iters / \(sqrt\(theta\) ln\(1/eps\)\) \d+\.\d{3}",
                        lines[4]), lines[4]

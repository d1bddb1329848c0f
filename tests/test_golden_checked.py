"""Every exit-0 golden output, judged by the benchmark's independent checker.

test_golden compares the program's output with golden files byte for
byte, and bytes pinned from an earlier program can pin an earlier
mistake.  perfbench/check.py re-derives each output from the paper's
formulas and imports nothing from contextant: a verdict's witness line,
for one, must be a mixture of admissible q-position sign strings whose
exact correlation is g.  So each golden output is also checked for its
meaning here.  The request's values (defaults included) come from the
CLI's own parser, so they are the ones the golden output was printed for.
"""

import sys
from pathlib import Path

import pytest

from contextant.cli import build_parser

from test_golden import CASES, golden

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path[:0] = [str(PERFBENCH)]

import check  # noqa: E402

# no check_* function reads scan's JSON
UNCHECKED = {"scan_qmax300_json"}


def outcome(argv, text):
    """The check_* outcome for argv's output, or None if none covers it."""
    a = build_parser().parse_args(argv)
    if a.command == "verdict":
        if a.theta is None:
            return check.check_verdict(text, a.p, a.q)
        return check.check_theta(text, a.theta, a.q_max, a.tolerance)
    if a.command == "scan":
        return check.check_scan(text, a.q_max) if a.format == "csv" else None
    if a.command == "oracle":
        return check.check_oracle(text, a.p, a.q)
    if a.command == "discontinuity":
        return check.check_discontinuity(text, a.p, a.q, a.epsilon, a.q_max)
    if a.command == "quantum-check":
        return check.check_quantum(text, a.samples, a.seed)
    return None


EXIT_0 = sorted(name for name, (_, code, _) in CASES.items() if code == 0)


@pytest.mark.parametrize("name", EXIT_0)
def test_golden_output_passes_the_independent_checker(name):
    argv, _, stream = CASES[name]
    result = outcome(argv, golden(name, stream).decode("utf-8"))
    if name in UNCHECKED:
        assert result is None
        return
    assert result is not None and result.ok, result
    assert result.unchecked == 0, result

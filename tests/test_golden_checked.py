"""Every exit-0 golden output, judged by the benchmark's independent checker.

test_golden compares the program's output with golden files byte for
byte, and bytes pinned from an earlier program can pin an earlier
mistake.  perfbench/check.py re-derives each output from the paper's
formulas and imports nothing from contextant: a verdict's witness line,
for one, must be a mixture of admissible q-position sign strings whose
exact correlation is g.  So each golden output is also checked for its
meaning here.  The request's values (defaults included) come from the
CLI's own parser, so they are the ones the golden output was printed for.
scan's JSON is judged as the CSV table rebuilt from it, and each ks-color
golden with the Peres rays it was printed for.
"""

import json
import sys
from pathlib import Path

import pytest

from contextant.cli import build_parser

from test_golden import CASES, KS_CASES, PERES33, golden

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path[:0] = [str(PERFBENCH)]

import check  # noqa: E402

# what check_ks expects of each ks-color golden: Peres' 33 rays are a
# Kochen-Specker set, one ray fewer is colorable, and 10 rays few enough
# to count their colorings
KS_EXPECT = {
    "ks_color_peres33_strict": "unsat",
    "ks_color_peres33_drop_last_strict": "sat",
    "ks_color_peres33_subset10_strict": "count",
    "ks_color_peres33_subset10_relaxed": "count",
}


def csv_of_json(text):
    """scan's JSON rows as CSV text, fields in check.CSV_HEADER order."""
    keys = check.CSV_HEADER.split(",")
    rows = [[str(row[k]) for k in keys] for row in json.loads(text)]
    return "".join(",".join(fields) + "\n" for fields in [keys, *rows])


def outcome(argv, text):
    """The check_* outcome for argv's output, or None if none covers it."""
    a = build_parser().parse_args(argv)
    if a.command == "verdict":
        if a.theta is None:
            return check.check_verdict(text, a.p, a.q)
        return check.check_theta(text, a.theta, a.q_max, a.tolerance)
    if a.command == "scan":
        if a.format == "json":
            text = csv_of_json(text)
        return check.check_scan(text, a.q_max)
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
    assert result is not None and result.ok, result
    assert result.unchecked == 0, result


def test_scan_json_golden_holds_the_csv_golden():
    text = csv_of_json(golden("scan_qmax300_json", "out").decode("utf-8"))
    assert text.encode("utf-8") == golden("scan_qmax300_csv", "out")


@pytest.mark.parametrize("name", sorted(KS_CASES))
def test_ks_color_golden_passes_the_independent_checker(name):
    rows, mode = KS_CASES[name]
    rays = PERES33.read_text(encoding="utf-8").splitlines()
    vectors = [[float(c) for c in rays[i].split()] for i in rows]
    result = check.check_ks(golden(name, "out").decode("utf-8"), vectors, mode,
                            KS_EXPECT[name])
    assert result.ok, result

"""Byte-identity of `oracle` and `discontinuity` output against golden files.

Each file under tests/data/ holds the output that the brute-force searches
(2^q mask enumeration, full linear neighbour scan) printed for the argv
below; the exact searches that replaced them must print the same bytes.
Outputs too large to keep as text (a witness line is q characters long)
are stored gzip-compressed.
"""

import gzip
import math
from pathlib import Path

import pytest

from contextant.cli import main

DATA = Path(__file__).parent / "data"

# q -> largest p with p/q reduced and in [1/4, 1/2]
ORACLE_P = {13: 6, 14: 5, 15: 7, 16: 7, 17: 8, 18: 7, 19: 9, 20: 9,
            21: 10, 22: 9, 23: 11, 24: 11}

# name -> (argv, exit code, stream compared with the golden file)
CASES = {
    **{f"oracle_{p}_{q}": (["oracle", "--p", str(p), "--q", str(q)], 0, "out")
       for q, p in ORACLE_P.items()},
    "discontinuity_2_5_eps1e-6": (
        ["discontinuity", "--p", "2", "--q", "5", "--epsilon", "1e-6",
         "--q-max", "10000000"], 0, "out"),
    "discontinuity_3_7_eps2pi1e-4": (
        ["discontinuity", "--p", "3", "--q", "7",
         "--epsilon", str(1e-4 * 2 * math.pi), "--q-max", "100000"], 0, "out"),
    "discontinuity_2_5_eps2pi0.2": (
        ["discontinuity", "--p", "2", "--q", "5",
         "--epsilon", str(0.2 * 2 * math.pi)], 0, "out"),
    "discontinuity_2_5_qmax10_exit3": (
        ["discontinuity", "--p", "2", "--q", "5", "--epsilon", "6.28e-6",
         "--q-max", "10"], 3, "err"),
    "discontinuity_2_5_qmax100000_exit3": (
        ["discontinuity", "--p", "2", "--q", "5", "--epsilon", "1e-6",
         "--q-max", "100000"], 3, "err"),
}


def golden(name: str, stream: str) -> bytes:
    path = DATA / f"{name}.{stream}"
    if path.exists():
        return path.read_bytes()
    return gzip.decompress((DATA / f"{name}.{stream}.gz").read_bytes())


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_file(name, capsys):
    argv, code, stream = CASES[name]
    assert main(argv) == code
    captured = capsys.readouterr()
    text = captured.out if stream == "out" else captured.err
    assert text.encode("utf-8") == golden(name, stream)

"""Byte-identity of CLI output against golden files.

Each file under tests/data/ holds the output that an earlier
implementation printed for the argv below, and the current code must
print the same bytes:

- `oracle` and `discontinuity` as printed by the brute-force searches
  (2^q mask enumeration, full linear neighbour scan), except the
  neighbour line of `discontinuity_2_5_eps1e-6`, which prints the exact
  distance 1/6283190;
- `scan` (CSV and JSON) and `verdict`, including the witness line, as
  printed when cycle assignments were stored as length-q sign tuples;
- `verdict --theta`, as printed while the verdict record still carried
  float copies of the classical minimum, and (at q_max 10^6, about 15,000
  approximants) while every approximant still built its witness;
- `scan --q-max 2000` CSV, as printed while every row still built its
  witness; 28 MB, so only its sha256 is kept;
- `scan --q-max 2000 --format json`, as printed while each element was
  the indented `json.dumps` of the row; 69 MB, so only its sha256 is
  kept;
- `ks-color` on Peres' 33 rays (`data/peres33.txt`, the unit vectors of
  Peres, J. Phys. A 24, L175, 1991, in perfbench's order) and on subsets of
  them, as printed by the recursive backtracking search;
- `quantum-check`, as printed while the fixed state was rebuilt for every
  sample, and for seeds 0-9 at 200 samples, kept only by sha256.  Seed 42
  alone misses changes in the last bits of the directions: normalising
  them with `math.hypot` leaves it unchanged but moves 9 of the 10
  digests.

Outputs too large to keep as text (a witness line is q characters long)
are stored gzip-compressed.
"""

import gzip
import hashlib
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
    "oracle_49999_99999": (["oracle", "--p", "49999", "--q", "99999"], 0, "out"),
    "scan_qmax300_csv": (["scan", "--q-max", "300"], 0, "out"),
    "scan_qmax300_json": (["scan", "--q-max", "300", "--format", "json"], 0, "out"),
    **{f"verdict_{p}_{q}": (["verdict", "--p", str(p), "--q", str(q)], 0, "out")
       for p, q in ((1, 2), (1, 3), (1, 4), (2, 5), (50000, 199999))},
    # delta/2pi near 1/3 (the exact tie) and near 2/5 (Nonclassical)
    **{f"verdict_theta{t}_qmax{m}": (
        ["verdict", "--theta", t, "--q-max", m], 0, "out")
       for t, m in (("0.9", "100"), ("0.9553166181245094", "1000"),
                    ("0.8382831191721175", "1000"),
                    ("0.9553071274786897", "1000000"))},
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
    "quantum_check_200_42": (
        ["quantum-check", "--samples", "200", "--seed", "42"], 0, "out"),
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


def test_scan_qmax2000_csv_matches_digest(capsys):
    assert main(["scan", "--q-max", "2000"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert (out.count(b"\n"), len(out)) == (304_142, 27_948_636)
    assert hashlib.sha256(out).hexdigest() == (
        "7658c077a57ef41d4cc3f3e8aa1f9a4309a94b687cffaa59b90a9ff5e94d0b67")


def test_scan_qmax2000_json_matches_digest(capsys):
    assert main(["scan", "--q-max", "2000", "--format", "json"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert (out.count(b"\n"), len(out)) == (3_041_412, 69_007_623)
    assert hashlib.sha256(out).hexdigest() == (
        "cd4731ede5810603c37f2e4397cf7b7ef6420a08e005a8010c64fcf1a9339849")


# Peres' 33 rays, strict: UNSAT; without the last ray: SAT; a 10-ray subset
# holding two triples, (0, 3, 16) and (0, 9, 31), few enough to count.
PERES33 = DATA / "peres33.txt"
SUBSET10 = (0, 1, 2, 3, 5, 8, 9, 10, 16, 31)
KS_CASES = {
    "ks_color_peres33_strict": (range(33), "strict"),
    "ks_color_peres33_drop_last_strict": (range(32), "strict"),
    "ks_color_peres33_subset10_strict": (SUBSET10, "strict"),
    "ks_color_peres33_subset10_relaxed": (SUBSET10, "relaxed"),
}


@pytest.mark.parametrize("name", sorted(KS_CASES))
def test_ks_color_matches_golden_file(name, tmp_path, capsys):
    rows, mode = KS_CASES[name]
    rays = PERES33.read_text(encoding="utf-8").splitlines()
    path = tmp_path / "rays.txt"
    path.write_text("".join(rays[i] + "\n" for i in rows), encoding="utf-8")
    assert main(["ks-color", str(path), "--mode", mode]) == 0
    assert capsys.readouterr().out.encode("utf-8") == golden(name, "out")


# seed -> sha256 of `quantum-check --samples 200 --seed <seed>` stdout
QUANTUM_CHECK_200_SHA256 = {
    0: "8214bb87c427d6a1a2c5add80a97ed8d287e5f857d22d1a75dd16806124c41ec",
    1: "21dff40c655fb1b890d08aac8d595b46343042f735aa9c6255635357cc232eb5",
    2: "167af4e5809f314b97ce3ae2fce342343e65ce722bfe6fba30717be11c69ec4f",
    3: "d4b723d5c61e3d5ef8b730355fbcd412aabf4d0b3d5be7ead09e9a913a370b64",
    4: "b2d078bd312fe7a941707c9a93849fcb80b072d7f92ab4d1f94f8451ab19a2d6",
    5: "d6b46106a993e4b2c04e0da739c6c46ff91fc4e9e9720fe111c003d1468fe23f",
    6: "711952ccf42d967ad226912225a02830e60456ff0daf17f6d323c47f0e3520b4",
    7: "412bab0c7193e073bfa4e457980c4c6ea307e6d6bf2c778bfcb5a13025dd46d5",
    8: "4ec24bf27f5c56fd6e022cfab36d83412b0cee2445c90fae376d613c507637ec",
    9: "561f45c6e1b6041406b8ea28768f84c1abc070af679f57e486ba353a7302d1d2",
}


@pytest.mark.parametrize("seed", sorted(QUANTUM_CHECK_200_SHA256))
def test_quantum_check_matches_digest(seed, capsys):
    assert main(["quantum-check", "--samples", "200", "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        QUANTUM_CHECK_200_SHA256[seed]), out

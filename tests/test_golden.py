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
- `verdict --p 2500001 --q 10000000`, a witness at q = WITNESS_Q_MAX, as
  printed while the witness was a mixture of two q-bit masks; 20 MB, so
  only its sha256 is kept;
- `scan --q-max 2000 --format json`, as printed while each element was
  the indented `json.dumps` of the row; 69 MB, so only its sha256 is
  kept;
- `ks-color` on Peres' 33 rays (`data/peres33.txt`, the unit vectors of
  Peres, J. Phys. A 24, L175, 1991, in perfbench's order) and on subsets of
  them, as printed by the recursive backtracking search, and reproduced
  by the depth-first search with unit propagation that replaced it;
- `quantum-check`, as printed by the Cartesian-basis algebra on real
  reflections with samples from `random.Random` (the same bytes under
  Python 3.10, 3.11 and 3.12), and for seeds 0-9 at 200 samples, kept
  only by sha256.  Seed 42 alone misses changes in the last bits of the
  directions: in the earlier S_z-basis algebra, normalising them with
  `math.hypot` left it unchanged but moved 9 of the 10 digests; at
  the --samples cap for seed 1; and at 1, 7 and 99 samples, where the
  triple count min(samples, 100) is below 100, all kept only by sha256.

Outputs too large to keep as text (a witness line is q characters long)
are stored gzip-compressed.
"""

import contextlib
import gzip
import hashlib
import math
import tracemalloc
from pathlib import Path

import pytest

from contextant.cli import QUANTUM_SAMPLES_MAX, main

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


# sha256 of `verdict --p 2500001 --q 10000000` stdout: 7 lines, 20,000,234 bytes
WITNESS_LIMIT_SHA256 = (
    "c5e38445218269c6446f876ac953a8c62cb6bebd9d81682e777823649feb43e0")


def test_verdict_at_the_witness_limit_matches_digest(capsys):
    assert main(["verdict", "--p", "2500001", "--q", "10000000"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert (out.count(b"\n"), len(out)) == (7, 20_000_234)
    assert hashlib.sha256(out).hexdigest() == WITNESS_LIMIT_SHA256


class HashingSink:
    """A stdout that keeps no text, only the sha256, the byte count and
    the newline count of what is written to it."""

    def __init__(self):
        self.sha256 = hashlib.sha256()
        self.size = self.lines = 0

    def write(self, text):
        data = text.encode("utf-8")
        self.sha256.update(data)
        self.size += len(data)
        self.lines += data.count(b"\n")
        return len(text)

    def flush(self):
        pass


def test_verdict_at_the_witness_limit_streams_in_constant_memory():
    # the witness is written piece by piece: no q-character pattern is
    # built, so the traced peak is a few pieces, not the 20 MB of output
    sink = HashingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(["verdict", "--p", "2500001", "--q", "10000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert (sink.lines, sink.size) == (7, 20_000_234)
    assert sink.sha256.hexdigest() == WITNESS_LIMIT_SHA256
    assert peak < 2 * 2**20, peak


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
    0: "6de2329a0fe39e9fcb3ea1c873bb525042d1b451ec7d48ac8e64ca6f9b92f56e",
    1: "37425a26cf1fd277ca67810ca0dba767ea5d16e3f61b53eb6e1b877f326178a8",
    2: "8b0f124220ba6b4f8cd98fb1a7d0b5e14eee17e7054dc30c9f839655ca22672b",
    3: "a10c664f3b336cd7eff2e0ae67a24dc567cf29368fa608269199ebaa4b02a2fa",
    4: "4aae2dae7fa12e9fdf33af07ed7ab24772a1d28272a39abd48daf8a131c2d48f",
    5: "947daab0571fb7324e1819f2c654570cec770abc21a77736ee540273fb6e8a8b",
    6: "ff839b4096c732ce5aea64ba99b7e1d734b84e9eb665e4083f8c933134bff049",
    7: "32f89bded472e411f559f9c7dde69ea71dea51a23162d767adaf7831bbaf91f1",
    8: "0dd9e767a83852d0b1a300804f2b76314e5edf81420a472a8b79229ea7ab4054",
    9: "e7b5f921e430175af0e4a86403ef6322f90e5e11d908ad85b9edc205495a35f2",
}


@pytest.mark.parametrize("seed", sorted(QUANTUM_CHECK_200_SHA256))
def test_quantum_check_matches_digest(seed, capsys):
    assert main(["quantum-check", "--samples", "200", "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        QUANTUM_CHECK_200_SHA256[seed]), out


# (samples, seed) -> sha256 of `quantum-check --samples <samples> --seed <seed>`
# stdout, below 100 samples, where the triple count is the sample count
QUANTUM_CHECK_SHORT_SHA256 = {
    (1, 0): "be7e7b98dfa4efa194c30f3d47d88cad385b885274dbeaa665cc99268b06cb65",
    (7, 3): "861a44861b67603dc51c6ee9d07127b77792901e299adc084615d7c5458ea646",
    (99, 99): "cba8a3f558083c10d562afd5e80e5ebfa8102dc0009967611d5ec25b451b6229",
}


@pytest.mark.parametrize("samples, seed", sorted(QUANTUM_CHECK_SHORT_SHA256))
def test_quantum_check_below_100_samples_matches_digest(samples, seed, capsys):
    assert main(["quantum-check", "--samples", str(samples),
                 "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert f"over {samples} triples" in out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        QUANTUM_CHECK_SHORT_SHA256[samples, seed]), out


# sha256 of `quantum-check --samples 100000 --seed 1` stdout, at the cap: its
# maxima run over 500 times as many residuals as at 200 samples
QUANTUM_CHECK_CAP_SHA256 = (
    "9d19b54b02e6f2335772268424844c733afd1ab4ebf35d4c285604422db77911")


def test_quantum_check_at_the_cap_matches_digest(capsys):
    assert main(["quantum-check", "--samples", str(QUANTUM_SAMPLES_MAX),
                 "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        QUANTUM_CHECK_CAP_SHA256), out

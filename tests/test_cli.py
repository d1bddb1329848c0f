import math
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import contextant.classicality
from contextant import angle_family, cli, spin_algebra
from contextant._kernel import Q_MAX
from contextant.assignment_model import CHUNK, WITNESS_Q_MAX
from contextant.classicality import dot_products
from contextant.cli import QUANTUM_SAMPLES_MAX, SCAN_Q_MAX, THETA_Q_MAX, main
from contextant.spin_algebra import UNIT_TOL, pair_residuals


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "contextant.cli", *args],
        capture_output=True,
        text=True,
    )


def assert_usage_error(r, option):
    assert r.returncode == 2
    assert option in r.stderr and "Traceback" not in r.stderr


# a vector file's components: any finite float, subnormals included, with
# zeros, subnormals and values near the largest float drawn more often
component = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308,
                     1.7e308, -1.7976931348623157e308]))


class TestVerdict:
    def test_pentagram(self):
        r = run_cli("verdict", "--p", "2", "--q", "5")
        assert r.returncode == 0
        assert "Nonclassical" in r.stdout
        assert "0.188854382" in r.stdout

    def test_one_third(self):
        r = run_cli("verdict", "--p", "1", "--q", "3")
        assert r.returncode == 0
        assert "Classical" in r.stdout

    def test_theta_boundary(self):
        r = run_cli("verdict", "--theta", "1.0472")
        assert r.returncode == 0
        assert "Classical" in r.stdout
        assert "approximants" in r.stdout

    def test_conflicting_args(self):
        r = run_cli("verdict", "--p", "2", "--q", "5", "--theta", "1.0")
        assert r.returncode == 2

    def test_missing_args(self):
        r = run_cli("verdict")
        assert r.returncode == 2

    def test_theta_out_of_range_rejected(self):
        assert_usage_error(run_cli("verdict", "--theta", "0.5"), "--theta")

    @pytest.mark.parametrize("theta", [
        "0.7853981633974483",  # the float nearest pi/4, 3.06e-17 below it
        "0.785398163397",  # 1/2's printed theta, 4.5e-13 below pi/4
    ])
    def test_tilt_just_below_pi_over_4_is_decided_as_pi_over_4(self, theta, capsys):
        # accepted within angle_family._EPS; no orthogonal pair exists there,
        # so the step is clamped to delta = pi, the member 1/2, as printed
        assert main(["verdict", "--theta", theta]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "  verdict: Classical"
        assert lines[3] == "  theta: 0.785398163397  delta: 3.14159265359  g: -1"
        assert lines[-1] == "  1/2 (distance 0): Classical, margin 0"

    def test_tilt_1e_11_below_pi_over_4_rejected(self):
        assert_usage_error(run_cli("verdict", "--theta", "0.7853981633874483"),
                           "--theta")

    def test_theta_q_max_below_two_rejected(self):
        assert_usage_error(run_cli("verdict", "--theta", "0.9", "--q-max", "1"),
                           "--q-max")

    def test_negative_tolerance_rejected(self):
        assert_usage_error(run_cli("verdict", "--theta", "0.9", "--tolerance", "-1"),
                           "--tolerance")

    def test_theta_q_max_cap(self):
        # delta/2pi within 1e-16 of 1/3: one partial quotient near 10^15
        r = run_cli("verdict", "--theta", "0.9553166181245094",
                    "--q-max", str(THETA_Q_MAX))
        assert r.returncode == 0
        assert "  1/3 (distance 0): Classical" in r.stdout
        assert_usage_error(run_cli("verdict", "--theta", "0.9553166181245094",
                                   "--q-max", str(THETA_Q_MAX + 1)), "--q-max")

    @pytest.mark.parametrize("p, q", [(2, 5), (1, 4), (50000, 199999)])
    def test_writes_the_witness_in_pieces(self, p, q, monkeypatch):
        # the six fixed lines are one write and a small witness line another;
        # a long one is written in pieces of about CHUNK characters
        writes = []

        class Sink:
            def write(self, text):
                writes.append(text)

        monkeypatch.setattr(sys, "stdout", Sink())
        assert main(["verdict", "--p", str(p), "--q", str(q)]) == 0
        assert writes[0].count("\n") == 6 and writes[0].endswith("\n")
        if q < CHUNK // 2:
            assert len(writes) == 2
        else:
            assert len(writes) >= 2 * q // CHUNK
            assert max(map(len, writes)) < CHUNK + 100
        assert "".join(writes).count("\n") == 7

    @pytest.mark.parametrize("command", ["verdict", "discontinuity"])
    def test_classical_member_above_witness_limit(self, command):
        q = WITNESS_Q_MAX + 1
        r = run_cli(command, "--p", str(q // 4 + 1), "--q", str(q),
                    *(["--epsilon", "0.1"] if command == "discontinuity" else []))
        assert r.returncode == 3
        assert "witness limit" in r.stderr and "Traceback" not in r.stderr
        assert r.stdout == ""

    def test_nonclassical_member_above_witness_limit(self):
        q = WITNESS_Q_MAX + 1
        r = run_cli("verdict", "--p", str(q // 2), "--q", str(q))
        assert r.returncode == 0
        assert "verdict: Nonclassical" in r.stdout

    @pytest.mark.parametrize("command", ["verdict", "discontinuity"])
    @pytest.mark.parametrize("p, q", [(2**1023, 2**1024 + 1),
                                      (3 * 10**307, 6 * 10**307 + 1)])
    def test_step_angle_beyond_the_float_range(self, command, p, q, capsys):
        argv = [command, "--p", str(p), "--q", str(q)]
        assert main(argv + (["--epsilon", "0.1"] if command == "discontinuity"
                            else [])) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == f"{command}: step angle 2*pi*p/q does not fit a float\n"


# Members within float resolution of the threshold, with g - m from an
# 80-digit evaluation of g = (1 + 3c)/(1 - c), c = cos(2*pi*p/q), against
# m = -(q - 2)/q.  The verdict is judged on the rounded float g, so today
# each one comes out wrong.
NEAR_THRESHOLD = {
    # g - m = +2.3e-17: Classical, with q above WITNESS_Q_MAX; the float g
    # equals float(m), and on that tie Fraction(g) >= m is false
    "6782978/13568301": (["--p", "6782978", "--q", "13568301"], 3,
                         "verdict: q = 13568301 above the witness limit 10000000\n"),
    # g - m = +1.5e-18: Classical, above WITNESS_Q_MAX
    "999999549842/2000000000001": (
        ["--p", "999999549842", "--q", "2000000000001"], 3,
        "verdict: q = 2000000000001 above the witness limit 10000000\n"),
    # g - m = -1.4e-24: Nonclassical, so it needs no witness
    "9999999954984185/20000000000000001": (
        ["--p", "9999999954984185", "--q", "20000000000000001"], 0,
        "verdict: Nonclassical\np/q: 9999999954984185/20000000000000001\n"),
}


@pytest.mark.xfail(strict=True, reason="the verdict is judged on the rounded "
                   "float g, which cannot resolve these members")
@pytest.mark.parametrize("member", sorted(NEAR_THRESHOLD))
def test_near_threshold_verdict(member, capsys):
    argv, code, text = NEAR_THRESHOLD[member]
    assert main(["verdict", *argv]) == code
    out, err = capsys.readouterr()
    if code:
        assert (out, err) == ("", text)
    else:
        assert out.startswith(text) and "\ncertificate: " in out and err == ""


class TestScan:
    def test_small_scan_rows(self):
        r = run_cli("scan", "--q-max", "5")
        assert r.returncode == 0
        lines = r.stdout.splitlines()
        assert lines[0] == "p,q,delta_over_2pi,theta,g,min_corr,verdict,margin"
        rows = {tuple(l.split(",")[:2]): l.split(",")[6] for l in lines[1:]}
        assert rows[("1", "2")] == "Classical"
        assert rows[("1", "3")] == "Classical"
        assert rows[("1", "4")] == "Classical"
        assert rows[("2", "5")] == "Nonclassical"

    def test_q_max_two(self):
        r = run_cli("scan", "--q-max", "2")
        assert len(r.stdout.splitlines()) == 2

    def test_row_count_matches_counting_oracle(self):
        q_max = 30
        expected = sum(
            1
            for q in range(2, q_max + 1)
            for p in range(1, q + 1)
            if math.gcd(p, q) == 1 and 0.25 <= p / q <= 0.5
        )
        r = run_cli("scan", "--q-max", str(q_max))
        assert len(r.stdout.splitlines()) - 1 == expected

    def test_bad_range(self):
        assert run_cli("scan", "--q-max", "1").returncode == 2

    def test_q_max_cap(self, capsys):
        # the message names the cap as the literal it replaced did
        assert SCAN_Q_MAX == 10_000
        assert main(["scan", "--q-max", str(SCAN_Q_MAX + 1)]) == 2
        assert capsys.readouterr().err.endswith(
            "argument --q-max: must be in [2, 10000], got '10001'\n")

    def test_json_format(self):
        import json

        r = run_cli("scan", "--q-max", "5", "--format", "json")
        rows = json.loads(r.stdout)
        assert rows[0]["p"] == 1 and rows[0]["q"] == 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_streams_one_write_per_denominator(self, fmt, monkeypatch):
        writes = []

        class Sink:
            def write(self, text):
                writes.append(len(text))

        monkeypatch.setattr(sys, "stdout", Sink())
        assert main(["scan", "--q-max", "300", "--format", fmt]) == 0
        denominators = sum(
            any(math.gcd(p, q) == 1 for p in range(-(-q // 4), q // 2 + 1))
            for q in range(2, 301))
        # the header (CSV) or the closing bracket (JSON) is the extra write
        assert len(writes) == denominators + 1
        assert max(writes) < sum(writes) / 50

    def test_csv_and_json_hold_the_same_fields(self, capsys):
        import csv
        import json

        assert main(["scan", "--q-max", "500"]) == 0
        header, *rows = csv.reader(capsys.readouterr().out.splitlines())
        assert main(["scan", "--q-max", "500", "--format", "json"]) == 0
        elements = json.loads(capsys.readouterr().out)
        assert header == cli.CSV_HEADER.split(",")
        assert len(rows) == len(elements)
        for row, element in zip(rows, elements):
            assert list(element) == header
            assert [str(v) for v in element.values()] == row

    def test_deterministic_across_runs(self):
        a = run_cli("scan", "--q-max", "64").stdout
        b = run_cli("scan", "--q-max", "64").stdout
        assert a == b

    def test_even_q_rows_classical_odd_nonclassical_above_threshold(self):
        from test_classicality import condition_p_threshold

        r = run_cli("scan", "--q-max", "40")
        for line in r.stdout.splitlines()[1:]:
            parts = line.split(",")
            p, q, verdict = int(parts[0]), int(parts[1]), parts[6]
            if q % 2 == 0:
                assert verdict == "Classical"
            elif verdict == "Nonclassical":
                assert p > condition_p_threshold((q - 1) // 2)


class TestOracle:
    def test_pentagram(self):
        r = run_cli("oracle", "--p", "2", "--q", "5")
        assert r.returncode == 0
        assert "-3/5" in r.stdout and "agree" in r.stdout

    def test_disagreement_exits_1_with_a_reason(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "min_correlation", lambda c: Fraction(0))
        assert main(["oracle", "--p", "2", "--q", "5"]) == 1
        out, err = capsys.readouterr()
        assert out.endswith("closed form: 0 (DISAGREE)\n")
        assert err and "Traceback" not in err

    def test_resource_guard(self):
        # 40000 is coprime to Q_MAX + 1 = 100001 = 11 * 9091
        r = run_cli("oracle", "--p", "40000", "--q", str(Q_MAX + 1))
        assert r.returncode == 3
        assert "limit" in r.stderr


class TestQuantumCheck:
    def test_pass_and_reproducible(self):
        a = run_cli("quantum-check", "--samples", "200", "--seed", "42")
        b = run_cli("quantum-check", "--samples", "200", "--seed", "42")
        assert a.returncode == 0
        assert "PASS" in a.stdout
        assert a.stdout == b.stdout

    @staticmethod
    def g_residual(monkeypatch, change):
        """Make quantum-check's g residuals change(residual)."""
        def pair(theta, phi):
            norm, g_err = pair_residuals(theta, phi)
            return norm, change(g_err)

        monkeypatch.setattr(cli, "pair_residuals", pair)

    def test_noncommuting_pair_fails_with_exit_1(self, monkeypatch, capsys):
        # pair_residuals takes its step from math.acos: 0.1 rad more makes
        # every pair non-orthogonal, so no pair commutes
        acos = math.acos
        monkeypatch.setattr(spin_algebra.math, "acos", lambda x: acos(x) + 0.1)
        assert main(["quantum-check", "--samples", "20"]) == 1
        out, err = capsys.readouterr()
        assert out.endswith("FAIL\n")
        assert float(out.split("max commutator residual: ")[1].split()[0]) > 0.1
        assert err == "quantum-check: a residual exceeds its tolerance\n"

    def test_failure_exits_1_with_a_reason(self, monkeypatch, capsys):
        self.g_residual(monkeypatch, lambda g_err: g_err + 1e-6)
        assert main(["quantum-check", "--samples", "20"]) == 1
        out, err = capsys.readouterr()
        assert out.endswith("FAIL\n")
        assert err and "Traceback" not in err

    def test_nan_residual_fails_with_exit_1(self, monkeypatch, capsys):
        # max(0.0, nan) is 0.0, so a worst-residual fold alone would pass it
        self.g_residual(monkeypatch, lambda g_err: math.nan)
        assert main(["quantum-check", "--samples", "20"]) == 1
        out, err = capsys.readouterr()
        assert "max g(theta) residual: nan" in out and out.endswith("FAIL\n")
        assert err == "quantum-check: a residual exceeds its tolerance\n"

    def test_bad_samples(self):
        assert run_cli("quantum-check", "--samples", "0").returncode == 2

    def test_samples_cap(self):
        assert QUANTUM_SAMPLES_MAX == 100_000
        assert_usage_error(run_cli("quantum-check", "--samples", "100001"), "--samples")

    def test_negative_seed_rejected(self):
        assert_usage_error(run_cli("quantum-check", "--seed", "-5"), "--seed")


class TestDiscontinuity:
    def test_pentagram_small_epsilon(self):
        eps = 1e-3 * 2 * math.pi
        r = run_cli("discontinuity", "--p", "2", "--q", "5",
                    "--epsilon", str(eps))
        assert r.returncode == 0
        assert "classical neighbor" in r.stdout

    def test_pentagram_coarse_epsilon_finds_half(self):
        eps = 0.2 * 2 * math.pi
        r = run_cli("discontinuity", "--p", "2", "--q", "5",
                    "--epsilon", str(eps))
        assert r.returncode == 0
        assert "classical neighbor: 1/2" in r.stdout

    def test_three_sevenths(self):
        eps = 1e-4 * 2 * math.pi
        r = run_cli("discontinuity", "--p", "3", "--q", "7",
                    "--epsilon", str(eps), "--q-max", "100000")
        assert r.returncode == 0

    def test_prints_the_exact_distance(self, capsys):
        # the float difference of the two fractions loses digits to
        # cancellation
        assert main(["discontinuity", "--p", "49999", "--q", "99999",
                     "--epsilon", "6.283185307179586e-09",
                     "--q-max", "10000000"]) == 0
        dist = abs(Fraction(99979, 199960) - Fraction(49999, 99999))
        assert f"{float(dist):.12g}" == "9.50199540003e-10"
        out = capsys.readouterr().out
        assert ("classical neighbor: 99979/199960 "
                "(distance 9.50199540003e-10 in delta/2pi)\n") in out

    def test_classical_input_rejected(self):
        r = run_cli("discontinuity", "--p", "1", "--q", "3", "--epsilon", "0.1")
        assert r.returncode == 2

    def test_insufficient_q_max(self):
        eps = 1e-6 * 2 * math.pi
        r = run_cli("discontinuity", "--p", "2", "--q", "5",
                    "--epsilon", str(eps), "--q-max", "10")
        assert r.returncode == 3
        assert "closest achieved distance" in r.stderr

    def test_search_ends_at_the_witness_limit(self, monkeypatch, capsys):
        # a neighbour above the limit has no printable witness, so a huge
        # --q-max searches only up to it: 500 steps here, not 10^30
        monkeypatch.setattr(cli, "WITNESS_Q_MAX", 1000)
        assert main(["discontinuity", "--p", "500000000", "--q", "1000000001",
                     "--epsilon", "6.283185307179586e-19",
                     "--q-max", str(10**30)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("discontinuity: no even-denominator fraction within "
                              "1e-19 of 500000000/1000000001 with q' <= 1000; ")

    @pytest.mark.parametrize("epsilon", ["5e-324", "1e-323"])
    def test_epsilon_rounding_to_a_zero_radius_rejected(self, epsilon, capsys):
        # positive, but epsilon / (2 pi) rounds to 0.0
        assert main(["discontinuity", "--p", "2", "--q", "5",
                     "--epsilon", epsilon, "--q-max", "1000"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (
            f"discontinuity: --epsilon {epsilon} rounds to a radius of 0 "
            "in delta/2pi\n")

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_non_finite_epsilon_rejected(self, epsilon):
        assert_usage_error(run_cli("discontinuity", "--p", "2", "--q", "5",
                                   "--epsilon", epsilon), "--epsilon")

    def test_q_max_below_two_rejected(self):
        assert_usage_error(run_cli("discontinuity", "--p", "2", "--q", "5",
                                   "--epsilon", "0.1", "--q-max", "1"), "--q-max")


class TestKsColor:
    def test_basis_file(self, tmp_path):
        f = tmp_path / "vecs.txt"
        f.write_text("1 0 0\n0 1 0\n0 0 1\n")
        r = run_cli("ks-color", str(f))
        assert r.returncode == 0
        assert "SAT" in r.stdout
        assert "colorings: 3" in r.stdout

    def test_relaxed_mode(self, tmp_path):
        f = tmp_path / "vecs.txt"
        f.write_text("1 0 0\n0 1 0\n0 0 1\n")
        r = run_cli("ks-color", str(f), "--mode", "relaxed")
        assert r.returncode == 0
        assert "colorings: 4" in r.stdout  # all-plus now allowed

    def test_bad_file(self):
        assert run_cli("ks-color", "/nonexistent/file.txt").returncode == 2

    def test_many_vectors_without_pairs(self, tmp_path):
        # directions within a cone about z: no orthogonal pair, so every
        # vector is +1; more vectors than Python's default recursion limit
        f = tmp_path / "vecs.txt"
        f.write_text("".join(f"{math.cos(k)} {math.sin(k)} 2\n" for k in range(1200)))
        r = run_cli("ks-color", str(f))
        assert r.returncode == 0 and r.stderr == ""
        assert r.stdout == ("vectors: 1200  orthogonal pairs: 0  triples: 0\n"
                            f"SAT ({'+' * 1200})\n")

    def test_step_budget_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(contextant.classicality, "KS_STEP_BUDGET", 10)
        peres33 = Path(__file__).parent / "data" / "peres33.txt"
        assert main(["ks-color", str(peres33)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == "ks-color: coloring search exceeded 10 steps\n"

    def test_vector_set_budget_exits_3(self, tmp_path):
        # 200 copies each of x, y and z: 120,000 pairs and 8,000,000 triples
        f = tmp_path / "vecs.txt"
        f.write_text("1 0 0\n" * 200 + "0 1 0\n" * 200 + "0 0 1\n" * 200)
        r = run_cli("ks-color", str(f))
        assert r.returncode == 3 and r.stdout == ""
        budget = contextant.classicality.VECTORSET_BUDGET
        assert r.stderr == (f"ks-color: vector set needs more than {budget} "
                            "dot products and triple checks\n")

    def test_reading_stops_once_the_budget_is_exceeded(self, tmp_path):
        # 5,478 vectors take more dot products than the budget allows, so
        # the malformed line after them is never read; after 5,477 it is
        budget = contextant.classicality.VECTORSET_BUDGET
        assert dot_products(5477) <= budget < dot_products(5478)
        cone = [f"{math.cos(k)} {math.sin(k)} 2\n" for k in range(5478)]
        f = tmp_path / "vecs.txt"
        f.write_text("".join(cone) + "0 0 0\n")
        r = run_cli("ks-color", str(f))
        assert r.returncode == 3 and r.stdout == ""
        assert r.stderr == (f"ks-color: vector set needs more than {budget} "
                            "dot products and triple checks\n")
        f.write_text("".join(cone[:5477]) + "0 0 0\n")
        assert_usage_error(run_cli("ks-color", str(f)), "line 5478")

    def test_zero_vector_rejected(self, tmp_path):
        f = tmp_path / "vecs.txt"
        f.write_text("1 0 0\n0 0 0\n")
        assert_usage_error(run_cli("ks-color", str(f)), "line 2")

    def test_nan_component_rejected(self, tmp_path):
        f = tmp_path / "vecs.txt"
        f.write_text("nan 0 1\n")
        assert_usage_error(run_cli("ks-color", str(f)), "line 1")

    @pytest.mark.parametrize("line", ["inf 0 0", "0 -inf 1e308", "1e308 1e308 nan",
                                      "-0.0 0 0"])
    def test_nonfinite_or_zero_line_names_its_line(self, tmp_path, line):
        f = tmp_path / "vecs.txt"
        f.write_text(f"1 0 0\n{line}\n")
        assert_usage_error(run_cli("ks-color", str(f)),
                           f"line 2: need three finite reals with a nonzero norm, got {line!r}")

    @pytest.mark.parametrize("line", ["x 0 0", "0 1 0 extra"])
    def test_non_numeric_component_names_its_line(self, tmp_path, line):
        f = tmp_path / "vecs.txt"
        f.write_text(f"1 0 0\n{line}\n")
        r = run_cli("ks-color", str(f))
        assert_usage_error(r, "line 2: need three finite reals with a nonzero "
                              f"norm, got {line!r}")

    @pytest.mark.parametrize("scale", ["1e-200", "1e200"])
    def test_tiny_and_huge_components_are_scaled(self, tmp_path, capsys, scale):
        # the sum of squares would underflow to 0 or overflow to inf
        f = tmp_path / "vecs.txt"
        f.write_text(f"{scale} 0 0\n0 {scale} 0\n0 0 -{scale}\n")
        assert main(["ks-color", str(f)]) == 0
        assert capsys.readouterr() == (
            "vectors: 3  orthogonal pairs: 3  triples: 1\nSAT (++-)\ncolorings: 3\n", "")

    def test_components_whose_norm_overflows_are_scaled(self, tmp_path, capsys):
        # finite components whose hypot is inf
        f = tmp_path / "vecs.txt"
        f.write_text("1.7e308 1.7e308 0\n-1.7e308 1.7e308 0\n0 0 1.7e308\n")
        assert main(["ks-color", str(f)]) == 0
        assert capsys.readouterr() == (
            "vectors: 3  orthogonal pairs: 3  triples: 1\nSAT (++-)\ncolorings: 3\n", "")

    @pytest.mark.parametrize("text, out", [
        ("1e-320 1e-320 0\n0 0 1\n",
         "vectors: 2  orthogonal pairs: 1  triples: 0\nSAT (++)\ncolorings: 3\n"),
        ("5e-324 5e-324 5e-324\n",
         "vectors: 1  orthogonal pairs: 0  triples: 0\nSAT (+)\ncolorings: 2\n"),
    ])
    def test_subnormal_components_are_scaled(self, tmp_path, capsys, text, out):
        # math.hypot loses bits on subnormal components: |d|^2 came out 0.75
        f = tmp_path / "vecs.txt"
        f.write_text(text)
        assert main(["ks-color", str(f)]) == 0
        assert capsys.readouterr() == (out, "")

    @settings(max_examples=300, deadline=None)
    @given(vectors=st.lists(st.tuples(*[component] * 3).filter(any),
                            min_size=1, max_size=8))
    @example(vectors=[(5e-324, 5e-324, 0.0), (1.7e308, -1.7e308, 1.7e308),
                      (1e-320, 0.0, 1.0), (-0.0, 0.0, 2.2250738585072014e-308)])
    def test_every_vector_read_passes_the_unit_check(self, vectors):
        # the vectors reach VectorSet and the search unchecked: the scaling
        # alone must leave each unit to within the quantum routes' UNIT_TOL
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "vecs.txt"
            path.write_text("".join(f"{x!r} {y!r} {z!r}\n" for x, y, z in vectors))
            read = cli._vector_file(str(path))
        assert len(read) == len(vectors)
        for x, y, z in read:
            assert abs(x * x + y * y + z * z - 1.0) <= UNIT_TOL


@pytest.mark.parametrize("argv, built", [
    (["verdict", "--theta", "0.9553156690398642", "--q-max", "1000"], []),
    (["scan", "--q-max", "300"], [(1, 2)]),  # decide_row's exact tie
    (["oracle", "--p", "2", "--q", "5"], [(2, 5)]),  # its own input
])
def test_a_member_is_built_only_where_it_is_certified(argv, built, monkeypatch,
                                                       capsys):
    """Batch paths pass (p, q) as integers; a RationalAngle is built only
    for a member from the command line or for an exact tie."""
    made = []
    check = angle_family.RationalAngle.__new__

    def counting(cls, p, q):
        made.append((p, q))
        return check(cls, p, q)

    monkeypatch.setattr(angle_family.RationalAngle, "__new__", counting)
    assert main(argv) == 0
    capsys.readouterr()
    assert made == built


def test_one_parser_serves_a_mixed_sequence(monkeypatch, capsys):
    """main builds its parser once per process; each call in a mixed
    sequence returns and prints what its argv does alone in a fresh
    interpreter."""
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to this width
    peres33 = str(Path(__file__).parent / "data" / "peres33.txt")
    # no quantum-check input fails its tolerances, so that call runs with a
    # zero g tolerance (name, value), here and in its fresh interpreter
    sequence = [
        (["verdict", "--theta", "0.5"], None, 2),
        (["--help"], None, 0),
        (["verdict", "--theta", "0.9"], None, 0),
        (["verdict", "--p", "2", "--q", "5"], None, 0),
        (["ks-color", peres33], None, 0),
        (["quantum-check", "--samples", "20"], ("QUANTUM_G_TOL", 0.0), 1),
        (["scan", "--q-max", "30"], None, 0),
    ]
    for argv, patch, code in sequence:
        if patch is None:
            alone = run_cli(*argv)
        else:
            alone = subprocess.run(
                [sys.executable, "-c", "import sys; import contextant.cli as cli; "
                 f"cli.{patch[0]} = {patch[1]!r}; sys.exit(cli.main(sys.argv[1:]))",
                 *argv], capture_output=True, text=True)
        with monkeypatch.context() as m:
            if patch is not None:
                m.setattr(cli, *patch)
            rc = main(argv)
        out, err = capsys.readouterr()
        assert (rc, out, err) == (alone.returncode, alone.stdout, alone.stderr), argv
        assert rc == code, argv

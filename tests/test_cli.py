import math
import os
import subprocess
import sys

import pytest

from contextant._kernel import Q_MAX

BASE_ENV = {k: v for k, v in os.environ.items() if k != "CONTEXTANT_THREADS"}


def run_cli(*args, threads=None):
    env = dict(BASE_ENV)
    if threads is not None:
        env["CONTEXTANT_THREADS"] = str(threads)
    return subprocess.run(
        [sys.executable, "-m", "contextant.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


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

    def test_json_format(self):
        import json

        r = run_cli("scan", "--q-max", "5", "--format", "json")
        rows = json.loads(r.stdout)
        assert rows[0]["p"] == 1 and rows[0]["q"] == 2

    def test_deterministic_across_runs_and_threads(self):
        a = run_cli("scan", "--q-max", "64", threads=1).stdout
        b = run_cli("scan", "--q-max", "64", threads=1).stdout
        c = run_cli("scan", "--q-max", "64", threads=8).stdout
        assert a == b == c

    def test_even_q_rows_classical_odd_nonclassical_above_threshold(self):
        from contextant.classicality import condition_p_threshold

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

    def test_bad_samples(self):
        assert run_cli("quantum-check", "--samples", "0").returncode == 2


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

    def test_classical_input_rejected(self):
        r = run_cli("discontinuity", "--p", "1", "--q", "3", "--epsilon", "0.1")
        assert r.returncode == 2

    def test_insufficient_q_max(self):
        eps = 1e-6 * 2 * math.pi
        r = run_cli("discontinuity", "--p", "2", "--q", "5",
                    "--epsilon", str(eps), "--q-max", "10")
        assert r.returncode == 3
        assert "closest achieved distance" in r.stderr

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_non_finite_epsilon_rejected(self, epsilon):
        r = run_cli("discontinuity", "--p", "2", "--q", "5",
                    "--epsilon", epsilon)
        assert r.returncode == 2
        assert "--epsilon" in r.stderr and "Traceback" not in r.stderr

    def test_q_max_below_two_rejected(self):
        r = run_cli("discontinuity", "--p", "2", "--q", "5",
                    "--epsilon", "0.1", "--q-max", "1")
        assert r.returncode == 2
        assert "--q-max" in r.stderr and "Traceback" not in r.stderr


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

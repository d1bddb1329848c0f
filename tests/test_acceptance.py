"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from contextant.angle_family import RationalAngle, g_of_delta, theta_of_delta
from contextant.assignment_model import brute_force_min, min_correlation
from contextant.classicality import (
    VectorSet,
    decide_pair_family,
    find_classical_neighbor,
    ks_colorability,
)
from contextant.spin_algebra import (
    COMPAT_TOL,
    commutator_norm,
    dichotomic,
    direction_from_angles,
    expectation,
    matmul,
    minus_one_eigenprojector,
    triple_product_check,
)
from contextant.angle_family import delta_of_theta, g_of_theta

from check import family_fractions
from conftest import mixture_correlation

Z = (0.0, 0.0, 1.0)


def report(name, start, budget):
    elapsed = time.monotonic() - start
    print(f"PASS  {name}  ({elapsed:.2f}s)")
    assert elapsed < budget, f"{name} exceeded the {budget}s runtime budget"


def test_criterion_1_kcbs_reproduction():
    start = time.monotonic()
    angle = RationalAngle(2, 5)
    target = 5 - 4 * math.sqrt(5)

    # route 1: matrix expectation, summed over the 5 cyclic pairs
    delta = angle.delta
    theta = theta_of_delta(delta)
    rho = minus_one_eigenprojector(dichotomic(Z))
    quantum_sum = 0.0
    for j in range(5):
        a = dichotomic(direction_from_angles(theta, j * delta))
        b = dichotomic(direction_from_angles(theta, (j + 1) * delta))
        # the product is an observable only for a commuting pair
        assert commutator_norm(a, b) <= COMPAT_TOL
        quantum_sum += expectation(rho, matmul(a, b))
    assert quantum_sum == pytest.approx(target, abs=1e-9)

    # route 2: closed-form g
    assert 5 * g_of_delta(delta) == pytest.approx(target, abs=1e-9)

    # hidden-variable side, both routes exact
    bf, _ = brute_force_min(angle.q)
    assert bf == min_correlation(angle.q) == Fraction(-3, 5)
    assert 5 * bf == -3

    assert not decide_pair_family(angle).classical
    report("criterion 1: KCBS reproduction", start, 1.0)


def test_criterion_2_three_statement_oracle_equivalence():
    start = time.monotonic()
    for p, q in family_fractions(16):
        bf, _ = brute_force_min(q)
        expected = Fraction(-1) if q % 2 == 0 else Fraction(-(q - 2), q)
        assert bf == expected, (p, q)
    report("criterion 2: three-statement oracle equivalence (q <= 16)", start, 30.0)


def test_criterion_3_condition_p_threshold():
    start = time.monotonic()
    # n = 1: cos(2 pi/3) = -1/2 puts g on the minimum -1/3, so the
    # numerator threshold is exactly 1 and 1/3 is the tie
    one_third = decide_pair_family(RationalAngle(1, 3))
    assert abs(one_third.g - (-1 / 3)) < 1e-15
    assert one_third.min_corr == Fraction(-1, 3)
    assert one_third.classical
    for n in range(2, 51):
        assert not decide_pair_family(RationalAngle(n, 2 * n + 1)).classical
    report("criterion 3: numerator threshold and the n=1 exception", start, 1.0)


def test_criterion_4_quantum_side_identities():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    rho = minus_one_eigenprojector(dichotomic(Z))
    for _ in range(1000):
        theta = rng.uniform(math.pi / 4, math.pi / 2)
        phi = rng.uniform(0, 2 * math.pi)
        delta = delta_of_theta(theta)
        a = dichotomic(direction_from_angles(theta, phi))
        b = dichotomic(direction_from_angles(theta, phi + delta))
        assert commutator_norm(a, b) < 1e-12
        assert abs(expectation(rho, matmul(a, b)) - (1 - 4 * math.cos(theta) ** 2)) < 1e-12
    for _ in range(100):
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q = q * np.sign(np.diag(r))
        dirs = [tuple(c / np.linalg.norm(c)) for c in q.T]
        assert triple_product_check(*dirs) < 1e-10
    report("criterion 4: quantum-side identities", start, 5.0)


def test_criterion_5_classical_witness_exactness():
    start = time.monotonic()
    checked = 0
    for p, q in family_fractions(64):
        v = decide_pair_family(RationalAngle(p, q))
        if not v.classical:
            continue
        assert v.witness is not None
        assert mixture_correlation(v.witness.components) == Fraction(v.g)
        assert abs(float(mixture_correlation(v.witness.components)) - v.g) < 1e-12
        w = v.witness.components[0][0]
        m = min_correlation(v.angle.q)
        assert v.min_corr == m
        assert w == (1 - Fraction(v.g)) / (1 - m)
        checked += 1
    assert checked > 0
    report(f"criterion 5: classical-witness exactness ({checked} verdicts)", start, 30.0)


def test_criterion_6_discontinuity_demonstration():
    start = time.monotonic()
    eps_frac = Fraction(1, 1000)
    for p, q in family_fractions(101):
        angle = RationalAngle(p, q)
        if decide_pair_family(angle).classical:
            continue
        neighbor, dist = find_classical_neighbor(angle, eps_frac, 100000)
        assert neighbor is not None, f"no classical neighbor for {p}/{q}"
        assert neighbor.q % 2 == 0
        assert decide_pair_family(neighbor).classical
        assert dist < eps_frac

    # classical rows with arbitrarily large odd q interleave the
    # nonclassical ones
    odd_classical = [
        (p, q)
        for p, q in family_fractions(101)
        if q % 2 == 1 and decide_pair_family(RationalAngle(p, q)).classical
    ]
    assert any(q > 50 for _, q in odd_classical)
    report("criterion 6: discontinuity demonstration (q <= 101)", start, 10.0)


def test_criterion_7_colorability_sanity():
    start = time.monotonic()
    X, Y = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
    basis = VectorSet([X, Y, Z])
    res = ks_colorability(basis, "strict")
    assert res.satisfiable and res.count == 3
    assert res.coloring.count("-") == 1  # post-hoc: exactly one -1 in the triple

    angle = RationalAngle(2, 5)
    delta = angle.delta
    theta = theta_of_delta(delta)
    pent = VectorSet([direction_from_angles(theta, j * delta) for j in range(5)])
    assert not pent.triples
    pres = ks_colorability(pent, "strict")
    assert pres.satisfiable
    signs = pres.coloring
    assert len(signs) == 5 and set(signs) <= {"+", "-"}
    for i, j in pent.pairs:
        assert not (signs[i] == "-" and signs[j] == "-")
    # NOTE: only finite witnesses are checked; the continuum no-coloring
    # statement is out of computational scope by design.
    report("criterion 7: colorability sanity", start, 30.0)


def test_criterion_8_scan_determinism():
    start = time.monotonic()

    def scan():
        r = subprocess.run(
            [sys.executable, "-m", "contextant.cli", "scan", "--q-max", "64",
             "--format", "csv"],
            capture_output=True,
        )
        assert r.returncode == 0
        return r.stdout

    assert scan() == scan()
    report("criterion 8: scan byte-determinism across runs", start, 60.0)

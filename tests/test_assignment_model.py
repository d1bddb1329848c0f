import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from contextant._kernel import Q_MAX
from contextant.angle_family import AngleClass, RationalAngle, classify, orbit_cycle
from contextant.assignment_model import (
    CycleAssignment,
    ExclusivityError,
    HiddenVariableModel,
    brute_force_min,
    cycle_correlation,
    min_correlation,
    mixture_for_target,
    optimal_assignment,
    overlap_condition,
    uniform_assignment,
)


def coprime_pairs(q_max):
    for q in range(2, q_max + 1):
        for p in range(1, q // 2 + 1):
            if math.gcd(p, q) == 1 and Fraction(1, 4) <= Fraction(p, q) <= Fraction(1, 2):
                yield p, q


def naive_min(q):
    """Independent enumeration oracle over all sign tuples."""
    best = None
    for values in product((1, -1), repeat=q):
        if any(values[k] == -1 and values[(k + 1) % q] == -1 for k in range(q)):
            continue
        s = Fraction(sum(values[k] * values[(k + 1) % q] for k in range(q)), q)
        if best is None or s < best:
            best = s
    return best


class TestCycleAssignment:
    def test_rejects_adjacent_minus_pair(self):
        with pytest.raises(ExclusivityError):
            CycleAssignment((1, -1, -1, 1))

    def test_rejects_wraparound_minus_pair(self):
        with pytest.raises(ExclusivityError):
            CycleAssignment((-1, 1, 1, -1))

    def test_rejects_non_sign_values(self):
        with pytest.raises(ValueError):
            CycleAssignment((1, 0, 1))

    @given(st.lists(st.sampled_from([1, -1]), min_size=1, max_size=12))
    def test_constructor_enforces_exclusivity(self, values):
        q = len(values)
        violates = any(
            values[k] == -1 and values[(k + 1) % q] == -1 for k in range(q)
        )
        if violates:
            with pytest.raises(ExclusivityError):
                CycleAssignment(tuple(values))
        else:
            CycleAssignment(tuple(values))


class TestCycleCorrelation:
    def test_pentagram_alternating(self):
        a = CycleAssignment((1, -1, 1, -1, 1))
        assert cycle_correlation(a) == Fraction(-3, 5)

    def test_even_alternating(self):
        a = CycleAssignment((1, -1, 1, -1))
        assert cycle_correlation(a) == Fraction(-1)

    def test_uniform(self):
        for q in (1, 2, 5, 9):
            assert cycle_correlation(uniform_assignment(q)) == 1


class TestMinCorrelation:
    def test_odd(self):
        assert min_correlation(AngleClass("odd", 2)) == Fraction(-3, 5)
        assert min_correlation(AngleClass("odd", 1)) == Fraction(-1, 3)

    def test_even(self):
        assert min_correlation(AngleClass("even", 1)) == Fraction(-1)
        assert min_correlation(AngleClass("even", 10)) == Fraction(-1)

    def test_irrational(self):
        assert min_correlation(AngleClass("irrational")) == Fraction(-1)


class TestOptimalAssignment:
    def test_quarter(self):
        a = optimal_assignment(RationalAngle(1, 4))
        assert a.values == (1, -1, 1, -1)
        assert cycle_correlation(a) == Fraction(-1)

    def test_pentagram(self):
        a = optimal_assignment(RationalAngle(2, 5))
        assert a.values == (1, -1, 1, -1, 1)
        assert cycle_correlation(a) == Fraction(-3, 5)

    def test_third(self):
        a = optimal_assignment(RationalAngle(1, 3))
        assert a.values == (1, -1, 1)
        assert cycle_correlation(a) == Fraction(-1, 3)

    def test_attains_closed_form_minimum(self):
        for p, q in coprime_pairs(32):
            angle = RationalAngle(p, q)
            assert cycle_correlation(optimal_assignment(angle)) == min_correlation(
                classify(angle)
            )

    def test_odd_cycle_has_single_plus_plus_seam(self):
        for q in (3, 5, 7, 9, 11):
            a = optimal_assignment(RationalAngle((q - 1) // 2, q))
            seams = sum(
                1
                for k in range(q)
                if a.values[k] == 1 and a.values[(k + 1) % q] == 1
            )
            assert seams == 1


class TestBruteForce:
    def test_pentagram(self):
        corr, a = brute_force_min(RationalAngle(2, 5))
        assert corr == Fraction(-3, 5)
        assert cycle_correlation(a) == corr

    def test_half(self):
        corr, a = brute_force_min(RationalAngle(1, 2))
        assert corr == Fraction(-1)
        assert set(a.values) == {1, -1}

    def test_matches_closed_form_exhaustively(self):
        for p, q in coprime_pairs(16):
            angle = RationalAngle(p, q)
            corr, _ = brute_force_min(angle)
            assert corr == min_correlation(classify(angle))

    def test_matches_naive_oracle(self):
        for p, q in coprime_pairs(10):
            corr, _ = brute_force_min(RationalAngle(p, q))
            assert corr == naive_min(q)

    def test_deterministic_minimizer(self):
        a1 = brute_force_min(RationalAngle(3, 7))[1]
        a2 = brute_force_min(RationalAngle(3, 7))[1]
        assert a1 == a2

    def test_resource_guard(self):
        # 40000 is coprime to Q_MAX + 1 = 100001 = 11 * 9091
        with pytest.raises(ValueError):
            brute_force_min(RationalAngle(40000, Q_MAX + 1))


class TestMixtureForTarget:
    def test_symmetric_mixture(self):
        model = mixture_for_target(0.0, RationalAngle(1, 4))
        assert model is not None
        assert model.components[0][0] == Fraction(1, 2)
        assert model.correlation() == 0

    def test_unreachable_target(self):
        assert mixture_for_target(-0.7, RationalAngle(2, 5)) is None

    def test_weight_formula(self):
        model = mixture_for_target(-0.5, RationalAngle(2, 5))
        assert model is not None
        assert model.components[0][0] == Fraction(15, 16)  # 1.5/1.6
        assert model.correlation() == Fraction(-1, 2)

    def test_exact_reproduction_and_valid_weights(self):
        rng = np.random.default_rng(3)
        for p, q in coprime_pairs(12):
            angle = RationalAngle(p, q)
            target = float(rng.uniform(-1, 1))
            model = mixture_for_target(target, angle)
            m = min_correlation(classify(angle))
            if Fraction(target) < m:
                assert model is None
                continue
            assert model is not None
            assert model.correlation() == Fraction(target)
            weights = [w for w, _ in model.components]
            assert all(0 <= w <= 1 for w in weights)
            assert sum(weights) == 1

    def test_model_weight_validation(self):
        a = uniform_assignment(3)
        with pytest.raises(ValueError):
            HiddenVariableModel(((Fraction(1, 2), a),))


class TestOverlapCondition:
    def test_kcbs_nonclassical(self):
        nonclassical, margin = overlap_condition(
            -0.7888543819998316, AngleClass("odd", 2)
        )
        assert nonclassical
        assert margin == pytest.approx(0.1888543819998316, abs=1e-12)

    def test_even_equality_is_classical(self):
        nonclassical, margin = overlap_condition(-1.0, AngleClass("even", 1))
        assert not nonclassical
        assert margin == pytest.approx(0.0, abs=1e-15)

    def test_positive_target_always_classical(self):
        for cls in (AngleClass("odd", 3), AngleClass("even", 2), AngleClass("irrational")):
            nonclassical, margin = overlap_condition(0.5, cls)
            assert not nonclassical
            assert margin <= 0

    def test_equivalent_to_mixture_existence(self):
        rng = np.random.default_rng(4)
        for p, q in coprime_pairs(12):
            angle = RationalAngle(p, q)
            target = float(rng.uniform(-1, 1))
            nonclassical, margin = overlap_condition(target, classify(angle))
            assert nonclassical == (mixture_for_target(target, angle) is None)
            assert nonclassical == (margin > 0)


def test_continuum_integral_matches_cycle_correlation():
    """Fine-grid quadrature of the arc-piecewise-constant function agrees
    with the exact cycle correlation."""
    for p, q in [(2, 5), (1, 4), (3, 7), (5, 12)]:
        angle = RationalAngle(p, q)
        cyc = orbit_cycle(angle)
        corr, a = brute_force_min(angle)
        # value on arc j = value at the cycle position occupying arc j
        value_of_arc = [0] * q
        for k in range(q):
            value_of_arc[cyc.arc_of_position(k)] = a.values[k]

        def f(phi):
            j = int((phi % (2 * math.pi)) / (2 * math.pi) * q) % q
            return value_of_arc[j]

        n = q * 1000  # midpoint grid aligned with the arcs
        delta = 2 * math.pi * p / q
        step = 2 * math.pi / n
        integral = step * sum(
            f((i + 0.5) * step) * f((i + 0.5) * step + delta) for i in range(n)
        )
        assert integral == pytest.approx(2 * math.pi * float(corr), abs=1e-6)

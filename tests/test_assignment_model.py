import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from contextant._kernel import Q_MAX
from contextant.assignment_model import (
    WITNESS_Q_MAX,
    CycleAssignment,
    ExclusivityError,
    HiddenVariableModel,
    brute_force_min,
    cycle_correlation,
    min_correlation,
    mixture_for_target,
    optimal_assignment,
    uniform_assignment,
)

from conftest import coprime_pairs


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


def is_admissible(values):
    """Reference check on a sign tuple: no two cyclically adjacent -1."""
    q = len(values)
    return not any(values[k] == -1 and values[(k + 1) % q] == -1 for k in range(q))


def tuple_correlation(values):
    """Reference correlation on a sign tuple: the sum over cyclic edges."""
    q = len(values)
    return Fraction(sum(values[k] * values[(k + 1) % q] for k in range(q)), q)


def from_values(values):
    """The assignment with these +-1 outcomes (bit k set = -1 at k)."""
    return CycleAssignment(
        len(values), sum(1 << k for k, v in enumerate(values) if v == -1)
    )


class TestCycleAssignment:
    def test_rejects_adjacent_minus_pair(self):
        with pytest.raises(ExclusivityError, match="positions 1 and 2"):
            from_values((1, -1, -1, 1))
        with pytest.raises(ExclusivityError, match="positions 1 and 2"):
            from_values((1, -1, -1, -1, 1))  # the lowest clash is named

    def test_rejects_wraparound_minus_pair(self):
        with pytest.raises(ExclusivityError, match="positions 3 and 0"):
            from_values((-1, 1, 1, -1))

    def test_rejects_mask_out_of_range_and_empty_cycle(self):
        for q, mask in ((3, -1), (3, 8), (1, 2), (0, 0), (-1, 0)):
            with pytest.raises(ValueError):
                CycleAssignment(q, mask)
        with pytest.raises(ExclusivityError):
            CycleAssignment(1, 1)  # the single position is its own neighbour

    @given(st.lists(st.sampled_from([1, -1]), min_size=1, max_size=12))
    def test_constructor_enforces_exclusivity(self, values):
        if is_admissible(values):
            assert from_values(values).values == tuple(values)
        else:
            with pytest.raises(ExclusivityError):
                from_values(values)

    def test_matches_tuple_reference_exhaustively(self):
        for q in range(1, 13):
            for mask in range(1 << q):
                values = tuple(-1 if (mask >> k) & 1 else 1 for k in range(q))
                if not is_admissible(values):
                    with pytest.raises(ExclusivityError):
                        CycleAssignment(q, mask)
                    continue
                a = CycleAssignment(q, mask)
                assert a.values == values
                assert cycle_correlation(a) == tuple_correlation(values)

    def test_signs_and_values_round_trip(self):
        for q in range(1, 11):
            for mask in range(1 << q):
                if mask & ((mask >> 1) | ((mask & 1) << (q - 1))):
                    continue
                a = CycleAssignment(q, mask)
                assert len(a.signs) == q
                assert a.signs == "".join("+" if v == 1 else "-" for v in a.values)
                assert from_values(a.values) == a


class TestCycleCorrelation:
    def test_pentagram_alternating(self):
        a = from_values((1, -1, 1, -1, 1))
        assert cycle_correlation(a) == Fraction(-3, 5)

    def test_even_alternating(self):
        a = from_values((1, -1, 1, -1))
        assert cycle_correlation(a) == Fraction(-1)

    def test_uniform(self):
        for q in (1, 2, 5, 9):
            assert cycle_correlation(uniform_assignment(q)) == 1


class TestMinCorrelation:
    def test_odd(self):
        assert min_correlation(5) == Fraction(-3, 5)
        assert min_correlation(3) == Fraction(-1, 3)

    def test_even(self):
        assert min_correlation(2) == Fraction(-1)
        assert min_correlation(20) == Fraction(-1)

    @pytest.mark.parametrize("q", [1, 0])
    def test_rejects_q_below_2(self, q):
        with pytest.raises(ValueError):
            min_correlation(q)


class TestOptimalAssignment:
    def test_quarter(self):
        a = optimal_assignment(4)
        assert a.values == (1, -1, 1, -1)
        assert cycle_correlation(a) == Fraction(-1)

    def test_pentagram(self):
        a = optimal_assignment(5)
        assert a.values == (1, -1, 1, -1, 1)
        assert cycle_correlation(a) == Fraction(-3, 5)

    def test_third(self):
        a = optimal_assignment(3)
        assert a.values == (1, -1, 1)
        assert cycle_correlation(a) == Fraction(-1, 3)

    def test_attains_closed_form_minimum(self):
        for p, q in coprime_pairs(32):
            assert cycle_correlation(optimal_assignment(q)) == min_correlation(q)

    def test_alternating_up_to_q_200(self):
        for q in range(2, 201):
            a = optimal_assignment(q)
            assert a.values == tuple(1 if k % 2 == 0 else -1 for k in range(q))

    def test_odd_cycle_has_single_plus_plus_seam(self):
        for q in (3, 5, 7, 9, 11):
            a = optimal_assignment(q)
            seams = sum(
                1
                for k in range(q)
                if a.values[k] == 1 and a.values[(k + 1) % q] == 1
            )
            assert seams == 1


class TestBruteForce:
    def test_pentagram(self):
        corr, a = brute_force_min(5)
        assert corr == Fraction(-3, 5)
        assert cycle_correlation(a) == corr

    def test_half(self):
        corr, a = brute_force_min(2)
        assert corr == Fraction(-1)
        assert set(a.values) == {1, -1}

    def test_matches_closed_form_exhaustively(self):
        for p, q in coprime_pairs(16):
            corr, _ = brute_force_min(q)
            assert corr == min_correlation(q)

    def test_matches_naive_oracle(self):
        for p, q in coprime_pairs(10):
            corr, _ = brute_force_min(q)
            assert corr == naive_min(q)

    def test_deterministic_minimizer(self):
        a1 = brute_force_min(7)[1]
        a2 = brute_force_min(7)[1]
        assert a1 == a2

    def test_resource_guard(self):
        with pytest.raises(ValueError):
            brute_force_min(Q_MAX + 1)


class TestMixtureForTarget:
    def test_symmetric_mixture(self):
        model = mixture_for_target(Fraction(0), Fraction(-1), 4)
        assert model.components[0][0] == Fraction(1, 2)
        assert model.correlation() == 0

    def test_unreachable_target(self):
        with pytest.raises(ValueError, match="nonnegative"):
            mixture_for_target(Fraction(-0.7), Fraction(-3, 5), 5)

    def test_weight_formula(self):
        model = mixture_for_target(Fraction(-1, 2), Fraction(-3, 5), 5)
        assert model.components[0][0] == Fraction(15, 16)  # 1.5/1.6
        assert model.correlation() == Fraction(-1, 2)

    def test_exact_reproduction_and_valid_weights(self):
        rng = np.random.default_rng(3)
        for p, q in coprime_pairs(12):
            target = Fraction(float(rng.uniform(-1, 1)))
            m = min_correlation(q)
            if target < m:
                with pytest.raises(ValueError):
                    mixture_for_target(target, m, q)
                continue
            model = mixture_for_target(target, m, q)
            assert model.correlation() == target
            weights = [w for w, _ in model.components]
            assert all(0 <= w <= 1 for w in weights)
            assert sum(weights) == 1

    def test_model_weight_validation(self):
        a = uniform_assignment(3)
        with pytest.raises(ValueError):
            HiddenVariableModel(((Fraction(1, 2), a),))


class TestMixtureRule:
    """mixture_for_target reproduces every target in [m, 1] and refuses
    the rest through HiddenVariableModel's weight checks."""

    def test_even_equality_reachable(self):
        model = mixture_for_target(Fraction(-1), Fraction(-1), 2)
        assert model.correlation() == -1

    def test_positive_target_always_reachable(self):
        for p, q in [(2, 7), (3, 8), (1, 3), (1, 4)]:
            m = min_correlation(q)
            model = mixture_for_target(Fraction(1, 2), m, q)
            assert model.correlation() == Fraction(1, 2)

    @given(
        pq=st.sampled_from(list(coprime_pairs(60))),
        t=st.floats(-2.0, 2.0),
    )
    @example(pq=(1, 2), t=-1.0)
    @example(pq=(2, 5), t=1.0)
    @example(pq=(2, 5), t=1.5)  # above 1: the optimal weight is negative
    def test_reproduces_iff_between_minimum_and_one(self, pq, t):
        q = pq[1]
        m = min_correlation(q)
        target = Fraction(t)
        if not m <= target <= 1:
            with pytest.raises(ValueError, match="nonnegative"):
                mixture_for_target(target, m, q)
            return
        model = mixture_for_target(target, m, q)
        assert model.correlation() == target
        assert all(0 <= w <= 1 for w, _ in model.components)

    def test_witness_limit(self):
        """Above WITNESS_Q_MAX the builder refuses before any assignment is
        built."""
        q = WITNESS_Q_MAX + 1
        with pytest.raises(ValueError, match="witness limit"):
            mixture_for_target(Fraction(1, 2), min_correlation(q), q)


def test_continuum_integral_matches_cycle_correlation():
    """Fine-grid quadrature of the arc-piecewise-constant function agrees
    with the exact cycle correlation."""
    for p, q in [(2, 5), (1, 4), (3, 7), (5, 12)]:
        corr, a = brute_force_min(q)
        # value on arc j = value at the cycle position k occupying it: the
        # k-th step of 2*pi*p/q lands on arc k*p mod q, a bijection for
        # coprime p and q
        value_of_arc = [0] * q
        for k in range(q):
            value_of_arc[k * p % q] = a.values[k]

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

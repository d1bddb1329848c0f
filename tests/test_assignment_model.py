import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from contextant import assignment_model
from contextant._kernel import Q_MAX
from contextant.assignment_model import (
    CHUNK,
    WITNESS_Q_MAX,
    ExclusivityError,
    Pattern,
    brute_force_min,
    min_correlation,
    mixture_for_target,
    pattern_chunks,
)

from check import family_fractions, sign_correlation
from conftest import (
    mask_signs,
    mixture_correlation,
    naive_min_cycle_sum,
    pattern_signs,
)


def is_admissible(values):
    """Reference check on a sign tuple: no two cyclically adjacent -1."""
    q = len(values)
    return not any(values[k] == -1 and values[(k + 1) % q] == -1 for k in range(q))


def tuple_correlation(values):
    """Reference correlation on a sign tuple: the sum over cyclic edges."""
    q = len(values)
    return Fraction(sum(values[k] * values[(k + 1) % q] for k in range(q)), q)


def checked(signs):
    """brute_force_min(len(signs)) on a kernel whose minimizer is signs: the
    exclusivity check is the only step between the two."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assignment_model, "min_cycle_sum", lambda q: (0, signs))
        return brute_force_min(len(signs))


def values_signs(values):
    """The sign string of a +-1 tuple."""
    return "".join("+" if v == 1 else "-" for v in values)


def signs_values(signs):
    """The +-1 outcome per cycle position of a sign string."""
    return tuple(1 if c == "+" else -1 for c in signs)


def optimal_mask(q):
    """The alternating minimizer as a q-bit mask (bit k set = -1 at k): -1
    on the odd positions below 2 * (q // 2)."""
    return ((1 << 2 * (q // 2)) - 1) // 3 << 1


def patterns(q):
    """The (optimal, uniform) sign strings a witness on q positions prints."""
    (_, optimal), (_, uniform) = mixture_for_target(
        Fraction(1), min_correlation(q), q).components
    return pattern_signs(optimal), pattern_signs(uniform)


class TestCycleAssignment:
    """brute_force_min checks its minimizer's sign string for two
    cyclically adjacent -1, and names the lowest clash."""

    def test_rejects_adjacent_minus_pair(self):
        with pytest.raises(ExclusivityError, match="positions 1 and 2"):
            checked("+--+")
        with pytest.raises(ExclusivityError, match="positions 1 and 2"):
            checked("+---+")  # the lowest clash is named

    def test_rejects_wraparound_minus_pair(self):
        with pytest.raises(ExclusivityError, match="positions 3 and 0"):
            checked("-++-")
        with pytest.raises(ExclusivityError, match="positions 0 and 0"):
            checked("-")  # the single position is its own neighbour

    @given(st.lists(st.sampled_from([1, -1]), min_size=1, max_size=12))
    def test_constructor_enforces_exclusivity(self, values):
        signs = values_signs(values)
        if is_admissible(values):
            assert checked(signs) == (0, signs)
        else:
            with pytest.raises(ExclusivityError):
                checked(signs)

    def test_matches_tuple_reference_exhaustively(self):
        for q in range(1, 13):
            for mask in range(1 << q):
                values = tuple(-1 if (mask >> k) & 1 else 1 for k in range(q))
                signs = mask_signs(mask, q)
                if not is_admissible(values):
                    with pytest.raises(ExclusivityError):
                        checked(signs)
                    continue
                assert checked(signs)[1] == signs
                assert signs_values(signs) == values
                assert sign_correlation(signs) == tuple_correlation(values)

    def test_signs_and_values_round_trip(self):
        # every minimizer the sweep returns up to q = 16 passes the check
        # and is a +-1 vector of length q
        for q in range(1, 17):
            corr, signs = brute_force_min(q)
            assert len(signs) == q
            assert values_signs(signs_values(signs)) == signs
            assert is_admissible(signs_values(signs))
            assert sign_correlation(signs) == corr


class TestCycleCorrelation:
    """The test-side correlation of a sign string."""

    def test_pentagram_alternating(self):
        assert sign_correlation("+-+-+") == Fraction(-3, 5)

    def test_even_alternating(self):
        assert sign_correlation("+-+-") == Fraction(-1)

    def test_uniform(self):
        for q in (2, 5, 9):
            _, uniform = patterns(q)
            assert uniform == "+" * q
            assert sign_correlation(uniform) == 1


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
    """The optimal pattern a witness prints."""

    def test_quarter(self):
        optimal, _ = patterns(4)
        assert optimal == "+-+-"
        assert sign_correlation(optimal) == Fraction(-1)

    def test_pentagram(self):
        optimal, _ = patterns(5)
        assert optimal == "+-+-+"
        assert sign_correlation(optimal) == Fraction(-3, 5)

    def test_third(self):
        optimal, _ = patterns(3)
        assert optimal == "+-+"
        assert sign_correlation(optimal) == Fraction(-1, 3)

    def test_attains_closed_form_minimum(self):
        """Up to q = 2000 the pattern is the mask of the earlier
        construction, admissible and minimal."""
        for q in range(2, 2001):
            optimal, _ = patterns(q)
            assert optimal == mask_signs(optimal_mask(q), q)
            assert "--" not in optimal + optimal[0]
            assert sign_correlation(optimal) == min_correlation(q)

    def test_alternating_up_to_q_200(self):
        for q in range(2, 201):
            assert signs_values(patterns(q)[0]) == tuple(
                1 if k % 2 == 0 else -1 for k in range(q))

    def test_odd_cycle_has_single_plus_plus_seam(self):
        for q in (3, 5, 7, 9, 11):
            optimal, _ = patterns(q)
            assert (optimal + optimal[0]).count("++") == 1


class TestPatternChunks:
    """A witness is two (q, alternating) descriptors; pattern_chunks writes
    each as pieces of at most CHUNK characters that join to its string."""

    def test_components_hold_no_sign_string(self):
        (_, optimal), (_, uniform) = mixture_for_target(
            Fraction(0), Fraction(-1), WITNESS_Q_MAX).components
        assert (optimal, uniform) == (Pattern(WITNESS_Q_MAX, True),
                                      Pattern(WITNESS_Q_MAX, False))

    @pytest.mark.parametrize("q", [2, 3, CHUNK - 1, CHUNK, CHUNK + 1,
                                   2 * CHUNK + 3])
    def test_pieces_join_to_the_closed_form_patterns(self, q):
        for pattern, signs in ((Pattern(q, True), "+-" * (q // 2) + "+" * (q % 2)),
                               (Pattern(q, False), "+" * q)):
            pieces = list(pattern_chunks(pattern))
            assert len(pieces) == -(-q // CHUNK)
            assert all(len(piece) == CHUNK for piece in pieces[:-1])
            assert "".join(pieces) == signs


class TestBruteForce:
    def test_pentagram(self):
        corr, signs = brute_force_min(5)
        assert corr == Fraction(-3, 5)
        assert sign_correlation(signs) == corr

    def test_half(self):
        corr, signs = brute_force_min(2)
        assert corr == Fraction(-1)
        assert set(signs) == {"+", "-"}

    def test_matches_closed_form_exhaustively(self):
        for p, q in family_fractions(16):
            corr, _ = brute_force_min(q)
            assert corr == min_correlation(q)

    def test_matches_naive_oracle(self):
        for p, q in family_fractions(10):
            corr, _ = brute_force_min(q)
            assert corr == Fraction(naive_min_cycle_sum(q)[0], q)

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
        assert mixture_correlation(model.components) == 0

    def test_unreachable_target(self):
        with pytest.raises(ValueError, match="nonnegative"):
            mixture_for_target(Fraction(-0.7), Fraction(-3, 5), 5)

    def test_weight_formula(self):
        model = mixture_for_target(Fraction(-1, 2), Fraction(-3, 5), 5)
        assert model.components[0][0] == Fraction(15, 16)  # 1.5/1.6
        assert mixture_correlation(model.components) == Fraction(-1, 2)

    def test_exact_reproduction_and_valid_weights(self):
        rng = np.random.default_rng(3)
        for p, q in family_fractions(12):
            target = Fraction(float(rng.uniform(-1, 1)))
            m = min_correlation(q)
            if target < m:
                with pytest.raises(ValueError):
                    mixture_for_target(target, m, q)
                continue
            model = mixture_for_target(target, m, q)
            assert mixture_correlation(model.components) == target
            weights = [w for w, _ in model.components]
            assert all(0 <= w <= 1 for w in weights)
            assert sum(weights) == 1


class TestMixtureRule:
    """mixture_for_target reproduces every target in [m, 1] and refuses
    the rest, where a weight would be negative."""

    def test_even_equality_reachable(self):
        model = mixture_for_target(Fraction(-1), Fraction(-1), 2)
        assert mixture_correlation(model.components) == -1

    def test_positive_target_always_reachable(self):
        for p, q in [(2, 7), (3, 8), (1, 3), (1, 4)]:
            m = min_correlation(q)
            model = mixture_for_target(Fraction(1, 2), m, q)
            assert mixture_correlation(model.components) == Fraction(1, 2)

    @given(
        pq=st.sampled_from(family_fractions(60)),
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
        assert mixture_correlation(model.components) == target
        assert all(0 <= w <= 1 for w, _ in model.components)

    def test_witness_limit(self):
        """Above WITNESS_Q_MAX mixture_for_target refuses before any
        pattern is built."""
        q = WITNESS_Q_MAX + 1
        with pytest.raises(ValueError, match="witness limit"):
            mixture_for_target(Fraction(1, 2), min_correlation(q), q)


def test_continuum_integral_matches_cycle_correlation():
    """Fine-grid quadrature of the arc-piecewise-constant function agrees
    with the exact cycle correlation."""
    for p, q in [(2, 5), (1, 4), (3, 7), (5, 12)]:
        corr, signs = brute_force_min(q)
        # value on arc j = value at the cycle position k occupying it: the
        # k-th step of 2*pi*p/q lands on arc k*p mod q, a bijection for
        # coprime p and q
        value_of_arc = [0] * q
        for k, v in enumerate(signs_values(signs)):
            value_of_arc[k * p % q] = v

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

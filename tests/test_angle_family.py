import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contextant.angle_family import (
    RationalAngle,
    _best_approximations,
    classify,
    delta_of_theta,
    g_of_delta,
    g_of_theta,
    rational_approximants,
    theta_of_delta,
)


class TestDeltaOfTheta:
    def test_endpoints(self):
        assert delta_of_theta(math.pi / 4) == pytest.approx(math.pi, abs=1e-12)
        assert delta_of_theta(math.pi / 2) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_kcbs_angle(self):
        # theta with cos^2(theta) = cos(pi/5)/(1 + cos(pi/5)) gives the
        # pentagram step 4*pi/5
        c2 = math.cos(math.pi / 5) / (1 + math.cos(math.pi / 5))
        theta = math.acos(math.sqrt(c2))
        assert delta_of_theta(theta) == pytest.approx(4 * math.pi / 5, abs=1e-12)

    def test_monotone_decreasing(self):
        grid = np.linspace(math.pi / 4, math.pi / 2, 500)
        vals = [delta_of_theta(t) for t in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            delta_of_theta(0.5)


class TestThetaOfDelta:
    def test_endpoints(self):
        assert theta_of_delta(math.pi) == pytest.approx(math.pi / 4, abs=1e-12)
        assert theta_of_delta(math.pi / 2) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_kcbs_value(self):
        theta = theta_of_delta(4 * math.pi / 5)
        assert math.cos(theta) ** 2 == pytest.approx(0.4472135954999579, abs=1e-12)

    def test_round_trip(self):
        for delta in np.linspace(math.pi / 2, math.pi, 500):
            assert delta_of_theta(theta_of_delta(delta)) == pytest.approx(
                delta, abs=1e-12
            )
        for theta in np.linspace(math.pi / 4, math.pi / 2, 500):
            assert theta_of_delta(delta_of_theta(theta)) == pytest.approx(
                theta, abs=1e-12
            )

    def test_domain(self):
        with pytest.raises(ValueError):
            theta_of_delta(0.1)


class TestG:
    def test_g_of_theta_values(self):
        assert g_of_theta(math.pi / 4) == pytest.approx(-1.0, abs=1e-12)
        assert g_of_theta(math.pi / 3) == pytest.approx(0.0, abs=1e-12)
        assert g_of_theta(math.pi / 2) == pytest.approx(1.0, abs=1e-12)

    def test_g_of_delta_values(self):
        assert g_of_delta(math.pi / 2) == pytest.approx(1.0, abs=1e-12)
        assert g_of_delta(math.pi) == pytest.approx(-1.0, abs=1e-12)
        # cos(4*pi/5) = -(1 + sqrt(5))/4
        c = -(1 + math.sqrt(5)) / 4
        assert g_of_delta(4 * math.pi / 5) == pytest.approx(
            (1 + 3 * c) / (1 - c), abs=1e-12
        )
        assert g_of_delta(4 * math.pi / 5) == pytest.approx(-0.7888544, abs=1e-6)

    def test_g_compositions_agree(self):
        for theta in np.linspace(math.pi / 4, math.pi / 2, 1000):
            assert g_of_delta(delta_of_theta(theta)) == pytest.approx(
                g_of_theta(theta), abs=1e-12
            )


class TestRationalAngle:
    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            RationalAngle(2, 4)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            RationalAngle(1, 5)

    def test_delta_near_the_float_range(self):
        p, q = 10**307, 2 * 10**307 + 1
        assert RationalAngle(p, q).delta == 2.0 * math.pi * p / q

    def test_classify(self):
        assert classify(5) == (True, 2)
        assert classify(2) == (False, 1)
        assert classify(3) == (True, 1)
        with pytest.raises(ValueError):
            classify(1)


class TestRationalApproximants:
    def test_exact_fraction_found(self):
        res = rational_approximants(0.4 * 2 * math.pi, 10)
        assert res[0] == (2, 5, 0.0)

    def test_nine_twentieths(self):
        res = rational_approximants(0.45 * 2 * math.pi, 20)
        assert (9, 20, 0.0) in res

    def test_boundary_angle_straddle(self):
        # arccos(-1/3)/2pi ~ 0.3041; nearest approximants must bracket it
        x = math.acos(-1 / 3) / (2 * math.pi)
        res = rational_approximants(math.acos(-1 / 3), 100)
        below = [(p, q) for p, q, _ in res if p / q < x]
        above = [(p, q) for p, q, _ in res if p / q > x]
        assert below and above
        assert res[0][2] < 1e-3

    def test_sorted_by_distance(self):
        res = rational_approximants(1.9, 50)
        dists = [d for _, _, d in res]
        assert dists == sorted(dists)

    def test_all_within_family_range(self):
        for p, q, _ in rational_approximants(2.2, 200):
            assert Fraction(1, 4) <= Fraction(p, q) <= Fraction(1, 2)

    @settings(max_examples=300, deadline=None)
    @given(delta=st.floats(math.pi / 2, math.pi), q_max=st.integers(2, 10_000))
    @example(delta=math.pi / 2, q_max=2)  # 1/4 itself
    @example(delta=math.pi, q_max=2)  # 1/2 itself
    @example(delta=2 * math.pi * (1 / 3 + 1e-7), q_max=10_000)  # one huge quotient
    def test_triples_are_reduced_members_at_their_distance(self, delta, q_max):
        """No RationalAngle checks the triples, so check what it would."""
        x = delta / (2 * math.pi)
        res = rational_approximants(delta, q_max)
        for p, q, d in res:
            assert math.gcd(p, q) == 1 and 2 <= q <= q_max
            assert q <= 4 * p <= 2 * q
            assert d == abs(x - p / q)
        assert res == sorted(res, key=lambda t: (t[2], t[1]))


def best_approximations_reference(x: Fraction, q_max: int) -> list[Fraction]:
    """Reference: the search that tries every semiconvergent c = 1..a."""
    out: list[Fraction] = []
    # convergents h/k via the standard recurrence
    a_list: list[int] = []
    num, den = x.numerator, x.denominator
    while den:
        a = num // den
        a_list.append(a)
        num, den = den, num - a * den
    h_prev, k_prev = 1, 0
    h, k = a_list[0], 1
    out.append(Fraction(h, k))
    for i in range(1, len(a_list)):
        a = a_list[i]
        # semiconvergents c*h + h_prev for c = 1..a; the c = a case is the
        # next convergent
        for c in range(1, a + 1):
            hn, kn = c * h + h_prev, c * k + k_prev
            if kn > q_max:
                return out
            cand = Fraction(hn, kn)
            # a semiconvergent is a best approximation iff it beats the
            # previous convergent; check directly
            if abs(cand - x) < abs(Fraction(h, k) - x) or cand == x:
                out.append(cand)
        h_prev, k_prev, h, k = h, k, a * h + h_prev, a * k + k_prev
    return out


# floats just off a fraction with a small denominator have one huge
# partial quotient, the case where the loop's start matters
near_rational = st.builds(
    lambda f, e, sign: float(f) + sign * 10.0**e,
    st.fractions(Fraction(1, 40), 1, max_denominator=40),
    st.floats(-16.0, -2.0),
    st.sampled_from([-1, 1]),
)


@settings(max_examples=300, deadline=None)
@given(x=st.one_of(st.floats(0.01, 1.0), near_rational),
       q_max=st.integers(1, 5000))
@example(x=0.9553166181245094, q_max=5000)
@example(x=1 / 3 + 1e-4, q_max=5000)  # a = 2500: c = a/2 reaches q_max
@example(x=0.5, q_max=1)
def test_best_approximations_match_full_semiconvergent_loop(x, q_max):
    xf = Fraction(x)
    assert _best_approximations(xf, q_max) == [
        (f.numerator, f.denominator) for f in best_approximations_reference(xf, q_max)]

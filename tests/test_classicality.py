import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contextant.angle_family import RationalAngle, classify, g_of_delta
from contextant.assignment_model import brute_force_min, min_correlation
from contextant.classicality import (
    Coloring,
    VectorSet,
    admissible_p_range,
    condition_p_threshold,
    decide_pair_family,
    decide_pair_family_generic,
    find_classical_neighbor,
    generic_witness_approximant,
    ks_colorability,
    single_observable_model,
    triples_violation_fraction,
)
from contextant.spin_algebra import (
    Direction,
    dichotomic,
    direction_from_angles,
    expectation,
    minus_one_eigenprojector,
)

X = Direction(1.0, 0.0, 0.0)
Y = Direction(0.0, 1.0, 0.0)
Z = Direction(0.0, 0.0, 1.0)


def coprime_pairs(q_max):
    for q in range(2, q_max + 1):
        for p in range(1, q // 2 + 1):
            if math.gcd(p, q) == 1 and Fraction(1, 4) <= Fraction(p, q) <= Fraction(1, 2):
                yield p, q


def rotate(d, axis, angle):
    """Rodrigues rotation of direction d about a unit axis."""
    v, k = d.as_array(), axis.as_array()
    r = (
        v * math.cos(angle)
        + np.cross(k, v) * math.sin(angle)
        + k * np.dot(k, v) * (1 - math.cos(angle))
    )
    r /= np.linalg.norm(r)
    return Direction(*r)


class TestDecidePairFamily:
    def test_kcbs_nonclassical(self):
        v = decide_pair_family(RationalAngle(2, 5))
        assert not v.classical
        assert v.margin == pytest.approx(0.18885438199983162, abs=1e-10)
        assert 5 * v.g == pytest.approx(5 - 4 * math.sqrt(5), abs=1e-9)
        assert v.best_hv_value == pytest.approx(-0.6)

    def test_one_third_classical(self):
        assert decide_pair_family(RationalAngle(1, 3)).classical

    def test_one_half_equality_classical(self):
        v = decide_pair_family(RationalAngle(1, 2))
        assert v.classical
        assert v.g == pytest.approx(-1.0, abs=1e-12)
        assert v.margin == pytest.approx(0.0, abs=1e-12)

    def test_n_over_2n_plus_1_nonclassical_for_n_ge_2(self):
        for n in range(2, 51):
            v = decide_pair_family(RationalAngle(n, 2 * n + 1))
            assert not v.classical, f"n = {n}"

    def test_classical_witness_reproduces_exactly(self):
        for p, q in coprime_pairs(64):
            v = decide_pair_family(RationalAngle(p, q))
            if v.classical:
                assert v.witness is not None
                assert v.witness.correlation() == Fraction(v.g)

    def test_full_stack_equivalence_small_q(self):
        """Verdict agrees with the first-principles pipeline: quantum value
        from the operator algebra, optimum from the brute-force oracle."""
        rho = minus_one_eigenprojector(dichotomic(Z))
        for p, q in coprime_pairs(16):
            angle = RationalAngle(p, q)
            v = decide_pair_family(angle)
            theta = angle.theta
            delta = angle.delta
            ops = [
                dichotomic(direction_from_angles(theta, 0.0)),
                dichotomic(direction_from_angles(theta, delta)),
            ]
            quantum = expectation(rho, ops)
            assert quantum == pytest.approx(v.g, abs=1e-12)
            hv_min, _ = brute_force_min(angle)
            # strict comparison, exact on the hidden-variable side
            assert (Fraction(v.g) < hv_min) == (not v.classical)


def linear_scan_neighbor(angle, eps_frac, q_max):
    """Reference: the full ascending scan over every even q' <= q_max."""
    x = angle.fraction
    best_dist: Fraction | None = None
    for q2 in range(2, q_max + 1, 2):
        for p2 in (math.floor(x * q2), math.ceil(x * q2)):
            if p2 < 1 or math.gcd(p2, q2) != 1:
                continue
            f = Fraction(p2, q2)
            if not (Fraction(1, 4) <= f <= Fraction(1, 2)):
                continue
            d = abs(f - x)
            if best_dist is None or d < best_dist:
                best_dist = d
            if d < eps_frac:
                return RationalAngle(p2, q2), d
    return None, best_dist


@st.composite
def odd_members(draw):
    q = draw(st.integers(1, 30).map(lambda n: 2 * n + 1))
    ps = [p for p, q2 in coprime_pairs(q) if q2 == q]
    return RationalAngle(draw(st.sampled_from(ps)), q)


class TestFindClassicalNeighbor:
    @settings(max_examples=150, deadline=None)
    @given(
        angle=odd_members(),
        log_eps=st.floats(-9.0, -0.5),
        q_max=st.integers(0, 5000),
    )
    @example(angle=RationalAngle(2, 5), log_eps=-3.0, q_max=5000)  # found
    @example(angle=RationalAngle(2, 5), log_eps=-7.0, q_max=5000)  # not found
    @example(angle=RationalAngle(29, 61), log_eps=-6.0, q_max=200)  # q_max < 4q
    @example(angle=RationalAngle(2, 5), log_eps=-3.0, q_max=1)  # empty range
    def test_matches_linear_scan(self, angle, log_eps, q_max):
        eps_frac = Fraction(10.0**log_eps)
        assert find_classical_neighbor(angle, eps_frac, q_max) == (
            linear_scan_neighbor(angle, eps_frac, q_max)
        )


class TestGenericVerdict:
    def test_classical(self):
        v = decide_pair_family_generic()
        assert v.classical
        assert v.margin <= 0

    def test_witness_approximant_close_in_g(self):
        delta = 2 * math.pi / math.sqrt(7)
        angle, witness = generic_witness_approximant(delta, q_max=100)
        assert angle.q % 2 == 0
        assert float(witness.correlation()) == pytest.approx(
            g_of_delta(delta), abs=1e-2
        )


class TestConditionPThreshold:
    def test_n1_exact(self):
        # arccos(-1/2) = 2*pi/3 makes the threshold exactly 1
        assert condition_p_threshold(1) == pytest.approx(1.0, abs=1e-12)

    def test_n2(self):
        assert condition_p_threshold(2) == pytest.approx(
            5 / (2 * math.pi) * math.acos(-2 / 3), abs=1e-15
        )
        assert condition_p_threshold(2) == pytest.approx(1.830699, abs=1e-6)

    def test_n3(self):
        assert condition_p_threshold(3) == pytest.approx(2.694813, abs=1e-6)

    def test_threshold_characterizes_verdict(self):
        for p, q in coprime_pairs(201):
            if q % 2 == 0:
                continue
            n = (q - 1) // 2
            v = decide_pair_family(RationalAngle(p, q))
            assert (not v.classical) == (p > condition_p_threshold(n)), (p, q)


class TestAdmissiblePRange:
    @pytest.mark.parametrize("n,expected", [(1, [1]), (2, [2]), (7, [5, 6, 7])])
    def test_examples(self, n, expected):
        assert list(admissible_p_range(n)) == expected

    def test_subset_of_paper_window(self):
        for n in range(1, 60):
            r = list(admissible_p_range(n))
            assert all(0.6 * n < p <= n for p in r)


class TestSingleObservableModel:
    def test_balanced(self):
        m = single_observable_model([Z], [0.0])
        assert m.plus_probability == (0.5,)
        assert m.expectation(0) == 0.0

    def test_deterministic(self):
        m = single_observable_model([Z], [1.0])
        assert m.expectation(0) == 1.0

    def test_random_reproduction(self):
        rng = np.random.default_rng(9)
        dirs, exps = [], []
        for _ in range(10):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            dirs.append(Direction(*v))
            exps.append(float(rng.uniform(-1, 1)))
        m = single_observable_model(dirs, exps)
        for i, e in enumerate(exps):
            assert m.expectation(i) == pytest.approx(e, abs=1e-15)

    def test_ignores_pair_consistency(self):
        # both -1 on orthogonal directions is impossible for any
        # pair-consistent model, yet the single-observable model accepts it
        m = single_observable_model([X, Z], [-1.0, -1.0])
        assert m.expectation(0) == -1.0
        assert m.expectation(1) == -1.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            single_observable_model([Z], [1.5])


def enumerate_colorings(vset, mode):
    """Independent exhaustive oracle over all sign tuples."""
    n = len(vset.vectors)
    out = []
    for values in product((1, -1), repeat=n):
        if any(values[i] == -1 and values[j] == -1 for i, j in vset.pairs):
            continue
        if mode == "strict" and any(
            sum(1 for i in t if values[i] == -1) != 1 for t in vset.triples
        ):
            continue
        out.append(values)
    return out


class TestKsColorability:
    def test_single_basis_strict(self):
        vset = VectorSet([X, Y, Z])
        res = ks_colorability(vset, "strict")
        assert res.satisfiable
        assert res.count == 3

    def test_pentagram_pairs_only(self):
        angle = RationalAngle(2, 5)
        theta, delta = angle.theta, angle.delta
        vecs = [direction_from_angles(theta, j * delta) for j in range(5)]
        vset = VectorSet(vecs)
        assert len(vset.pairs) == 5
        assert not vset.triples
        res = ks_colorability(vset, "strict")
        assert res.satisfiable

    def test_two_bases_sharing_z(self):
        b2 = [rotate(d, Z, 0.9) for d in (X, Y)]
        vset = VectorSet([X, Y, Z] + b2)
        res = ks_colorability(vset, "strict")
        assert res.satisfiable
        assert res.count == len(enumerate_colorings(vset, "strict")) == 5

    def test_sat_results_validate(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            vecs = [X, Y, Z]
            for _ in range(4):
                v = rng.normal(size=3)
                v /= np.linalg.norm(v)
                vecs.append(Direction(*v))
            for mode in ("strict", "relaxed"):
                res = ks_colorability(VectorSet(vecs), mode)
                if res.satisfiable:
                    assert isinstance(res.coloring, Coloring)
                    assert res.coloring.values in set(
                        enumerate_colorings(VectorSet(vecs), mode)
                    )

    def test_count_matches_oracle(self):
        b2 = [rotate(d, X, 0.6) for d in (Y, Z)]
        vset = VectorSet([X, Y, Z] + b2)
        res = ks_colorability(vset, "strict")
        assert res.count == len(enumerate_colorings(vset, "strict"))


class TestTriplesViolationFraction:
    def test_single_basis(self):
        assert triples_violation_fraction(VectorSet([X, Y, Z])) == 1.0

    def test_requires_triples(self):
        with pytest.raises(ValueError):
            triples_violation_fraction(VectorSet([X, Y]))

    def test_intertwined_bases_match_oracle(self):
        # three bases pairwise sharing an axis
        vecs = [X, Y, Z]
        vecs += [rotate(d, Z, 0.8) for d in (X, Y)]
        vecs += [rotate(d, X, 1.1) for d in (Y, Z)]
        vset = VectorSet(vecs)
        assert len(vset.triples) >= 3
        got = triples_violation_fraction(vset)
        total = len(vset.triples)
        best = max(
            sum(1 for a, b, c in vset.triples if v[a] * v[b] * v[c] == -1) / total
            for v in enumerate_colorings(vset, "relaxed")
        )
        assert got == pytest.approx(best)
        assert got == 1.0  # strict coloring exists for this small set

    def test_strict_sat_iff_fraction_one(self):
        vset = VectorSet([X, Y, Z])
        assert ks_colorability(vset, "strict").satisfiable
        assert triples_violation_fraction(vset) == 1.0

import math
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import contextant.assignment_model
import contextant.classicality
from contextant.angle_family import RationalAngle, theta_of_delta
from contextant.assignment_model import (
    brute_force_min,
    min_correlation,
    mixture_for_target,
)
from contextant.classicality import (
    COUNT_CAP,
    ColorabilityResult,
    VectorSet,
    decide_pair_family,
    decide_pair_family_generic,
    decide_row,
    find_classical_neighbor,
    ks_colorability,
)
from contextant.cli import THETA_Q_MAX
from contextant.spin_algebra import (
    COMPAT_TOL,
    commutator_norm,
    dichotomic,
    direction_from_angles,
    expectation,
    matmul,
    minus_one_eigenprojector,
)

from check import family_fractions
from conftest import mixture_correlation, pattern_signs

X = (1.0, 0.0, 0.0)
Y = (0.0, 1.0, 0.0)
Z = (0.0, 0.0, 1.0)

PERES33 = Path(__file__).parent / "data" / "peres33.txt"


def peres33():
    return [tuple(map(float, line.split()))
            for line in PERES33.read_text(encoding="utf-8").splitlines()]


def rotate(d, axis, angle):
    """Rodrigues rotation of direction d about a unit axis."""
    v, k = np.array(d), np.array(axis)
    r = (
        v * math.cos(angle)
        + np.cross(k, v) * math.sin(angle)
        + k * np.dot(k, v) * (1 - math.cos(angle))
    )
    r /= np.linalg.norm(r)
    return tuple(r)


class TestDecidePairFamily:
    def test_kcbs_nonclassical(self):
        v = decide_pair_family(RationalAngle(2, 5))
        assert not v.classical
        assert v.margin == pytest.approx(0.18885438199983162, abs=1e-10)
        assert 5 * v.g == pytest.approx(5 - 4 * math.sqrt(5), abs=1e-9)
        assert v.min_corr == Fraction(-3, 5)

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
        for p, q in family_fractions(64):
            v = decide_pair_family(RationalAngle(p, q))
            if v.classical:
                assert v.witness is not None
                assert mixture_correlation(v.witness.components) == Fraction(v.g)

    def test_full_stack_equivalence_small_q(self):
        """Verdict agrees with the first-principles pipeline: quantum value
        from the operator algebra, optimum from the brute-force oracle."""
        rho = minus_one_eigenprojector(dichotomic(Z))
        for p, q in family_fractions(16):
            angle = RationalAngle(p, q)
            v = decide_pair_family(angle)
            delta = angle.delta
            theta = theta_of_delta(delta)
            a = dichotomic(direction_from_angles(theta, 0.0))
            b = dichotomic(direction_from_angles(theta, delta))
            assert commutator_norm(a, b) <= COMPAT_TOL
            quantum = expectation(rho, matmul(a, b))
            assert quantum == pytest.approx(v.g, abs=1e-12)
            hv_min, _ = brute_force_min(q)
            # strict comparison, exact on the hidden-variable side
            assert (Fraction(v.g) < hv_min) == (not v.classical)

    def test_classical_verdict_builds_no_cycle_assignment(self, monkeypatch):
        # the witness is closed-form: the exact-minimum oracle never runs
        def refuse(q):
            raise AssertionError("brute_force_min ran")

        monkeypatch.setattr(contextant.assignment_model, "min_cycle_sum", refuse)
        monkeypatch.setattr(contextant.assignment_model, "brute_force_min", refuse)
        for p, q in [(1, 4), (1, 3), (1, 2), (50000, 199999)]:
            v = decide_pair_family(RationalAngle(p, q))
            assert v.classical
            assert [pattern_signs(s) for _, s in v.witness.components] == [
                "+-" * (q // 2) + "+" * (q % 2), "+" * q]

    def test_one_minimum_per_member_and_a_witness_only_if_classical(
            self, monkeypatch):
        mins, witnesses = [], []

        def counting_min(q):
            mins.append(q)
            return min_correlation(q)

        def counting_witness(*args):
            witnesses.append(args)
            return mixture_for_target(*args)

        # patch every module that holds the names, as perfbench/spans.py does
        for module in (contextant.classicality, contextant.assignment_model):
            monkeypatch.setattr(module, "min_correlation", counting_min)
            monkeypatch.setattr(module, "mixture_for_target", counting_witness)
        for p, q in [(2, 5), (1, 3), (1, 2), (50000, 199999)]:
            mins.clear()
            witnesses.clear()
            v = decide_pair_family(RationalAngle(p, q))
            assert len(mins) == 1, (p, q)
            assert len(witnesses) == v.classical, (p, q)


def linear_scan_neighbor(angle, eps_frac, q_max):
    """Reference: the full ascending scan over every even q' <= q_max."""
    x = Fraction(angle.p, angle.q)
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
def members(draw, q=st.integers(2, 2001)):
    """A family member p/q with q drawn from the given strategy."""
    q = draw(q)
    ps = [p for p in range(-(-q // 4), q // 2 + 1) if math.gcd(p, q) == 1]
    assume(ps)
    return RationalAngle(draw(st.sampled_from(ps)), q)


def odd_members(n_max=30):
    return members(st.integers(1, n_max).map(lambda n: 2 * n + 1))


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
    # Classical, just above 1/4: 1/6 and 3/14 lie below 1/4
    @example(angle=RationalAngle(16, 61), log_eps=-9.0, q_max=14)
    @example(angle=RationalAngle(1001, 2003), log_eps=-7.0, q_max=9000)  # q_max > 4q
    # the window starts at k = q and holds k = q, 2q and 3q, with no hit
    @example(angle=RationalAngle(2, 5), log_eps=-9.0, q_max=30)
    def test_matches_linear_scan(self, angle, log_eps, q_max):
        eps_frac = Fraction(10.0**log_eps)
        assert find_classical_neighbor(angle, eps_frac, q_max) == (
            linear_scan_neighbor(angle, eps_frac, q_max)
        )


def row_of(angle):
    return decide_row(angle.p, angle.q, float(min_correlation(angle.q)))


def same_bits(row, v):
    """decide_row's tuple against the verdict, floats compared bit for bit."""
    return row[0] is v.classical and [x.hex() for x in row[1:]] == [
        x.hex() for x in (v.margin, v.theta, v.g)]


class TestDecideRow:
    def test_matches_verdict_bitwise_up_to_300(self):
        for p, q in family_fractions(300):
            angle = RationalAngle(p, q)
            assert same_bits(row_of(angle), decide_pair_family(angle)), (p, q)

    @settings(max_examples=300, deadline=None)
    @given(angle=members(st.integers(2, 10_000)))
    @example(angle=RationalAngle(1, 2))
    @example(angle=RationalAngle(1, 3))
    @example(angle=RationalAngle(1, 4))
    @example(angle=RationalAngle(2938, 5925))  # the nearest non-tie, 5.9e-9
    # g == float(m) < m: a tie that the exact rule makes Nonclassical
    @example(angle=RationalAngle(6782978, 13568301))
    def test_matches_verdict_bitwise_up_to_10000(self, angle):
        assert same_bits(row_of(angle), decide_pair_family(angle))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), q=st.integers(2, THETA_Q_MAX))
    def test_matches_verdict_bitwise_up_to_theta_q_max(self, data, q):
        # verdict --theta decides approximants with q up to THETA_Q_MAX;
        # p is drawn directly, as listing the members of such a q is slow
        p = data.draw(st.integers(-(-q // 4), q // 2))
        assume(math.gcd(p, q) == 1)
        angle = RationalAngle(p, q)
        assert same_bits(row_of(angle), decide_pair_family(angle))

    def test_exact_path_is_entered_only_for_the_tie_1_2_up_to_2000(self, monkeypatch):
        exact = []

        def recording(angle):
            exact.append((angle.p, angle.q))
            return decide_pair_family(angle)

        monkeypatch.setattr(contextant.classicality, "decide_pair_family", recording)
        for q in range(2, 2001):
            for p in range(-(-q // 4), q // 2 + 1):
                if math.gcd(p, q) == 1:
                    row_of(RationalAngle(p, q))
        assert exact == [(1, 2)]


class TestGenericVerdict:
    def test_classical(self):
        classical, note = decide_pair_family_generic()
        assert classical
        assert "correlation -1" in note


def condition_p_threshold(n: int) -> float:
    """Oracle: numerator threshold (2n+1)/(2pi) * arccos(-n/(n+1)) for odd
    denominator 2n+1; the member is Nonclassical iff p exceeds it (and
    p/(2n+1) lies in the negative-correlation window).  acos near -1 is
    ill-conditioned, its error growing like q^1.5, so it is used only for
    q <= 2001."""
    return (2 * n + 1) / (2.0 * math.pi) * math.acos(-n / (n + 1))


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
        for p, q in family_fractions(201):
            if q % 2 == 0:
                continue
            n = (q - 1) // 2
            v = decide_pair_family(RationalAngle(p, q))
            assert (not v.classical) == (p > condition_p_threshold(n)), (p, q)

    @settings(max_examples=300, deadline=None)
    @given(angle=odd_members(n_max=1000))
    @example(angle=RationalAngle(1, 3))  # the exact tie g = -1/3
    @example(angle=RationalAngle(1000, 2001))  # n/(2n+1) at the top q
    def test_threshold_characterizes_verdict_up_to_2001(self, angle):
        v = decide_pair_family(angle)
        nonclassical = angle.p > condition_p_threshold(angle.q // 2)
        assert v.classical != nonclassical
        assert (v.margin > 0) == nonclassical
        assert v.min_corr == Fraction(-(angle.q - 2), angle.q)

    @settings(max_examples=300, deadline=None)
    @given(angle=members())
    def test_even_q_or_nonnegative_g_is_classical(self, angle):
        # delta/2pi below acos(-1/3)/2pi, the theta = pi/3 boundary, gives g >= 0
        assume(angle.q % 2 == 0
               or Fraction(angle.p, angle.q) < math.acos(-1 / 3) / (2 * math.pi))
        v = decide_pair_family(angle)
        assert v.g >= 0 or angle.q % 2 == 0
        assert v.classical and v.margin <= 0
        assert mixture_correlation(v.witness.components) == Fraction(v.g)


def enumerate_colorings(vset, mode):
    """Independent exhaustive oracle over all sign tuples; the colorings as
    sign strings, '+' or '-' per vector."""
    n = len(vset.vectors)
    out = []
    for values in product((1, -1), repeat=n):
        if any(values[i] == -1 and values[j] == -1 for i, j in vset.pairs):
            continue
        if mode == "strict" and any(
            sum(1 for i in t if values[i] == -1) != 1 for t in vset.triples
        ):
            continue
        out.append("".join("+" if v == 1 else "-" for v in values))
    return out


def backtracking_colorability(vset, mode):
    """Reference: plain backtracking in index order, +1 before -1, without
    propagation; counts the colorings of sets of at most COUNT_CAP vectors.
    The first coloring is a sign string, '+' or '-' per vector."""
    n = len(vset.vectors)
    # A -1 needs every earlier partner at +1.  The pair rule leaves at most
    # one -1 per triple, so in strict mode a +1 needs only that each triple
    # it completes already holds a -1.
    earlier = [[] for _ in range(n)]
    for i, j in vset.pairs:
        earlier[j].append(i)
    completes = [[] for _ in range(n)]
    if mode == "strict":
        for i, j, k in vset.triples:
            completes[k].append((i, j))
    do_count = n <= COUNT_CAP

    count = 0
    first = None
    values = [0] * n  # 0 = unassigned; vectors j and beyond are unassigned
    j = 0
    while j >= 0:
        if j == n:
            count += 1
            if first is None:
                first = "".join("+" if v == 1 else "-" for v in values)
                if not do_count:
                    break
            j -= 1
        elif values[j] == 0:
            values[j] = 1
            if completes[j] and not all(
                    values[a] == -1 or values[b] == -1 for a, b in completes[j]):
                continue
            j += 1
        elif values[j] == 1:
            values[j] = -1
            if earlier[j] and not all(values[i] == 1 for i in earlier[j]):
                continue
            j += 1
        else:
            values[j] = 0
            j -= 1
    return ColorabilityResult(first is not None, first,
                              count if do_count else None)


@st.composite
def peres_subsets(draw):
    """At most 14 of Peres' 33 rays in a drawn order, drawn as whole
    orthogonal triples and single rays so that triples are common."""
    rays = peres33()
    triples = VectorSet(rays).triples
    chosen = {k for t in draw(st.lists(st.sampled_from(triples), max_size=4))
              for k in t}
    chosen.update(draw(st.lists(st.integers(0, 32), max_size=14)))
    return [rays[k] for k in draw(st.permutations(sorted(chosen)))[:14]]


@st.composite
def peres_unions(draw):
    """Two or three Peres subsets of at most 14 rays in all, each turned
    about its own axis, interleaved in a drawn order; with the number of
    orthogonal pairs inside the parts."""
    parts = draw(st.lists(peres_subsets(), min_size=2, max_size=3))
    vecs, pairs = [], 0
    for rays in parts:
        axis = draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
            lambda v: math.hypot(*v) > 0.1))
        axis = tuple(c / math.hypot(*axis) for c in axis)
        angle = draw(st.floats(0.0, 2 * math.pi))
        part = [rotate(d, axis, angle) for d in rays[:14 // len(parts)]]
        pairs += len(VectorSet(part).pairs)
        vecs += part
    return draw(st.permutations(vecs)), pairs


class TestKsColorability:
    def test_single_basis_strict(self):
        vset = VectorSet([X, Y, Z])
        res = ks_colorability(vset, "strict")
        assert res.satisfiable
        assert res.count == 3

    def test_pentagram_pairs_only(self):
        angle = RationalAngle(2, 5)
        delta = angle.delta
        theta = theta_of_delta(delta)
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
                vecs.append(tuple(v))
            for mode in ("strict", "relaxed"):
                res = ks_colorability(VectorSet(vecs), mode)
                # the oracle enumerates in the search's order: + before -
                oracle = enumerate_colorings(VectorSet(vecs), mode)
                assert res.satisfiable == bool(oracle)
                assert res.count == len(oracle)
                if res.satisfiable:
                    assert res.coloring == oracle[0]

    def test_count_matches_oracle(self):
        b2 = [rotate(d, X, 0.6) for d in (Y, Z)]
        vset = VectorSet([X, Y, Z] + b2)
        res = ks_colorability(vset, "strict")
        assert res.count == len(enumerate_colorings(vset, "strict"))

    def test_step_budget(self, monkeypatch):
        # Peres' 33 rays are UNSAT in strict mode after 15 branchings
        vset = VectorSet(peres33())
        monkeypatch.setattr(contextant.classicality, "KS_STEP_BUDGET", 15)
        assert not ks_colorability(vset, "strict").satisfiable
        monkeypatch.setattr(contextant.classicality, "KS_STEP_BUDGET", 14)
        with pytest.raises(ValueError, match="14 steps"):
            ks_colorability(vset, "strict")

    def test_lone_vectors_on_the_step_budget(self, monkeypatch):
        # COUNT_CAP directions in a cone about z: no orthogonal pair, so each
        # vector is a component of its own, one branching, +1 first, x2 count
        vecs = [tuple(c / math.sqrt(5.0) for c in (math.cos(k), math.sin(k), 2.0))
                for k in range(COUNT_CAP)]
        vset = VectorSet(vecs)
        assert not vset.pairs
        expected = ColorabilityResult(True, "+" * COUNT_CAP, 2 ** COUNT_CAP)
        monkeypatch.setattr(contextant.classicality, "KS_STEP_BUDGET", COUNT_CAP)
        assert ks_colorability(vset, "strict") == expected
        monkeypatch.setattr(contextant.classicality, "KS_STEP_BUDGET", COUNT_CAP - 1)
        with pytest.raises(ValueError, match=f"{COUNT_CAP - 1} steps"):
            ks_colorability(vset, "strict")

    @settings(max_examples=300, deadline=None)
    @given(
        rays=peres_subsets(),
        extra=st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 3), max_size=3),
        axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
        angle=st.floats(0.0, 2 * math.pi),
        mode=st.sampled_from(["strict", "relaxed"]),
    )
    def test_matches_backtracking_on_peres_subsets(self, rays, extra, axis,
                                                   angle, mode):
        # rotated Peres rays keep their pairs and triples; a random
        # direction almost never adds one
        assume(math.hypot(*axis) > 0.1)
        assume(all(math.hypot(*v) > 0.1 for v in extra))
        axis = tuple(c / math.hypot(*axis) for c in axis)
        vecs = [rotate(d, axis, angle) for d in rays[:14 - len(extra)]]
        vecs += [tuple(c / math.hypot(*v) for c in v) for v in extra]
        vset = VectorSet(vecs)
        assert ks_colorability(vset, mode) == backtracking_colorability(vset, mode)

    @settings(max_examples=300, deadline=None)
    @given(union=peres_unions(), mode=st.sampled_from(["strict", "relaxed"]))
    def test_matches_backtracking_on_disjoint_unions(self, union, mode):
        # each connected component is searched on its own: the first
        # coloring and the count must still be those of the whole set
        vecs, pairs = union
        vset = VectorSet(vecs)
        assume(len(vset.pairs) == pairs)  # no pair across two parts
        assert ks_colorability(vset, mode) == backtracking_colorability(vset, mode)

    def test_peres33_behind_16_pairs_is_refuted_once(self, monkeypatch):
        # 16 disjoint pairs take 2 branchings each to their first coloring,
        # then Peres' rays 15 to their refutation, all on one budget; Peres'
        # rays are refuted once, not once per coloring of the pairs
        rng = np.random.default_rng(7)
        pairs = []
        for _ in range(16):
            axis = rng.normal(size=3)
            axis = tuple(axis / np.linalg.norm(axis))
            angle = rng.uniform(0.0, 2 * math.pi)
            pairs += [rotate(X, axis, angle), rotate(Y, axis, angle)]
        vset = VectorSet(pairs + peres33())
        assert len(vset.pairs) == 16 + len(VectorSet(peres33()).pairs)
        monkeypatch.setattr(contextant.classicality, "KS_STEP_BUDGET", 47)
        assert ks_colorability(vset, "strict") == ColorabilityResult(False, None, None)
        monkeypatch.setattr(contextant.classicality, "KS_STEP_BUDGET", 46)
        with pytest.raises(ValueError, match="46 steps"):
            ks_colorability(vset, "strict")

    def test_matches_backtracking_on_peres33_and_each_drop(self):
        # 32 and 33 rays lie above COUNT_CAP: the first colorings compare
        rays = peres33()
        for drop in [None, *range(len(rays))]:
            vset = VectorSet([d for k, d in enumerate(rays) if k != drop])
            res = ks_colorability(vset, "strict")
            assert res == backtracking_colorability(vset, "strict"), drop
            assert res.satisfiable == (drop is not None)


@pytest.mark.parametrize("record, field", [
    (RationalAngle(2, 5), "p"),
    (decide_pair_family(RationalAngle(2, 5)), "classical"),
    (ColorabilityResult(True, "+", 2), "count"),
], ids=lambda x: x if isinstance(x, str) else type(x).__name__)
def test_records_are_immutable(record, field):
    # a record holds no field setter and takes no new attribute
    for name in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)

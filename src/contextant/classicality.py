"""Verdict engine for the pair family, plus the trivial single-observable
model and the finite Kochen-Specker colorability search."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .angle_family import (
    G_SIGN_BOUNDARY,
    AngleClass,
    RationalAngle,
    classify,
    g_of_delta,
    theta_of_delta,
)
from .assignment_model import (
    HiddenVariableModel,
    min_correlation,
    mixture_for_target,
)
from .spin_algebra import Direction

ORTHO_TOL = 1e-10
COUNT_CAP = 20


@dataclass(frozen=True)
class ClassicalityVerdict:
    """Outcome of the hidden-variable decision for one family member.

    Classical verdicts carry a mixture witness reproducing the quantum
    correlation exactly; nonclassical ones carry the violation certificate
    (quantum value vs best hidden-variable value) and a positive margin.
    """

    classical: bool
    margin: float
    theta: float
    delta: float
    g: float
    angle: RationalAngle | None = None
    angle_class: AngleClass | None = None
    witness: HiddenVariableModel | None = None
    quantum_value: float | None = None
    best_hv_value: float | None = None
    note: str = ""

    @property
    def verdict(self) -> str:
        return "Classical" if self.classical else "Nonclassical"


def decide_pair_family(angle: RationalAngle) -> ClassicalityVerdict:
    """Exact verdict for step angle 2*pi*p/q.

    Nonnegative quantum correlation or even denominator: classical, with a
    two-component mixture witness.  Odd denominator q = 2n+1: nonclassical
    exactly when (2n-1)/(2n+1) < |g|, with the strict-inequality
    convention (equality reproduces, hence classical).
    """
    delta = angle.delta
    theta = theta_of_delta(delta)
    g = g_of_delta(delta)
    cls = classify(angle)
    m = min_correlation(cls)

    if g >= 0 or Fraction(g) >= m:
        witness = mixture_for_target(g, angle)
        return ClassicalityVerdict(
            classical=True,
            margin=-g - float(-m) if g < 0 else -(1.0 - g),
            theta=theta,
            delta=delta,
            g=g,
            angle=angle,
            angle_class=cls,
            witness=witness,
        )
    return ClassicalityVerdict(
        classical=False,
        margin=-g - float(-m),
        theta=theta,
        delta=delta,
        g=g,
        angle=angle,
        angle_class=cls,
        quantum_value=g,
        best_hv_value=float(m),
    )


def decide_pair_family_generic() -> ClassicalityVerdict:
    """Verdict for any irrational step fraction: classical.

    The alternating assignment along the infinite orbit reaches
    correlation -1, so every quantum value is reproducible.  For
    exhibition, generic_witness_approximant builds a nearby
    even-denominator construction.
    """
    from .angle_family import IRRATIONAL

    return ClassicalityVerdict(
        classical=True,
        margin=0.0,
        theta=float("nan"),
        delta=float("nan"),
        g=float("nan"),
        angle_class=IRRATIONAL,
        note=(
            "irrational step: alternating assignment attains correlation -1; "
            "any target in [-1, 1] is reproducible by mixing with the "
            "uniform assignment"
        ),
    )


def generic_witness_approximant(
    delta: float, q_max: int = 100
) -> tuple[RationalAngle, HiddenVariableModel]:
    """Even-denominator rational near delta whose classical mixture
    approximates the quantum correlation of delta itself."""
    g = g_of_delta(delta)
    best: tuple[float, RationalAngle] | None = None
    for q in range(2, q_max + 1, 2):
        p = round(delta / (2.0 * math.pi) * q)
        if math.gcd(p, q) != 1:
            continue
        try:
            cand = RationalAngle(p, q)
        except ValueError:
            continue
        d = abs(delta / (2.0 * math.pi) - p / q)
        if best is None or d < best[0]:
            best = (d, cand)
    if best is None:
        raise ValueError("no even-denominator approximant found")
    angle = best[1]
    witness = mixture_for_target(max(-1.0, min(1.0, g)), angle)
    assert witness is not None  # even denominator reaches -1
    return angle, witness


def find_classical_neighbor(
    angle: RationalAngle, eps_frac: Fraction, q_max: int
) -> tuple[RationalAngle | None, Fraction | None]:
    """Even-denominator (hence classical) reduced fraction within eps_frac
    of angle's step fraction, denominator <= q_max.

    Returns (neighbor, distance); neighbor is None when q_max is too small,
    in which case distance is the closest achieved.  The result is that of
    an ascending scan over every even q' in [2, q_max]; the scan starts
    later, at max(2, min(lo, q_max - 4q)) rounded up to even, because:

    - a reduced p'/q' with even q' differs from p/q (q odd), so
      |p'/q' - p/q| >= 1/(q q'), and no q' below lo, the first q' with
      q q' eps_frac > 1, has a candidate within eps_frac;
    - among any q consecutive even q' one has p q' = 1 (mod q), which
      makes floor(x q')/q' reduced, at distance exactly 1/(q q') and, for
      q' >= 4, inside [1/4, 1/2]; that beats every candidate with a
      smaller q', so when q_max > 4q the last 4q denominators hold the
      closest candidate in [2, q_max].
    """
    x = angle.fraction
    q = angle.q
    lo = q_max + 1 if eps_frac <= 0 else math.floor(1 / (q * eps_frac)) + 1
    start = max(2, min(lo, q_max - 4 * q))
    best_dist: Fraction | None = None
    for q2 in range(start + start % 2, q_max + 1, 2):
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


def condition_p_threshold(n: int) -> float:
    """Numerator threshold (2n+1)/(2pi) * arccos(-n/(n+1)) for odd
    denominator 2n+1; the family is nonclassical iff p exceeds it (and
    p/(2n+1) lies in the negative-correlation window)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (2 * n + 1) / (2.0 * math.pi) * math.acos(-n / (n + 1))


def admissible_p_range(n: int) -> range:
    """Integers p with acos(-1/3)/2pi < p/(2n+1) <= 1/2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    q = 2 * n + 1
    low = math.floor(G_SIGN_BOUNDARY * q) + 1
    return range(low, n + 1)


@dataclass(frozen=True)
class ProductAssignmentModel:
    """Independent two-point +-1 distribution per direction.

    Reproduces any set of single-observable expectations; by construction
    it never looks at pair correlations.
    """

    directions: tuple[Direction, ...]
    plus_probability: tuple[float, ...]

    def expectation(self, index: int) -> float:
        p = self.plus_probability[index]
        return p - (1.0 - p)


def single_observable_model(
    directions: list[Direction], expectations: list[float]
) -> ProductAssignmentModel:
    """Hidden-variable model matching each single expectation exactly."""
    if len(directions) != len(expectations):
        raise ValueError("directions and expectations must have equal length")
    probs = []
    for e in expectations:
        if not -1.0 <= e <= 1.0:
            raise ValueError(f"expectation {e!r} outside [-1, 1]")
        probs.append((1.0 + e) / 2.0)
    return ProductAssignmentModel(tuple(directions), tuple(probs))


@dataclass
class VectorSet:
    """Directions with their orthogonality structure.

    Pairs and maximal orthogonal triples are derived from the geometry at
    a fixed tolerance; near-orthogonality below it creates no constraint.
    """

    vectors: list[Direction]
    pairs: list[tuple[int, int]] = field(init=False)
    triples: list[tuple[int, int, int]] = field(init=False)

    def __post_init__(self):
        n = len(self.vectors)
        self.pairs = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if abs(self.vectors[i].dot(self.vectors[j])) < ORTHO_TOL
        ]
        pairset = set(self.pairs)
        self.triples = [
            (i, j, k)
            for i, j in self.pairs
            for k in range(j + 1, n)
            if (i, k) in pairset and (j, k) in pairset
        ]


@dataclass(frozen=True)
class Coloring:
    """+-1 value per vector; -1 marks the outcome singled out in a triple."""

    values: tuple[int, ...]


@dataclass(frozen=True)
class ColorabilityResult:
    satisfiable: bool
    coloring: Coloring | None
    count: int | None  # None when the set exceeds the counting cap


def _valid(values: list[int], vset: VectorSet, mode: str) -> bool:
    for i, j in vset.pairs:
        if values[i] == -1 and values[j] == -1:
            return False
    if mode == "strict":
        for t in vset.triples:
            if sum(1 for i in t if values[i] == -1) != 1:
                return False
    return True


def ks_colorability(vset: VectorSet, mode: str = "strict") -> ColorabilityResult:
    """Backtracking search for a Kochen-Specker coloring.

    Strict mode: no orthogonal pair is (-1, -1) and every complete
    orthogonal triple has exactly one -1.  Relaxed mode: at most one -1
    per pair (and hence per triple).  Counts all colorings for sets of at
    most 20 vectors.
    """
    if mode not in ("strict", "relaxed"):
        raise ValueError(f"unknown mode {mode!r}")
    n = len(vset.vectors)
    neighbors = [[] for _ in range(n)]
    for i, j in vset.pairs:
        neighbors[i].append(j)
        neighbors[j].append(i)
    do_count = n <= COUNT_CAP

    count = 0
    first: list[int] | None = None
    values = [0] * n  # 0 = unassigned

    def feasible(i: int) -> bool:
        # pair constraint against already-assigned neighbors
        if values[i] == -1:
            for j in neighbors[i]:
                if values[j] == -1:
                    return False
        if mode == "strict":
            # a fully assigned triple needs exactly one -1; a triple whose
            # unassigned members cannot supply a -1 (all partners of an
            # assigned -1) is checked at completion
            for t in vset.triples:
                if i in t:
                    assigned = [values[v] for v in t]
                    minus = assigned.count(-1)
                    if minus > 1:
                        return False
                    if 0 not in assigned and minus != 1:
                        return False
        return True

    def search(i: int) -> None:
        nonlocal count, first
        if i == n:
            count += 1
            if first is None:
                first = values.copy()
            return
        for v in (1, -1):
            values[i] = v
            if feasible(i):
                search(i + 1)
                if first is not None and not do_count:
                    values[i] = 0
                    return
            values[i] = 0

    search(0)
    if first is None:
        return ColorabilityResult(False, None, 0 if do_count else None)
    coloring = Coloring(tuple(first))
    assert _valid(list(coloring.values), vset, mode)
    return ColorabilityResult(True, coloring, count if do_count else None)


def triples_violation_fraction(vset: VectorSet) -> float:
    """Max over relaxed colorings of the fraction of complete orthogonal
    triples whose value product is -1.  Equals 1 iff a strict coloring
    exists; below 1 it quantifies the finite-set gap against the quantum
    value -1 for every triple."""
    if not vset.triples:
        raise ValueError("vector set contains no complete orthogonal triple")
    n = len(vset.vectors)
    if n > COUNT_CAP:
        raise ValueError(f"exhaustive search capped at {COUNT_CAP} vectors")
    neighbors = [[] for _ in range(n)]
    for i, j in vset.pairs:
        neighbors[i].append(j)
        neighbors[j].append(i)

    best = 0.0
    total = len(vset.triples)
    values = [0] * n

    def search(i: int) -> None:
        nonlocal best
        if i == n:
            hit = sum(
                1
                for a, b, c in vset.triples
                if values[a] * values[b] * values[c] == -1
            )
            best = max(best, hit / total)
            return
        for v in (1, -1):
            if v == -1 and any(values[j] == -1 for j in neighbors[i]):
                continue
            values[i] = v
            search(i + 1)
            values[i] = 0

    search(0)
    return best

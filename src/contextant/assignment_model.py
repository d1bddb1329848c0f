"""Hidden-variable outcome functions on the circle.

Cycle assignments (arc-piecewise-constant +-1 functions), their exact
correlation, the closed-form minima for the three parity classes, the
optimal construction, an independent exact-minimum oracle, mixtures hitting a
target correlation, and the classical-vs-quantum overlap comparison.

Correlations are kept as exact Fractions; floats appear only at the
quantum interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._kernel import min_cycle_sum
from .angle_family import AngleClass, RationalAngle, classify


class ExclusivityError(ValueError):
    """An assignment gives -1 to two adjacent (compatible) positions."""


@dataclass(frozen=True)
class CycleAssignment:
    """+-1 outcomes along the step-orbit cycle.

    values[k] is the outcome on cycle position k; positions k and k+1 mod q
    are compatible measurements, so they can never both be -1.
    """

    values: tuple[int, ...]

    def __post_init__(self):
        q = len(self.values)
        if q < 1:
            raise ValueError("assignment must be nonempty")
        if any(v not in (-1, 1) for v in self.values):
            raise ValueError("assignment values must be +-1")
        for k in range(q):
            if self.values[k] == -1 and self.values[(k + 1) % q] == -1:
                raise ExclusivityError(
                    f"positions {k} and {(k + 1) % q} are both -1"
                )

    @property
    def q(self) -> int:
        return len(self.values)


def cycle_correlation(a: CycleAssignment) -> Fraction:
    """(1/q) * sum_k values[k] * values[k+1 mod q], exact."""
    q = a.q
    s = sum(a.values[k] * a.values[(k + 1) % q] for k in range(q))
    return Fraction(s, q)


def min_correlation(angle_class: AngleClass) -> Fraction:
    """Closed-form minimum of the normalized correlation over admissible
    assignments: -1 for irrational or even-denominator angles,
    -(2n-1)/(2n+1) for odd denominator q = 2n+1."""
    if angle_class.parity == "odd":
        n = angle_class.n
        return Fraction(-(2 * n - 1), 2 * n + 1)
    return Fraction(-1)


def optimal_assignment(angle: RationalAngle) -> CycleAssignment:
    """Exclusivity-respecting minimizer of the cycle correlation.

    Alternating +-1 along the cycle; for odd q the wrap-around pair is the
    single (+1, +1) seam.  Attains min_correlation exactly.
    """
    return CycleAssignment(tuple(1 if k % 2 == 0 else -1 for k in range(angle.q)))


def uniform_assignment(q: int) -> CycleAssignment:
    """All-(+1) assignment; correlation +1."""
    if q < 1:
        raise ValueError("q must be >= 1")
    return CycleAssignment((1,) * q)


def brute_force_min(angle: RationalAngle) -> tuple[Fraction, CycleAssignment]:
    """Exact minimum over all 2^q sign vectors respecting exclusivity.

    Independent oracle for min_correlation: a min-plus transfer-matrix
    sweep around the cycle that never looks at the parity of q, with the
    lowest-mask tie-break of an exhaustive enumeration.  It is no longer
    brute force; the name is kept because the benchmark wraps it.

    Resource limit: q <= _kernel.Q_MAX (100,000); min_cycle_sum raises
    ValueError for larger q.
    """
    q = angle.q
    best_sum, best_mask = min_cycle_sum(q)
    values = tuple(-1 if (best_mask >> k) & 1 else 1 for k in range(q))
    return Fraction(best_sum, q), CycleAssignment(values)


@dataclass(frozen=True)
class HiddenVariableModel:
    """Finite mixture of cycle assignments with nonnegative weights summing
    to 1.  Weights are exact Fractions so reproduction claims are exact."""

    components: tuple[tuple[Fraction, CycleAssignment], ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("model must have at least one component")
        total = sum(w for w, _ in self.components)
        if any(w < 0 for w, _ in self.components):
            raise ValueError("weights must be nonnegative")
        if total != 1:
            raise ValueError(f"weights sum to {total}, not 1")

    def correlation(self) -> Fraction:
        return sum(w * cycle_correlation(a) for w, a in self.components)


def mixture_for_target(
    target_g: float, angle: RationalAngle
) -> HiddenVariableModel | None:
    """Two-component mixture of the optimal and uniform assignments whose
    correlation equals target_g exactly, or None when the target lies below
    the achievable minimum."""
    if abs(target_g) > 1:
        raise ValueError("target correlation must lie in [-1, 1]")
    target = Fraction(target_g)
    m = min_correlation(classify(angle))
    if target < m:
        return None
    w = (1 - target) / (1 - m)  # weight on the optimal component
    return HiddenVariableModel(
        (
            (w, optimal_assignment(angle)),
            (1 - w, uniform_assignment(angle.q)),
        )
    )


def overlap_condition(
    target_g: float, angle_class: AngleClass
) -> tuple[bool, float]:
    """Strict classical-vs-quantum comparison for the pair family.

    For negative quantum correlation the family is nonclassical exactly
    when the achievable minimum cannot reach it; the margin is
    |target_g| - |min|, positive iff nonclassical.  Nonnegative targets are
    always reachable (the uniform assignment overshoots), so the verdict is
    classical with margin -(1 - target_g) <= 0.
    """
    if abs(target_g) > 1:
        raise ValueError("target correlation must lie in [-1, 1]")
    if target_g >= 0:
        return False, -(1.0 - target_g)
    m = min_correlation(angle_class)
    margin = -target_g - float(-m)
    nonclassical = Fraction(target_g) < m
    return nonclassical, margin

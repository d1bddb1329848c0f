"""Hidden-variable outcome functions on the circle.

Cycle assignments (arc-piecewise-constant +-1 functions), their exact
correlation, the closed-form minima for the two parity classes of q, the
optimal construction, an independent exact-minimum oracle, and the mixture
that reproduces the correlation of a member already decided Classical.

Correlations are kept as exact Fractions; floats appear only at the
quantum interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._kernel import min_cycle_sum
from .angle_family import classify


class ExclusivityError(ValueError):
    """An assignment gives -1 to two adjacent (compatible) positions."""


# Largest q for which mixture_for_target builds a witness: printing one
# takes q characters per component, and a classical discontinuity
# neighbour grows like 1/(q * epsilon).
WITNESS_Q_MAX = 10_000_000

_SIGNS = str.maketrans("01", "+-")
_VALUE = {"+": 1, "-": -1}


def _rot1(mask: int, q: int) -> int:
    """Rotate a q-bit mask down by one: bit k of the result is bit k+1 mod q."""
    return (mask >> 1) | ((mask & 1) << (q - 1))


@dataclass(frozen=True)
class CycleAssignment:
    """+-1 outcomes along the step-orbit cycle, stored as a q-bit mask.

    Bit k of mask set means outcome -1 on cycle position k (the encoding of
    _kernel); positions k and k+1 mod q are compatible measurements, so
    they can never both be -1.
    """

    q: int
    mask: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("assignment must be nonempty")
        if not 0 <= self.mask < 1 << self.q:
            raise ValueError(f"mask must lie in [0, 2^{self.q})")
        clash = self.mask & _rot1(self.mask, self.q)
        if clash:
            k = (clash & -clash).bit_length() - 1
            raise ExclusivityError(
                f"positions {k} and {(k + 1) % self.q} are both -1"
            )

    @property
    def signs(self) -> str:
        """'+'/'-' per cycle position, position 0 first."""
        return format(self.mask, f"0{self.q}b")[::-1].translate(_SIGNS)

    @property
    def values(self) -> tuple[int, ...]:
        """values[k] is the outcome (+1 or -1) on cycle position k."""
        return tuple(map(_VALUE.__getitem__, self.signs))


def cycle_correlation(a: CycleAssignment) -> Fraction:
    """(1/q) * sum_k values[k] * values[k+1 mod q], exact: each cyclic edge
    adds +1 when its two bits agree and -1 when they differ."""
    return Fraction(a.q - 2 * (a.mask ^ _rot1(a.mask, a.q)).bit_count(), a.q)


def min_correlation(q: int) -> Fraction:
    """Closed-form minimum of the normalized correlation over admissible
    assignments on q >= 2 cycle positions (ValueError otherwise): -1 for
    even q = 2n, -(2n-1)/(2n+1) for odd q = 2n+1, by the parity of q."""
    odd, n = classify(q)
    return Fraction(-(2 * n - 1), 2 * n + 1) if odd else Fraction(-1)


def optimal_assignment(q: int) -> CycleAssignment:
    """Exclusivity-respecting minimizer of the cycle correlation on q
    positions.

    Alternating +-1 along the cycle; for odd q the wrap-around pair is the
    single (+1, +1) seam.  Attains min_correlation exactly.
    """
    return CycleAssignment(q, ((1 << 2 * (q // 2)) - 1) // 3 << 1)


def uniform_assignment(q: int) -> CycleAssignment:
    """All-(+1) assignment; correlation +1."""
    return CycleAssignment(q, 0)


def brute_force_min(q: int) -> tuple[Fraction, CycleAssignment]:
    """Exact minimum over all 2^q sign vectors on q cycle positions
    respecting exclusivity, with its minimizer.

    Independent oracle for min_correlation: a min-plus transfer-matrix
    sweep around the cycle that never looks at the parity of q, with the
    lowest-mask tie-break of an exhaustive enumeration.  It is no longer
    brute force; the name is kept because the benchmark wraps it.

    Resource limit: q <= _kernel.Q_MAX (100,000); min_cycle_sum raises
    ValueError for larger q.
    """
    best_sum, best_mask = min_cycle_sum(q)
    return Fraction(best_sum, q), CycleAssignment(q, best_mask)


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
    target: Fraction, m: Fraction, q: int
) -> HiddenVariableModel:
    """Two-component mixture of the optimal and uniform assignments on q
    positions whose correlation equals target exactly; m is the minimum
    min_correlation of q's parity class, the optimal component's value.

    The caller decides: target must lie in [m, 1], and HiddenVariableModel
    rejects a weight outside [0, 1], so a target outside raises ValueError.
    Resource limit: q > WITNESS_Q_MAX raises ValueError before any
    assignment is built.
    """
    if q > WITNESS_Q_MAX:
        raise ValueError(
            f"q = {q} above the witness limit {WITNESS_Q_MAX}"
        )
    w = (1 - target) / (1 - m)  # weight on the optimal component
    return HiddenVariableModel(
        (
            (w, optimal_assignment(q)),
            (1 - w, uniform_assignment(q)),
        )
    )

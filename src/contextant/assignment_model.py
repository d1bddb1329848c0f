"""Hidden-variable outcome functions on the circle.

Cycle assignments (arc-piecewise-constant +-1 functions) for the exact
minimum oracle, the closed-form minima for the two parity classes of q,
and the mixture of two closed-form sign patterns that reproduces the
correlation of a member already decided Classical.

Correlations are kept as exact Fractions; floats appear only at the
quantum interface.
"""

from __future__ import annotations

from collections import namedtuple
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


def min_correlation(q: int) -> Fraction:
    """Closed-form minimum of the normalized correlation over admissible
    assignments on q >= 2 cycle positions (ValueError otherwise): -1 for
    even q = 2n, -(2n-1)/(2n+1) for odd q = 2n+1, by the parity of q."""
    odd, n = classify(q)
    return Fraction(-(2 * n - 1), 2 * n + 1) if odd else Fraction(-1)


def brute_force_min(q: int) -> tuple[Fraction, CycleAssignment]:
    """Exact minimum over all 2^q sign vectors on q cycle positions
    respecting exclusivity, with its minimizer.

    Independent oracle for min_correlation: a min-plus transfer-matrix
    sweep around the cycle that never looks at the parity of q, with the
    lowest-mask tie-break of an exhaustive enumeration.  It is no longer
    brute force; the name is kept because the benchmark wraps it.  Its
    minimizer is the only CycleAssignment the program builds: a witness
    holds the closed-form sign strings of mixture_for_target.

    Resource limit: q <= _kernel.Q_MAX (100,000); min_cycle_sum raises
    ValueError for larger q.
    """
    best_sum, best_mask = min_cycle_sum(q)
    return Fraction(best_sum, q), CycleAssignment(q, best_mask)


# A witness: (weight, sign string) pairs, position 0 first in each string.
Mixture = namedtuple("Mixture", "components")


def mixture_for_target(target: Fraction, m: Fraction, q: int) -> Mixture:
    """Mixture of two closed-form patterns on q positions whose correlation
    equals target exactly; m is min_correlation(q).

    The optimal pattern alternates "+-" from position 0, with one "+" more
    for odd q, whose wrap-around pair is the single ("+", "+") seam: it
    attains m.  The uniform pattern "+" * q has correlation 1.  So the
    certificate is the weight w = (1 - target)/(1 - m) on the optimal one
    together with q.

    Raises ValueError for q > WITNESS_Q_MAX (before any pattern is built)
    and for a target outside [m, 1], where a weight would be negative.
    """
    if q > WITNESS_Q_MAX:
        raise ValueError(
            f"q = {q} above the witness limit {WITNESS_Q_MAX}"
        )
    if not m <= target <= 1:
        raise ValueError(
            f"target {target} outside [{m}, 1]: weights must be nonnegative"
        )
    w = (1 - target) / (1 - m)  # weight on the optimal pattern
    return Mixture(((w, "+-" * (q // 2) + "+" * (q % 2)), (1 - w, "+" * q)))

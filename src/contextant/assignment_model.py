"""Hidden-variable outcome functions on the circle.

Cycle assignments (arc-piecewise-constant +-1 functions), each a sign
string with '+' or '-' per cycle position, position 0 first: the exact
minimum oracle's minimizer, the closed-form minima for the two parity
classes of q, and the mixture of two closed-form patterns that reproduces
the correlation of a member already decided Classical.

Correlations are kept as exact Fractions; floats appear only at the
quantum interface.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from ._kernel import min_cycle_sum
from .angle_family import classify


class ExclusivityError(ValueError):
    """An assignment gives -1 to two adjacent (compatible) positions."""


# Largest q for which mixture_for_target builds a witness: printing one
# takes q characters per component, and a classical discontinuity
# neighbour grows like 1/(q * epsilon).
WITNESS_Q_MAX = 10_000_000


def min_correlation(q: int) -> Fraction:
    """Closed-form minimum of the normalized correlation over admissible
    assignments on q >= 2 cycle positions (ValueError otherwise): -1 for
    even q = 2n, -(2n-1)/(2n+1) for odd q = 2n+1, by the parity of q."""
    odd, n = classify(q)
    return Fraction(-(2 * n - 1), 2 * n + 1) if odd else Fraction(-1)


def brute_force_min(q: int) -> tuple[Fraction, str]:
    """Exact minimum over all 2^q sign vectors on q cycle positions
    respecting exclusivity, with its minimizer as a sign string.

    Independent oracle for min_correlation: a min-plus transfer-matrix
    sweep around the cycle that never looks at the parity of q, with the
    tie-break of an exhaustive enumeration (_kernel.min_cycle_sum).  It is
    no longer brute force; the name is kept because the benchmark wraps
    it.  Positions k and k+1 mod q are compatible measurements, so they
    can never both be -1: the minimizer is checked for that, and
    ExclusivityError names the lowest clash.

    Resource limit: q <= _kernel.Q_MAX (100,000); min_cycle_sum raises
    ValueError for larger q.
    """
    best_sum, signs = min_cycle_sum(q)
    k = (signs + signs[0]).find("--")
    if k >= 0:
        raise ExclusivityError(f"positions {k} and {(k + 1) % q} are both -1")
    return Fraction(best_sum, q), signs


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

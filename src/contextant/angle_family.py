"""Geometry of the tilted pair family.

The compatibility angle between successive measurement directions at
tilt theta, its inverse, the quantum pair correlation g, exact rational
angles and the parity class (odd, n) of a denominator, and best rational
approximation of a float angle.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

THETA_MIN = math.pi / 4
THETA_MAX = math.pi / 2
DELTA_MIN = math.pi / 2
DELTA_MAX = math.pi

# Slack of the theta and delta range checks.  A float endpoint lies within
# an ulp of the true one (math.pi is 1.2e-16 below pi), and the theta that
# this program prints for p/q = 1/2, 0.785398163397 at 12 digits, lies
# 4.5e-13 below pi/4: 1e-12 accepts both, and refuses an angle 1e-12 or
# more outside the range.
_EPS = 1e-12


def theta_in_range(theta: float) -> bool:
    """Whether theta lies in [pi/4, pi/2] up to _EPS: the domain of
    delta_of_theta and g_of_theta.

    A tilt less than _EPS below pi/4, such as 0.7853981633974483 (the float
    nearest pi/4, 3.06e-17 below it) or the printed 0.785398163397, has
    cot^2 theta > 1 and so no orthogonal pair of its own.  Both functions
    clamp it to the end of the family, delta = pi and g = -1: it is decided
    as the tilt pi/4, the member 1/2, and verdict --theta prints that delta.
    """
    return THETA_MIN - _EPS <= theta <= THETA_MAX + _EPS


def delta_in_range(delta: float) -> bool:
    """Whether delta lies in [pi/2, pi] up to _EPS: the domain of
    theta_of_delta, g_of_delta and rational_approximants."""
    return DELTA_MIN - _EPS <= delta <= DELTA_MAX + _EPS


def delta_of_theta(theta: float) -> float:
    """Compatibility angle arccos(-cot^2 theta), for theta in [pi/4, pi/2].

    Directions at tilt theta separated by this azimuthal step are
    orthogonal; outside [pi/4, pi/2] no orthogonal pair exists.
    """
    if not theta_in_range(theta):
        raise ValueError(f"theta = {theta!r} outside [pi/4, pi/2]")
    c, s = math.cos(theta), math.sin(theta)
    arg = -(c * c) / (s * s)
    return math.acos(max(-1.0, min(1.0, arg)))


def theta_of_delta(delta: float) -> float:
    """Tilt angle with cot^2 theta = -cos(delta), for delta in [pi/2, pi]."""
    if not delta_in_range(delta):
        raise ValueError(f"delta = {delta!r} outside [pi/2, pi]")
    return math.atan2(1.0, math.sqrt(max(0.0, -math.cos(delta))))


def g_of_theta(theta: float) -> float:
    """Quantum pair correlation 1 - 4 cos^2 theta in the m=0 state."""
    if not theta_in_range(theta):
        raise ValueError(f"theta = {theta!r} outside [pi/4, pi/2]")
    c = math.cos(theta)
    return max(-1.0, min(1.0, 1.0 - 4.0 * c * c))


def g_of_delta(delta: float) -> float:
    """Pair correlation as a function of the step angle: (1+3cos)/(1-cos)."""
    if not delta_in_range(delta):
        raise ValueError(f"delta = {delta!r} outside [pi/2, pi]")
    c = math.cos(delta)
    return max(-1.0, min(1.0, (1.0 + 3.0 * c) / (1.0 - c)))


class RationalAngle(namedtuple("RationalAngle", "p q")):
    """Step angle 2*pi*p/q with p, q coprime and p/q in [1/4, 1/2]."""

    __slots__ = ()

    def __new__(cls, p: int, q: int):
        if p < 1 or q < 1:
            raise ValueError("p and q must be positive")
        if math.gcd(p, q) != 1:
            raise ValueError(f"p = {p} and q = {q} are not coprime")
        if not q <= 4 * p <= 2 * q:
            raise ValueError(f"p/q = {Fraction(p, q)} outside [1/4, 1/2]")
        return super().__new__(cls, p, q)

    @property
    def delta(self) -> float:
        try:
            delta = 2.0 * math.pi * self.p / self.q
        except OverflowError:  # p or q beyond the float range
            delta = math.inf
        if delta == math.inf:  # or 2*pi*p
            raise ValueError("step angle 2*pi*p/q does not fit a float")
        return delta


def classify(q: int) -> tuple[bool, int]:
    """Parity class of the denominator q >= 2 as (odd, n): even q = 2n or
    odd q = 2n+1.  Only assignment_model.min_correlation calls it."""
    if q < 2:
        raise ValueError(f"parity class requires q >= 2, got {q}")
    return q % 2 == 1, q // 2


def _best_approximations(x: Fraction, q_max: int) -> list[tuple[int, int]]:
    """Continued-fraction convergents and intermediate fractions h/k of x
    with denominator k <= q_max, as (h, k) pairs in increasing order of k.
    Each pair is in lowest terms: its determinant with the convergent
    before it is +-1."""
    out: list[tuple[int, int]] = []
    # convergents h/k via the standard recurrence
    a_list: list[int] = []
    xn, xd = num, den = x.numerator, x.denominator
    while den:
        a = num // den
        a_list.append(a)
        num, den = den, num - a * den
    h_prev, k_prev = 1, 0
    h, k = a_list[0], 1
    out.append((h, k))
    for i in range(1, len(a_list)):
        a = a_list[i]
        # semiconvergents c*h + h_prev for c = a//2..a; the c = a case is
        # the next convergent.  One with c < a/2 never beats h/k, so the
        # loop costs about as much as the fractions it can return.
        # A semiconvergent is a best approximation iff it beats the previous
        # convergent; check directly in integers: |hn/kn - x| < |h/k - x|
        # multiplied through by kn * k * xd > 0.  h/k is not the last
        # convergent, so h_err > 0 and x itself passes.
        h_err = abs(h * xd - xn * k)
        for c in range(max(1, a // 2), a + 1):
            hn, kn = c * h + h_prev, c * k + k_prev
            if kn > q_max:
                return out
            if abs(hn * xd - xn * kn) * k < h_err * kn:
                out.append((hn, kn))
        h_prev, k_prev, h, k = h, k, a * h + h_prev, a * k + k_prev
    return out


def rational_approximants(
    delta: float, q_max: int
) -> list[tuple[int, int, float]]:
    """Best rational approximations p/q of x = delta/2pi with q <= q_max.

    Returns (p, q, |x - p/q|) triples sorted by (distance, q); fractions
    outside [1/4, 1/2] are dropped.  Each p/q is in lowest terms (see
    _best_approximations), so it is a valid RationalAngle, but none is built.
    """
    if not delta_in_range(delta):
        raise ValueError(f"delta = {delta!r} outside [pi/2, pi]")
    if q_max < 2:
        raise ValueError("q_max must be >= 2")
    x = delta / (2.0 * math.pi)
    results = []
    for p, q in _best_approximations(Fraction(x), q_max):
        if q <= 4 * p <= 2 * q:
            # p / q rounds correctly, as float(Fraction(p, q)) does: the same float
            results.append((p, q, abs(x - p / q)))
    results.sort(key=lambda t: (t[2], t[1]))
    return results

"""Verdict engine for the pair family, the classical-neighbour search of
the discontinuity probe, and the finite Kochen-Specker colorability
search."""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .angle_family import (
    Direction,
    RationalAngle,
    g_of_delta,
    theta_of_delta,
)
from .assignment_model import min_correlation, mixture_for_target

ORTHO_TOL = 1e-10
COUNT_CAP = 20
# Branchings of ks_colorability: Peres' 33 rays take 15, one ray and 19 orthogonal
# to it 524,288, COUNT_CAP lone vectors 20; using it all up takes 7-9 s (README).
KS_STEP_BUDGET = 1_000_000
# Dot products plus triple-candidate checks of VectorSet: 5,000 vectors
# without an orthogonal pair take 12,497,500, 1.9-2.1 s on a 2-vCPU Xeon.
VECTORSET_BUDGET = 15_000_000

VERDICT = ("Nonclassical", "Classical")  # indexed by the classical flag


class ClassicalityVerdict(namedtuple(
        "ClassicalityVerdict",
        "classical margin theta delta g min_corr angle witness")):
    """Outcome of the hidden-variable decision for the member angle.

    min_corr is the exact classical minimum of the member's parity class.
    A Classical verdict's certificate is (w, q): its witness mixes the
    closed-form alternating pattern, which attains min_corr, with weight
    w = (1 - Fraction(g))/(1 - min_corr) and the all-"+" pattern with
    weight 1 - w, both q characters long.  It reproduces Fraction(g), the
    exact float g: for irrational cos(2*pi*p/q) a float neighbour of the
    member's correlation (at 1/3 w is 36028797018963957/36028797018963968,
    not 1).  A Nonclassical verdict has witness None and the certificate
    g < min_corr.  The margin is positive iff nonclassical.
    """

    __slots__ = ()

    @property
    def verdict(self) -> str:
        return VERDICT[self.classical]


def _margin(g: float, m_f: float) -> float:
    """How far g lies below the minimum m_f for negative g, g - 1
    otherwise; positive iff nonclassical."""
    return m_f - g if g < 0 else -(1.0 - g)


def decide_pair_family(angle: RationalAngle) -> ClassicalityVerdict:
    """Exact verdict for step angle 2*pi*p/q.

    Classical exactly when Fraction(g) is at least the closed-form minimum
    m: -1 for even q, -(2n-1)/(2n+1) for odd q = 2n+1 (equality
    reproduces, hence classical).  Only a Classical member gets a witness:
    mixture_for_target's weight w on the alternating pattern and 1 - w on
    the all-"+" one, reproducing Fraction(g) (see ClassicalityVerdict).
    Raises ValueError for a Classical member whose q exceeds WITNESS_Q_MAX.
    """
    delta = angle.delta
    g = g_of_delta(delta)
    m = min_correlation(angle.q)
    target = Fraction(g)
    classical = target >= m
    return ClassicalityVerdict(
        classical=classical,
        margin=_margin(g, float(m)),
        theta=theta_of_delta(delta),
        delta=delta,
        g=g,
        min_corr=m,
        angle=angle,
        witness=mixture_for_target(target, m, angle.q) if classical else None,
    )


def decide_row(p: int, q: int, m_f: float) -> tuple[bool, float, float, float]:
    """(classical, margin, theta, g) of decide_pair_family(RationalAngle(p, q)),
    bit for bit, without building the witness.

    p/q must be reduced and in [1/4, 1/2] (not checked), and m_f must be
    float(m) for the exact minimum m of q's parity class.  The rule of
    decide_pair_family is Fraction(g) >= m.  m_f is the float nearest m, so
    no float lies strictly between them: for g != m_f that rule is g > m_f.
    Only the tie g == m_f needs m itself, and decide_pair_family decides it;
    for q <= 10000 the only tie is 1/2.

    g and theta come from one cosine c of delta = 2.0*math.pi*p/q, in the
    float operations of g_of_delta and theta_of_delta, so they are theirs
    bit for bit (TestDecideRow pins this through decide_pair_family).  No
    range check is needed: q <= 4p <= 2q puts delta within a couple of ulp
    of [pi/2, pi], far inside angle_family._EPS.  Scan and verdict --theta
    pass only such p/q.
    """
    c = math.cos(2.0 * math.pi * p / q)  # of RationalAngle.delta
    g = (1.0 + 3.0 * c) / (1.0 - c)
    g = -1.0 if g < -1.0 else 1.0 if g > 1.0 else g
    classical = g > m_f or g == m_f and decide_pair_family(
        RationalAngle(p, q)).classical
    return (classical, m_f - g if g < 0 else -(1.0 - g),  # _margin(g, m_f)
            math.atan2(1.0, math.sqrt(-c) if c < 0.0 else 0.0), g)


def decide_pair_family_generic() -> tuple[bool, str]:
    """(classical, reason) for any irrational step fraction: classical.

    The alternating assignment along the infinite orbit reaches
    correlation -1, so every quantum value is reproducible.
    """
    return True, (
        "irrational step: alternating assignment attains correlation -1; "
        "any target in [-1, 1] is reproducible by mixing with the "
        "uniform assignment"
    )


def find_classical_neighbor(
    angle: RationalAngle, eps_frac: Fraction, q_max: int
) -> tuple[RationalAngle | None, Fraction | None]:
    """Even-denominator (hence classical) reduced fraction within eps_frac
    of x = p/q, angle's step fraction, denominator <= q_max; q must be odd.

    Returns (neighbor, distance); neighbor is None when q_max is too small,
    in which case distance is the closest achieved.  The result is that of
    an ascending scan over every even q' = 2k <= q_max of the reduced
    floor(x q')/q' and ceil(x q')/q' in [1/4, 1/2].  With kp = hq + r > hq
    their numerators hold one odd number, c = 2h + 1, |q - 2r|/(2kq) from
    x, and an even one is never reduced.  The loop starts later, at
    q' = max(2, min(lo, q_max - 4q)) rounded up to even, because:

    - a reduced p'/q' lies at least 1/(q q') from x, so no q' below lo,
      the first q' with q q' eps_frac > 1, is within eps_frac;
    - among any q consecutive k one has |q - 2r| = 1, which makes c/2k
      reduced, 1/(2kq) from x and, for k >= 2, in [1/4, 1/2]: closer than
      any smaller q', so if q_max > 4q the last 4q denominators hold the
      closest candidate in [2, q_max].

    Where the scan would reject c/2k, a smaller k holds a candidate at least
    as close, which the loop finds first or beats; so c/2k is not tested.
    No gcd test: a common factor g is odd, so (c/g)/(2k/g) is the same
    fraction.  No range test: c lies within 1 of 2kx < k, and c/2k < 1/4
    lies farther from x than 1/4 at k = 2.  No r == 0 test: q then divides
    k, both numerators are 2h, and c/2k lies 1/(2k) from x, farther than
    the 1/(2k'q) of one of the two k' in (k - q, k) with |q - 2r'| = 1.
    """
    p, q = angle.p, angle.q
    lo = q_max + 1 if eps_frac <= 0 else math.floor(1 / (q * eps_frac)) + 1
    start = max(2, min(lo, q_max - 4 * q))
    en, ed = eps_frac.numerator, eps_frac.denominator
    best_num, best_k = 1, 0  # closest |q - 2r| / (2kq) so far; 1/0 = none
    for k in range((start + 1) // 2, q_max // 2 + 1):
        h, r = divmod(k * p, q)
        num = abs(q - 2 * r)
        if num * ed < en * 2 * k * q:
            return RationalAngle(2 * h + 1, 2 * k), Fraction(num, 2 * k * q)
        if num * best_k < best_num * k:
            best_num, best_k = num, k
    return None, Fraction(best_num, 2 * best_k * q) if best_k else None


def dot_products(n: int) -> int:
    """The n(n-1)/2 dot products of VectorSet's search for orthogonal pairs."""
    return n * (n - 1) // 2


class VectorSet:
    """Directions with their orthogonality structure.

    Pairs and maximal orthogonal triples are derived from the geometry at
    a fixed tolerance; near-orthogonality below it creates no constraint.
    ORTHO_TOL = 1e-10 parts the |u.v| of orthogonal pairs, at most 7.6e-16 on the
    benchmark's search-stream ks sets (seeds 1-3), from the rest, at least 0.12.
    Raises ValueError when the n(n-1)/2 dot products plus the n-j-1
    triple candidates (i, j, k > j) of every pair (i, j) exceed
    VECTORSET_BUDGET: checked once per row of the pair loop, so before
    the pairs outgrow it and before any triple is listed.
    """

    def __init__(self, vectors: list[Direction]):
        self.vectors = vectors
        self.__post_init__()

    def __post_init__(self):
        """Derive pairs and triples; the benchmark's span wraps this name."""
        vectors = self.vectors
        n = len(vectors)
        work = dot_products(n)
        self.pairs = []
        # row n - 1 has no pair, so checking at the top of each row suffices
        for i, (ux, uy, uz) in enumerate(vectors):
            if work > VECTORSET_BUDGET:
                raise ValueError(f"vector set needs more than {VECTORSET_BUDGET} "
                                 "dot products and triple checks")
            # Direction.dot's sum, in its order, on unpacked coordinates:
            # reading each namedtuple field by name costs more per pair
            for j, (vx, vy, vz) in enumerate(vectors[i + 1:], i + 1):
                if abs(ux * vx + uy * vy + uz * vz) < ORTHO_TOL:
                    work += n - j - 1
                    self.pairs.append((i, j))
        pairset = set(self.pairs)
        self.triples = [
            (i, j, k)
            for i, j in self.pairs
            for k in range(j + 1, n)
            if (i, k) in pairset and (j, k) in pairset
        ]


# coloring: '+' or '-' per vector in file order, '-' = singled out, or None
# when unsatisfiable; count: None when the set exceeds the counting cap
ColorabilityResult = namedtuple("ColorabilityResult", "satisfiable coloring count")

_PLUS_MINUS = str.maketrans("10", "+-")


def _valid(coloring: str, vset: VectorSet, mode: str) -> bool:
    for i, j in vset.pairs:
        if coloring[i] == coloring[j] == "-":
            return False
    if mode == "strict":
        for t in vset.triples:
            if sum(coloring[i] == "-" for i in t) != 1:
                return False
    return True


def _components(partners: list[int]):
    """The connected components of the pair graph, as masks in order of
    their lowest index; partners[k] is the mask of k's neighbours."""
    rest = (1 << len(partners)) - 1
    while rest:
        comp = edge = rest & -rest
        while edge:  # flood fill: edge holds the vectors reached last
            reach = 0
            while edge:
                low = edge & -edge
                edge ^= low
                reach |= partners[low.bit_length() - 1]
            edge = reach & ~comp
            comp |= edge
        rest ^= comp
        yield comp


def ks_colorability(vset: VectorSet, mode: str = "strict") -> ColorabilityResult:
    """Kochen-Specker coloring by depth-first search with unit propagation.

    Strict mode: no orthogonal pair is (-1, -1) and every complete
    orthogonal triple has exactly one -1.  Relaxed mode: at most one -1
    per pair (and hence per triple).  Counts all colorings for sets of at
    most COUNT_CAP vectors.  The search branches on the lowest uncolored
    vector, +1 first, and a forced value is the only one in its branch, so
    the coloring returned is the first in index order, +1 before -1.
    Each connected component of the pair graph is searched on its own, in
    order of its lowest index: the components are independent, so the set
    is UNSAT if one of them is, its first coloring is the union of theirs
    and its count the product of theirs; a vector without a partner is one
    (one branching, +1 first, x2 on the count).  Raises ValueError after
    KS_STEP_BUDGET branchings over all components.
    """
    if mode not in ("strict", "relaxed"):
        raise ValueError(f"unknown mode {mode!r}")
    n = len(vset.vectors)
    partners = [0] * n
    for i, j in vset.pairs:
        partners[i] |= 1 << j
        partners[j] |= 1 << i
    others = [[] for _ in range(n)]  # per vector, the rest of each triple
    for t in vset.triples if mode == "strict" else ():
        for k in t:
            others[k].append(sum(1 << i for i in t if i != k))

    def settle(plus: int, minus: int, ups: int):
        """Propagate the +1s in ups, just set: a triple with two +1 makes its
        third -1, and a -1 makes its partners +1.  None on a clash."""
        while ups:
            low = ups & -ups
            ups ^= low
            for m in others[low.bit_length() - 1]:
                p = plus & m
                if p == m:
                    return None
                if p and not minus & m:  # the third is forced to -1
                    minus |= m ^ p
                    new = partners[(m ^ p).bit_length() - 1]
                    plus, ups = plus | new, ups | new & ~plus
        return plus, minus

    first, steps, count = 0, 0, 1
    for comp in _components(partners):
        stack = [(0, 0)]  # (plus, minus) masks still to search; None on a clash
        comp_first, comp_count = None, 0
        while stack:
            state = stack.pop()
            if state is None:
                continue
            plus, minus = state
            unset = comp & ~(plus | minus)
            if unset:
                steps += 1
                if steps > KS_STEP_BUDGET:
                    raise ValueError(
                        f"coloring search exceeded {KS_STEP_BUDGET} steps")
                low = unset & -unset
                j = low.bit_length() - 1
                new = partners[j] & ~plus  # no partner of an uncolored vector is -1
                down, up = (plus | new, minus | low), (plus | low, minus)
                stack.append(settle(*down, new) if new else down)
                stack.append(settle(*up, low) if others[j] else up)  # on top: +1 first
            else:
                comp_count += 1
                comp_first = plus if comp_first is None else comp_first
                if n > COUNT_CAP:
                    break
        if comp_first is None:
            return ColorabilityResult(False, None, 0 if n <= COUNT_CAP else None)
        first |= comp_first
        count *= comp_count

    # bit k of first is set for +1 at vector k; bin lists the bits from the
    # top, and the 1 above them keeps the n digits when first is small
    coloring = bin(first | 1 << n)[:2:-1].translate(_PLUS_MINUS)
    assert _valid(coloring, vset, mode)
    return ColorabilityResult(
        True, coloring, count if n <= COUNT_CAP else None)

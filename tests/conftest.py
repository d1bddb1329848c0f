"""CLI tests start `python -m contextant.cli` in a subprocess; put the
source tree on its PYTHONPATH so they also run from an uninstalled
checkout.  Helpers shared by several test modules live here too.

The benchmark's independent checker, perfbench/check.py, is put on
sys.path, so test modules import its family_fractions (the reduced p/q in
[1/4, 1/2], by q then p) and sign_correlation (the exact correlation of a
'+'/'-' cycle string, position 0 first) as `from check import ...`."""

import os
import sys
from pathlib import Path

from contextant.assignment_model import pattern_chunks

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))
sys.path[:0] = [str(ROOT / "perfbench")]

from check import sign_correlation  # noqa: E402


def pattern_signs(pattern):
    """The sign string of a witness pattern: the pieces the CLI writes,
    joined."""
    return "".join(pattern_chunks(pattern))


def mixture_correlation(components):
    """Exact correlation of a mixture of (weight, pattern) pairs, whose
    weights must be nonnegative and sum to 1."""
    assert all(w >= 0 for w, _ in components)
    assert sum(w for w, _ in components) == 1
    return sum(w * sign_correlation(pattern_signs(s)) for w, s in components)


def mask_signs(mask, q):
    """The sign string of a q-bit mask: '-' at position k iff bit k is set."""
    return "".join("-" if (mask >> k) & 1 else "+" for k in range(q))



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

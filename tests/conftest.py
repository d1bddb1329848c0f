"""CLI tests start `python -m contextant.cli` in a subprocess; put the
source tree on its PYTHONPATH so they also run from an uninstalled
checkout.  Helpers shared by several test modules live here too."""

import math
import os
from fractions import Fraction
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))


def coprime_pairs(q_max):
    """The reduced p/q in [1/4, 1/2] with 2 <= q <= q_max, by q then p."""
    for q in range(2, q_max + 1):
        for p in range(1, q // 2 + 1):
            if math.gcd(p, q) == 1 and Fraction(1, 4) <= Fraction(p, q) <= Fraction(1, 2):
                yield p, q


# The oracle that checks a printed witness: sign strings, '+'/'-' per cycle
# position with position 0 first, and their exact correlations.
def signs_correlation(signs):
    """(1/q) * sum_k v[k] * v[k+1 mod q] of a sign string, exact: each
    cyclic edge adds +1 where its two signs agree and -1 where they
    differ."""
    q = len(signs)
    flips = sum(a != b for a, b in zip(signs, signs[1:] + signs[:1]))
    return Fraction(q - 2 * flips, q)


def mixture_correlation(components):
    """Exact correlation of a mixture of (weight, sign string) pairs, whose
    weights must be nonnegative and sum to 1."""
    assert all(w >= 0 for w, _ in components)
    assert sum(w for w, _ in components) == 1
    return sum(w * signs_correlation(s) for w, s in components)


def mask_signs(mask, q):
    """The sign string of a q-bit mask: '-' at position k iff bit k is set."""
    return "".join("-" if (mask >> k) & 1 else "+" for k in range(q))

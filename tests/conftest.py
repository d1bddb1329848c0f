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

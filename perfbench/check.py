"""Independent checker for the output of the contextant CLI.

Written from the paper's formulas and from plain geometry; it imports
nothing from ``contextant``, so a defect in the program cannot hide in a
shared helper.  Every ``check_*`` function takes the text one request
printed and returns an ``Outcome``.

The verdict rule: the member p/q (reduced, in [1/4, 1/2]) is
Nonclassical iff q = 2n+1 and p/q > arccos(-n/(n+1)) / 2pi.  The Niven
ties 1/4, 1/3 and 1/2 are decided exactly (Classical, margin 0).  For any
other member whose reference margin |p/q - threshold| is below ``GUARD``
the float comparison could be decided by rounding, so its verdict is
counted as unchecked instead of failed.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

GUARD = 1e-12  # guard band on p/q - threshold, in units of delta/2pi
REL_TOL = 1e-9  # printed floats carry 12 significant digits
ABS_TOL = 1e-12
ORTHO_TOL = 1e-6  # orthogonality of the benchmark's own vector sets

LO, HI = Fraction(1, 4), Fraction(1, 2)
NIVEN_TIES = frozenset((Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)))
CSV_HEADER = "p,q,delta_over_2pi,theta,g,min_corr,verdict,margin"
VERDICTS = ("Classical", "Nonclassical")


@dataclass(frozen=True)
class Outcome:
    ok: bool
    unchecked: int = 0  # verdicts left unchecked inside the guard band
    ties: int = 0  # exact Niven ties seen
    reason: str = ""


def _fail(reason: str) -> Outcome:
    return Outcome(False, reason=reason)


def _close(printed: str, value: float) -> bool:
    try:
        x = float(printed)
    except ValueError:
        return False
    return math.isclose(x, value, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def threshold(n: int) -> float:
    """Step fraction above which the odd member q = 2n+1 is Nonclassical."""
    return math.acos(-n / (n + 1)) / (2.0 * math.pi)


def family_fractions(q_max: int) -> list[tuple[int, int]]:
    """Reduced p/q in [1/4, 1/2] with 2 <= q <= q_max."""
    return [
        (p, q)
        for q in range(2, q_max + 1)
        for p in range(-(-q // 4), q // 2 + 1)
        if math.gcd(p, q) == 1
    ]


@dataclass(frozen=True)
class Reference:
    """The checker's own values for one family member."""

    verdict: str
    tie: bool
    guarded: bool
    delta: float
    theta: float
    g: float
    min_corr: Fraction
    margin: float


def reference(p: int, q: int) -> Reference:
    x = Fraction(p, q)
    if math.gcd(p, q) != 1 or not LO <= x <= HI:
        raise ValueError(f"{p}/{q} is not a reduced member of [1/4, 1/2]")
    delta = 2.0 * math.pi * p / q
    c = math.cos(delta)
    g = max(-1.0, min(1.0, (1.0 + 3.0 * c) / (1.0 - c)))
    theta = math.atan2(1.0, math.sqrt(max(0.0, -c)))
    odd = q % 2 == 1
    n = q // 2
    min_corr = Fraction(-(2 * n - 1), 2 * n + 1) if odd else Fraction(-1)
    tie = x in NIVEN_TIES
    guarded = False
    if odd and not tie:
        d = p / q - threshold(n)
        guarded = abs(d) < GUARD
        verdict = "Nonclassical" if d > 0 else "Classical"
    else:
        verdict = "Classical"
    if tie:
        margin = 0.0
    elif g >= 0:
        margin = -(1.0 - g)
    else:
        margin = -g + float(min_corr)
    return Reference(verdict, tie, guarded, delta, theta, g, min_corr, margin)


def sign_correlation(signs: str) -> Fraction:
    """(1/q) * sum_k s_k s_(k+1 mod q) for a cyclic +/- string."""
    q = len(signs)
    changes = signs.count("+-") + signs.count("-+") + (signs[-1] != signs[0])
    return Fraction(q - 2 * changes, q)


def admissible(signs: str) -> bool:
    """Nonempty +/- string with no two cyclically adjacent '-'."""
    return bool(signs) and set(signs) <= {"+", "-"} and "--" not in signs + signs[0]


_WEIGHT = re.compile(r"weight (\S+) on \(([+-]*)\)")


def check_witness(line: str, q: int, g: float) -> str:
    """Empty string when the mixture line reproduces g exactly enough."""
    parts = line.split("; ")
    comps = [_WEIGHT.fullmatch(part) for part in parts]
    if not comps or any(m is None for m in comps):
        return f"unparsable witness {line[:80]!r}"
    total = Fraction(0)
    corr = Fraction(0)
    for m in comps:
        try:
            w = Fraction(m.group(1))
        except ValueError:
            return f"weight {m.group(1)!r} is not an exact fraction"
        signs = m.group(2)
        if w < 0:
            return f"negative weight {w}"
        if len(signs) != q or not admissible(signs):
            return f"component of length {len(signs)} is not an admissible q={q} assignment"
        total += w
        corr += w * sign_correlation(signs)
    if total != 1:
        return f"weights sum to {total}"
    if abs(corr - Fraction(g)) > Fraction(ABS_TOL):
        return f"mixture correlation {float(corr)!r} != g {g!r}"
    return ""


def _fields(lines: list[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for line in lines:
        key, sep, value = line.strip().partition(": ")
        if sep and key not in out:
            out[key] = value
    return out


def _member_lines(lines: list[str], p: int, q: int) -> Outcome:
    """Check the verdict block printed for one member p/q."""
    ref = reference(p, q)
    f = _fields(lines)
    if f.get("p/q") != f"{p}/{q}":
        return _fail(f"p/q line {f.get('p/q')!r} for {p}/{q}")
    for key, want in (("theta", ref.theta), ("delta", ref.delta), ("g", ref.g),
                      ("margin", ref.margin)):
        if not _close(f.get(key, ""), want):
            return _fail(f"{p}/{q}: {key} {f.get(key)!r} != {want!r}")
    verdict = f.get("verdict")
    if verdict not in VERDICTS:
        return _fail(f"{p}/{q}: verdict {verdict!r}")
    if not ref.guarded and verdict != ref.verdict:
        return _fail(f"{p}/{q}: verdict {verdict}, expected {ref.verdict}")
    if verdict == "Nonclassical":
        m = re.fullmatch(r"quantum (\S+) vs best hidden-variable (\S+)",
                         f.get("certificate", ""))
        if m is None or not _close(m.group(1), ref.g) or not _close(
            m.group(2), float(ref.min_corr)
        ):
            return _fail(f"{p}/{q}: certificate {f.get('certificate')!r}")
    else:
        if "witness mixture" not in f:
            return _fail(f"{p}/{q}: Classical without a witness")
        why = check_witness(f["witness mixture"], q, ref.g)
        if why:
            return _fail(f"{p}/{q}: {why}")
    return Outcome(True, unchecked=int(ref.guarded), ties=int(ref.tie))


def check_verdict(text: str, p: int, q: int) -> Outcome:
    """``verdict --p P --q Q``."""
    return _member_lines(text.splitlines(), p, q)


def check_scan(text: str, q_max: int) -> Outcome:
    """``scan --q-max Q --format csv``: the row set and every row."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return _fail("missing CSV header")
    seen: set[tuple[int, int]] = set()
    unchecked = ties = 0
    for line in lines[1:]:
        cols = line.split(",")
        if len(cols) != 8:
            return _fail(f"row {line!r} has {len(cols)} fields")
        try:
            p, q = int(cols[0]), int(cols[1])
            ref = reference(p, q)
        except ValueError as e:
            return _fail(f"row {line!r}: {e}")
        if (p, q) in seen:
            return _fail(f"duplicate row {p}/{q}")
        seen.add((p, q))
        for printed, want in zip(
            (cols[2], cols[3], cols[4], cols[5], cols[7]),
            (p / q, ref.theta, ref.g, float(ref.min_corr), ref.margin),
        ):
            if not _close(printed, want):
                return _fail(f"row {line!r}: {printed} != {want!r}")
        if cols[6] != ref.verdict and (not ref.guarded or cols[6] not in VERDICTS):
            return _fail(f"row {line!r}: expected {ref.verdict}")
        unchecked += ref.guarded
        ties += ref.tie
    expected = set(family_fractions(q_max))
    if seen != expected:
        return _fail(f"row set differs from the {len(expected)} "
                     f"reduced fractions with q <= {q_max}")
    return Outcome(True, unchecked=unchecked, ties=ties)


def check_theta(text: str, theta: float, q_max: int, tolerance: float) -> Outcome:
    """``verdict --theta T --q-max M --tolerance TOL``."""
    lines = text.splitlines()
    c, s = math.cos(theta), math.sin(theta)
    delta = math.acos(max(-1.0, -(c * c) / (s * s)))
    g = 1.0 - 4.0 * c * c
    x = delta / (2.0 * math.pi)
    f = _fields(lines[:4])
    if f.get("verdict") != "Classical":
        return _fail(f"theta {theta!r}: generic verdict {f.get('verdict')!r}")
    m = re.fullmatch(r"theta: (\S+)  delta: (\S+)  g: (\S+)", lines[3].strip()
                     if len(lines) > 3 else "")
    if m is None or not all(
        _close(v, want) for v, want in zip(m.groups(), (theta, delta, g))
    ):
        return _fail(f"theta {theta!r}: values line {lines[3:4]!r}")
    if len(lines) < 5 or not lines[4].startswith(
        f"rational approximants with q <= {q_max} within "
    ):
        return _fail(f"theta {theta!r}: approximants heading {lines[4:5]!r}")
    rows = [line.strip() for line in lines[5:]]
    if rows == ["(none)"]:
        rows = []
    unchecked = ties = 0
    got: list[tuple[Fraction, float]] = []
    for row in rows:
        m = re.fullmatch(r"(\d+)/(\d+) \(distance (\S+)\): (\w+), margin (\S+)", row)
        if m is None:
            return _fail(f"theta {theta!r}: row {row!r}")
        p, q = int(m.group(1)), int(m.group(2))
        try:
            ref = reference(p, q)
        except ValueError as e:
            return _fail(f"theta {theta!r}: {e}")
        dist = abs(x - p / q)
        if q > q_max or dist > tolerance + ABS_TOL or not _close(m.group(3), dist):
            return _fail(f"theta {theta!r}: approximant {row!r}")
        if m.group(4) != ref.verdict and (not ref.guarded or m.group(4) not in VERDICTS):
            return _fail(f"theta {theta!r}: {p}/{q} expected {ref.verdict}")
        if not _close(m.group(5), ref.margin):
            return _fail(f"theta {theta!r}: {p}/{q} margin {m.group(5)}")
        unchecked += ref.guarded
        ties += ref.tie
        got.append((Fraction(p, q), dist))
    if len({fr for fr, _ in got}) != len(got):
        return _fail(f"theta {theta!r}: duplicate approximants")
    if any(a[1] > b[1] + ABS_TOL for a, b in zip(got, got[1:])):
        return _fail(f"theta {theta!r}: approximants not sorted by distance")
    best = Fraction(x).limit_denominator(q_max)
    if LO <= best <= HI and abs(x - float(best)) <= tolerance:
        if not got or (got[0][0] != best and got[0][1] > abs(x - float(best)) + 1e-15):
            return _fail(f"theta {theta!r}: closest fraction {best} not listed first")
    return Outcome(True, unchecked=unchecked, ties=ties)


def check_oracle(text: str, p: int, q: int) -> Outcome:
    """``oracle --p P --q Q``: the exhaustive minimum is the closed form."""
    f = _fields(text.splitlines())
    want = Fraction(-(q - 2), q) if q % 2 else Fraction(-1)
    if f.get("p/q") != f"{p}/{q}":
        return _fail(f"oracle {p}/{q}: p/q line {f.get('p/q')!r}")
    value = f.get("min correlation", "").split(" = ")[0]
    try:
        got = Fraction(value)
    except ValueError:
        return _fail(f"oracle {p}/{q}: min correlation {value!r}")
    if got != want:
        return _fail(f"oracle {p}/{q}: minimum {got}, expected {want}")
    signs = f.get("minimizer", "").strip("()")
    if len(signs) != q or not admissible(signs) or sign_correlation(signs) != want:
        return _fail(f"oracle {p}/{q}: minimizer {signs!r}")
    if not f.get("closed form", "").endswith("(agree)"):
        return _fail(f"oracle {p}/{q}: closed form {f.get('closed form')!r}")
    return Outcome(True)


def check_discontinuity(text: str, p: int, q: int, epsilon: float, q_max: int) -> Outcome:
    """``discontinuity``: a reduced even-q' neighbour within epsilon/2pi."""
    lines = text.splitlines()
    heads = [i for i, line in enumerate(lines) if not line.startswith("  ")]
    if len(heads) != 2 or lines[0] != f"nonclassical member: {p}/{q}":
        return _fail(f"discontinuity {p}/{q}: layout")
    m = re.fullmatch(r"classical neighbor: (\d+)/(\d+) \(distance (\S+) in delta/2pi\)",
                     lines[heads[1]])
    if m is None:
        return _fail(f"discontinuity {p}/{q}: neighbor line {lines[heads[1]]!r}")
    p2, q2 = int(m.group(1)), int(m.group(2))
    nb = Fraction(p2, q2)
    if math.gcd(p2, q2) != 1 or q2 % 2 or q2 > q_max or not LO <= nb <= HI:
        return _fail(f"discontinuity {p}/{q}: neighbor {p2}/{q2} not admissible")
    dist = abs(nb - Fraction(p, q))
    if not dist < Fraction(epsilon / (2.0 * math.pi)) or not _close(m.group(3), float(dist)):
        return _fail(f"discontinuity {p}/{q}: {p2}/{q2} at {float(dist)!r}")
    member = _member_lines(lines[1:heads[1]], p, q)
    if not member.ok:
        return member
    if "verdict: Nonclassical" not in lines[1]:
        return _fail(f"discontinuity {p}/{q}: start printed as {lines[1]!r}")
    neighbor = _member_lines(lines[heads[1] + 1:], p2, q2)
    if not neighbor.ok:
        return neighbor
    return Outcome(True, unchecked=member.unchecked + neighbor.unchecked,
                   ties=member.ties + neighbor.ties)


def orthogonality(vectors: list[list[float]]) -> tuple[list[tuple[int, int]],
                                                       list[tuple[int, int, int]]]:
    """Orthogonal pairs and complete orthogonal triples of a vector list."""
    unit = [[c / math.sqrt(sum(x * x for x in v)) for c in v] for v in vectors]
    n = len(unit)
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if abs(sum(a * b for a, b in zip(unit[i], unit[j]))) < ORTHO_TOL
    ]
    ps = set(pairs)
    triples = [(i, j, k) for i, j in pairs for k in range(j + 1, n)
               if (i, k) in ps and (j, k) in ps]
    return pairs, triples


def coloring_valid(signs: str, pairs, triples, mode: str) -> bool:
    if any(signs[i] == signs[j] == "-" for i, j in pairs):
        return False
    if mode == "strict":
        return all(sum(signs[i] == "-" for i in t) == 1 for t in triples)
    return True


def count_colorings(n: int, pairs, triples, mode: str) -> int:
    """Brute force over all 2^n sign vectors (small n only)."""
    pair_masks = [(1 << i) | (1 << j) for i, j in pairs]
    triple_masks = [(1 << i) | (1 << j) | (1 << k) for i, j, k in triples]
    count = 0
    for minus in range(1 << n):
        if any(minus & pm == pm for pm in pair_masks):
            continue
        if mode == "strict" and any(bin(minus & tm).count("1") != 1
                                    for tm in triple_masks):
            continue
        count += 1
    return count


def check_ks(text: str, vectors: list[list[float]], mode: str, expect: str) -> Outcome:
    """``ks-color``; expect is 'unsat', 'sat' or 'count'."""
    lines = text.splitlines()
    pairs, triples = orthogonality(vectors)
    n = len(vectors)
    head = f"vectors: {n}  orthogonal pairs: {len(pairs)}  triples: {len(triples)}"
    if not lines or lines[0] != head:
        return _fail(f"ks-color: header {lines[:1]!r}, expected {head!r}")
    answer = lines[1] if len(lines) > 1 else ""
    sat = answer.startswith("SAT (")
    if sat:
        signs = answer[5:-1]
        if len(signs) != n or not coloring_valid(signs, pairs, triples, mode):
            return _fail(f"ks-color: invalid {mode} coloring {signs!r}")
    elif answer != "UNSAT":
        return _fail(f"ks-color: answer {answer!r}")
    if expect == "unsat" and sat:
        return _fail("ks-color: SAT on a Kochen-Specker set")
    if expect == "sat" and not sat:
        return _fail("ks-color: UNSAT on a colorable set")
    if expect == "count":
        want = count_colorings(n, pairs, triples, mode)
        if lines[2:] != [f"colorings: {want}"] or sat != (want > 0):
            return _fail(f"ks-color: {lines[1:]!r}, expected {want} colorings")
    return Outcome(True)


def check_quantum(text: str, samples: int, seed: int) -> Outcome:
    """``quantum-check``: the operator identities hold (PASS)."""
    lines = text.splitlines()
    if not lines or lines[0] != f"samples: {samples}  seed: {seed}" or lines[-1] != "PASS":
        return _fail(f"quantum-check seed {seed}: {lines[:1] + lines[-1:]!r}")
    return Outcome(True)


def check_request(req: dict, rc: int | None, text: str) -> Outcome:
    """Dispatch on the request kind; every benchmark request must exit 0."""
    if rc != 0:
        return _fail(f"{' '.join(req['argv'][:5])}: exit code {rc}")
    kind = req["kind"]
    if kind == "scan":
        return check_scan(text, req["q_max"])
    if kind == "verdict":
        return check_verdict(text, req["p"], req["q"])
    if kind == "theta":
        return check_theta(text, req["theta"], req["q_max"], req["tolerance"])
    if kind == "oracle":
        return check_oracle(text, req["p"], req["q"])
    if kind == "discontinuity":
        return check_discontinuity(text, req["p"], req["q"], req["epsilon"], req["q_max"])
    if kind == "ks":
        return check_ks(text, req["vectors"], req["mode"], req["expect"])
    if kind == "quantum":
        return check_quantum(text, req["samples"], req["seed"])
    raise ValueError(f"unknown request kind {kind!r}")

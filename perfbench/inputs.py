"""Seeded request streams for the three benchmark workloads.

A stream is a list of blocks.  Every block of a workload has the same
composition (the same number of requests of each kind and stratum); the
seed picks the values inside each stratum and the order inside the block.
Fixed composition keeps the latency quantiles steady across seeds, while
the values still differ from seed to seed.

A request is a dict with the argv the CLI receives, its ``kind`` and the
parameters the checker needs.  ``ks`` requests also carry their vectors;
the worker writes them to the file named in argv before timing starts.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random

from check import orthogonality, reference, threshold

SCAN_Q_MAX = 400

MEMBER_Q = (5, 200_000)  # verdict --p --q: q log-uniform in this range
MEMBER_STRATA = 7  # q strata per block, each with three member kinds
THETA_PER_BLOCK = 9  # verdict --theta requests per block (30% of 30)
THETA_Q_MAX = (10, 10_000)  # --q-max of theta requests, log-uniform
TOLERANCE = 0.01

ORACLE_Q = tuple(range(13, 25))  # one oracle per q per block
START_Q = (5, 15)  # odd denominators of the Nonclassical discontinuity starts
SCAN_LENGTH = (300, 60_000)  # even denominators the neighbour search visits
SCAN_STRATA = 10
KS_PER_KIND = 4  # rotated Peres-33, Peres-33 minus a ray, counted subset
SUBSET_SIZE = (8, 12)  # rays in a counting-mode ks-color subset
QUANTUM_PER_BLOCK = 6
QUANTUM_SAMPLES = 200

# Blocks generated per run; a run that serves them all starts over.
BLOCKS = {"scan-table": 1, "member-stream": 120, "search-stream": 60}


def peres33() -> list[tuple[float, float, float]]:
    """Peres' 33 rays (Peres 1991): coordinates from {0, +-1, +-sqrt 2}.

    The axes, the six rays (0, 1, +-1), the twelve rays (0, 1, +-sqrt 2)
    and (0, sqrt 2, +-1), and the twelve rays (1, +-1, +-sqrt 2), each
    under all coordinate permutations, as unit vectors.
    """
    r = math.sqrt(2.0)
    bases = [(1, 0, 0), (0, 1, 1), (0, 1, -1), (0, 1, r), (0, 1, -r),
             (1, 1, r), (1, -1, r), (1, 1, -r), (1, -1, -r)]
    rays = set()
    for base in bases:
        for perm in itertools.permutations(base):
            lead = next(c for c in perm if c != 0)
            rays.add(tuple(c if lead > 0 else -c for c in perm))
    out = []
    for ray in sorted(rays):
        norm = math.sqrt(sum(c * c for c in ray))
        out.append(tuple(c / norm for c in ray))
    return out


def _rotation(rng: random.Random) -> list[list[float]]:
    """Uniformly random rotation matrix from a random unit quaternion."""
    u1, u2, u3 = rng.random(), rng.random(), rng.random()
    a = math.sqrt(1 - u1) * math.sin(2 * math.pi * u2)
    b = math.sqrt(1 - u1) * math.cos(2 * math.pi * u2)
    c = math.sqrt(u1) * math.sin(2 * math.pi * u3)
    d = math.sqrt(u1) * math.cos(2 * math.pi * u3)
    return [
        [1 - 2 * (c * c + d * d), 2 * (b * c - a * d), 2 * (b * d + a * c)],
        [2 * (b * c + a * d), 1 - 2 * (b * b + d * d), 2 * (c * d - a * b)],
        [2 * (b * d - a * c), 2 * (c * d + a * b), 1 - 2 * (b * b + c * c)],
    ]


def _rotate(rng: random.Random, rays) -> list[list[float]]:
    m = _rotation(rng)
    return [[sum(m[i][k] * v[k] for k in range(3)) for i in range(3)] for v in rays]


def _log_uniform(rng: random.Random, lo: float, hi: float, k: int = 0,
                 strata: int = 1) -> float:
    """Draw from stratum k of `strata` equal slices of [lo, hi] in log scale."""
    a, b = math.log(lo), math.log(hi)
    return math.exp(a + (b - a) * (k + rng.random()) / strata)


def _member(rng: random.Random, lo: float, hi: float, kind: str) -> tuple[int, int]:
    """A reduced p/q in [1/4, 1/2] with q in [lo, hi] of the given kind:
    'above' (odd q, Nonclassical), 'below' (odd q, Classical) or 'even'."""
    for _ in range(10_000):
        q = round(_log_uniform(rng, lo, hi))
        q += (q % 2 == 0) if kind != "even" else q % 2
        n = q // 2
        if kind == "even":
            first, last = -(-q // 4), n
        else:
            cut = q * threshold(n)
            first, last = ((math.floor(cut) + 1, n) if kind == "above"
                           else (-(-q // 4), math.ceil(cut) - 1))
        if first > last:
            continue
        p = rng.randint(first, last)
        if math.gcd(p, q) != 1:
            continue
        ref = reference(p, q)
        if not ref.guarded and (ref.verdict == "Nonclassical") == (kind == "above"):
            return p, q
    raise RuntimeError(f"no {kind} member with q in [{lo}, {hi}]")


def scan_block(rng: random.Random, q_max: int = SCAN_Q_MAX) -> list[dict]:
    return [{"kind": "scan", "argv": ["scan", "--q-max", str(q_max), "--format", "csv"],
             "q_max": q_max}]


def member_block(rng: random.Random, q_range=MEMBER_Q,
                 theta_q_max=THETA_Q_MAX) -> list[dict]:
    """21 single-member verdicts (7 q strata x {above, below, even}) and
    9 theta queries (theta and --q-max each stratified)."""
    lo, hi = q_range
    edges = [lo * (hi / lo) ** (k / MEMBER_STRATA) for k in range(MEMBER_STRATA + 1)]
    block = []
    for lo, hi in zip(edges, edges[1:]):
        for kind in ("above", "below", "even"):
            p, q = _member(rng, lo, hi, kind)
            block.append({"kind": "verdict", "p": p, "q": q,
                          "argv": ["verdict", "--p", str(p), "--q", str(q)]})
    q_strata = list(range(THETA_PER_BLOCK))
    rng.shuffle(q_strata)
    for k, kq in enumerate(q_strata):
        theta = math.pi / 4 * (1 + (k + rng.random()) / THETA_PER_BLOCK)
        q_max = round(_log_uniform(rng, *theta_q_max, kq, THETA_PER_BLOCK))
        block.append({
            "kind": "theta",
            "argv": ["verdict", "--theta", repr(theta), "--q-max", str(q_max),
                     "--tolerance", repr(TOLERANCE)],
            "theta": theta, "q_max": q_max, "tolerance": TOLERANCE,
        })
    rng.shuffle(block)
    return block


def search_block(rng: random.Random, oracle_q=ORACLE_Q, scan_length=SCAN_LENGTH,
                 quantum_samples: int = QUANTUM_SAMPLES) -> list[dict]:
    """12 oracles, 10 discontinuity probes, 12 ks-color runs, 6 quantum-checks.

    The discontinuity search walks even q' up to about pi/(q eps), so its
    cost spans two decades; eps is drawn log-uniform given the start p/q
    such that this scan length is stratified, one probe per stratum.  That
    keeps a few lucky or unlucky draws from moving the block's total.
    """
    block = []
    for q in oracle_q:
        p = rng.choice([p for p in range(-(-q // 4), q // 2 + 1) if math.gcd(p, q) == 1])
        block.append({"kind": "oracle", "argv": ["oracle", "--p", str(p), "--q", str(q)],
                      "p": p, "q": q})
    for k in range(SCAN_STRATA):
        p, q = _member(rng, *START_Q, "above")
        eps = math.pi / (q * _log_uniform(rng, *scan_length, k, SCAN_STRATA))
        # a power of two above 1/(eps/2pi) always holds an even-denominator
        # neighbour closer than eps/2pi, so exit 3 would be a real failure
        q_max = 2 ** (math.floor(math.log2(2.0 * math.pi / eps)) + 1)
        block.append({
            "kind": "discontinuity",
            "argv": ["discontinuity", "--p", str(p), "--q", str(q),
                     "--epsilon", repr(eps), "--q-max", str(q_max)],
            "p": p, "q": q, "epsilon": eps, "q_max": q_max,
        })
    rays = peres33()
    _, triples = orthogonality(rays)
    sets = [(rays, "strict", "unsat")] * KS_PER_KIND
    for _ in range(KS_PER_KIND):
        drop = rng.randrange(len(rays))  # Peres-33 is critical: any drop colors
        sets.append((rays[:drop] + rays[drop + 1:], "strict", "sat"))
    for _ in range(KS_PER_KIND):
        chosen = set(itertools.chain(*rng.sample(triples, 2)))
        others = [i for i in range(len(rays)) if i not in chosen]
        size = rng.randint(*SUBSET_SIZE)
        chosen.update(rng.sample(others, max(0, size - len(chosen))))
        subset = [rays[i] for i in sorted(chosen)]
        rng.shuffle(subset)
        sets.append((subset, rng.choice(("strict", "relaxed")), "count"))
    for vectors, mode, expect in sets:
        block.append({"kind": "ks", "argv": ["ks-color", "", "--mode", mode],
                      "vectors": _rotate(rng, vectors), "mode": mode, "expect": expect})
    for _ in range(QUANTUM_PER_BLOCK):
        seed = rng.randrange(2**31)
        block.append({"kind": "quantum",
                      "argv": ["quantum-check", "--samples", str(quantum_samples),
                               "--seed", str(seed)],
                      "samples": quantum_samples, "seed": seed})
    rng.shuffle(block)
    return block


BLOCK_MAKERS = {"scan-table": scan_block, "member-stream": member_block,
                "search-stream": search_block}


def generate(workload: str, seed: int, blocks: int | None = None, **sizes) -> list[list[dict]]:
    """The seeded stream of a workload; `sizes` shrink it for tests."""
    rng = random.Random(f"{workload}:{seed}")
    make = BLOCK_MAKERS[workload]
    out = [make(rng, **sizes) for _ in range(blocks or BLOCKS[workload])]
    n = 0
    for block in out:
        for req in block:
            if req["kind"] == "ks":
                req["file"] = f"vectors-{n}.txt"
                req["argv"][1] = req["file"]
            n += 1
    return out


def digest(stream: list[list[dict]]) -> str:
    """sha256 of the generated inputs, to compare runs on equal inputs."""
    text = json.dumps(stream, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()

"""Command-line front end.

Subcommands: verdict, scan, oracle, quantum-check, discontinuity,
ks-color.  All output goes to stdout as UTF-8; errors to stderr.  Exit
codes: 0 success, 1 check failure, 2 argument error, 3 resource limit.
The environment variable CONTEXTANT_THREADS caps scan parallelism.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np

from . import spin_algebra
from .angle_family import (
    RationalAngle,
    delta_of_theta,
    g_of_theta,
    rational_approximants,
)
from .assignment_model import brute_force_min, min_correlation
from .classicality import (
    VectorSet,
    condition_p_threshold,
    decide_pair_family,
    decide_pair_family_generic,
    find_classical_neighbor,
    ks_colorability,
)
from .spin_algebra import (
    commutator_norm,
    dichotomic,
    direction_from_angles,
    expectation,
    minus_one_eigenprojector,
    triple_product_check,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

CSV_HEADER = "p,q,delta_over_2pi,theta,g,min_corr,verdict,margin"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _positive_finite_float(text: str) -> float:
    """argparse type: a finite float > 0."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(x) and x > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return x


def _int_at_least_2(text: str) -> int:
    """argparse type: an integer >= 2."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 2:
        raise argparse.ArgumentTypeError(f"must be >= 2, got {text!r}")
    return n


def _thread_count() -> int:
    raw = os.environ.get("CONTEXTANT_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)


def _family_fractions(q_max: int):
    lo, hi = Fraction(1, 4), Fraction(1, 2)
    for q in range(2, q_max + 1):
        for p in range(1, q // 2 + 1):
            if math.gcd(p, q) != 1:
                continue
            if lo <= Fraction(p, q) <= hi:
                yield p, q


def _row(pq: tuple[int, int]) -> dict:
    p, q = pq
    v = decide_pair_family(RationalAngle(p, q))
    m = min_correlation(v.angle_class)
    return {
        "p": p,
        "q": q,
        "delta_over_2pi": p / q,
        "theta": v.theta,
        "g": v.g,
        "min_corr": float(m),
        "verdict": v.verdict,
        "margin": v.margin,
    }


def cmd_scan(args) -> int:
    if not 2 <= args.q_max <= 10000:
        print("scan: --q-max must be in [2, 10000]", file=sys.stderr)
        return EXIT_USAGE
    pairs = list(_family_fractions(args.q_max))
    threads = _thread_count()
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            rows = list(ex.map(_row, pairs))
    else:
        rows = [_row(pq) for pq in pairs]
    if args.format == "csv":
        out = [CSV_HEADER]
        for r in rows:
            out.append(
                f"{r['p']},{r['q']},{_fmt(r['delta_over_2pi'])},"
                f"{_fmt(r['theta'])},{_fmt(r['g'])},{_fmt(r['min_corr'])},"
                f"{r['verdict']},{_fmt(r['margin'])}"
            )
        sys.stdout.write("\n".join(out) + "\n")
    else:
        formatted = [
            {
                k: (_fmt(v) if isinstance(v, float) else v)
                for k, v in r.items()
            }
            for r in rows
        ]
        sys.stdout.write(json.dumps(formatted, indent=2) + "\n")
    return EXIT_OK


def _verdict_lines(v) -> list[str]:
    lines = [f"verdict: {v.verdict}"]
    if v.angle is not None:
        lines.append(f"p/q: {v.angle.p}/{v.angle.q}")
    lines += [
        f"theta: {_fmt(v.theta)}",
        f"delta: {_fmt(v.delta)}",
        f"g: {_fmt(v.g)}",
        f"margin: {_fmt(v.margin)}",
    ]
    if not v.classical:
        lines.append(
            f"certificate: quantum {_fmt(v.quantum_value)} vs "
            f"best hidden-variable {_fmt(v.best_hv_value)}"
        )
    elif v.witness is not None:
        parts = [
            f"weight {w} on ({''.join('+' if x == 1 else '-' for x in a.values)})"
            for w, a in v.witness.components
        ]
        lines.append("witness mixture: " + "; ".join(parts))
    if v.note:
        lines.append(f"note: {v.note}")
    return lines


def cmd_verdict(args) -> int:
    has_pq = args.p is not None or args.q is not None
    if has_pq == (args.theta is not None):
        print("verdict: give either --p/--q or --theta", file=sys.stderr)
        return EXIT_USAGE
    if has_pq:
        if args.p is None or args.q is None:
            print("verdict: --p and --q go together", file=sys.stderr)
            return EXIT_USAGE
        try:
            angle = RationalAngle(args.p, args.q)
        except ValueError as e:
            print(f"verdict: {e}", file=sys.stderr)
            return EXIT_USAGE
        v = decide_pair_family(angle)
        print("\n".join(_verdict_lines(v)))
        return EXIT_OK
    try:
        delta = delta_of_theta(args.theta)
    except ValueError as e:
        print(f"verdict: {e}", file=sys.stderr)
        return EXIT_USAGE
    generic = decide_pair_family_generic()
    print("generic (irrational-type) verdict for float input:")
    print(f"  verdict: {generic.verdict}")
    print(f"  note: {generic.note}")
    print(f"  theta: {_fmt(args.theta)}  delta: {_fmt(delta)}  "
          f"g: {_fmt(g_of_theta(args.theta))}")
    approx = [
        (a, d)
        for a, d in rational_approximants(delta, args.q_max)
        if d <= args.tolerance
    ]
    print(f"rational approximants with q <= {args.q_max} "
          f"within {_fmt(args.tolerance)} of delta/2pi:")
    if not approx:
        print("  (none)")
    for a, d in approx:
        v = decide_pair_family(a)
        print(f"  {a.p}/{a.q} (distance {_fmt(d)}): {v.verdict}, "
              f"margin {_fmt(v.margin)}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    try:
        angle = RationalAngle(args.p, args.q)
    except ValueError as e:
        print(f"oracle: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        corr, assignment = brute_force_min(angle)
    except ValueError as e:
        print(f"oracle: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    signs = "".join("+" if v == 1 else "-" for v in assignment.values)
    print(f"p/q: {args.p}/{args.q}")
    print(f"min correlation: {corr} = {_fmt(float(corr))}")
    print(f"minimizer: ({signs})")
    closed = min_correlation(
        decide_pair_family(angle).angle_class
    )
    print(f"closed form: {closed} ({'agree' if closed == corr else 'DISAGREE'})")
    return EXIT_OK if closed == corr else EXIT_CHECK_FAILED


def cmd_quantum_check(args) -> int:
    if args.samples < 1:
        print("quantum-check: --samples must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    rng = np.random.default_rng(args.seed)
    worst_comm = 0.0
    worst_g = 0.0
    for _ in range(args.samples):
        theta = rng.uniform(math.pi / 4, math.pi / 2)
        phi = rng.uniform(0.0, 2 * math.pi)
        delta = delta_of_theta(theta)
        a = dichotomic(direction_from_angles(theta, phi))
        b = dichotomic(direction_from_angles(theta, phi + delta))
        worst_comm = max(worst_comm, commutator_norm(a, b))
        rho = minus_one_eigenprojector(dichotomic(direction_from_angles(0.0, 0.0)))
        val = expectation(rho, [a, b])
        worst_g = max(worst_g, abs(val - g_of_theta(theta)))
    worst_triple = 0.0
    n_triples = min(args.samples, 100)
    for _ in range(n_triples):
        # random rotation of the coordinate axes via QR of a Gaussian matrix
        q_mat, r_mat = np.linalg.qr(rng.normal(size=(3, 3)))
        q_mat = q_mat * np.sign(np.diag(r_mat))
        dirs = [spin_algebra.Direction(*(c / np.linalg.norm(c))) for c in q_mat.T]
        worst_triple = max(worst_triple, triple_product_check(*dirs))
    ok = worst_comm < 1e-12 and worst_g < 1e-12 and worst_triple < 1e-10
    print(f"samples: {args.samples}  seed: {args.seed}")
    print(f"max commutator residual: {_fmt(worst_comm)} (tol 1e-12)")
    print(f"max g(theta) residual: {_fmt(worst_g)} (tol 1e-12)")
    print(f"max triple-product residual over {n_triples} triples: "
          f"{_fmt(worst_triple)} (tol 1e-10)")
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_discontinuity(args) -> int:
    try:
        angle = RationalAngle(args.p, args.q)
    except ValueError as e:
        print(f"discontinuity: {e}", file=sys.stderr)
        return EXIT_USAGE
    v = decide_pair_family(angle)
    if v.classical:
        print(f"discontinuity: {args.p}/{args.q} is Classical; "
              "the probe needs a Nonclassical start", file=sys.stderr)
        return EXIT_USAGE
    eps_frac = args.epsilon / (2.0 * math.pi)
    found, best_dist = find_classical_neighbor(
        angle, Fraction(eps_frac), args.q_max
    )
    if found is None:
        print(f"discontinuity: no even-denominator fraction within "
              f"{_fmt(eps_frac)} of {args.p}/{args.q} with q' <= {args.q_max}; "
              f"closest achieved distance {_fmt(float(best_dist))}",
              file=sys.stderr)
        return EXIT_RESOURCE
    v2 = decide_pair_family(found)
    print(f"nonclassical member: {args.p}/{args.q}")
    for line in _verdict_lines(v):
        print("  " + line)
    print(f"classical neighbor: {found.p}/{found.q} "
          f"(distance {_fmt(abs(found.p / found.q - args.p / args.q))} "
          f"in delta/2pi)")
    for line in _verdict_lines(v2):
        print("  " + line)
    return EXIT_OK


def cmd_ks_color(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            rows = [line.split() for line in fh if line.strip()]
        vecs = []
        for row in rows:
            x, y, z = (float(c) for c in row)
            n = math.sqrt(x * x + y * y + z * z)
            vecs.append(spin_algebra.Direction(x / n, y / n, z / n))
    except (OSError, ValueError) as e:
        print(f"ks-color: {e}", file=sys.stderr)
        return EXIT_USAGE
    vset = VectorSet(vecs)
    result = ks_colorability(vset, mode=args.mode)
    print(f"vectors: {len(vecs)}  orthogonal pairs: {len(vset.pairs)}  "
          f"triples: {len(vset.triples)}")
    if result.satisfiable:
        signs = "".join("+" if v == 1 else "-" for v in result.coloring.values)
        print(f"SAT ({signs})")
    else:
        print("UNSAT")
    if result.count is not None:
        print(f"colorings: {result.count}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contextant",
        description="Hidden-variable classicality of the tilted spin-1 "
        "pair-measurement family",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verdict", help="decide one family member")
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--theta", type=float)
    p.add_argument("--q-max", type=int, default=100)
    p.add_argument("--tolerance", type=float, default=1e-2)
    p.set_defaults(func=cmd_verdict)

    p = sub.add_parser("scan", help="tabulate verdicts over all reduced fractions")
    p.add_argument("--q-max", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("oracle", help="exact cycle-minimum oracle")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("quantum-check", help="randomized operator-identity suite")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_quantum_check)

    p = sub.add_parser(
        "discontinuity",
        help="find a classical rational arbitrarily close to a nonclassical one",
    )
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--epsilon", type=_positive_finite_float, required=True,
                   help="radius in delta (radians)")
    p.add_argument("--q-max", type=_int_at_least_2, default=100000)
    p.set_defaults(func=cmd_discontinuity)

    p = sub.add_parser("ks-color", help="Kochen-Specker colorability of a vector file")
    p.add_argument("file", help="text file, one unit vector per line (3 reals)")
    p.add_argument("--mode", choices=("strict", "relaxed"), default="strict")
    p.set_defaults(func=cmd_ks_color)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: verdict, scan, oracle, quantum-check, discontinuity,
ks-color.  All output goes to stdout as UTF-8; errors to stderr.  Exit
codes: 0 success, 1 check failure, 2 argument error, 3 resource limit.
A subcommand ends with a nonzero code by raising Exit; main writes its
reason to stderr as one line "<command>: <reason>".  main builds the
argument parser once per process and reuses it for every call.
"""

from __future__ import annotations

import argparse
import functools
import math
import random
import sys
from fractions import Fraction

from .angle_family import (
    Direction,
    RationalAngle,
    delta_of_theta,
    g_of_theta,
    rational_approximants,
    theta_in_range,
)
from .assignment_model import WITNESS_Q_MAX, brute_force_min, min_correlation
from .classicality import (
    VECTORSET_BUDGET,
    VERDICT,
    VectorSet,
    decide_pair_family,
    decide_pair_family_generic,
    decide_row,
    dot_products,
    find_classical_neighbor,
    ks_colorability,
)
from .spin_algebra import (
    dichotomic,
    direction_from_angles,
    minus_one_eigenprojector,
    pair_product_check,
    triple_product_check,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

CSV_HEADER = "p,q,delta_over_2pi,theta,g,min_corr,verdict,margin"

# Largest verdict --q-max: a float near a rational with a large partial
# quotient a has about a/2 best approximations below q ~ a * q', so the
# approximant list, not only its search, grows with q_max.
THETA_Q_MAX = 1_000_000

# quantum-check's largest --samples (0.6-0.8 s end to end on a shared 2-vCPU
# VM) and its residual tolerances.  Float rounding leaves residuals below 5e-15 (10^5
# samples, seeds 0 and 1); each comment says what reaches the bound.
QUANTUM_SAMPLES_MAX = 100_000
QUANTUM_COMM_TOL = 1e-12  # a pair 1.8e-13 off orthogonal: 4 sqrt(2) |u.v|
QUANTUM_G_TOL = 1e-12  # a tilt 2.5e-13 rad off where |dg/dtheta| = 4
QUANTUM_TRIPLE_TOL = 1e-10  # a triple with one dot 3.5e-11: 2 sqrt(2) |u.v|


class Exit(Exception):
    """Ends a subcommand with a nonzero exit code and a one-line reason."""

    def __init__(self, code: int, reason: str):
        super().__init__(reason)
        self.code = code


def _or_exit(code: int, f, *args, **kwargs):
    """f(*args, **kwargs), whose ValueError ends the command with code."""
    try:
        return f(*args, **kwargs)
    except ValueError as e:
        raise Exit(code, str(e)) from None


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _checked(convert, ok, what: str):
    """argparse type: convert(text), required to satisfy ok."""

    def parse(text: str):
        try:
            x = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}") from None
        if not ok(x):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return x

    return parse


_positive_finite_float = _checked(
    float, lambda x: math.isfinite(x) and x > 0, "finite and positive")
_finite_nonnegative_float = _checked(
    float, lambda x: math.isfinite(x) and x >= 0, "finite and nonnegative")
_int_at_least_2 = _checked(int, lambda n: n >= 2, ">= 2")
_theta = _checked(float, theta_in_range, "in [pi/4, pi/2]")


def _vector_file(path: str) -> list[Direction]:
    """argparse type: the directions in a text file, one per nonblank line
    as three finite reals with a nonzero norm, scaled to unit length, read
    only until VectorSet would refuse them on their dot products alone."""
    vecs = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    xyz = [float(c) for c in line.split()]
                except ValueError:
                    xyz = []  # not three reals: reported below
                finite = len(xyz) == 3 and all(map(math.isfinite, xyz))
                big = max(map(abs, xyz)) if finite else 0.0
                if not big:
                    raise ValueError(
                        f"line {lineno}: need three finite reals with a "
                        f"nonzero norm, got {line.strip()!r}"
                    )
                # hypot loses bits on subnormal input, and overflows where the
                # norm exceeds the largest float: scale to max |c| = 1 first
                n = math.hypot(*(c / big for c in xyz))
                vecs.append(Direction(*(c / big / n for c in xyz)))
                if dot_products(len(vecs)) > VECTORSET_BUDGET:
                    break
    except (OSError, ValueError) as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    return vecs


# A scan row as an element of the indented JSON list, with its fields in
# CSV_HEADER order: p and q as numbers, the rest as strings.  The fields are
# numbers and plain words, so none needs escaping.
JSON_ROW = """  {{
    "p": {},
    "q": {},
    "delta_over_2pi": "{}",
    "theta": "{}",
    "g": "{}",
    "min_corr": "{}",
    "verdict": "{}",
    "margin": "{}"
  }}"""

# Per format: the row as a str.format template over the CSV_HEADER fields,
# and the text before the first row, between two rows and after the last.
SCAN_FORMATS = {
    "csv": (",".join(["{}"] * 8), CSV_HEADER + "\n", "\n", "\n"),
    "json": (JSON_ROW, "[\n", ",\n", "\n]\n"),
}


def _scan_chunks(q_max: int, row: str):
    """The rows of the scan table, one list per denominator q = 2..q_max
    that has rows: reduced p/q in [1/4, 1/2], ascending p.

    row is a SCAN_FORMATS template.  Each q fills it once with q and the
    min_corr text, leaving %-slots for the rest, so a row costs decide_row's
    one cosine and one %-format."""
    for q in range(2, q_max + 1):
        m_f = float(min_correlation(q))
        # p, q, delta_over_2pi, theta, g, min_corr, verdict, margin
        line = row.format("%d", q, "%.12g", "%.12g", "%.12g", _fmt(m_f), "%s",
                          "%.12g")
        rows = []
        for p in range(-(-q // 4), q // 2 + 1):
            if math.gcd(p, q) == 1:
                classical, margin, theta, g = decide_row(p, q, m_f)
                rows.append(line % (p, p / q, theta, g, VERDICT[classical], margin))
        if rows:
            yield rows


def cmd_scan(args) -> None:
    """Write the table one denominator at a time; memory stays flat.  CSV
    and JSON differ only in their SCAN_FORMATS entry."""
    row, head, sep, tail = SCAN_FORMATS[args.format]
    write = sys.stdout.write
    for rows in _scan_chunks(args.q_max, row):
        write(head + sep.join(rows))
        head = sep
    write(tail)


def _angle(args) -> RationalAngle:
    """The member --p/--q; exit 2 if it is not one."""
    return _or_exit(EXIT_USAGE, RationalAngle, args.p, args.q)


def _decide(angle: RationalAngle):
    """decide_pair_family(angle); exit 3 for a Classical member whose q is
    above the witness limit."""
    return _or_exit(EXIT_RESOURCE, decide_pair_family, angle)


def _verdict_lines(v) -> list[str]:
    lines = [
        f"verdict: {v.verdict}",
        f"p/q: {v.angle.p}/{v.angle.q}",
        f"theta: {_fmt(v.theta)}",
        f"delta: {_fmt(v.delta)}",
        f"g: {_fmt(v.g)}",
        f"margin: {_fmt(v.margin)}",
    ]
    if v.classical:
        parts = [f"weight {w} on ({s})" for w, s in v.witness.components]
        lines.append("witness mixture: " + "; ".join(parts))
    else:
        lines.append(
            f"certificate: quantum {_fmt(v.g)} vs "
            f"best hidden-variable {_fmt(float(v.min_corr))}"
        )
    return lines


def cmd_verdict(args) -> None:
    has_pq = args.p is not None or args.q is not None
    if has_pq == (args.theta is not None):
        raise Exit(EXIT_USAGE, "give either --p/--q or --theta")
    if has_pq:
        if args.p is None or args.q is None:
            raise Exit(EXIT_USAGE, "--p and --q go together")
        print("\n".join(_verdict_lines(_decide(_angle(args)))))
        return
    delta = delta_of_theta(args.theta)
    classical, note = decide_pair_family_generic()
    print("generic (irrational-type) verdict for float input:")
    print(f"  verdict: {VERDICT[classical]}")
    print(f"  note: {note}")
    print(f"  theta: {_fmt(args.theta)}  delta: {_fmt(delta)}  "
          f"g: {_fmt(g_of_theta(args.theta))}")
    approx = [
        (p, q, d)
        for p, q, d in rational_approximants(delta, args.q_max)
        if d <= args.tolerance
    ]
    print(f"rational approximants with q <= {args.q_max} "
          f"within {_fmt(args.tolerance)} of delta/2pi:")
    if not approx:
        print("  (none)")
    for p, q, d in approx:
        # -(q - 2) / q rounds once, so it is float(min_correlation(q)) for odd q
        classical, margin, _, _ = decide_row(p, q, -(q - 2) / q if q % 2 else -1.0)
        print(f"  {p}/{q} (distance {_fmt(d)}): {VERDICT[classical]}, "
              f"margin {_fmt(margin)}")


def cmd_oracle(args) -> None:
    angle = _angle(args)
    corr, signs = _or_exit(EXIT_RESOURCE, brute_force_min, angle.q)
    print(f"p/q: {args.p}/{args.q}")
    print(f"min correlation: {corr} = {_fmt(float(corr))}")
    print(f"minimizer: ({signs})")
    closed = min_correlation(angle.q)
    print(f"closed form: {closed} ({'agree' if closed == corr else 'DISAGREE'})")
    if closed != corr:
        raise Exit(EXIT_CHECK_FAILED,
                   f"closed form {closed} differs from the exact minimum {corr}")


def _orthonormal_triple(rng: random.Random) -> list[Direction]:
    """The columns of the rotation of a Gaussian quaternion (Euler-Rodrigues)
    over their norm n: an orthonormal triple, uniform over rotations."""
    gauss = rng.gauss
    a, b, c, d = gauss(0.0, 1.0), gauss(0.0, 1.0), gauss(0.0, 1.0), gauss(0.0, 1.0)
    n = a * a + b * b + c * c + d * d
    cols = ((a * a + b * b - c * c - d * d, 2 * (b * c + a * d), 2 * (b * d - a * c)),
            (2 * (b * c - a * d), a * a - b * b + c * c - d * d, 2 * (c * d + a * b)),
            (2 * (b * d + a * c), 2 * (c * d - a * b), a * a - b * b - c * c + d * d))
    return [Direction(x / n, y / n, z / n) for x, y, z in cols]


def cmd_quantum_check(args) -> None:
    rng = random.Random(args.seed)
    # the m = 0 state e_z as a projector, checked to be a density matrix: it
    # is exactly diag(0, 0, 1), so the state's Tr(rho A_u A_v) is entry [2][2]
    # of the product, the correlation that pair_product_check returns
    minus_one_eigenprojector(dichotomic(direction_from_angles(0.0, 0.0)))
    comm, g_res = [], []
    for _ in range(args.samples):
        theta = rng.uniform(math.pi / 4, math.pi / 2)
        phi = rng.uniform(0.0, 2 * math.pi)
        norm, corr = pair_product_check(theta, phi, delta_of_theta(theta))
        comm.append(norm)
        g_res.append(abs(corr - g_of_theta(theta)))
    n_triples = min(args.samples, 100)
    triples = [triple_product_check(*_orthonormal_triple(rng))
               for _ in range(n_triples)]
    print(f"samples: {args.samples}  seed: {args.seed}")
    ok = True
    for what, residuals, tol in (
            ("commutator residual", comm, QUANTUM_COMM_TOL),
            ("g(theta) residual", g_res, QUANTUM_G_TOL),
            (f"triple-product residual over {n_triples} triples", triples,
             QUANTUM_TRIPLE_TOL)):
        # max alone skips a nan that does not come first
        worst = math.nan if any(map(math.isnan, residuals)) else max(residuals)
        print(f"max {what}: {_fmt(worst)} (tol {tol:g})")
        ok = ok and worst < tol
    print("PASS" if ok else "FAIL")
    if not ok:
        raise Exit(EXIT_CHECK_FAILED, "a residual exceeds its tolerance")


def cmd_discontinuity(args) -> None:
    angle = _angle(args)
    v = _decide(angle)
    if v.classical:
        raise Exit(EXIT_USAGE, f"{args.p}/{args.q} is Classical; "
                   "the probe needs a Nonclassical start")
    eps_frac = args.epsilon / (2.0 * math.pi)
    if eps_frac == 0:
        raise Exit(EXIT_USAGE, f"--epsilon {args.epsilon!r} rounds to a "
                   "radius of 0 in delta/2pi")
    # a neighbour above the witness limit would exit 3 at _decide anyway
    q_max = min(args.q_max, WITNESS_Q_MAX)
    found, dist = find_classical_neighbor(angle, Fraction(eps_frac), q_max)
    if found is None:
        raise Exit(EXIT_RESOURCE, f"no even-denominator fraction within "
                   f"{_fmt(eps_frac)} of {args.p}/{args.q} with q' <= {q_max}; "
                   f"closest achieved distance {_fmt(float(dist))}")
    v2 = _decide(found)
    print(f"nonclassical member: {args.p}/{args.q}")
    for line in _verdict_lines(v):
        print("  " + line)
    print(f"classical neighbor: {found.p}/{found.q} "
          f"(distance {_fmt(float(dist))} in delta/2pi)")
    for line in _verdict_lines(v2):
        print("  " + line)


def cmd_ks_color(args) -> None:
    vset = _or_exit(EXIT_RESOURCE, VectorSet, args.vectors)
    result = _or_exit(EXIT_RESOURCE, ks_colorability, vset, mode=args.mode)
    print(f"vectors: {len(vset.vectors)}  orthogonal pairs: {len(vset.pairs)}  "
          f"triples: {len(vset.triples)}")
    if result.satisfiable:
        print(f"SAT ({result.coloring})")
    else:
        print("UNSAT")
    if result.count is not None:
        print(f"colorings: {result.count}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later one: callers must not mutate it.  Its types and command functions
    keep no state between calls, and parse_args builds a fresh Namespace
    each time, so no call sees an earlier one."""
    parser = argparse.ArgumentParser(
        prog="contextant",
        description="Hidden-variable classicality of the tilted spin-1 "
        "pair-measurement family",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verdict", help="decide one family member")
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--theta", type=_theta)
    p.add_argument("--q-max", default=100, type=_checked(
        int, lambda n: 2 <= n <= THETA_Q_MAX, f"in [2, {THETA_Q_MAX}]"))
    p.add_argument("--tolerance", type=_finite_nonnegative_float, default=1e-2)
    p.set_defaults(func=cmd_verdict)

    p = sub.add_parser("scan", help="tabulate verdicts over all reduced fractions")
    p.add_argument("--q-max", required=True,
                   type=_checked(int, lambda n: 2 <= n <= 10000, "in [2, 10000]"))
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("oracle", help="exact cycle-minimum oracle")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("quantum-check", help="randomized operator-identity suite")
    p.add_argument("--samples", default=1000, type=_checked(
        int, lambda n: 1 <= n <= QUANTUM_SAMPLES_MAX, f"in [1, {QUANTUM_SAMPLES_MAX}]"))
    p.add_argument("--seed", type=_checked(int, lambda n: n >= 0, ">= 0"),
                   default=42)
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
    p.add_argument("vectors", metavar="file", type=_vector_file,
                   help="text file, one unit vector per line (3 reals)")
    p.add_argument("--mode", choices=("strict", "relaxed"), default="strict")
    p.set_defaults(func=cmd_ks_color)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        args.func(args)
    except Exit as e:
        print(f"{args.command}: {e}", file=sys.stderr)
        return e.code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""Fuzz test of the exit-code contract: for every subcommand and every
argument list, valid, boundary or malformed, `main(argv)` returns 0, 1, 2
or 3 without raising, and writes to stderr whenever it does not return 0:
one line "<command>: <reason>" on exit 1 or 3, and on exit 2 that line or
argparse's usage and error.

Sizes are bounded so that one example runs well under a second: scan
--q-max <= 200, quantum-check --samples <= 20, oracle q <= 2000, verdict
--q-max <= 10^4 and discontinuity --epsilon >= 1e-4.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from contextant.assignment_model import WITNESS_Q_MAX
from contextant.cli import main

MALFORMED = ["", "abc", "1.5", "1e3", "0x10", "nan", "inf", "-inf", "--", " 7"]


def mostly(common, rare):
    """common two times in three, rare otherwise."""
    return st.sampled_from([True, True, False]).flatmap(
        lambda c: common if c else rare)


def text(values):
    """A value the option should parse, or a malformed one."""
    return mostly(values.map(str), st.sampled_from(MALFORMED))


def floats(lo, hi):
    """Floats in [lo, hi], with boundary, non-finite and out-of-range
    values."""
    return text(mostly(st.floats(lo, hi),
                       st.floats() | st.sampled_from([lo, hi, 0.0, -lo])))


@st.composite
def member(draw, q_max, nonclassical=False):
    """--p and --q of a family member (two times in three), the member
    swapped, negated or with one of them missing, or arbitrary values.
    With nonclassical, q is odd and p one of the two largest, which makes
    the member Nonclassical for q >= 5."""
    q = draw(st.integers(1, q_max // 2).map(lambda n: 2 * n + 1)
             if nonclassical else st.integers(2, q_max))
    ps = [p for p in range(-(-q // 4), q // 2 + 1) if math.gcd(p, q) == 1]
    p = draw(st.sampled_from(ps[-2:] if nonclassical else ps)) if ps else 1
    p, q = draw(mostly(st.just((p, q)), st.one_of(
        st.sampled_from([(q, p), (p, None), (None, q), (-p, q), (p, 0)]),
        st.tuples(text(st.integers(-3, 50)), text(st.integers(-3, 50))))))
    return [arg for flag, value in (("--p", p), ("--q", q)) if value is not None
            for arg in (flag, str(value))]


def at_least(lo, hi, below):
    """Integers in [lo, hi], or in [below, lo) one time in three."""
    return mostly(st.integers(lo, hi), st.integers(below, lo - 1))


def options(**strategies):
    """Each option present with a drawn value or absent, in any order."""
    pairs = [mostly(s.map(lambda v, f=flag: [f, v]), st.none())
             for flag, s in strategies.items()]
    return st.tuples(*pairs).flatmap(
        lambda drawn: st.permutations([o for o in drawn if o is not None])
    ).map(lambda opts: [arg for o in opts for arg in o])


def command(name, *parts):
    return st.tuples(*parts).map(lambda ps: [name] + [a for p in ps for a in p])


# witness-limit members: classical (p just above q/4) and nonclassical (q//2)
BIG_Q = WITNESS_Q_MAX + 1
big_members = st.sampled_from([["--p", str(BIG_Q // 4 + 1), "--q", str(BIG_Q)],
                               ["--p", str(BIG_Q // 2), "--q", str(BIG_Q)]])

verdict = command(
    "verdict",
    st.one_of(member(2000), big_members, st.just([])),
    options(**{"--theta": floats(math.pi / 4, math.pi / 2),
               "--q-max": text(at_least(2, 10_000, -1)),
               "--tolerance": floats(0.0, 1.0)}),
)
scan = command("scan", options(**{
    "--q-max": text(at_least(2, 200, -1)),
    "--format": st.sampled_from(["csv", "json", "xml", ""])}))
oracle = command("oracle", member(2000))
quantum_check = command("quantum-check", options(**{
    "--samples": text(at_least(1, 20, -2)),
    "--seed": text(at_least(0, 2**70, -(2**70)))}))
discontinuity = command(
    "discontinuity", member(2000, nonclassical=True),
    options(**{"--epsilon": text(mostly(st.floats(1e-4, 10.0),
                                        st.sampled_from([0.0, -1.0]))),
               "--q-max": text(at_least(2, 10**6, -1))}),
)

# ks-color reads a file: its lines are drawn here and written by the test;
# the extreme finite components are the largest and smallest floats and ones
# whose norm overflows or whose squares underflow
vector_line = st.one_of(
    st.lists(st.sampled_from(["1", "0", "-1", "0.5", "nan", "inf", "x", "1.7e308",
                              "-1.7976931348623157e308", "5e-324", "-1e-310"]),
             min_size=0, max_size=4).map(" ".join),
    st.sampled_from(["1 0 0", "0 1 0", "0 0 1", "1 1 0", "1 -1 0"]))
ks_color = command(
    "ks-color",
    st.one_of(st.lists(vector_line, max_size=8).map(lambda ls: [ls]),
              st.just(["/nonexistent/vectors.txt"]), st.just([])),
    options(**{"--mode": st.sampled_from(["strict", "relaxed", "loose"])}),
)

malformed = st.lists(st.sampled_from(
    ["verdict", "bogus", "--p", "3", "--help", "-h", "--q-max", ""]), max_size=3)

argvs = st.one_of(verdict, scan, oracle, quantum_check, discontinuity,
                  ks_color, malformed)


def run(argv, workdir: Path):
    """main(argv) with a drawn vector file written under workdir; returns
    (code, stderr)."""
    argv = list(argv)
    for i, arg in enumerate(argv):
        if isinstance(arg, list):
            path = workdir / "vectors.txt"
            path.write_text("\n".join(arg) + "\n")
            argv[i] = str(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=400, deadline=None)
@given(argv=argvs)
@example(argv=["quantum-check", "--seed", "-5"])
@example(argv=["verdict", "--theta", "nan"])
@example(argv=["discontinuity", "--q", "5", "--p", "2", "--epsilon", "inf"])
@example(argv=["discontinuity", "--p", "2", "--q", "5", "--epsilon", "5e-324",
               "--q-max", "1000"])  # a radius that rounds to 0: exit 2
@example(argv=["ks-color", ["0 0 0"]])
@example(argv=["ks-color", ["1.7e308 1.7e308 0", "5e-324 -5e-324 0", "0 0 -1e-310"]])
# members whose step angle overflows a float: q itself, and 2*pi*p
@example(argv=["verdict", "--p", str(2**1023), "--q", str(2**1024 + 1)])
@example(argv=["discontinuity", "--p", str(3 * 10**307), "--q", str(6 * 10**307 + 1),
               "--epsilon", "0.1"])
def test_exit_code_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        code, err = run(argv, Path(tmp))
    assert code in (0, 1, 2, 3)
    assert code == 0 or err
    prefix = f"{argv[0]}: " if argv else "usage: "
    if code in (1, 3):
        assert err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n")
    if code == 2:
        assert err.startswith(("usage: ", prefix))

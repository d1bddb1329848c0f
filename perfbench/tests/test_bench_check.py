"""The benchmark's output checker accepts the program's correct output and
counts corrupted output as failed."""

import contextlib
import io
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import check  # noqa: E402
import inputs  # noqa: E402
from contextant.cli import main  # noqa: E402


def cli(*argv: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == 0
    return buf.getvalue()


def test_one_third_is_an_exact_tie():
    ref = check.reference(1, 3)
    assert ref.tie and not ref.guarded
    assert ref.verdict == "Classical" and ref.margin == 0.0
    out = check.check_verdict(cli("verdict", "--p", "1", "--q", "3"), 1, 3)
    assert out.ok and out.ties == 1 and out.unchecked == 0


def test_scan_passes_and_counts_the_three_niven_ties():
    out = check.check_scan(cli("scan", "--q-max", "30"), 30)
    assert out.ok, out.reason
    assert out.ties == 3 and out.unchecked == 0


def test_corrupted_verdict_row_fails():
    text = cli("scan", "--q-max", "30")
    assert ",Nonclassical," in text
    flipped = text.replace(",Nonclassical,", ",Classical,", 1)
    assert not check.check_scan(flipped, 30).ok


def test_missing_scan_row_fails():
    lines = cli("scan", "--q-max", "30").splitlines(keepends=True)
    assert not check.check_scan("".join(lines[:-1]), 30).ok


def test_wrong_witness_weight_fails():
    text = cli("verdict", "--p", "3", "--q", "8")
    assert check.check_verdict(text, 3, 8).ok
    line = next(ln for ln in text.splitlines() if ln.startswith("witness mixture: "))
    w1 = line.split("weight ")[1].split(" on")[0]
    w2 = line.split("weight ")[2].split(" on")[0]
    # one weight changed: the weights no longer sum to 1
    assert not check.check_verdict(text.replace(f"weight {w1} ", "weight 1/7 ", 1), 3, 8).ok
    # both changed consistently: they sum to 1 but miss the correlation
    shifted = text.replace(f"weight {w1} ", "weight 1/2 ", 1).replace(
        f"weight {w2} ", "weight 1/2 ", 1)
    assert w1 != "1/2" and not check.check_verdict(shifted, 3, 8).ok


def test_invalid_coloring_fails(tmp_path):
    rays = inputs.peres33()[1:]
    path = tmp_path / "rays.txt"
    path.write_text("".join(" ".join(map(repr, v)) + "\n" for v in rays))
    text = cli("ks-color", str(path), "--mode", "strict")
    assert check.check_ks(text, rays, "strict", "sat").ok
    answer = next(ln for ln in text.splitlines() if ln.startswith("SAT ("))
    all_plus = f"SAT ({'+' * len(rays)})"  # leaves every orthogonal triple without a -1
    assert not check.check_ks(text.replace(answer, all_plus), rays, "strict", "sat").ok
    assert not check.check_ks(text.replace(answer, "UNSAT"), rays, "strict", "sat").ok


def test_peres33_geometry():
    pairs, triples = check.orthogonality(inputs.peres33())
    assert (len(pairs), len(triples)) == (72, 16)


def test_counting_mode_is_re_enumerated():
    rays = inputs.peres33()[:10]
    pairs, triples = check.orthogonality(rays)
    count = check.count_colorings(len(rays), pairs, triples, "relaxed")
    text = f"vectors: 10  orthogonal pairs: {len(pairs)}  triples: {len(triples)}\n"
    good = text + f"SAT ({'+' * 10})\ncolorings: {count}\n"
    assert check.check_ks(good, rays, "relaxed", "count").ok
    assert not check.check_ks(good.replace(f"colorings: {count}", f"colorings: {count + 1}"),
                              rays, "relaxed", "count").ok


def test_oracle_minimum_must_be_the_closed_form():
    text = cli("oracle", "--p", "2", "--q", "5")
    assert check.check_oracle(text, 2, 5).ok
    assert not check.check_oracle(text.replace("-3/5", "-4/5", 1), 2, 5).ok


def test_discontinuity_neighbor_must_lie_within_epsilon():
    text = cli("discontinuity", "--p", "2", "--q", "5", "--epsilon", "0.01",
               "--q-max", "1024")
    assert check.check_discontinuity(text, 2, 5, 0.01, 1024).ok
    assert not check.check_discontinuity(text, 2, 5, 0.001, 1024).ok

"""Every declared span records calls on its workload at a tiny size, the
tiny streams check clean, and run.py reports exactly the metrics that
BENCHMARK.json declares."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

TINY = {
    "scan-table": {"q_max": 20},
    "member-stream": {"q_range": (5, 300), "theta_q_max": (10, 60)},
    "search-stream": {"oracle_q": (10, 11), "scan_length": (20, 200), "quantum_samples": 5},
}

# The layer table of the benchmark README: where each span must do work.
SPANS_ON = {
    "scan-table": ["cli", "classicality.decide", "assignment_model.witness",
                   "assignment_model.min", "angle_family"],
    "member-stream": ["cli", "classicality.decide", "assignment_model.witness",
                      "angle_family"],
    "search-stream": ["cli", "classicality.neighbor", "classicality.vectorset",
                      "classicality.ks", "assignment_model.oracle", "kernel",
                      "spin_algebra"],
}


def test_every_span_has_a_workload():
    assert set().union(*SPANS_ON.values()) == set(spans.LAYERS)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_spans_record_calls_and_outputs_check(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    stream = inputs.generate(workload, 0, blocks=1, **TINY[workload])
    requests = stream[0]
    tracer = spans.Tracer()
    with open("stdout.txt", "w", encoding="utf-8") as out, \
            open("stderr.txt", "w", encoding="utf-8") as err, spans.installed(tracer):
        records = worker.serve(requests, out, err, block=len(requests),
                               count=len(requests))
    report = tracer.report()
    for name in SPANS_ON[workload]:
        assert report["calls"].get(name, 0) >= 1, name
        assert report["self_s"][name] > 0, name
    tally = run.check_outputs(tmp_path, "", requests, records)
    assert tally["attempted"] == len(requests)
    traced = {"records": records, "trace": report}
    layers = run.per_layer(traced, traced)
    assert layers["cli.bytes_out"] == (tmp_path / "stdout.txt").stat().st_size > 0
    assert tally["failed"] == 0, tally["failures"]

    import contextant.classicality
    import contextant.cli
    assert not hasattr(contextant.cli.main, "__wrapped__")
    assert not hasattr(contextant.cli.decide_pair_family, "__wrapped__")
    assert not hasattr(contextant.classicality.VectorSet.__post_init__, "__wrapped__")


def test_metric_names_match_benchmark_json():
    declared = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    records = [(0, 0.1, 1e-3, 1e-3, 10, 0), (0, 0.2, 1e-3, 1e-3, 20, 0)]
    tally = {"attempted": 2, "failed": 0}
    e2e = run.end_to_end(run.latencies(records), 1, 4, 1024, [0.2], tally)
    assert set(e2e) == {m["name"] for m in declared["end_to_end"]}
    report = {"trace": {"calls": {}, "self_s": {"cli": 0.3}, "counters": {}},
              "records": records}
    layers = run.per_layer({"records": records}, report)
    assert set(layers) == {m["name"] for m in declared["per_layer"]}

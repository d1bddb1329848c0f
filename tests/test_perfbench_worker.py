"""The benchmark's child processes run against this source tree.

perfbench/run.py starts perfbench/worker.py and perfbench/probe.py as
fresh interpreters, and a non-zero exit there fails the whole benchmark
run.  The worker imports contextant names that no CLI test reaches (among
them `contextant._kernel.BACKEND`), so each workload is served here
through run.py's own launcher: one block of its tiny stream, untraced and
traced.
"""

import sys
import time
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path[:0] = [str(PERFBENCH), str(PERFBENCH / "tests")]

import inputs  # noqa: E402
import run  # noqa: E402
from test_bench_run import TINY  # noqa: E402  the benchmark tests' own sizes


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_worker_serves_a_tiny_stream(workload, trace, tmp_path):
    stream = inputs.generate(workload, 0, blocks=1, **TINY[workload])
    requests = stream[0]
    # run_worker raises run.BenchError, with the worker's stderr, on a non-zero exit
    served = run.run_worker(tmp_path, time.monotonic() + 60, stream, prefix="",
                            trace=trace, block=len(requests), count=len(requests),
                            cap=60.0)
    assert len(served["records"]) == len(requests)
    assert (served["trace"] is not None) == trace
    tally = run.check_outputs(tmp_path, "", requests, served["records"])
    assert tally["failed"] == 0, tally["failures"]


def test_probe_times_the_set_up(tmp_path):
    [(raw, scaled)] = run.measure_setup(tmp_path, time.monotonic() + 60, 1)
    assert raw > 0 and scaled > 0

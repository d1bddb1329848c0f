"""Benchmark of the contextant CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Generates the seeded request stream of workload W, serves it from a fresh
worker process (see worker.py) and checks every output with check.py.
With --trace 0 the worker runs untraced for S seconds and the end-to-end
metrics are reported, every time scaled to the nominal speed of the
CPU-speed probe (probe.py) measured around it; with --trace 1 a fixed prefix of the stream is
served twice, untraced and traced, and the per-layer metrics are
reported.  The last line of stdout is the result object; the line before
it records the seed, a digest of the inputs and the run environment.
Metric names and units are those declared in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import inputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

MIN_REQUESTS = {"scan-table": 3, "member-stream": 100, "search-stream": 100}
# Blocks of the stream the traced comparison serves: a fixed amount of
# work, so per-layer totals compare across commits.
TRACE_BLOCKS = {"scan-table": 2, "member-stream": 10, "search-stream": 3}
SETUP_RUNS = 9
# probe.probe() on the reference machine in its fast phase (p5 of 3000)
PROBE_NOMINAL_S = 1.2e-3
LOOP_CAP_S = 120.0  # a timed loop stops here; short of MIN_REQUESTS the run fails
TRACE_CAP_S = 60.0  # per traced-comparison worker; short of its count the run fails
DEADLINE_S = 170.0  # the whole run


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "CONTEXTANT_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run(argv: list[str], work: Path, deadline: float) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time")
    try:
        proc = subprocess.run(argv, cwd=work, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:  # run() has killed and reaped it
        raise BenchError(f"{argv[1]} timed out") from e
    if proc.returncode != 0:
        raise BenchError(f"{argv[1]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def scale(seconds: float, before: float, after: float) -> float:
    """A time measured between two probes, at the probe's nominal speed."""
    return seconds * 2.0 * PROBE_NOMINAL_S / (before + after)


def measure_setup(work: Path, deadline: float, runs: int) -> list[tuple[float, float]]:
    """(raw, scaled) import-and-build-parser times in fresh interpreters."""
    out = []
    for _ in range(runs):
        proc = _run([sys.executable, str(HERE / "probe.py")], work, deadline)
        setup, *probes = map(float, proc.stdout.split())
        out.append((setup, scale(setup, *probes)))
    return out


def run_worker(work: Path, deadline: float, stream: list, *, prefix: str, trace: bool,
               block: int, seconds: float = 0.0, min_requests: int = 0,
               count: int | None = None, cap: float) -> dict:
    spec = {"stream": stream, "prefix": prefix, "trace": trace, "block": block,
            "seconds": seconds, "min_requests": min_requests, "count": count,
            "max_seconds": cap}
    (work / f"{prefix}spec.json").write_text(json.dumps(spec), encoding="utf-8")
    _run([sys.executable, str(HERE / "worker.py"), f"{prefix}spec.json",
          f"{prefix}result.json"], work, deadline)
    return json.loads((work / f"{prefix}result.json").read_text(encoding="utf-8"))


def check_outputs(work: Path, prefix: str, requests: list[dict], records: list) -> dict:
    """Check each served request's output; equal outputs of one request are
    checked once."""
    out = (work / f"{prefix}stdout.txt").read_bytes()
    err = (work / f"{prefix}stderr.txt").read_bytes()
    tally = {"attempted": 0, "failed": 0, "unchecked": 0, "exact_ties": 0, "failures": []}
    seen: dict[tuple, check.Outcome] = {}
    out_start = err_start = 0
    for i, (rc, _, _, _, out_end, err_end) in enumerate(records):
        chunk, out_start = out[out_start:out_end], out_end
        err_chunk, err_start = err[err_start:err_end], err_end
        key = (i % len(requests), rc, chunk)
        if key not in seen:
            req = requests[i % len(requests)]
            try:
                seen[key] = check.check_request(req, rc, chunk.decode("utf-8"))
            except (ValueError, IndexError, KeyError, UnicodeDecodeError) as e:
                seen[key] = check.Outcome(False, reason=f"unparsable output: {e!r}")
        outcome = seen[key]
        tally["attempted"] += 1
        tally["unchecked"] += outcome.unchecked
        tally["exact_ties"] += outcome.ties
        if not outcome.ok:
            tally["failed"] += 1
            if len(tally["failures"]) < 5:
                tail = err_chunk.decode("utf-8", "replace").strip()[-300:]
                tally["failures"].append(outcome.reason + (f" | stderr: {tail}" if tail else ""))
    return tally


def latencies(records: list, scaled: bool = True) -> list[float]:
    return [scale(dt, before, after) if scaled else dt
            for _, dt, before, after, *_ in records]


def end_to_end(lat: list[float], block: int, lines: int, maxrss_kb: int,
               setup: list[float], tally: dict) -> dict[str, float]:
    busy = sum(lat)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(lat[i:i + block]) for i in range(0, len(lat), block)),
        "rows_per_s": lines / busy,
        "req_per_s": len(lat) / busy,
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3,
        "peak_rss_mb": maxrss_kb / 1024,
        "ok_frac": (tally["attempted"] - tally["failed"]) / tally["attempted"],
    }


def per_layer(plain: dict, traced: dict) -> dict[str, float]:
    n = min(len(plain["records"]), len(traced["records"]))
    traced_raw = sum(latencies(traced["records"], scaled=False))
    # self times scale by the traced run's overall probe factor
    factor = sum(latencies(traced["records"])) / traced_raw
    report = traced["trace"]
    metrics: dict[str, float] = {}
    for name in spans.LAYERS:
        metrics[f"{name}.calls"] = report["calls"].get(name, 0)
        metrics[f"{name}.self_s"] = report["self_s"].get(name, 0.0) * factor
    for counter, _ in spans.COUNTERS.values():
        metrics[counter] = report["counters"].get(counter, 0)
    metrics["cli.bytes_out"] = traced["records"][-1][4]  # end offset of stdout
    metrics["trace.overhead_ratio"] = (sum(latencies(traced["records"][:n]))
                                       / sum(latencies(plain["records"][:n])))
    metrics["trace.coverage_ratio"] = sum(report["self_s"].values()) / traced_raw
    return metrics


def environment(worker: dict) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"git_sha": git_sha, "src_sha256": src.hexdigest(),
            "python": worker["python"], "numpy": worker["numpy"],
            "backend": worker["backend"], "nproc": os.cpu_count(),
            "contextant_threads": "unset", "workers_at_once": 1}


def declared_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def bench(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    stream = inputs.generate(workload, seed)
    requests = [req for blk in stream for req in blk]
    block = len(stream[0])
    record = {"workload": workload, "seed": seed, "trace": int(trace),
              "inputs_sha256": inputs.digest(stream), "requests_generated": len(requests)}
    if trace:
        count = TRACE_BLOCKS[workload] * block
        plain = run_worker(work, deadline, stream, prefix="plain-", trace=False,
                           block=block, count=count, cap=TRACE_CAP_S)
        traced = run_worker(work, deadline, stream, prefix="traced-", trace=True,
                            block=block, count=count, cap=TRACE_CAP_S)
        for name, served in (("untraced", plain), ("traced", traced)):
            if len(served["records"]) < count:
                raise BenchError(f"{name} comparison served {len(served['records'])} "
                                 f"of {count} requests within {TRACE_CAP_S:g} s")
        tally = check_outputs(work, "plain-", requests, plain["records"])
        for key, value in check_outputs(work, "traced-", requests,
                                        traced["records"]).items():
            tally[key] += value
        metrics = per_layer(plain, traced)
        worker = traced
    else:
        # The first interpreter writes the bytecode caches and is not
        # counted; the rest are split around the timed loop so that the
        # median spans the run rather than one moment of the machine.
        measure_setup(work, deadline, 1)
        setup = measure_setup(work, deadline, SETUP_RUNS // 2)
        worker = run_worker(work, deadline, stream, prefix="", trace=False, block=block,
                            seconds=seconds, min_requests=MIN_REQUESTS[workload],
                            cap=LOOP_CAP_S)
        if len(worker["records"]) < MIN_REQUESTS[workload]:
            raise BenchError(f"served {len(worker['records'])} of at least "
                             f"{MIN_REQUESTS[workload]} requests within {LOOP_CAP_S:g} s")
        setup += measure_setup(work, deadline, SETUP_RUNS - len(setup))
        tally = check_outputs(work, "", requests, worker["records"])
        lines = (work / "stdout.txt").read_bytes().count(b"\n")
        records = worker["records"]
        metrics = end_to_end(latencies(records), block, lines, worker["maxrss_kb"],
                             [s for _, s in setup], tally)
        record["unscaled"] = end_to_end(latencies(records, scaled=False), block, lines,
                                        worker["maxrss_kb"], [r for r, _ in setup], tally)
        record["probe_s_median"] = statistics.median(
            x for r in records for x in r[2:4])
    record.update(tally, env=environment(worker))
    units = declared_units(trace)
    if set(units) != set(metrics):
        raise BenchError(f"metrics {sorted(set(units) ^ set(metrics))} "
                         "disagree with BENCHMARK.json")
    result = {"correct": tally["failed"] == 0, "attempted": tally["attempted"],
              "failed": tally["failed"],
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    return record, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.BLOCK_MAKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM unwind normally: subprocess.run kills and reaps the
    # running child and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "contextant" / "cli.py").is_file():
        print(f"run.py: no contextant sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        record, result = bench(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while not empty
            WORK.rmdir()
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Closed-loop client: one process, one request in flight, no threads.

Usage: python3 worker.py SPEC RESULT, from the run's work directory, with
contextant's ``src`` on PYTHONPATH.  SPEC (written by run.py) holds the
request stream and when to stop; RESULT receives, per request, the exit
code, the latency, the probe times around it and the end offsets of its
stdout and stderr in the two capture files, plus the worker's peak RSS
and, when traced, the spans.

Each request calls ``contextant.cli.main(argv)`` in this process with
stdout and stderr redirected to real files.  The latency covers the call
and the flush that hands its output to the operating system; writing a
ks-color vector file happens before the clock starts.  The CPU-speed
probe runs just before and just after each request, outside its latency.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import traceback

import spans
from probe import probe


def serve(requests: list[dict], out, err, *, block: int, seconds: float = 0.0,
          min_requests: int = 0, count: int | None = None,
          max_seconds: float = 120.0) -> list[tuple]:
    """Serve requests in order, cycling, and stop at a block boundary once
    `count` requests are done or, without a count, once `seconds` have
    passed and `min_requests` are done; never later than `max_seconds`."""
    import contextant.cli as cli  # main is looked up per call: tracing patches it

    records = []
    start = time.perf_counter()
    i = 0
    while True:
        req = requests[i % len(requests)]
        if "file" in req:
            with open(req["file"], "w", encoding="utf-8") as fh:
                fh.writelines(" ".join(map(repr, v)) + "\n" for v in req["vectors"])
        before = probe()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(req["argv"])
            except Exception:  # a crash is a failed request, not a lost run
                traceback.print_exc()
                rc = None
            out.flush()
        dt = time.perf_counter() - t0
        err.flush()
        records.append((rc, dt, before, probe(), out.tell(), err.tell()))
        i += 1
        if i % block:
            continue
        elapsed = time.perf_counter() - start
        if count is not None and i >= count:
            break
        if count is None and elapsed >= seconds and i >= min_requests:
            break
        if elapsed >= max_seconds:
            break
    return records


def main() -> int:
    spec_path, result_path = sys.argv[1:3]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    import numpy

    import contextant._kernel

    requests = [req for block in spec["stream"] for req in block]
    tracer = spans.Tracer() if spec["trace"] else None
    prefix = spec["prefix"]
    with open(f"{prefix}stdout.txt", "w", encoding="utf-8") as out, \
            open(f"{prefix}stderr.txt", "w", encoding="utf-8") as err, \
            (spans.installed(tracer) if tracer else contextlib.nullcontext()):
        records = serve(requests, out, err, block=spec["block"],
                        seconds=spec["seconds"], min_requests=spec["min_requests"],
                        count=spec["count"], max_seconds=spec["max_seconds"])
    result = {
        "records": records,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "backend": contextant._kernel.BACKEND,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "trace": tracer.report() if tracer else None,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

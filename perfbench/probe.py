"""CPU-speed probe, and the set-up timing run in a fresh interpreter.

The benchmark's reference machine is a shared 2-vCPU VM whose speed for
pure-Python work swings by up to 1.6x over seconds to minutes: identical
``scan --q-max 400`` requests took 1.0 to 2.0 s within two minutes.  So
run.py scales every timing by PROBE_NOMINAL_S over the probe time next to
it; see the README.

Usage (set-up timing): python3 probe.py, with contextant's src on
PYTHONPATH.  Prints the seconds taken to import contextant.cli and build
its parser, then two probe times taken right after (and after a warm-up
probe).
"""

import time

PROBE_ITERATIONS = 20_000


def probe() -> float:
    """Seconds a fixed pure-Python integer loop takes right now.

    It allocates nothing the garbage collector tracks, so the program's
    heap cannot change its time.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_ITERATIONS):
        s += i * i % 7
    return time.perf_counter() - t0


def main() -> None:
    t0 = time.perf_counter()
    import contextant.cli

    contextant.cli.build_parser()
    setup = time.perf_counter() - t0
    probe()  # the first call in a fresh interpreter runs cold
    print(setup, probe(), probe())


if __name__ == "__main__":
    main()

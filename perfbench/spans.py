"""Per-layer tracing from outside the program.

``installed(tracer)`` wraps the public functions of each contextant module
named in ``LAYERS``.  The CLI and the verdict engine import most of these
names by value (``from .classicality import decide_pair_family``), so a
wrapper is installed under every name, in every loaded contextant module,
that refers to the original object; patching only the defining module
would miss those calls.

Each wrapper is one span.  Spans nest; a span's self time is its duration
minus the durations of the spans it directly encloses.  The tracer keeps
totals per span name instead of a list of spans, so a long traced run
holds constant memory.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import defaultdict

# span name -> (module, attribute) pairs; a dotted attribute is a method
LAYERS: dict[str, list[tuple[str, str]]] = {
    "cli": [("contextant.cli", "main")],
    "classicality.decide": [("contextant.classicality", "decide_pair_family"),
                            ("contextant.classicality", "decide_pair_family_generic")],
    "classicality.neighbor": [("contextant.classicality", "find_classical_neighbor")],
    "classicality.vectorset": [("contextant.classicality", "VectorSet.__post_init__")],
    "classicality.ks": [("contextant.classicality", "ks_colorability")],
    "assignment_model.witness": [("contextant.assignment_model", "mixture_for_target")],
    "assignment_model.min": [("contextant.assignment_model", "min_correlation")],
    "assignment_model.oracle": [("contextant.assignment_model", "brute_force_min")],
    "kernel": [("contextant._kernel", "min_cycle_sum")],
    "angle_family": [("contextant.angle_family", name) for name in (
        "delta_of_theta", "theta_of_delta", "g_of_theta", "g_of_delta",
        "classify", "rational_approximants")],
    "spin_algebra": [("contextant.spin_algebra", name) for name in (
        "direction_from_angles", "dichotomic", "commutator_norm", "expectation",
        "minus_one_eigenprojector", "triple_product_check")],
}


def _witness_entries(args, kwargs, result) -> int:
    """Sum of the component lengths of a mixture_for_target result."""
    if result is None:
        return 0
    return sum(len(getattr(a, "values", ())) for _, a in result.components)


def _masks(args, kwargs, result) -> int:
    """Sign vectors min_cycle_sum(q) enumerates: 2^q."""
    return 2 ** (args[0] if args else kwargs["q"])


# span name -> (counter name, function of (args, kwargs, result))
COUNTERS = {
    "assignment_model.witness": ("assignment_model.witness_entries", _witness_entries),
    "kernel": ("kernel.masks", _masks),
}


class Tracer:
    """Call counts, self times and counters per span name."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self._children: list[float] = []  # child time of each open span

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        children = self._children
        clock = time.perf_counter

        def span(*args, **kwargs):
            children.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self.self_s[name] += dt - children.pop()
                self.calls[name] += 1
                if children:
                    children[-1] += dt
            if counter is not None:
                self.counters[counter[0]] += counter[1](args, kwargs, result)
            return result

        span.__wrapped__ = fn
        return span

    def report(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counters": dict(self.counters)}


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install a span around every LAYERS function, restoring on exit."""
    patches = []  # (owner, attribute, original)
    try:
        for span_name, targets in LAYERS.items():
            for module_name, attr in targets:
                owner = importlib.import_module(module_name)
                if "." in attr:  # a method: patch the class every caller shares
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                    original = owner.__dict__[attr]
                    sites = [(owner, attr)]
                else:
                    original = getattr(owner, attr)
                    sites = [(module, name)
                             for loaded, module in list(sys.modules.items())
                             if loaded.split(".")[0] == "contextant"
                             for name, value in vars(module).items()
                             if value is original]
                wrapper = tracer.wrap(span_name, original)
                for site, name in sites:
                    patches.append((site, name, original))
                    setattr(site, name, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

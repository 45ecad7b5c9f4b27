"""Charge a cProfile run of the repro package to its runtime layers.

A Python function belongs to the layer that owns its source file: the
subpackage directly under ``src/repro`` (``phy``, ``sim``, ...).  Code that
is not part of the package (C builtins, the standard library) is charged to
the layers of its callers, in proportion to the self time each caller edge
recorded, so a ``heapq.heappop`` issued by the engine counts as ``sim`` and
one issued by the scheduler counts as ``phy``.  Anything that cannot be
traced back to a layer (the benchmark's own code, the profiler's
bookkeeping) lands in :data:`UNMAPPED`.

All functions here read ``cProfile.Profile.getstats()`` entries, so the
program under test is never edited: the profile is taken from outside.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: The runtime packages of ``src/repro``, in pipeline order.
LAYERS = (
    "sim", "phy", "net", "app", "media", "cc", "mitigation", "core", "trace",
    "run",
)

#: Bucket for self time no layer owns.
UNMAPPED = "unmapped"

#: Boundary spans: cumulative time of public entry points, by
#: ``(path under src/repro, function name)``.  Spans nest (a ``put`` also
#: saves the index), so they are read one by one and never summed.
SPANS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "run.build_s": (("run/builder.py", "build"), ("run/builder.py", "start")),
    "sim.run_until_s": (("sim/engine.py", "run_until"),),
    "media.qoe_s": (("media/quality.py", "qoe_summary"),),
    "run.map_wait_s": (("run/batch.py", "map"),),
    "run.fingerprint_s": (("run/cache.py", "scenario_fingerprint"),),
    "run.cache_get_s": (("run/cache.py", "get"),),
    "run.cache_put_s": (("run/cache.py", "put"),),
    "run.cache_save_s": (("run/cache.py", "save"),),
    "run.rehydrate_s": (("run/cache.py", "rehydrate_result"),),
    "trace.decode_s": (("trace/columnar.py", "trace_from_payload"),),
}

#: ``trace.close_s`` is the sink ``close()`` plus ``result_trace()`` as
#: ``SessionBuilder.run`` calls them (the AnalysisTap drain included); it
#: is read from that caller's edges so a wrapped sink is not counted twice.
CLOSE_CALLER = ("run/builder.py", "run")
CLOSE_CALLEES = ("close", "result_trace")

#: The engine loop whose direct Python callees are the event callbacks.
DISPATCH = ("sim/engine.py", "run_until")

SPAN_NAMES = tuple(SPANS) + ("trace.close_s",)


class LayerMap:
    """Maps profiled code objects to layers under one ``src/repro`` root.

    Code under ``harness_dir`` (the benchmark itself) is UNMAPPED.
    """

    def __init__(self, package_dir: str, harness_dir: str) -> None:
        self.prefix = os.path.abspath(package_dir) + os.sep
        self.harness = os.path.abspath(harness_dir) + os.sep

    def relpath(self, code: object) -> Optional[str]:
        """``'phy/ran.py'`` for package code; None for builtins and others."""
        filename = getattr(code, "co_filename", None)
        if filename is None or not filename.startswith(self.prefix):
            return None
        return filename[len(self.prefix):].replace(os.sep, "/")

    def package(self, code: object) -> Optional[str]:
        """The first path component under ``src/repro`` (may be a file)."""
        rel = self.relpath(code)
        return None if rel is None else rel.split("/", 1)[0]

    def own_layer(self, code: object) -> Optional[str]:
        """The layer that owns ``code``; UNMAPPED for package code outside
        :data:`LAYERS` and for the harness; None when its callers pay."""
        package = self.package(code)
        if package is not None:
            return package if package in LAYERS else UNMAPPED
        if getattr(code, "co_filename", "").startswith(self.harness):
            return UNMAPPED
        return None

    def matches(self, code: object, key: Tuple[str, str]) -> bool:
        """Whether ``code`` is the function ``key`` = (relpath, name)."""
        return getattr(code, "co_name", None) == key[1] and self.relpath(code) == key[0]


def attribute_self_time(stats: Sequence, layers: LayerMap) -> Dict[str, float]:
    """Self seconds per layer (plus UNMAPPED) over a whole profile."""
    callers: Dict[object, List[Tuple[object, float, int]]] = defaultdict(list)
    for entry in stats:
        for sub in entry.calls or ():
            callers[sub.code].append((entry.code, sub.inlinetime, sub.callcount))
    memo: Dict[object, Dict[str, float]] = {}

    def shares(code: object, stack: Set[object]) -> Dict[str, float]:
        if code in memo:
            return memo[code]
        layer = layers.own_layer(code)
        if layer is not None:
            result = {layer: 1.0}
        else:
            edges = [edge for edge in callers.get(code, ()) if edge[0] not in stack]
            by_time = sum(t for _, t, _ in edges) > 0
            weights = [(caller, t if by_time else n) for caller, t, n in edges]
            total = sum(w for _, w in weights)
            if total <= 0:
                result = {UNMAPPED: 1.0}
            else:
                acc: Dict[str, float] = defaultdict(float)
                stack.add(code)
                for caller, weight in weights:
                    for name, share in shares(caller, stack).items():
                        acc[name] += share * weight / total
                stack.discard(code)
                result = dict(acc)
        memo[code] = result
        return result

    out = {name: 0.0 for name in LAYERS + (UNMAPPED,)}
    for entry in stats:
        for name, share in shares(entry.code, set()).items():
            out[name] += entry.inlinetime * share
    return out


def layer_counts(stats: Sequence, layers: LayerMap) -> Dict[str, Dict[str, int]]:
    """Exact counts per layer: Python function entries and engine callbacks.

    ``calls`` counts entries into the layer's own functions (builtins and
    the standard library are left out, since their counts follow timing in
    the pool's result threads).  ``callbacks`` counts the Python callables
    ``Simulator.run_until`` dispatched, by the layer that owns them.
    """
    calls = {name: 0 for name in LAYERS + (UNMAPPED,)}
    callbacks = dict(calls)
    for entry in stats:
        package = layers.package(entry.code)
        if package is not None:
            calls[package if package in LAYERS else UNMAPPED] += entry.callcount
        if layers.matches(entry.code, DISPATCH):
            for sub in entry.calls or ():
                if isinstance(sub.code, str):
                    continue  # heap operations, not callbacks
                callbacks[layers.own_layer(sub.code) or UNMAPPED] += sub.callcount
    return {"calls": calls, "callbacks": callbacks}


def spans(stats: Sequence, layers: LayerMap) -> Dict[str, float]:
    """Cumulative seconds in each boundary span of :data:`SPAN_NAMES`."""
    out = {name: 0.0 for name in SPAN_NAMES}
    for entry in stats:
        for name, keys in SPANS.items():
            if any(layers.matches(entry.code, key) for key in keys):
                out[name] += entry.totaltime
        if layers.matches(entry.code, CLOSE_CALLER):
            for sub in entry.calls or ():
                if getattr(sub.code, "co_name", None) in CLOSE_CALLEES:
                    out["trace.close_s"] += sub.totaltime
    return out


def packages_reached(stats: Iterable, layers: LayerMap) -> List[str]:
    """Every ``src/repro`` package (or top-level module) a profile entered."""
    found = {layers.package(entry.code) for entry in stats}
    found.discard(None)
    return sorted(found)

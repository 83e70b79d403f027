"""In-memory span recorder for the traced benchmark run.

The recorder wraps the public functions that ``sgdrift.cli``, ``sgdrift.sgdp``
and ``sgdrift.sgdd`` call, by replacing the module attributes those modules
look up at call time, so no file under ``src/`` changes. Each call becomes
one span (layer name, start, end, parent span). Spans live in flat arrays
while the run lasts and are written out once, at the end.

A layer's self time is its busy time minus the time covered by its child
spans; single-threaded calls nest strictly, so children never overlap.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

_MISSING = object()


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.code = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def clear(self) -> None:
        # In place: the wrappers hold references to these arrays.
        for arr in (self.code, self.parent, self.start, self.end):
            del arr[:]
        del self._stack[1:]

    def wrap(self, name: str, fn):
        """Return ``fn`` with every call recorded as a span named ``name``."""
        code = self._codes.setdefault(name, len(self._codes))
        if code == len(self.names):
            self.names.append(name)
        codes, parents, starts, ends = self.code, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(codes)
            codes.append(code)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def totals(self) -> tuple[dict, dict, Counter]:
        """Busy seconds, self seconds and call count per layer name."""
        covered = [0.0] * len(self.code)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += self.end[idx] - self.start[idx]
        busy: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for idx, code in enumerate(self.code):
            name = self.names[code]
            duration = self.end[idx] - self.start[idx]
            busy[name] += duration
            own[name] += duration - covered[idx]
            calls[name] += 1
        return busy, own, calls

    def write(self, handle, trace_id: str) -> int:
        """Append this recorder's spans as JSON lines; returns the count.

        One line per span: [trace_id, span, parent, name, start_s, end_s],
        times relative to the first span's start.
        """
        origin = self.start[0] if self.start else 0.0
        for idx, code in enumerate(self.code):
            handle.write(json.dumps([trace_id, idx, self.parent[idx], self.names[code],
                                     round(self.start[idx] - origin, 9),
                                     round(self.end[idx] - origin, 9)]) + "\n")
        return len(self.code)


class LayerProbe:
    """Counts that the spans alone do not give: butterflies and graph growth.

    A window can add an oscillator edge only together with a new vertex
    (``project`` links every pair of butterflies that share a j-vertex when
    the later one is inserted), so a growing vertex count marks a changed
    graph.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.found = 0
        self.projections = 0
        self.changed = 0
        self.graph = None

    def count_found(self, fn):
        def counted(*args, **kwargs):
            keys = fn(*args, **kwargs)
            self.found += len(keys)
            return keys
        return counted

    def watch_graph(self, fn):
        def watched(window, graph, young):
            before = len(graph.vertices)
            keys = fn(window, graph, young)
            self.projections += 1
            self.changed += len(graph.vertices) != before
            self.graph = graph
            return keys
        return watched


def instrumentation(recorder: SpanRecorder, probe: LayerProbe, modules) -> list:
    """(owner, attribute, replacement) for every traced call site."""
    cli, sgdp, sgdd, uwgo, signals = (modules[k] for k in
                                      ("cli", "sgdp", "sgdd", "uwgo", "signals"))
    wrap = recorder.wrap
    return [
        (cli, "parse_sgr", wrap("stream_model.parse", cli.parse_sgr)),
        (cli, "sgdp_step", wrap("sgdp.step", cli.sgdp_step)),
        (cli, "sgdd_step", wrap("sgdd.step", cli.sgdd_step)),
        (cli, "distances", wrap("harness.eval", cli.distances)),
        # Emitting a signal is its serialisation plus the write; the CLI
        # calls the builtin ``print`` for the write, looked up in its module.
        (cli, "print", wrap("signals.emit", print)),
        (signals.DriftSignal, "to_json", wrap("signals.emit", signals.DriftSignal.to_json)),
        (sgdp, "ingest_timestamp", wrap("stream_model.ingest", sgdp.ingest_timestamp)),
        (sgdp, "cds_bursts", wrap("sgdp.check", sgdp.cds_bursts)),
        (sgdd, "ingest", wrap("stream_model.ingest", sgdd.ingest)),
        (sgdd, "young_timestamps", wrap("butterfly.young", sgdd.young_timestamps)),
        (sgdd, "project", probe.watch_graph(wrap("uwgo.project", sgdd.project))),
        (uwgo, "enumerate_young",
         probe.count_found(wrap("butterfly.enumerate", uwgo.enumerate_young))),
        (sgdd, "assign_phases", wrap("uwgo.phases", sgdd.assign_phases)),
        (sgdd, "order_parameter", wrap("uwgo.order", sgdd.order_parameter)),
        (sgdd, "rk4_step", wrap("uwgo.rk4", sgdd.rk4_step)),
        (sgdd, "cdc_butterfly", wrap("sgdd.check", sgdd.cdc_butterfly)),
    ]


@contextmanager
def patched(replacements):
    """Install attribute replacements, restoring the originals on exit."""
    saved = [(owner, attr, vars(owner).get(attr, _MISSING))
             for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            if value is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)

"""Span recording from outside the program.

The benchmark times each layer by swapping the layer's public function for
a wrapper that records a span around the call, and swapping the original
back afterwards. Nothing under ``src/`` knows it is being measured.

Two patching details matter:

* A function imported by name (``from x import f``) is a separate binding
  in the importing module, so it is patched *where it is looked up*, not
  where it is defined: ``build_comm_graph`` in
  ``repro.core.mapping.serverside``, ``compute_schedule`` and
  ``producer_schedule`` in ``repro.cods.space`` and ``repro.apps.jaguar``.
* A property is not callable: its getter is wrapped and a new ``property``
  object installed, and the original ``property`` object restored.

Spans are kept in memory as ``[name, start_ns, end_ns, parent, run]`` lists;
a span's id is its index, ``parent`` is the enclosing span's id (``-1`` at
the top level) and ``run`` numbers the rep it belongs to.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

#: a span: [name, start_ns, end_ns, parent id, run id]
Span = list


@dataclass(frozen=True)
class Target:
    """One patch site: ``module[.owner].attr`` recorded as ``prefix``."""

    module: str
    owner: "str | None"
    attr: str
    prefix: str


#: ``FluidSimulation.run``: also sums each call's ``last_solver_stats``
FLUID_RUN = Target("repro.sim.fluid", "FluidSimulation", "run", "sim.fluid_run")

#: every layer boundary the traced pass records, in layer order. The public
#: entry points themselves are not wrapped: the share of a rep that no layer
#: below explains shows as ``1 - trace.coverage``.
TARGETS: "tuple[Target, ...]" = (
    Target("repro.workflow.engine", "WorkflowEngine", "run", "workflow.run"),
    Target("repro.core.mapping.serverside", "ServerSideMapper", "map_bundle", "mapping.server"),
    Target("repro.core.mapping.clientside", "ClientSideMapper", "map_bundle", "mapping.client"),
    Target("repro.core.mapping.serverside", None, "build_comm_graph", "commgraph.build"),
    Target("repro.partition.multilevel", "MultilevelKWay", "partition", "partition.kway"),
    Target("repro.cods.space", "CoDS", "put_seq", "cods.put_seq"),
    Target("repro.cods.space", "CoDS", "get_seq", "cods.get_seq"),
    Target("repro.cods.space", "CoDS", "put_cont", "cods.put_cont"),
    Target("repro.cods.space", "CoDS", "get_cont", "cods.get_cont"),
    Target("repro.cods.space", None, "compute_schedule", "schedule.compute"),
    Target("repro.cods.space", None, "producer_schedule", "schedule.producer"),
    Target("repro.apps.jaguar", None, "producer_schedule", "schedule.producer"),
    Target("repro.cods.schedule", "BundleScheduleCache", "get", "schedule.bundle_get"),
    Target("repro.cods.dht", "SpatialDHT", "query", "dht.query"),
    Target("repro.cods.dht", "SpatialDHT", "register", "dht.register"),
    Target("repro.sfc.linearize", "DomainLinearizer", "spans_for_box", "sfc.spans_for_box"),
    Target("repro.transport.hybriddart", "HybridDART", "transfer", "transport.transfer"),
    Target("repro.resilience.replication", "ReplicaPlacer", "replica_cores", "resilience.replica_cores"),
    FLUID_RUN,
    Target("repro.sim.flows", "IncrementalMaxMin", "allocation", "sim.solver"),
    Target("repro.sim.engine", "SimEngine", "run", "sim.engine_run"),
)

#: span prefixes, each once, in layer order
PREFIXES: "tuple[str, ...]" = tuple(dict.fromkeys(t.prefix for t in TARGETS))


class SpanRecorder:
    """Collects nested spans in memory; one instance per traced pass."""

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        #: ``component_solves`` and ``flows_resolved`` over every fluid run
        self.solver_stats: "Counter[str]" = Counter()
        #: id of the rep the next spans belong to (a traced pass is one rep)
        self.run = 1
        self._stack = [-1]

    def wrap(self, fn: Callable, name: str) -> Callable:
        """Return ``fn`` wrapped so each call records a span called ``name``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = [name, 0, 0, stack[-1], self.run]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def wrap_fluid_run(self, fn: Callable) -> Callable:
        """:meth:`wrap` for ``FluidSimulation.run``, also adding each call's
        ``last_solver_stats`` to :attr:`solver_stats`."""
        stats = self.solver_stats

        @functools.wraps(fn)
        def run(fluid: Any, *args: Any, **kwargs: Any) -> Any:
            try:
                return fn(fluid, *args, **kwargs)
            finally:
                stats.update(fluid.last_solver_stats)

        return self.wrap(run, FLUID_RUN.prefix)


class Patcher:
    """Installs span wrappers on :data:`TARGETS` and restores the originals."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        #: (holder, attr, original object) for every installed wrapper
        self.originals: "list[tuple[Any, str, Any]]" = []

    @staticmethod
    def holder_of(target: Target) -> Any:
        module = importlib.import_module(target.module)
        return module if target.owner is None else getattr(module, target.owner)

    def install(self) -> None:
        try:
            for t in TARGETS:
                holder = self.holder_of(t)
                # vars(), not getattr(): the property object itself, and only
                # an attribute the holder defines rather than inherits.
                original = vars(holder)[t.attr]
                if isinstance(original, property):
                    wrapped: Any = property(
                        self.recorder.wrap(original.fget, t.prefix),
                        original.fset, original.fdel, original.__doc__,
                    )
                elif t is FLUID_RUN:
                    wrapped = self.recorder.wrap_fluid_run(original)
                elif callable(original):
                    wrapped = self.recorder.wrap(original, t.prefix)
                else:
                    raise TypeError(f"{t.module}.{t.owner}.{t.attr} is not callable")
                setattr(holder, t.attr, wrapped)
                self.originals.append((holder, t.attr, original))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        for holder, attr, original in reversed(self.originals):
            setattr(holder, attr, original)
        self.originals.clear()

    def __enter__(self) -> "Patcher":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()


def snapshot_targets() -> "list[Any]":
    """The objects currently bound at every patch site (identity check)."""
    return [vars(Patcher.holder_of(t))[t.attr] for t in TARGETS]


def self_times_ns(spans: "list[Span]") -> "list[int]":
    """Per span: its duration minus the part its child spans cover.

    Children of one span run one after another inside it (no threads), so
    the covered part is the sum of the children's durations.
    """
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans: "list[Span]") -> "dict[str, float]":
    """``<prefix>.calls``, ``.self_s``, ``.p50_us`` and ``.p99_us`` per prefix.

    Percentiles are of each call's inclusive duration; a prefix with no
    calls reports zeros.
    """
    own = self_times_ns(spans)
    durations: "dict[str, list[int]]" = {p: [] for p in PREFIXES}
    self_ns = dict.fromkeys(PREFIXES, 0)
    for s, o in zip(spans, own):
        durations[s[0]].append(s[2] - s[1])
        self_ns[s[0]] += o
    out: "dict[str, float]" = {}
    for p in PREFIXES:
        d = sorted(durations[p])
        out[f"{p}.calls"] = len(d)
        out[f"{p}.self_s"] = self_ns[p] / 1e9
        out[f"{p}.p50_us"] = _nearest_rank(d, 0.50) / 1e3
        out[f"{p}.p99_us"] = _nearest_rank(d, 0.99) / 1e3
    return out


def _nearest_rank(sorted_values: "list[int]", q: float) -> float:
    if not sorted_values:
        return 0.0
    return float(sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)])


def write_chrome_trace(path: str, spans: "list[Span]", label: str) -> None:
    """Write spans as Chrome ``trace_event`` JSON: ``"X"`` complete events in
    one process named ``label``, times in microseconds from the first span."""
    base = min((s[1] for s in spans), default=0)
    events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
               "args": {"name": label}}]
    events += [
        {
            "name": s[0], "cat": s[0].split(".", 1)[0], "ph": "X",
            "ts": (s[1] - base) / 1e3, "dur": (s[2] - s[1]) / 1e3,
            "pid": 1, "tid": 1,
            "args": {"id": i, "parent": s[3], "run": s[4]},
        }
        for i, s in enumerate(spans)
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)

"""Wall-clock span tracing of the simulator's layers, from outside ``src/``.

The benchmark never edits the program. For a traced run it replaces each
layer's public entry point (a method on a class) with a wrapper that
records a span -- name, start, end, parent -- around the original call,
and puts every original back when the run ends. Spans live in memory and
are written out once, as Chrome trace-event JSON in the schema of
``repro.telemetry.tracing`` (``"X"`` complete events, microseconds), on a
wall-clock track that Perfetto opens directly.

A layer's self time is the summed duration of its spans minus the time
their child spans cover. Spans named :data:`CHECK` mark the benchmark's
own correctness checks: they are subtracted from their parents but belong
to no layer and to no measured wall time.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable, Iterator

#: Span name of the benchmark's own correctness checks.
CHECK = "check"

#: Set-up span names (recorded by the workload code, not by wrappers).
SETUP_PROFILE = "setup.profile"
SETUP_GENERATE = "setup.generate"
SETUP_BUILD = "setup.build"


@dataclass(frozen=True)
class Target:
    """One wrapped entry point.

    Attributes:
        layer: Layer the span is attributed to.
        module: Module that defines ``owner``.
        owner: Class whose attribute is wrapped.
        attr: Method name.
        observe: Optional ``(counters, result) -> None`` hook run on each
            return value, for ratio counters.
        probe_of: When set, this target records no span: it only counts
            a ``<probe_of>.misses`` hit when the innermost open span
            belongs to layer ``probe_of`` (a cache miss that reached the
            layer below).
    """

    layer: str
    module: str
    owner: str
    attr: str
    observe: Callable[[dict, object], None] | None = None
    probe_of: str | None = None


def _count(key: str, predicate: Callable[[object], bool]):
    def observe(counters: dict, result: object) -> None:
        if predicate(result):
            counters[key] = counters.get(key, 0) + 1

    return observe


def _add_committed(counters: dict, result: object) -> None:
    counters["adjustment.committed"] = (
        counters.get("adjustment.committed", 0) + int(result)
    )


#: Every layer's public entry point, in the order of the layer table.
TARGETS: tuple[Target, ...] = (
    Target("router", "repro.core.router", "FlexibleTokenRouter", "route"),
    Target(
        "executor", "repro.runtime.executor", "PipelinedStepExecutor",
        "execute",
    ),
    Target(
        "scheduler", "repro.core.scheduler", "Scheduler", "on_step",
        observe=_count("scheduler.triggered", lambda out: out.triggered),
    ),
    Target(
        "policy", "repro.core.policy", "PolicyMaker", "make_plan",
        observe=_count("policy.with_actions", lambda plan: bool(plan.actions)),
    ),
    Target(
        "migration", "repro.core.migration", "MigrationPlanner", "plan",
        observe=_count("migration.with_moves", lambda moves: bool(moves)),
    ),
    Target("delta", "repro.core.delta", "DeltaStepCost", "rebase"),
    Target("delta", "repro.core.delta", "DeltaStepCost", "pair_candidate_times"),
    Target(
        "delta", "repro.core.delta", "DeltaStepCost", "exchange_candidate_times"
    ),
    Target("delta", "repro.core.delta", "DeltaStepCost", "trial_time"),
    Target(
        "collectives", "repro.cluster.profiler", "ClusterProfile",
        "allreduce_bps",
    ),
    Target(
        "collectives", "repro.cluster.collectives", "CollectiveCostModel",
        "allreduce_bps", probe_of="collectives",
    ),
    Target(
        "adjustment", "repro.runtime.pipeline", "LayerPipeline",
        "advance_stream", observe=_add_committed,
    ),
    Target("kernel", "repro.sim.kernel", "SimKernel", "run"),
    Target("admission", "repro.serving.admission", "AdmissionQueue", "offer"),
    Target(
        "admission", "repro.serving.admission", "AdmissionQueue", "next_batch"
    ),
    Target("slo", "repro.serving.slo", "LatencyWindow", "observe"),
    Target("slo", "repro.serving.slo", "LatencyWindow", "observe_batch"),
    Target("slo", "repro.serving.slo", "LatencyWindow", "p99"),
    Target("slo", "repro.serving.slo", "LatencyWindow", "attainment"),
    Target(SETUP_PROFILE, "repro.cluster.profiler", "Profiler", "profile"),
)

#: Layers whose self time counts as attributed, in table order. The
#: ``serving`` span is the per-batch serve callback the workload wraps.
LAYERS: tuple[str, ...] = (
    "router", "executor", "scheduler", "policy", "migration", "delta",
    "collectives", "adjustment", "kernel", "serving", "admission", "slo",
)


class SpanRecorder:
    """In-memory span log: ``(name, start, end, parent_index)`` rows.

    ``start``/``end`` are ``time.perf_counter()`` seconds; ``parent`` is
    the index of the enclosing span, ``-1`` at the top.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def begin_run(self) -> float:
        """Mark the end of set-up: counters restart, and spans from this
        time on belong to the run. Returns the time."""
        self.counters.clear()
        return time.perf_counter()

    @property
    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, self._stack[-1] if self._stack else -1))
        self._stack.append(index)
        return index

    def _close(self, index: int, start: float, end: float) -> None:
        self._stack.pop()
        name, _, _, parent = self.spans[index]
        self.spans[index] = (name, start, end, parent)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, start, time.perf_counter())

    def wrap(self, target: Target, fn: Callable) -> Callable:
        """``fn`` with a span (or, for a probe, a miss counter) around it."""
        recorder = self
        layer = target.layer
        calls_key = f"{layer}.calls"
        if target.probe_of is not None:
            misses_key = f"{target.probe_of}.misses"

            @functools.wraps(fn)
            def probe(*args, **kwargs):
                if recorder.current == target.probe_of:
                    counters = recorder.counters
                    counters[misses_key] = counters.get(misses_key, 0) + 1
                return fn(*args, **kwargs)

            return probe

        observe = target.observe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counters = recorder.counters
            counters[calls_key] = counters.get(calls_key, 0) + 1
            index = recorder._open(layer)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(index, start, time.perf_counter())
            if observe is not None:
                observe(counters, result)
            return result

        return traced

    def self_times(self, since: float = float("-inf")) -> dict[str, float]:
        """Self seconds per span name, over spans starting at ``since`` or
        later."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            if start >= since:
                totals[name] = (
                    totals.get(name, 0.0) + (end - start) - child_time[index]
                )
        return totals

    def durations(self, until: float = float("inf")) -> dict[str, float]:
        """Total seconds per span name, over spans ending by ``until``."""
        totals: dict[str, float] = {}
        for name, start, end, _ in self.spans:
            if end <= until:
                totals[name] = totals.get(name, 0.0) + (end - start)
        return totals

    def chrome_trace(self, metadata: dict | None = None) -> dict:
        """The spans as a Chrome trace-event document (wall clock, us)."""
        from repro.telemetry.tracing import SpanTracer

        tracer = SpanTracer()
        track = tracer.new_track("simulator wall clock (perfbench)")
        track.thread_name(1, "host thread")
        origin = min((s[1] for s in self.spans), default=0.0)
        for index, (name, start, end, parent) in enumerate(self.spans):
            track.complete(
                name, start - origin, end - start, tid=1, cat="wall",
                args={"id": index, "parent": parent},
            )
        return {
            "traceEvents": tracer.events,
            "displayTimeUnit": "ms",
            "metadata": {
                "clock": "wall seconds (perf_counter) * 1e6 -> trace microseconds",
                **(metadata or {}),
            },
        }


class NullRecorder:
    """The untraced run's recorder: spans cost nothing and record nothing."""

    _NULL = nullcontext()

    def span(self, name: str) -> nullcontext:
        return self._NULL

    def begin_run(self) -> float:
        return time.perf_counter()


@contextmanager
def instrumented(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every :data:`TARGETS` entry point for the duration of the
    block; the original class attributes are restored on exit, also when
    the block raises."""
    saved: list[tuple[type, str, object]] = []
    try:
        for target in TARGETS:
            owner = getattr(importlib.import_module(target.module), target.owner)
            original = owner.__dict__[target.attr]
            saved.append((owner, target.attr, original))
            setattr(owner, target.attr, recorder.wrap(target, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

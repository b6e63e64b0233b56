"""Scheduling-overhead perf harness: ``python -m repro perf``.

FlexMoE's viability rests on the Policy Maker being cheap enough to run
online; this module measures exactly that and records the repo's perf
trajectory in a machine-readable report (``BENCH_step_overhead.json``).
Benchmark families:

* :func:`planner_benchmark` — planner rounds/second of the delta-cost
  search (:class:`~repro.core.delta.DeltaStepCost`) on one drifting
  single-layer scenario, wired as the Scheduler wires it: the Policy
  Maker and the Migrate planner share one evaluator.  A separate untimed
  pass records the replay's allocation footprint (tracemalloc peak,
  retained blocks per step, peak RSS) so per-step allocation storms
  regress visibly in the report.
* :func:`faults_overhead_benchmark` — simulated steps/second of the
  elastic failure/straggler scenario (FlexMoE vs Static under a seeded
  event schedule), with its scheduling actions and delta fallbacks.
* :func:`telemetry_overhead_benchmark` — the telemetry layer's cost on
  the identical pipeline run: telemetry disabled (the shipped default)
  vs fully enabled (session with metrics + tracing + timeline).  Both
  runs must produce identical simulated results -- observation must
  never change a decision -- and the enabled run must record.  The
  disabled runs also report the 4-layer engine's delta fallbacks.
* :func:`serving_events_benchmark` and :func:`kernel_events_benchmark`
  — serving and pure-kernel event throughput against absolute floors.

:func:`perf_suite` composes them into one
:class:`~repro.bench.reporting.Report` whose gates require every delta
evaluator to report **zero fallbacks** to full recomputation, both event
benchmarks to clear their floors, and the telemetry on/off identity.  CI
runs ``python -m repro perf --smoke`` and fails on any failing gate, so
neither the delta hot path, the event machinery, nor the telemetry taps
can silently regress.  Decision identity of the delta search with the
copy-per-candidate search it replaced is a tier-1 test
(``tests/test_policy_delta_equivalence.py``), not a timed leg.
"""

from __future__ import annotations

import contextlib
import gc
import sys
import time

import numpy as np

from repro.bench.harness import cluster_for, faults_run
from repro.bench.reporting import Report, gate
from repro.cluster.profiler import Profiler
from repro.cluster.topology import ClusterTopology
from repro.config import (
    MoEModelConfig,
    WorkloadConfig,
    auto_slots_per_gpu,
)
from repro.core.cost_model import MoECostModel
from repro.core.placement import Placement
from repro.core.policy import PolicyMaker
from repro.workload.synthetic import (
    DriftingRoutingGenerator,
    make_multilayer_trace,
)

#: Default report location (repo root when run from a checkout).
REPORT_FILENAME = "BENCH_step_overhead.json"

#: CI floors for the event-throughput benchmarks (events per second of
#: wall-clock). Deliberately ~10x below cold-container measurements so
#: they catch order-of-magnitude regressions (a dead cache, accidental
#: per-event allocation storms), not machine jitter.
SERVING_EVENTS_PER_SEC_FLOOR = 2_000.0
KERNEL_EVENTS_PER_SEC_FLOOR = 30_000.0


def _allocation_footprint(
    cost_model: MoECostModel,
    topology: ClusterTopology,
    trace,
    slots: int,
) -> dict[str, float]:
    """Memory footprint of one delta planner replay (untimed).

    Runs a full planner replay under :mod:`tracemalloc` — tracing slows
    the pass severalfold, which is why this is a separate pass that never
    touches the timed measurements.  Reported columns:

    * ``tracemalloc_peak_kb`` / ``tracemalloc_current_kb`` — peak and
      end-of-replay python-allocated memory during the replay.  An
      accidental per-candidate allocation storm (the class of regression
      the O(changed) hot paths exist to prevent) shows up as a peak far
      above the steady-state current value.
    * ``live_blocks_per_step`` — traced blocks still alive after the
      replay divided by steps: the *retained* footprint growth rate.  A
      leaky memo or an unbounded history list climbs here.
    * ``net_alloc_blocks_per_step`` — interpreter-wide net allocated
      blocks per step (:func:`sys.getallocatedblocks` delta), which also
      counts allocations tracemalloc cannot see.
    * ``peak_rss_kb`` — the process's lifetime peak resident set
      (``ru_maxrss``); monotone across the whole benchmark process, so
      only meaningful as a ceiling, not a per-pass delta.
    """
    import resource
    import tracemalloc

    from repro.bench.scale import _planner_replay

    gc.collect()
    blocks_before = sys.getallocatedblocks()
    tracemalloc.start()
    try:
        _planner_replay(cost_model, topology, trace, slots, "flat")
        current, peak = tracemalloc.get_traced_memory()
        live_blocks = sum(
            stat.count
            for stat in tracemalloc.take_snapshot().statistics("filename")
        )
    finally:
        tracemalloc.stop()
    net_blocks = sys.getallocatedblocks() - blocks_before
    steps = max(trace.num_steps, 1)
    return {
        "tracemalloc_peak_kb": peak / 1024.0,
        "tracemalloc_current_kb": current / 1024.0,
        "live_blocks_per_step": live_blocks / steps,
        "net_alloc_blocks_per_step": net_blocks / steps,
        "peak_rss_kb": float(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        ),
    }


def planner_benchmark(
    num_experts: int = 64,
    num_gpus: int = 16,
    num_steps: int = 30,
    tokens_per_gpu: int = 32_768,
    skew: float = 1.3,
    seed: int = 0,
) -> dict[str, object]:
    """Planner rounds/sec of the delta-cost search.

    One planner round = one Policy Maker ``make_plan`` plus one Migrate
    ``plan`` on the same assignment, replayed by the flat-search
    :func:`~repro.bench.scale._planner_replay` (the planners share one
    :class:`~repro.core.delta.DeltaStepCost`, as in the Scheduler).
    """
    # Imported here: repro.bench.scale imports this module at load time.
    from repro.bench.scale import _planner_replay

    model = MoEModelConfig(
        name=f"perf-{num_experts}e",
        num_layers=2,
        d_model=2048,
        d_ffn=8192,
        num_experts=num_experts,
    )
    topology = ClusterTopology(cluster_for(num_gpus))
    profile = Profiler(topology, noise=0.02, seed=seed).profile(model)
    cost_model = MoECostModel(profile, model)
    trace = DriftingRoutingGenerator(
        num_experts,
        num_gpus,
        WorkloadConfig(
            tokens_per_step=tokens_per_gpu * num_gpus,
            num_steps=num_steps,
            skew=skew,
            seed=seed,
        ),
    ).generate()
    slots = auto_slots_per_gpu(num_experts, num_gpus)
    rounds = 2 * trace.num_steps  # policy round + migrate round per step

    # Untimed warm-up replay: pre-populating the profile's lazy AllReduce
    # cache keeps first-probe costs out of the timed pass.
    _planner_replay(cost_model, topology, trace, slots, "flat")
    delta_s, _, _, delta = _planner_replay(
        cost_model, topology, trace, slots, "flat"
    )
    allocation = _allocation_footprint(cost_model, topology, trace, slots)
    return {
        "num_experts": num_experts,
        "num_gpus": num_gpus,
        "num_steps": num_steps,
        "rounds": rounds,
        "allocation": allocation,
        "delta_seconds": delta_s,
        "delta_rounds_per_sec": rounds / delta_s if delta_s > 0 else 0.0,
        "delta": delta.stats(),
        "fallbacks": float(delta.fallbacks),
    }


def faults_overhead_benchmark(
    num_moe_layers: int = 2,
    num_gpus: int = 8,
    num_experts: int = 16,
    num_steps: int = 40,
    seed: int = 0,
) -> dict[str, object]:
    """Simulated steps/sec of the faults scenario (failure + straggler,
    FlexMoE vs Static), with its scheduling actions and delta fallbacks."""
    start = time.perf_counter()
    result = faults_run(
        num_moe_layers=num_moe_layers,
        num_gpus=num_gpus,
        num_experts=num_experts,
        num_steps=num_steps,
        seed=seed,
    )
    elapsed = time.perf_counter() - start
    steps = 2 * num_steps  # the scenario simulates FlexMoE + Static runs
    return {
        "num_moe_layers": num_moe_layers,
        "num_gpus": num_gpus,
        "num_experts": num_experts,
        "num_steps": num_steps,
        "seconds": elapsed,
        "steps_per_sec": steps / elapsed if elapsed > 0 else 0.0,
        "flexmoe_actions": float(result.summary()["flexmoe_actions"]),
        "fallbacks": float(result.delta_fallbacks),
    }


@contextlib.contextmanager
def _gc_quiet():
    """Keep the collector out of a timed region.

    The telemetry benchmark reports single-digit percentages; one GC
    pass landing inside a ~300ms timed window (routine in a long-lived
    test process) is enough to swamp them. Collect up front so the
    pause is paid outside the clock, then disable until the region ends.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def telemetry_overhead_benchmark(
    num_moe_layers: int = 4,
    num_gpus: int = 16,
    num_experts: int = 32,
    num_steps: int = 30,
    tokens_per_gpu: int = 32_768,
    seed: int = 0,
    repeats: int = 5,
) -> dict[str, object]:
    """Telemetry-layer cost on the identical pipeline run, off vs on.

    * ``disabled`` — the shipped default: no active telemetry session,
      so every tap point pays exactly one
      ``telemetry.current() is not None`` branch and nothing else.
    * ``enabled`` — a full session (metrics registry + span tracer +
      decision timeline) around the same run.

    Both passes must produce byte-identical simulated results
    (observation must never change a decision); the enabled pass
    additionally has to actually record something (trace events and
    timeline entries), so a silently dead tap cannot masquerade as zero
    overhead.  ``fallbacks`` sums the engine's delta fallbacks over the
    timed disabled passes.  Each repeat runs the pair back to back, in
    alternating order (a fixed order would turn monotonic machine drift
    into phantom overhead on the always-later pass), and
    ``enabled_overhead_pct`` is the median of the per-repeat paired
    enabled/disabled ratios.
    """
    from repro import telemetry
    from repro.runtime.pipeline import build_engine
    from repro.training.loop import simulate_pipeline

    model = MoEModelConfig(
        name=f"perf-telemetry-{num_moe_layers}L",
        num_layers=2 * num_moe_layers,
        d_model=2048,
        d_ffn=8192,
        num_experts=num_experts,
    )
    trace = make_multilayer_trace(
        num_moe_layers,
        num_experts,
        num_gpus,
        WorkloadConfig(
            tokens_per_step=tokens_per_gpu * num_gpus,
            num_steps=num_steps,
            seed=seed,
        ),
    )

    def one_pass() -> tuple[float, float, int]:
        engine = build_engine(
            cluster_for(num_gpus), model,
            num_moe_layers=num_moe_layers, seed=seed,
        )
        with _gc_quiet():
            start = time.perf_counter()
            result = simulate_pipeline(
                engine, trace, warmup=min(5, num_steps - 1)
            )
            elapsed = time.perf_counter() - start
        return elapsed, result.mean_step_time, engine.delta_fallbacks()

    def enabled_pass() -> tuple[float, float, int, int]:
        with telemetry.session(reuse=False) as tel:
            elapsed, sim, _ = one_pass()
            trace_events = len(tel.tracer.events) if tel.tracer else 0
            return elapsed, sim, trace_events, len(tel.timeline)

    def disabled_pass() -> tuple[float, float, int]:
        with telemetry.suppressed():
            return one_pass()

    disabled_s = enabled_s = float("inf")
    disabled_sim = enabled_sim = 0.0
    trace_events = timeline_events = fallbacks = 0
    ratios = []
    disabled_pass()  # untimed warm-up (lazy caches, code paths)
    for repeat in range(max(repeats, 1)):
        if repeat % 2 == 0:
            disabled_i, disabled_sim, fallbacks_i = disabled_pass()
            enabled_i, enabled_sim, trace_events, timeline_events = (
                enabled_pass()
            )
        else:
            enabled_i, enabled_sim, trace_events, timeline_events = (
                enabled_pass()
            )
            disabled_i, disabled_sim, fallbacks_i = disabled_pass()
        fallbacks += fallbacks_i
        disabled_s = min(disabled_s, disabled_i)
        enabled_s = min(enabled_s, enabled_i)
        if disabled_i > 0:
            ratios.append(enabled_i / disabled_i)
    ratio = float(np.median(ratios)) if ratios else 1.0
    return {
        "num_moe_layers": num_moe_layers,
        "num_gpus": num_gpus,
        "num_experts": num_experts,
        "num_steps": num_steps,
        "repeats": repeats,
        "disabled_seconds": disabled_s,
        "enabled_seconds": enabled_s,
        "disabled_steps_per_sec": (
            num_steps / disabled_s if disabled_s > 0 else 0.0
        ),
        "enabled_steps_per_sec": (
            num_steps / enabled_s if enabled_s > 0 else 0.0
        ),
        "enabled_overhead_pct": 100.0 * (ratio - 1.0),
        "simulated_results_match": bool(
            np.isclose(disabled_sim, enabled_sim, rtol=1e-12, atol=0.0)
        ),
        "enabled_trace_events": trace_events,
        "enabled_timeline_events": timeline_events,
        "fallbacks": float(fallbacks),
    }


class _StubBookkeeping:
    """Constant-rate execute model exercising the serving event machinery.

    The full serving engine's per-batch cost is dominated by routing and
    cost-model evaluation, which would mask the event-machinery overhead
    this benchmark measures. The stub replaces ONLY the model half of the
    server (``execute = batch_tokens / rate``, the rate probed from the
    real cost model) and keeps the genuine hot-path machinery: the
    admission queue, the rolling latency window, the columnar record
    bookkeeping, the serving event source and the kernel.
    """

    def __init__(self, batching, window: int, tokens_per_s: float) -> None:
        from repro.serving.admission import AdmissionQueue
        from repro.serving.slo import LatencyWindow

        self.queue = AdmissionQueue(batching)
        self.window = LatencyWindow(window)
        self.rate = float(tokens_per_s)
        self._served: list = []
        self._count = 0
        self._columns = np.empty((3, 256), dtype=float)

    def serve(self, batch, now: float, index: int) -> float:
        # The trigger-signal reads every real batch performs.
        self.window.p99()
        float(self.queue.queued_tokens)
        execute = float(self.queue.last_batch_tokens.sum()) / self.rate
        queue_col = now - self.queue.last_batch_arrivals
        n = len(batch)
        capacity = self._columns.shape[1]
        if self._count + n > capacity:
            grown = np.empty(
                (3, max(2 * capacity, self._count + n)), dtype=float
            )
            grown[:, : self._count] = self._columns[:, : self._count]
            self._columns = grown
        sl = slice(self._count, self._count + n)
        self._columns[0, sl] = now
        self._columns[1, sl] = queue_col
        self._columns[2, sl] = execute
        self._count += n
        self._served.extend(batch)
        self.window.observe_batch(queue_col + execute)
        return execute


def _probe_service_rate(
    num_experts: int, num_gpus: int, batch_tokens: int, seed: int
) -> float:
    """Tokens/second of modelled service time at the benchmark config,
    probed from the real profiled cost model on a balanced placement."""
    model = MoEModelConfig(
        name=f"perf-serving-{num_experts}e",
        num_layers=2,
        d_model=2048,
        d_ffn=8192,
        num_experts=num_experts,
    )
    topology = ClusterTopology(cluster_for(num_gpus))
    profile = Profiler(topology, noise=0.02, seed=seed).profile(model)
    cost_model = MoECostModel(profile, model)
    policy = PolicyMaker(cost_model)
    slots = auto_slots_per_gpu(num_experts, num_gpus)
    placement = Placement.balanced(num_experts, num_gpus, slots)
    assignment = np.full(
        (num_experts, num_gpus),
        max(1, batch_tokens // (num_experts * num_gpus)),
        dtype=np.int64,
    )
    batch_seconds = policy.estimate_step_time(assignment, placement)
    return float(assignment.sum()) / batch_seconds


def serving_events_benchmark(
    num_gpus: int = 16,
    num_experts: int = 64,
    num_requests: int = 4000,
    rate_fraction: float = 1.6,
    seed: int = 0,
    repeats: int = 3,
) -> dict[str, object]:
    """Serving event throughput of the event machinery.

    The stack under test is the serving hot path (batch-drain kernel,
    lazy bulk admission, columnar numpy bookkeeping), replaying a seeded
    stream through a constant-rate execute model probed from the real
    cost model at the 16-GPU / 64-expert configuration
    (:class:`_StubBookkeeping` explains why the full engine is not timed
    here).  ``events_per_sec`` counts *logical* serving events -- one
    per arrival, dispatch and completion -- best of ``repeats``, gated
    by :data:`SERVING_EVENTS_PER_SEC_FLOOR`.
    """
    from repro.serving.admission import BatchingConfig
    from repro.serving.requests import RequestStream, RequestStreamConfig
    from repro.sim.kernel import SimKernel
    from repro.sim.sources import ServingSource

    batch_tokens = 4096
    service_rate = _probe_service_rate(
        num_experts, num_gpus, batch_tokens, seed
    )
    # Offered load above saturation: sustained deep queues keep
    # micro-batches at the token budget, which is the regime the
    # columnar bookkeeping targets (bursty gaps still exercise the
    # idle-wake path; the identity pass covers both regimes anyway).
    stream = RequestStream(
        RequestStreamConfig(
            arrival="bursty",
            rate_rps=rate_fraction * service_rate / 256.0,
            num_requests=num_requests,
            mean_tokens=256,
            seed=seed,
        )
    ).generate()
    batching = BatchingConfig(
        max_batch_tokens=batch_tokens, max_queue_tokens=8 * batch_tokens
    )

    def one_pass() -> tuple[float, ServingSource]:
        book = _StubBookkeeping(
            batching, window=64, tokens_per_s=service_rate
        )
        source = ServingSource(stream, book.queue, book.serve, vectorized=True)
        kernel = SimKernel()
        start = time.perf_counter()
        source.prime(kernel, None)
        kernel.run()
        return time.perf_counter() - start, source

    # Allocation footprint (net live blocks per logical event).
    before = sys.getallocatedblocks()
    _, source = one_pass()
    blocks = sys.getallocatedblocks() - before
    num_batches = source.num_batches
    logical_events = len(stream) + 2 * num_batches

    best_s = float("inf")
    for _ in range(max(repeats, 1)):
        elapsed, _ = one_pass()
        best_s = min(best_s, elapsed)
    return {
        "num_gpus": num_gpus,
        "num_experts": num_experts,
        "num_requests": len(stream),
        "num_batches": num_batches,
        "logical_events": logical_events,
        "service_tokens_per_s": service_rate,
        "repeats": repeats,
        "seconds": best_s,
        "events_per_sec": logical_events / best_s if best_s > 0 else 0.0,
        "alloc_blocks_per_event": blocks / logical_events,
        "events_per_sec_floor": SERVING_EVENTS_PER_SEC_FLOOR,
    }


def kernel_events_benchmark(
    num_ticks: int = 4000,
    fan: int = 12,
    seed: int = 0,
    repeats: int = 3,
) -> dict[str, object]:
    """Pure kernel event throughput on a tie-heavy schedule.

    A deterministic tie-heavy schedule (``fan`` events per tick across
    cycling priorities, a fifth of the callbacks re-scheduling an extra
    event at the current time) isolates the kernel's own dispatch cost.
    An untimed traced pass checks ``trace_ordered``: every event fired
    exactly once, in ``(time, priority, seq)`` order (the re-scheduled
    events sit at a priority above every primed one, so this schedule's
    dispatch order is fully sorted); the timed passes run untraced,
    best-of-``repeats``.
    """
    from repro.sim.kernel import SimKernel

    def prime(kernel: SimKernel) -> None:
        def noop() -> None:
            return None

        def renow() -> None:
            kernel.schedule_at(kernel.now, noop, 45, label="renow")

        for tick in range(num_ticks):
            for j in range(fan):
                callback = renow if j % 5 == 0 else noop
                kernel.schedule_at(
                    float(tick), callback, (j * 7) % 40, label=f"e{j}"
                )

    def one_pass(trace: bool = False) -> tuple[float, SimKernel]:
        kernel = SimKernel(record_trace=trace)
        prime(kernel)
        start = time.perf_counter()
        kernel.run()
        return time.perf_counter() - start, kernel

    _, traced = one_pass(trace=True)
    keys = [entry[:3] for entry in traced.trace]
    total_events = traced.processed_events
    trace_ordered = keys == sorted(keys) and total_events == num_ticks * (
        fan + len(range(0, fan, 5))
    )

    best_s = float("inf")
    for _ in range(max(repeats, 1)):
        elapsed, _ = one_pass()
        best_s = min(best_s, elapsed)
    return {
        "num_ticks": num_ticks,
        "fan": fan,
        "total_events": total_events,
        "repeats": repeats,
        "seconds": best_s,
        "events_per_sec": total_events / best_s if best_s > 0 else 0.0,
        "events_per_sec_floor": KERNEL_EVENTS_PER_SEC_FLOOR,
        "trace_ordered": bool(trace_ordered),
    }


def perf_suite(smoke: bool = False, seed: int = 0) -> Report:
    """The full scheduling-overhead report.

    ``smoke`` shrinks every scenario to CI scale (seconds, not minutes)
    without changing the structure.  The gates require zero delta
    fallbacks on the planner, the 4-layer pipeline (telemetry leg) and
    the faults scenario, a planner evaluator that actually scored
    candidates, both event floors and the telemetry identity; CI gates on
    them.  Throughputs are recorded for the perf trajectory, not gated.
    """
    if smoke:
        planner = planner_benchmark(
            num_experts=32, num_gpus=8, num_steps=12, seed=seed
        )
        faults = faults_overhead_benchmark(
            num_moe_layers=2, num_gpus=8, num_experts=16, num_steps=25,
            seed=seed,
        )
        serving_events = serving_events_benchmark(
            num_requests=800, seed=seed, repeats=2
        )
        kernel_events = kernel_events_benchmark(
            num_ticks=1000, seed=seed, repeats=2
        )
        telemetry_overhead = telemetry_overhead_benchmark(
            num_steps=12, seed=seed, repeats=3
        )
    else:
        planner = planner_benchmark(seed=seed)
        faults = faults_overhead_benchmark(seed=seed)
        serving_events = serving_events_benchmark(seed=seed)
        kernel_events = kernel_events_benchmark(seed=seed)
        telemetry_overhead = telemetry_overhead_benchmark(seed=seed)
    fallbacks = (
        float(planner["fallbacks"])
        + float(telemetry_overhead["fallbacks"])
        + float(faults["fallbacks"])
    )
    metrics = _delta_metrics_snapshot(planner["delta"])
    gates = {
        "total_fallbacks": gate(fallbacks, "==", 0.0),
        # Hot-path gates: the planner's evaluator must actually score
        # candidates (read back through the report's metrics snapshot),
        # both event benchmarks must clear their floors, and the kernel
        # must dispatch in key order.
        "delta.evaluations": gate(
            metrics["counters"].get("delta.evaluations", 0.0), ">", 0.0
        ),
        "kernel_events.trace_ordered": gate(
            kernel_events["trace_ordered"], "==", True
        ),
        "serving_events.events_per_sec": gate(
            serving_events["events_per_sec"], ">=", SERVING_EVENTS_PER_SEC_FLOOR
        ),
        "kernel_events.events_per_sec": gate(
            kernel_events["events_per_sec"], ">=", KERNEL_EVENTS_PER_SEC_FLOOR
        ),
        # Telemetry gates: observation must never change a decision,
        # and the enabled pass must actually record.
        "telemetry_overhead.simulated_results_match": gate(
            telemetry_overhead["simulated_results_match"], "==", True
        ),
        "telemetry_overhead.enabled_trace_events": gate(
            telemetry_overhead["enabled_trace_events"], ">", 0
        ),
        "telemetry_overhead.enabled_timeline_events": gate(
            telemetry_overhead["enabled_timeline_events"], ">", 0
        ),
    }
    return Report(
        suite="step_overhead",
        payload={
            "smoke": smoke,
            "seed": seed,
            "planner": planner,
            "faults": faults,
            "serving_events": serving_events,
            "kernel_events": kernel_events,
            "telemetry_overhead": telemetry_overhead,
            "telemetry": {"metrics": metrics},
            "total_fallbacks": fallbacks,
        },
        gates=gates,
    )


def _delta_metrics_snapshot(delta_stats: dict) -> dict[str, object]:
    """Re-publish the planner pass's delta-evaluator counters through a
    standalone :class:`~repro.telemetry.registry.MetricsRegistry`.

    The timed benchmarks deliberately run with telemetry suppressed (so
    timings measure the subsystems, not the observer); the report still
    carries a registry-shaped snapshot so consumers — ``python -m repro
    perf`` included — read the counters from the one telemetry schema
    instead of reaching into bench internals.
    """
    from repro.telemetry import MetricsRegistry

    registry = MetricsRegistry()
    for name, value in sorted(delta_stats.items()):
        registry.counter(f"delta.{name}").inc(int(value))
    return registry.snapshot()

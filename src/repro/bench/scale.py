"""Datacenter-scale sweep: ``python -m repro scale``.

PR 10's question is blunt: does the control plane survive the jump from
the paper's testbed (64 GPUs) to datacenter scale (4096 GPUs)?  Every
hot-path structure that is O(cluster) per scheduling round — dense
``Bw(g, g')`` matrices, full-cluster shrink sweeps, per-expert rebuild
loops — is invisible at 16 GPUs and fatal at 4096.  This suite sweeps
cluster size with experts and layers scaled alongside (both grow with
``sqrt(G/64)``, keeping experts-per-GPU density falling the way real
deployments over-provision devices faster than experts) and records
three throughput families per size:

* :func:`planner_scale_benchmark` — planner rounds/second of the
  delta-cost search under the **flat** full-cluster sweep (the retained
  reference) vs the **hierarchical** two-level search (intra-node
  candidates first, cross-node escalation only when no intra-node
  candidate beats the trigger).  Decision logs are compared at every
  size; where the two searches legitimately pick different (but
  comparably good) placements, the final configurations must price
  within :data:`QUALITY_RTOL` of each other.
* :func:`engine_scale_benchmark` — end-to-end simulated steps/second of
  the multi-layer engine.  Routing is sparse end to end, but the router's
  padded spill batch keeps the engine feasible only up to
  :data:`ENGINE_MAX_GPUS`; beyond that the entry records why it was
  skipped instead of silently shrinking the claim.
* kernel events/second — the discrete-event kernel's dispatch
  throughput with the event fan-out scaled to the size's layer count
  (reusing :func:`~repro.bench.perf.kernel_events_benchmark`), gated by
  the same floor CI applies to the perf suite.

The report's gates require: zero delta fallbacks anywhere, the
hierarchical search at least matching flat rounds/sec (medians of
:data:`PLANNER_TIMING_REPEATS` replays) at every size at or above
:data:`HIER_MUST_WIN_GPUS`, the quality ratio within
:data:`QUALITY_RTOL` at every size (identical decisions give exactly
1.0), positive engine steps/sec wherever the engine runs, and every
kernel-events figure above the floor with its dispatch trace in key
order.
``python -m repro scale --smoke`` runs the 64- and 1024-device columns
in CI; the committed ``BENCH_scale.json`` records the full sweep.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.bench.harness import cluster_for
from repro.bench.perf import (
    KERNEL_EVENTS_PER_SEC_FLOOR,
    kernel_events_benchmark,
)
from repro.bench.reporting import Report, gate
from repro.cluster.profiler import Profiler
from repro.cluster.topology import ClusterTopology
from repro.config import (
    MoEModelConfig,
    SchedulerConfig,
    WorkloadConfig,
    auto_slots_per_gpu,
)
from repro.core.cost_model import MoECostModel
from repro.core.delta import DeltaStepCost
from repro.core.migration import MigrationPlanner
from repro.core.placement import Placement
from repro.core.policy import PolicyMaker
from repro.workload.synthetic import (
    DriftingRoutingGenerator,
    make_multilayer_trace,
)

#: Default report location (repo root when run from a checkout).
REPORT_FILENAME = "BENCH_scale.json"

#: Cluster sizes of the full sweep; the smoke subset keeps the smallest
#: (decision-quality anchor) and the smallest datacenter-scale size (the
#: hierarchical search must already win there).
SWEEP_SIZES = (64, 256, 1024, 4096)
SMOKE_SIZES = (64, 1024)

#: Largest cluster the ground-truth engine is run at. No ``(E, G, G)``
#: tensor is left on the step path (the router emits sparse plans, the
#: executor takes the ``(G, G)`` traffic matrix); the wall beyond this is
#: the router's batched spill pass, which pads every spilling expert to
#: the widest slack set, so its temporaries grow as experts x sources x
#: widest slack (about 180 MB transient, 650 MB peak RSS at 512
#: devices) and about half of host time there (0.25 steps/s; collective
#: pricing is about a tenth).
ENGINE_MAX_GPUS = 256

#: From this size up the hierarchical search must beat the flat sweep on
#: planner rounds/sec (below it, both are fast and flat stays default).
HIER_MUST_WIN_GPUS = 1024

#: Timed replays per search mode. The speedup gate compares the medians:
#: one timing of a 1-2 s replay reads a few percent either way.
PLANNER_TIMING_REPEATS = 3

#: When the two searches pick different placements, the hierarchical
#: final configuration must price within this of the flat one.
QUALITY_RTOL = 0.05


def scale_config(num_gpus: int) -> tuple[int, int]:
    """``(num_experts, num_moe_layers)`` for a sweep size.

    Both grow with ``sqrt(num_gpus / 64)`` from the paper-scale anchor
    (64 experts, 4 MoE layers at 64 GPUs): 4096 devices run 512 experts
    across 32 MoE layers.
    """
    factor = int(round(np.sqrt(num_gpus / 64)))
    return 64 * max(1, factor), 4 * max(1, factor)


def _scale_model(num_gpus: int, num_experts: int, layers: int) -> MoEModelConfig:
    return MoEModelConfig(
        name=f"scale-{num_gpus}g",
        num_layers=2 * layers,
        d_model=2048,
        d_ffn=8192,
        num_experts=num_experts,
    )


def _planner_replay(
    cost_model: MoECostModel,
    topology: ClusterTopology,
    trace,
    slots: int,
    placement_search: str,
) -> tuple[float, list, float, DeltaStepCost]:
    """One full planner replay in the given search mode.

    Returns ``(seconds, decision log, final estimated step time, delta
    evaluator)``.  The Policy Maker and the Migrate planner share the one
    :class:`~repro.core.delta.DeltaStepCost`, as the Scheduler wires them,
    so its counters cover both passes.  Decisions are applied so the
    placement evolves exactly as a live scheduler's would; the final
    estimate is what the quality gate compares across modes.
    """
    num_experts = cost_model.model.num_experts
    policy = PolicyMaker(
        cost_model,
        topology=topology,
        placement_search=placement_search,
    )
    migration = MigrationPlanner(
        cost_model,
        topology,
        placement_search=placement_search,
        delta=policy.delta,
    )
    placement = Placement.balanced(num_experts, topology.num_gpus, slots)
    decisions: list = []
    start = time.perf_counter()
    for step in range(trace.num_steps):
        assignment = trace.step(step)
        decision = policy.make_plan(assignment, placement)
        for action in decision.actions:
            action.apply(placement)
        moves = migration.plan(assignment, placement)
        for move in moves:
            move.apply(placement)
        decisions.append((decision.actions, tuple(moves)))
    elapsed = time.perf_counter() - start
    # Price the final configuration through the delta evaluator's O(E*G)
    # rebase — PolicyMaker.estimate_step_time solves the full router's
    # fractional relaxation, which is exactly the O(cluster^2) work this
    # sweep exists to avoid.
    final_time = policy.delta.rebase(
        trace.step(trace.num_steps - 1), placement
    )
    return elapsed, decisions, float(final_time), policy.delta


def planner_scale_benchmark(
    num_gpus: int,
    num_experts: int,
    num_steps: int = 4,
    tokens_per_gpu: int = 32_768,
    skew: float = 1.3,
    seed: int = 0,
) -> dict[str, object]:
    """Flat vs hierarchical planner rounds/sec at one cluster size.

    Both modes replay the identical drifting trace from the identical
    balanced placement on the identical (delta-path) evaluator; only the
    candidate-search order differs.  An untimed warm-up replay per mode
    pre-populates the profile's lazy AllReduce cache so neither timed
    pass pays first-probe costs for groups the other already visited.
    The two modes then alternate for :data:`PLANNER_TIMING_REPEATS`
    timed replays each; seconds (and the speedup) are medians.
    """
    model = _scale_model(num_gpus, num_experts, layers=2)
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

    # Warm-up: each mode visits its own replica groups; replaying both
    # untimed keeps lazy AllReduce probes out of both timed passes.
    _planner_replay(cost_model, topology, trace, slots, "flat")
    _planner_replay(cost_model, topology, trace, slots, "hierarchical")

    runs = {"flat": [], "hierarchical": []}
    for _ in range(PLANNER_TIMING_REPEATS):
        for mode, replays in runs.items():
            replays.append(
                _planner_replay(cost_model, topology, trace, slots, mode)
            )
    flat_s = statistics.median([run[0] for run in runs["flat"]])
    hier_s = statistics.median([run[0] for run in runs["hierarchical"]])
    _, flat_log, flat_time, _ = runs["flat"][0]
    _, hier_log, hier_time, _ = runs["hierarchical"][0]
    fallbacks = sum(
        run[3].fallbacks for replays in runs.values() for run in replays
    )
    quality_ratio = hier_time / flat_time if flat_time > 0 else float("inf")
    return {
        "num_gpus": num_gpus,
        "num_experts": num_experts,
        "num_steps": num_steps,
        "rounds": rounds,
        "flat_seconds": flat_s,
        "hierarchical_seconds": hier_s,
        "flat_rounds_per_sec": rounds / flat_s if flat_s > 0 else 0.0,
        "hierarchical_rounds_per_sec": rounds / hier_s if hier_s > 0 else 0.0,
        "speedup": flat_s / hier_s if hier_s > 0 else float("inf"),
        "decisions_match": flat_log == hier_log,
        "flat_final_step_time": flat_time,
        "hierarchical_final_step_time": hier_time,
        "quality_ratio": quality_ratio,
        "quality_within_epsilon": bool(quality_ratio <= 1.0 + QUALITY_RTOL),
        "quality_rtol": QUALITY_RTOL,
        "timing_repeats": PLANNER_TIMING_REPEATS,
        "fallbacks": float(fallbacks),
    }


def engine_scale_benchmark(
    num_gpus: int,
    num_experts: int,
    num_moe_layers: int,
    num_steps: int = 4,
    tokens_per_gpu: int = 16_384,
    seed: int = 0,
) -> dict[str, object]:
    """End-to-end simulated steps/sec of the multi-layer engine.

    Sizes beyond :data:`ENGINE_MAX_GPUS` return a skip record naming the
    remaining wall (see :data:`ENGINE_MAX_GPUS`), so the report says
    explicitly where engine measurements stop.
    """
    if num_gpus > ENGINE_MAX_GPUS:
        return {
            "num_gpus": num_gpus,
            "skipped": (
                f"router's padded spill batch; engine measurements stop "
                f"at {ENGINE_MAX_GPUS} devices"
            ),
        }
    from repro.runtime.pipeline import build_engine
    from repro.training.loop import simulate_pipeline

    model = _scale_model(num_gpus, num_experts, num_moe_layers)
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
    engine = build_engine(
        cluster_for(num_gpus),
        model,
        num_moe_layers=num_moe_layers,
        scheduler_config=SchedulerConfig(),
        seed=seed,
    )
    start = time.perf_counter()
    result = simulate_pipeline(engine, trace, warmup=1)
    elapsed = time.perf_counter() - start
    return {
        "num_gpus": num_gpus,
        "num_experts": num_experts,
        "num_moe_layers": num_moe_layers,
        "num_steps": num_steps,
        "seconds": elapsed,
        "steps_per_sec": num_steps / elapsed if elapsed > 0 else 0.0,
        "mean_sim_step_time": result.mean_step_time,
        "fallbacks": float(engine.delta_fallbacks()),
    }


def kernel_events_scale_benchmark(
    num_moe_layers: int,
    num_ticks: int = 1500,
    seed: int = 0,
    repeats: int = 2,
) -> dict[str, object]:
    """Kernel dispatch throughput with fan-out scaled to the layer count.

    A ``num_moe_layers``-layer engine schedules roughly three events per
    layer per step (begin / drain / complete), so the per-tick fan is
    ``3 * num_moe_layers`` — the multi-dozen-layer configs push the
    kernel's tie-heavy batch-drain path exactly as the pipelined engine
    does at that scale.
    """
    result = kernel_events_benchmark(
        num_ticks=num_ticks,
        fan=3 * num_moe_layers,
        seed=seed,
        repeats=repeats,
    )
    result["num_moe_layers"] = num_moe_layers
    return result


def scale_suite(smoke: bool = False, seed: int = 0) -> Report:
    """The full datacenter-scale sweep report.

    ``smoke`` keeps the 64- and 1024-device columns (seconds, not
    minutes) without changing the structure; CI gates on the report's
    gates, one per condition and size (``1024gpu.planner.speedup``).
    """
    sizes = SMOKE_SIZES if smoke else SWEEP_SIZES
    num_steps = 3 if smoke else 4
    num_ticks = 600 if smoke else 1500
    entries = []
    for num_gpus in sizes:
        num_experts, layers = scale_config(num_gpus)
        planner = planner_scale_benchmark(
            num_gpus, num_experts, num_steps=num_steps, seed=seed
        )
        engine = engine_scale_benchmark(
            num_gpus, num_experts, layers, num_steps=num_steps, seed=seed
        )
        kernel_events = kernel_events_scale_benchmark(
            layers, num_ticks=num_ticks, seed=seed
        )
        entries.append(
            {
                "num_gpus": num_gpus,
                "num_experts": num_experts,
                "num_moe_layers": layers,
                "planner": planner,
                "engine": engine,
                "kernel_events": kernel_events,
            }
        )

    fallbacks = sum(
        float(e["planner"]["fallbacks"])
        + float(e["engine"].get("fallbacks", 0.0))
        for e in entries
    )
    gates = {"total_fallbacks": gate(fallbacks, "==", 0.0)}
    for e in entries:
        size = f"{e['num_gpus']}gpu"
        planner, engine, events = e["planner"], e["engine"], e["kernel_events"]
        if e["num_gpus"] >= HIER_MUST_WIN_GPUS:
            gates[f"{size}.planner.speedup"] = gate(planner["speedup"], ">=", 1)
        # Identical decisions price identically (ratio exactly 1.0), so
        # the ratio alone carries the decision-identity-or-quality gate.
        gates[f"{size}.planner.quality_ratio"] = gate(
            planner["quality_ratio"], "<=", 1.0 + QUALITY_RTOL
        )
        if "skipped" not in engine:
            gates[f"{size}.engine.steps_per_sec"] = gate(
                engine["steps_per_sec"], ">", 0.0
            )
        gates[f"{size}.kernel_events.events_per_sec"] = gate(
            events["events_per_sec"], ">=", KERNEL_EVENTS_PER_SEC_FLOOR
        )
        gates[f"{size}.kernel_events.trace_ordered"] = gate(
            events["trace_ordered"], "==", True
        )
    return Report(
        suite="scale",
        payload={
            "smoke": smoke,
            "seed": seed,
            "sizes": entries,
            "hier_must_win_gpus": HIER_MUST_WIN_GPUS,
            "engine_max_gpus": ENGINE_MAX_GPUS,
            "events_per_sec_floor": KERNEL_EVENTS_PER_SEC_FLOOR,
            "total_fallbacks": fallbacks,
        },
        gates=gates,
    )


__all__ = [
    "REPORT_FILENAME",
    "SWEEP_SIZES",
    "SMOKE_SIZES",
    "ENGINE_MAX_GPUS",
    "HIER_MUST_WIN_GPUS",
    "PLANNER_TIMING_REPEATS",
    "QUALITY_RTOL",
    "scale_config",
    "planner_scale_benchmark",
    "engine_scale_benchmark",
    "kernel_events_scale_benchmark",
    "scale_suite",
]

"""The flagship composed scenario: ``python -m repro scenario``.

One :class:`~repro.sim.scenario.Scenario` with three event sources on the
shared kernel -- a combination none of the retired bespoke loops could
express:

* an SLO-aware **serving** stream under diurnal load (arrival / dispatch
  / completion events), *while*
* the cluster **loses and later recovers devices** at wall-clock times
  that land mid-stream between batches (not quantized to batch indices),
  *while*
* a **background migration budget** competes for bandwidth: the engine's
  best-effort adjustment streams get no in-step budget at all and commit
  only when the periodic :class:`~repro.sim.sources.StreamBudgetSource`
  grants a metered fraction of link time.

:func:`composed_scenario_run` wraps it for the CLI and CI: a seeded,
deterministic run whose report gates that every source actually fired
and the placements survived the turbulence.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.bench.harness import cluster_for
from repro.bench.reporting import Report, gate
from repro.bench.serving import probe_batch_seconds
from repro.cluster.events import ClusterEvent, ElasticitySchedule
from repro.config import MoEModelConfig
from repro.exceptions import ConfigurationError
from repro.serving.admission import BatchingConfig
from repro.serving.baseline import build_flexmoe_serving
from repro.serving.engine import ServingEngine, TopicRoutingModel
from repro.serving.requests import RequestStream, RequestStreamConfig
from repro.serving.slo import ServingReport, SLOConfig
from repro.sim.kernel import SimKernel
from repro.sim.scenario import Scenario, smoke_scale
from repro.sim.sources import StreamBudgetSource, TimedClusterEventSource


@dataclass(frozen=True)
class ComposedScenarioConfig:
    """Knobs of the composed serving+elasticity+budget scenario.

    Attributes:
        num_failures: Devices that fail mid-stream (each later recovers;
            outages are sequential). The replication floor of 2 makes a
            single outage always survivable; with more, a later outage
            can legitimately catch an expert whose budget-starved
            re-home transfer has not committed yet and abort with
            ``ElasticityError`` ("model states are gone") -- raising
            ``budget_bandwidth`` narrows that window.
        fail_at_fraction: First failure time as a fraction of the
            expected stream duration.
        recover_after_fraction: Outage length, same unit.
        budget_interval_fraction: Spacing of migration-bandwidth grants
            as a fraction of the expected stream duration.
        budget_bandwidth: Fraction of link time each grant hands the
            adjustment streams (below 1.0 = migration traffic competes
            with foreground transfers).
        load: Offered load relative to the probed balanced capacity.
    """

    num_moe_layers: int = 2
    num_gpus: int = 8
    num_experts: int = 16
    num_requests: int = 400
    mean_tokens: int = 512
    max_batch_tokens: int = 4096
    load: float = 0.85
    skew: float = 2.0
    num_topics: int = 4
    topic_drift: float = 0.4
    slo_batches: float = 8.0
    queue_factor: float = 16.0
    num_failures: int = 1
    fail_at_fraction: float = 0.25
    recover_after_fraction: float = 0.25
    budget_interval_fraction: float = 0.05
    budget_bandwidth: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_requests < 1:
            raise ConfigurationError("num_requests must be >= 1")
        if not 0 < self.load:
            raise ConfigurationError("load must be > 0")
        if not 0 <= self.num_failures < self.num_gpus:
            raise ConfigurationError(
                "num_failures must leave at least one device alive"
            )
        if not 0 < self.budget_bandwidth <= 1:
            raise ConfigurationError("budget_bandwidth must be in (0, 1]")

    def replace(self, **changes: object) -> "ComposedScenarioConfig":
        return dataclasses.replace(self, **changes)

    def smoke(self) -> "ComposedScenarioConfig":
        """CI-scale copy via the shared smoke-duration policy."""
        return self.replace(
            num_requests=smoke_scale(self.num_requests, floor=150),
            num_failures=min(self.num_failures, 1),
        )


@dataclass
class ComposedScenarioHandles:
    """Live objects of one composed run (read results off them after)."""

    scenario: Scenario
    server: ServingEngine
    serving_run: object  # repro.serving.engine._ServingRun
    elasticity: TimedClusterEventSource
    budget: StreamBudgetSource
    provenance: dict


def build_composed_scenario(
    config: ComposedScenarioConfig,
) -> ComposedScenarioHandles:
    """Materialize the scenario: substrate, stream, sources, horizon."""
    base = probe_batch_seconds(
        config.num_moe_layers,
        config.num_gpus,
        config.num_experts,
        config.max_batch_tokens,
        seed=config.seed,
    )
    capacity_tokens_per_s = config.max_batch_tokens / base
    rate_rps = config.load * capacity_tokens_per_s / config.mean_tokens
    expected_duration = config.num_requests / rate_rps
    slo = SLOConfig(
        latency_target=config.slo_batches * base,
        trigger_p99=3.0 * base,
        queue_limit_tokens=2.0 * config.max_batch_tokens,
    )
    batching = BatchingConfig(
        max_batch_tokens=config.max_batch_tokens,
        max_queue_tokens=int(config.queue_factor * config.max_batch_tokens),
    )
    stream = RequestStream(
        RequestStreamConfig(
            arrival="diurnal",
            rate_rps=rate_rps,
            num_requests=config.num_requests,
            mean_tokens=config.mean_tokens,
            max_tokens=config.max_batch_tokens,
            diurnal_period_s=expected_duration / 3.0,
            num_topics=config.num_topics,
            topic_drift=config.topic_drift,
            seed=config.seed,
        )
    )
    requests = stream.generate()
    model = MoEModelConfig(
        name=(
            f"composed-{config.num_moe_layers}L-{config.num_experts}e"
        ),
        num_layers=2 * config.num_moe_layers,
        d_model=1024,
        d_ffn=8192,
        num_experts=config.num_experts,
    )
    routing = TopicRoutingModel(
        config.num_moe_layers,
        config.num_experts,
        config.num_topics,
        skew=config.skew,
        seed=config.seed,
    )
    # An EMPTY step-keyed schedule: it provisions the live ClusterState
    # and the elastic scheduler shape (replication floor, slack slots)
    # while leaving every actual event to the TIME-keyed kernel source.
    server = build_flexmoe_serving(
        cluster_for(config.num_gpus),
        model,
        requests,
        batching,
        slo,
        num_moe_layers=config.num_moe_layers,
        routing=routing,
        elasticity=ElasticitySchedule(()),
        skew=config.skew,
        seed=config.seed,
    )

    rng = np.random.default_rng(config.seed)
    order = [int(g) for g in rng.permutation(config.num_gpus)]
    fail_at = config.fail_at_fraction * expected_duration
    outage = config.recover_after_fraction * expected_duration
    # Outages are sequential (each device is back before the next one
    # leaves): with the adjustment streams on a metered budget, re-home
    # transfers commit slowly, and overlapping outages could catch an
    # expert with its only surviving replica on the next device to die
    # -- a legitimate model outcome ("model states are gone"), but not
    # the scenario this harness is asserting on.
    spacing = 1.5 * outage
    timed_events: list[tuple[float, ClusterEvent]] = []
    for i, gpu in enumerate(order[: config.num_failures]):
        down = fail_at + i * spacing
        timed_events.append(
            (down, ClusterEvent(step=0, kind="fail", gpu=gpu))
        )
        timed_events.append(
            (down + outage, ClusterEvent(step=0, kind="recover", gpu=gpu))
        )

    # Serving defers ALL in-step stream budget; the budget source below
    # is the only bandwidth the adjustment streams ever get.
    serving_run = server.event_source(stream_budget=0.0)
    elasticity = TimedClusterEventSource(server.engine, timed_events)
    budget = StreamBudgetSource(
        server.engine,
        interval=config.budget_interval_fraction * expected_duration,
        bandwidth=config.budget_bandwidth,
    )
    scenario = Scenario(
        name="serving+elasticity+budget",
        sources=(elasticity, serving_run.source, budget),
        duration=2.0 * expected_duration,
        seed=config.seed,
    )
    provenance = {
        "num_moe_layers": config.num_moe_layers,
        "num_gpus": config.num_gpus,
        "num_experts": config.num_experts,
        "num_requests": config.num_requests,
        "arrival": "diurnal",
        "load": config.load,
        "rate_rps": rate_rps,
        "balanced_batch_s": base,
        "expected_duration_s": expected_duration,
        "num_failures": config.num_failures,
        "fail_at_s": fail_at,
        "outage_s": outage,
        "budget_interval_s": config.budget_interval_fraction
        * expected_duration,
        "budget_bandwidth": config.budget_bandwidth,
        "seed": config.seed,
    }
    return ComposedScenarioHandles(
        scenario=scenario,
        server=server,
        serving_run=serving_run,
        elasticity=elasticity,
        budget=budget,
        provenance=provenance,
    )


def _experts_survive(engine) -> bool:
    """Every expert of every layer still owns a replica on a live device."""
    state = engine.cluster_state
    if state is None:
        return True
    live = state.live_mask()
    for placement in engine.placements():
        if (placement.counts[:, live].sum(axis=1) < 1).any():
            return False
    return True


def composed_scenario_run(
    smoke: bool = False,
    seed: int = 0,
    config: ComposedScenarioConfig | None = None,
) -> Report:
    """Run the composed scenario and return its report.

    Deterministic under a fixed seed. The gates (CI gates on them)
    require every source to have genuinely fired: requests served,
    every timed cluster event delivered, bandwidth grants issued AND
    placement actions committed through them, and no expert left without
    a live replica.
    """
    if config is None:
        config = ComposedScenarioConfig(seed=seed)
    if smoke:
        config = config.smoke()
    handles = build_composed_scenario(config)
    kernel: SimKernel = handles.scenario.run()
    report: ServingReport = handles.serving_run.report()
    engine = handles.server.engine
    events_applied = len(handles.elasticity.applied)
    # Every request must be accounted for -- served or explicitly
    # rejected by backpressure. Requests stranded in the queue (or never
    # offered) at the horizon mean the server fell hopelessly behind the
    # offered load; the report's percentiles would silently cover only
    # the truncated stream, so that is a failed run, not a clean one.
    unaccounted = config.num_requests - len(report.records) - len(
        report.rejected
    )
    # The engine's committed-action counter is the authoritative total:
    # every action that reached an ACTIVE placement, whether the commit
    # happened in-step or through a budget grant. With stream_budget=0
    # the serving report's own counter stays at zero and the budget
    # source accounts for everything; the reconciliation gate pins that
    # the three counters never drift apart.
    total_committed = engine.committed_actions
    gates = {
        "serving.requests_served": gate(len(report.records), ">", 0),
        "requests_unaccounted": gate(unaccounted, "==", 0),
        "events_applied": gate(events_applied, "==", 2 * config.num_failures),
        "budget_grants": gate(handles.budget.grants, ">", 0),
    }
    if config.num_failures > 0:
        gates["budget_committed_actions"] = gate(
            handles.budget.committed, ">", 0
        )
    gates["placement_actions_reconciled"] = gate(
        total_committed,
        "==",
        handles.budget.committed + report.placement_actions,
    )
    gates["experts_survive"] = gate(_experts_survive(engine), "==", True)
    return Report(
        suite="composed_scenario",
        payload={
            "smoke": smoke,
            "scenario": handles.provenance,
            "serving": report.summary(),
            "cluster_events": [
                {"time_s": t, "kind": ev.kind, "gpu": ev.gpu}
                for t, ev in handles.elasticity.applied
            ],
            "events_applied": events_applied,
            "requests_unaccounted": unaccounted,
            "budget_grants": handles.budget.grants,
            "budget_committed_actions": handles.budget.committed,
            "engine_committed_actions": total_committed,
            "placement_actions_total": total_committed,
            "processed_events": kernel.processed_events,
        },
        gates=gates,
    )

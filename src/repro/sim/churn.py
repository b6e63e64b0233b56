"""Closed-loop capacity control under spot churn: ``python -m repro churn``.

The composed scenario (:mod:`repro.sim.composed`) exercises turbulence
the pool eventually recovers from by itself. This module closes the SLO
loop instead: capacity is *lost for good* (correlated spot-instance
revocations) and only a feedback controller --
:class:`~repro.sim.sources.AutoscalerSource` watching the serving run's
rolling p99 / queue depth / SLO attainment -- can bring replacement
devices up, late and cold, from a dark standby pool. Each scenario is a
paired experiment on one substrate and one request stream:

* **fixed** -- the seed pool only; revocation waves shrink it and
  nothing grows it back. The run degrades (re-homes onto the survivors,
  possibly below the replication floor) but keeps serving.
* **autoscaled** -- the same substrate with the standby headroom dark
  behind an :class:`~repro.sim.sources.AutoscalerSource`: revocation
  notices trigger emergency drains plus replacement requests, SLO
  pressure scales the pool out, calm scales it back in.

Cost makes the comparison honest: :func:`device_seconds_provisioned`
integrates the live-pool size over simulated time from the engine's
event log, and cost-weighted goodput divides within-SLO tokens by those
provisioned device-seconds -- an autoscaler that simply holds every
standby device hot pays for it.

``churn_scenario_run`` wraps the pair for the CLI and CI
(``BENCH_autoscale_churn.json``): its ``attainment_gain`` gate requires
the autoscaled run to *strictly* beat the fixed pool on SLO attainment
under churn. See ``docs/autoscaling.md``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.bench.harness import cluster_for
from repro.bench.reporting import Report, gate
from repro.bench.serving import probe_batch_seconds
from repro.cluster.events import ClusterEvent, ElasticitySchedule
from repro.config import MoEModelConfig
from repro.core.trigger import TriggerSignals
from repro.exceptions import ConfigurationError
from repro.serving.admission import BatchingConfig
from repro.serving.baseline import build_flexmoe_serving
from repro.serving.engine import ServingEngine, TopicRoutingModel
from repro.serving.requests import RequestStream, RequestStreamConfig
from repro.serving.slo import ServingReport, SLOConfig
from repro.sim.kernel import Priority, SimKernel
from repro.sim.scenario import Scenario, smoke_scale
from repro.sim.sources import AutoscalerSource


class SpotRevocationSource:
    """Correlated spot-instance revocation waves on the kernel clock.

    Each wave reclaims a *group* of devices at one instant (rack or
    zone loss, not independent failures). A wave optionally announces
    itself ``notice_window`` seconds early -- the reclamation warning
    real spot instances get -- and an attached
    :class:`~repro.sim.sources.AutoscalerSource` reacts inside that
    window (emergency drain plus replacement requests). Revoked devices
    never come back by themselves; when ``recover_after`` is set the
    wave is an *outage* instead (the devices rejoin after that span,
    mirroring the composed scenario's fail/recover pattern).

    The notice semantics include *state evacuation* in every arm: any
    sane runtime reacts to a reclamation warning by copying would-be
    orphaned expert states off the doomed devices (the engine's
    ``notify_revocation`` drain). What distinguishes an autoscaled run
    is the *capacity* response -- replacement devices requested inside
    the window. Without a notice window, a correlated wave can
    legitimately destroy every replica of an expert at one instant
    (``ElasticityError``), exactly the risk spot fleets carry.

    Attributes:
        applied: ``(time, gpus)`` tuples of delivered revocation waves.
        noticed: ``(time, gpus)`` tuples of delivered notices.
        recovered: ``(time, gpus)`` tuples of outage-mode recoveries.
        drain_seconds: Blocking seconds of notice-time drains performed
            directly by this source (controller-less arms; an attached
            autoscaler drains through its own counter instead).
    """

    def __init__(
        self,
        engine,
        waves: Sequence[tuple[float, Sequence[int]]],
        notice_window: float = 0.0,
        autoscaler: AutoscalerSource | None = None,
        recover_after: float | None = None,
    ) -> None:
        if notice_window < 0:
            raise ConfigurationError("notice_window must be >= 0")
        if recover_after is not None and recover_after <= 0:
            raise ConfigurationError("recover_after must be > 0")
        self._engine = engine
        self._waves = tuple(
            (float(when), tuple(int(g) for g in gpus))
            for when, gpus in waves
        )
        self._notice = float(notice_window)
        self._autoscaler = autoscaler
        self._recover_after = recover_after
        self._kernel: SimKernel | None = None
        self.applied: list[tuple[float, tuple[int, ...]]] = []
        self.noticed: list[tuple[float, tuple[int, ...]]] = []
        self.recovered: list[tuple[float, tuple[int, ...]]] = []
        self.drain_seconds = 0.0

    def prime(self, kernel: SimKernel, scenario: Scenario) -> None:
        self._kernel = kernel
        horizon = scenario.duration
        for index, (when, gpus) in enumerate(self._waves):
            if horizon is not None and when > horizon:
                continue
            if self._notice > 0:
                kernel.schedule_at(
                    max(0.0, when - self._notice),
                    lambda gpus=gpus: self._deliver_notice(gpus),
                    Priority.CONTROL,
                    label=f"spot-notice[{index}]",
                )
            kernel.schedule_at(
                when,
                lambda gpus=gpus: self._deliver_revocation(gpus),
                Priority.FAILURE,
                label=f"spot-revoke[{index}]",
            )

    def _deliver_notice(self, gpus: tuple[int, ...]) -> None:
        self.noticed.append((self._kernel.now, gpus))
        if self._autoscaler is not None:
            # Evacuation AND replacement capacity, one reaction.
            self._autoscaler.on_revocation_notice(gpus)
        else:
            # Fixed-capacity arms still evacuate state inside the
            # window; they just have nowhere to grow.
            self.drain_seconds += self._engine.notify_revocation(gpus)

    def _deliver_revocation(self, gpus: tuple[int, ...]) -> None:
        state = self._engine.cluster_state
        doomed = tuple(g for g in gpus if state.is_alive(g))
        if not doomed:
            return
        if self._notice > 0:
            # The notice window is continuous drain, not a one-shot
            # copy: the scheduler keeps rebalancing between notice and
            # deadline (it has no cordon concept and may shrink the
            # emergency replica again), so the runtime sweeps the doomed
            # devices one last time before they vanish. The copies'
            # blocking seconds are charged exactly like the notice-time
            # drain's.
            self.drain_seconds += self._engine.notify_revocation(doomed)
        self._engine.apply_cluster_events(
            tuple(
                ClusterEvent(step=0, kind="revoke", gpu=g) for g in doomed
            ),
            when=self._kernel.now,
        )
        self.applied.append((self._kernel.now, doomed))
        if self._recover_after is not None:
            self._kernel.schedule(
                self._recover_after,
                lambda gpus=doomed: self._deliver_recovery(gpus),
                Priority.FAILURE,
                label="spot-recover",
            )

    def _deliver_recovery(self, gpus: tuple[int, ...]) -> None:
        state = self._engine.cluster_state
        back = tuple(g for g in gpus if not state.is_alive(g))
        if not back:
            return
        self._engine.apply_cluster_events(
            tuple(
                ClusterEvent(step=0, kind="recover", gpu=g) for g in back
            ),
            when=self._kernel.now,
        )
        self.recovered.append((self._kernel.now, back))


def device_seconds_provisioned(
    engine, initial_live: int, duration: float
) -> float:
    """Integrate the live-pool size over ``[0, duration]`` seconds.

    Replays the engine's event log (which records only *applied*
    transitions, time-keyed in this scenario) as a step function from
    ``initial_live`` devices. This is the run's capacity cost: every
    provisioned device bills for every second it was up, whether it
    served tokens or idled.
    """
    if duration <= 0:
        return 0.0
    transitions: list[tuple[float, int]] = []
    for when, event in engine.event_log:
        if event.kind in ("fail", "revoke"):
            transitions.append((float(when), -1))
        elif event.kind in ("recover", "provision"):
            transitions.append((float(when), +1))
    transitions.sort(key=lambda pair: pair[0])
    live = int(initial_live)
    last = 0.0
    total = 0.0
    for when, delta in transitions:
        when = min(max(when, 0.0), duration)
        total += live * (when - last)
        live += delta
        last = when
    return total + live * (duration - last)


@dataclass(frozen=True)
class ChurnScenarioConfig:
    """Knobs of the paired autoscaled-vs-fixed churn scenario.

    Attributes:
        seed_gpus: Devices serving from the start (the fixed pool).
        standby_gpus: Dark headroom devices only the autoscaler can
            bring up. The substrate is built at ``seed_gpus +
            standby_gpus`` devices (whole nodes), identical for both
            runs of the pair.
        num_waves: Correlated revocation waves.
        wave_size: Devices reclaimed per wave (at one instant).
        first_wave_fraction: First wave's deadline as a fraction of the
            expected stream duration.
        wave_spacing_fraction: Deadline spacing between waves, same
            unit.
        notice_fraction: Revocation-notice window, same unit; 0 means
            no warning (the controller only reacts to SLO pressure).
        recover_after_fraction: ``None`` (default) is spot semantics --
            revoked devices are gone for good. A value turns each wave
            into an outage whose devices rejoin after that span,
            mirroring the composed scenario's fail/recover pattern.
        days: Diurnal periods the stream spans (multi-day traces).
        standby_speed_factors: Compute factors cycled over the standby
            devices -- a heterogeneous replacement pool (older, slower
            accelerator generations below 1.0).
        autoscaler_tick_fraction: Control-loop evaluation interval as a
            fraction of the expected stream duration.
        provision_delay_fraction: Provisioning delay, same unit: a
            requested device joins this much later, empty and cold.
        attainment_floor: Rolling SLO attainment below which the
            controller scales out.
        scale_down_after: Consecutive calm ticks before the controller
            releases its newest device (0 disables scale-down).
        load: Offered load relative to the probed seed-pool capacity.
    """

    num_moe_layers: int = 2
    seed_gpus: int = 8
    standby_gpus: int = 8
    num_experts: int = 16
    num_requests: int = 500
    mean_tokens: int = 512
    max_batch_tokens: int = 4096
    load: float = 0.85
    skew: float = 2.0
    num_topics: int = 4
    topic_drift: float = 0.4
    slo_batches: float = 8.0
    queue_factor: float = 16.0
    days: float = 3.0
    num_waves: int = 2
    wave_size: int = 2
    first_wave_fraction: float = 0.2
    wave_spacing_fraction: float = 0.3
    notice_fraction: float = 0.05
    recover_after_fraction: float | None = None
    standby_speed_factors: tuple[float, ...] = (1.0,)
    autoscaler_tick_fraction: float = 0.02
    provision_delay_fraction: float = 0.04
    attainment_floor: float = 0.92
    scale_down_after: int = 10
    scale_down_margin: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_requests < 1:
            raise ConfigurationError("num_requests must be >= 1")
        if not 0 < self.load:
            raise ConfigurationError("load must be > 0")
        if self.seed_gpus < 2:
            raise ConfigurationError("seed_gpus must be >= 2")
        if self.standby_gpus < 0:
            raise ConfigurationError("standby_gpus must be >= 0")
        if self.num_waves < 0 or self.wave_size < 1:
            raise ConfigurationError(
                "num_waves must be >= 0 and wave_size >= 1"
            )
        if self.num_waves * self.wave_size > self.seed_gpus - 2:
            raise ConfigurationError(
                "revocation waves must leave at least two seed devices: "
                f"{self.num_waves} waves x {self.wave_size} devices "
                f"against {self.seed_gpus} seed GPUs"
            )
        if self.days <= 0:
            raise ConfigurationError("days must be > 0")
        if not self.standby_speed_factors or any(
            f <= 0 for f in self.standby_speed_factors
        ):
            raise ConfigurationError(
                "standby_speed_factors must be non-empty and positive"
            )
        if not 0 < self.attainment_floor <= 1:
            raise ConfigurationError("attainment_floor must be in (0, 1]")

    @property
    def total_gpus(self) -> int:
        return self.seed_gpus + self.standby_gpus

    def replace(self, **changes: object) -> "ChurnScenarioConfig":
        return dataclasses.replace(self, **changes)

    def smoke(self) -> "ChurnScenarioConfig":
        """CI-scale copy via the shared smoke-duration policy."""
        return self.replace(
            num_requests=smoke_scale(self.num_requests, floor=200),
        )


@dataclass
class ChurnScenarioHandles:
    """Live objects of one churn run (read results off them after)."""

    scenario: Scenario
    server: ServingEngine
    serving_run: object  # repro.serving.engine._ServingRun
    spot: SpotRevocationSource
    autoscaler: AutoscalerSource | None
    provenance: dict


def _serving_probe(run, latency_target: float):
    """Close over a serving run's live signals for the autoscaler.

    The same three observables the engine pushes to its schedulers
    (:class:`~repro.core.trigger.TriggerSignals`), read directly off the
    run's rolling latency window and admission queue at tick time.
    """

    def probe() -> TriggerSignals:
        return TriggerSignals(
            step=0,
            balance_metric=None,
            p99_latency=run.window.p99(),
            queue_tokens=float(run.queue.queued_tokens),
            slo_attainment=run.window.attainment(latency_target),
        )

    return probe


def build_churn_scenario(
    config: ChurnScenarioConfig, autoscale: bool
) -> ChurnScenarioHandles:
    """Materialize one arm of the paired experiment.

    Both arms share the substrate shape, seeds, request stream and
    revocation schedule; ``autoscale`` only decides whether the standby
    headroom has a controller in front of it.
    """
    base = probe_batch_seconds(
        config.num_moe_layers,
        config.seed_gpus,
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
            diurnal_period_s=expected_duration / config.days,
            num_topics=config.num_topics,
            topic_drift=config.topic_drift,
            seed=config.seed,
        )
    )
    requests = stream.generate()
    model = MoEModelConfig(
        name=f"churn-{config.num_moe_layers}L-{config.num_experts}e",
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
    # The substrate spans seed + standby devices; ``initial_live`` darks
    # the headroom so the seed layout (and the fixed arm's whole run)
    # never touches it. The empty schedule provisions the ClusterState
    # and elastic scheduler shape, as in the composed scenario.
    server = build_flexmoe_serving(
        cluster_for(config.total_gpus),
        model,
        requests,
        batching,
        slo,
        num_moe_layers=config.num_moe_layers,
        routing=routing,
        elasticity=ElasticitySchedule(()),
        skew=config.skew,
        seed=config.seed,
        initial_live=config.seed_gpus,
    )

    rng = np.random.default_rng(config.seed)
    order = [int(g) for g in rng.permutation(config.seed_gpus)]
    first_at = config.first_wave_fraction * expected_duration
    spacing = config.wave_spacing_fraction * expected_duration
    waves: list[tuple[float, tuple[int, ...]]] = []
    for wave in range(config.num_waves):
        start = wave * config.wave_size
        waves.append(
            (
                first_at + wave * spacing,
                tuple(order[start: start + config.wave_size]),
            )
        )
    notice_window = config.notice_fraction * expected_duration
    recover_after = (
        None
        if config.recover_after_fraction is None
        else config.recover_after_fraction * expected_duration
    )

    serving_run = server.event_source()
    autoscaler: AutoscalerSource | None = None
    if autoscale:
        standby = range(config.seed_gpus, config.total_gpus)
        factors = {
            gpu: config.standby_speed_factors[
                i % len(config.standby_speed_factors)
            ]
            for i, gpu in enumerate(standby)
        }
        autoscaler = AutoscalerSource(
            server.engine,
            _serving_probe(serving_run, slo.latency_target),
            scalable_gpus=tuple(standby),
            interval=config.autoscaler_tick_fraction * expected_duration,
            provisioning_delay=(
                config.provision_delay_fraction * expected_duration
            ),
            p99_target=slo.effective_trigger_p99,
            queue_limit_tokens=slo.queue_limit_tokens,
            attainment_floor=config.attainment_floor,
            scale_down_after=config.scale_down_after,
            scale_down_margin=config.scale_down_margin,
            speed_factors=factors,
        )
    spot = SpotRevocationSource(
        server.engine,
        waves,
        notice_window=notice_window,
        autoscaler=autoscaler,
        recover_after=recover_after,
    )
    sources = (
        (spot, serving_run.source, autoscaler)
        if autoscaler is not None
        else (spot, serving_run.source)
    )
    scenario = Scenario(
        name=(
            "serving+spot-churn+autoscaler"
            if autoscale
            else "serving+spot-churn"
        ),
        sources=sources,
        duration=2.5 * expected_duration,
        seed=config.seed,
    )
    provenance = {
        "num_moe_layers": config.num_moe_layers,
        "seed_gpus": config.seed_gpus,
        "standby_gpus": config.standby_gpus,
        "num_experts": config.num_experts,
        "num_requests": config.num_requests,
        "arrival": "diurnal",
        "days": config.days,
        "load": config.load,
        "rate_rps": rate_rps,
        "balanced_batch_s": base,
        "expected_duration_s": expected_duration,
        "waves": [
            {"time_s": when, "gpus": list(gpus)} for when, gpus in waves
        ],
        "notice_window_s": notice_window,
        "recover_after_s": recover_after,
        "standby_speed_factors": list(config.standby_speed_factors),
        "provisioning_delay_s": (
            config.provision_delay_fraction * expected_duration
        ),
        "attainment_floor": config.attainment_floor,
        "seed": config.seed,
    }
    return ChurnScenarioHandles(
        scenario=scenario,
        server=server,
        serving_run=serving_run,
        spot=spot,
        autoscaler=autoscaler,
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


def _run_arm(
    config: ChurnScenarioConfig, autoscale: bool
) -> tuple[dict[str, object], dict]:
    """Run one arm; returns its flat outcome plus the shared provenance."""
    handles = build_churn_scenario(config, autoscale=autoscale)
    kernel: SimKernel = handles.scenario.run()
    report: ServingReport = handles.serving_run.report()
    engine = handles.server.engine
    duration = max(report.sim_duration, 0.0)
    device_seconds = device_seconds_provisioned(
        engine, config.seed_gpus, duration
    )
    good_tokens = report.goodput_tokens_per_s * duration
    unaccounted = config.num_requests - len(report.records) - len(
        report.rejected
    )
    arm: dict[str, object] = {
        "serving": report.summary(),
        "slo_attainment": report.slo_attainment,
        "requests_unaccounted": unaccounted,
        "device_seconds": device_seconds,
        "cost_weighted_goodput": (
            good_tokens / device_seconds if device_seconds > 0 else 0.0
        ),
        "waves_applied": len(handles.spot.applied),
        "devices_revoked": sum(
            len(gpus) for _, gpus in handles.spot.applied
        ),
        "notices_delivered": len(handles.spot.noticed),
        "floor_degradations": engine.floor_degradations,
        "committed_actions": engine.committed_actions,
        "experts_survive": _experts_survive(engine),
        "processed_events": kernel.processed_events,
    }
    if handles.autoscaler is not None:
        controller = handles.autoscaler
        arm["autoscaler"] = {
            "scale_ups": controller.scale_ups,
            "scale_downs": controller.scale_downs,
            "notices": controller.notices,
            "drain_seconds": controller.drain_seconds,
            "provisioned_gpus": list(controller.provisioned_gpus),
            "decisions": [
                {"time_s": when, "action": action, "gpu": gpu}
                for when, action, gpu in controller.decisions
            ],
        }
    return arm, handles.provenance


def churn_scenario_run(
    smoke: bool = False,
    seed: int = 0,
    config: ChurnScenarioConfig | None = None,
) -> Report:
    """Run the paired autoscaled-vs-fixed experiment; returns its report.

    Deterministic under a fixed seed. The gates (CI gates on them)
    require genuine churn (every wave delivered, devices actually
    revoked), full request accounting in both arms, surviving experts in
    both arms, real controller activity (scale-ups, and notice reactions
    when a notice window is configured) -- and the autoscaled arm
    *strictly* beating the fixed pool on SLO attainment.
    """
    if config is None:
        config = ChurnScenarioConfig(seed=seed)
    if smoke:
        config = config.smoke()
    fixed, provenance = _run_arm(config, autoscale=False)
    autoscaled, _ = _run_arm(config, autoscale=True)
    controller = autoscaled["autoscaler"]
    gain = autoscaled["slo_attainment"] - fixed["slo_attainment"]
    gates = {
        "fixed.waves_applied": gate(
            fixed["waves_applied"], "==", config.num_waves
        ),
        "fixed.devices_revoked": gate(
            fixed["devices_revoked"],
            "==",
            config.num_waves * config.wave_size,
        ),
        "fixed.requests_unaccounted": gate(
            fixed["requests_unaccounted"], "==", 0
        ),
        "autoscaled.requests_unaccounted": gate(
            autoscaled["requests_unaccounted"], "==", 0
        ),
        "fixed.experts_survive": gate(fixed["experts_survive"], "==", True),
        "autoscaled.experts_survive": gate(
            autoscaled["experts_survive"], "==", True
        ),
    }
    if config.standby_gpus > 0:
        gates["autoscaled.autoscaler.scale_ups"] = gate(
            controller["scale_ups"], ">", 0
        )
    if config.notice_fraction != 0:
        gates["autoscaled.autoscaler.notices"] = gate(
            controller["notices"], ">", 0
        )
    gates["autoscaled.device_seconds"] = gate(
        autoscaled["device_seconds"], ">", 0
    )
    gates["fixed.device_seconds"] = gate(fixed["device_seconds"], ">", 0)
    gates["attainment_gain"] = gate(gain, ">", 0)
    scenario = dataclasses.asdict(config)
    scenario["standby_speed_factors"] = list(config.standby_speed_factors)
    scenario["total_gpus"] = config.total_gpus
    return Report(
        suite="autoscale_churn",
        payload={
            "smoke": smoke,
            "scenario": scenario,
            "provenance": provenance,
            "fixed": fixed,
            "autoscaled": autoscaled,
            "attainment_gain": gain,
        },
        gates=gates,
    )

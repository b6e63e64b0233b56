"""Autoscale-under-churn benchmark: the SLO loop closed end to end.

Two sections feed one report (``BENCH_autoscale_churn.json``):

* A **churn matrix** of paired autoscaled-vs-fixed runs of
  :func:`repro.sim.churn.churn_scenario_run` -- baseline spot
  revocations, an outage variant whose devices rejoin (mirroring the
  composed scenario's fail/recover row), a heterogeneous standby pool of
  slower accelerator generations, and a multi-day diurnal trace with a
  heavier revocation schedule. Every row reports SLO attainment and
  cost-weighted goodput (within-SLO tokens per device-second
  provisioned) for both arms; the gate requires the autoscaled arm to
  strictly beat the fixed pool on attainment in every row while both
  arms account for every request.
* A **graceful-degradation pair**: the identical multi-tenant stream
  (interactive + two batch tenants) through a server that loses two
  devices to a correlated revocation mid-stream, once with
  ``shed_low_priority`` off (arrivals bounce off the full queue
  regardless of class) and once on (lowest-priority queued work is shed
  first, tracked per tenant). The gate requires shed accounting to
  conserve the stream, every shed request to come from the batch class,
  and the interactive class to degrade strictly later than batch --
  higher attainment under the same capacity loss.

Run via ``python -m repro churn [--smoke]``.
"""

from __future__ import annotations

from repro.bench.harness import cluster_for
from repro.bench.reporting import Report, gate
from repro.bench.serving import _serving_model, probe_batch_seconds
from repro.serving.admission import BatchingConfig
from repro.serving.baseline import build_multitenant_serving
from repro.serving.engine import TopicRoutingModel
from repro.serving.requests import (
    RequestStreamConfig,
    TenantSpec,
    merge_tenant_requests,
)
from repro.serving.slo import SLOConfig, TenantClass
from repro.sim.churn import ChurnScenarioConfig, churn_scenario_run
from repro.sim.scenario import Scenario, smoke_scale

CHURN_REPORT_FILENAME = "BENCH_autoscale_churn.json"


def churn_matrix_configs(seed: int = 0) -> dict[str, ChurnScenarioConfig]:
    """The benchmark's four churn variants, keyed by row name."""
    base = ChurnScenarioConfig(seed=seed)
    return {
        # Spot semantics: revoked devices are gone for good; the
        # controller back-fills from the standby pool.
        "spot": base,
        # Outage semantics (the composed scenario's fail/recover pattern
        # as correlated waves): revoked devices rejoin later, so the
        # fixed arm eventually heals too -- the controller's edge is the
        # window in between.
        "outage": base.replace(recover_after_fraction=0.35),
        # Replacement capacity from older accelerator generations: the
        # standby devices run at a fraction of seed speed.
        "heterogeneous": base.replace(standby_speed_factors=(0.75, 0.5)),
        # A longer trace spanning more diurnal peaks with more (but
        # smaller) revocation waves: three single-device reclaims keep
        # the fixed arm's residual pool large enough to host every
        # expert, so its failure mode is congestion, not state loss.
        "multiday": base.replace(days=5.0, num_waves=3, wave_size=1),
    }


def _degradation_tenants(
    base: float,
    max_batch_tokens: int,
    num_requests: int,
    rate_rps: float,
    interactive_share: float,
    num_topics: int,
    topic_drift: float,
    seed: int,
) -> tuple[TenantSpec, ...]:
    """Interactive + two batch tenants over one shared horizon."""
    interactive_class = TenantClass(
        name="interactive",
        slo=SLOConfig(
            latency_target=6.0 * base,
            trigger_p99=2.0 * base,
            queue_limit_tokens=2.0 * max_batch_tokens,
        ),
        priority=10,
        preemptible=False,
    )
    batch_class = TenantClass(
        name="batch",
        slo=SLOConfig(latency_target=20.0 * base),
        priority=0,
        preemptible=True,
    )
    n_interactive = max(num_requests // 2, 1)
    n_batch = max(num_requests // 4, 1)
    interactive_rate = interactive_share * rate_rps
    batch_rate = (1.0 - interactive_share) * rate_rps / 2.0
    specs = [
        TenantSpec(
            name="chat",
            stream=RequestStreamConfig(
                arrival="bursty",
                rate_rps=interactive_rate,
                num_requests=n_interactive,
                mean_tokens=256,
                max_tokens=max_batch_tokens,
                num_topics=num_topics,
                topic_drift=topic_drift,
                seed=seed,
            ),
            tenant_class=interactive_class,
        ),
    ]
    for index, name in enumerate(("batch-a", "batch-b")):
        specs.append(
            TenantSpec(
                name=name,
                stream=RequestStreamConfig(
                    arrival="poisson",
                    rate_rps=batch_rate,
                    num_requests=n_batch,
                    mean_tokens=768,
                    max_tokens=max_batch_tokens,
                    num_topics=num_topics,
                    topic_drift=topic_drift,
                    seed=seed + 1 + index,
                ),
                tenant_class=batch_class,
                quota_tokens=max_batch_tokens // 2,
                max_queue_tokens=4 * max_batch_tokens,
            )
        )
    return tuple(specs)


def degradation_run(
    smoke: bool = False,
    seed: int = 0,
    num_moe_layers: int = 2,
    num_gpus: int = 8,
    num_experts: int = 16,
    num_requests: int = 400,
    max_batch_tokens: int = 4096,
    load: float = 1.3,
    interactive_share: float = 0.4,
    lost_devices: int = 3,
    loss_at_fraction: float = 0.25,
    notice_fraction: float = 0.05,
    num_topics: int = 4,
    topic_drift: float = 0.4,
    skew: float = 2.0,
) -> Report:
    """Shed-on vs shed-off under the same mid-stream capacity loss.

    Both servers run the identical multi-tenant stream and lose the same
    ``lost_devices`` devices to one correlated revocation (with a notice
    window, so expert states are drained, never lost). ``load`` is
    calibrated slightly above the *full* pool's capacity: after the loss
    the global queue saturates, which is exactly the regime the shedding
    policy exists for. Deterministic under a fixed seed.
    """
    from repro.sim.churn import SpotRevocationSource

    if smoke:
        num_requests = smoke_scale(num_requests, floor=200)
    base = probe_batch_seconds(
        num_moe_layers, num_gpus, num_experts, max_batch_tokens, seed=seed
    )
    token_rate = load * max_batch_tokens / base
    mean_tokens = (
        interactive_share * 256 + (1.0 - interactive_share) * 768
    )
    rate_rps = token_rate / mean_tokens
    expected_duration = num_requests / rate_rps
    tenants = _degradation_tenants(
        base,
        max_batch_tokens,
        num_requests,
        rate_rps,
        interactive_share,
        num_topics,
        topic_drift,
        seed,
    )
    requests = merge_tenant_requests(tenants)
    cluster = cluster_for(num_gpus)
    model = _serving_model(num_moe_layers, num_experts)
    routing = TopicRoutingModel(
        num_moe_layers, num_experts, num_topics, skew=skew, seed=seed
    )
    batching = BatchingConfig(
        max_batch_tokens=max_batch_tokens,
        max_queue_tokens=4 * max_batch_tokens,
    )
    from repro.cluster.events import ElasticitySchedule

    wave = (
        loss_at_fraction * expected_duration,
        tuple(range(lost_devices)),
    )
    arms: dict[str, dict[str, object]] = {}
    for label, shed in (("shed_off", False), ("shed_on", True)):
        server = build_multitenant_serving(
            cluster, model, tenants, batching, requests=requests,
            num_moe_layers=num_moe_layers, routing=routing, skew=skew,
            seed=seed, dynamic=True, admission_policy="priority",
            preemption=True, shed_low_priority=shed,
            elasticity=ElasticitySchedule(()),
        )
        run = server.event_source()
        spot = SpotRevocationSource(
            server.engine,
            [wave],
            notice_window=notice_fraction * expected_duration,
        )
        Scenario(
            name=f"degradation-{label}",
            sources=(spot, run.source),
            duration=2.5 * expected_duration,
            seed=seed,
        ).run()
        report = run.report()
        summary = report.multitenant_summary()
        arms[label] = {
            "serving": summary,
            "devices_revoked": sum(len(g) for _, g in spot.applied),
            "requests_unaccounted": (
                len(requests) - len(report.records) - len(report.rejected)
            ),
        }

    def class_attainment(arm: dict, name: str) -> float:
        return arm["serving"]["per_class"][name]["slo_attainment"]

    def class_shed(arm: dict, name: str) -> float:
        return arm["serving"]["per_class"][name]["requests_shed"]

    shed_on = arms["shed_on"]
    shed_off = arms["shed_off"]
    gates = {}
    for label, arm in arms.items():
        # Capacity loss actually happened, identically, in both arms, and
        # nothing was silently dropped: served + rejected (shed folded
        # in) covers the whole stream.
        gates[f"{label}.devices_revoked"] = gate(
            arm["devices_revoked"], "==", lost_devices
        )
        gates[f"{label}.requests_unaccounted"] = gate(
            arm["requests_unaccounted"], "==", 0
        )
    # The mechanism engaged, and only ever against the batch class.
    gates["shed_engaged"] = gate(shed_on["serving"]["shed_requests"], ">", 0)
    gates["shed_spares_interactive"] = gate(
        class_shed(shed_on, "interactive"), "==", 0
    )
    # Graceful: the interactive class degrades strictly later than batch
    # under the same loss.
    gates["interactive_degrades_later"] = gate(
        class_attainment(shed_on, "interactive"),
        ">",
        class_attainment(shed_on, "batch"),
    )
    # Shedding must not hurt the class it protects.
    gates["shedding_protects_interactive"] = gate(
        class_attainment(shed_on, "interactive"),
        ">=",
        class_attainment(shed_off, "interactive"),
    )
    return Report(
        suite="degradation",
        payload={
            "scenario": {
                "num_moe_layers": num_moe_layers,
                "num_gpus": num_gpus,
                "num_experts": num_experts,
                "num_requests": len(requests),
                "load": load,
                "rate_rps": rate_rps,
                "interactive_share": interactive_share,
                "lost_devices": lost_devices,
                "loss_at_s": wave[0],
                "notice_window_s": notice_fraction * expected_duration,
                "balanced_batch_s": base,
                "seed": seed,
            },
            "shed_off": shed_off,
            "shed_on": shed_on,
        },
        gates=gates,
    )


def churn_bench_run(smoke: bool = False, seed: int = 0) -> Report:
    """The full benchmark: churn matrix + degradation pair, one verdict.

    The report's gates are every churn row's own paired gates, prefixed
    by the row name (``spot.attainment_gain``) -- autoscaled strictly
    beating fixed on SLO attainment with full accounting and surviving
    experts -- plus every degradation gate (``degradation.*``); CI gates
    on them.
    """
    rows = {
        name: churn_scenario_run(smoke=smoke, config=config)
        for name, config in churn_matrix_configs(seed).items()
    }
    degradation = degradation_run(smoke=smoke, seed=seed)
    gates = {
        f"{prefix}.{name}": entry
        for prefix, sub in (*rows.items(), ("degradation", degradation))
        for name, entry in sub.gates.items()
    }
    return Report(
        suite="autoscale_churn",
        payload={
            "smoke": smoke,
            "rows": {name: row.to_dict() for name, row in rows.items()},
            "degradation": degradation.to_dict(),
        },
        gates=gates,
    )

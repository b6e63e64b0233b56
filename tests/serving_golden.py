"""Golden outputs of the serving identity scenarios.

The serving identity tests once ran every seeded scenario twice: on the
live path (kernel-hosted, lazy bulk admission, columnar bookkeeping) and
on a retired reference path (the hand-rolled clock loop, per-request
records, one-at-a-time kernel drain). The reference paths are gone from
``src/``; what both paths agreed on is committed in
``golden/serving.json`` and the tests compare the live path against it
(:func:`assert_matches_golden`).

The scenario builders live here so the tests and the regeneration
script build exactly the same runs. Regenerate the fixture against a
checkout whose ``src/`` still carries the reference paths (commit
ef27d68 is the last one)::

    PYTHONPATH=<that checkout>/src python tests/serving_golden.py

The script runs every scenario on the live path and on each reference
path, asserts they agree, and only then writes the fixture.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from repro.bench.harness import cluster_for
from repro.bench.serving import probe_batch_seconds
from repro.cluster.events import ElasticitySchedule
from repro.config import FaultConfig, MoEModelConfig
from repro.serving.admission import BatchingConfig
from repro.serving.baseline import (
    build_flexmoe_serving,
    build_multitenant_serving,
    build_static_serving,
)
from repro.serving.engine import TopicRoutingModel
from repro.serving.requests import RequestStream, RequestStreamConfig, TenantSpec
from repro.serving.slo import SLOConfig, TenantClass

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "serving.json"

SERVING_MODEL = MoEModelConfig(
    name="sim-identity-serving",
    num_layers=4,
    d_model=1024,
    d_ffn=8192,
    num_experts=16,
)


def _slo_and_rate(seed):
    base = probe_batch_seconds(2, 8, 16, 4096, seed=seed)
    slo = SLOConfig(
        latency_target=8 * base,
        trigger_p99=3 * base,
        queue_limit_tokens=8192.0,
    )
    return base, slo, 0.9 * (4096 / base) / 512


def _stream_config(seed, rate):
    return RequestStreamConfig(
        arrival="bursty",
        rate_rps=rate,
        num_requests=100,
        mean_tokens=512,
        max_tokens=4096,
        num_topics=4,
        seed=seed,
    )


BATCHING = BatchingConfig(max_batch_tokens=4096, max_queue_tokens=65_536)


def build_servers(seed=0, with_faults=False, **extra):
    """``(build_dynamic, build_static)`` server factories on one seeded
    2-layer, 8-GPU, 100-request bursty scenario."""
    _, slo, rate = _slo_and_rate(seed)
    requests = RequestStream(_stream_config(seed, rate)).generate()
    elasticity = (
        ElasticitySchedule.from_fault_config(
            FaultConfig(
                num_failures=1, failure_step=4, recovery_steps=6, seed=seed
            ),
            8,
        )
        if with_faults
        else None
    )
    kwargs = dict(
        num_moe_layers=2,
        routing=TopicRoutingModel(2, 16, 4, skew=2.0, seed=seed),
        elasticity=elasticity,
        skew=2.0,
        seed=seed,
        **extra,
    )
    cluster = cluster_for(8)
    return (
        lambda: build_flexmoe_serving(
            cluster, SERVING_MODEL, requests, BATCHING, slo, **kwargs
        ),
        lambda: build_static_serving(
            cluster, SERVING_MODEL, requests, BATCHING, slo, **kwargs
        ),
    )


def multitenant_kwargs(seed=0, num_tenants=1, **extra):
    """``build_multitenant_serving`` keyword arguments for one or two
    tenants on the :func:`build_servers` scenario, plus the first
    tenant's stream config and SLO."""
    base, slo, rate = _slo_and_rate(seed)
    stream = _stream_config(seed, rate)
    tenants = [
        TenantSpec(
            name="only",
            stream=stream,
            tenant_class=TenantClass("interactive", slo, priority=10),
        )
    ]
    if num_tenants == 2:
        tenants.append(
            TenantSpec(
                name="bulk",
                stream=stream.replace(
                    arrival="poisson", rate_rps=rate / 4,
                    num_requests=40, seed=seed + 1,
                ),
                tenant_class=TenantClass(
                    "batch", SLOConfig(latency_target=32 * base)
                ),
                quota_tokens=2048,
            )
        )
    kwargs = dict(
        cluster=cluster_for(8),
        model=SERVING_MODEL,
        tenants=tuple(tenants),
        batching=BATCHING,
        num_moe_layers=2,
        routing=TopicRoutingModel(2, 16, 4, skew=2.0, seed=seed),
        skew=2.0,
        seed=seed,
        **extra,
    )
    return kwargs, stream, slo


def build_single_stream_twin(kwargs, stream, slo, **extra):
    """The plain dynamic server a one-tenant multi-tenant run reduces to."""
    return build_flexmoe_serving(
        kwargs["cluster"], kwargs["model"],
        RequestStream(stream).generate(), kwargs["batching"], slo,
        num_moe_layers=kwargs["num_moe_layers"],
        routing=kwargs["routing"], skew=kwargs["skew"],
        seed=kwargs["seed"], **extra,
    )


def compact(report) -> dict:
    """The fixture form of a :class:`~repro.serving.slo.ServingReport`.

    Records hash as ``(index, start, queue, execute)`` rows with floats
    in exact hex form, so any one-ulp drift changes the digest.
    """
    rows = [
        [
            r.request.index,
            float(r.start).hex(),
            float(r.queue_time).hex(),
            float(r.execute_time).hex(),
        ]
        for r in report.records
    ]
    out = {
        "records": len(rows),
        "records_sha256": hashlib.sha256(
            json.dumps(rows).encode()
        ).hexdigest(),
        "rejected": [r.index for r in report.rejected],
        "num_batches": report.num_batches,
        "sim_duration": float(report.sim_duration).hex(),
        "placement_actions": report.placement_actions,
    }
    if report.tenancy is not None:
        info = report.tenancy
        out["tenancy"] = {
            "preemptions": info.preemptions,
            "preempted_requests": info.preempted_requests,
            "wasted_seconds": float(info.wasted_seconds).hex(),
            "shed_requests": info.shed_requests,
            "shed_by_tenant": list(info.shed_by_tenant),
        }
    return out


def assert_matches_golden(name: str, report) -> None:
    """Assert ``report`` reproduces the committed golden output."""
    golden = json.loads(GOLDEN_PATH.read_text())[name]
    assert compact(report) == golden, f"{name}: diverged from the golden output"
    assert report.num_batches > 0


# ----------------------------------------------------------------------
# Regeneration (needs the reference paths: see the module docstring)
# ----------------------------------------------------------------------
def _reference_runs():
    """Every scenario's live run plus its reference-path runs."""
    from repro.sim import Scenario
    from test_serving_multitenant import _tiny_engine

    def reference_stack(build):
        # Per-request arrivals + serial drain + per-request records.
        server = build()
        run = server.event_source(lazy_admission=False)
        Scenario(name="stack-identity", sources=(run.source,)).run(
            batch_drain=False
        )
        return run.report()

    dynamic, _ = build_servers(seed=0)
    slow_dynamic, _ = build_servers(seed=0, vectorized=False)
    _, static = build_servers(seed=1)
    _, slow_static = build_servers(seed=1, vectorized=False)
    faulty, _ = build_servers(seed=0, with_faults=True)
    mt1, stream, slo = multitenant_kwargs(seed=0)
    mt1_slow, _, _ = multitenant_kwargs(seed=0, vectorized=False)
    mt2, _, _ = multitenant_kwargs(seed=0, num_tenants=2)
    mt2_slow, _, _ = multitenant_kwargs(
        seed=0, num_tenants=2, vectorized=False
    )
    return {
        "dynamic-seed0": (
            dynamic().run(),
            [
                dynamic().run(kernel=False),
                slow_dynamic().run(),
                reference_stack(slow_dynamic),
            ],
        ),
        "static-seed1": (
            static().run(),
            [static().run(kernel=False), slow_static().run()],
        ),
        "dynamic-faults-seed0": (
            faulty().run(),
            [faulty().run(kernel=False)],
        ),
        "multitenant-1-seed0": (
            build_multitenant_serving(**mt1).run(),
            [
                build_multitenant_serving(**mt1_slow).run(),
                build_single_stream_twin(
                    mt1_slow, stream, slo, vectorized=False
                ).run(),
            ],
        ),
        "multitenant-2-seed0": (
            build_multitenant_serving(**mt2).run(),
            [build_multitenant_serving(**mt2_slow).run()],
        ),
        "multitenant-tiny": (
            _tiny_engine().run(),
            [_tiny_engine(vectorized=False).run()],
        ),
    }


def _same(a, b) -> bool:
    return (
        a.records == b.records
        and a.rejected == b.rejected
        and a.num_batches == b.num_batches
        and a.sim_duration == b.sim_duration
        and a.placement_actions == b.placement_actions
        and a.summary() == b.summary()
    )


def main(argv=None) -> int:
    import inspect

    from repro.serving.engine import ServingEngine

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=GOLDEN_PATH)
    args = parser.parse_args(argv)
    if "kernel" not in inspect.signature(ServingEngine.run).parameters:
        print(
            "error: the imported repro has no reference serving paths; "
            "point PYTHONPATH at a checkout that still carries them",
            file=sys.stderr,
        )
        return 2
    golden = {}
    for name, (live, references) in _reference_runs().items():
        for reference in references:
            if not _same(live, reference):
                print(f"error: {name}: reference path diverged",
                      file=sys.stderr)
                return 1
            if live.tenancy != reference.tenancy and reference.tenancy:
                print(f"error: {name}: tenancy counters diverged",
                      file=sys.stderr)
                return 1
        golden[name] = compact(live)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} golden serving outputs to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Kernel-vs-legacy identity: the re-hosted loops change nothing.

Hosting the training, faults and serving loops on the unified
discrete-event kernel must preserve decision and metric identity with
the retired inline loops on seeded runs -- same placements chosen, same
per-step times, same per-request latencies. The training-side reference
is the inline step loop itself, written out below; the serving-side
references (clock loop, per-request bookkeeping) are gone from ``src/``
and survive as the golden outputs both paths agreed on
(``serving_golden.py``).
"""

import numpy as np
from serving_golden import (
    assert_matches_golden,
    build_servers,
    build_single_stream_twin,
    multitenant_kwargs,
)
from test_sim_kernel import run_scenario_serially

from repro.baselines.base import build_context
from repro.baselines.flexmoe import FlexMoESystem
from repro.bench.harness import cluster_for
from repro.cluster.events import ElasticitySchedule
from repro.config import (
    FaultConfig,
    MoEModelConfig,
    SchedulerConfig,
    WorkloadConfig,
    auto_slots_per_gpu,
)
from repro.runtime.pipeline import build_engine
from repro.serving.baseline import build_multitenant_serving
from repro.sim import Scenario
from repro.training.loop import (
    PipelineRunResult,
    TrainingRunResult,
    simulate_pipeline,
    simulate_training,
)
from repro.workload.synthetic import (
    DriftingRoutingGenerator,
    make_multilayer_trace,
)

MODEL = MoEModelConfig(
    name="sim-identity",
    num_layers=4,
    d_model=1024,
    d_ffn=4096,
    num_experts=16,
)


def _trace(num_steps=8, num_gpus=8, seed=0):
    return make_multilayer_trace(
        2,
        MODEL.num_experts,
        num_gpus,
        WorkloadConfig(
            tokens_per_step=16_384 * num_gpus, num_steps=num_steps, seed=seed
        ),
    )


def _inline_steps(engine, trace):
    """The retired inline loop: one ``step`` call per trace step."""
    return tuple(engine.step(trace.step(t), t) for t in range(trace.num_steps))


def _inline_pipeline(engine, trace):
    """:func:`simulate_pipeline` as the inline loop computed it."""
    return PipelineRunResult(
        engine=engine.name,
        results=_inline_steps(engine, trace),
        num_moe_layers=engine.num_moe_layers,
        final_placement_signatures=engine.placement_signatures(),
        event_log=getattr(engine, "event_log", ()),
    )


def _assert_pipeline_runs_identical(a, b):
    np.testing.assert_array_equal(a.step_times, b.step_times)
    assert a.final_placement_signatures == b.final_placement_signatures
    assert tuple(r.layer_actions for r in a.results) == tuple(
        r.layer_actions for r in b.results
    )
    np.testing.assert_array_equal(a.live_gpus_per_step, b.live_gpus_per_step)
    assert a.event_log == b.event_log


class TestRunPathIdentity:
    def test_pipeline_kernel_matches_legacy_loop(self):
        trace = _trace()

        def engine():
            return build_engine(cluster_for(8), MODEL, num_moe_layers=2, seed=0)

        _assert_pipeline_runs_identical(
            simulate_pipeline(engine(), trace), _inline_pipeline(engine(), trace)
        )

    def test_single_layer_training_kernel_matches_legacy_loop(self):
        workload = WorkloadConfig(tokens_per_step=65_536, num_steps=6, seed=1)
        trace = DriftingRoutingGenerator(
            MODEL.num_experts, 8, workload
        ).generate()

        def system():
            return FlexMoESystem(build_context(cluster_for(8), MODEL, seed=1))

        run = simulate_training(system(), trace)
        inline = TrainingRunResult(
            system=run.system, results=_inline_steps(system(), trace)
        )
        np.testing.assert_array_equal(run.step_times, inline.step_times)
        assert run.mean_token_efficiency == inline.mean_token_efficiency
        assert run.diverted_fraction == inline.diverted_fraction


class TestFaultsPathIdentity:
    def test_elastic_kernel_matches_legacy_loop(self):
        """Failure + recovery + straggler via an ElasticitySource vs the
        retired per-step polling: identical runs, identical event logs."""
        schedule = ElasticitySchedule.from_fault_config(
            FaultConfig(
                num_failures=1,
                failure_step=2,
                recovery_steps=3,
                num_stragglers=1,
                straggler_factor=0.5,
                straggler_step=1,
                seed=0,
            ),
            num_gpus=8,
        )
        trace = _trace(num_steps=8)
        slots = auto_slots_per_gpu(MODEL.num_experts, 8) + 2

        def engine():
            return build_engine(
                cluster_for(8),
                MODEL,
                num_moe_layers=2,
                scheduler_config=SchedulerConfig(
                    speed_aware_balance=True, min_replicas=2,
                    slots_per_gpu=slots,
                ),
                elasticity=schedule,
                seed=0,
            )

        run = simulate_pipeline(engine(), trace)
        _assert_pipeline_runs_identical(run, _inline_pipeline(engine(), trace))
        # The elasticity genuinely fired (this is not a vacuous identity).
        assert len(run.event_log) == len(schedule)


class TestServePathIdentity:
    def test_dynamic_server_kernel_matches_legacy_loop(self):
        build_flex, _ = build_servers(seed=0)
        assert_matches_golden("dynamic-seed0", build_flex().run())

    def test_static_server_kernel_matches_legacy_loop(self):
        _, build_static = build_servers(seed=1)
        assert_matches_golden("static-seed1", build_static().run())

    def test_serving_with_faults_kernel_matches_legacy_loop(self):
        build_flex, _ = build_servers(seed=0, with_faults=True)
        assert_matches_golden("dynamic-faults-seed0", build_flex().run())


def _assert_reports_identical(a, b):
    assert a.records == b.records
    assert a.rejected == b.rejected
    assert a.num_batches == b.num_batches
    assert a.sim_duration == b.sim_duration
    assert a.placement_actions == b.placement_actions
    assert a.summary() == b.summary()


class TestHotPathIdentity:
    """The hot path (batch-drain kernel, lazy bulk admission, columnar
    serving bookkeeping) is observationally identical to the reference
    paths on seeded runs: the reference drain lives in
    ``test_sim_kernel.py``, the reference bookkeeping in the golden
    outputs."""

    def test_batch_drain_trace_matches_serial_on_serving_scenario(self):
        build_flex, _ = build_servers(seed=2)
        runs = {}
        for serial in (False, True):
            run = build_flex().event_source()
            scenario = Scenario(name="drain-identity", sources=(run.source,))
            kernel = (
                run_scenario_serially(scenario)
                if serial
                else scenario.run(record_trace=True)
            )
            runs[serial] = (kernel.trace, kernel.processed_events, run.report())
        assert runs[False][0] == runs[True][0]
        assert runs[False][1] == runs[True][1]
        _assert_reports_identical(runs[False][2], runs[True][2])
        # Ties genuinely occurred (completion + admissions + dispatch at
        # one instant), so this is not a vacuous identity.
        times = [entry[0] for entry in runs[False][0]]
        assert len(times) != len(set(times))

    def test_fast_stack_report_matches_reference_stack(self):
        """The full fast stack (lazy bulk admission + batch drain +
        columnar bookkeeping) against the full reference stack's
        golden output (per-request arrivals + serial drain + per-request
        records)."""
        build_flex, _ = build_servers(seed=0)
        run = build_flex().event_source(lazy_admission=True)
        Scenario(name="stack-identity", sources=(run.source,)).run()
        assert_matches_golden("dynamic-seed0", run.report())

    def test_vectorized_builder_reports_match_per_request_path(self):
        """Columnar bookkeeping + lazy admission + batched window
        ingestion reproduce the per-request path's golden reports on
        both the dynamic and the static server."""
        for name, seed, pick in (
            ("dynamic-seed0", 0, 0), ("static-seed1", 1, 1),
        ):
            assert_matches_golden(name, build_servers(seed=seed)[pick]().run())


class TestMultiTenantIdentity:
    """One-tenant multi-tenant serving reduces exactly to the
    single-stream path, and the columnar multi-tenant bookkeeping
    reproduces the per-request path's golden reports."""

    def test_single_tenant_reduction_matches_single_stream_path(self):
        """A one-tenant TenantSpec run (priority admission, preemption
        armed but unreachable) is report-identical to the plain
        single-stream dynamic server on the same seeded scenario, and
        both reproduce the per-request golden output."""
        kwargs, stream, slo = multitenant_kwargs(seed=0)
        mt_report = build_multitenant_serving(**kwargs).run()
        plain_report = build_single_stream_twin(kwargs, stream, slo).run()
        _assert_reports_identical(mt_report, plain_report)
        assert_matches_golden("multitenant-1-seed0", mt_report)
        # The reduction still carries its tenancy section.
        assert mt_report.tenancy is not None
        assert plain_report.tenancy is None

    def test_single_tenant_fifo_policy_also_reduces(self):
        kwargs, stream, slo = multitenant_kwargs(seed=1)
        mt_report = build_multitenant_serving(
            **kwargs, admission_policy="fifo", preemption=False
        ).run()
        plain_report = build_single_stream_twin(kwargs, stream, slo).run()
        _assert_reports_identical(mt_report, plain_report)

    def test_multitenant_vectorized_matches_per_request_path(self):
        """Columnar tenant bookkeeping on a real two-tenant mix against
        the per-request path's golden report and tenancy counters."""
        kwargs, _, _ = multitenant_kwargs(seed=0, num_tenants=2)
        assert_matches_golden(
            "multitenant-2-seed0", build_multitenant_serving(**kwargs).run()
        )

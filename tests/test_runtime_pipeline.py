"""Tests for the multi-layer pipelined engine (runtime/pipeline.py)."""

import numpy as np
import pytest

from repro.baselines import FlexMoESystem
from repro.baselines.base import build_context
from repro.config import (
    ClusterConfig,
    MoEModelConfig,
    SchedulerConfig,
    WorkloadConfig,
)
from repro.exceptions import SimulationError
from repro.runtime.executor import PipelinedStepExecutor
from repro.runtime.pipeline import MultiLayerFlexMoEEngine, build_engine
from repro.training.loop import simulate_pipeline
from repro.workload.synthetic import make_multilayer_trace, make_trace

MODEL = MoEModelConfig("pipe", num_layers=8, d_model=256, d_ffn=1024, num_experts=8)
CLUSTER = ClusterConfig(num_nodes=1, gpus_per_node=4)


def small_engine(**overrides) -> MultiLayerFlexMoEEngine:
    kwargs = dict(cluster=CLUSTER, model=MODEL, seed=0)
    kwargs.update(overrides)
    return build_engine(**kwargs)


def small_trace(num_layers: int, num_steps: int = 8, seed: int = 0):
    return make_multilayer_trace(
        num_layers,
        MODEL.num_experts,
        CLUSTER.num_gpus,
        WorkloadConfig(tokens_per_step=65_536, num_steps=num_steps, seed=seed),
    )


class TestSingleLayerReduction:
    """num_moe_layers=1 without dense modelling is the seed engine."""

    def test_matches_flexmoe_system_exactly(self):
        model = MODEL.replace(num_layers=2)  # one MoE layer
        trace = make_trace(
            MODEL.num_experts,
            CLUSTER.num_gpus,
            WorkloadConfig(tokens_per_step=65_536, num_steps=8, seed=2),
        )

        ctx = build_context(CLUSTER, model, seed=7)
        system = FlexMoESystem(ctx)
        single = [system.step(trace.step(t), t).step_time for t in range(8)]

        ctx2 = build_context(CLUSTER, model, seed=7)
        engine = MultiLayerFlexMoEEngine(
            executor=ctx2.executor,
            profile=ctx2.profile,
            collectives=ctx2.collectives,
            num_moe_layers=1,
            model_dense_compute=False,
        )
        multi = [engine.step(trace.step(t)[None], t).step_time for t in range(8)]
        np.testing.assert_allclose(multi, single, rtol=0, atol=0)

    def test_single_layer_timing_reduces_to_step_executor(self):
        ctx = build_context(CLUSTER, MODEL, seed=1)
        pipe = PipelinedStepExecutor(
            ctx.executor, num_moe_layers=1, model_dense_compute=False
        )
        traffic = np.zeros((4, 4), dtype=np.int64)
        traffic[0, 0] = 1000
        timing = pipe.execute([traffic], [_balanced_placement()])
        layer = timing.layer_timings[0]
        assert timing.step_time == pytest.approx(layer.step_time)
        assert timing.dense_time == 0.0
        assert timing.hidden_a2a == 0.0


def _balanced_placement():
    from repro.core.placement import Placement

    return Placement.balanced(8, 4, 4)


class TestOverlapModel:
    def test_overlap_never_increases_step_time(self):
        trace = small_trace(4, num_steps=6)
        overlapped = simulate_pipeline(small_engine(), trace)
        sequential = simulate_pipeline(
            small_engine(overlap_efficiency=0.0), trace
        )
        # Same substrate seeds, same trace: overlap only hides A2A.
        assert overlapped.mean_step_time <= sequential.mean_step_time

    def test_hidden_a2a_bounded_by_total(self):
        run = simulate_pipeline(small_engine(), small_trace(4, num_steps=6))
        for result in run.results:
            assert 0.0 <= result.timing.hidden_a2a <= result.timing.a2a_time
            assert result.timing.exposed_a2a >= 0.0

    def test_breakdown_sums_to_step_time(self):
        run = simulate_pipeline(small_engine(), small_trace(4, num_steps=6))
        for result in run.results:
            b = result.timing.breakdown()
            total = (
                b["dense_compute"]
                + b["expert_compute"]
                + b["a2a_exposed"]
                + b["sync"]
                + b["adjustment_blocking"]
            )
            assert b["step_time"] == pytest.approx(total)

    def test_dense_modelling_adds_time(self):
        trace = small_trace(4, num_steps=6)
        with_dense = simulate_pipeline(small_engine(), trace)
        without = simulate_pipeline(
            small_engine(model_dense_compute=False), trace
        )
        assert with_dense.mean_step_time > without.mean_step_time


class TestPerLayerDivergence:
    def test_skewed_layers_diverge(self):
        engine = small_engine()
        trace = make_multilayer_trace(
            4,
            MODEL.num_experts,
            CLUSTER.num_gpus,
            WorkloadConfig(
                tokens_per_step=65_536, num_steps=15, skew=1.5, seed=3
            ),
        )
        run = simulate_pipeline(engine, trace)
        # Each layer's hot experts differ, so the schedulers must have
        # walked the placements apart.
        assert run.distinct_final_placements >= 2
        assert engine.distinct_placements() == run.distinct_final_placements

    def test_per_layer_loads_reported(self):
        run = simulate_pipeline(small_engine(), small_trace(4, num_steps=4))
        for result in run.results:
            assert result.layer_gpu_loads.shape == (4, CLUSTER.num_gpus)
            assert result.layer_locality.shape == (4,)
            assert np.array_equal(
                result.gpu_loads, result.layer_gpu_loads.sum(axis=0)
            )


class TestEngineSemantics:
    def test_token_efficiency_is_one(self):
        run = simulate_pipeline(small_engine(), small_trace(4, num_steps=4))
        assert run.mean_token_efficiency == 1.0

    def test_placements_stay_valid(self):
        engine = small_engine()
        trace = small_trace(4, num_steps=10, seed=5)
        simulate_pipeline(engine, trace)
        for layer in engine.layers:
            layer.active_placement.validate()
            layer.target_placement.validate()

    def test_best_effort_off_blocks_steps(self):
        config = SchedulerConfig(best_effort=False)
        engine = small_engine(scheduler_config=config)
        trace = make_multilayer_trace(
            4,
            MODEL.num_experts,
            CLUSTER.num_gpus,
            WorkloadConfig(
                tokens_per_step=65_536, num_steps=10, skew=1.5, seed=1
            ),
        )
        run = simulate_pipeline(engine, trace)
        blocking = sum(r.timing.adjustment_blocking for r in run.results)
        actions = sum(r.scheduling_actions for r in run.results)
        assert actions > 0
        assert blocking > 0.0

    def test_layer_count_mismatch_rejected(self):
        engine = small_engine()
        with pytest.raises(SimulationError):
            simulate_pipeline(engine, small_trace(2))

    def test_bad_assignment_shape_rejected(self):
        engine = small_engine()
        with pytest.raises(SimulationError):
            engine.step(np.zeros((2, 8, 4), dtype=np.int64), 0)

    def test_warmup_bounds(self):
        engine = small_engine()
        with pytest.raises(SimulationError):
            simulate_pipeline(engine, small_trace(4, num_steps=4), warmup=4)

    def test_summary_keys(self):
        run = simulate_pipeline(small_engine(), small_trace(4, num_steps=4))
        summary = run.summary()
        for key in (
            "mean_step_time",
            "mean_overlap_savings",
            "mean_dense_compute",
            "mean_a2a_hidden",
            "moe_layers",
        ):
            assert key in summary
        assert summary["moe_layers"] == 4.0

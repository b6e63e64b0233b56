"""Scheduling decisions of the delta search equal the reference search's.

The delta-cost search is a pure performance optimization: given the same
seeded scenario, the Policy Maker and Migrate planner must propose exactly
the same actions as the copy-per-candidate search over the full evaluator
(``search_oracle.py``). Asserted here on evolving single-layer scenarios,
the multi-layer pipelined engine and the elastic faults scenario (failures
and stragglers mid-run), following the ``ReferenceTokenRouter`` precedent
of keeping the seed implementation as the executable specification.
"""

import contextlib

import numpy as np
import pytest
from search_oracle import (
    ReferenceMigrationPlanner,
    ReferencePolicyMaker,
    reference_search,
)

from repro.bench.harness import faults_run
from repro.cluster.profiler import Profiler
from repro.cluster.topology import ClusterTopology
from repro.config import (
    ClusterConfig,
    FaultConfig,
    MoEModelConfig,
    SchedulerConfig,
    WorkloadConfig,
    auto_slots_per_gpu,
)
from repro.core.cost_model import MoECostModel
from repro.core.migration import MigrationPlanner
from repro.core.placement import Placement
from repro.core.policy import PolicyMaker
from repro.core.scheduler import Scheduler
from repro.runtime.pipeline import build_engine
from repro.training.loop import simulate_pipeline
from repro.workload.synthetic import (
    DriftingRoutingGenerator,
    make_multilayer_trace,
)

MODEL = MoEModelConfig("eq", num_layers=4, d_model=512, d_ffn=2048, num_experts=16)
CLUSTER = ClusterConfig(num_nodes=2, gpus_per_node=4)


def build_cost_model(noise: float = 0.02) -> tuple[MoECostModel, ClusterTopology]:
    topology = ClusterTopology(CLUSTER)
    profile = Profiler(topology, noise=noise, seed=0).profile(MODEL)
    return MoECostModel(profile, MODEL), topology


def drifting_trace(num_steps: int = 25, seed: int = 0):
    return DriftingRoutingGenerator(
        16,
        8,
        WorkloadConfig(
            tokens_per_step=16_384 * 8, num_steps=num_steps, skew=1.3,
            seed=seed,
        ),
    ).generate()


@pytest.mark.parametrize("noise", [0.0, 0.02])
def test_policy_decisions_identical_on_evolving_scenario(noise):
    """Single layer: make_plan agrees step by step as the placement evolves."""
    cost_model, _ = build_cost_model(noise)
    trace = drifting_trace()
    delta_policy = PolicyMaker(cost_model)
    ref_policy = ReferencePolicyMaker(cost_model)
    p_delta = Placement.balanced(16, 8, auto_slots_per_gpu(16, 8))
    p_ref = p_delta.copy()
    proposals = 0
    for step in range(trace.num_steps):
        assignment = trace.step(step)
        d = delta_policy.make_plan(assignment, p_delta)
        r = ref_policy.make_plan(assignment, p_ref)
        assert d.actions == r.actions, f"diverged at step {step}"
        assert d.adjustment_time == pytest.approx(r.adjustment_time)
        for action in d.actions:
            action.apply(p_delta)
            action.apply(p_ref)
        proposals += bool(d.actions)
    assert proposals > 0  # the scenario actually exercised the search
    assert delta_policy.delta.fallbacks == 0


def test_migration_plans_identical_on_evolving_scenario():
    cost_model, topology = build_cost_model()
    trace = drifting_trace(seed=3)
    delta_planner = MigrationPlanner(cost_model, topology)
    ref_planner = ReferenceMigrationPlanner(cost_model, topology)
    placement = Placement.balanced(16, 8, auto_slots_per_gpu(16, 8))
    moves_seen = 0
    for step in range(trace.num_steps):
        assignment = trace.step(step)
        d_moves = delta_planner.plan(assignment, placement)
        r_moves = ref_planner.plan(assignment, placement)
        assert d_moves == r_moves, f"diverged at step {step}"
        for move in d_moves:
            move.apply(placement)
        moves_seen += len(d_moves)
    assert moves_seen > 0
    assert delta_planner.delta.fallbacks == 0


@pytest.mark.parametrize("tokens", [979, 1355])
def test_migration_rejects_cost_neutral_exchanges(tokens):
    """Under uniform load on a balanced placement every exchange is
    cost-neutral up to float rounding; the delta sweep must reject them
    exactly as the reference does (a strict improvement beyond 1e-12 s)."""
    model = MoEModelConfig(
        "neutral", num_layers=2, d_model=256, d_ffn=1024, num_experts=8
    )
    topology = ClusterTopology(CLUSTER)
    profile = Profiler(topology, noise=0.0, seed=0).profile(model)
    cost_model = MoECostModel(profile, model)
    placement = Placement.balanced(8, 8, 3)
    assignment = np.full((8, 8), tokens, dtype=np.int64)
    reference = ReferenceMigrationPlanner(cost_model, topology).plan(
        assignment, placement
    )
    delta = MigrationPlanner(cost_model, topology).plan(assignment, placement)
    assert delta == reference == []


def test_scheduler_histories_identical(monkeypatch):
    """Algorithm 1 end to end: same triggers, same rounds, same actions."""
    cost_model, topology = build_cost_model()
    trace = drifting_trace()

    def scheduler(policy_cls):
        placement = Placement.balanced(16, 8, auto_slots_per_gpu(16, 8))
        return Scheduler(
            placement, policy_cls(cost_model), SchedulerConfig(), topology
        )

    schedulers = {"delta": scheduler(PolicyMaker)}
    with reference_search(monkeypatch):
        schedulers["reference"] = scheduler(ReferencePolicyMaker)
    assert isinstance(
        schedulers["reference"].migration, ReferenceMigrationPlanner
    )
    for step in range(trace.num_steps):
        assignment = trace.step(step)
        out_d = schedulers["delta"].on_step(assignment, step)
        out_r = schedulers["reference"].on_step(assignment, step)
        assert out_d.actions == out_r.actions, f"diverged at step {step}"
        assert out_d.triggered == out_r.triggered
        assert out_d.rounds == out_r.rounds
    assert schedulers["delta"].total_actions() > 0
    assert (
        schedulers["delta"].placement.signature()
        == schedulers["reference"].placement.signature()
    )
    # The reference side never touched its (unused) delta evaluator.
    assert schedulers["reference"].policy.delta.rebases == 0


def delta_rebases(engine) -> int:
    """Delta rebases across the engine's layers: 0 when every layer ran
    the reference search."""
    return sum(
        layer.scheduler.policy.delta.rebases for layer in engine.layers
    )


def test_multilayer_engine_runs_identical(monkeypatch):
    """The pipelined engine produces identical placements and timings."""
    model = MoEModelConfig(
        "eq-pipe", num_layers=4, d_model=512, d_ffn=2048, num_experts=16
    )
    trace = make_multilayer_trace(
        2, 16, 8,
        WorkloadConfig(tokens_per_step=16_384 * 8, num_steps=15, seed=0),
    )
    results = {}
    signatures = {}
    rebases = {}
    for use_delta in (True, False):
        search = (
            contextlib.nullcontext()
            if use_delta
            else reference_search(monkeypatch)
        )
        with search:
            engine = build_engine(
                ClusterConfig(num_nodes=1, gpus_per_node=8),
                model,
                num_moe_layers=2,
                scheduler_config=SchedulerConfig(),
                seed=0,
            )
            results[use_delta] = simulate_pipeline(engine, trace, warmup=2)
        signatures[use_delta] = engine.placement_signatures()
        rebases[use_delta] = delta_rebases(engine)
    assert rebases[True] > 0 and rebases[False] == 0
    assert signatures[True] == signatures[False]
    assert np.array_equal(
        results[True].step_times, results[False].step_times
    )
    actions = [
        sum(r.scheduling_actions for r in results[flag].results)
        for flag in (True, False)
    ]
    assert actions[0] == actions[1] > 0


def test_faults_scenario_runs_identical(monkeypatch):
    """Elastic runs with failures and stragglers mid-search agree too."""
    faults = FaultConfig(
        num_failures=1,
        failure_step=6,
        recovery_steps=8,
        num_stragglers=1,
        straggler_factor=0.5,
        straggler_step=3,
        seed=0,
    )
    summaries = {}
    for use_delta in (True, False):
        search = (
            contextlib.nullcontext()
            if use_delta
            else reference_search(monkeypatch)
        )
        with search:
            result = faults_run(
                num_moe_layers=2,
                num_gpus=8,
                num_experts=16,
                num_steps=25,
                warmup=3,
                faults=faults,
                seed=0,
            )
        summaries[use_delta] = result.summary()
        assert result.flexmoe_rehomed
    assert summaries[True]["flexmoe_actions"] == summaries[False][
        "flexmoe_actions"
    ]
    assert summaries[True]["flexmoe"]["final"] == pytest.approx(
        summaries[False]["flexmoe"]["final"], rel=1e-12
    )
    assert summaries[True]["baseline"]["final"] == pytest.approx(
        summaries[False]["baseline"]["final"], rel=1e-12
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda cm, topo: SchedulerConfig(delta_evaluation=False),
        lambda cm, topo: PolicyMaker(cm, use_delta=False),
        lambda cm, topo: MigrationPlanner(cm, topo, use_delta=False),
        lambda cm, topo: MigrationPlanner(cm, topo, memo=None),
        lambda cm, topo: faults_run(delta_evaluation=False),
    ],
    ids=["scheduler-config", "policy", "migration", "migration-memo", "faults"],
)
def test_reference_search_is_not_selectable(build):
    """The shipped simulator has one search path; the reference lives in
    search_oracle.py only."""
    cost_model, topology = build_cost_model()
    with pytest.raises(TypeError):
        build(cost_model, topology)

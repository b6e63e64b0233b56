"""DeltaStepCost equivalence: incremental == full recompute, always.

The delta evaluator is only allowed to be *faster* than the memoized
reference path, never different: every query shape (rebase, pair sweep,
exchange sweep, trial evaluation) is checked against
:class:`~repro.core.cost_model.MemoizedStepCost` to float tolerance on
noisy and exact profiles, with and without a live cluster state, and the
fallback accounting (the perf smoke's CI gate) is pinned down.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.events import ClusterState
from repro.cluster.profiler import Profiler
from repro.cluster.topology import ClusterTopology
from repro.config import ClusterConfig, MoEModelConfig, WorkloadConfig
from repro.core.cost_model import MemoizedStepCost, MoECostModel
from repro.core.delta import DeltaStepCost
from repro.core.migration import MigrationPlanner
from repro.core.placement import Placement
from repro.core.policy import PolicyMaker
from repro.core.primitives import Migrate
from repro.exceptions import RoutingError, SchedulingError
from repro.workload.synthetic import DriftingRoutingGenerator

MODEL = MoEModelConfig("delta", num_layers=2, d_model=256, d_ffn=1024, num_experts=8)
CLUSTER = ClusterConfig(num_nodes=2, gpus_per_node=4)
RTOL = 1e-9


def build_cost_model(noise: float = 0.02, state: ClusterState | None = None):
    topology = ClusterTopology(CLUSTER)
    profile = Profiler(topology, noise=noise, seed=0).profile(MODEL)
    return MoECostModel(profile, MODEL, cluster_state=state)


def random_placement(rng, slots=4) -> Placement:
    placement = Placement.balanced(8, 8, slots)
    for _ in range(8):
        expert = int(rng.integers(8))
        gpus = placement.gpus_of(expert)
        target = int(rng.integers(8))
        if placement.replicas(expert) > 1 and placement.count(
            expert, gpus[0]
        ) >= 1:
            placement.remove_vexpert(expert, gpus[0])
            placement.add_vexpert(target, gpus[0])
    return placement


@pytest.fixture
def cost_model() -> MoECostModel:
    return build_cost_model()


class TestRebase:
    def test_base_time_matches_reference(self, cost_model, rng):
        memo = MemoizedStepCost(cost_model)
        delta = DeltaStepCost(cost_model)
        for _ in range(20):
            placement = random_placement(rng)
            assignment = rng.integers(0, 30_000, (8, 8))
            base = delta.rebase(assignment, placement)
            assert base == pytest.approx(
                memo.step_time(assignment, placement), rel=RTOL
            )

    def test_shape_mismatch_rejected(self, cost_model):
        delta = DeltaStepCost(cost_model)
        with pytest.raises(RoutingError):
            delta.rebase(np.zeros((4, 4)), Placement.balanced(8, 8, 2))

    def test_negative_tokens_rejected(self, cost_model):
        delta = DeltaStepCost(cost_model)
        assignment = np.zeros((8, 8))
        assignment[0, 0] = -1
        with pytest.raises(RoutingError):
            delta.rebase(assignment, Placement.balanced(8, 8, 2))

    def test_query_without_base_raises(self, cost_model):
        delta = DeltaStepCost(cost_model)
        with pytest.raises(SchedulingError):
            delta.trial_time(Placement.balanced(8, 8, 2), (0,))


class TestPairSweep:
    def test_matches_applying_the_pair(self, cost_model, rng):
        memo = MemoizedStepCost(cost_model)
        delta = DeltaStepCost(cost_model, audit=True)
        for _ in range(10):
            placement = random_placement(rng)
            assignment = rng.integers(0, 30_000, (8, 8))
            delta.rebase(assignment, placement)
            e0, e1 = (int(e) for e in rng.choice(8, 2, replace=False))
            if placement.replicas(e1) <= 1:
                continue
            gpus = np.array(placement.gpus_of(e1))
            times = delta.pair_candidate_times(placement, e0, e1, gpus)
            for i, gpu in enumerate(gpus):
                trial = placement.copy()
                trial.remove_vexpert(e1, int(gpu))
                trial.add_vexpert(e0, int(gpu))
                assert times[i] == pytest.approx(
                    memo.step_time(assignment, trial), rel=RTOL
                )
            assert delta.fallbacks == 0

    def test_membership_preserving_and_changing_candidates(self, rng):
        """One sweep whose GPUs cover every mix: the expand expert already
        held or not, and the shrink expert's last copy or one of two."""
        counts = np.zeros((8, 8), dtype=np.int64)
        counts[0, [0, 5]] = 1
        counts[1, [0, 1, 2, 5]] = (2, 1, 2, 1)
        for expert, gpus in {
            2: (3, 4), 3: (6, 7), 4: (1,), 5: (3,), 6: (4,), 7: (6, 7)
        }.items():
            counts[expert, list(gpus)] = 1
        placement = Placement(counts, 4)
        # gpu 0 keeps both groups, 1 changes both, 2 changes only the
        # expand expert's, 5 changes only the shrink expert's.
        gpus = np.array([0, 1, 2, 5])
        for noise in (0.0, 0.02):
            cost_model = build_cost_model(noise=noise)
            memo = MemoizedStepCost(cost_model)
            delta = DeltaStepCost(cost_model, audit=True)
            assignment = rng.integers(1000, 30_000, (8, 8))
            delta.rebase(assignment, placement)
            times = delta.pair_candidate_times(placement, 0, 1, gpus)
            for time, gpu in zip(times, gpus):
                trial = placement.copy()
                trial.remove_vexpert(1, int(gpu))
                trial.add_vexpert(0, int(gpu))
                assert time == pytest.approx(
                    memo.step_time(assignment, trial), rel=RTOL
                )
            assert delta.fallbacks == 0

    def test_same_expert_rejected(self, cost_model, rng):
        delta = DeltaStepCost(cost_model)
        placement = Placement.balanced(8, 8, 4)
        delta.rebase(rng.integers(0, 1000, (8, 8)), placement)
        with pytest.raises(SchedulingError):
            delta.pair_candidate_times(placement, 3, 3, np.array([0]))


class TestExchangeSweep:
    def test_matches_applying_the_exchange(self, cost_model, rng):
        memo = MemoizedStepCost(cost_model)
        delta = DeltaStepCost(cost_model, audit=True)
        for _ in range(10):
            placement = random_placement(rng)
            assignment = rng.integers(0, 30_000, (8, 8))
            delta.rebase(assignment, placement)
            pairs = []
            for _ in range(6):
                ea = int(rng.integers(8))
                holders = placement.gpus_of(ea)
                ga = int(rng.choice(holders))
                gb = int(rng.integers(8))
                if gb == ga:
                    continue
                partners = [e for e in placement.experts_on(gb) if e != ea]
                if not partners:
                    continue
                pairs.append((ea, ga, int(rng.choice(partners)), gb))
            if not pairs:
                continue
            times = delta.exchange_candidate_times(
                placement, np.array(pairs)
            )
            for (ea, ga, eb, gb), time in zip(pairs, times):
                trial = placement.copy()
                Migrate(expert_a=ea, gpu_a=ga, expert_b=eb, gpu_b=gb).apply(
                    trial
                )
                assert time == pytest.approx(
                    memo.step_time(assignment, trial), rel=RTOL
                )
            assert delta.fallbacks == 0


class TestTrialTime:
    def test_matches_reference_through_the_journal(self, cost_model, rng):
        memo = MemoizedStepCost(cost_model)
        delta = DeltaStepCost(cost_model, audit=True)
        placement = random_placement(rng)
        assignment = rng.integers(0, 30_000, (8, 8))
        delta.rebase(assignment, placement)
        checked = 0
        for _ in range(20):
            e0, e1 = (int(e) for e in rng.choice(8, 2, replace=False))
            if placement.replicas(e1) <= 1:
                continue
            gpu = int(rng.choice(placement.gpus_of(e1)))
            with placement.trial() as trial:
                trial.remove_vexpert(e1, gpu)
                trial.add_vexpert(e0, gpu)
                incremental = delta.trial_time(trial, (e0, e1))
                reference = memo.step_time(assignment, trial)
            assert incremental == pytest.approx(reference, rel=RTOL)
            checked += 1
        assert checked > 0
        assert delta.fallbacks == 0

    def test_audit_catches_wrong_changed_set(self, cost_model, rng):
        delta = DeltaStepCost(cost_model, audit=True)
        placement = random_placement(rng)
        assignment = rng.integers(1000, 30_000, (8, 8))
        delta.rebase(assignment, placement)
        e1 = next(e for e in range(8) if placement.replicas(e) > 1)
        e0 = (e1 + 1) % 8
        gpu = placement.gpus_of(e1)[0]
        with placement.trial() as trial:
            trial.remove_vexpert(e1, gpu)
            trial.add_vexpert(e0, gpu)
            with pytest.raises(SchedulingError):
                # Claiming only e0 changed hides e1's mutation.
                delta.trial_time(trial, (e0,))


class TestProbeOrder:
    """Skipped and memoized pricing never reorders the noise stream."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bps_cache_matches_reference(self, seed):
        # 16 GPUs x 16 experts: enough distinct groups that one candidate
        # often meets two unprofiled groups, so a swapped probe order
        # would show up as swapped noise draws.
        model = MoEModelConfig(
            "probe", num_layers=2, d_model=256, d_ffn=1024, num_experts=16
        )
        topology = ClusterTopology(ClusterConfig(num_nodes=4, gpus_per_node=4))
        trace = DriftingRoutingGenerator(
            16,
            16,
            WorkloadConfig(
                tokens_per_step=16_384 * 16, num_steps=4, skew=1.3, seed=seed
            ),
        ).generate()
        caches, decisions = [], []
        for use_delta in (True, False):
            profile = Profiler(topology, noise=0.02, seed=seed).profile(model)
            cost_model = MoECostModel(profile, model)
            policy = PolicyMaker(cost_model, use_delta=use_delta)
            migration = MigrationPlanner(
                cost_model,
                topology,
                use_delta=use_delta,
                memo=policy.memo,
                delta=policy.delta if use_delta else None,
            )
            placement = Placement.balanced(16, 16, 3)
            log = []
            for step in range(trace.num_steps):
                assignment = trace.step(step)
                plan = policy.make_plan(assignment, placement)
                for action in plan.actions:
                    action.apply(placement)
                moves = migration.plan(assignment, placement)
                for move in moves:
                    move.apply(placement)
                log.append((plan.actions, tuple(moves)))
            decisions.append(log)
            caches.append(
                [(key, bps.hex()) for key, bps in profile._bps_cache.items()]
            )
        assert decisions[0] == decisions[1]
        assert any(actions or moves for actions, moves in decisions[0])
        assert len(caches[0]) > 100
        assert caches[0] == caches[1]


class TestFallbacks:
    def test_foreign_placement_counts_a_fallback(self, cost_model, rng):
        delta = DeltaStepCost(cost_model)
        placement = Placement.balanced(8, 8, 4)
        other = Placement.balanced(8, 8, 4)
        assignment = rng.integers(0, 10_000, (8, 8))
        delta.rebase(assignment, placement)
        gpus = np.array(other.gpus_of(1))
        delta.pair_candidate_times(other, 0, 1, gpus)
        assert delta.fallbacks == 1

    def test_cluster_state_change_falls_back_correctly(self, rng):
        state = ClusterState(8)
        cost_model = build_cost_model(state=state)
        memo = MemoizedStepCost(cost_model)
        delta = DeltaStepCost(cost_model)
        placement = Placement.balanced(8, 8, 4)
        assignment = rng.integers(0, 10_000, (8, 8))
        delta.rebase(assignment, placement)
        # A straggler appears mid-search: the cached base is stale.
        state.set_speed(3, 0.5)
        e1 = next(e for e in range(8) if placement.replicas(e) > 1)
        e0 = (e1 + 1) % 8
        with placement.trial() as trial:
            gpu = placement.gpus_of(e1)[0]
            trial.remove_vexpert(e1, gpu)
            trial.add_vexpert(e0, gpu)
            stale_safe = delta.trial_time(trial, (e0, e1))
            reference = memo.step_time(assignment, trial)
        assert delta.fallbacks == 1
        assert stale_safe == pytest.approx(reference, rel=RTOL)

    def test_speed_aware_pricing_matches_reference(self, rng):
        state = ClusterState(8)
        state.set_speed(1, 0.5)
        state.fail(2)
        cost_model = build_cost_model(state=state)
        memo = MemoizedStepCost(cost_model)
        delta = DeltaStepCost(cost_model, audit=True)
        placement = Placement.balanced(8, 8, 4)
        assignment = rng.integers(0, 10_000, (8, 8))
        base = delta.rebase(assignment, placement)
        assert base == pytest.approx(
            memo.step_time(assignment, placement), rel=RTOL
        )


EXACT_COST_MODEL = build_cost_model(noise=0.0)
EXACT_MEMO = MemoizedStepCost(EXACT_COST_MODEL)


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(st.integers(0, 50_000), min_size=64, max_size=64),
    slots=st.integers(2, 5),
    e0=st.integers(0, 7),
    e1=st.integers(0, 7),
)
def test_property_pair_sweep_matches_full_evaluation(data, slots, e0, e1):
    """Every (Shrink, Expand) candidate's delta time equals the full path."""
    if e0 == e1:
        return
    assignment = np.array(data, dtype=np.int64).reshape(8, 8)
    placement = Placement.balanced(8, 8, slots)
    if placement.replicas(e1) <= 1:
        return
    delta = DeltaStepCost(EXACT_COST_MODEL)
    delta.rebase(assignment, placement)
    gpus = np.array(placement.gpus_of(e1))
    times = delta.pair_candidate_times(placement, e0, e1, gpus)
    for i, gpu in enumerate(gpus):
        trial = placement.copy()
        trial.remove_vexpert(e1, int(gpu))
        trial.add_vexpert(e0, int(gpu))
        full = EXACT_MEMO.step_time(assignment, trial)
        assert times[i] == pytest.approx(full, rel=RTOL)

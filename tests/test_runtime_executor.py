"""Unit tests for the ground-truth step executor."""

import numpy as np
import pytest

from repro.cluster.groups import CommunicatorGroupCache
from repro.core.placement import Placement
from repro.core.router import FlexibleTokenRouter
from repro.exceptions import SimulationError
from repro.runtime.executor import StepExecutor


@pytest.fixture
def executor(topology, model_config) -> StepExecutor:
    return StepExecutor(topology, model_config, jitter=0.0, seed=0)


class TestRealOperations:
    def test_compute_linear_in_tokens(self, executor):
        assert executor.real_compute_time(2000, 0) == pytest.approx(
            2 * executor.real_compute_time(1000, 0)
        )

    def test_local_a2a_free(self, executor):
        traffic = np.zeros((8, 8))
        traffic[3, 3] = 1000
        assert executor.real_a2a_pass_time(traffic) == 0.0

    def test_allreduce_time_matches_collectives(self, executor, collectives, model_config):
        group = (0, 1, 4)
        assert executor.real_allreduce_time(
            model_config.expert_bytes, group
        ) == pytest.approx(
            collectives.allreduce_time(model_config.expert_bytes, group)
        )

    def test_jitter_perturbs_but_reproducibly(self, topology, model_config):
        a = StepExecutor(topology, model_config, jitter=0.05, seed=3)
        b = StepExecutor(topology, model_config, jitter=0.05, seed=3)
        exact = StepExecutor(topology, model_config, jitter=0.0)
        ta = a.real_compute_time(10_000, 0)
        tb = b.real_compute_time(10_000, 0)
        te = exact.real_compute_time(10_000, 0)
        assert ta == tb
        assert ta != te
        assert ta == pytest.approx(te, rel=0.3)


class TestExecute:
    def test_step_composition(self, executor, placement, assignment):
        plan = FlexibleTokenRouter().route(assignment, placement)
        timing = executor.execute(plan.traffic, placement)
        assert timing.step_time == pytest.approx(
            timing.a2a_time
            + timing.compute_time
            + timing.sync_time
            + timing.adjustment_blocking
        )
        assert timing.a2a_time > 0
        assert timing.compute_time > 0

    def test_no_replicas_no_sync(self, executor, model_config, topology):
        placement = Placement.expert_parallel(
            model_config.num_experts, topology.num_gpus
        )
        traffic = np.zeros((topology.num_gpus, topology.num_gpus))
        traffic[0, 0] = 100
        timing = executor.execute(traffic, placement)
        assert timing.sync_time == 0.0

    def test_replicated_placement_pays_sync(self, executor, placement):
        traffic = np.zeros((8, 8))
        timing = executor.execute(traffic, placement)
        assert timing.sync_time > 0  # balanced(8, 8, 2) replicates experts

    def test_adjustment_blocking_added(self, executor, placement, assignment):
        plan = FlexibleTokenRouter().route(assignment, placement)
        base = executor.execute(plan.traffic, placement)
        blocked = executor.execute(
            plan.traffic, placement, adjustment_blocking=0.5
        )
        assert blocked.step_time == pytest.approx(base.step_time + 0.5)

    def test_group_cache_charged_on_new_groups(self, topology, model_config, placement):
        cache = CommunicatorGroupCache(capacity=16, creation_cost=0.25)
        executor = StepExecutor(
            topology, model_config, jitter=0.0, group_cache=cache
        )
        traffic = np.zeros((8, 8))
        first = executor.execute(traffic, placement)
        second = executor.execute(traffic, placement)
        assert first.sync_time > second.sync_time  # creations amortized
        assert cache.stats.misses > 0
        assert cache.stats.hits > 0

    def test_utilization_bounds(self, executor, placement, assignment):
        plan = FlexibleTokenRouter().route(assignment, placement)
        timing = executor.execute(plan.traffic, placement)
        assert 0.0 <= timing.compute_utilization <= 1.0

    def test_validation(self, executor, placement):
        # A per-expert route tensor or a non-square matrix is not traffic.
        with pytest.raises(SimulationError):
            executor.execute(np.zeros((8, 8, 8)), placement)
        with pytest.raises(SimulationError):
            executor.execute(np.zeros((8, 4)), placement)
        with pytest.raises(SimulationError):
            executor.execute(
                np.zeros((8, 8)), placement, adjustment_blocking=-1
            )
        with pytest.raises(SimulationError):
            executor.real_compute_time(-5, 0)

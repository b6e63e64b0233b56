"""Unit tests for the Migrate planner."""

import numpy as np
import pytest

from repro.core.migration import MigrationPlanner
from repro.core.placement import Placement
from repro.core.primitives import Migrate
from repro.core.router import FlexibleTokenRouter
from repro.exceptions import SchedulingError


@pytest.fixture
def planner(cost_model, topology) -> MigrationPlanner:
    return MigrationPlanner(cost_model, topology, max_moves=3)


def scattered_placement() -> Placement:
    """Expert 0 replicated across both nodes; other experts single."""
    counts = np.zeros((8, 8), dtype=np.int64)
    for e in range(8):
        counts[e, e] = 1
    counts[0, 4] = 1  # cross-node replica of expert 0
    return Placement(counts, 2)


class TestPlanner:
    def test_no_moves_for_single_replica_placement(self, planner):
        placement = Placement.expert_parallel(8, 8)
        assignment = np.full((8, 8), 1000, dtype=np.int64)
        assert planner.plan(assignment, placement) == []

    def test_moves_strictly_improve_modelled_time(self, planner, cost_model):
        placement = scattered_placement()
        assignment = np.full((8, 8), 1000, dtype=np.int64)
        assignment[0] = 40_000
        router = FlexibleTokenRouter()

        def step_time(p):
            return cost_model.step_time(router.route_fractional(assignment, p), p)

        before = step_time(placement)
        moves = planner.plan(assignment, placement)
        trial = placement.copy()
        for move in moves:
            move.apply(trial)
        after = step_time(trial)
        if moves:
            assert after < before

    def test_returns_only_migrates(self, planner):
        placement = scattered_placement()
        assignment = np.full((8, 8), 1000, dtype=np.int64)
        assignment[0] = 40_000
        for move in planner.plan(assignment, placement):
            assert isinstance(move, Migrate)

    def test_respects_max_moves(self, cost_model, topology):
        planner = MigrationPlanner(cost_model, topology, max_moves=1)
        placement = scattered_placement()
        assignment = np.full((8, 8), 1000, dtype=np.int64)
        assignment[0] = 40_000
        assert len(planner.plan(assignment, placement)) <= 1

    def test_does_not_mutate_input_placement(self, planner):
        placement = scattered_placement()
        signature = placement.signature()
        assignment = np.full((8, 8), 1000, dtype=np.int64)
        assignment[0] = 40_000
        planner.plan(assignment, placement)
        assert placement.signature() == signature

    def test_zero_moves_allowed(self, cost_model, topology):
        planner = MigrationPlanner(cost_model, topology, max_moves=0)
        placement = scattered_placement()
        assignment = np.full((8, 8), 1000, dtype=np.int64)
        assert planner.plan(assignment, placement) == []

    def test_validation(self, cost_model, topology):
        with pytest.raises(SchedulingError):
            MigrationPlanner(cost_model, topology, max_moves=-1)
        with pytest.raises(SchedulingError):
            MigrationPlanner(cost_model, topology, max_candidates=0)

    def test_total_sync_time_helper(self, planner):
        single = Placement.expert_parallel(8, 8)
        assert planner.total_sync_time(single) == 0.0
        assert planner.total_sync_time(scattered_placement()) > 0.0

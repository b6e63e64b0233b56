"""Unit tests for flexible token routing (Algorithm 3)."""

import numpy as np
import pytest

from repro.core.placement import Placement
from repro.core.router import FlexibleTokenRouter, validate_conservation
from repro.exceptions import RoutingError
from routing_oracle import dense_routes


@pytest.fixture
def router() -> FlexibleTokenRouter:
    return FlexibleTokenRouter()


class TestConservation:
    def test_every_token_routed_once(self, router, rng):
        placement = Placement.balanced(8, 4, 2)
        assignment = rng.integers(0, 500, (8, 4))
        plan = router.route(assignment, placement)
        validate_conservation(assignment, plan)

    def test_zero_assignment(self, router):
        placement = Placement.balanced(4, 4, 2)
        plan = router.route(np.zeros((4, 4), dtype=int), placement)
        assert dense_routes(plan).sum() == 0
        assert plan.locality_fraction == 1.0


class TestLocalityFirst:
    def test_local_tokens_stay_when_capacity_allows(self, router):
        # Expert 0 on every GPU: all tokens route locally.
        counts = np.ones((1, 4), dtype=np.int64)
        placement = Placement(counts, 1)
        assignment = np.array([[10, 10, 10, 10]])
        plan = router.route(assignment, placement)
        assert plan.locality_fraction == 1.0

    def test_spill_goes_remote(self, router):
        # Expert 0 only on GPU 0: GPU 1's tokens must travel.
        counts = np.array([[1, 0], [0, 1]], dtype=np.int64)
        placement = Placement(counts, 1)
        assignment = np.array([[4, 6], [0, 0]])
        plan = router.route(assignment, placement)
        assert dense_routes(plan)[0, 1, 0] == 6
        assert dense_routes(plan)[0, 0, 0] == 4


class TestCapacity:
    def test_per_vexpert_capacity_respected(self, router):
        # Expert 0: 2 replicas; 100 tokens -> cap 50 per replica.
        counts = np.array([[1, 1], [1, 1]], dtype=np.int64)
        placement = Placement(counts, 2)
        assignment = np.array([[100, 0], [0, 0]])
        plan = router.route(assignment, placement)
        arrivals = plan.arrivals[0]
        assert arrivals.max() <= 50
        assert plan.capacities[0] == 50

    def test_packed_replicas_get_double_share(self, router):
        counts = np.array([[2, 1]], dtype=np.int64)
        placement = Placement(counts, 2)
        assignment = np.array([[0, 90]])
        plan = router.route(assignment, placement)
        # cap = 30; GPU 0 holds 2 vExperts -> up to 60; GPU 1 keeps 30 local.
        assert plan.arrivals[0, 1] == 30
        assert plan.arrivals[0, 0] == 60

    def test_proportional_spill(self, router):
        # Source GPU 2 spills to GPUs 0 and 1 proportional to availability.
        counts = np.array([[2, 1, 0]], dtype=np.int64)
        placement = Placement(counts, 2)
        assignment = np.array([[0, 0, 90]])
        plan = router.route(assignment, placement)
        assert dense_routes(plan)[0, 2, 0] == 60
        assert dense_routes(plan)[0, 2, 1] == 30


class TestValidation:
    def test_shape_mismatch(self, router, placement):
        with pytest.raises(RoutingError):
            router.route(np.zeros((3, 3), dtype=int), placement)

    def test_negative_counts(self, router):
        placement = Placement.balanced(2, 2, 1)
        with pytest.raises(RoutingError):
            router.route(np.array([[-1, 0], [0, 0]]), placement)

    def test_conservation_checker_catches_loss(self, router):
        placement = Placement.balanced(2, 2, 1)
        assignment = np.array([[5, 5], [0, 0]])
        plan = router.route(assignment, placement)
        tampered = np.array([[6, 5], [0, 0]])
        with pytest.raises(RoutingError):
            validate_conservation(tampered, plan)


class TestFractionalRelaxation:
    def test_conserves_tokens(self, router, rng):
        placement = Placement.balanced(8, 4, 2)
        assignment = rng.integers(0, 500, (8, 4))
        routes = router.route_fractional(assignment, placement)
        assert np.allclose(routes.sum(axis=2), assignment)

    def test_close_to_integer_routing(self, router, rng):
        placement = Placement.balanced(8, 4, 3)
        assignment = rng.integers(0, 2000, (8, 4))
        integer = router.route(assignment, placement)
        frac = router.route_fractional(assignment, placement)
        per_gpu_diff = np.abs(
            integer.gpu_loads - frac.sum(axis=(0, 1))
        )
        assert per_gpu_diff.max() <= 8  # rounding differences only

    def test_capacity_never_exceeded_fractionally(self, router):
        counts = np.array([[1, 1]], dtype=np.int64)
        placement = Placement(counts, 1)
        assignment = np.array([[100, 0]])
        routes = router.route_fractional(assignment, placement)
        arrivals = routes.sum(axis=1)[0]
        assert arrivals.max() <= 50 + 1e-9


class TestPlanProperties:
    def test_gpu_loads_match_arrivals(self, router, rng):
        placement = Placement.balanced(8, 4, 2)
        assignment = rng.integers(0, 300, (8, 4))
        plan = router.route(assignment, placement)
        assert np.array_equal(plan.gpu_loads, plan.arrivals.sum(axis=0))

    def test_tokens_for(self, router):
        placement = Placement.balanced(2, 2, 1)
        assignment = np.array([[5, 3], [2, 2]])
        plan = router.route(assignment, placement)
        assert plan.tokens_for(0) == 8
        assert plan.tokens_for(1) == 4

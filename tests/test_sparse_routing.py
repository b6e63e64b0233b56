"""Sparse routing end to end: plan form, dense oracles, conservation.

``FlexibleTokenRouter.route`` emits a sparse plan (local tokens, spill rows,
the ``(src, dst)`` traffic matrix) and the executors consume only the
traffic matrix. Both must reproduce the dense forms they replaced bit for
bit: the router against the dense floor pass and northwest-corner fill
(``routing_oracle.dense_flexible_route``), the executors against the dense
per-pass sums (``routing_oracle.DenseStepExecutor``) on the same jitter
seed.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.groups import CommunicatorGroupCache
from repro.core.placement import Placement
from repro.core.router import (
    DST,
    SRC,
    TOKENS,
    FlexibleTokenRouter,
    ReferenceTokenRouter,
    RoutingPlan,
    validate_conservation,
)
from repro.exceptions import RoutingError
from repro.runtime.executor import PipelinedStepExecutor, StepExecutor
from routing_oracle import (
    DensePipelinedStepExecutor,
    DenseStepExecutor,
    dense_flexible_route,
    dense_routes,
)

ROUTER = FlexibleTokenRouter()


@st.composite
def routing_cases(draw):
    """A random placement (single-replica experts and packed replicas
    included) and an assignment shaped by one of four modes: dense,
    zero-demand experts, every token on one expert, or no tokens."""
    num_gpus = draw(st.integers(1, 20))
    num_experts = draw(st.integers(1, 10))
    counts = np.zeros((num_experts, num_gpus), dtype=np.int64)
    for expert in range(num_experts):
        hosts = draw(
            st.lists(
                st.integers(0, num_gpus - 1),
                min_size=1,
                max_size=min(4, 2 * num_gpus),
            )
        )
        for gpu in hosts:
            counts[expert, gpu] += 1
    placement = Placement(counts, int(counts.sum(axis=0).max()))
    flat = draw(
        st.lists(
            st.integers(0, 5000),
            min_size=num_experts * num_gpus,
            max_size=num_experts * num_gpus,
        )
    )
    assignment = np.array(flat, dtype=np.int64).reshape(num_experts, num_gpus)
    mode = draw(st.sampled_from(["dense", "zero_experts", "one_expert", "empty"]))
    if mode == "zero_experts":
        zeroed = draw(
            st.lists(st.booleans(), min_size=num_experts, max_size=num_experts)
        )
        assignment[np.array(zeroed)] = 0
    elif mode == "one_expert":
        hot = draw(st.integers(0, num_experts - 1))
        keep = assignment[hot].copy()
        assignment[:] = 0
        assignment[hot] = keep
    elif mode == "empty":
        assignment[:] = 0
    return assignment, placement


def assert_matches_dense_oracle(assignment, placement):
    plan = ROUTER.route(assignment, placement)
    routes, capacities = dense_flexible_route(assignment, placement)
    np.testing.assert_array_equal(dense_routes(plan), routes)
    np.testing.assert_array_equal(plan.capacities, capacities)
    np.testing.assert_array_equal(plan.traffic, routes.sum(axis=0))
    np.testing.assert_array_equal(plan.gpu_loads, routes.sum(axis=(0, 1)))
    np.testing.assert_array_equal(plan.arrivals, routes.sum(axis=1))
    total = routes.sum()
    expected_locality = (
        1.0 if total == 0 else float(np.trace(routes.sum(axis=0)) / total)
    )
    assert plan.locality_fraction == expected_locality
    for expert in range(placement.num_experts):
        assert plan.tokens_for(expert) == int(routes[expert].sum())
    # Spill rows: strictly increasing (expert, src, dst), i.e. sorted and
    # unique, all remote and non-empty.
    keys = plan.spill[:, :3]
    assert (np.diff(keys[:, 0] * 10**6 + keys[:, 1] * 10**3 + keys[:, 2]) > 0).all()
    assert (plan.spill[:, SRC] != plan.spill[:, DST]).all()
    assert (plan.spill[:, TOKENS] > 0).all()
    validate_conservation(assignment, plan)
    return plan


@settings(max_examples=150, deadline=None)
@given(case=routing_cases())
def test_sparse_plan_equals_dense_oracle(case):
    assert_matches_dense_oracle(*case)


class TestOracleEdgeCases:
    """The property's edge inputs, pinned so every run covers them."""

    def test_zero_demand_experts(self, rng):
        placement = Placement.balanced(8, 4, 2)
        assignment = rng.integers(0, 500, (8, 4))
        assignment[[1, 4, 6]] = 0
        plan = assert_matches_dense_oracle(assignment, placement)
        assert plan.capacities[[1, 4, 6]].tolist() == [0, 0, 0]

    def test_single_replica_experts(self, rng):
        placement = Placement.expert_parallel(8, 8)
        assignment = rng.integers(0, 500, (8, 8))
        plan = assert_matches_dense_oracle(assignment, placement)
        assert plan.spill.shape[0] > 0

    def test_all_tokens_on_one_expert(self, rng):
        placement = Placement.balanced(6, 4, 3)
        assignment = np.zeros((6, 4), dtype=np.int64)
        assignment[2] = rng.integers(100, 900, 4)
        assert_matches_dense_oracle(assignment, placement)

    def test_single_gpu(self):
        placement = Placement.balanced(3, 1, 3)
        plan = assert_matches_dense_oracle(np.array([[7], [0], [5]]), placement)
        assert plan.spill.shape == (0, 4)
        assert plan.traffic.tolist() == [[12]]

    def test_empty_step(self):
        placement = Placement.balanced(4, 4, 2)
        plan = assert_matches_dense_oracle(np.zeros((4, 4), int), placement)
        assert plan.traffic.sum() == 0
        assert plan.locality_fraction == 1.0

    def test_skewed_large_cluster(self, rng):
        # Padding matters here: experts differ in spilling sources and
        # slack destinations, so compacted rows/columns are zero-padded.
        placement = Placement.balanced(24, 32, 2)
        assignment = np.zeros((24, 32), dtype=np.int64)
        assignment[:4] = rng.integers(0, 4000, (4, 32))
        assignment[4:] = rng.integers(0, 40, (20, 32))
        assert_matches_dense_oracle(assignment, placement)


class TestReferenceRouterPlan:
    def test_returns_sparse_plan_with_same_aggregates(self, rng):
        placement = Placement.balanced(8, 6, 3)
        assignment = rng.integers(0, 2000, (8, 6))
        ref = ReferenceTokenRouter().route(assignment, placement)
        fast = ROUTER.route(assignment, placement)
        assert isinstance(ref, RoutingPlan)
        validate_conservation(assignment, ref)
        np.testing.assert_array_equal(ref.local, fast.local)
        np.testing.assert_array_equal(ref.capacities, fast.capacities)
        assert ref.locality_fraction == fast.locality_fraction
        np.testing.assert_array_equal(
            ref.traffic, dense_routes(ref).sum(axis=0)
        )


def _spilling_case():
    # Every expert lives on one GPU of four: three sources spill each.
    placement = Placement.expert_parallel(4, 4)
    assignment = np.array(
        [[50, 40, 30, 20], [10, 60, 20, 30], [25, 35, 45, 15], [5, 5, 5, 85]]
    )
    plan = ROUTER.route(assignment, placement)
    assert plan.spill.shape[0] >= 3
    return assignment, plan


class TestConservationCheck:
    def test_router_plan_passes(self):
        assignment, plan = _spilling_case()
        validate_conservation(assignment, plan)

    def test_dropped_spill_row_raises(self):
        assignment, plan = _spilling_case()
        doctored = dataclasses.replace(plan, spill=plan.spill[1:])
        with pytest.raises(RoutingError, match="conservation"):
            validate_conservation(assignment, doctored)

    def test_dropped_spill_token_raises(self):
        assignment, plan = _spilling_case()
        spill = plan.spill.copy()
        spill[0, TOKENS] -= 1
        doctored = dataclasses.replace(plan, spill=spill)
        with pytest.raises(RoutingError, match="conservation"):
            validate_conservation(assignment, doctored)

    def test_duplicated_spill_token_raises(self):
        assignment, plan = _spilling_case()
        spill = plan.spill.copy()
        spill[-1, TOKENS] += 1
        doctored = dataclasses.replace(plan, spill=spill)
        with pytest.raises(RoutingError, match="conservation"):
            validate_conservation(assignment, doctored)

    def test_duplicated_spill_row_raises(self):
        assignment, plan = _spilling_case()
        spill = np.concatenate([plan.spill, plan.spill[:1]])
        doctored = dataclasses.replace(plan, spill=spill)
        with pytest.raises(RoutingError, match="conservation"):
            validate_conservation(assignment, doctored)

    def test_spill_moved_to_another_source_raises(self):
        assignment, plan = _spilling_case()
        spill = plan.spill.copy()
        row = spill[0]
        other = next(
            g for g in range(4) if g not in (row[SRC], row[DST])
        )
        spill[0, SRC] = other
        doctored = dataclasses.replace(plan, spill=spill)
        with pytest.raises(RoutingError, match="conservation"):
            validate_conservation(assignment, doctored)

    def test_local_token_dropped_raises(self):
        assignment, plan = _spilling_case()
        local = plan.local.copy()
        local[0, 0] -= 1
        doctored = dataclasses.replace(plan, local=local)
        with pytest.raises(RoutingError, match="conservation"):
            validate_conservation(assignment, doctored)

    def test_empty_or_local_spill_row_raises(self):
        assignment, plan = _spilling_case()
        for column, value in ((TOKENS, 0), (DST, None)):
            spill = plan.spill.copy()
            spill[0, column] = spill[0, SRC] if value is None else value
            doctored = dataclasses.replace(plan, spill=spill)
            with pytest.raises(RoutingError, match="positive token count"):
                validate_conservation(assignment, doctored)

    def test_traffic_disagreeing_with_flows_raises(self):
        assignment, plan = _spilling_case()
        plan.traffic[0, 1] += 1
        with pytest.raises(RoutingError, match="traffic"):
            validate_conservation(assignment, plan)


def assert_timings_identical(new, old):
    for field in dataclasses.fields(new):
        a, b = getattr(new, field.name), getattr(old, field.name)
        if isinstance(a, np.ndarray):
            np.testing.assert_array_equal(a, b)
        elif isinstance(a, tuple):
            assert len(a) == len(b)
            for x, y in zip(a, b):
                assert_timings_identical(x, y)
        else:
            assert a == b, field.name


def _plans(placement, num_experts, num_gpus, steps, seed):
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        skew = rng.zipf(1.5, num_experts).astype(float)
        assignment = (
            rng.integers(0, 400, (num_experts, num_gpus)) * skew[:, None]
        ).astype(np.int64)
        yield ROUTER.route(assignment, placement)


class TestExecutorMatchesDenseExecutor:
    @pytest.mark.parametrize("inference", [False, True])
    def test_step_timings_identical(self, topology, model_config, inference):
        placement = Placement.balanced(8, topology.num_gpus, 2)

        def build(cls):
            return cls(
                topology,
                model_config,
                jitter=0.05,
                seed=11,
                group_cache=CommunicatorGroupCache(capacity=4, creation_cost=0.1),
                inference=inference,
            )

        new, old = build(StepExecutor), build(DenseStepExecutor)
        for plan in _plans(placement, 8, topology.num_gpus, 12, seed=5):
            assert_timings_identical(
                new.execute(plan.traffic, placement, adjustment_blocking=0.25),
                old.execute(dense_routes(plan), placement, 0.25),
            )
            assert new.real_a2a_pass_time(plan.traffic) == old.real_a2a_pass_time(
                dense_routes(plan)
            )

    @pytest.mark.parametrize("inference", [False, True])
    def test_pipelined_step_timings_identical(
        self, topology, model_config, inference
    ):
        layers = 3
        placements = [
            Placement.balanced(8, topology.num_gpus, 2),
            Placement.expert_parallel(8, topology.num_gpus),
            Placement.balanced(8, topology.num_gpus, 3),
        ]

        def build(executor_cls, pipe_cls):
            executor = executor_cls(
                topology, model_config, jitter=0.03, seed=2, inference=inference
            )
            return pipe_cls(executor, num_moe_layers=layers, overlap_efficiency=0.7)

        new = build(StepExecutor, PipelinedStepExecutor)
        old = build(DenseStepExecutor, DensePipelinedStepExecutor)
        streams = [
            list(_plans(p, 8, topology.num_gpus, 6, seed=20 + i))
            for i, p in enumerate(placements)
        ]
        for step_plans in zip(*streams):
            assert_timings_identical(
                new.execute([p.traffic for p in step_plans], placements, 0.1),
                old.execute([dense_routes(p) for p in step_plans], placements, 0.1),
            )

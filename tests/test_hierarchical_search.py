"""Hierarchical two-level placement search vs the flat reference.

The datacenter-scale sweep (``python -m repro scale``) relies on two
contracts the tests here pin down at unit scale:

* At small clusters the hierarchical mode must be a drop-in for the flat
  sweep: identical decisions, or a final modelled step time within the
  bench suite's quality epsilon.
* Escalation is a *superset* search: the intra-node phase's best
  candidate is carried into the cross-cluster sweep as the bar, so the
  returned move can never be worse than any intra-node candidate — the
  short-circuit can only ever skip work, not skip quality.

The node-blocked :class:`~repro.cluster.bandwidth.BandwidthModel` that
makes the hierarchical sweep O(G) per row is covered here too: every
query of the implicit three-class representation must agree with the
explicit dense matrix it replaces.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.bandwidth import BandwidthModel
from repro.cluster.profiler import Profiler
from repro.cluster.topology import ClusterTopology
from repro.config import (
    ClusterConfig,
    HIERARCHICAL_AUTO_THRESHOLD,
    MoEModelConfig,
    WorkloadConfig,
    auto_slots_per_gpu,
    resolve_placement_search,
)
from repro.core.cost_model import MoECostModel
from repro.core.migration import MigrationPlanner
from repro.core.placement import Placement
from repro.core.policy import PolicyMaker
from repro.core.primitives import Migrate
from repro.workload.synthetic import DriftingRoutingGenerator

QUALITY_RTOL = 0.05


def _replay(cost_model, topology, trace, slots, placement_search):
    """Mirror of the scale bench's planner replay: policy + migrate per
    step, decisions applied, final configuration priced via the delta
    evaluator."""
    num_experts = cost_model.model.num_experts
    policy = PolicyMaker(
        cost_model,
        use_delta=True,
        topology=topology,
        placement_search=placement_search,
    )
    migration = MigrationPlanner(
        cost_model,
        topology,
        use_delta=True,
        memo=policy.memo,
        placement_search=placement_search,
        delta=policy.delta,
    )
    placement = Placement.balanced(num_experts, topology.num_gpus, slots)
    decisions = []
    for step in range(trace.num_steps):
        assignment = trace.step(step)
        decision = policy.make_plan(assignment, placement)
        for action in decision.actions:
            action.apply(placement)
        moves = migration.plan(assignment, placement)
        for move in moves:
            move.apply(placement)
        decisions.append((decision.actions, tuple(moves)))
    final = float(
        policy.delta.rebase(trace.step(trace.num_steps - 1), placement)
    )
    return decisions, final, int(policy.delta.fallbacks)


class TestSmallScaleEquivalence:
    """At <= 64 devices hierarchical must be a drop-in for flat."""

    @pytest.mark.parametrize("num_nodes,gpus_per_node", [(2, 4), (4, 8)])
    def test_decisions_match_or_quality_within_epsilon(
        self, num_nodes, gpus_per_node
    ):
        num_gpus = num_nodes * gpus_per_node
        num_experts = 2 * num_gpus
        topology = ClusterTopology(
            ClusterConfig(num_nodes=num_nodes, gpus_per_node=gpus_per_node)
        )
        model = MoEModelConfig(
            name=f"hier-{num_gpus}g",
            num_layers=2,
            d_model=512,
            d_ffn=2048,
            num_experts=num_experts,
        )
        profile = Profiler(topology, noise=0.02, seed=0).profile(model)
        cost_model = MoECostModel(profile, model)
        trace = DriftingRoutingGenerator(
            num_experts,
            num_gpus,
            WorkloadConfig(
                tokens_per_step=4096 * num_gpus,
                num_steps=6,
                skew=1.3,
                seed=0,
            ),
        ).generate()
        slots = auto_slots_per_gpu(num_experts, num_gpus)
        flat, flat_time, flat_fb = _replay(
            cost_model, topology, trace, slots, "flat"
        )
        hier, hier_time, hier_fb = _replay(
            cost_model, topology, trace, slots, "hierarchical"
        )
        assert flat_fb == 0 and hier_fb == 0
        assert flat == hier or hier_time <= flat_time * (1.0 + QUALITY_RTOL)

    def test_auto_resolution_respects_threshold(self):
        assert resolve_placement_search(HIERARCHICAL_AUTO_THRESHOLD) == "flat"
        assert (
            resolve_placement_search(HIERARCHICAL_AUTO_THRESHOLD + 1)
            == "hierarchical"
        )
        assert resolve_placement_search(4096, "flat") == "flat"
        assert resolve_placement_search(8, "hierarchical") == "hierarchical"


def _perturbed_placement(rng, num_experts, num_gpus, slots):
    """A legal placement a few random exchanges away from balanced."""
    placement = Placement.balanced(num_experts, num_gpus, slots)
    for _ in range(rng.integers(0, 6)):
        counts = placement.counts_view
        src, dst = rng.choice(num_gpus, size=2, replace=False)
        on_src = np.flatnonzero(counts[:, src])
        on_dst = np.flatnonzero(counts[:, dst])
        expert = int(rng.choice(on_src))
        partner = int(rng.choice(on_dst))
        if expert == partner:
            continue
        Migrate(
            expert_a=expert, gpu_a=int(src), expert_b=partner, gpu_b=int(dst)
        ).apply(placement)
    return placement


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_escalation_never_skips_viable_intra_candidate(seed):
    """The returned move is never worse than ANY intra-node candidate.

    The intra-node phase's best is carried into the cross-cluster sweep
    as the bar, so whatever ``_best_move`` returns must price at or below
    the full intra-node pool's minimum; and when it returns ``None``, no
    intra-node candidate can improve on the baseline.
    """
    rng = np.random.default_rng(seed)
    num_experts, num_gpus, slots = 8, 8, 2
    topology = ClusterTopology(ClusterConfig(num_nodes=2, gpus_per_node=4))
    model = MoEModelConfig(
        name="hier-prop",
        num_layers=2,
        d_model=256,
        d_ffn=1024,
        num_experts=num_experts,
    )
    profile = Profiler(topology, noise=0.0, seed=0).profile(model)
    cost_model = MoECostModel(profile, model)
    planner = MigrationPlanner(
        cost_model, topology, use_delta=True,
        placement_search="hierarchical",
    )
    placement = _perturbed_placement(rng, num_experts, num_gpus, slots)
    assignment = rng.integers(
        0, 5000, size=(num_experts, num_gpus)
    ).astype(np.int64)

    baseline = planner._delta.rebase(assignment, placement)
    per_replica = planner._per_replica_loads(assignment, placement)
    gpu_loads = planner._weighted_gpu_loads(per_replica, placement)
    sources = planner._candidate_sources(per_replica, placement, gpu_loads)
    intra_pool = planner._expand_exchanges(
        placement,
        [
            (
                expert,
                src,
                planner._node_targets(placement, gpu_loads, expert, src),
            )
            for expert, src in sources
        ],
    )
    best_intra = float("inf")
    if intra_pool:
        pairs = np.array(
            [(a.expert_a, a.gpu_a, a.expert_b, a.gpu_b) for a in intra_pool]
        )
        best_intra = float(
            planner._delta.exchange_candidate_times(placement, pairs).min()
        )

    move = planner._best_move(assignment, placement)
    if move is None:
        assert best_intra >= baseline - 1e-12
    else:
        pair = np.array(
            [[move.expert_a, move.gpu_a, move.expert_b, move.gpu_b]]
        )
        move_time = float(
            planner._delta.exchange_candidate_times(placement, pair)[0]
        )
        assert move_time <= best_intra + 1e-9
        assert move_time <= baseline - 1e-12


class TestBandwidthModelEquivalence:
    """The implicit three-class model must agree with its dense view."""

    @pytest.fixture
    def blocked(self) -> BandwidthModel:
        return BandwidthModel.blocked(
            num_nodes=3, gpus_per_node=4,
            local=400e9, intra=150e9, inter=25e9,
        )

    @pytest.fixture
    def dense(self, blocked: BandwidthModel) -> BandwidthModel:
        return BandwidthModel.from_dense(blocked.dense())

    def test_links_match_everywhere(self, blocked, dense):
        for src in range(blocked.num_gpus):
            for dst in range(blocked.num_gpus):
                assert blocked.link(src, dst) == dense.link(src, dst)

    def test_submatrix_matches(self, blocked, dense):
        rng = np.random.default_rng(0)
        rows = rng.choice(blocked.num_gpus, size=5, replace=False)
        cols = rng.choice(blocked.num_gpus, size=7, replace=True)
        np.testing.assert_array_equal(
            blocked.submatrix(rows, cols), dense.submatrix(rows, cols)
        )

    def test_inv_diag_matches(self, blocked, dense):
        np.testing.assert_allclose(
            blocked.inv_diag(), dense.inv_diag(), rtol=1e-15
        )

    def test_inv_offdiag_apply_matches(self, blocked, dense):
        rng = np.random.default_rng(1)
        spill = rng.uniform(0.0, 1e6, size=(6, blocked.num_gpus))
        np.testing.assert_allclose(
            blocked.inv_offdiag_apply(spill),
            dense.inv_offdiag_apply(spill),
            rtol=1e-12,
        )
        row = spill[0]
        np.testing.assert_allclose(
            blocked.inv_offdiag_apply(row),
            dense.inv_offdiag_apply(row),
            rtol=1e-12,
        )

    def test_ring_links_match(self):
        """The ring cost's node arithmetic on the blocked fabric equals
        the off-diagonal matrix minimum of the same fabric wrapped dense
        (unit NIC scales force the dense wrap)."""
        config = ClusterConfig(
            num_nodes=3, gpus_per_node=4,
            intra_node_bandwidth=150e9, inter_node_bandwidth=25e9,
        )
        blocked = ClusterTopology(config)
        dense = ClusterTopology(
            dataclasses.replace(config, bandwidth_scales=(1.0,) * 12)
        )
        assert blocked.bandwidth_model().is_blocked
        assert not dense.bandwidth_model().is_blocked
        rng = np.random.default_rng(2)
        for size in (2, 3, 6, 12):
            for _ in range(5):
                group = sorted(
                    int(g) for g in rng.choice(12, size=size, replace=False)
                )
                assert blocked.ring_links(group) == dense.ring_links(group)
        # Intra-only, inter-only and mixed rings.
        assert blocked.ring_links([0, 1]) == (150e9, config.intra_node_latency)
        assert blocked.ring_links([0, 4, 8]) == (
            25e9, config.inter_node_latency
        )
        assert blocked.ring_links([0, 1, 4]) == (
            25e9, config.inter_node_latency
        )

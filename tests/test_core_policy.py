"""Unit tests for the Policy Maker (Algorithm 2)."""

import numpy as np
import pytest

from repro.core.placement import Placement
from repro.core.policy import PolicyMaker
from repro.core.primitives import Expand, Shrink
from repro.exceptions import SchedulingError


@pytest.fixture
def policy(cost_model) -> PolicyMaker:
    return PolicyMaker(cost_model)


def skewed_assignment(num_experts=8, num_gpus=8, hot_tokens=400_000):
    """One dominant expert, everyone else light."""
    assignment = np.full((num_experts, num_gpus), 1000, dtype=np.int64)
    assignment[0, :] = hot_tokens // num_gpus
    return assignment


def replicated_expert_placement() -> Placement:
    """Expert ``g`` on GPU ``g``, plus expert 0 on GPUs 1 and 5 (2 x 4
    cluster: GPUs 0-3 on node 0, 4-7 on node 1)."""
    counts = np.eye(8, dtype=np.int64)
    counts[0, [1, 5]] = 1
    return Placement(counts, 2)


class TestMakePlan:
    def test_proposes_pair_for_skewed_load(self, policy):
        placement = Placement.balanced(8, 8, 2)
        decision = policy.make_plan(skewed_assignment(), placement)
        assert decision.beneficial
        kinds = {type(a) for a in decision.actions}
        assert kinds == {Expand, Shrink}

    def test_expands_the_hot_expert(self, policy):
        placement = Placement.balanced(8, 8, 2)
        decision = policy.make_plan(skewed_assignment(), placement)
        expands = [a for a in decision.actions if isinstance(a, Expand)]
        assert expands[0].expert == 0

    def test_plan_strictly_improves_modelled_time(self, policy):
        placement = Placement.balanced(8, 8, 2)
        decision = policy.make_plan(skewed_assignment(), placement)
        assert decision.time_after < decision.time_before

    def test_balanced_load_yields_empty_plan(self, policy):
        placement = Placement.balanced(8, 8, 2)
        assignment = np.full((8, 8), 5000, dtype=np.int64)
        decision = policy.make_plan(assignment, placement)
        assert not decision.beneficial
        assert decision.actions == ()

    def test_applying_plan_reduces_estimate(self, policy):
        placement = Placement.balanced(8, 8, 2)
        assignment = skewed_assignment()
        before = policy.estimate_step_time(assignment, placement)
        decision = policy.make_plan(assignment, placement)
        for action in decision.actions:
            action.apply(placement)
        after = policy.estimate_step_time(assignment, placement)
        assert after < before

    def test_never_orphans_an_expert(self, policy):
        placement = Placement.balanced(8, 8, 2)
        assignment = skewed_assignment()
        for _ in range(20):
            decision = policy.make_plan(assignment, placement)
            if not decision.beneficial:
                break
            for action in decision.actions:
                action.apply(placement)
            placement.validate()
        assert (placement.replica_counts() >= 1).all()

    def test_expand_source_prefers_packing(self, policy):
        placement = Placement.balanced(4, 4, 2)
        target = placement.gpus_of(0)[0]
        sources, seconds = policy._expand_sources_batch(
            placement, 0, np.array([target])
        )
        assert sources[0] == target
        assert seconds[0] == 0.0

    def test_expand_source_takes_highest_bandwidth_holder(
        self, policy, cost_model
    ):
        # Expert 0 on GPUs 0, 1 (node 0) and 5 (node 1): GPU 6 copies from
        # its NVLink peer 5, not from the first (cross-node) holder.
        placement = replicated_expert_placement()
        profile = cost_model.profile
        assert profile.link_bandwidth(5, 6) > profile.link_bandwidth(0, 6)
        sources, _ = policy._expand_sources_batch(placement, 0, np.array([6]))
        assert sources[0] == 5

    def test_expand_source_bandwidth_tie_goes_to_first_holder(
        self, policy, cost_model
    ):
        # GPUs 0 and 1 reach GPU 2 over identical intra-node links.
        placement = replicated_expert_placement()
        profile = cost_model.profile
        assert profile.link_bandwidth(0, 2) == profile.link_bandwidth(1, 2)
        sources, _ = policy._expand_sources_batch(placement, 0, np.array([2]))
        assert sources[0] == 0

    def test_expand_source_seconds_match_adjustment_cost(
        self, policy, cost_model
    ):
        placement = replicated_expert_placement()
        targets = np.arange(8)
        sources, seconds = policy._expand_sources_batch(placement, 0, targets)
        for target, source, charged in zip(targets, sources, seconds):
            shrink = Shrink(expert=int(target), gpu=int(target))
            expand = Expand(
                expert=0, gpu=int(target), source_gpu=int(source)
            )
            assert charged == pytest.approx(
                cost_model.adjustment_cost([shrink, expand]), rel=1e-12
            )
        assert seconds[[0, 1, 5]].tolist() == [0.0, 0.0, 0.0]  # packing
        assert (seconds[[2, 3, 4, 6, 7]] > 0).all()

    def test_hierarchical_search_needs_topology(self, cost_model, topology):
        with pytest.raises(SchedulingError, match="topology"):
            PolicyMaker(cost_model, placement_search="hierarchical")
        PolicyMaker(
            cost_model, placement_search="hierarchical", topology=topology
        )
        # "auto" resolves without a topology and stays flat.
        assert not PolicyMaker(cost_model, placement_search="auto")._hierarchical

    def test_adjustment_horizon_validation(self, cost_model):
        with pytest.raises(SchedulingError):
            PolicyMaker(cost_model, adjustment_horizon=-1)
        with pytest.raises(SchedulingError):
            PolicyMaker(cost_model, expand_candidates=0)

    def test_zero_horizon_ignores_adjustment_cost(self, cost_model):
        policy = PolicyMaker(cost_model, adjustment_horizon=0)
        placement = Placement.balanced(8, 8, 2)
        decision = policy.make_plan(skewed_assignment(), placement)
        assert decision.beneficial

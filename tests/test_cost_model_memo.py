"""Cost-model memoization: cached evaluations must equal uncached ones."""

import numpy as np
import pytest
from search_oracle import ReferencePolicyMaker

from repro.cluster.profiler import Profiler
from repro.cluster.topology import ClusterTopology
from repro.config import ClusterConfig, MoEModelConfig
from repro.core.cost_model import MemoizedStepCost, MoECostModel
from repro.core.placement import Placement
from repro.core.policy import PolicyMaker
from repro.core.router import FlexibleTokenRouter
from repro.exceptions import ConfigurationError

MODEL = MoEModelConfig("memo", num_layers=2, d_model=256, d_ffn=1024, num_experts=8)
CLUSTER = ClusterConfig(num_nodes=1, gpus_per_node=4)


@pytest.fixture
def cost_model() -> MoECostModel:
    topology = ClusterTopology(CLUSTER)
    profile = Profiler(topology, noise=0.0, seed=0).profile(MODEL)
    return MoECostModel(profile, MODEL)


def test_memo_matches_uncached(cost_model, rng):
    router = FlexibleTokenRouter()
    memo = MemoizedStepCost(cost_model, router)
    for _ in range(20):
        placement = Placement.balanced(8, 4, int(rng.integers(2, 5)))
        assignment = rng.integers(0, 3000, (8, 4))
        uncached = cost_model.step_time(
            router.route_fractional(assignment, placement), placement
        )
        assert memo.step_time(assignment, placement) == uncached
        # Replay: the cached value must be bit-identical too.
        assert memo.step_time(assignment, placement) == uncached


def test_hit_and_miss_accounting(cost_model, rng):
    memo = MemoizedStepCost(cost_model)
    placement = Placement.balanced(8, 4, 2)
    a = rng.integers(0, 1000, (8, 4))
    b = rng.integers(0, 1000, (8, 4))
    memo.step_time(a, placement)
    memo.step_time(a, placement)
    memo.step_time(b, placement)
    assert memo.misses == 2
    assert memo.hits == 1
    assert memo.hit_rate == pytest.approx(1 / 3)
    assert len(memo) == 2


def test_distinct_placements_are_distinct_keys(cost_model, rng):
    memo = MemoizedStepCost(cost_model)
    assignment = rng.integers(0, 1000, (8, 4))
    balanced = Placement.balanced(8, 4, 4)  # two replicas per expert
    shifted = balanced.copy()
    shifted.remove_vexpert(0, balanced.gpus_of(0)[0])
    shifted.add_vexpert(1, balanced.gpus_of(0)[0])
    memo.step_time(assignment, balanced)
    memo.step_time(assignment, shifted)
    assert memo.misses == 2


def test_lru_eviction(cost_model, rng):
    memo = MemoizedStepCost(cost_model, capacity=2)
    placement = Placement.balanced(8, 4, 2)
    frames = [rng.integers(0, 1000, (8, 4)) for _ in range(3)]
    for frame in frames:
        memo.step_time(frame, placement)
    assert len(memo) == 2
    # The oldest entry was evicted: querying it again misses.
    memo.step_time(frames[0], placement)
    assert memo.misses == 4


def test_clear(cost_model, rng):
    memo = MemoizedStepCost(cost_model)
    memo.step_time(rng.integers(0, 1000, (8, 4)), Placement.balanced(8, 4, 2))
    memo.clear()
    assert len(memo) == 0
    assert memo.hits == 0 and memo.misses == 0


def test_capacity_validated(cost_model):
    with pytest.raises(ConfigurationError):
        MemoizedStepCost(cost_model, capacity=0)


def test_policy_maker_uses_memo(cost_model, rng):
    # estimate_step_time prices through the memo; the search itself runs
    # on the delta evaluator and is covered by test_delta_cost.py.
    policy = PolicyMaker(cost_model)
    placement = Placement.balanced(8, 4, 4)
    assignment = rng.integers(0, 5000, (8, 4))
    first = policy.estimate_step_time(assignment, placement)
    assert policy.memo.misses == 1
    # Same query again: replayed from the memo, attributed to the policy.
    assert policy.estimate_step_time(assignment, placement) == first
    assert policy.memo.misses == 1
    assert policy.memo.hits == 1
    assert policy.memo.phase_stats()["policy"]["hits"] == 1.0


def test_assignment_key_precomputation_matches(cost_model, rng):
    memo = MemoizedStepCost(cost_model)
    placement = Placement.balanced(8, 4, 2)
    assignment = rng.integers(0, 1000, (8, 4))
    key = MemoizedStepCost.assignment_key(assignment)
    direct = memo.step_time(assignment, placement)
    keyed = memo.step_time(assignment, placement, assignment_key=key)
    assert keyed == direct
    assert memo.hits == 1  # the precomputed key found the same entry
    stats = memo.stats()
    assert stats["hits"] == 1.0 and stats["misses"] == 1.0


def test_policy_decisions_unchanged_by_memo(cost_model, rng):
    # Two fresh memo-backed searches (cold caches) agree; and a warm cache
    # gives the same plan as a cold one.
    placement = Placement.balanced(8, 4, 4)
    assignment = rng.integers(0, 5000, (8, 4))
    cold = ReferencePolicyMaker(cost_model).make_plan(
        assignment, placement.copy()
    )
    warm_policy = ReferencePolicyMaker(cost_model)
    warm_policy.make_plan(assignment, placement.copy())
    warm = warm_policy.make_plan(assignment, placement.copy())
    assert cold.actions == warm.actions
    assert cold.time_after == warm.time_after


def test_invalidate_drops_entries_but_keeps_accounting(cost_model, rng):
    memo = MemoizedStepCost(cost_model)
    placement = Placement.balanced(8, 4, 2)
    assignment = rng.integers(0, 1000, (8, 4))
    first = memo.step_time(assignment, placement)
    memo.invalidate()
    assert len(memo) == 0
    # The next query re-derives (a miss), and must equal the dropped
    # value bit-for-bit -- nothing priced differently.
    assert memo.step_time(assignment, placement) == first
    assert memo.misses == 2 and memo.hits == 0


def test_phase_stats_attribute_hits_to_callers(cost_model, rng):
    memo = MemoizedStepCost(cost_model)
    placement = Placement.balanced(8, 4, 2)
    assignment = rng.integers(0, 1000, (8, 4))
    memo.step_time(assignment, placement, phase="policy")
    memo.step_time(assignment, placement, phase="migration")
    memo.step_time(assignment, placement, phase="migration")
    stats = memo.phase_stats()
    assert stats["policy"] == {"hits": 0.0, "misses": 1.0, "hit_rate": 0.0}
    assert stats["migration"]["hits"] == 2.0
    assert stats["migration"]["hit_rate"] == 1.0
    assert memo.stats()["phases"] == stats
    # Unattributed queries count globally but under no phase.
    memo.step_time(assignment, placement)
    assert memo.hits == 3
    assert memo.phase_stats() == stats


def test_memo_exact_across_trial_rollback(cost_model, rng):
    """The trial-journal workflow: mutate, price, roll back, re-price.
    Every cached answer must equal the freshly derived one."""
    router = FlexibleTokenRouter()
    memo = MemoizedStepCost(cost_model, router)
    placement = Placement.balanced(8, 4, 4)
    assignment = rng.integers(0, 3000, (8, 4))

    def uncached(p):
        return cost_model.step_time(
            router.route_fractional(assignment, p), p
        )

    base = memo.step_time(assignment, placement)
    assert base == uncached(placement)
    token = placement.begin_trial()
    gpu = placement.gpus_of(0)[0]
    placement.remove_vexpert(0, gpu)
    placement.add_vexpert(1, gpu)
    trial_cost = memo.step_time(assignment, placement)
    assert trial_cost == uncached(placement)
    placement.rollback(token)
    # Back at the base content: the memo must hit AND return the exact
    # original value, not the trial's.
    assert memo.step_time(assignment, placement) == base
    assert memo.hits >= 1


def test_state_token_distinguishes_aliased_versions(cost_model, rng):
    """Two different mutations branching from the same version both land
    on version v+1 -- the per-object version counter aliases. The state
    token must not, or the memo would replay the wrong branch's cost."""
    assignment = rng.integers(0, 3000, (8, 4))
    memo = MemoizedStepCost(cost_model)
    placement = Placement.balanced(8, 4, 4)

    token = placement.begin_trial()
    gpu0 = placement.gpus_of(0)[0]
    placement.remove_vexpert(0, gpu0)
    branch_a_version = placement.version
    cost_a = memo.step_time(assignment, placement)
    placement.rollback(token)

    token = placement.begin_trial()
    gpu7 = placement.gpus_of(7)[0]
    placement.remove_vexpert(7, gpu7)
    # Same version number as branch A, different content.
    assert placement.version == branch_a_version
    cost_b = memo.step_time(assignment, placement)
    placement.rollback(token)

    router = FlexibleTokenRouter()
    assert cost_b == cost_model.step_time(
        router.route_fractional(assignment, placement_after(placement, 7)),
        placement_after(placement, 7),
    )
    assert cost_a != cost_b


def placement_after(placement, expert):
    """A copy of ``placement`` with one replica of ``expert`` removed
    (the content branch B priced)."""
    clone = placement.copy()
    clone.remove_vexpert(expert, clone.gpus_of(expert)[0])
    return clone


from hypothesis import HealthCheck, given, settings, strategies as st


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["add", "remove", "move", "trial", "rollback"]),
            st.integers(0, 7),  # expert
            st.integers(0, 3),  # gpu / destination
        ),
        min_size=1,
        max_size=25,
    ),
    seed=st.integers(0, 2**16),
)
def test_memo_exact_under_random_mutation_and_rollback(cost_model, ops, seed):
    """Property: after ANY sequence of placement mutations, trials and
    rollbacks, the memo returns the bit-exact uncached cost -- hits
    included (the state-token shortcut never replays a stale entry)."""
    rng = np.random.default_rng(seed)
    router = FlexibleTokenRouter()
    memo = MemoizedStepCost(cost_model, router)
    placement = Placement.balanced(8, 4, 4)
    assignment = rng.integers(0, 3000, (8, 4))
    tokens = []
    for op, expert, gpu in ops:
        try:
            if op == "add":
                placement.add_vexpert(expert, gpu)
            elif op == "remove":
                placement.remove_vexpert(expert, gpu)
            elif op == "move":
                src = placement.gpus_of(expert)[0]
                placement.move_vexpert(expert, src, gpu)
            elif op == "trial":
                tokens.append(placement.begin_trial())
            elif op == "rollback" and tokens:
                placement.rollback(tokens.pop())
        except Exception:
            # Illegal mutations (full GPU, last replica, no journal...)
            # are not the property under test; the memo must stay exact
            # regardless of which ops succeeded.
            pass
        uncached = cost_model.step_time(
            router.route_fractional(assignment, placement), placement
        )
        assert memo.step_time(assignment, placement) == uncached

"""Unit tests for the Placement / vExpert model."""

import numpy as np
import pytest

from repro.core.placement import Placement
from repro.exceptions import PlacementError


class TestBalancedConstruction:
    def test_all_slots_used(self):
        p = Placement.balanced(8, 4, 2)
        assert p.counts.sum() == 8
        assert all(p.used_slots(g) == 2 for g in range(4))

    def test_every_expert_has_replica(self):
        p = Placement.balanced(5, 4, 2)
        assert (p.replica_counts() >= 1).all()

    def test_extra_slots_spread_over_experts(self):
        p = Placement.balanced(4, 4, 2)  # 8 slots for 4 experts
        assert sorted(p.replica_counts()) == [2, 2, 2, 2]

    def test_replicas_striped_over_distinct_gpus(self):
        p = Placement.balanced(2, 4, 1)  # 4 slots, 2 experts, 2 each
        for e in range(2):
            assert len(p.gpus_of(e)) == p.replicas(e)

    def test_insufficient_slots_rejected(self):
        with pytest.raises(PlacementError):
            Placement.balanced(10, 4, 2)


class TestExpertParallelConstruction:
    def test_striped_one_deep(self):
        p = Placement.expert_parallel(8, 4)
        assert (p.replica_counts() == 1).all()
        assert p.used_slots(0) == 2

    def test_fewer_experts_than_gpus(self):
        p = Placement.expert_parallel(2, 4)
        assert p.replicas(0) == 1
        assert p.used_slots(3) == 0


class TestInvariants:
    def test_rejects_orphan_expert(self):
        counts = np.zeros((2, 2), dtype=np.int64)
        counts[0, 0] = 2
        with pytest.raises(PlacementError):
            Placement(counts, 2)

    def test_rejects_over_capacity_gpu(self):
        counts = np.array([[3], [1]], dtype=np.int64)
        with pytest.raises(PlacementError):
            Placement(counts, 2)

    def test_rejects_negative_counts(self):
        counts = np.array([[-1, 2], [1, 1]], dtype=np.int64)
        with pytest.raises(PlacementError):
            Placement(counts, 4)

    def test_rejects_float_counts(self):
        with pytest.raises(PlacementError):
            Placement(np.ones((2, 2)) * 0.5, 2)


class TestMutations:
    def test_add_and_remove(self):
        p = Placement.balanced(4, 4, 2)
        before = p.replicas(0)
        gpu = next(g for g in range(4) if p.free_slots(g) > 0) if any(
            p.free_slots(g) for g in range(4)
        ) else None
        # All slots full: remove one first.
        victim_gpu = p.gpus_of(1)[0]
        p.remove_vexpert(1, victim_gpu)
        p.add_vexpert(0, victim_gpu)
        assert p.replicas(0) == before + 1

    def test_remove_last_replica_rejected(self):
        p = Placement.expert_parallel(4, 4)
        with pytest.raises(PlacementError):
            p.remove_vexpert(0, 0)

    def test_add_to_full_gpu_rejected(self):
        p = Placement.balanced(8, 4, 2)
        with pytest.raises(PlacementError):
            p.add_vexpert(0, 0)

    def test_move_vexpert(self):
        p = Placement.expert_parallel(2, 4)  # gpus 2, 3 empty
        p.move_vexpert(0, 0, 2)
        assert p.count(0, 2) == 1
        assert p.count(0, 0) == 0

    def test_move_same_gpu_rejected(self):
        p = Placement.expert_parallel(2, 4)
        with pytest.raises(PlacementError):
            p.move_vexpert(0, 0, 0)

    def test_swap_vexperts(self):
        p = Placement.expert_parallel(4, 2)  # e0,e2 on g0; e1,e3 on g1
        p.swap_vexperts(0, 0, 1, 1)
        assert p.count(0, 1) == 1
        assert p.count(1, 0) == 1
        p.validate()

    def test_swap_missing_replica_rejected(self):
        p = Placement.expert_parallel(4, 2)
        with pytest.raises(PlacementError):
            p.swap_vexperts(0, 1, 1, 0)


class TestQueries:
    def test_replica_groups(self):
        p = Placement.balanced(2, 4, 1)
        groups = p.replica_groups()
        assert set(groups) == {0, 1}
        assert all(len(g) == 2 for g in groups.values())

    def test_replica_groups_match_gpus_of(self):
        rng = np.random.default_rng(5)
        counts = rng.integers(0, 3, size=(12, 7)) * (
            rng.random((12, 7)) < 0.4
        )
        counts[np.arange(12), rng.integers(0, 7, size=12)] += 1
        p = Placement(counts, int(counts.sum(axis=0).max()))
        groups = p.replica_groups()
        assert groups == {e: p.gpus_of(e) for e in range(12)}
        assert list(groups) == list(range(12))
        assert all(type(g) is int for group in groups.values() for g in group)

    def test_memory_counts_distinct_experts(self):
        counts = np.array([[2, 0], [0, 1], [0, 1]], dtype=np.int64)
        p = Placement(counts, 2)
        mem = p.memory_bytes_per_gpu(100)
        assert mem[0] == 100  # packed replicas share weights
        assert mem[1] == 200

    def test_copy_is_independent(self):
        p = Placement.balanced(4, 4, 2)
        q = p.copy()
        victim = q.gpus_of(0)[0]
        q.remove_vexpert(0, victim)
        assert p.replicas(0) != q.replicas(0) or p.count(0, victim) != q.count(0, victim)

    def test_signature_changes_on_mutation(self):
        p = Placement.balanced(4, 4, 2)
        sig = p.signature()
        p.remove_vexpert(0, p.gpus_of(0)[0])
        assert p.signature() != sig

    def test_equality(self):
        assert Placement.balanced(4, 4, 2) == Placement.balanced(4, 4, 2)

    def test_out_of_range_rejected(self):
        p = Placement.balanced(4, 4, 2)
        with pytest.raises(PlacementError):
            p.replicas(7)
        with pytest.raises(PlacementError):
            p.used_slots(9)

"""Unit tests for collective communication cost models."""

import numpy as np
import pytest

from repro.cluster.collectives import CollectiveCostModel
from repro.cluster.topology import ClusterTopology
from repro.config import ClusterConfig
from repro.exceptions import TopologyError


class TestP2P:
    def test_zero_bytes_free(self, collectives):
        assert collectives.p2p_time(0, 0, 4) == 0.0

    def test_local_copy_free(self, collectives):
        assert collectives.p2p_time(1e9, 2, 2) == 0.0

    def test_inter_node_slower_than_intra(self, collectives):
        intra = collectives.p2p_time(1e8, 0, 1)
        inter = collectives.p2p_time(1e8, 0, 4)
        assert inter > intra

    def test_monotone_in_bytes(self, collectives):
        assert collectives.p2p_time(2e8, 0, 4) > collectives.p2p_time(1e8, 0, 4)

    def test_negative_bytes_rejected(self, collectives):
        with pytest.raises(TopologyError):
            collectives.p2p_time(-1, 0, 1)


class TestAllReduce:
    def test_single_member_free(self, collectives):
        assert collectives.allreduce_time(1e9, [3]) == 0.0

    def test_grows_with_bytes(self, collectives):
        small = collectives.allreduce_time(1e7, [0, 1, 4])
        large = collectives.allreduce_time(1e8, [0, 1, 4])
        assert large > small

    def test_cross_node_group_slower(self, collectives):
        intra = collectives.allreduce_time(1e8, [0, 1, 2])
        inter = collectives.allreduce_time(1e8, [0, 1, 4])
        assert inter > intra

    def test_ring_scaling_factor(self, collectives, cluster_config):
        """time ~= 2(n-1)/n * bytes / bottleneck for large payloads."""
        nbytes = 1e9
        time = collectives.allreduce_time(nbytes, [0, 1])
        expected = 2 * (1 / 2) * nbytes / cluster_config.intra_node_bandwidth
        assert time == pytest.approx(expected, rel=0.01)

    def test_duplicate_members_deduped(self, collectives):
        a = collectives.allreduce_time(1e8, [0, 1, 1, 4])
        b = collectives.allreduce_time(1e8, [0, 1, 4])
        assert a == b

    def test_empty_group_rejected(self, collectives):
        with pytest.raises(TopologyError):
            collectives.allreduce_time(1e8, [])

    def test_bps_singleton_is_local(self, collectives, topology):
        assert collectives.allreduce_bps([2]) == topology.LOCAL_COPY_BANDWIDTH

    def test_bps_larger_groups_slower(self, collectives):
        pair = collectives.allreduce_bps([0, 1])
        eight = collectives.allreduce_bps(list(range(8)))
        assert eight < pair


class TestBroadcast:
    def test_root_only_free(self, collectives):
        assert collectives.broadcast_time(1e8, 0, [0]) == 0.0

    def test_pipelined_cost_near_bottleneck(self, collectives, cluster_config):
        nbytes = 1e9
        time = collectives.broadcast_time(nbytes, 0, list(range(8)))
        assert time == pytest.approx(
            nbytes / cluster_config.inter_node_bandwidth, rel=0.01
        )

    def test_negative_bytes_rejected(self, collectives):
        with pytest.raises(TopologyError):
            collectives.broadcast_time(-5, 0, [0, 1])


# ----------------------------------------------------------------------
# Exact oracle: the node-arithmetic ring cost against the np.unique
# set-operation formulation it replaced.
# ----------------------------------------------------------------------
def unique_ring_links(topology, group):
    """``(bottleneck, latency)`` by ``np.unique`` over the group's ids and
    nodes: the off-diagonal bandwidth minimum (a repeated id is a local
    "pair") and the worst pairwise latency."""
    cfg = topology.config
    gpus = np.asarray(group, dtype=np.int64)
    fabric = topology.bandwidth_model()
    if fabric.is_blocked:
        local, intra, inter = fabric.class_values
        devices, dev_counts = np.unique(gpus, return_counts=True)
        nodes = np.unique(devices // cfg.gpus_per_node, return_counts=True)
        candidates = []
        if (dev_counts > 1).any():
            candidates.append(local)
        if (nodes[1] > 1).any():
            candidates.append(intra)
        if nodes[0].size > 1:
            candidates.append(inter)
        bottleneck = min(candidates)
    else:
        sub = fabric.dense()[np.ix_(gpus, gpus)]
        bottleneck = float(sub[~np.eye(gpus.size, dtype=bool)].min())
    devices = np.unique(gpus)
    latency = 0.0
    if devices.size >= 2:
        node_ids, node_counts = np.unique(
            devices // cfg.gpus_per_node, return_counts=True
        )
        if (node_counts > 1).any():
            latency = float(cfg.intra_node_latency)
        if node_ids.size > 1:
            latency = max(latency, float(cfg.inter_node_latency))
    return bottleneck, latency


def unique_allreduce_time(topology, nbytes, group):
    group = sorted(set(group))
    if len(group) == 1 or nbytes == 0:
        return 0.0
    n = len(group)
    bottleneck, latency = unique_ring_links(topology, group)
    transfer = 2.0 * (n - 1) / n * nbytes / bottleneck
    return transfer + 2.0 * (n - 1) * latency


def unique_allreduce_bps(topology, group, nbytes):
    if len(set(group)) <= 1:
        return topology.LOCAL_COPY_BANDWIDTH
    return nbytes / unique_allreduce_time(topology, nbytes, group)


def unique_broadcast_time(topology, nbytes, root, group):
    group = sorted(set(group) | {root})
    if len(group) == 1 or nbytes == 0:
        return 0.0
    bottleneck, latency = unique_ring_links(topology, group)
    return nbytes / bottleneck + (len(group) - 1) * latency


def random_groups(rng, num_nodes, gpus_per_node, per_kind=40):
    """Single-node groups, one member per node, mixed groups, and
    unsorted input with duplicates."""
    num_gpus = num_nodes * gpus_per_node
    groups = []
    for _ in range(per_kind):
        node = int(rng.integers(num_nodes))
        size = int(rng.integers(1, gpus_per_node + 1))
        local = rng.choice(gpus_per_node, size=size, replace=False)
        groups.append([node * gpus_per_node + int(g) for g in local])
        size = int(rng.integers(1, num_nodes + 1))
        nodes = rng.choice(num_nodes, size=size, replace=False)
        groups.append(
            [int(n) * gpus_per_node + int(rng.integers(gpus_per_node))
             for n in nodes]
        )
        size = int(rng.integers(1, min(num_gpus, 24) + 1))
        groups.append(
            [int(g) for g in rng.choice(num_gpus, size=size, replace=False)]
        )
        size = int(rng.integers(1, 12))
        groups.append(
            [int(g) for g in rng.choice(num_gpus, size=size, replace=True)]
        )
    return groups


ORACLE_CLUSTERS = {
    "1x8": ClusterConfig(num_nodes=1, gpus_per_node=8),
    "8x8": ClusterConfig(num_nodes=8, gpus_per_node=8),
    "32x8": ClusterConfig(num_nodes=32, gpus_per_node=8),
    "4x8-nic": ClusterConfig(
        num_nodes=4,
        gpus_per_node=8,
        bandwidth_scales=tuple(
            np.random.default_rng(7).uniform(0.4, 1.6, 32).tolist()
        ),
    ),
}


class TestUniqueOracle:
    """The one-pass ring cost equals the np.unique formulation exactly."""

    @pytest.mark.parametrize("shape", sorted(ORACLE_CLUSTERS))
    def test_matches_unique_formulation(self, shape):
        config = ORACLE_CLUSTERS[shape]
        topology = ClusterTopology(config)
        assert topology.bandwidth_model().is_blocked == (
            config.bandwidth_scales is None
        )
        collectives = CollectiveCostModel(topology)
        rng = np.random.default_rng(config.num_gpus)
        groups = random_groups(rng, config.num_nodes, config.gpus_per_node)
        for group in groups:
            for nbytes in (0.0, 1.0, 3e7, 64 * 1024**2):
                assert collectives.allreduce_time(
                    nbytes, group
                ) == unique_allreduce_time(topology, nbytes, group), group
            assert collectives.allreduce_bps(
                group, nbytes=3e7
            ) == unique_allreduce_bps(topology, group, 3e7), group
            root = int(rng.integers(config.num_gpus))
            assert collectives.broadcast_time(
                3e7, root, group
            ) == unique_broadcast_time(topology, 3e7, root, group), group
            devices = sorted(set(group))
            if len(devices) > 1:
                assert topology.ring_links(devices) == unique_ring_links(
                    topology, devices
                )
                assert topology.min_group_bandwidth(group) == (
                    unique_ring_links(topology, devices)[0]
                )

    def test_ring_links_rejects_bad_groups(self, topology):
        with pytest.raises(TopologyError):
            topology.ring_links([3])
        with pytest.raises(TopologyError):
            topology.ring_links([0, topology.num_gpus])
        with pytest.raises(TopologyError):
            topology.ring_links([-1, 0])

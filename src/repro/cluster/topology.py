"""Cluster topology: devices, nodes and the pairwise network fabric.

The topology exposes the two environmental quantities the paper's cost
models consume directly: the bandwidth matrix ``Bw(g, g')`` (Eq. 8) and the
locality structure (intra-node NVLink vs inter-node InfiniBand) that makes
the All-to-All model "topology-aware".

Both fabric matrices are *implicit*: every entry is one of three class
values (device-local, intra-node, inter-node), optionally modulated by
per-GPU NIC scale factors, so scalar and group queries are answered by
node arithmetic and a dense matrix is only materialized for the few
consumers that ask for one (via :meth:`ClusterTopology.bandwidth_model`).
A 4096-device topology therefore costs O(G) to build, not O(G^2).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.cluster.bandwidth import BandwidthModel
from repro.cluster.device import Device
from repro.config import ClusterConfig
from repro.exceptions import TopologyError


class ClusterTopology:
    """Immutable description of the simulated cluster.

    Args:
        config: Cluster shape and fabric parameters.

    The loop-back "bandwidth" (a GPU sending to itself) is modelled as an
    effectively infinite device-local copy so that purely local traffic costs
    ~nothing, matching real systems where local tokens never cross a link.
    """

    #: Effective bandwidth for device-local (g == g') transfers, bytes/s.
    LOCAL_COPY_BANDWIDTH = 1.5e12

    def __init__(self, config: ClusterConfig) -> None:
        self._config = config
        self._devices: list[Device] = [
            Device(
                index=node * config.gpus_per_node + local,
                node=node,
                local_rank=local,
                spec=config.device,
                compute_scale=config.compute_scale_of(
                    node * config.gpus_per_node + local
                ),
                bandwidth_scale=config.bandwidth_scale_of(
                    node * config.gpus_per_node + local
                ),
            )
            for node in range(config.num_nodes)
            for local in range(config.gpus_per_node)
        ]
        self._bw_model: BandwidthModel | None = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _build_dense_bandwidth(self) -> np.ndarray:
        """Explicit ``Bw`` matrix for NIC-scaled (non-blocked) clusters."""
        cfg = self._config
        nodes = np.arange(cfg.num_gpus) // cfg.gpus_per_node
        same_node = nodes[:, None] == nodes[None, :]
        bw = np.where(same_node, cfg.intra_node_bandwidth, cfg.inter_node_bandwidth)
        bw = bw.astype(float)
        # A point-to-point transfer is bottlenecked by the slower NIC.
        scales = np.array([d.bandwidth_scale for d in self._devices])
        bw *= np.minimum(scales[:, None], scales[None, :])
        np.fill_diagonal(bw, self.LOCAL_COPY_BANDWIDTH)
        return bw

    def bandwidth_model(self) -> BandwidthModel:
        """Ground-truth fabric as a :class:`BandwidthModel` (cached).

        Homogeneous clusters get the implicit node-blocked representation;
        clusters with per-GPU ``bandwidth_scales`` fall back to wrapping
        the explicit matrix (the min-of-endpoints bottleneck rule is not
        separable into link classes).
        """
        if self._bw_model is None:
            cfg = self._config
            if cfg.bandwidth_scales is None:
                self._bw_model = BandwidthModel.blocked(
                    cfg.num_nodes,
                    cfg.gpus_per_node,
                    self.LOCAL_COPY_BANDWIDTH,
                    cfg.intra_node_bandwidth,
                    cfg.inter_node_bandwidth,
                )
            else:
                self._bw_model = BandwidthModel.from_dense(
                    self._build_dense_bandwidth()
                )
        return self._bw_model

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def config(self) -> ClusterConfig:
        return self._config

    @property
    def num_gpus(self) -> int:
        return len(self._devices)

    @property
    def num_nodes(self) -> int:
        return self._config.num_nodes

    @property
    def devices(self) -> Sequence[Device]:
        return tuple(self._devices)

    def device(self, gpu: int) -> Device:
        self._check_gpu(gpu)
        return self._devices[gpu]

    def node_of(self, gpu: int) -> int:
        self._check_gpu(gpu)
        return self._devices[gpu].node

    def same_node(self, gpu_a: int, gpu_b: int) -> bool:
        return self.node_of(gpu_a) == self.node_of(gpu_b)

    def bandwidth(self, src: int, dst: int) -> float:
        """Point-to-point bandwidth ``Bw(src, dst)`` in bytes/s."""
        self._check_gpu(src)
        self._check_gpu(dst)
        if src == dst:
            return self.LOCAL_COPY_BANDWIDTH
        cfg = self._config
        if src // cfg.gpus_per_node == dst // cfg.gpus_per_node:
            bw = cfg.intra_node_bandwidth
        else:
            bw = cfg.inter_node_bandwidth
        if cfg.bandwidth_scales is not None:
            bw *= min(
                self._devices[src].bandwidth_scale,
                self._devices[dst].bandwidth_scale,
            )
        return float(bw)

    def latency(self, src: int, dst: int) -> float:
        """One-way message latency in seconds."""
        self._check_gpu(src)
        self._check_gpu(dst)
        if src == dst:
            return 0.0
        cfg = self._config
        if src // cfg.gpus_per_node == dst // cfg.gpus_per_node:
            return float(cfg.intra_node_latency)
        return float(cfg.inter_node_latency)

    @property
    def bandwidth_matrix(self) -> np.ndarray:
        """Copy of the full ``Bw(g, g')`` matrix (bytes/s).

        Materializes O(G^2) — reserved for consumers that need the dense
        matrix (the ground-truth executor); planner paths should query
        :meth:`bandwidth_model` instead.
        """
        return self.bandwidth_model().dense().copy()

    def gpus_on_node(self, node: int) -> tuple[int, ...]:
        if not 0 <= node < self.num_nodes:
            raise TopologyError(f"node {node} out of range [0, {self.num_nodes})")
        start = node * self._config.gpus_per_node
        return tuple(range(start, start + self._config.gpus_per_node))

    def nodes_spanned(self, gpus: Iterable[int]) -> tuple[int, ...]:
        """Sorted node ids touched by ``gpus`` (dedup'd)."""
        return tuple(sorted({self.node_of(g) for g in gpus}))

    def min_group_bandwidth(self, gpus: Sequence[int]) -> float:
        """Slowest pairwise link within a device group.

        Ring-style collectives are bottlenecked by their slowest hop; for
        groups that span nodes this is the inter-node link. Repeated ids
        count once.
        """
        devices = sorted(set(gpus))
        if not devices:
            raise TopologyError("device group must be non-empty")
        if len(devices) == 1:
            self._check_gpu(devices[0])
            return self.LOCAL_COPY_BANDWIDTH
        return self.ring_links(devices)[0]

    def ring_links(self, devices: Sequence[int]) -> tuple[float, float]:
        """``(bottleneck bandwidth, worst one-way latency)`` of a ring.

        ``devices`` are sorted distinct ids, at least two. On the
        node-major layout the worst hop is intra-node when two members
        share a node and inter-node when the group spans nodes, so one
        pass over the ids' node numbers answers both. The NIC-scaled
        fabric (:meth:`bandwidth_model` wraps an explicit matrix) takes
        the off-diagonal minimum of the group's block instead.
        """
        if len(devices) < 2:
            raise TopologyError("a ring needs >= 2 distinct devices")
        if devices[0] < 0 or devices[-1] >= self.num_gpus:
            raise TopologyError(
                f"gpu out of range [0, {self.num_gpus}) in group"
            )
        cfg = self._config
        per_node = cfg.gpus_per_node
        shares_node = len({g // per_node for g in devices}) < len(devices)
        spans_nodes = devices[0] // per_node != devices[-1] // per_node
        fabric = self.bandwidth_model()
        if fabric.is_blocked:
            _, intra, inter = fabric.class_values
            links = []
            if shares_node:
                links.append(intra)
            if spans_nodes:
                links.append(inter)
            bottleneck = min(links)
        else:
            ids = np.asarray(devices, dtype=np.int64)
            block = fabric.dense()[np.ix_(ids, ids)]
            bottleneck = float(block[~np.eye(ids.size, dtype=bool)].min())
        latency = 0.0
        if shares_node:
            latency = float(cfg.intra_node_latency)
        if spans_nodes:
            latency = max(latency, float(cfg.inter_node_latency))
        return bottleneck, latency

    def _check_gpu(self, gpu: int) -> None:
        if not 0 <= gpu < self.num_gpus:
            raise TopologyError(f"gpu {gpu} out of range [0, {self.num_gpus})")

    def __repr__(self) -> str:
        return (
            f"ClusterTopology(nodes={self.num_nodes}, "
            f"gpus_per_node={self._config.gpus_per_node})"
        )

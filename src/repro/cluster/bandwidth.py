"""Node-blocked implicit representation of the pairwise bandwidth matrix.

A FlexMoE cluster's fabric has exactly three link classes: device-local
copies (the ``g == g'`` diagonal), intra-node NVLink and inter-node
InfiniBand.  The dense ``Bw(g, g')`` matrix the cost models consume is
therefore a rank-structured object: every entry is one of three values,
determined entirely by whether the endpoints coincide or share a node.
Materializing it costs O(G^2) memory twice over (the topology's
ground-truth matrix plus the profiler's estimate), which at 4096 devices
is two 16M-entry float64 tables -- for three distinct numbers.

:class:`BandwidthModel` stores the three class values plus the node
shape and answers every query the cost models make:

* scalar links (:meth:`link`) by node arithmetic;
* rectangular sub-blocks (:meth:`submatrix`) materialized on demand at
  the query's size, not the cluster's;
* the placement search's hot aggregation (:meth:`inv_offdiag_apply`,
  the per-destination sum ``sum_{s != d} x[s] / Bw(s, d)`` behind
  Eq. 8) in O(G) per row via per-node partial sums instead of the
  O(G^2) matrix product;
* a lazily-cached dense view (:meth:`dense`) for consumers that
  genuinely need the full matrix (the ground-truth executor's route
  pricing, which only runs at engine-feasible cluster sizes).

Clusters with per-GPU NIC scale factors
(:attr:`~repro.config.ClusterConfig.bandwidth_scales`) break the
three-class structure (a link is bottlenecked by its slower endpoint),
so :meth:`from_dense` wraps an explicit matrix with the identical query
interface -- heterogeneous-NIC tests keep their exact semantics while
the homogeneous fast path never allocates G^2 anything.

Device indices are node-major (``gpu = node * gpus_per_node + local``,
the :class:`~repro.cluster.topology.ClusterTopology` layout), which is
what lets per-node sums come from a reshape instead of a scatter.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import TopologyError


class BandwidthModel:
    """Three-class implicit (or wrapped dense) ``Bw(g, g')`` in bytes/s.

    Construct through :meth:`blocked` (homogeneous fabric, O(1) storage)
    or :meth:`from_dense` (explicit matrix, e.g. NIC-scaled clusters or
    hand-built test profiles). Both expose the same query surface, so
    cost models never branch on the representation.
    """

    __slots__ = (
        "_num_gpus",
        "_num_nodes",
        "_gpus_per_node",
        "_local",
        "_intra",
        "_inter",
        "_blocked",
        "_dense",
        "_inv_dense",
        "_inv_diag",
    )

    def __init__(self) -> None:  # pragma: no cover - use the classmethods
        raise TypeError(
            "use BandwidthModel.blocked(...) or BandwidthModel.from_dense(...)"
        )

    @classmethod
    def blocked(
        cls,
        num_nodes: int,
        gpus_per_node: int,
        local: float,
        intra: float,
        inter: float,
    ) -> "BandwidthModel":
        """Implicit model from the node shape and three class values."""
        if num_nodes < 1 or gpus_per_node < 1:
            raise TopologyError("node shape must be >= 1 in both dimensions")
        if min(local, intra, inter) <= 0:
            raise TopologyError("bandwidth class values must be > 0")
        self = object.__new__(cls)
        self._num_nodes = int(num_nodes)
        self._gpus_per_node = int(gpus_per_node)
        self._num_gpus = self._num_nodes * self._gpus_per_node
        self._local = float(local)
        self._intra = float(intra)
        self._inter = float(inter)
        self._blocked = True
        self._dense = None
        self._inv_dense = None
        self._inv_diag = None
        return self

    @classmethod
    def from_dense(cls, matrix: np.ndarray) -> "BandwidthModel":
        """Wrap an explicit bandwidth matrix (copied defensively)."""
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise TopologyError(
                f"bandwidth matrix must be square, got {matrix.shape}"
            )
        if (matrix <= 0).any():
            raise TopologyError("bandwidth entries must be > 0")
        self = object.__new__(cls)
        self._num_gpus = matrix.shape[0]
        self._num_nodes = 1
        self._gpus_per_node = self._num_gpus
        self._local = self._intra = self._inter = 0.0
        self._blocked = False
        dense = matrix.copy()
        dense.setflags(write=False)
        self._dense = dense
        self._inv_dense = None
        self._inv_diag = None
        return self

    # ------------------------------------------------------------------
    # Shape / class accessors
    # ------------------------------------------------------------------
    @property
    def num_gpus(self) -> int:
        return self._num_gpus

    @property
    def is_blocked(self) -> bool:
        """Whether the implicit three-class fast paths are active."""
        return self._blocked

    @property
    def class_values(self) -> tuple[float, float, float]:
        """``(local, intra, inter)`` class bandwidths (blocked models only)."""
        if not self._blocked:
            raise TopologyError("dense bandwidth model has no class values")
        return (self._local, self._intra, self._inter)

    def _check(self, gpu: int) -> None:
        if not 0 <= gpu < self._num_gpus:
            raise TopologyError(
                f"gpu {gpu} out of range [0, {self._num_gpus})"
            )

    def _nodes_of(self, gpus: np.ndarray) -> np.ndarray:
        return np.asarray(gpus, dtype=np.int64) // self._gpus_per_node

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def link(self, src: int, dst: int) -> float:
        """Point-to-point ``Bw(src, dst)``."""
        self._check(src)
        self._check(dst)
        if not self._blocked:
            return float(self._dense[src, dst])
        if src == dst:
            return self._local
        if src // self._gpus_per_node == dst // self._gpus_per_node:
            return self._intra
        return self._inter

    def submatrix(self, rows, cols) -> np.ndarray:
        """Dense ``Bw`` block for ``rows x cols``, materialized at query size."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if not self._blocked:
            return self._dense[np.ix_(rows, cols)]
        same_node = (
            self._nodes_of(rows)[:, None] == self._nodes_of(cols)[None, :]
        )
        block = np.where(same_node, self._intra, self._inter)
        block[rows[:, None] == cols[None, :]] = self._local
        return block

    def dense(self) -> np.ndarray:
        """Full read-only ``(G, G)`` matrix, materialized once and cached.

        Reserved for consumers that need the matrix itself (the
        ground-truth executor); the placement search must stay on the
        implicit queries.
        """
        if self._dense is None:
            nodes = np.arange(self._num_gpus) // self._gpus_per_node
            dense = np.where(
                nodes[:, None] == nodes[None, :], self._intra, self._inter
            )
            np.fill_diagonal(dense, self._local)
            dense.setflags(write=False)
            self._dense = dense
        return self._dense

    def inv_diag(self) -> np.ndarray:
        """``1 / Bw(g, g)`` per GPU (cached)."""
        if self._inv_diag is None:
            if self._blocked:
                inv = np.full(self._num_gpus, 1.0 / self._local)
            else:
                inv = np.ascontiguousarray(1.0 / np.diagonal(self._dense))
            inv.setflags(write=False)
            self._inv_diag = inv
        return self._inv_diag

    def inv_offdiag_apply(self, spill: np.ndarray) -> np.ndarray:
        """Per-destination ``sum_{s != d} spill[..., s] / Bw(s, d)``.

        The All-to-All aggregation of Eq. 8 (the delta evaluator's only
        bandwidth-dependent term), batched over arbitrary leading axes.
        The blocked path runs in O(rows * G) via per-node partial sums;
        the dense path keeps the matrix-product formulation.
        """
        spill = np.asarray(spill, dtype=float)
        if spill.shape[-1] != self._num_gpus:
            raise TopologyError(
                f"spill rows must have length {self._num_gpus}, "
                f"got {spill.shape[-1]}"
            )
        if not self._blocked:
            if self._inv_dense is None:
                inv = 1.0 / self._dense
                inv.setflags(write=False)
                self._inv_dense = inv
            return spill @ self._inv_dense - spill * self.inv_diag()
        node_sums = spill.reshape(
            spill.shape[:-1] + (self._num_nodes, self._gpus_per_node)
        ).sum(axis=-1)
        same_node = np.repeat(node_sums, self._gpus_per_node, axis=-1)
        total = spill.sum(axis=-1)[..., None]
        return (same_node - spill) * (1.0 / self._intra) + (
            total - same_node
        ) * (1.0 / self._inter)

"""The Policy Maker: vExpert-based scheduling (Algorithm 2).

Given the current token assignment and placement, the Policy Maker proposes
one (Shrink, Expand) pair per call:

1. estimate the modelled step time ``t0`` of the current placement;
2. pick ``e0 = argmax_e cap_e`` (most overloaded per vExpert) and
   ``e1 = argmin_e cap_e`` (most underloaded, must retain >= 1 vExpert);
3. estimate ``t1`` after shrinking ``e1`` and expanding ``e0`` into the
   freed slot;
4. return the pair iff ``t1 < t0`` (optionally charging an amortized share
   of the adjustment transfer cost), else the empty plan.

Because an expert may hold replicas on several GPUs, *which* replica of
``e1`` to shrink matters: every candidate GPU is evaluated and the best one
wins. The Expand's source replica is chosen for cheapest transfer (same GPU
if packing, otherwise the highest-bandwidth peer).

Candidates are scored by a :class:`~repro.core.delta.DeltaStepCost`, which
caches the base configuration's per-expert route/cost contributions once
per call and batch-scores every shrink GPU of a pair in one vectorized
pass, so a candidate costs O(changed experts * D) instead of re-deriving
the full E x D configuration. The copy-per-candidate search over the full
evaluator it replaced is kept test-side (``tests/search_oracle.py``) as
the specification the delta search must match decision for decision
(``tests/test_policy_delta_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.config import resolve_placement_search
from repro.core.cost_model import MemoizedStepCost, MoECostModel
from repro.core.delta import DeltaStepCost
from repro.core.placement import Placement
from repro.core.primitives import Expand, PlacementAction, Shrink
from repro.core.router import FlexibleTokenRouter
from repro.exceptions import SchedulingError

if TYPE_CHECKING:
    from repro.cluster.topology import ClusterTopology


@dataclass(frozen=True)
class PolicyDecision:
    """One Policy Maker proposal with its modelled costs."""

    actions: tuple[PlacementAction, ...]
    time_before: float
    time_after: float
    adjustment_time: float

    @property
    def beneficial(self) -> bool:
        return bool(self.actions)


class PolicyMaker:
    """Cost-model-driven greedy placement search.

    Args:
        cost_model: Profiled cost model (Eqs. 5, 7-9).
        router: Router used to materialize candidate placements' traffic.
        adjustment_horizon: Number of steps the one-time adjustment transfer
            cost is amortized over when comparing candidates. ``0`` ignores
            adjustment costs entirely (pure Algorithm 2); the paper notes
            adjustments run concurrently with training, so the default
            charges only a small amortized share.
        min_replicas: Replication floor preserved by Shrink proposals
            (see :attr:`repro.config.SchedulerConfig.min_replicas`).
        topology: Cluster topology, required for the hierarchical search's
            node partition. Optional — without it ``"auto"`` stays flat
            and ``"hierarchical"`` raises
            :class:`~repro.exceptions.SchedulingError`.
        placement_search: ``"flat"`` (default — every shrink GPU of a pair
            scored in one sweep), ``"hierarchical"`` (score candidates in
            the hot expert's node group first, escalating to the cross-node
            remainder only when no intra-node candidate beats ``t0``), or
            ``"auto"`` (hierarchical above
            :data:`~repro.config.HIERARCHICAL_AUTO_THRESHOLD` devices).
    """

    def __init__(
        self,
        cost_model: MoECostModel,
        router: FlexibleTokenRouter | None = None,
        adjustment_horizon: int = 25,
        expand_candidates: int = 3,
        shrink_candidates: int = 2,
        min_replicas: int = 1,
        topology: "ClusterTopology | None" = None,
        placement_search: str = "flat",
    ) -> None:
        if adjustment_horizon < 0:
            raise SchedulingError("adjustment_horizon must be >= 0")
        if expand_candidates < 1 or shrink_candidates < 1:
            raise SchedulingError("candidate counts must be >= 1")
        if min_replicas < 1:
            raise SchedulingError("min_replicas must be >= 1")
        if placement_search not in ("auto", "flat", "hierarchical"):
            raise SchedulingError(
                f"unknown placement_search {placement_search!r}"
            )
        if placement_search == "hierarchical" and topology is None:
            raise SchedulingError(
                "placement_search='hierarchical' needs a topology for its "
                "node partition"
            )
        self._cost_model = cost_model
        self._router = router or FlexibleTokenRouter()
        self._memo = MemoizedStepCost(cost_model, self._router)
        self._delta = DeltaStepCost(cost_model)
        self._adjustment_horizon = adjustment_horizon
        self._expand_candidates = expand_candidates
        self._shrink_candidates = shrink_candidates
        self._min_replicas = min_replicas
        num_gpus = int(np.asarray(cost_model.profile.tps).shape[0])
        if placement_search == "auto":
            placement_search = resolve_placement_search(num_gpus)
        self._hierarchical = (
            placement_search == "hierarchical" and topology is not None
        )
        # Devices are node-major, so gpu // gpus_per_node is its node id.
        self._gpus_per_node = (
            topology.config.gpus_per_node if topology is not None else 1
        )

    @property
    def cost_model(self) -> MoECostModel:
        return self._cost_model

    @property
    def memo(self) -> MemoizedStepCost:
        """The (placement, load-vector) step-time memo behind
        :meth:`estimate_step_time`."""
        return self._memo

    @property
    def delta(self) -> DeltaStepCost:
        """The incremental evaluator scoring every candidate."""
        return self._delta

    def estimate_step_time(
        self, assignment: np.ndarray, placement: Placement
    ) -> float:
        """Modelled step time of ``assignment`` under ``placement``.

        Uses the router's continuous relaxation: candidate evaluation only
        needs costs, not integral token counts. Evaluations are memoized on
        the (placement, load-vector) pair, so repeated what-if queries over
        identical configurations replay the cached cost.
        """
        return self._memo.step_time(assignment, placement, phase="policy")

    def make_plan(
        self, assignment: np.ndarray, placement: Placement
    ) -> PolicyDecision:
        """Algorithm 2: propose one (Shrink, Expand) pair or nothing."""
        assignment = np.asarray(assignment)
        t0 = self._delta.rebase(assignment, placement)
        expert_loads = assignment.sum(axis=1).astype(float)
        replicas = placement.replica_counts().astype(float)
        caps = expert_loads / replicas

        order_desc = np.argsort(-caps, kind="stable")
        # Ascending load order is shared by every _find_shrink_candidates
        # call this round; computing it per sweep was O(E log E) each.
        order_asc = np.argsort(caps, kind="stable")
        best: PolicyDecision | None = None
        for e0 in order_desc[: self._expand_candidates]:
            e0 = int(e0)
            shrinkable = self._find_shrink_candidates(
                order_asc, replicas, exclude=e0
            )
            for e1 in shrinkable[: self._shrink_candidates]:
                decision = self._sweep_pair(placement, e0, e1, t0)
                if decision is not None and (
                    best is None or decision.time_after < best.time_after
                ):
                    best = decision
            if best is not None:
                # Algorithm 2 expands the most overloaded expert; wider
                # candidates are only a fallback when it cannot improve.
                break
        if best is None:
            return PolicyDecision((), t0, t0, 0.0)
        return best

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _find_shrink_candidates(
        self, order_asc: np.ndarray, replicas: np.ndarray, exclude: int
    ) -> list[int]:
        """Experts shrinkable above the replication floor, in the given
        ascending per-vExpert-load order (computed once per round by
        :meth:`make_plan`; the floor is 1 in the paper's setting, 2 in
        elastic runs so failures never orphan an expert)."""
        return [
            int(e)
            for e in order_asc
            if replicas[e] > self._min_replicas and int(e) != exclude
        ]

    def _sweep_pair(
        self, placement: Placement, e0: int, e1: int, t0: float
    ) -> PolicyDecision | None:
        """Batch-score all shrink GPUs of (e1 -> e0) at once.

        A shrink GPU is valid when the distinct-device replication floor
        survives it; candidates are enumerated in ascending GPU order and
        the first of equally good ones wins, with no placement copies and
        no full re-route.

        Hierarchical mode partitions the shrink GPUs into those on nodes
        already hosting the hot expert ``e0`` (where Expand packs or rides
        NVLink and the freed capacity lands next to the overload) and the
        cross-node remainder, scoring the intra-node subset first and
        escalating to the remainder only when no intra-node candidate
        beats ``t0`` — so escalation can never skip a viable intra-node
        candidate, and at datacenter scale most sweeps price a handful of
        GPUs instead of every replica of ``e1``.
        """
        counts1 = placement.counts_view[e1]
        holders1 = np.flatnonzero(counts1)
        if holders1.size == 0:
            return None
        # Shrinking the last copy on a GPU loses a distinct device; the
        # floor is on distinct DEVICES (packed copies die together).
        distinct_after = holders1.size - (counts1[holders1] == 1)
        gpus = holders1[distinct_after >= self._min_replicas]
        if gpus.size == 0:
            return None
        if self._hierarchical:
            e0_nodes = np.unique(
                np.flatnonzero(placement.counts_view[e0]) // self._gpus_per_node
            )
            intra = np.isin(gpus // self._gpus_per_node, e0_nodes)
            if intra.any() and not intra.all():
                decision = self._score_pair_gpus(
                    placement, e0, e1, t0, gpus[intra]
                )
                if decision is not None:
                    return decision
                gpus = gpus[~intra]
        return self._score_pair_gpus(placement, e0, e1, t0, gpus)

    def _score_pair_gpus(
        self,
        placement: Placement,
        e0: int,
        e1: int,
        t0: float,
        gpus: np.ndarray,
    ) -> PolicyDecision | None:
        """Score one batch of shrink GPUs for (Shrink e1, Expand e0)."""
        times = self._delta.pair_candidate_times(placement, e0, e1, gpus)
        sources, adjustments = self._expand_sources_batch(placement, e0, gpus)
        effective = times + self._amortized_vec(adjustments)
        viable = effective < t0
        if not viable.any():
            return None
        # First-best wins ties (argmin returns the first minimum).
        masked = np.where(viable, effective, np.inf)
        pick = int(np.argmin(masked))
        gpu = int(gpus[pick])
        shrink = Shrink(expert=e1, gpu=gpu)
        expand = Expand(expert=e0, gpu=gpu, source_gpu=int(sources[pick]))
        return PolicyDecision(
            actions=(shrink, expand),
            time_before=t0,
            time_after=float(effective[pick]),
            adjustment_time=float(adjustments[pick]),
        )

    def _expand_sources_batch(
        self, placement: Placement, expert: int, targets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Cheapest source replica + transfer seconds per expand target.

        Packing on a holder GPU is free; otherwise the highest-bandwidth
        holder pays ``state_bytes / Bw`` (first holder wins bandwidth
        ties), the seconds :meth:`MoECostModel.adjustment_cost` charges
        the (Shrink, Expand) pair.
        """
        counts = placement.counts_view[expert]
        holders = np.flatnonzero(counts)
        bw = self._cost_model.profile.bandwidth_model().submatrix(
            holders, targets
        )
        best = np.argmax(bw, axis=0)
        sources = holders[best]
        state_bytes = self._cost_model.model.expert_state_bytes
        adjustments = state_bytes / bw[best, np.arange(targets.size)]
        packed = counts[targets] > 0
        sources = np.where(packed, targets, sources)
        adjustments = np.where(packed, 0.0, adjustments)
        return sources, adjustments

    def _amortized_vec(self, adjustments: np.ndarray) -> np.ndarray:
        if self._adjustment_horizon == 0:
            return np.zeros_like(adjustments)
        return adjustments / self._adjustment_horizon

"""Copy-per-candidate placement search, the oracle of the delta search.

The shipped Policy Maker and Migrate planner score candidates through the
incremental :class:`~repro.core.delta.DeltaStepCost`. This module keeps
the search they replaced, test-side only: every candidate is applied to a
copy of the placement and priced by the full evaluator (router
relaxation plus the whole cost model), one candidate at a time.

* :class:`ReferencePolicyMaker` -- Algorithm 2 over the memoized full
  evaluator (:class:`~repro.core.cost_model.MemoizedStepCost`);
* :class:`ReferenceMigrationPlanner` -- the Migrate pass over the same,
  optionally sharing the policy's memo.

Both enumerate candidates in the delta search's order and compare with
the same strict inequalities, so on any seeded scenario they must propose
exactly the delta search's actions (``test_policy_delta_equivalence.py``)
and probe lazily profiled AllReduce groups in the same order
(``test_delta_cost.py::TestProbeOrder``). Engine-level tests swap them in
for ``repro.runtime.pipeline.PolicyMaker`` and
``repro.core.scheduler.MigrationPlanner`` with :func:`reference_search`.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.core.cost_model import MemoizedStepCost
from repro.core.migration import MigrationPlanner
from repro.core.placement import Placement
from repro.core.policy import PolicyDecision, PolicyMaker
from repro.core.primitives import Expand, Migrate, Shrink
from repro.core.router import FlexibleTokenRouter
from repro.exceptions import PlacementError


class ReferencePolicyMaker(PolicyMaker):
    """Algorithm 2 with one full evaluation per candidate."""

    def make_plan(
        self, assignment: np.ndarray, placement: Placement
    ) -> PolicyDecision:
        """Algorithm 2: propose one (Shrink, Expand) pair or nothing."""
        assignment = np.asarray(assignment)
        assignment_key = MemoizedStepCost.assignment_key(assignment)
        t0 = self._memo.step_time(
            assignment, placement, assignment_key=assignment_key,
            phase="policy",
        )
        expert_loads = assignment.sum(axis=1).astype(float)
        replicas = placement.replica_counts().astype(float)
        caps = expert_loads / replicas

        order_desc = np.argsort(-caps, kind="stable")
        order_asc = np.argsort(caps, kind="stable")
        best: PolicyDecision | None = None
        for e0 in order_desc[: self._expand_candidates]:
            e0 = int(e0)
            shrinkable = self._find_shrink_candidates(
                order_asc, replicas, exclude=e0
            )
            for e1 in shrinkable[: self._shrink_candidates]:
                decision = self._best_pair(
                    assignment, placement, e0, e1, t0, assignment_key
                )
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

    def _best_pair(
        self,
        assignment: np.ndarray,
        placement: Placement,
        e0: int,
        e1: int,
        t0: float,
        assignment_key: tuple | None = None,
    ) -> PolicyDecision | None:
        """Best (Shrink e1@g, Expand e0@g) over all shrink GPUs ``g``,
        one full evaluation per candidate."""
        best: PolicyDecision | None = None
        for gpu in placement.gpus_of(e1):
            trial = placement.copy()
            shrink = Shrink(expert=e1, gpu=gpu)
            try:
                shrink.apply(trial)
            except PlacementError:  # last replica elsewhere raced; skip
                continue
            if len(trial.gpus_of(e1)) < self._min_replicas:
                # The floor is on distinct DEVICES: packed copies on one
                # GPU share weights and die together, so they provide no
                # fault tolerance.
                continue
            source = self._expand_source(trial, e0, gpu)
            expand = Expand(expert=e0, gpu=gpu, source_gpu=source)
            expand.apply(trial)
            t1 = self._memo.step_time(
                assignment, trial, assignment_key=assignment_key,
                phase="policy",
            )
            adjustment = self._cost_model.adjustment_cost([shrink, expand])
            effective = t1 + self._amortized(adjustment)
            if effective < t0 and (best is None or effective < best.time_after):
                best = PolicyDecision(
                    actions=(shrink, expand),
                    time_before=t0,
                    time_after=effective,
                    adjustment_time=adjustment,
                )
        return best

    def _expand_source(self, placement: Placement, expert: int, target: int) -> int:
        """Cheapest source replica for copying ``expert``'s states to ``target``."""
        holders = placement.gpus_of(expert)
        if target in holders:
            return target  # packing: intra-GPU parameter sharing, free
        profile = self._cost_model.profile
        return max(holders, key=lambda g: profile.link_bandwidth(g, target))

    def _amortized(self, adjustment: float) -> float:
        if self._adjustment_horizon == 0:
            return 0.0
        return adjustment / self._adjustment_horizon


class ReferenceMigrationPlanner(MigrationPlanner):
    """The Migrate pass with one full evaluation per candidate exchange.

    Args:
        memo: Optional shared :class:`MemoizedStepCost`; evaluations go
            through it under the ``"migration"`` phase instead of
            re-routing and re-pricing from scratch.
        *args, **kwargs: As :class:`~repro.core.migration.MigrationPlanner`
            (``placement_search`` and ``delta`` are accepted and unused:
            this search is always the flat sweep).
    """

    def __init__(self, *args, memo: MemoizedStepCost | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self._router = FlexibleTokenRouter()
        self._memo = memo

    def step_time(self, assignment: np.ndarray, placement: Placement) -> float:
        if self._memo is not None:
            return self._memo.step_time(assignment, placement, phase="migration")
        routes = self._router.route_fractional(assignment, placement)
        return self._cost_model.step_time(routes, placement)

    def _evaluate_exchange(
        self, assignment: np.ndarray, placement: Placement, action: Migrate
    ) -> float | None:
        """Evaluate one exchange: copy the placement, apply, re-route
        everything. Returns ``None`` if the action is invalid or would
        consolidate below the replication floor."""
        candidate = placement.copy()
        try:
            action.apply(candidate)
        except PlacementError:
            return None
        if self._below_floor(candidate, action):
            return None
        return self.step_time(assignment, candidate)

    def _below_floor(self, placement: Placement, action: Migrate) -> bool:
        """Whether the applied exchange consolidated either expert below
        the distinct-device replication floor."""
        return self._min_replicas > 1 and (
            len(placement.gpus_of(action.expert_a)) < self._min_replicas
            or len(placement.gpus_of(action.expert_b)) < self._min_replicas
        )

    def _best_move(
        self, assignment: np.ndarray, placement: Placement
    ) -> Migrate | None:
        baseline = self.step_time(assignment, placement)
        best_action = None
        best_time = baseline
        per_replica = self._per_replica_loads(assignment, placement)
        gpu_loads = self._weighted_gpu_loads(per_replica, placement)
        targets = self._candidate_targets(gpu_loads)
        for expert, src in self._candidate_sources(
            per_replica, placement, gpu_loads
        ):
            for dst in targets:
                if dst == src:
                    continue
                for partner in placement.experts_on(dst):
                    if partner == expert:
                        continue
                    action = Migrate(
                        expert_a=expert, gpu_a=src,
                        expert_b=partner, gpu_b=dst,
                    )
                    time = self._evaluate_exchange(
                        assignment, placement, action
                    )
                    if time is not None and time < best_time - 1e-12:
                        best_time = time
                        best_action = action
        return best_action


@contextlib.contextmanager
def reference_search(monkeypatch):
    """Build every engine inside the block on the reference search.

    Patches the names the engine resolves at construction time: each
    layer's Policy Maker (``repro.runtime.pipeline``) and each
    Scheduler's Migrate planner (``repro.core.scheduler``).
    """
    with monkeypatch.context() as patch:
        patch.setattr(
            "repro.runtime.pipeline.PolicyMaker", ReferencePolicyMaker
        )
        patch.setattr(
            "repro.core.scheduler.MigrationPlanner", ReferenceMigrationPlanner
        )
        yield

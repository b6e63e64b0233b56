"""Multi-layer pipelined FlexMoE engine.

The paper schedules placement adjustments *per MoE layer* across the whole
transformer: every MoE layer owns its placement, its Scheduler state and
its best-effort adjustment stream, and the adjustment traffic of all
layers overlaps the full training-step pipeline. This module provides that
engine:

* :class:`LayerPipeline` — the per-layer unit: target/active placements,
  Scheduler (Algorithm 1), Policy Maker with memoized what-if costs, an
  adjustment queue pricing the layer's parameter transfers, and the
  best-effort commit pipeline that lets the active placement lag the
  target until the stream work is paid for. The single-layer
  :class:`~repro.baselines.flexmoe.FlexMoESystem` is this class wrapped in
  the ``MoESystem`` interface.
* :class:`MultiLayerFlexMoEEngine` — one :class:`LayerPipeline` per MoE
  layer plus a :class:`~repro.runtime.executor.PipelinedStepExecutor`
  composing the layers into an overlap-aware whole-transformer step.

See ``docs/architecture.md`` for the step timeline and overlap rules.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.cluster.collectives import CollectiveCostModel
from repro.cluster.events import (
    ClusterEvent,
    ClusterState,
    ElasticitySchedule,
    redistribute_assignments,
)
from repro.cluster.groups import CommunicatorGroupCache
from repro.cluster.profiler import ClusterProfile
from repro.cluster.topology import ClusterTopology
from repro.config import (
    ClusterConfig,
    MoEModelConfig,
    SchedulerConfig,
    auto_slots_per_gpu,
)
from repro.core.cost_model import MoECostModel
from repro.core.migration import (
    ensure_evictable,
    evict_failed_gpus,
    plan_replacements,
)
from repro.core.placement import Placement
from repro.core.policy import PolicyMaker
from repro.core.primitives import (
    Expand,
    Migrate,
    PlacementAction,
    Shrink,
    action_gpus,
    apply_actions,
)
from repro.core.router import FlexibleTokenRouter, RoutingPlan
from repro.core.scheduler import Scheduler, SchedulingOutcome
from repro.core.trigger import Trigger
from repro.exceptions import PlacementError, SimulationError
from repro import telemetry
from repro.runtime.adjustment import AdjustmentQueue
from repro.runtime.executor import (
    PipelinedStepExecutor,
    PipelineStepTiming,
    StepExecutor,
)


class LayerPipeline:
    """Scheduling + best-effort adjustment state of ONE MoE layer.

    Args:
        model: MoE architecture (sizes cost models and transfers).
        topology: The simulated cluster.
        profile: Noisy profiled figures driving scheduling decisions.
        collectives: Ground-truth transfer timing for the adjustment queue.
        scheduler_config: Scheduler knobs; auto-sizes ``slots_per_gpu``
            exactly like the seed FlexMoE system when unset.
        group_cache: Communicator cache charged for newly formed replica
            groups (``None`` makes group creation free).
        layer_index: Which MoE layer this pipeline manages (labelling).
        cluster_state: Live device-pool view shared with the executor;
            attaches to the layer's cost model so scheduling prices
            against the current pool. ``None`` keeps the pool static.
        trigger: When-to-schedule predicate handed to the layer's
            Scheduler; ``None`` derives the paper's trigger from the
            config. Serving runs pass a
            :class:`~repro.core.trigger.LatencyTrigger`.
        inference: Price this layer's scheduling against inference-shaped
            steps (forward-only compute, two A2A passes, no gradient
            sync) and skip sync-communicator creation costs. Matches the
            executor's step shape in serving runs.
    """

    def __init__(
        self,
        model: MoEModelConfig,
        topology: ClusterTopology,
        profile: ClusterProfile,
        collectives: CollectiveCostModel,
        scheduler_config: SchedulerConfig | None = None,
        group_cache: CommunicatorGroupCache | None = None,
        layer_index: int = 0,
        cluster_state: ClusterState | None = None,
        trigger: Trigger | None = None,
        inference: bool = False,
    ) -> None:
        config = scheduler_config or SchedulerConfig()
        # Explicit slot counts are respected as configured.
        if config.slots_per_gpu is None:
            config = config.replace(
                slots_per_gpu=auto_slots_per_gpu(
                    model.num_experts, topology.num_gpus
                )
            )
        self._model = model
        self._topology = topology
        self._group_cache = group_cache
        self._config = config
        self._layer_index = layer_index
        self._cluster_state = cluster_state
        self._inference = inference
        self._router = FlexibleTokenRouter()
        self._cost_model = MoECostModel(
            profile, model, cluster_state=cluster_state, inference=inference
        )
        # Target placement: what the scheduler plans toward. Active
        # placement: what routing/execution actually use; commits lag by
        # the best-effort stream's budget. Pools with dark standby
        # headroom seed the layout over the live devices only.
        if cluster_state is not None and cluster_state.num_live < topology.num_gpus:
            self._target = Placement.balanced_subset(
                model.num_experts,
                topology.num_gpus,
                config.slots_per_gpu,
                cluster_state.live_gpus(),
            )
        else:
            self._target = Placement.balanced(
                model.num_experts, topology.num_gpus, config.slots_per_gpu
            )
        self._active = self._target.copy()
        policy = PolicyMaker(
            self._cost_model,
            min_replicas=config.min_replicas,
            use_delta=config.delta_evaluation,
            topology=topology,
            placement_search=config.placement_search,
        )
        self._scheduler = Scheduler(
            self._target, policy, config, topology, trigger=trigger
        )
        self._queue = AdjustmentQueue(model, collectives)
        # Each entry: [remaining_stream_seconds, actions_tuple]
        self._pending: deque[list] = deque()
        self._committed_actions = 0
        self._dropped_actions = 0
        self._floor_degradations = 0
        self._last_assignment: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def layer_index(self) -> int:
        return self._layer_index

    @property
    def config(self) -> SchedulerConfig:
        return self._config

    @property
    def active_placement(self) -> Placement:
        """What routing and execution currently use."""
        return self._active

    @property
    def target_placement(self) -> Placement:
        """The scheduler's goal placement (active + pending actions)."""
        return self._target

    @property
    def scheduler(self) -> Scheduler:
        return self._scheduler

    @property
    def adjustment_queue(self) -> AdjustmentQueue:
        return self._queue

    @property
    def cost_model(self) -> MoECostModel:
        return self._cost_model

    @property
    def pending_actions(self) -> int:
        """Actions emitted but not yet committed to the active placement."""
        return sum(len(entry[1]) for entry in self._pending)

    @property
    def committed_actions(self) -> int:
        return self._committed_actions

    @property
    def dropped_actions(self) -> int:
        """Queued actions discarded because a device failure obsoleted them."""
        return self._dropped_actions

    @property
    def floor_degradations(self) -> int:
        """Re-home rounds where the live pool was smaller than the
        configured ``min_replicas`` distinct-device floor, so replacement
        planning degraded the floor to the pool size instead of raising
        mid-run (correlated revocations can shrink the pool that far)."""
        return self._floor_degradations

    # ------------------------------------------------------------------
    # Best-effort pipeline
    # ------------------------------------------------------------------
    def _stream_work_seconds(self, actions: tuple[PlacementAction, ...]) -> float:
        """Background seconds needed before ``actions`` can commit:
        parameter/optimizer transfers plus new communicator creations."""
        self._queue.enqueue(actions)
        report = self._queue.drain(overlap_window=0.0, best_effort=True)
        return report.transfer_time + self._group_creation_cost()

    def _group_creation_cost(self) -> float:
        """Seconds to create communicators for new replica groups.

        Creations are independent handshakes issued from the background
        thread pool, so concurrent creations cost the slowest one, not the
        sum. Inference runs never synchronize gradients, so replica
        groups need no communicators and creation is free.
        """
        if self._group_cache is None or self._inference:
            return 0.0
        cost = 0.0
        for group in self._target.replica_groups().values():
            if len(group) > 1:
                cost = max(cost, self._group_cache.acquire(group))
        return cost

    def _emit_actions(self, actions: tuple[PlacementAction, ...]) -> float:
        """Push actions into the best-effort pipeline (already applied to
        the TARGET placement by the caller).

        Returns the blocking seconds charged to the step: zero under
        best-effort (the stream pays for the work later), the full
        transfer time otherwise (actions commit to the active placement
        immediately).
        """
        if not actions:
            return 0.0
        work = self._stream_work_seconds(actions)
        if self._config.best_effort:
            self._pending.append([work, actions])
            return 0.0
        for action in actions:
            action.apply(self._active)
        self._committed_actions += len(actions)
        return work

    def begin_step(
        self, assignment: np.ndarray, step_index: int
    ) -> tuple[float, SchedulingOutcome]:
        """Run the layer's monitoring loop for one step.

        Emits beneficial placement actions into the best-effort pipeline
        (or applies them immediately when best-effort is off) and returns
        the seconds of blocking adjustment time plus the scheduling
        outcome.
        """
        self._last_assignment = np.asarray(assignment)
        outcome = self._scheduler.on_step(assignment, step_index)
        return self._emit_actions(outcome.actions), outcome

    def route(self, assignment: np.ndarray) -> RoutingPlan:
        """Route ``assignment`` over the layer's ACTIVE placement."""
        return self._router.route(assignment, self._active)

    def advance_stream(self, budget: float) -> int:
        """Spend ``budget`` seconds of stream bandwidth; commit ready actions."""
        committed = 0
        while self._pending and budget > 0:
            entry = self._pending[0]
            if entry[0] > budget:
                entry[0] -= budget
                budget = 0.0
                break
            budget -= entry[0]
            for action in entry[1]:
                if self._cluster_state is not None:
                    # Elastic runs only: a commit obsoleted by an
                    # elasticity event (e.g. its source replica died with
                    # a device) is discarded — and undone on the target,
                    # preserving ``target == active + pending``. Static
                    # runs keep the loud failure — a bad commit there is
                    # a scheduler bug.
                    try:
                        action.apply(self._active)
                    except PlacementError:
                        self._revert_on_target(action)
                        self._dropped_actions += 1
                        continue
                else:
                    action.apply(self._active)
                committed += 1
            self._pending.popleft()
        self._committed_actions += committed
        return committed

    # ------------------------------------------------------------------
    # Elasticity
    # ------------------------------------------------------------------
    def _drop_pending_touching(self, gpus: frozenset[int]) -> int:
        """Discard queued actions referencing any of ``gpus`` (they died).

        Dropped actions were already applied to the TARGET placement when
        they were emitted; since they will now never commit, their effect
        on the target is undone too, restoring the invariant
        ``target == active + pending``. (Without this, dropping one half
        of a (Shrink, Expand) pair would leave the active placement
        permanently diverged from what the scheduler reasons about.)
        """
        dropped: list[PlacementAction] = []
        kept: deque[list] = deque()
        for work, actions in self._pending:
            remaining = tuple(
                a for a in actions if not gpus.intersection(action_gpus(a))
            )
            dropped.extend(
                a for a in actions if gpus.intersection(action_gpus(a))
            )
            if remaining:
                # The dropped transfers no longer consume stream
                # bandwidth; rescale the entry's remaining work so the
                # survivors are not delayed paying for them.
                work = work * len(remaining) / len(actions)
                kept.append([work, remaining])
        self._pending = kept
        for action in reversed(dropped):
            self._revert_on_target(action)
        self._dropped_actions += len(dropped)
        return len(dropped)

    def _find_pending_expand(
        self, expert: int | None, gpu: int, safe: Sequence[int]
    ) -> PlacementAction | None:
        """The first queued Expand onto ``gpu`` (of ``expert`` if given).

        Only expansions whose target-side replica still exists qualify:
        stealing one must actually free a slot when undone on the
        target, and a later queued action may have re-removed it. The
        victim must also keep at least one other replica on a safe
        device -- a steal that orphans another expert on the target just
        moves the revocation loss around.
        """
        for entry in self._pending:
            for action in entry[1]:
                if not (
                    isinstance(action, Expand)
                    and action.gpu == gpu
                    and (expert is None or action.expert == expert)
                    and self._target.count(action.expert, gpu) > 0
                ):
                    continue
                survivors = sum(
                    self._target.count(action.expert, g)
                    for g in safe
                    if g != gpu
                )
                if survivors + self._target.count(action.expert, gpu) - 1 > 0:
                    return action
        return None

    def _remove_pending_action(self, target: PlacementAction) -> None:
        """Drop one queued action from the stream (by identity).

        The entry's remaining transfer work is rescaled down like
        :meth:`_drop_pending_touching` so surviving actions are not
        delayed paying for the cancelled one.
        """
        for entry in self._pending:
            if target in entry[1]:
                before = len(entry[1])
                entry[1] = tuple(a for a in entry[1] if a is not target)
                entry[0] = entry[0] * len(entry[1]) / before
                return

    def _cancel_orphaning_shrinks(self, dead: frozenset[int]) -> None:
        """Cancel pending Shrinks that the failure turned into death traps.

        A queued Shrink of an expert's only live-device replica was a
        sound plan when emitted, but once the expert's other copies die
        with their devices, committing it would discard the last copy of
        the model states. Such Shrinks are removed from the stream and
        undone on the target, making the shrunk replica the expert's
        lifeline.
        """
        while True:
            counts = self._target.counts
            live_cols = [
                g for g in range(self._target.num_gpus) if g not in dead
            ]
            at_risk = set(np.flatnonzero(counts[:, live_cols].sum(axis=1) == 0))
            if not at_risk:
                return
            cancelled = False
            for entry in self._pending:
                for action in entry[1]:
                    if not (
                        isinstance(action, Shrink)
                        and action.expert in at_risk
                        and action.gpu not in dead
                    ):
                        continue
                    try:
                        self._target.add_vexpert(action.expert, action.gpu)
                    except PlacementError:
                        # Slot since reused -- usually by a queued Expand
                        # of some well-replicated expert. The lifeline
                        # outranks that plan: steal its slot if a victim
                        # with another safe replica exists, else try
                        # another shrink.
                        steal = self._find_pending_expand(
                            None, action.gpu, live_cols
                        )
                        if steal is None:
                            continue
                        self._remove_pending_action(steal)
                        self._revert_on_target(steal)
                        self._dropped_actions += 1
                        self._target.add_vexpert(action.expert, action.gpu)
                    entry[1] = tuple(a for a in entry[1] if a is not action)
                    self._dropped_actions += 1
                    cancelled = True
                    break
                if cancelled:
                    break
            if not cancelled:
                return  # remaining at-risk experts orphan; eviction raises

    def _revert_on_target(self, action: PlacementAction) -> None:
        """Best-effort inverse of ``action`` on the target placement.

        Reverts that have become impossible (later interleaved actions or
        the imminent eviction already account for the state) are skipped.
        """
        try:
            if isinstance(action, Expand):
                self._target.remove_vexpert(action.expert, action.gpu)
            elif isinstance(action, Shrink):
                self._target.add_vexpert(action.expert, action.gpu)
            elif isinstance(action, Migrate):
                self._target.swap_vexperts(
                    action.expert_a, action.gpu_b, action.expert_b, action.gpu_a
                )
        except PlacementError:
            pass

    def handle_failure(
        self, dead: tuple[int, ...], live: tuple[int, ...]
    ) -> float:
        """Evict this layer's experts off failed devices and re-home them.

        Eviction is immediate on BOTH placements -- routing to a dead
        device is never valid, so this is the one adjustment that cannot
        be best-effort. Replacement Expands rebuilding the lost replicas
        from surviving copies then ride the normal best-effort stream.

        Returns the blocking seconds charged to the step (non-zero only
        with ``best_effort=False``).

        Raises:
            ElasticityError: If an expert lost every replica (its model
                states are gone).
        """
        dead_set = frozenset(dead)
        self._drop_pending_touching(dead_set)
        self._cancel_orphaning_shrinks(dead_set)
        # Validate BOTH placements before mutating either, so an orphan
        # aborts the step without leaving the layer half-evicted.
        ensure_evictable(self._active, dead)
        ensure_evictable(self._target, dead)
        evict_failed_gpus(self._active, dead)
        lost = evict_failed_gpus(self._target, dead)
        floor = self._config.min_replicas
        if len(live) < floor:
            # Correlated revocations can shrink the pool below the
            # distinct-device replication floor; a floor the pool cannot
            # host must degrade (and be counted), not abort the run.
            floor = max(1, len(live))
            self._floor_degradations += 1
        rehome = plan_replacements(
            self._target,
            lost,
            live,
            profile=self._cost_model.profile,
            min_replicas=floor,
        )
        if not rehome:
            return 0.0
        apply_actions(self._target, list(rehome))
        return self._emit_actions(tuple(rehome))

    def handle_recovery(self, gpu: int) -> float:
        """Refill a recovered (empty) device with the hottest experts.

        The scheduler's Expand/Shrink pairs are slot-neutral per GPU and
        Migrate needs an exchange partner, so neither can populate an
        empty device on its own; the runtime seeds it with one replica of
        each highest per-replica-load expert (falling back to the least
        replicated experts before any assignment has been observed) and
        lets the normal scheduling loop refine from there. Transfers ride
        the best-effort stream.
        """
        free = self._target.free_slots(gpu)
        if free == 0:
            return 0.0
        replicas = self._target.replica_counts().astype(float)
        if self._last_assignment is not None:
            loads = self._last_assignment.sum(axis=1) / replicas
            order = np.argsort(-loads, kind="stable")
        else:
            order = np.argsort(replicas, kind="stable")
        profile = self._cost_model.profile
        actions: list[Expand] = []
        for expert in order:
            if len(actions) >= free:
                break
            expert = int(expert)
            if self._target.count(expert, gpu) > 0:
                continue
            holders = self._target.gpus_of(expert)
            source = max(holders, key=lambda h: profile.link_bandwidth(h, gpu))
            actions.append(Expand(expert=expert, gpu=gpu, source_gpu=int(source)))
        if not actions:
            return 0.0
        apply_actions(self._target, list(actions))
        return self._emit_actions(tuple(actions))

    def prepare_drain(
        self, doomed: tuple[int, ...], live: tuple[int, ...]
    ) -> float:
        """Re-home experts whose every replica sits on ``doomed`` devices.

        A spot revocation notice gives the runtime a window before the
        devices vanish. Orphan risk is judged against the ACTIVE
        placement -- the replicas whose model states actually exist --
        and every expert the revocation would orphan gets one
        replacement replica copied onto a safe live device NOW, applied
        to both placements immediately: an emergency copy racing the
        revocation deadline cannot ride the lazy best-effort stream.
        Sources and destinations must be valid on *both* placements (a
        source replica the target has pending-shrunk may vanish before
        the copy matters), which keeps the ``target == active +
        pending`` invariant intact without touching the queued stream.
        Returns the blocking seconds charged for the copies.
        """
        doomed_set = frozenset(doomed)
        safe = [g for g in live if g not in doomed_set]
        if not safe:
            return 0.0
        active_counts = self._active.counts_view
        at_risk = np.flatnonzero(active_counts[:, safe].sum(axis=1) == 0)
        if at_risk.size == 0:
            return 0.0
        profile = self._cost_model.profile
        actions: list[PlacementAction] = []
        for expert in at_risk:
            expert = int(expert)
            active_holders = self._active.gpus_of(expert)
            if not active_holders:
                continue
            best: tuple[float, int, int, PlacementAction | None] | None = (
                None
            )
            for dst in safe:
                if (
                    self._active.free_slots(dst) <= 0
                    or self._active.count(expert, dst) != 0
                ):
                    continue
                # A destination needs a TARGET slot too. Under heavy
                # churn the scheduler's refills often pack every target
                # slot with queued expansions; an emergency copy racing
                # a revocation outranks those plans, so it may steal the
                # slot of one queued Expand onto this device (preferring
                # the expert's own -- the copy supersedes it).
                steal: PlacementAction | None = None
                if self._target.count(expert, dst) > 0:
                    steal = self._find_pending_expand(expert, dst, safe)
                    if steal is None:
                        continue
                elif self._target.free_slots(dst) <= 0:
                    steal = self._find_pending_expand(None, dst, safe)
                    if steal is None:
                        continue
                for src in active_holders:
                    bandwidth = profile.link_bandwidth(src, dst)
                    if best is None or bandwidth > best[0]:
                        best = (bandwidth, int(src), int(dst), steal)
            if best is None:
                # Every safe device's ACTIVE slots are packed (small
                # residual pools under repeated churn). The last resort
                # evicts one redundant replica -- an expert keeping at
                # least one other safe replica on BOTH placements -- to
                # make room for the endangered states.
                swap = self._plan_emergency_eviction(
                    expert, active_holders, safe, profile
                )
                if swap is None:
                    continue
                src, dst, victim = swap
                shrink = Shrink(expert=victim, gpu=dst)
                shrink.apply(self._active)
                shrink.apply(self._target)
                actions.append(shrink)
            else:
                _, src, dst, steal = best
                if steal is not None:
                    self._remove_pending_action(steal)
                    self._revert_on_target(steal)
                    self._dropped_actions += 1
            action = Expand(expert=expert, gpu=dst, source_gpu=src)
            action.apply(self._active)
            # The active-side source may be a doomed device the target
            # has already written off (its states exist until the
            # deadline, so the physical copy is valid); the target-side
            # ledger only needs the replica booked at the destination.
            self._target.add_vexpert(expert, dst)
            actions.append(action)
        if not actions:
            return 0.0
        self._committed_actions += len(actions)
        return self._stream_work_seconds(tuple(actions))

    def _plan_emergency_eviction(
        self,
        expert: int,
        active_holders: Sequence[int],
        safe: Sequence[int],
        profile,
    ) -> tuple[int, int, int] | None:
        """Pick ``(src, dst, victim)`` for a drain swap onto a full device.

        The victim replica must exist at ``dst`` on both placements and
        its expert must keep at least one other safe-device replica on
        both -- evicting it frees a slot without endangering anyone.
        Among valid destinations the highest ``src -> dst`` bandwidth
        wins; among victims at one destination, the most replicated.
        """
        active = self._active.counts_view
        target = self._target.counts_view
        active_safe = active[:, safe].sum(axis=1)
        target_safe = target[:, safe].sum(axis=1)
        best: tuple[float, int, int, int] | None = None
        for dst in safe:
            if self._active.count(expert, dst) != 0:
                continue
            victims = [
                int(v)
                for v in np.flatnonzero(
                    (active[:, dst] > 0) & (target[:, dst] > 0)
                )
                if v != expert
                and active_safe[v] - 1 >= 1
                and target_safe[v] - 1 >= 1
            ]
            if not victims:
                continue
            victim = max(victims, key=lambda v: active_safe[v] + target_safe[v])
            for src in active_holders:
                bandwidth = profile.link_bandwidth(src, dst)
                if best is None or bandwidth > best[0]:
                    best = (bandwidth, int(src), int(dst), victim)
        if best is None:
            return None
        return best[1], best[2], best[3]


@dataclass
class PendingStep:
    """In-flight state of one engine step between its kernel phases.

    The step phases (:meth:`MultiLayerFlexMoEEngine.step_schedule` /
    ``step_execute`` / ``step_commit``) hand this object along; the
    legacy-shaped :meth:`MultiLayerFlexMoEEngine.step` runs all three
    back to back, while kernel scenarios fire them as separate TRIGGER /
    STEP / STREAM events on the shared clock.
    """

    step_index: int
    assignments: np.ndarray
    observed: np.ndarray
    outcomes: list = None
    blocking: float = 0.0
    plans: list = None
    timing: PipelineStepTiming = None


@dataclass(frozen=True)
class PipelineStepResult:
    """Per-step outcome of the multi-layer engine.

    Attributes:
        timing: Overlap-aware whole-transformer step timing.
        assigned_tokens: Tokens the gates of all layers wanted processed.
        processed_tokens: Tokens processed by their chosen experts (always
            equal to ``assigned_tokens`` — FlexMoE never drops).
        layer_gpu_loads: Tokens computed per GPU per layer ``(layers, gpus)``.
        layer_locality: Per-layer fraction of tokens that stayed local.
        layer_actions: Placement actions committed per layer this step.
        live_gpus: Devices alive during this step (equals the cluster
            size when no elasticity is configured).
    """

    timing: PipelineStepTiming
    assigned_tokens: int
    processed_tokens: int
    layer_gpu_loads: np.ndarray
    layer_locality: np.ndarray
    layer_actions: tuple[int, ...]
    live_gpus: int = -1

    @property
    def step_time(self) -> float:
        return self.timing.step_time

    @property
    def gpu_loads(self) -> np.ndarray:
        """Total tokens computed per GPU across layers."""
        return self.layer_gpu_loads.sum(axis=0)

    @property
    def token_efficiency(self) -> float:
        if self.assigned_tokens == 0:
            return 1.0
        return self.processed_tokens / self.assigned_tokens

    @property
    def expert_efficiency(self) -> float:
        """Mean-over-max GPU load across the whole step's expert compute."""
        loads = self.gpu_loads
        if loads.size == 0 or loads.max() == 0:
            return 1.0
        return float(loads.mean() / loads.max())

    @property
    def scheduling_actions(self) -> int:
        return sum(self.layer_actions)


class MultiLayerFlexMoEEngine:
    """FlexMoE over every MoE layer of the transformer, pipelined.

    Args:
        executor: Ground-truth single-layer executor (supplies topology,
            model, jitter stream and the communicator-group cache).
        profile: Noisy profiled figures for the per-layer schedulers.
        collectives: Ground-truth transfer timing for adjustment queues.
        num_moe_layers: MoE layers per step; defaults to the model's
            ``num_moe_layers``.
        scheduler_config: Shared scheduler knobs (each layer gets its own
            scheduler instance and placement state).
        overlap_efficiency: Fraction of each block's dense compute usable
            for hiding that layer's All-to-All.
        model_dense_compute: Model the dense transformer blocks; ``False``
            reduces the engine to stacked bare MoE layers (the seed
            engine's semantics).
        elasticity: Optional elasticity event stream. When given, the
            engine owns a shared :class:`ClusterState` (attached to the
            executor and every layer's cost model), applies due events at
            the start of each step, evicts/re-homes experts off failed
            devices, refills recovered ones, and re-shards dead devices'
            token batches over the survivors.
        trigger_factory: Builds one fresh
            :class:`~repro.core.trigger.Trigger` per layer, replacing the
            config-derived trigger in every layer's Scheduler. The online
            serving driver passes ``lambda: LatencyTrigger(...)`` here so
            scheduling fires on SLO pressure (see ``docs/serving.md``).
    """

    name = "FlexMoE-pipelined"

    def __init__(
        self,
        executor: StepExecutor,
        profile: ClusterProfile,
        collectives: CollectiveCostModel,
        num_moe_layers: int | None = None,
        scheduler_config: SchedulerConfig | None = None,
        overlap_efficiency: float = 1.0,
        model_dense_compute: bool = True,
        elasticity: ElasticitySchedule | None = None,
        trigger_factory: Callable[[], Trigger] | None = None,
    ) -> None:
        self._executor = executor
        self._profile = profile
        self._collectives = collectives
        self._scheduler_config = scheduler_config
        self._elasticity = elasticity
        state = executor.cluster_state
        if state is None and elasticity is not None:
            state = ClusterState(executor.topology.num_gpus)
            executor.cluster_state = state
        self._cluster_state = state
        self._event_log: list[tuple[int, ClusterEvent]] = []
        self._pending_event_blocking = 0.0
        self._elastic_applied_through = -1
        self._pipe = PipelinedStepExecutor(
            executor,
            num_moe_layers=num_moe_layers,
            overlap_efficiency=overlap_efficiency,
            model_dense_compute=model_dense_compute,
        )
        self._layers = [
            LayerPipeline(
                model=executor.model,
                topology=executor.topology,
                profile=profile,
                collectives=collectives,
                scheduler_config=scheduler_config,
                group_cache=executor.group_cache,
                layer_index=index,
                cluster_state=state,
                trigger=trigger_factory() if trigger_factory is not None else None,
                inference=executor.inference,
            )
            for index in range(self._pipe.num_moe_layers)
        ]
        self._steps_run = 0

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_moe_layers(self) -> int:
        return len(self._layers)

    @property
    def layers(self) -> tuple[LayerPipeline, ...]:
        return tuple(self._layers)

    @property
    def pipelined_executor(self) -> PipelinedStepExecutor:
        return self._pipe

    def layer(self, index: int) -> LayerPipeline:
        return self._layers[index]

    def placements(self) -> tuple[Placement, ...]:
        """Active per-layer placements, in layer order."""
        return tuple(layer.active_placement for layer in self._layers)

    def placement_signatures(self) -> tuple[bytes, ...]:
        """Per-layer placement snapshots (for divergence checks)."""
        return tuple(layer.active_placement.signature() for layer in self._layers)

    def distinct_placements(self) -> int:
        """Number of distinct active placements across layers."""
        return len(set(self.placement_signatures()))

    def delta_fallbacks(self) -> int:
        """Total delta-evaluator fallbacks to full recomputation across
        every layer's Policy Maker and Migrate planner (0 when the
        reference evaluator is configured). The perf harness gates on
        this staying zero."""
        total = 0
        for layer in self._layers:
            scheduler = layer.scheduler
            for evaluator in (
                scheduler.policy.delta,
                scheduler.migration.delta,
            ):
                if evaluator is not None:
                    total += evaluator.fallbacks
        return total

    @property
    def cluster_state(self) -> ClusterState | None:
        """Shared live view of the device pool (``None`` when static)."""
        return self._cluster_state

    @property
    def elasticity(self) -> ElasticitySchedule | None:
        return self._elasticity

    @property
    def event_log(self) -> tuple[tuple[int, ClusterEvent], ...]:
        """Elasticity events applied so far, as ``(step, event)`` pairs."""
        return tuple(self._event_log)

    @property
    def committed_actions(self) -> int:
        """Placement actions committed to the ACTIVE placements so far,
        summed across layers -- regardless of whether the commit happened
        in-step or through an external stream-budget grant."""
        return sum(layer.committed_actions for layer in self._layers)

    @property
    def floor_degradations(self) -> int:
        """Re-home rounds (across layers) where the live pool was below
        the ``min_replicas`` floor and planning degraded to pool size."""
        return sum(layer.floor_degradations for layer in self._layers)

    def observe_serving_signals(
        self,
        p99_latency: float | None = None,
        queue_tokens: float | None = None,
        slo_attainment: float | None = None,
    ) -> None:
        """Push the latest serving signals to every layer's Scheduler.

        The serving engine calls this before each batch so the layers'
        :class:`~repro.core.trigger.LatencyTrigger` instances (and any
        capacity controller probing the schedulers) see the current
        rolling p99 latency, admission-queue depth and SLO attainment.
        Training runs never call it.
        """
        for layer in self._layers:
            layer.scheduler.observe_serving_signals(
                p99_latency=p99_latency,
                queue_tokens=queue_tokens,
                slo_attainment=slo_attainment,
            )

    # ------------------------------------------------------------------
    # Elasticity
    # ------------------------------------------------------------------
    def apply_elasticity(self, step_index: int) -> None:
        """Apply the engine's schedule due at ``step_index`` (idempotent).

        A high-water mark makes double delivery harmless: when a kernel
        scenario fires the same step's elasticity as an explicit FAILURE
        event, the schedule phase's just-in-time call becomes a no-op --
        and without such a source, the schedule phase still applies the
        events exactly as the retired internal loop did.
        """
        if self._elasticity is None:
            return
        if step_index <= self._elastic_applied_through:
            return
        self._elastic_applied_through = step_index
        events = self._elasticity.events_at(step_index)
        if events:
            self.apply_cluster_events(events, when=step_index)

    def apply_cluster_events(
        self, events: tuple[ClusterEvent, ...] | list[ClusterEvent], when: float
    ) -> None:
        """Apply cluster events now: update the pool, evict/re-home, refill.

        ``when`` only labels the event log (a step index for step-keyed
        schedules, simulated seconds for time-keyed scenario sources).
        Blocking seconds from evictions/refills accumulate and charge to
        the next step's schedule phase.
        """
        state = self._cluster_state
        if state is None:
            raise SimulationError(
                "engine has no cluster state; construct it with elasticity "
                "(an empty ElasticitySchedule suffices) to apply events"
            )
        failed: list[int] = []
        recovered: list[int] = []
        for event in events:
            if event.kind in ("fail", "revoke"):
                if not state.is_alive(event.gpu):
                    continue  # redundant event; the device is already gone
                state.fail(event.gpu)
                failed.append(event.gpu)
            elif event.kind == "recover":
                if state.is_alive(event.gpu):
                    continue
                state.recover(event.gpu)
                recovered.append(event.gpu)
            elif event.kind == "provision":
                if state.is_alive(event.gpu):
                    continue
                state.provision(event.gpu, event.factor)
                recovered.append(event.gpu)
            elif event.kind == "slowdown":
                state.set_speed(event.gpu, event.factor)
            else:  # "restore"
                state.set_speed(event.gpu, 1.0)
            self._event_log.append((when, event))
        blocking = 0.0
        if failed:
            live = state.live_gpus()
            for layer in self._layers:
                blocking += layer.handle_failure(tuple(failed), live)
        for gpu in recovered:
            for layer in self._layers:
                blocking += layer.handle_recovery(gpu)
        self._pending_event_blocking += blocking

    def notify_revocation(self, gpus: tuple[int, ...] | list[int]) -> float:
        """React inside a revocation-notice window: drain ``gpus`` NOW.

        Every layer copies would-be-orphaned experts off the noticed
        devices onto safe live ones before the revocation lands, so the
        later ``revoke`` events find nothing irreplaceable. The copies
        run on the adjustment fabric concurrently with serving -- the
        notice window exists precisely to absorb them -- so they are NOT
        charged as synchronous serving blocking; the fabric seconds they
        consume are returned for the caller's drain accounting.
        """
        state = self._cluster_state
        if state is None:
            raise SimulationError(
                "engine has no cluster state; revocation notices need an "
                "elastic engine"
            )
        doomed = tuple(int(g) for g in gpus if state.is_alive(int(g)))
        if not doomed:
            return 0.0
        live = state.live_gpus()
        blocking = 0.0
        for layer in self._layers:
            blocking += layer.prepare_drain(doomed, live)
        return blocking

    # ------------------------------------------------------------------
    # Step (three kernel-hostable phases; ``step`` composes them)
    # ------------------------------------------------------------------
    def step_schedule(
        self,
        assignments: np.ndarray,
        step_index: int,
        scheduling_assignments: np.ndarray | None = None,
    ) -> PendingStep:
        """The schedule phase (kernel priority TRIGGER).

        Applies any still-pending elasticity for ``step_index``,
        re-shards dead devices' batch shards over the survivors, and runs
        every layer's monitoring loop: the Scheduler observes its
        assignment (or the caller's smoothed scheduling view) and emits
        actions into its best-effort stream.
        """
        assignments = np.asarray(assignments)
        if assignments.ndim != 3 or assignments.shape[0] != len(self._layers):
            raise SimulationError(
                f"assignments must be ({len(self._layers)}, experts, gpus); "
                f"got {assignments.shape}"
            )
        if scheduling_assignments is not None:
            scheduling_assignments = np.asarray(scheduling_assignments)
            if scheduling_assignments.shape != assignments.shape:
                raise SimulationError(
                    "scheduling_assignments must match assignments' shape "
                    f"{assignments.shape}; got {scheduling_assignments.shape}"
                )

        # Elasticity due at this step (no-op when an ElasticitySource on
        # the kernel already delivered it at FAILURE priority).
        if self._elasticity is not None:
            self.apply_elasticity(step_index)
        state = self._cluster_state
        if state is not None:
            live = state.live_view()
            if not live.all():
                # One vectorized re-shard across the whole layer stack
                # instead of a Python call per layer.
                assignments = redistribute_assignments(assignments, live)
                if scheduling_assignments is not None:
                    scheduling_assignments = redistribute_assignments(
                        scheduling_assignments, live
                    )

        observed = (
            assignments
            if scheduling_assignments is None
            else scheduling_assignments
        )
        blocking = self._pending_event_blocking
        self._pending_event_blocking = 0.0
        outcomes = []
        tel = telemetry.current()
        for index, (layer, assignment) in enumerate(
            zip(self._layers, observed)
        ):
            layer_blocking, outcome = layer.begin_step(assignment, step_index)
            blocking += layer_blocking
            outcomes.append(outcome)
            if tel is not None and outcome.triggered:
                self._observe_trigger(tel, index, step_index, outcome)
        return PendingStep(
            step_index=step_index,
            assignments=assignments,
            observed=observed,
            outcomes=outcomes,
            blocking=blocking,
        )

    def _observe_trigger(
        self, tel, layer_index: int, step_index: int, outcome
    ) -> None:
        """Telemetry tap: a layer's trigger fired. Records the firing
        and each Migrate/Expand/Shrink placement on the control-plane
        decision timeline (stamped with the bound simulation clock),
        plus per-kind action counters."""
        now = tel.now(default=float(step_index))
        subject = f"layer[{layer_index}]"
        registry = tel.registry
        registry.counter("scheduler.triggers").inc()
        tel.decision(
            now,
            "trigger",
            subject,
            step=step_index,
            actions=len(outcome.actions),
        )
        for action in outcome.actions:
            if isinstance(action, Migrate):
                kind, detail = "migrate", {
                    "expert_a": int(action.expert_a),
                    "gpu_a": int(action.gpu_a),
                    "expert_b": int(action.expert_b),
                    "gpu_b": int(action.gpu_b),
                }
            elif isinstance(action, Expand):
                kind, detail = "expand", {
                    "expert": int(action.expert),
                    "gpu": int(action.gpu),
                }
            elif isinstance(action, Shrink):
                kind, detail = "shrink", {
                    "expert": int(action.expert),
                    "gpu": int(action.gpu),
                }
            else:  # pragma: no cover - no other primitives today
                kind, detail = type(action).__name__.lower(), {}
            registry.counter("scheduler.actions", kind=kind).inc()
            tel.decision(now, kind, subject, step=step_index, **detail)

    def step_execute(self, pending: PendingStep) -> PipelineStepTiming:
        """The execute phase (kernel priority STEP).

        Routes every layer over its ACTIVE placement and plays the
        pipelined whole-transformer step.
        """
        pending.plans = [
            layer.route(assignment)
            for layer, assignment in zip(self._layers, pending.assignments)
        ]
        pending.timing = self._pipe.execute(
            [plan.traffic for plan in pending.plans],
            [layer.active_placement for layer in self._layers],
            adjustment_blocking=pending.blocking,
        )
        return pending.timing

    def step_commit(
        self, pending: PendingStep, stream_budget: float | None = None
    ) -> PipelineStepResult:
        """The commit phase (kernel priority STREAM).

        The best-effort adjustment streams receive ``stream_budget``
        seconds of transfer time (default: the whole step's duration,
        the retired loop's behaviour) and ready actions commit to the
        active placements. Scenarios metering migration bandwidth pass
        ``0.0`` here and grant budget through
        :meth:`advance_streams` from an explicit budget source instead.
        """
        if pending.timing is None:
            raise SimulationError(
                "step_commit called before step_execute for step "
                f"{pending.step_index}"
            )
        budget = (
            pending.timing.step_time if stream_budget is None else stream_budget
        )
        committed = tuple(
            layer.advance_stream(budget)
            if layer.config.best_effort
            else len(outcome.actions)
            for layer, outcome in zip(self._layers, pending.outcomes)
        )

        assigned = int(pending.assignments.sum())
        state = self._cluster_state
        self._steps_run += 1
        return PipelineStepResult(
            timing=pending.timing,
            assigned_tokens=assigned,
            processed_tokens=assigned,
            layer_gpu_loads=np.stack(
                [plan.gpu_loads for plan in pending.plans]
            ),
            layer_locality=np.array(
                [plan.locality_fraction for plan in pending.plans]
            ),
            layer_actions=committed,
            live_gpus=(
                state.num_live if state is not None
                else self._executor.topology.num_gpus
            ),
        )

    def advance_streams(self, budget: float) -> int:
        """Grant ``budget`` seconds of bandwidth to every best-effort
        stream; returns the placement actions that committed."""
        if budget < 0:
            raise SimulationError("stream budget must be >= 0")
        return sum(
            layer.advance_stream(budget)
            for layer in self._layers
            if layer.config.best_effort
        )

    def step(
        self,
        assignments: np.ndarray,
        step_index: int,
        scheduling_assignments: np.ndarray | None = None,
    ) -> PipelineStepResult:
        """Process one training step's gate assignments for all layers.

        Composes the three phases back to back -- exactly what a kernel
        scenario does when no other source interleaves, so the two paths
        are decision- and metric-identical by construction.

        Args:
            assignments: Integer tensor ``(layers, experts, gpus)`` — one
                gate assignment matrix ``I`` per MoE layer.
            step_index: Monotone step counter (drives static triggers).
            scheduling_assignments: Optional separate view the schedulers
                observe instead of ``assignments`` (same shape; floats
                allowed). Execution always uses ``assignments``. The
                serving engine passes a smoothed popularity estimate here
                so placement chases the demand *trend*, not one
                micro-batch's sampling noise.
        """
        pending = self.step_schedule(
            assignments, step_index, scheduling_assignments
        )
        self.step_execute(pending)
        return self.step_commit(pending)


def build_engine(
    cluster: ClusterConfig,
    model: MoEModelConfig,
    num_moe_layers: int | None = None,
    scheduler_config: SchedulerConfig | None = None,
    overlap_efficiency: float = 1.0,
    model_dense_compute: bool = True,
    seed: int = 0,
    profile_noise: float = 0.02,
    jitter: float = 0.02,
    elasticity: ElasticitySchedule | None = None,
    trigger_factory: Callable[[], Trigger] | None = None,
    inference: bool = False,
    initial_live: int | None = None,
) -> MultiLayerFlexMoEEngine:
    """Construct a multi-layer engine with a fresh simulated substrate.

    Delegates to :func:`repro.baselines.base.build_context`, so the same
    seeds produce exactly the same profiled figures and jitter stream as
    the single-layer systems. When ``elasticity`` is given (or the
    cluster is statically heterogeneous) and no scheduler config is
    supplied, the default config enables the speed-aware balance trigger
    so scheduling reacts to *time* imbalance on the degraded pool.
    """
    from repro.baselines.base import build_context

    context = build_context(
        cluster,
        model,
        seed=seed,
        profile_noise=profile_noise,
        jitter=jitter,
        cluster_state=(
            ClusterState(cluster.num_gpus, initial_live=initial_live)
            if elasticity is not None
            else None
        ),
        inference=inference,
    )
    if scheduler_config is None and (
        elasticity is not None or cluster.compute_scales is not None
    ):
        scheduler_config = SchedulerConfig(
            speed_aware_balance=True,
            min_replicas=2 if elasticity is not None else 1,
        )
    return MultiLayerFlexMoEEngine(
        executor=context.executor,
        profile=context.profile,
        collectives=context.collectives,
        num_moe_layers=num_moe_layers,
        scheduler_config=scheduler_config,
        overlap_efficiency=overlap_efficiency,
        model_dense_compute=model_dense_compute,
        elasticity=elasticity,
        trigger_factory=trigger_factory,
    )

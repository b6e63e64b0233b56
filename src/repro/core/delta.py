"""Incremental (delta) step-cost evaluation for the placement search.

The Policy Maker (Algorithm 2) and the Migrate planner score hundreds of
candidate placements per scheduling round, and every candidate differs from
the base placement in at most two experts' replica sets.  The full
evaluator re-derives everything per candidate: it copies the E x D count
matrix, re-solves the router's fractional relaxation for *all* experts and
re-prices every replica group's AllReduce.  This module exploits the
structure instead:

* routing is separable per expert — expert ``e``'s fractional routes depend
  only on its own assignment row and its own replica row;
* the cost terms of Eq. 5 are sums of per-expert contributions — per-GPU
  compute tokens, per-destination All-to-All seconds and per-group sync
  seconds all add up linearly over experts.

:class:`DeltaStepCost` therefore caches, for a base ``(assignment,
placement)`` configuration, each expert's contribution vectors plus their
per-GPU aggregates.  Scoring a candidate then costs re-routing only the
changed experts and adjusting the aggregates — O(changed experts * D) work
with tiny constants — instead of O(E * D^2).  Two query shapes cover both
searchers:

* :meth:`pair_candidate_times` — batch-scores every shrink GPU of one
  (Shrink e1, Expand e0) pair in a single vectorized pass (the Policy
  Maker's inner loop);
* :meth:`exchange_candidate_times` — batch-scores every vExpert exchange
  of one Migrate planner pass;
* :meth:`trial_time` — scores an arbitrarily mutated trial placement
  given the set of changed experts; the single-candidate what-if API for
  custom planners, driven through
  :meth:`~repro.core.placement.Placement.trial`.

The evaluator matches the full evaluator
(:class:`~repro.core.cost_model.MemoizedStepCost`) to float tolerance
(``tests/test_delta_cost.py``), and the searches built on it propose
exactly the decisions of the copy-per-candidate search over the full
evaluator, which is kept test-side (``tests/search_oracle.py``,
``tests/test_policy_delta_equivalence.py``).  Lazily profiled AllReduce
groups are probed in the same first-seen order as
:meth:`~repro.core.cost_model.MoECostModel.sync_times` (ascending expert,
candidates in enumeration order), so noisy profiles stay bit-identical
between the delta search and that oracle.

If a query arrives against a configuration the cached base no longer
matches (different placement object, or the device pool changed under an
elasticity event mid-search), the evaluator falls back to a full
recomputation and counts it in :attr:`fallbacks` — the perf smoke gate
(``python -m repro perf --smoke``) fails when the hot path ever takes that
exit.
"""

from __future__ import annotations

import numpy as np

from repro.core.cost_model import MoECostModel
from repro.core.placement import Placement
from repro.exceptions import RoutingError, SchedulingError


class DeltaStepCost:
    """Incremental what-if evaluator over a cached base configuration.

    Args:
        cost_model: Profiled cost model (Eqs. 5, 7-9) supplying TPS,
            bandwidth, AllReduce BPS and the live device pool.
        audit: When true, every delta evaluation is cross-checked against a
            full recomputation and a mismatch beyond float tolerance raises
            :class:`~repro.exceptions.SchedulingError`.  Test/debug knob —
            it re-introduces the O(E * D^2) cost per candidate.
    """

    #: Relative tolerance of the audit cross-check.
    AUDIT_RTOL = 1e-9

    def __init__(self, cost_model: MoECostModel, audit: bool = False) -> None:
        self._cost_model = cost_model
        self._audit = audit
        # Implicit fabric: the All-to-All aggregation runs through the
        # node-blocked model in O(G) per row, no G x G inverse matrix.
        self._bw = cost_model.profile.bandwidth_model()
        # Instance-level factors so inference-shaped cost models (two
        # A2A passes, no gradient sync) price deltas consistently.
        self._a2a_factor = cost_model.a2a_passes * cost_model.model.token_bytes
        self._grad_bytes = cost_model.sync_bytes
        # Membership -> AllReduce seconds; the profile never re-prices a
        # group, so entries stay valid for this evaluator's lifetime.
        self._sync_seconds: dict[bytes, float] = {}
        # Base state (populated by rebase()).
        self._placement: Placement | None = None
        self._placement_version = -1
        self._state_version = -1
        self._assignment: np.ndarray | None = None
        self._totals: np.ndarray | None = None
        self._counts: np.ndarray | None = None
        self._eff_tps: np.ndarray | None = None
        self._arrivals: np.ndarray | None = None
        self._a2a: np.ndarray | None = None
        self._sync: np.ndarray | None = None
        self._base_tokens: np.ndarray | None = None
        self._base_a2a: np.ndarray | None = None
        self._base_sync: np.ndarray | None = None
        self._base_time = 0.0
        # Accounting surfaced by the perf harness.
        self.rebases = 0
        self.evaluations = 0
        self.fallbacks = 0

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def cost_model(self) -> MoECostModel:
        return self._cost_model

    @property
    def base_time(self) -> float:
        """Step time of the configuration cached by the last rebase."""
        return self._base_time

    def stats(self) -> dict[str, float]:
        """Counter snapshot for bench reporting and the perf smoke gate."""
        return {
            "rebases": float(self.rebases),
            "evaluations": float(self.evaluations),
            "fallbacks": float(self.fallbacks),
        }

    # ------------------------------------------------------------------
    # Per-expert contribution math (mirrors FlexibleTokenRouter
    # .route_fractional and MoECostModel term by term)
    # ------------------------------------------------------------------
    def _route_stats(
        self, demand: np.ndarray, totals: np.ndarray, counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Arrival and All-to-All contribution of expert rows.

        Vectorized over an arbitrary leading batch axis: ``demand`` and
        ``counts`` are ``(..., G)`` rows, ``totals`` the matching ``(...)``
        row sums.  Returns ``(arrivals, a2a_seconds)`` of shape ``(..., G)``
        where ``arrivals`` are tokens landing on each GPU and
        ``a2a_seconds`` the per-destination All-to-All seconds (Eq. 8)
        contributed by these experts.
        """
        counts = counts.astype(float, copy=False)
        replicas = counts.sum(axis=-1)
        per_replica = np.divide(
            totals, replicas, out=np.zeros_like(replicas, dtype=float),
            where=replicas > 0,
        )
        capacity = counts * per_replica[..., None]
        local = np.minimum(demand, capacity)
        spill = demand - local
        avail = capacity - local
        avail_totals = avail.sum(axis=-1)
        weights = np.divide(
            avail,
            avail_totals[..., None],
            out=np.zeros_like(avail),
            where=avail_totals[..., None] > 0,
        )
        arrivals = local + spill.sum(axis=-1)[..., None] * weights
        # Off-diagonal flow of the spill outer product: destination d
        # receives spill[s] * weights[d] tokens from every source s != d.
        inflow = self._bw.inv_offdiag_apply(spill)
        a2a = self._a2a_factor * weights * inflow
        return arrivals, a2a

    def _sync_row(self, counts_row: np.ndarray) -> np.ndarray:
        """Per-GPU sync seconds (Eq. 9) contributed by one expert row.

        Sync seconds are memoized per membership (the member ids' bytes:
        the group, at O(group) key size). A miss prices the group through
        the profile's lazy AllReduce cache, so first-seen probes keep the
        full evaluator's order; a hit is a group the profile already
        holds, so skipping the call draws no noise.
        """
        members = counts_row.nonzero()[0]
        sync = np.zeros(counts_row.shape[-1])
        if self._grad_bytes and members.size > 1:
            key = members.tobytes()
            seconds = self._sync_seconds.get(key)
            if seconds is None:
                bps = self._cost_model.profile.allreduce_bps(
                    tuple(members.tolist())
                )
                seconds = self._grad_bytes / bps
                self._sync_seconds[key] = seconds
            sync[members] = seconds
        return sync

    def _totals_to_time(
        self, tokens: np.ndarray, a2a: np.ndarray, sync: np.ndarray
    ):
        """Eq. 5 from per-GPU aggregates (batched over a leading axis)."""
        per_gpu = tokens / self._eff_tps + a2a + sync
        return per_gpu.max(axis=-1)

    # ------------------------------------------------------------------
    # Base construction
    # ------------------------------------------------------------------
    def rebase(self, assignment: np.ndarray, placement: Placement) -> float:
        """Cache the base configuration; returns its modelled step time.

        Call once per scheduling round (or whenever the placement or
        assignment changes); every subsequent what-if query is evaluated
        as a delta against this base.
        """
        demand = np.ascontiguousarray(assignment, dtype=float)
        if demand is assignment:
            # Snapshot, never alias: the incremental path below compares
            # the next rebase's assignment against this one, which must
            # see the values as passed even if the caller mutates theirs.
            demand = demand.copy()
        if demand.ndim != 2 or demand.shape != (
            placement.num_experts,
            placement.num_gpus,
        ):
            raise RoutingError(
                f"assignment shape {demand.shape} does not match placement "
                f"({placement.num_experts}, {placement.num_gpus})"
            )
        if (demand < 0).any():
            raise RoutingError("token counts must be non-negative")
        counts = placement.counts
        num_experts, num_gpus = demand.shape
        # Route and sync rows are separable per expert, so a re-rebase
        # against the SAME assignment (the planners rebase once per
        # candidate move within a scheduling round) recomputes only the
        # rows whose counts changed and patches the per-GPU aggregates by
        # those rows' deltas — O(changed experts * G) total, independent
        # of E.  Unchanged rows' sync groups are already in the profile's
        # BPS cache, so the lazy-probe order (ascending expert over
        # changed rows) is identical to the full evaluator's
        # ascending pass.
        prev_counts, prev_sync = self._counts, self._sync
        rows_cached = (
            prev_sync is not None
            and prev_counts is not None
            and prev_counts.shape == counts.shape
        )
        if (
            rows_cached
            and self._arrivals is not None
            and np.array_equal(self._assignment, demand)
        ):
            totals = self._totals
            changed = np.flatnonzero((counts != prev_counts).any(axis=1))
            arrivals, a2a, sync = self._arrivals, self._a2a, prev_sync
            if changed.size:
                new_arr, new_a2a = self._route_stats(
                    demand[changed], totals[changed], counts[changed]
                )
                self._base_tokens += new_arr.sum(axis=0) - arrivals[
                    changed
                ].sum(axis=0)
                self._base_a2a += new_a2a.sum(axis=0) - a2a[changed].sum(
                    axis=0
                )
                arrivals[changed] = new_arr
                a2a[changed] = new_a2a
                for expert in changed:
                    row = self._sync_row(counts[expert])
                    self._base_sync += row - sync[expert]
                    sync[expert] = row
        else:
            totals = demand.sum(axis=1)
            arrivals, a2a = self._route_stats(demand, totals, counts)
            if rows_cached:
                sync = prev_sync
                for expert in np.flatnonzero(
                    (counts != prev_counts).any(axis=1)
                ):
                    sync[expert] = self._sync_row(counts[expert])
            else:
                sync = np.zeros((num_experts, num_gpus))
                for expert in range(num_experts):
                    sync[expert] = self._sync_row(counts[expert])
            self._base_tokens = arrivals.sum(axis=0)
            self._base_a2a = a2a.sum(axis=0)
            self._base_sync = sync.sum(axis=0)
        self._placement = placement
        self._placement_version = placement.version
        self._state_version = self._cost_model.state_version
        self._assignment = demand
        self._totals = totals
        self._counts = counts
        self._eff_tps = self._cost_model.effective_tps()
        self._arrivals = arrivals
        self._a2a = a2a
        self._sync = sync
        self._base_time = float(
            self._totals_to_time(
                self._base_tokens, self._base_a2a, self._base_sync
            )
        )
        self.rebases += 1
        return self._base_time

    def _base_matches(self, placement: Placement, trial: bool) -> bool:
        """Whether the cached base still describes ``placement``'s base.

        During a trial the version has legitimately advanced past the
        base's (the caller vouches for the changed-expert set); outside a
        trial the versions must agree exactly.
        """
        if self._placement is not placement:
            return False
        if self._cost_model.state_version != self._state_version:
            return False
        return trial or placement.version == self._placement_version

    def _require_base(self, placement: Placement) -> None:
        """Ensure the cached base matches ``placement`` before a batched
        sweep; a stale base is rebuilt (for the assignment of the last
        rebase) and counted as a fallback — the slow path the perf smoke
        gate requires to stay unused."""
        if self._base_matches(placement, trial=False):
            return
        self.fallbacks += 1
        if self._assignment is None or self._assignment.shape != (
            placement.num_experts,
            placement.num_gpus,
        ):
            raise SchedulingError(
                "DeltaStepCost has no base for this placement: call "
                "rebase() before querying candidates"
            )
        self.rebase(self._assignment, placement)

    # ------------------------------------------------------------------
    # What-if queries
    # ------------------------------------------------------------------
    def pair_candidate_times(
        self,
        placement: Placement,
        expand_expert: int,
        shrink_expert: int,
        gpus: np.ndarray,
    ) -> np.ndarray:
        """Batch-score (Shrink ``shrink_expert``@g, Expand
        ``expand_expert``@g) for every g in ``gpus``.

        ``placement`` must be the *unmodified* base placement; the
        candidate mutation (one vExpert of the shrink expert replaced by
        one of the expand expert on the same GPU) is applied arithmetically
        to the cached rows, never to the placement.  Returns the modelled
        step times, one per candidate GPU.
        """
        gpus = np.asarray(gpus, dtype=np.int64)
        if gpus.size == 0:
            return np.zeros(0)
        if expand_expert == shrink_expert:
            raise SchedulingError("expand and shrink experts must differ")
        self._require_base(placement)
        onehot = np.zeros((gpus.size, placement.num_gpus), dtype=np.int64)
        onehot[np.arange(gpus.size), gpus] = 1
        row0 = self._counts[expand_expert] + onehot
        row1 = self._counts[shrink_expert] - onehot
        if (row1 < 0).any():
            raise SchedulingError(
                f"expert {shrink_expert} holds no vExpert on one of {gpus}"
            )
        arr0, a2a0 = self._route_stats(
            self._assignment[expand_expert],
            self._totals[expand_expert],
            row0,
        )
        arr1, a2a1 = self._route_stats(
            self._assignment[shrink_expert],
            self._totals[shrink_expert],
            row1,
        )
        tokens = (
            self._base_tokens
            - self._arrivals[expand_expert]
            - self._arrivals[shrink_expert]
            + arr0
            + arr1
        )
        a2a = (
            self._base_a2a
            - self._a2a[expand_expert]
            - self._a2a[shrink_expert]
            + a2a0
            + a2a1
        )
        sync_base = (
            self._base_sync
            - self._sync[expand_expert]
            - self._sync[shrink_expert]
        )
        sync = np.empty_like(tokens)
        # Expanding onto a holder, or shrinking one of several copies on
        # a GPU, leaves the replica group (and its base sync row) as is.
        rows = {
            expand_expert: (row0, self._counts[expand_expert, gpus] > 0),
            shrink_expert: (row1, self._counts[shrink_expert, gpus] > 1),
        }
        lo, hi = sorted(rows)

        def sync_row(expert: int, i: int) -> np.ndarray:
            row, kept = rows[expert]
            return self._sync[expert] if kept[i] else self._sync_row(row[i])

        for i in range(gpus.size):
            # Ascending-expert probe order matches the full
            # evaluator's sync_times pass on the same candidate.
            sync[i] = sync_base + sync_row(lo, i) + sync_row(hi, i)
        times = self._totals_to_time(tokens, a2a, sync)
        self.evaluations += gpus.size
        if self._audit:
            for i, gpu in enumerate(gpus):
                self._audit_check(
                    float(times[i]),
                    {expand_expert: row0[i], shrink_expert: row1[i]},
                )
        return times

    def exchange_candidate_times(
        self,
        placement: Placement,
        pairs: np.ndarray,
    ) -> np.ndarray:
        """Batch-score vExpert exchanges (the Migrate planner's sweep).

        ``pairs`` is an integer matrix ``(candidates, 4)`` of
        ``(expert_a, gpu_a, expert_b, gpu_b)`` rows, each describing one
        exchange of a vExpert of ``expert_a``@``gpu_a`` with one of
        ``expert_b``@``gpu_b``.  The caller guarantees validity (both
        cells hold a vExpert, the experts differ, the GPUs differ);
        ``placement`` must be the unmodified base placement — candidates
        are applied arithmetically to the cached rows, never to it.

        Returns the modelled step time per candidate.  Replica groups that
        a candidate leaves unchanged reuse the base sync pricing; new
        groups are probed in candidate order, ascending expert within a
        candidate — the same first-seen order as the full evaluator.
        """
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.size == 0:
            return np.zeros(0)
        self._require_base(placement)
        ea, ga, eb, gb = pairs.T
        num = pairs.shape[0]
        idx = np.arange(num)
        rows_a = self._counts[ea].copy()
        rows_a[idx, ga] -= 1
        rows_a[idx, gb] += 1
        rows_b = self._counts[eb].copy()
        rows_b[idx, gb] -= 1
        rows_b[idx, ga] += 1
        if (rows_a < 0).any() or (rows_b < 0).any():
            raise SchedulingError("exchange candidate references an empty cell")
        arr_a, a2a_a = self._route_stats(
            self._assignment[ea], self._totals[ea], rows_a
        )
        arr_b, a2a_b = self._route_stats(
            self._assignment[eb], self._totals[eb], rows_b
        )
        tokens = (
            self._base_tokens
            - self._arrivals[ea]
            - self._arrivals[eb]
            + arr_a
            + arr_b
        )
        a2a = (
            self._base_a2a - self._a2a[ea] - self._a2a[eb] + a2a_a + a2a_b
        )
        sync = np.broadcast_to(self._base_sync, tokens.shape).copy()
        # Membership (and hence the sync group) changes only when the
        # exchange removes a last copy or lands on a fresh device.
        changed_a = (self._counts[ea, ga] == 1) | (self._counts[ea, gb] == 0)
        changed_b = (self._counts[eb, gb] == 1) | (self._counts[eb, ga] == 0)
        for i in range(num):
            first = (int(ea[i]), rows_a[i], changed_a[i])
            second = (int(eb[i]), rows_b[i], changed_b[i])
            if first[0] > second[0]:
                first, second = second, first
            for expert, row, changed in (first, second):
                if changed:
                    sync[i] += self._sync_row(row) - self._sync[expert]
        times = self._totals_to_time(tokens, a2a, sync)
        self.evaluations += num
        if self._audit:
            for i in range(num):
                self._audit_check(
                    float(times[i]),
                    {int(ea[i]): rows_a[i], int(eb[i]): rows_b[i]},
                )
        return times

    def trial_time(
        self, placement: Placement, changed: tuple[int, ...]
    ) -> float:
        """Step time of a trial-mutated placement.

        ``placement`` is the base placement mutated inside an open
        :meth:`~repro.core.placement.Placement.trial`; ``changed`` names
        every expert whose replica row differs from the base (at most a
        handful for any primitive).  Experts outside ``changed`` are
        assumed untouched — that is the caller's contract, checked in
        audit mode.
        """
        if not self._base_matches(placement, trial=True):
            self.fallbacks += 1
            return self._full_time(placement)
        changed = tuple(sorted(set(int(e) for e in changed)))
        tokens = self._base_tokens.copy()
        a2a = self._base_a2a.copy()
        sync = self._base_sync.copy()
        rows: dict[int, np.ndarray] = {}
        for expert in changed:
            row = placement.row(expert)
            rows[expert] = row
            arr, aa = self._route_stats(
                self._assignment[expert], self._totals[expert], row
            )
            tokens += arr - self._arrivals[expert]
            a2a += aa - self._a2a[expert]
            sync += self._sync_row(row) - self._sync[expert]
        time = float(self._totals_to_time(tokens, a2a, sync))
        self.evaluations += 1
        if self._audit:
            self._audit_check(time, rows, placement=placement)
        return time

    # ------------------------------------------------------------------
    # Full recomputation (fallback + audit)
    # ------------------------------------------------------------------
    def _full_time(self, placement: Placement) -> float:
        """Price ``placement`` from scratch against the live pool.

        Used when the cached base cannot answer (stale device pool or a
        foreign placement object).  Requires the assignment of the last
        rebase; without one the evaluator cannot answer at all.
        """
        if self._assignment is None:
            raise SchedulingError(
                "DeltaStepCost has no base: call rebase() before querying"
            )
        counts = placement.counts
        arrivals, a2a = self._route_stats(
            self._assignment, self._totals, counts
        )
        sync = np.zeros(placement.num_gpus)
        for expert in range(placement.num_experts):
            sync += self._sync_row(counts[expert])
        eff_tps = self._cost_model.effective_tps()
        per_gpu = arrivals.sum(axis=0) / eff_tps + a2a.sum(axis=0) + sync
        return float(per_gpu.max())

    def _audit_check(
        self,
        claimed: float,
        rows: dict[int, np.ndarray],
        placement: Placement | None = None,
    ) -> None:
        """Cross-check a delta evaluation against a full recomputation."""
        counts = self._counts.copy()
        for expert, row in rows.items():
            counts[expert] = row
        if placement is not None and not np.array_equal(
            counts, placement.counts_view
        ):
            raise SchedulingError(
                "delta audit: changed-expert set does not cover the trial "
                "mutations (caller contract violated)"
            )
        arrivals, a2a = self._route_stats(
            self._assignment, self._totals, counts
        )
        sync = np.zeros(counts.shape[1])
        for expert in range(counts.shape[0]):
            sync += self._sync_row(counts[expert])
        per_gpu = arrivals.sum(axis=0) / self._eff_tps + a2a.sum(axis=0) + sync
        full = float(per_gpu.max())
        if not np.isclose(claimed, full, rtol=self.AUDIT_RTOL, atol=0.0):
            raise SchedulingError(
                f"delta audit: incremental time {claimed!r} != full "
                f"recomputation {full!r}"
            )

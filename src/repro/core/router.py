"""Flexible token routing (Algorithm 3 and Section 4).

Given the gate's token assignment ``I[e, g]`` (tokens on source GPU ``g``
destined for expert ``e``) and the current placement, the router decides
which *replica* of each expert processes each token:

1. per-vExpert capacity ``cap_e = ceil(I_e / n_e)`` enforces the vExpert
   contract of even splitting;
2. **locality first** — tokens stay on their source GPU up to the local
   replicas' capacity, avoiding All-to-All traffic entirely;
3. the remainder is scattered to other GPUs **proportionally to their
   available capacity** (largest-remainder apportionment keeps the result
   integral and within capacity).

The output guarantees conservation: every input token is processed by
exactly one replica — FlexMoE's 100% token efficiency.

A :class:`RoutingPlan` is sparse: only what is actually exchanged is
materialized. It holds the ``(experts, gpus)`` tokens each source keeps
(``local``), one ``(expert, src, dst, tokens)`` row per remote flow
(``spill``) and the per-vExpert capacities, plus the step's ``(src, dst)``
``traffic`` matrix summed over experts — the one input the executor
needs. No ``(experts, gpus, gpus)`` tensor is built.

Two implementations share this contract:

* :class:`FlexibleTokenRouter` — the production router. Everything is
  batched NumPy: locality and capacities are computed for all experts at
  once and each expert's spill is scattered in one proportional
  floor-plus-largest-remainder pass over its spilling sources x slack
  destinations only.
* :class:`ReferenceTokenRouter` — the original per-expert / per-source
  greedy loop, kept as the executable specification the vectorized router
  is benchmarked and property-tested against.

The two may place individual spill tokens on different replicas (both
orders are valid under the capacity contract), but they agree on
conservation, capacities, locality, and never exceed per-vExpert capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.placement import Placement
from repro.exceptions import RoutingError

#: Column order of :attr:`RoutingPlan.spill` rows.
EXPERT, SRC, DST, TOKENS = range(4)


def _traffic(local: np.ndarray, spill: np.ndarray) -> np.ndarray:
    """``(src, dst)`` tokens summed over experts: local on the diagonal,
    every spill row at its (src, dst) cell."""
    num_gpus = local.shape[1]
    traffic = np.zeros((num_gpus, num_gpus), dtype=np.int64)
    np.add.at(traffic, (spill[:, SRC], spill[:, DST]), spill[:, TOKENS])
    traffic.ravel()[:: num_gpus + 1] += local.sum(axis=0)
    return traffic


@dataclass(frozen=True)
class RoutingPlan:
    """Result of routing one step's assignment onto a placement.

    Attributes:
        local: ``(experts, gpus)`` tokens processed on their source GPU.
        spill: int64 ``(n, 4)`` rows ``(expert, src, dst, tokens)``, one
            per remote flow (``src != dst``, ``tokens > 0``).
        capacities: Per-expert per-vExpert capacity ``cap_e`` used.
        traffic: ``(src, dst)`` tokens summed over experts, computed once
            from ``local`` (the diagonal) and ``spill``.
    """

    local: np.ndarray
    spill: np.ndarray
    capacities: np.ndarray
    traffic: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "traffic", _traffic(self.local, self.spill))

    @property
    def arrivals(self) -> np.ndarray:
        """Tokens arriving at each GPU per expert: ``(experts, dst_gpus)``."""
        arrivals = self.local.astype(np.int64)
        np.add.at(
            arrivals, (self.spill[:, EXPERT], self.spill[:, DST]),
            self.spill[:, TOKENS],
        )
        return arrivals

    @property
    def gpu_loads(self) -> np.ndarray:
        """Total tokens processed by each GPU."""
        return self.traffic.sum(axis=0)

    @property
    def locality_fraction(self) -> float:
        """Fraction of tokens that never left their source GPU."""
        local = self.local.sum()
        total = local + self.spill[:, TOKENS].sum()
        if total == 0:
            return 1.0
        return float(local / total)

    def tokens_for(self, expert: int) -> int:
        rows = self.spill[:, EXPERT] == expert
        return int(self.local[expert].sum() + self.spill[rows, TOKENS].sum())


def _validate_assignment(assignment: np.ndarray, placement: Placement) -> np.ndarray:
    assignment = np.asarray(assignment)
    if assignment.ndim != 2:
        raise RoutingError("assignment must be (experts, gpus)")
    if assignment.shape != (placement.num_experts, placement.num_gpus):
        raise RoutingError(
            f"assignment shape {assignment.shape} does not match placement "
            f"({placement.num_experts}, {placement.num_gpus})"
        )
    if (assignment < 0).any():
        raise RoutingError("token counts must be non-negative")
    return assignment


class FlexibleTokenRouter:
    """Locality-first router over replicated experts, fully vectorized."""

    def route(self, assignment: np.ndarray, placement: Placement) -> RoutingPlan:
        """Compute the routing plan for one step.

        Args:
            assignment: Integer ``I`` matrix ``(experts, src_gpus)``.
            placement: Current expert-to-device mapping.

        Raises:
            RoutingError: On shape mismatch or negative counts.
        """
        demand = _validate_assignment(assignment, placement).astype(np.int64)
        counts = placement.counts_view

        totals = demand.sum(axis=1)
        replicas = counts.sum(axis=1)
        # ceil(totals / replicas): 0 for an expert without tokens.
        capacities = -(-totals // np.maximum(replicas, 1))

        # Locality first, all experts at once: each source keeps up to its
        # local replicas' capacity.
        cap_matrix = counts * capacities[:, None]
        local = np.minimum(demand, cap_matrix)
        remaining = cap_matrix - local
        spill = demand - local

        triples = self._scatter_spill_batch(spill, remaining)
        return RoutingPlan(local=local, spill=triples, capacities=capacities)

    @staticmethod
    def _scatter_spill_batch(
        spill: np.ndarray,
        remaining: np.ndarray,
    ) -> np.ndarray:
        """Scatter every spilling expert's tokens in one batched pass.

        Works on each expert's spilling sources x slack destinations only
        (an expert that does not spill has neither). The two sets are
        disjoint (a source that spills has no capacity left), so one
        stable sort per expert orders its GPUs as
        [spilling | neither | slack], each group in index order; the
        first ``R`` and last ``C`` positions (the widest expert's counts)
        are the compacted rows and columns. Padding entries carry 0 tokens
        or 0 slack, which add exactly 0 to every sum and cumsum below, so
        the result is bit-identical to the same pass over the full
        ``(gpus, gpus)`` grid.

        Proportional shares are floored for all experts at once; the
        integer leftovers (one partial token per fractional share) are then
        placed by a vectorized northwest-corner fill over the cumulative
        (row leftover, column slack) profiles. The fill is feasible by
        construction — the per-vExpert capacity contract guarantees each
        expert's total column slack covers its total row leftover — and
        both the row sums (conservation) and column caps (capacity) hold
        exactly.

        Returns:
            The ``(expert, src, dst, tokens)`` spill rows, sorted.
        """
        spill_totals = spill.sum(axis=1)
        totals = remaining.sum(axis=1)
        if (spill_totals > totals).any():
            raise RoutingError(
                "spill exceeds available capacity — capacity invariant violated"
            )
        is_row = spill > 0
        is_col = (remaining > 0) & (spill_totals > 0)[:, None]
        order = np.argsort(
            is_col.view(np.int8) - is_row.view(np.int8), axis=1, kind="stable"
        )
        rows = order[:, : is_row.sum(axis=1).max()]
        cols = order[:, order.shape[1] - is_col.sum(axis=1).max() :]
        experts = np.arange(spill.shape[0])[:, None]
        row_tokens = spill[experts, rows]
        col_avail = remaining[experts, cols]
        # Experts without slack have no spilling rows either: a divisor of
        # 1 keeps their all-zero shares finite.
        totals = np.maximum(totals, 1)
        exact = row_tokens[:, :, None] * (col_avail / totals[:, None])[:, None, :]
        shares = np.floor(exact).astype(np.int64)
        row_left = row_tokens - shares.sum(axis=2)
        col_slack = col_avail - shares.sum(axis=1)
        # Northwest-corner fill: walk rows and columns in index order,
        # granting each (row, column) cell the overlap of the row's and the
        # column's outstanding cumulative ranges.
        rows_hi = np.cumsum(row_left, axis=1)
        cols_hi = np.cumsum(col_slack, axis=1)
        rows_lo = rows_hi - row_left
        cols_lo = cols_hi - col_slack
        upper = np.minimum(rows_hi[:, :, None], cols_hi[:, None, :])
        lower = np.maximum(rows_lo[:, :, None], cols_lo[:, None, :])
        shares += np.maximum(upper - lower, 0)
        expert, row, col = shares.nonzero()
        triples = np.empty((expert.size, 4), dtype=np.int64)
        triples[:, EXPERT] = expert
        triples[:, SRC] = rows[expert, row]
        triples[:, DST] = cols[expert, col]
        triples[:, TOKENS] = shares[expert, row, col]
        return triples

    def route_fractional(
        self, assignment: np.ndarray, placement: Placement
    ) -> np.ndarray:
        """Fast continuous-relaxation routing for cost estimation.

        Identical policy to :meth:`route` — locality first, spill spread
        proportionally to available capacity — but token counts stay
        fractional, avoiding the per-source integer apportionment. The
        Policy Maker and Migrate planner evaluate hundreds of candidate
        placements per step; their decisions only need modelled *costs*, for
        which the relaxation is exact up to rounding.

        Returns:
            Float route tensor ``(experts, src, dst)``.
        """
        assignment = np.asarray(assignment, dtype=float)
        if assignment.shape != (placement.num_experts, placement.num_gpus):
            raise RoutingError(
                f"assignment shape {assignment.shape} does not match placement"
            )
        counts = placement.counts_view
        num_experts, num_gpus = assignment.shape
        totals = assignment.sum(axis=1)
        replicas = counts.sum(axis=1).astype(float)
        # Fractional per-GPU capacity: counts[e, g] * (total_e / n_e).
        per_replica = np.divide(
            totals, replicas, out=np.zeros_like(totals), where=replicas > 0
        )
        capacity = counts * per_replica[:, None]
        local = np.minimum(assignment, capacity)
        spill = assignment - local
        avail = capacity - local
        avail_totals = avail.sum(axis=1)
        weights = np.divide(
            avail,
            avail_totals[:, None],
            out=np.zeros_like(avail),
            where=avail_totals[:, None] > 0,
        )
        routes = spill[:, :, None] * weights[:, None, :]
        diag = np.arange(num_gpus)
        routes[:, diag, diag] += local
        return routes


class ReferenceTokenRouter(FlexibleTokenRouter):
    """The original per-expert / per-source greedy router.

    Kept as the executable specification of Algorithm 3: the vectorized
    :class:`FlexibleTokenRouter` is property-tested against it, and the
    ``python -m repro bench`` routing microbenchmark measures its speedup
    over this implementation.
    """

    def route(self, assignment: np.ndarray, placement: Placement) -> RoutingPlan:
        demand_matrix = _validate_assignment(assignment, placement)
        num_experts, num_gpus = demand_matrix.shape
        counts = placement.counts
        local = np.zeros((num_experts, num_gpus), dtype=np.int64)
        capacities = np.zeros(num_experts, dtype=np.int64)
        spill = [np.zeros((0, 4), dtype=np.int64)]
        for expert in range(num_experts):
            demand = demand_matrix[expert].astype(np.int64)
            total = int(demand.sum())
            if total == 0:
                continue
            replicas = counts[expert]
            n_e = int(replicas.sum())
            cap = -(-total // n_e)  # ceil division
            capacities[expert] = cap
            routes = np.zeros((num_gpus, num_gpus), dtype=np.int64)
            self._route_expert(routes, demand, replicas * cap)
            local[expert] = np.diag(routes)
            np.fill_diagonal(routes, 0)
            src, dst = np.nonzero(routes)
            spill.append(
                np.stack(
                    [np.full_like(src, expert), src, dst, routes[src, dst]],
                    axis=1,
                )
            )
        return RoutingPlan(
            local=local, spill=np.concatenate(spill), capacities=capacities
        )

    def _route_expert(
        self, routes: np.ndarray, demand: np.ndarray, capacity: np.ndarray
    ) -> None:
        """Fill ``routes[src, dst]`` for one expert in place."""
        remaining = capacity.copy()
        # Locality first: serve each source from its own replicas.
        local = np.minimum(demand, remaining)
        np.fill_diagonal(routes, local)
        remaining -= local
        spill = demand - local
        for src in np.flatnonzero(spill):
            tokens = int(spill[src])
            available = np.flatnonzero(remaining)
            if available.size == 1:
                dst = available[0]
                routes[src, dst] += tokens
                remaining[dst] -= tokens
                continue
            avail = remaining[available]
            shares = self._apportion(tokens, avail)
            routes[src, available] += shares
            remaining[available] -= shares

    @staticmethod
    def _apportion(tokens: int, avail: np.ndarray) -> np.ndarray:
        """Split ``tokens`` proportionally to ``avail``, integrally, capped.

        Uses largest-remainder apportionment. Requires
        ``tokens <= avail.sum()`` (guaranteed by capacity construction).
        """
        total_avail = int(avail.sum())
        if tokens > total_avail:
            raise RoutingError(
                f"cannot place {tokens} tokens into {total_avail} available "
                "capacity — capacity invariant violated"
            )
        exact = tokens * avail / total_avail
        shares = np.floor(exact).astype(np.int64)
        leftover = tokens - int(shares.sum())
        if leftover:
            slack = avail - shares
            remainders = exact - shares
            # Hand leftover tokens to the largest remainders with slack.
            order = np.argsort(-remainders, kind="stable")
            for idx in order:
                if leftover == 0:
                    break
                if slack[idx] > 0:
                    shares[idx] += 1
                    slack[idx] -= 1
                    leftover -= 1
            if leftover:
                raise RoutingError("apportionment failed to place all tokens")
        return shares


def validate_conservation(
    assignment: np.ndarray, plan: RoutingPlan
) -> None:
    """Assert that ``plan`` processes every assigned token exactly once.

    Checks the sparse form itself: every spill row moves a positive token
    count off its source GPU, each (expert, source) pair's local plus
    spilled tokens equal its assignment, and ``plan.traffic`` is the
    ``(src, dst)`` sum of exactly those flows.

    Raises:
        RoutingError: If any (expert, source) pair's tokens are lost or
            duplicated, or the plan's parts disagree.
    """
    assignment = np.asarray(assignment)
    spill = plan.spill
    if ((spill[:, TOKENS] <= 0) | (spill[:, SRC] == spill[:, DST])).any():
        raise RoutingError(
            "spill rows must move a positive token count off their source gpu"
        )
    if plan.local.shape != assignment.shape:
        raise RoutingError(
            f"plan shape {plan.local.shape} does not match assignment "
            f"{assignment.shape}"
        )
    sent = plan.local.astype(np.int64)
    np.add.at(sent, (spill[:, EXPERT], spill[:, SRC]), spill[:, TOKENS])
    if not np.array_equal(sent, assignment):
        diff = np.argwhere(sent != assignment)
        e, g = diff[0]
        raise RoutingError(
            f"conservation violated for expert {e}, source gpu {g}: "
            f"assigned {assignment[e, g]}, routed {sent[e, g]}"
        )
    if not np.array_equal(plan.traffic, _traffic(plan.local, spill)):
        raise RoutingError("traffic matrix disagrees with the plan's flows")

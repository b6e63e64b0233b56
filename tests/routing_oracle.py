"""Dense routing references for the sparse router and executor tests.

The router's :class:`~repro.core.router.RoutingPlan` is sparse (local
tokens, spill rows, the ``(src, dst)`` traffic matrix) and the executor
consumes only that traffic matrix. This module keeps the dense forms they
replaced, test-side only:

* :func:`dense_routes` -- the ``(experts, src, dst)`` view of a plan;
* :func:`dense_flexible_route` -- the dense floor pass and northwest-corner
  fill over every spilling expert's full ``(gpus, gpus)`` grid, the bit
  oracle of ``FlexibleTokenRouter.route``;
* :class:`DenseStepExecutor` / :class:`DensePipelinedStepExecutor` -- the
  executors that summed an ``(experts, src, dst)`` tensor over experts on
  every All-to-All pass (and clipped every jitter draw with ``np.clip``),
  the timing oracle of the traffic executors.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.config import FORWARD_FRACTION
from repro.core.placement import Placement
from repro.core.router import DST, EXPERT, SRC, TOKENS, RoutingPlan
from repro.exceptions import RoutingError, SimulationError
from repro.runtime.executor import (
    PipelinedStepExecutor,
    PipelineStepTiming,
    StepExecutor,
    StepTiming,
)


def dense_routes(plan: RoutingPlan) -> np.ndarray:
    """The plan as an integer ``(experts, src, dst)`` route tensor."""
    num_experts, num_gpus = plan.local.shape
    routes = np.zeros((num_experts, num_gpus, num_gpus), dtype=np.int64)
    diag = np.arange(num_gpus)
    routes[:, diag, diag] = plan.local
    spill = plan.spill
    np.add.at(
        routes, (spill[:, EXPERT], spill[:, SRC], spill[:, DST]),
        spill[:, TOKENS],
    )
    return routes


def dense_flexible_route(
    assignment: np.ndarray, placement: Placement
) -> tuple[np.ndarray, np.ndarray]:
    """Dense locality-first routing: ``(routes, capacities)``.

    The floor pass and northwest-corner fill run over each spilling
    expert's full ``(gpus, gpus)`` grid.
    """
    demand = np.asarray(assignment).astype(np.int64)
    num_experts, num_gpus = demand.shape
    counts = placement.counts_view

    totals = demand.sum(axis=1)
    replicas = counts.sum(axis=1)
    capacities = np.zeros(num_experts, dtype=np.int64)
    active = totals > 0
    capacities[active] = -(-totals[active] // replicas[active])

    cap_matrix = counts * capacities[:, None]
    local = np.minimum(demand, cap_matrix)
    remaining = cap_matrix - local
    spill = demand - local

    routes = np.zeros((num_experts, num_gpus, num_gpus), dtype=np.int64)
    diag = np.arange(num_gpus)
    routes[:, diag, diag] = local
    spilling = np.flatnonzero(spill.sum(axis=1))
    if not spilling.size:
        return routes, capacities
    sub_spill = spill[spilling]
    sub_rem = remaining[spilling]
    totals = sub_rem.sum(axis=1).astype(float)
    if (sub_spill.sum(axis=1) > sub_rem.sum(axis=1)).any():
        raise RoutingError("spill exceeds available capacity")
    exact = sub_spill[:, :, None] * (sub_rem / totals[:, None])[:, None, :]
    shares = np.floor(exact).astype(np.int64)
    row_left = sub_spill - shares.sum(axis=2)
    col_slack = sub_rem - shares.sum(axis=1)
    rows_hi = np.cumsum(row_left, axis=1)
    cols_hi = np.cumsum(col_slack, axis=1)
    rows_lo = rows_hi - row_left
    cols_lo = cols_hi - col_slack
    upper = np.minimum(rows_hi[:, :, None], cols_hi[:, None, :])
    lower = np.maximum(rows_lo[:, :, None], cols_lo[:, None, :])
    shares += np.maximum(upper - lower, 0)
    routes[spilling] += shares
    return routes, capacities


class DenseStepExecutor(StepExecutor):
    """Single-layer executor over ``(experts, src, dst)`` route tensors,
    jittering every value through ``np.clip``."""

    def _jittered(self, value):
        if self._jitter == 0:
            return value
        noise = self._rng.normal(1.0, self._jitter, np.shape(value) or None)
        return value * np.clip(noise, 0.5, 1.5)

    def real_a2a_pass_time(self, routes: np.ndarray) -> float:
        flow = np.asarray(routes, dtype=float).sum(axis=0) * self._model.token_bytes
        np.fill_diagonal(flow, 0.0)
        per_dst = (flow / self._topology.bandwidth_model().dense()).sum(axis=0)
        return float(self._jittered(per_dst.max()) if per_dst.size else 0.0)

    def execute(
        self,
        routes: np.ndarray,
        placement: Placement,
        adjustment_blocking: float = 0.0,
    ) -> StepTiming:
        routes = np.asarray(routes, dtype=float)
        if routes.ndim != 3:
            raise SimulationError("routes must be (experts, src, dst)")
        passes = 2 if self._inference else 4
        a2a_time = sum(self.real_a2a_pass_time(routes) for _ in range(passes))
        per_gpu_tokens = routes.sum(axis=(0, 1))
        busy = np.asarray(
            self._jittered(per_gpu_tokens / self._effective_tps()), dtype=float
        )
        if self._inference:
            busy = busy * FORWARD_FRACTION
            compute_time = float(busy.max()) if busy.size else 0.0
        else:
            forward = float((busy * FORWARD_FRACTION).max())
            backward = float((busy * (1 - FORWARD_FRACTION)).max())
            compute_time = forward + backward
        sync_time = 0.0 if self._inference else self._run_sync(placement)
        return StepTiming(
            a2a_time=a2a_time,
            compute_time=compute_time,
            sync_time=sync_time,
            adjustment_blocking=adjustment_blocking,
            per_gpu_compute=busy,
        )


class DensePipelinedStepExecutor(PipelinedStepExecutor):
    """Whole-step composition over per-layer route tensors."""

    def execute(
        self,
        layer_routes: Sequence[np.ndarray],
        placements: Sequence[Placement],
        adjustment_blocking: float = 0.0,
    ) -> PipelineStepTiming:
        layer_timings = []
        dense_time = 0.0
        hidden = 0.0
        for routes, placement in zip(layer_routes, placements):
            timing = self._executor.execute(routes, placement)
            layer_timings.append(timing)
            if self._model_dense:
                source_tokens = np.asarray(routes, dtype=float).sum(axis=(0, 2))
                block = self.dense_block_time(source_tokens)
                dense_time += block
                hidden += min(timing.a2a_time, self._overlap_efficiency * block)
        return PipelineStepTiming(
            layer_timings=tuple(layer_timings),
            dense_time=dense_time,
            hidden_a2a=hidden,
            adjustment_blocking=adjustment_blocking,
        )

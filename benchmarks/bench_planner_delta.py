"""Throughput of the delta-cost placement search.

The Policy Maker (Algorithm 2) and the Migrate pass must evaluate hundreds
of candidate (Shrink, Expand) pairs and replica exchanges per scheduling
round without stalling training; FSMoE and Hecate both identify exactly
this planner overhead as the scaling bottleneck of online MoE scheduling.
This benchmark replays drifting workloads through the delta-cost search
and records:

* planner rounds/second (one Policy Maker round plus one Migrate round
  per step) across three (experts, GPUs) shapes;
* end-to-end simulated steps/second of the 4-layer pipelined engine;
* the delta evaluator's counters, which must show zero fallbacks to full
  recomputation on every run.

Decision identity with the copy-per-candidate search the delta path
replaced is asserted by the tier-1 suite
(``tests/test_policy_delta_equivalence.py``), not timed here.
"""

from conftest import run_once

from repro.bench.perf import planner_benchmark, telemetry_overhead_benchmark
from repro.bench.reporting import format_table

#: (experts, gpus) grid, up to the paper's 64-expert / 16-GPU scale and
#: beyond.
SHAPES = ((16, 8), (64, 16), (128, 32))


def run_planner_bench():
    rows = []
    planner_results = {}
    for num_experts, num_gpus in SHAPES:
        result = planner_benchmark(
            num_experts=num_experts, num_gpus=num_gpus, num_steps=20
        )
        planner_results[(num_experts, num_gpus)] = result
        rows.append(
            [
                num_experts,
                num_gpus,
                f"{result['delta_rounds_per_sec']:.1f} rounds",
                int(result["delta"]["evaluations"]),
                int(result["fallbacks"]),
            ]
        )
    pipeline = telemetry_overhead_benchmark(num_steps=20, repeats=1)
    rows.append(
        [
            "4L-pipeline",
            pipeline["num_gpus"],
            f"{pipeline['disabled_steps_per_sec']:.1f} steps",
            "-",
            int(pipeline["fallbacks"]),
        ]
    )
    table = format_table(
        ["experts", "gpus", "per second", "evaluations", "fallbacks"],
        rows,
        title="Planner + engine throughput of the delta-cost search",
    )
    return table, planner_results, pipeline


def test_planner_delta(benchmark, report):
    table, planner_results, pipeline = run_once(benchmark, run_planner_bench)
    report("planner_delta", table)
    for result in planner_results.values():
        assert result["fallbacks"] == 0
        assert result["delta_rounds_per_sec"] > 0
    assert pipeline["fallbacks"] == 0

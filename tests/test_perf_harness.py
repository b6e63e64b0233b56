"""The scheduling-overhead perf harness (repro.bench.perf)."""

import json

from repro.bench.perf import (
    faults_overhead_benchmark,
    planner_benchmark,
    write_report,
)


def test_planner_benchmark_reports_equivalence_and_counters():
    """Decision equivalence with the reference search is asserted in
    test_policy_delta_equivalence.py; the benchmark reports throughput
    and the shared evaluator's counters."""
    result = planner_benchmark(
        num_experts=8, num_gpus=4, num_steps=6, tokens_per_gpu=8192
    )
    assert result["fallbacks"] == 0
    assert result["delta_rounds_per_sec"] > 0
    assert result["rounds"] == 12
    assert set(result["delta"]) == {"rebases", "evaluations", "fallbacks"}
    assert result["delta"]["evaluations"] > 0
    # The untimed allocation pass reports the replay's memory columns.
    allocation = result["allocation"]
    assert allocation["tracemalloc_peak_kb"] > 0
    assert allocation["tracemalloc_peak_kb"] >= (
        allocation["tracemalloc_current_kb"]
    )
    assert allocation["live_blocks_per_step"] > 0
    assert allocation["peak_rss_kb"] > 0


def test_pipeline_overhead_benchmark_simulations_match():
    """The multi-layer pipeline's overhead leg is the telemetry benchmark,
    which builds the same engine; on the original small configuration its
    paired runs simulate identically, its delta evaluators never fall back,
    and it reports a throughput."""
    from repro.bench.perf import telemetry_overhead_benchmark

    result = telemetry_overhead_benchmark(
        num_moe_layers=2, num_gpus=4, num_experts=8, num_steps=6,
        tokens_per_gpu=8192, repeats=1,
    )
    assert result["simulated_results_match"]
    assert result["fallbacks"] == 0
    assert result["disabled_steps_per_sec"] > 0


def test_faults_overhead_benchmark_simulations_match():
    """The faults leg simulates the scenario once; identity with the
    reference search is test_faults_scenario_runs_identical."""
    result = faults_overhead_benchmark(
        num_moe_layers=2, num_gpus=8, num_experts=16, num_steps=20
    )
    assert result["steps_per_sec"] > 0
    assert result["flexmoe_actions"] > 0
    # Elasticity events apply before the schedulers run, so even the
    # faults scenario must never stale the delta base mid-search.
    assert result["fallbacks"] == 0


def test_write_report_round_trips(tmp_path):
    report = {"suite": "step_overhead", "ok": True, "speedup": 5.0}
    path = write_report(report, tmp_path / "BENCH_step_overhead.json")
    assert json.loads(path.read_text()) == report


def test_serving_events_benchmark_identities_and_floor():
    """The serving stack clears the CI floor even at this tiny scale,
    and its logical-event accounting identity holds (one event per
    arrival, dispatch and completion). Report identity with the retired
    per-request stack is pinned by the golden fixtures in
    ``test_sim_identity.py``."""
    from repro.bench.perf import (
        SERVING_EVENTS_PER_SEC_FLOOR,
        serving_events_benchmark,
    )

    result = serving_events_benchmark(
        num_gpus=8, num_experts=16, num_requests=400, repeats=1,
    )
    assert result["events_per_sec"] >= SERVING_EVENTS_PER_SEC_FLOOR
    assert result["num_batches"] > 0
    assert result["logical_events"] == (
        result["num_requests"] + 2 * result["num_batches"]
    )


def test_kernel_events_benchmark_trace_identity_and_floor():
    """The traced pass dispatches every scheduled event exactly once in
    ``(time, priority, seq)`` order, and the untraced passes clear the
    floor. Trace identity with the one-at-a-time drain is the property
    test in ``test_sim_kernel.py``."""
    from repro.bench.perf import (
        KERNEL_EVENTS_PER_SEC_FLOOR,
        kernel_events_benchmark,
    )

    result = kernel_events_benchmark(num_ticks=300, repeats=1)
    assert result["trace_ordered"]
    assert result["events_per_sec"] >= KERNEL_EVENTS_PER_SEC_FLOOR
    assert result["total_events"] > result["num_ticks"]


def test_telemetry_overhead_benchmark_identity_and_recording():
    from repro.bench.perf import telemetry_overhead_benchmark

    result = telemetry_overhead_benchmark(
        num_moe_layers=2, num_gpus=4, num_experts=8, num_steps=4,
        tokens_per_gpu=4096, repeats=2,
    )
    assert result["simulated_results_match"]
    assert result["enabled_trace_events"] > 0
    assert result["enabled_timeline_events"] > 0
    # The multi-layer engine's delta evaluators never fall back to full
    # recomputation (the report's pipeline fallback gate).
    assert result["fallbacks"] == 0

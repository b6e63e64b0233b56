"""Experiment harness regenerating the paper's tables and figures.

Every benchmark under ``benchmarks/`` maps to one table or figure of the
evaluation section; :mod:`repro.bench.harness` holds the shared experiment
drivers, :mod:`repro.bench.reporting` holds the one report type every
``BENCH_*.json`` takes (named gates, provenance, one writer) and renders
paper-style rows/series,
:mod:`repro.bench.perf` measures the scheduling hot path (``python -m
repro perf``, ``BENCH_step_overhead.json``) and
:mod:`repro.bench.serving` compares the dynamic and static online servers
(``python -m repro serve``, ``BENCH_serving_latency.json``).
"""

from repro.bench.harness import (
    ExperimentScale,
    figure5_comparison,
    quick_comparison,
    scalability_sweep,
)
from repro.bench.perf import (
    faults_overhead_benchmark,
    perf_suite,
    planner_benchmark,
)
from repro.bench.reporting import (
    Report,
    format_series,
    format_table,
    write_report,
)
from repro.bench.serving import ServingRunResult, serving_run

__all__ = [
    "ExperimentScale",
    "Report",
    "ServingRunResult",
    "faults_overhead_benchmark",
    "figure5_comparison",
    "format_series",
    "format_table",
    "perf_suite",
    "planner_benchmark",
    "quick_comparison",
    "scalability_sweep",
    "serving_run",
    "write_report",
]

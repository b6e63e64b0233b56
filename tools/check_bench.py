"""Validate benchmark reports and trace artifacts.

Usage::

    python tools/check_bench.py REPORT.json [REPORT.json ...]

A benchmark report (any ``BENCH_*.json`` a ``python -m repro`` command
writes) passes when its ``ok`` is true and its ``regression`` marker,
where present, is not. Every gate a suite enforces is folded into the
``ok`` its harness computes in ``src/repro/bench/`` (or the scenario
modules it calls), so this checker carries no per-suite conditions: a
report cannot pass CI on a gate its own verdict does not hold.

A Chrome trace artifact (a JSON object with ``traceEvents``, as written
by ``python -m repro scenario --trace-out``) is checked against the
trace-event schema instead: well-formed events with numeric timestamps,
kernel spans, at least three decision-timeline kinds, and a metrics
snapshot in the metadata.

Exits 0 when every file passes, 1 otherwise (one line per failure on
stderr).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

TRACE_PHASES = {"X", "B", "E", "i", "M"}


def check_trace(trace: dict) -> list[str]:
    """Schema problems of one Chrome trace-event artifact."""
    events = trace["traceEvents"]
    if not events:
        return ["carries no trace events"]
    problems = []
    for event in events:
        if event.get("ph") not in TRACE_PHASES:
            problems.append(f"unexpected trace-event phase {event.get('ph')!r}")
            break
        if event["ph"] != "M" and not isinstance(event.get("ts"), (int, float)):
            problems.append("trace event without a numeric timestamp")
            break
    if not any(event.get("cat") == "kernel" for event in events):
        problems.append("carries no kernel spans")
    metadata = trace.get("metadata", {})
    kinds = metadata.get("timeline_kinds", {})
    if len(kinds) < 3:
        problems.append(f"fewer than 3 decision-timeline kinds: {kinds}")
    if "counters" not in metadata.get("metrics", {}):
        problems.append("metadata is missing the metrics snapshot")
    return problems


def check_report(report: dict) -> list[str]:
    """Verdict problems of one benchmark report."""
    problems = []
    if report.get("ok") is not True:
        problems.append(f"ok is {report.get('ok')!r}")
    if report.get("regression"):
        problems.append("carries a regression marker")
    return problems


def check_file(path: Path) -> list[str]:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"unreadable: {exc}"]
    if not isinstance(payload, dict):
        return ["not a JSON object"]
    if "traceEvents" in payload:
        return check_trace(payload)
    return check_report(payload)


def main(argv: list[str] | None = None) -> int:
    paths = [Path(arg) for arg in (sys.argv[1:] if argv is None else argv)]
    if not paths:
        print("usage: check_bench.py REPORT.json [REPORT.json ...]",
              file=sys.stderr)
        return 2
    failed = False
    for path in paths:
        problems = check_file(path)
        for problem in problems:
            print(f"{path}: {problem}", file=sys.stderr)
        failed = failed or bool(problems)
        if not problems:
            print(f"{path}: ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

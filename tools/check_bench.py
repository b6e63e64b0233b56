"""Validate benchmark reports and trace artifacts.

Usage::

    python tools/check_bench.py REPORT.json [REPORT.json ...]

A benchmark report (any ``BENCH_*.json`` a ``python -m repro`` command
writes; schema in ``docs/performance.md``) passes when every one of its
named ``gates`` holds -- recomputed here from the gate's ``value``,
``op`` and ``bound``, not read from its recorded ``passed`` -- and its
``ok`` is true. Each failing gate is named, and an ``ok`` or ``passed``
that disagrees with the recomputation is rejected, so a report cannot
pass on a verdict its own gates do not support.

A report named like a committed artifact (a file name in
``repro.cli.CANONICAL_REPORTS``) must also carry ``provenance`` whose
``argv`` is that file's canonical command, plus ``--smoke`` exactly when
``provenance.smoke`` is true: every committed report is reproducible
from the command recorded in it.

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

try:
    import repro  # noqa: F401
except ImportError:  # run from a checkout without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from repro.bench.reporting import GATE_OPS
from repro.cli import CANONICAL_REPORTS

TRACE_PHASES = {"X", "B", "E", "i", "M"}

#: The canonical argv of each committed report, keyed by file name.
CANONICAL_ARGV = {name: list(argv) for argv, name in CANONICAL_REPORTS.items()}


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


def check_gates(report: dict) -> list[str]:
    """Verdict problems: failing gates, and an ``ok`` or ``passed`` that
    disagrees with the gates recomputed from value, op and bound."""
    gates = report.get("gates")
    if not isinstance(gates, dict) or not gates:
        return ["carries no gates"]
    problems = []
    all_pass = True
    for name, entry in gates.items():
        op = entry.get("op")
        if op not in GATE_OPS:
            problems.append(f"gate {name} has unknown op {op!r}")
            all_pass = False
            continue
        value, bound = entry.get("value"), entry.get("bound")
        try:
            passed = bool(GATE_OPS[op](value, bound))
        except TypeError:
            passed = False
        all_pass = all_pass and passed
        if not passed:
            problems.append(f"gate {name} failed: {value!r} {op} {bound!r}")
        if entry.get("passed") is not passed:
            problems.append(
                f"gate {name} records passed={entry.get('passed')!r} but "
                f"{value!r} {op} {bound!r} is {passed}"
            )
    ok = report.get("ok")
    if ok is not all_pass:
        verdict = "all pass" if all_pass else "do not all pass"
        problems.append(f"ok is {ok!r} but its gates {verdict}")
    elif not all_pass:
        problems.append("ok is False")
    return problems


def check_provenance(name: str, report: dict) -> list[str]:
    """Provenance problems of a committed artifact named ``name``."""
    provenance = report.get("provenance")
    if not isinstance(provenance, dict):
        return ["committed report carries no provenance"]
    smoke = provenance.get("smoke") is True
    expected = CANONICAL_ARGV[name] + ["--smoke"] * smoke
    argv = provenance.get("argv")
    if argv != expected:
        return [f"provenance.argv {argv!r} is not the canonical {expected!r}"]
    return []


def check_report(report: dict, name: str = "") -> list[str]:
    """Verdict (and, for a committed artifact, provenance) problems."""
    problems = check_gates(report)
    if name in CANONICAL_ARGV:
        problems.extend(check_provenance(name, report))
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
    return check_report(payload, path.name)


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

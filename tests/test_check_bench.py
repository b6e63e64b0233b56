"""tools/check_bench.py: the one checker CI runs over every report."""

import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def load_check_bench():
    spec = importlib.util.spec_from_file_location(
        "check_bench", REPO / "tools" / "check_bench.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def committed_reports():
    return sorted(REPO.glob("BENCH_*.json"))


def test_every_committed_report_passes(capsys):
    reports = committed_reports()
    assert len(reports) >= 6
    assert load_check_bench().main([str(p) for p in reports]) == 0, (
        capsys.readouterr().err
    )


def test_doctored_report_fails(tmp_path, capsys):
    report = json.loads((REPO / "BENCH_serving_latency.json").read_text())
    report["ok"], report["regression"] = False, True
    doctored = tmp_path / "BENCH_serving_latency.json"
    doctored.write_text(json.dumps(report))
    assert load_check_bench().main([str(doctored)]) == 1
    assert "ok is False" in capsys.readouterr().err


def test_missing_verdict_fails(tmp_path):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"suite": "x"}))
    assert load_check_bench().main([str(path)]) == 1


def test_trace_schema(tmp_path):
    check = load_check_bench()
    trace = {
        "traceEvents": [
            {"ph": "M", "name": "process_name", "pid": 1},
            {"ph": "X", "ts": 0.0, "dur": 1.0, "cat": "kernel", "pid": 1},
        ],
        "metadata": {
            "timeline_kinds": {"a": 1, "b": 1, "c": 1},
            "metrics": {"counters": {}},
        },
    }
    assert check.check_trace(trace) == []
    trace["traceEvents"][1]["ph"] = "Q"
    assert check.check_trace(trace) != []
    trace["traceEvents"][1].update(ph="X", ts="late")
    assert check.check_trace(trace) != []
    trace["traceEvents"][1].update(ts=0.0, cat="serving")
    assert check.check_trace(trace) == ["carries no kernel spans"]

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


def doctor(tmp_path, name, edit):
    """A committed report, edited, under its own file name."""
    report = json.loads((REPO / name).read_text())
    edit(report)
    doctored = tmp_path / name
    doctored.write_text(json.dumps(report))
    return doctored


def test_doctored_report_fails(tmp_path, capsys):
    doctored = doctor(
        tmp_path, "BENCH_serving_latency.json",
        lambda report: report.update(ok=False),
    )
    assert load_check_bench().main([str(doctored)]) == 1
    assert "ok is False" in capsys.readouterr().err


def test_flipped_gate_value_fails_and_is_named(tmp_path, capsys):
    def flip(report):
        report["gates"]["flexmoe.p99_latency_s"]["value"] = 1e9

    doctored = doctor(tmp_path, "BENCH_serving_latency.json", flip)
    assert load_check_bench().main([str(doctored)]) == 1
    err = capsys.readouterr().err
    assert "gate flexmoe.p99_latency_s failed: 1000000000.0 <" in err
    assert "flexmoe.goodput_tokens_per_s" not in err


def test_ok_true_with_a_failing_gate_fails(tmp_path, capsys):
    def fail_quietly(report):
        gate = report["gates"]["jain_fairness"]
        gate["value"], gate["passed"] = 0.1, False

    doctored = doctor(tmp_path, "BENCH_multitenant.json", fail_quietly)
    assert load_check_bench().main([str(doctored)]) == 1
    err = capsys.readouterr().err
    assert "gate jain_fairness failed" in err
    assert "ok is True but its gates do not all pass" in err


def test_committed_report_without_provenance_fails(tmp_path, capsys):
    doctored = doctor(
        tmp_path, "BENCH_composed_scenario.json",
        lambda report: report.pop("provenance"),
    )
    assert load_check_bench().main([str(doctored)]) == 1
    assert "carries no provenance" in capsys.readouterr().err


def test_committed_report_from_another_command_fails(tmp_path, capsys):
    check = load_check_bench()

    def from_smoke(report):
        report["provenance"]["argv"] = ["serve", "--multi-tenant", "--smoke"]

    doctored = doctor(tmp_path, "BENCH_multitenant.json", from_smoke)
    assert check.main([str(doctored)]) == 1
    assert "not the canonical" in capsys.readouterr().err
    # --smoke is accepted exactly when the provenance says smoke.
    report = json.loads(doctored.read_text())
    report["provenance"]["smoke"] = True
    assert check.check_report(report, doctored.name) == []


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

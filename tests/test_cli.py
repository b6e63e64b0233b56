"""CLI smoke tests: python -m repro run|bench|compare|faults|perf|churn."""

import json

import pytest

from repro.cli import build_parser, main

RUN_ARGS = [
    "run",
    "--layers", "2",
    "--experts", "8",
    "--gpus", "4",
    "--steps", "4",
    "--tokens-per-gpu", "4096",
    "--d-model", "256",
    "--d-ffn", "1024",
    "--warmup", "1",
]


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_json(capsys):
    assert main(RUN_ARGS + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mean_step_time"] > 0
    assert payload["moe_layers"] == 2.0
    assert "mean_overlap_savings" in payload
    assert "distinct_final_placements" in payload


def test_run_human_readable(capsys):
    assert main(RUN_ARGS) == 0
    out = capsys.readouterr().out
    assert "step-time breakdown" in out
    assert "distinct per-layer placements" in out


def test_run_no_overlap_flag(capsys):
    assert main(RUN_ARGS + ["--no-overlap", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mean_a2a_hidden"] == 0.0


def test_bench_json(capsys):
    args = ["bench", "--experts", "8", "--gpus", "4", "--repeats", "3", "--json"]
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["vectorized_ms"] > 0
    assert payload["reference_ms"] > 0
    assert payload["speedup"] > 0


def test_compare_json(capsys):
    args = [
        "compare", "--gpus", "4", "--experts", "8", "--steps", "4", "--json",
    ]
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "FlexMoE" in payload
    assert payload["FlexMoE"]["mean_step_time"] > 0


def test_compare_unknown_model_errors(capsys):
    assert main(["compare", "--model", "no-such-model"]) == 2
    assert "error:" in capsys.readouterr().err


FAULTS_ARGS = [
    "faults",
    "--layers", "1",
    "--experts", "8",
    "--gpus", "4",
    "--steps", "16",
    "--tokens-per-gpu", "4096",
    "--fail-step", "4",
    "--recover-after", "5",
    "--stragglers", "1",
    "--straggler-step", "2",
]


def test_faults_human_readable(capsys):
    assert main(FAULTS_ARGS) == 0
    out = capsys.readouterr().out
    assert "events:" in out
    assert "fail" in out and "recover" in out and "slowdown" in out
    assert "FlexMoE" in out and "Static" in out


def test_faults_json(capsys):
    assert main(FAULTS_ARGS + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["flexmoe"]["final"] > 0
    assert payload["baseline"]["final"] > 0
    assert payload["flexmoe"]["rehomed"] == 1.0
    assert {e["kind"] for e in payload["events"]} == {
        "fail", "recover", "slowdown"
    }


def test_faults_smoke_passes(capsys):
    assert main(["faults", "--smoke", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["first_failure_step"] == 10


def test_perf_smoke_passes_and_writes_report(capsys, tmp_path):
    out = tmp_path / "BENCH_step_overhead.json"
    assert main(["perf", "--smoke", "--output", str(out), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["total_fallbacks"] == 0
    assert payload["planner"]["fallbacks"] == 0
    assert payload["faults"]["fallbacks"] == 0
    assert payload["telemetry_overhead"]["fallbacks"] == 0
    assert payload["telemetry_overhead"]["simulated_results_match"] is True
    written = json.loads(out.read_text())
    assert written["suite"] == "step_overhead"
    assert written["smoke"] is True


def test_perf_unwritable_output_fails_fast(capsys, tmp_path):
    target = tmp_path / "missing-dir" / "report.json"
    assert main(["perf", "--smoke", "--output", str(target)]) == 2
    err = capsys.readouterr().err
    assert "error: cannot write report" in err


def test_perf_human_readable(capsys, tmp_path):
    out = tmp_path / "BENCH_step_overhead.json"
    assert main(["perf", "--smoke", "--output", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    gates = json.loads(out.read_text())["gates"]
    # One line per gate (name, value, op, bound, verdict), then the
    # footer.
    assert "total_fallbacks" in gates
    for name, entry in gates.items():
        (fields,) = [row.split() for row in lines if row.startswith(name + " ")]
        assert fields[2] == entry["op"] and fields[-1] == "PASS"
    assert lines[-2:] == ["perf smoke: OK", f"report written to {out}"]


def test_churn_smoke_passes_and_writes_report(
    capsys, tmp_path, committed_report
):
    # The committed report is this smoke run: re-running its recorded
    # argv reproduces it exactly.
    argv, committed = committed_report("BENCH_autoscale_churn.json")
    assert argv == ["churn", "--smoke"]
    out = tmp_path / "BENCH_autoscale_churn.json"
    assert main(argv + ["--output", str(out), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["suite"] == "autoscale_churn"
    assert set(payload["rows"]) == {
        "spot", "outage", "heterogeneous", "multiday"
    }
    for row in payload["rows"].values():
        assert row["attainment_gain"] > 0
    assert payload["degradation"]["ok"] is True
    written = json.loads(out.read_text())
    assert written["smoke"] is True
    assert written.pop("provenance")["argv"] == argv
    assert written == committed


def test_churn_human_readable(capsys, tmp_path):
    out = tmp_path / "BENCH_autoscale_churn.json"
    assert main(["churn", "--smoke", "--output", str(out)]) == 0
    text = capsys.readouterr().out
    for row in ("spot", "outage", "heterogeneous", "multiday"):
        assert f"{row}.attainment_gain" in text
    assert "degradation.shed_engaged" in text
    assert "FAIL" not in text
    assert "churn smoke: OK" in text


def test_churn_unwritable_output_fails_fast(capsys, tmp_path):
    target = tmp_path / "missing-dir" / "report.json"
    assert main(["churn", "--smoke", "--output", str(target)]) == 2
    err = capsys.readouterr().err
    assert "error: cannot write report" in err


def test_churn_unwritable_output_skips_the_run(capsys, tmp_path, monkeypatch):
    """The output probe runs before the suite, not after it."""
    import repro.bench.churn

    calls = []
    monkeypatch.setattr(
        repro.bench.churn, "churn_bench_run",
        lambda **kwargs: calls.append(kwargs),
    )
    target = tmp_path / "missing-dir" / "report.json"
    assert main(["churn", "--output", str(target)]) == 2
    assert calls == []
    assert "error: cannot write report" in capsys.readouterr().err


def test_non_smoke_verdict_is_printed_but_not_gated(
    capsys, tmp_path, monkeypatch
):
    """A failing gate outside ``--smoke`` prints FAIL and the FAILED
    footer but keeps exit status 0 (``perf``/``scale`` excepted)."""
    import repro.bench.churn
    from repro.bench.reporting import Report, gate

    report = Report("autoscale_churn", {}, {"x.gain": gate(-0.1, ">", 0)})
    monkeypatch.setattr(
        repro.bench.churn, "churn_bench_run", lambda **kwargs: report
    )
    out = tmp_path / "churn.json"
    assert main(["churn", "--output", str(out)]) == 0
    text = capsys.readouterr().out
    assert "FAIL" in text and "churn: FAILED" in text
    assert main(["churn", "--smoke", "--output", str(out)]) == 1


def test_smoke_run_leaves_canonical_report_untouched(
    capsys, tmp_path, monkeypatch, committed_report
):
    """A ``--smoke`` run without ``--output`` must not replace a
    committed canonical report with its CI-scale numbers."""
    monkeypatch.chdir(tmp_path)
    canonical = tmp_path / "BENCH_serving_latency.json"
    canonical.write_bytes(b'{"ok": true, "suite": "serving_latency"}\n')
    before = canonical.read_bytes()
    assert main(["serve", "--smoke"]) == 0
    captured = capsys.readouterr()
    assert "refusing to overwrite" in captured.err
    assert "serve smoke: OK" in captured.out
    assert canonical.read_bytes() == before
    # The canonical command itself still refreshes it, reproducing the
    # committed report exactly ...
    argv, committed = committed_report("BENCH_serving_latency.json")
    assert argv == ["serve"]
    assert main(["serve", "--requests", "400"]) == 0
    refreshed = json.loads(canonical.read_text())
    assert refreshed.pop("provenance")["argv"] == argv
    assert refreshed == committed
    # ... and --output routes any other run elsewhere.
    out = tmp_path / "smoke.json"
    assert main(["serve", "--smoke", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["ok"] is True

"""The benchmark's own tests, on tiny shapes of its three workloads.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the
repository root.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import perf_trace
import perf_workloads
import run
from repro.exceptions import RoutingError

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Tiny workload shapes, pinned-thread env restored afterwards, and
    traces written under ``tmp_path``."""
    monkeypatch.setattr(
        perf_workloads, "WORKLOADS", perf_workloads.TINY_WORKLOADS
    )
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    for name in run.THREAD_ENV:
        monkeypatch.setenv(name, os.environ.get(name, ""))
    return tmp_path


def run_main(capsys, workload: str, trace: int) -> tuple[int, list[str]]:
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0.01",
         "--trace", str(trace)]
    )
    return code, capsys.readouterr().out.strip().splitlines()


def test_spec_matches_the_metrics_the_program_prints():
    assert WORKLOADS == list(perf_workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_result_schema(tiny, capsys, workload, trace):
    code, lines = run_main(capsys, workload, trace)
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    provenance = json.loads(lines[-2])["provenance"]
    assert provenance["seed"] == 3
    assert provenance["argv"][:2] == ["--workload", workload]
    assert set(provenance["thread_env"].values()) == {"1"}
    if trace:
        assert 0.0 < result["metrics"]["trace.coverage"]["value"] <= 1.0
        document = json.loads(next(tiny.glob("trace-*.json")).read_text())
        spans = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert spans and all("parent" in e["args"] for e in spans)
    else:
        for name in ("tokens_per_s", "step_ms_p50", "setup_s", "sim_step_ms"):
            assert result["metrics"][name]["value"] > 0


@pytest.mark.parametrize("workload", ["train-64", "serve-8"])
def test_wrapping_leaves_results_unchanged_and_is_undone(workload):
    spec = perf_workloads.TINY_WORKLOADS[workload]
    null = perf_trace.NullRecorder()
    plain = spec.run(spec.setup(5, null), null)
    originals = {
        (t.owner, t.attr): getattr(
            __import__(t.module, fromlist=[t.owner]), t.owner
        ).__dict__[t.attr]
        for t in perf_trace.TARGETS
    }
    recorder = perf_trace.SpanRecorder()
    with pytest.raises(RuntimeError):
        with perf_trace.instrumented(recorder):
            traced = spec.run(spec.setup(5, recorder), recorder)
            raise RuntimeError("restore on error too")
    assert traced.digest == plain.digest
    assert traced.sim_step_s == plain.sim_step_s
    assert recorder.counters["router.calls"] > 0
    for target in perf_trace.TARGETS:
        owner = getattr(__import__(target.module, fromlist=[target.owner]),
                        target.owner)
        assert owner.__dict__[target.attr] is originals[
            (target.owner, target.attr)
        ]


def test_serving_episode_matches_serving_engine_run():
    spec = perf_workloads.TINY_WORKLOADS["serve-8"]
    null = perf_trace.NullRecorder()
    episode = spec.run(spec.setup(2, null), null)
    server, offered = spec.setup(2, null)
    report = server.run()
    assert episode.tokens == report.served_tokens
    assert np.array_equal(episode.sim_latency_s, report.latencies)
    assert episode.sim_goodput == report.goodput_tokens_per_s
    assert len(episode.sim_step_s) == report.num_batches
    assert episode.attempted == report.num_batches + offered


def test_forced_conservation_failure_shows_in_error_rate(
    tiny, capsys, monkeypatch
):
    def broken(assignment, plan):
        raise RoutingError("forced")

    monkeypatch.setattr(perf_workloads, "validate_conservation", broken)
    code, lines = run_main(capsys, "train-64", 0)
    result = json.loads(lines[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    attempted = result["attempted"]
    assert f"error_rate {attempted}/{attempted} = 1" in lines[0]
    assert any("forced" in line for line in lines)


def test_exits_nonzero_without_the_simulator(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: no result, exit != 0."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / HERE.name,
        ignore=shutil.ignore_patterns("__pycache__", "out"),
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "train-64",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

"""The serving comparison harness and the ``serve`` CLI subcommand."""

import json

import pytest

from repro.bench.serving import (
    MULTITENANT_REPORT_FILENAME,
    REPORT_FILENAME,
    multitenant_run,
    probe_batch_seconds,
    serving_run,
)
from repro.bench.reporting import write_report
from repro.cli import main
from repro.config import FaultConfig

#: One small scenario shared by the harness tests (module-scoped: the
#: comparison runs two full servers, so compute it once).
SMALL = dict(
    num_moe_layers=1,
    num_gpus=4,
    num_experts=8,
    num_requests=80,
    mean_tokens=256,
    max_batch_tokens=2048,
    seed=0,
)


@pytest.fixture(scope="module")
def small_result():
    return serving_run(**SMALL)


class TestProbe:
    def test_probe_positive_and_deterministic(self):
        a = probe_batch_seconds(1, 4, 8, 2048, seed=0)
        b = probe_batch_seconds(1, 4, 8, 2048, seed=0)
        assert a > 0
        assert a == b


class TestServingRun:
    def test_reports_cover_the_stream(self, small_result):
        for report in (small_result.flexmoe, small_result.static):
            assert (
                len(report.records) + len(report.rejected)
                == SMALL["num_requests"]
            )
            assert report.num_batches > 0
            assert report.sim_duration > 0

    def test_summary_shape(self, small_result):
        summary = small_result.summary()
        assert summary["suite"] == "serving_latency"
        assert summary["ok"] == all(
            gate["passed"] for gate in summary["gates"].values()
        )
        for key in ("flexmoe", "static"):
            section = summary[key]
            assert section["p50_latency_s"] <= section["p99_latency_s"]
            assert 0.0 <= section["slo_attainment"] <= 1.0
        assert summary["scenario"]["rate_rps"] > 0
        assert summary["slo_latency_s"] > 0

    def test_deterministic(self):
        a = serving_run(**SMALL).summary()
        b = serving_run(**SMALL).summary()
        assert a == b

    def test_default_scenario_beats_static(self):
        """Acceptance: dynamic placement strictly better p99 AND goodput
        on the skewed/bursty scenario."""
        result = serving_run(num_requests=250, seed=0)
        assert result.ok
        assert result.flexmoe.p99 < result.static.p99
        assert (
            result.flexmoe.goodput_tokens_per_s
            > result.static.goodput_tokens_per_s
        )
        assert result.flexmoe.placement_actions > 0
        assert result.static.placement_actions == 0

    def test_faulted_run_survives(self):
        result = serving_run(
            **{**SMALL, "num_requests": 60},
            faults=FaultConfig(
                num_failures=1, failure_step=2, recovery_steps=4, seed=0
            ),
        )
        assert result.scenario["num_faults"] > 0
        report = result.flexmoe
        assert len(report.records) + len(report.rejected) == 60

    def test_write_report(self, small_result, tmp_path):
        path = write_report(small_result.summary(), tmp_path / REPORT_FILENAME)
        payload = json.loads(path.read_text())
        assert payload["suite"] == "serving_latency"
        assert set(payload["gates"]) == {
            "flexmoe.p99_latency_s", "flexmoe.goodput_tokens_per_s"
        }


@pytest.fixture(scope="module")
def multitenant_result():
    return multitenant_run(num_requests=120, seed=0)


class TestMultiTenantRun:
    def test_reports_cover_the_merged_stream(self, multitenant_result):
        offered = sum(
            row["num_requests"] for row in multitenant_result.tenants
        )
        for report in (multitenant_result.flexmoe, multitenant_result.fifo):
            assert (
                len(report.records) + len(report.rejected) == offered
            )
            assert report.tenancy is not None
            assert report.tenancy.num_tenants == 3

    def test_summary_shape(self, multitenant_result):
        summary = multitenant_result.summary()
        assert summary["suite"] == "multitenant_serving"
        assert summary["ok"] == all(
            gate["passed"] for gate in summary["gates"].values()
        )
        assert len(summary["tenants"]) == 3
        for key in ("flexmoe", "fifo"):
            section = summary[key]
            assert set(section["per_class"]) == {"interactive", "batch"}
            assert len(section["per_tenant"]) == 3
            assert 0.0 <= section["jain_fairness"] <= 1.0
        att = summary["interactive_attainment"]
        assert summary["attainment_gain"] == att["flexmoe"] - att["fifo"]

    def test_deterministic(self):
        kwargs = dict(num_requests=80, seed=3)
        assert multitenant_run(**kwargs).summary() == multitenant_run(
            **kwargs
        ).summary()

    def test_acceptance_priority_beats_fifo_on_interactive(self):
        """ISSUE-7 acceptance: priority admission strictly above
        static+FIFO on interactive attainment, fairness above the
        floor, and preemption actually exercised."""
        result = multitenant_run(num_requests=200, seed=0)
        assert result.ok
        flex, fifo = result.flexmoe, result.fifo
        assert result.interactive_attainment(
            flex
        ) > result.interactive_attainment(fifo)
        assert flex.jain_fairness_index() >= result.fairness_floor
        assert flex.tenancy.preemptions > 0
        assert fifo.tenancy.preemptions == 0
        assert flex.placement_actions > 0
        assert fifo.placement_actions == 0


class TestServeCLI:
    ARGS = [
        "serve",
        "--layers", "1",
        "--experts", "8",
        "--gpus", "4",
        "--requests", "60",
        "--mean-tokens", "256",
        "--batch-tokens", "2048",
    ]

    def test_human_readable(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "flexmoe.p99_latency_s" in out
        assert "flexmoe.goodput_tokens_per_s" in out
        assert f"report written to {REPORT_FILENAME}" in out
        assert (tmp_path / REPORT_FILENAME).exists()

    def test_json_output(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(self.ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["suite"] == "serving_latency"
        on_disk = json.loads((tmp_path / REPORT_FILENAME).read_text())
        assert on_disk == payload

    def test_smoke_gate_passes_and_writes_report(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["serve", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "serve smoke: OK" in out
        payload = json.loads((tmp_path / REPORT_FILENAME).read_text())
        assert payload["ok"] is True
        assert payload["provenance"]["argv"] == ["serve", "--smoke"]

    def test_failure_scenario(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(self.ARGS + ["--failures", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"]["num_faults"] > 0

    def test_unwritable_output_fails_fast(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "report.json"
        assert main(self.ARGS + ["--output", str(target)]) == 2
        assert "cannot write report" in capsys.readouterr().err


class TestServeMultiTenantCLI:
    def test_smoke_gate_passes_and_writes_report(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["serve", "--multi-tenant", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "serve multi-tenant smoke: OK" in out
        assert "interactive_attainment.flexmoe" in out
        assert "jain_fairness" in out
        payload = json.loads(
            (tmp_path / MULTITENANT_REPORT_FILENAME).read_text()
        )
        assert payload["suite"] == "multitenant_serving"
        assert payload["ok"] is True
        att = payload["interactive_attainment"]
        assert att["flexmoe"] > att["fifo"]
        assert payload["jain_fairness"] >= payload["fairness_floor"]

    def test_json_output_matches_disk(
        self, capsys, tmp_path, monkeypatch, committed_report
    ):
        # The canonical command, re-run from the committed report's
        # provenance, reproduces that report exactly.
        argv, committed = committed_report(MULTITENANT_REPORT_FILENAME)
        assert argv == ["serve", "--multi-tenant"]
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        on_disk = json.loads(
            (tmp_path / MULTITENANT_REPORT_FILENAME).read_text()
        )
        assert on_disk == payload
        assert payload.pop("provenance")["argv"] == argv
        assert payload == committed

    def test_output_override(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        target = tmp_path / "custom.json"
        assert main(
            ["serve", "--multi-tenant", "--smoke", "--output", str(target)]
        ) == 0
        assert target.exists()
        assert not (tmp_path / MULTITENANT_REPORT_FILENAME).exists()

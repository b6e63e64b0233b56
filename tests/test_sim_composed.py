"""The composed scenario (serving + elasticity + budget) and its CLI."""

import json

import pytest

from repro.cli import main
from repro.exceptions import ConfigurationError
from repro.sim.composed import (
    ComposedScenarioConfig,
    build_composed_scenario,
    composed_scenario_run,
)

#: One CI-scale run shared by the assertions below (the scenario is
#: deterministic, so there is nothing to gain from re-running it).
SMOKE_SEED = 0


@pytest.fixture(scope="module")
def smoke_report():
    return composed_scenario_run(smoke=True, seed=SMOKE_SEED)


class TestComposedScenarioConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ComposedScenarioConfig(num_requests=0)
        with pytest.raises(ConfigurationError):
            ComposedScenarioConfig(num_failures=8, num_gpus=8)
        with pytest.raises(ConfigurationError):
            ComposedScenarioConfig(budget_bandwidth=0.0)

    def test_smoke_uses_shared_policy(self):
        config = ComposedScenarioConfig(num_requests=400, num_failures=2)
        smoke = config.smoke()
        assert smoke.num_requests == 150  # floor of the quarter-scaling
        assert smoke.num_failures == 1
        assert smoke.num_gpus == config.num_gpus  # structure untouched


class TestComposedScenario:
    def test_smoke_run_is_ok(self, smoke_report):
        assert smoke_report["ok"] is True

    def test_all_three_sources_fired(self, smoke_report):
        """The composition is genuine: every source did observable work."""
        assert smoke_report["serving"]["requests_served"] > 0
        assert smoke_report["events_applied"] == 2  # one fail + one recover
        kinds = [ev["kind"] for ev in smoke_report["cluster_events"]]
        assert kinds == ["fail", "recover"]
        assert smoke_report["budget_grants"] > 0
        assert smoke_report["budget_committed_actions"] > 0

    def test_failures_are_time_keyed_not_batch_keyed(self, smoke_report):
        """The old loops quantized elasticity to batch indices; the
        kernel delivers it at wall-clock instants."""
        fail = smoke_report["cluster_events"][0]
        assert fail["time_s"] > 0.0
        assert fail["time_s"] != int(fail["time_s"])

    def test_deferred_streams_commit_only_through_budget(self, smoke_report):
        # The engine-wide committed counter is the authoritative total
        # and must reconcile exactly with the per-channel counters:
        # budget-source commits plus in-step serving commits.
        assert smoke_report["gates"]["placement_actions_reconciled"][
            "passed"
        ] is True
        assert (
            smoke_report["placement_actions_total"]
            == smoke_report["engine_committed_actions"]
        )
        assert (
            smoke_report["placement_actions_total"]
            == smoke_report["budget_committed_actions"]
            + smoke_report["serving"]["placement_actions"]
        )
        # In-step commits are deferred (stream_budget=0), so the serving
        # report's own action counter stays at zero while the budget
        # channel carries every committed action.
        assert smoke_report["serving"]["placement_actions"] == 0
        assert smoke_report["budget_committed_actions"] > 0

    def test_same_seed_same_report(self, smoke_report):
        again = composed_scenario_run(smoke=True, seed=SMOKE_SEED)
        assert again == smoke_report

    def test_whole_stream_accounted(self, smoke_report):
        serving = smoke_report["serving"]
        assert smoke_report["requests_unaccounted"] == 0
        assert (
            serving["requests_served"] + serving["requests_rejected"] == 150
        )

    def test_overload_that_strands_requests_is_not_ok(self):
        """A server that falls hopelessly behind must not report a clean
        run: requests stranded at the horizon flip the ok marker."""
        report = composed_scenario_run(
            config=ComposedScenarioConfig(
                num_requests=120, load=3.0, num_failures=1, seed=0
            )
        )
        assert report["requests_unaccounted"] > 0
        assert report["ok"] is False
        assert report["gates"]["requests_unaccounted"]["passed"] is False

    def test_explicit_small_request_count_survives_smoke(self):
        config = ComposedScenarioConfig(num_requests=100).smoke()
        assert config.num_requests == 100  # never scaled UP to the floor

    def test_scenario_spec_shape(self):
        handles = build_composed_scenario(
            ComposedScenarioConfig(seed=3).smoke()
        )
        scenario = handles.scenario
        assert scenario.name == "serving+elasticity+budget"
        assert len(scenario.sources) == 3
        assert scenario.duration is not None and scenario.duration > 0
        assert scenario.seed == 3


class TestScenarioCli:
    def test_scenario_smoke_json_writes_report(self, capsys, tmp_path):
        out = tmp_path / "composed.json"
        code = main(
            ["scenario", "--smoke", "--json", "--output", str(out)]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        on_disk = json.loads(out.read_text())
        assert on_disk["ok"] is True
        assert on_disk["suite"] == "composed_scenario"

    def test_scenario_human_readable(self, capsys, tmp_path, committed_report):
        # The canonical command, re-run from the committed report's
        # provenance, reproduces that report exactly.
        argv, committed = committed_report("BENCH_composed_scenario.json")
        assert argv == ["scenario"]
        out = tmp_path / "composed.json"
        code = main(argv + ["--output", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "scenario: OK" in captured
        assert "budget_committed_actions" in captured
        written = json.loads(out.read_text())
        assert written.pop("provenance")["argv"] == argv
        assert written == committed

    def test_scenario_unwritable_output_fails_fast(self, capsys, tmp_path):
        code = main(
            ["scenario", "--smoke", "--output", str(tmp_path)]  # a directory
        )
        assert code == 2
        assert "cannot write report" in capsys.readouterr().err

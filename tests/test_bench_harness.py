"""Tests of the machine-readable benchmark harness (repro.bench)."""

from __future__ import annotations

import json
import os

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    BenchConfig,
    list_scenarios,
    run_scenario,
    scenario_help,
    time_callable,
)
from repro.errors import ConfigurationError

#: Every scenario the harness must know about, per the bench catalogue.
EXPECTED_SCENARIOS = {
    "figure4",
    "tuning",
    "serve_delta",
    "serve_batch",
    "split",
    "operator",
    "stream",
}


class TestTimeCallable:
    def test_runs_warmup_plus_repeats(self):
        calls = []
        stats, result = time_callable(
            lambda: calls.append(1) or len(calls), warmup=2, repeats=3
        )
        assert len(calls) == 5
        assert len(stats.wall_times) == 3
        assert stats.warmup == 2
        assert result == 5  # the last timed call's return value

    def test_stats_derive_from_wall_times(self):
        stats, _ = time_callable(lambda: None, repeats=3)
        assert stats.best == min(stats.wall_times)
        assert stats.mean == pytest.approx(
            sum(stats.wall_times) / len(stats.wall_times)
        )

    def test_rejects_bad_counts(self):
        with pytest.raises(ConfigurationError):
            time_callable(lambda: None, repeats=0)
        with pytest.raises(ConfigurationError):
            time_callable(lambda: None, warmup=-1)


class TestRegistry:
    def test_expected_scenarios_registered(self):
        assert EXPECTED_SCENARIOS <= set(list_scenarios())

    def test_help_has_descriptions(self):
        help_map = scenario_help()
        for name in EXPECTED_SCENARIOS:
            assert help_map[name]

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown bench"):
            run_scenario("no-such-scenario")


class TestBenchJson:
    @pytest.fixture(scope="class")
    def figure4_result(self):
        """One smoke figure4 run shared by every schema assertion."""
        return run_scenario("figure4", jobs=2, size="tiny", smoke=True)

    def test_emits_valid_json_file(self, figure4_result, tmp_path):
        path = figure4_result.write(str(tmp_path))
        assert os.path.basename(path) == "BENCH_figure4.json"
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["schema_version"] == SCHEMA_VERSION
        assert document["scenario"] == "figure4"

    def test_schema_core_fields(self, figure4_result):
        document = figure4_result.as_dict()
        assert document["config"]["jobs"] == 2
        assert document["config"]["smoke"] is True
        assert document["machine"]["cpu_count"] >= 1
        assert document["created_utc"].endswith("Z")
        assert document["elapsed_seconds"] > 0

    def test_payload_has_required_measurements(self, figure4_result):
        payload = figure4_result.payload
        # The acceptance contract: wall time, iterations, speedup vs
        # serial, dataset size.
        assert payload["serial"]["wall_times_seconds"]
        assert payload["parallel"]["wall_times_seconds"]
        assert payload["parallel"]["jobs"] == 2
        assert payload["speedup_vs_serial"] > 0
        assert payload["evaluations_per_run"] > 0
        assert payload["dataset"]["n_papers"] > 0
        assert payload["dataset"]["n_citations"] > 0

    def test_parallel_run_has_identical_rankings(self, figure4_result):
        assert figure4_result.payload["identical_rankings"] is True
        assert figure4_result.payload["winner_at_ratio"]

    def test_scenario_defaults_respected(self):
        config = BenchConfig(scenario="x")
        assert config.jobs == 1
        assert config.repeats == 1
        assert config.warmup == 0


class TestCheapScenarios:
    def test_split_scenario(self, tmp_path):
        result = run_scenario(
            "split", size="tiny", smoke=True, repeats=1, warmup=0
        )
        assert result.payload["splits_per_second"] > 0
        path = result.write(str(tmp_path))
        assert os.path.exists(path)

    def test_operator_scenario(self):
        result = run_scenario(
            "operator", size="tiny", smoke=True, repeats=1, warmup=0
        )
        assert result.payload["applies_per_second"] > 0
        assert result.payload["nnz"] > 0

    def test_serve_delta_scenario(self):
        result = run_scenario(
            "serve_delta", size="tiny", smoke=True, repeats=1, warmup=0
        )
        payload = result.payload
        assert payload["delta"]["n_new_papers"] > 0
        assert payload["warm"]["best_seconds"] > 0
        assert payload["cold"]["best_seconds"] > 0
        # This scenario compares warm vs cold re-solves — it must not
        # masquerade as a parallel-vs-serial measurement.
        assert "speedup_warm_vs_cold" in payload
        assert "speedup_vs_serial" not in payload
        # Warm starts must never need more iterations than cold solves.
        for label, warm_iterations in payload["warm"]["iterations"].items():
            assert warm_iterations <= payload["cold"]["iterations"][label]


class TestStreamBootstrap:
    """The stream scenario's bootstrap at ``small``, where a fixed
    512-event prefix holds citations at a single age and AttRank's
    decay fit is undefined."""

    @pytest.fixture(scope="class")
    def log(self):
        from repro.stream import EventLog
        from repro.synth.profiles import generate_dataset

        network = generate_dataset("hep-th", size="small", seed=7)
        return EventLog.from_network(network)

    @staticmethod
    def _fit(log, cut):
        from repro.core.recency import fit_decay_rate
        from repro.stream import EventLog
        from repro.stream.ingest import network_from_log

        return fit_decay_rate(network_from_log(EventLog(log.events[:cut])))

    def test_bootstrap_is_the_first_cut_with_a_decay_fit(self, log):
        from repro.bench.scenarios import decay_fit_bootstrap
        from repro.errors import EvaluationError
        from repro.stream.events import group_boundaries

        cuts = group_boundaries(log.events)
        bootstrap = decay_fit_bootstrap(log)
        assert bootstrap in cuts
        assert self._fit(log, bootstrap).decay_rate < 0
        with pytest.raises(EvaluationError, match="decay rate"):
            self._fit(log, cuts[cuts.index(bootstrap) - 1])
        old_fixed_bootstrap = next(cut for cut in cuts if cut >= 512)
        with pytest.raises(EvaluationError, match="decay rate"):
            self._fit(log, old_fixed_bootstrap)

    def test_replay_starts_from_that_bootstrap(self, log):
        from repro.bench.scenarios import decay_fit_bootstrap
        from repro.stream import StreamIngestor

        bootstrap = decay_fit_bootstrap(log)
        ingestor = StreamIngestor(
            log, ("AR", "CC"), batch_size=32, bootstrap_size=bootstrap
        )
        first = ingestor.step()
        assert first.bootstrap and first.offset_end == bootstrap
        assert ingestor.step().version == 1

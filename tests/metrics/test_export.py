"""Tests for trace export (CSV series, JSON summaries)."""

from __future__ import annotations

import csv
import json

import pytest

from repro.cluster.cluster import ClusterConfig
from repro.cluster.node import N1_STANDARD_4_RESERVED
from repro.experiments.runner import ExperimentSpec, StackConfig, run_experiment
from repro.metrics.export import (
    export_series_csv,
    export_summary_json,
    series_rows,
    summary_dict,
)
from repro.workloads.synthetic import uniform_bag


@pytest.fixture(scope="module")
def result():
    return run_experiment(
        ExperimentSpec(
            uniform_bag(10, execute_s=30.0, declared=True),
            policy="hta",
            stack=StackConfig(
                cluster=ClusterConfig(
                    machine_type=N1_STANDARD_4_RESERVED, min_nodes=2, max_nodes=4
                ),
                seed=4,
            ),
        )
    )


class TestSeriesRows:
    def test_grid_covers_whole_window(self, result):
        rows = series_rows(result, dt=10.0)
        t0, t1 = result.accountant.window()
        assert rows[0]["time_s"] == 0.0
        assert rows[-1]["time_s"] == pytest.approx(t1 - t0)

    def test_values_match_series(self, result):
        rows = series_rows(result, dt=25.0)
        t0, _ = result.accountant.window()
        for row in rows:
            assert row["supply"] == result.series("supply").value_at(t0 + row["time_s"])

    def test_custom_series_selection(self, result):
        rows = series_rows(result, series_names=("nodes",), dt=50.0)
        assert set(rows[0].keys()) == {"time_s", "nodes"}

    def test_invalid_dt_rejected(self, result):
        with pytest.raises(ValueError):
            series_rows(result, dt=0)


class TestFiles:
    def test_csv_roundtrip(self, result, tmp_path):
        path = tmp_path / "series.csv"
        n = export_series_csv(result, str(path), dt=20.0)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == n
        assert float(rows[0]["time_s"]) == 0.0
        assert "supply" in rows[0]

    def test_json_summary_roundtrip(self, result, tmp_path):
        path = tmp_path / "summary.json"
        export_summary_json(result, str(path))
        data = json.loads(path.read_text())
        assert data["name"] == "HTA"
        assert data["tasks_completed"] == 10
        assert data["makespan_s"] == pytest.approx(result.makespan_s)
        assert isinstance(data["extras"], dict)

    def test_summary_dict_is_json_serializable(self, result):
        json.dumps(summary_dict(result))

"""Export experiment traces for external plotting/analysis.

Library consumers who want real figures (matplotlib, gnuplot, a
spreadsheet) need the raw series. This module dumps an
:class:`~repro.experiments.runner.ExperimentResult`'s step series to CSV
(uniform resampling grid) and its summary/extras to JSON.
"""

from __future__ import annotations

import csv
import json
from typing import TYPE_CHECKING, Dict, List, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.runner import ExperimentResult

DEFAULT_SERIES = ("supply", "in_use", "shortage", "waste", "demand", "nodes")


def series_rows(
    result: "ExperimentResult",
    series_names: Sequence[str] = DEFAULT_SERIES,
    *,
    dt: float = 10.0,
) -> List[Dict[str, float]]:
    """Resample the named series onto a shared grid of ``dt`` seconds."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    t0, t1 = result.accountant.window()
    series = {name: result.series(name) for name in series_names}
    rows: List[Dict[str, float]] = []
    t = t0
    while True:
        row: Dict[str, float] = {"time_s": round(t - t0, 6)}
        for name, s in series.items():
            row[name] = s.value_at(t)
        rows.append(row)
        if t >= t1:
            break
        t = min(t + dt, t1)
    return rows


def export_series_csv(
    result: "ExperimentResult",
    path: str,
    series_names: Sequence[str] = DEFAULT_SERIES,
    *,
    dt: float = 10.0,
) -> int:
    """Write the resampled series to ``path``; returns the row count."""
    rows = series_rows(result, series_names, dt=dt)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    return len(rows)


def summary_dict(result: "ExperimentResult") -> Dict[str, object]:
    """A JSON-serializable record of the run's headline numbers."""
    a = result.accounting
    return {
        "name": result.name,
        "makespan_s": result.makespan_s,
        "runtime_s": a.runtime_s,
        "accumulated_waste_core_s": a.accumulated_waste_core_s,
        "accumulated_shortage_core_s": a.accumulated_shortage_core_s,
        "utilization": a.utilization,
        "mean_supply_cores": a.mean_supply_cores,
        "peak_supply_cores": a.peak_supply_cores,
        "tasks_total": result.tasks_total,
        "tasks_completed": result.tasks_completed,
        "tasks_requeued": result.tasks_requeued,
        "nodes_peak": result.nodes_peak,
        "workers_started": result.workers_started,
        "extras": dict(result.extras),
    }


def export_summary_json(result: "ExperimentResult", path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary_dict(result), fh, indent=2, sort_keys=True)
        fh.write("\n")

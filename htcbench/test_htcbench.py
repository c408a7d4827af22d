"""Smoke-size tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest htcbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from htcbench.drive import drive, prepare  # noqa: E402
from htcbench.layers import LayerTrace  # noqa: E402
from htcbench.workloads import WORKLOADS, stratified_runtimes  # noqa: E402
from repro.sim.engine import Engine  # noqa: E402
from repro.sim.rng import RngRegistry  # noqa: E402

SMOKE = 0.05

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "htcbench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize(
    "trace, section", [("0", "end_to_end"), ("1", "per_layer")]
)
def test_metric_names_and_units_match_benchmark_json(trace, section):
    out = _result(_run("--workload", "multistage-churn", "--seed", "3",
                       "--seconds", "0", "--trace", trace,
                       "--scale", str(SMOKE)))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {n: m["unit"] for n, m in out["metrics"].items()} == expected


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_preserves_behaviour_and_covers_wall(name):
    workload = WORKLOADS[name]
    plain = drive(prepare(workload, 5, SMOKE))
    assert plain.tasks_done == plain.tasks_total and not plain.tasks_abandoned
    trace = LayerTrace()
    with trace:
        prep = prepare(workload, 5, SMOKE)
        trace.reset()
        engine = prep.stack.engine
        traced = drive(prep, run=lambda until: trace.span(
            "sim", engine.run, until=until))
    assert (traced.digest, traced.events) == (plain.digest, plain.events)
    assert traced.makespan_s == plain.makespan_s
    layers = trace.metrics(traced.loop_s, traced.events)
    assert layers["trace.coverage"] >= 0.9
    assert layers["sim.events"] == plain.events
    assert layers["wq.dispatch.passes"] > 0 and layers["metrics.samples"] > 0


def test_trace_restores_the_program():
    originals = (Engine.__dict__["call_at"],)
    with LayerTrace():
        assert Engine.__dict__["call_at"] is not originals[0]
    assert (Engine.__dict__["call_at"],) == originals


def test_same_seed_same_inputs_other_seed_other_order():
    def runtimes(seed):
        graph = WORKLOADS["multistage-churn"].generate(seed, SMOKE)
        return [t.execute_s for t in graph.tasks]

    assert runtimes(1) == runtimes(1)
    assert runtimes(1) != runtimes(2)
    assert sorted(runtimes(1)) == sorted(runtimes(2))


def test_stratified_runtimes_have_the_stage_mean_and_median_probe():
    values = stratified_runtimes(RngRegistry(0), "s", 400, 120.0,
                                 median_first=True)
    assert abs(sum(values) / len(values) - 120.0) < 1.0
    assert values[0] == sorted(values)[200]


def test_fails_without_the_simulator(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: no result, exit != 0."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "htcbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "deep-queue", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

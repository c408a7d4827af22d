"""Bench: shard failover re-homes a dead shard's work (beyond the paper).

Regenerates the failover experiment at full scale — a 4-shard dispatch
plane losing one shard permanently mid-flight — and asserts the
contract the subsystem is sold on at the validated seed: with the
failover coordinator every task completes and the merged journal passes
the failover-protocol audit (zero tasks resumed twice, OUT/IN
balanced), while the bare plane strands the dead shard's partition at
the same sim-time horizon; HTA sizing under the crash stays within
tolerance of the no-crash oracle. A second benchmark runs the full-size
soak with the ``shard_crash`` chaos primitive enabled and asserts zero
invariant violations.
"""

from __future__ import annotations

import json

from benchmarks.conftest import run_once

from repro.experiments import failover
from repro.soak import SoakConfig, run_soak

SEED = 0


def test_failover_deterministic():
    """Two same-seed drives must agree on every headline number."""
    first = failover.run_shard_loss(failover=True, n_tasks=600, seed=SEED)
    second = failover.run_shard_loss(failover=True, n_tasks=600, seed=SEED)
    for attr in (
        "completed",
        "sim_s",
        "failovers",
        "tasks_rehomed",
        "tasks_rebalanced",
        "workers_reattached",
        "protocol_violations",
        "replay_violations",
    ):
        assert getattr(first, attr) == getattr(second, attr), attr


def test_failover_full(benchmark, tmp_path):
    """The full contract: main() raises SystemExit on any violation."""
    run_once(benchmark, failover.main, SEED, out_dir=str(tmp_path))
    report = json.loads((tmp_path / "BENCH_PERF.json").read_text())
    assert report["ok"] is True
    on = report["runs"]["shard-loss-failover"]
    off = report["runs"]["shard-loss-bare"]
    # Failover completes everything; the bare plane strands the dead
    # shard's partition — strictly fewer completions, same horizon.
    assert on["completed"] == on["n_tasks"]
    assert off["completed"] < on["completed"]
    assert on["failovers"] == 1
    assert on["tasks_rehomed"] > 0
    # Zero tasks resumed twice, OUT/IN balanced, replay clean.
    assert on["protocol_violations"] == 0
    assert on["replay_violations"] == 0
    assert off["protocol_violations"] == 0
    # HTA sizing under the mid-flight crash tracks the no-crash oracle.
    assert report["hta_fidelity"]["ok"] is True


def test_soak_with_shard_crashes_full(benchmark):
    """A full-size sharded soak with shard_crash holds every invariant
    (seed 12: base seed 1, sharded plane armed)."""
    report = run_once(benchmark, run_soak, 12, SoakConfig())
    assert report.quiesced, report.describe()
    assert report.ok, report.describe()
    assert report.stats["shard_crashes"] >= 1, report.describe()
    assert (
        report.stats["tasks_done"] + report.stats["tasks_abandoned"] == 120
    )

"""Bench: result integrity under a black-hole storm (beyond the paper).

Regenerates the integrity experiment at full scale — the same fast-fake
black-hole storm against an attribution-off baseline (no verification,
no health ledger) and the attribution-on stack (digest verification +
quarantine) — and asserts the contract the subsystem is sold on at the
validated seed: attribution-on finishes with zero corrupted completions
and a strictly higher clean-goodput rate, and quarantines at least one
worker. A second benchmark runs the full-size soak with value faults
enabled and asserts zero invariant violations.
"""

from __future__ import annotations

from benchmarks.conftest import run_once

from repro.experiments import integrity
from repro.soak import SoakConfig, run_soak

SEED = 0


def test_integrity_deterministic():
    """Two same-seed runs must agree on every headline metric."""
    first = integrity.run(SEED, smoke=True)
    second = integrity.run(SEED, smoke=True)
    for name in first:
        assert first[name].makespan_s == second[name].makespan_s, name
        assert first[name].extras == second[name].extras, name


def test_integrity_full(benchmark):
    results = run_once(benchmark, integrity.run, SEED)
    off = results["attribution-off"]
    on = results["attribution-on"]

    # The storm bit both variants and every task resolved COMPLETE.
    for name, result in results.items():
        assert result.extras["black_holes_injected"] == integrity.STORM_SIZE, name
        assert result.tasks_completed == integrity.N_TASKS, name
        assert result.extras["tasks_abandoned"] == 0, name

    # Without verification nothing is ever caught; the fakes land in
    # the done set and no worker is ever blamed.
    assert off.extras["corrupted_completes"] > 0
    assert off.extras["verify_fails"] == 0
    assert off.extras["quarantines"] == 0

    # The acceptance-gate contract at the validated seed: a corrupted
    # result never reaches COMPLETE, the black holes are quarantined,
    # and the clean-goodput rate is strictly higher.
    assert on.extras["corrupted_completes"] == 0
    assert on.extras["verify_fails"] > 0
    assert on.extras["quarantines"] >= 1
    assert on.extras["tasks_poisoned"] == 0  # no false poison verdicts
    assert integrity.clean_goodput_rate(on) > integrity.clean_goodput_rate(off)


def test_soak_with_integrity_full(benchmark):
    """A full-size soak with value faults holds every invariant (seed 10:
    base seed 1, integrity armed)."""
    report = run_once(benchmark, run_soak, 10, SoakConfig())
    assert report.quiesced, report.describe()
    assert report.ok, report.describe()
    assert (
        report.stats["tasks_done"] + report.stats["tasks_abandoned"] == 120
    )
    # The seed-10 schedule draws at least one value fault, and whatever
    # corruption landed never reached COMPLETE (verification is armed).
    assert (
        report.stats["corruptions_injected"] + report.stats["black_holes_injected"]
        > 0
    )
    assert report.stats["corrupted_completes"] == 0

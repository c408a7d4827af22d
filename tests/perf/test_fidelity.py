"""Fixed-seed bit-fidelity against the pre-optimization golden capture.

The golden file was generated from the unoptimized simulator (commit
before the perf subsystem landed) by running chaos-enabled smoke soaks
and recording each seed's journal digest, final metric dict, and
quiescence outcome. Every optimization since must reproduce all three
bit-for-bit: these runs include preemption waves, API outages, and
image-pull stalls, so the fidelity proof covers the hostile paths too.

A soak seed's ``seed % 8`` is its arm code (bit 0 migration, bit 1
integrity faults, bit 2 a sharded plane with failover), so the golden
pins each armed path on its own: the default stack (code 0, seeds 56,
9872 and 266384), migration (code 1, seeds 9, 17, 25), value faults with
the health ledger (code 2, seeds 10, 18, 26) and the 4-shard plane with
shard crashes (code 4, seeds 12, 20, 28). This module re-runs the
unarmed seeds; ``test_fidelity_configs.py`` re-runs each single arm's.
"""

from __future__ import annotations

from repro.perf.fidelity import GOLDEN_PATH, check_fidelity, load_golden
from repro.soak.schedule import armed


def test_golden_capture_exists_and_is_well_formed():
    golden = load_golden()
    assert golden, f"empty golden capture at {GOLDEN_PATH}"
    for seed, entry in golden.items():
        int(seed)  # keys are stringified seeds
        assert entry["journal_digest"], seed
        assert isinstance(entry["stats"], dict) and entry["stats"], seed
        assert "quiesced" in entry


def test_golden_pins_every_single_arm():
    codes = {int(seed) % 8 for seed in load_golden()}
    assert {0, 1, 2, 4} <= codes


def test_optimized_simulator_matches_pre_optimization_journals():
    """The oracle itself: re-run every unarmed golden seed on the current
    code and demand identical journals, metrics, and quiescence."""
    golden = {
        seed: entry for seed, entry in load_golden().items()
        if not armed(int(seed))
    }
    assert sorted(golden, key=int) == ["56", "9872", "266384"]
    problems = check_fidelity(golden)
    assert not problems, "\n".join(problems)

"""Soak — seeded chaos schedules with invariant checking at quiescence.

Beyond the paper: every other experiment injects one curated fault
profile. The soak throws a *generated* schedule — every chaos primitive
the simulator knows, in seeded random order — at a spot-aware HTA stack,
drives the workload to quiescence, and then audits the final state with
the :mod:`repro.soak.invariants` checkers: task conservation, no worker
leaks, monotonic API resource versions, metrics/trace consistency, and
the quiescence itself.

The seed also chooses what is armed: bit 0 of ``seed % 8`` arms
checkpoint/restore migration (the ``migrate`` primitive joins the pool
and preemption drains migrate), bit 1 arms value faults (the
``corrupt`` and ``black_hole`` primitives join the pool, seeded
result/checkpoint corruption arms, verification polices deliveries and
the health ledger quarantines sick workers), and bit 2 runs the
dispatch plane as four masters behind a foreman with a failover
coordinator (the ``shard_crash`` primitive, a transient *or permanent*
loss of one shard, joins the pool and the failover-protocol invariant
audits the merged journal). Every random stream draws from the base
seed ``seed // 8``, so seeds ``8*b .. 8*b+7`` soak one base schedule
under all eight arm codes.

A clean run prints one ``OK`` line per seed. A violation prints the
failing seed, which is a complete reproduction recipe::

    python -m repro.experiments soak --seed 41 --smoke

``--runs N`` sweeps seeds ``seed .. seed+N-1``; the process exits
nonzero on the first violating seed (CI runs
``soak --smoke --seed 8 --runs 32``: base seeds 1-4 under every arm
code).
"""

from __future__ import annotations

from repro.soak.harness import SoakConfig, first_violation, run_soak_batch


def main(seed: int = 0, *, smoke: bool = False, runs: int = 1) -> str:
    if runs < 1:
        raise ValueError("runs must be >= 1")
    config = SoakConfig().smoke() if smoke else SoakConfig()
    seeds = list(range(seed, seed + runs))
    reports = run_soak_batch(seeds, config)
    out = "\n".join(report.describe() for report in reports)
    print(out)
    failing = first_violation(reports)
    if failing is not None:
        raise SystemExit(
            f"soak failed: seed {failing.seed} violated "
            f"{len(failing.violations)} invariant(s); reproduce with "
            f"`python -m repro.experiments soak --seed {failing.seed}"
            f"{' --smoke' if smoke else ''}`"
        )
    return out


if __name__ == "__main__":  # pragma: no cover
    main()

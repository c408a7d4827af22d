"""Optimization-safety proof: fixed-seed journal bit-fidelity.

Every hot-path change in this subsystem's remit (Master indexing,
aggregate counters, lazy telemetry, ``__slots__``, resync coalescing)
must be *behavior-preserving*: at a fixed seed the simulation must make
exactly the same decisions at exactly the same times. The oracle is the
master's transaction journal — every submit/dispatch/retry/complete/
abandon/escalate with full timestamps and result fields — hashed by
:meth:`repro.wq.journal.TransactionJournal.digest` and compared against
digests captured *before* any optimization landed
(``tests/perf/data/fidelity_golden.json``). The runs are full
chaos-enabled smoke soaks (preemption waves, API outages, pull stalls,
...), so the comparison covers the hostile paths, not just the happy
one. A soak seed also picks what is armed (bit ``i`` of ``seed % 8``
arms ``("migrate", "integrity", "sharded")[i]``, see
:func:`repro.soak.schedule.armed`), so the golden's seeds pin the
migration coordinator, value faults with the health ledger and the
sharded plane with failover as well as the default stack.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

from repro.soak import SoakConfig, run_soak

#: Where the pre-optimization reference digests live.
GOLDEN_PATH = (
    Path(__file__).resolve().parents[3] / "tests" / "perf" / "data"
    / "fidelity_golden.json"
)


def load_golden(path: Path = GOLDEN_PATH) -> Dict[str, Dict]:
    with open(path) as f:
        return json.load(f)


def check_fidelity(golden: Dict[str, Dict]) -> List[str]:
    """Re-run every golden seed as a smoke soak; return mismatch
    descriptions (empty = bit-fidelity holds)."""
    cfg = SoakConfig().smoke()
    problems: List[str] = []
    for seed_str, expected in sorted(golden.items()):
        report = run_soak(int(seed_str), cfg)
        if not report.ok:
            problems.append(
                f"seed {seed_str}: invariant violations appeared: "
                + "; ".join(str(v) for v in report.violations)
            )
            continue
        if report.journal_digest != expected["journal_digest"]:
            problems.append(
                f"seed {seed_str}: journal digest drifted "
                f"({expected['journal_digest'][:16]}... -> "
                f"{report.journal_digest[:16]}...) — an optimization "
                f"changed the master's transition history"
            )
        for key, want in expected["stats"].items():
            got = report.stats.get(key)
            if got != want:
                problems.append(
                    f"seed {seed_str}: final metric {key!r} drifted "
                    f"({want} -> {got})"
                )
        if bool(expected.get("quiesced", True)) != report.quiesced:
            problems.append(f"seed {seed_str}: quiescence outcome changed")
    return problems

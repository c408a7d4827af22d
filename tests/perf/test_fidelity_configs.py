"""Fixed-seed bit-fidelity for each armed soak path on its own.

A soak seed's ``seed % 8`` is its arm code (bit 0 migration, bit 1
integrity faults, bit 2 a sharded plane with failover, see
:func:`repro.soak.schedule.armed`). ``tests/perf/data/fidelity_golden.json``
pins three seeds for each single arm — migration (seeds 9, 17, 25), value
faults with the health ledger (10, 18, 26) and the 4-shard plane with
shard crashes (12, 20, 28) — recording each run's journal digest, final
stats and quiescence. Each arm takes a path the unarmed soak never takes,
so a change to how the soak stack is assembled must reproduce all three.
The unarmed golden seeds are checked by ``test_fidelity.py``.
"""

from __future__ import annotations

import pytest

from repro.perf.fidelity import check_fidelity, load_golden
from repro.soak.schedule import armed

ARMED = {
    "migrate": ("migrate",),
    "integrity": ("integrity",),
    "shard_crash": ("sharded",),
}


@pytest.mark.parametrize("name", sorted(ARMED))
def test_soak_config_matches_golden(name):
    golden = {
        seed: entry for seed, entry in load_golden().items()
        if armed(int(seed)) == ARMED[name]
    }
    assert len(golden) == 3, sorted(golden)
    problems = check_fidelity(golden)
    assert not problems, "\n".join(problems)

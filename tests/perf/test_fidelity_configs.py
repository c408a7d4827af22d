"""Fixed-seed bit-fidelity for the opt-in soak configurations.

``tests/perf/data/fidelity_golden.json`` pins the default smoke soak
only. This golden (``fidelity_golden_configs.json``) pins the three
opt-in smoke soaks at seeds 1-3 — the ``migrate``, ``integrity`` and
4-shard ``shard_crash`` configurations, as
``python -m repro.experiments soak --smoke`` runs them with
``--migrate``, ``--integrity`` and ``--shard-crash`` — recording each
run's journal digest, final stats and quiescence. Each config arms a
path the default soak never takes (a migration coordinator, value
faults plus the health ledger, a sharded plane with failover), so a
change to how the soak stack is assembled must reproduce all three.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.perf.fidelity import GOLDEN_PATH, check_fidelity, load_golden
from repro.soak import SoakConfig

CONFIGS_GOLDEN_PATH = GOLDEN_PATH.with_name("fidelity_golden_configs.json")

CONFIGS = {
    "migrate": SoakConfig(migrate=True).smoke(),
    "integrity": SoakConfig(integrity=True).smoke(),
    "shard_crash": SoakConfig(shards=4, shard_crash=True).smoke(),
}


def test_configs_golden_covers_every_config():
    golden = load_golden(Path(CONFIGS_GOLDEN_PATH))
    assert sorted(golden) == sorted(CONFIGS)
    for name, runs in golden.items():
        assert sorted(runs) == ["1", "2", "3"], name
        for seed, entry in runs.items():
            assert entry["journal_digest"], (name, seed)
            assert isinstance(entry["stats"], dict) and entry["stats"], (name, seed)
            assert entry["quiesced"] is True, (name, seed)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_soak_config_matches_golden(name):
    golden = load_golden(Path(CONFIGS_GOLDEN_PATH))[name]
    problems = check_fidelity(golden, config=CONFIGS[name])
    assert not problems, "\n".join(problems)

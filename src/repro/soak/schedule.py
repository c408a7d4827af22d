"""Seeded random fault schedules — the soak harness's chaos generator.

A schedule is a pure function of ``(seed, SoakScheduleConfig)``: the same
seed always yields the same list of :class:`FaultEvent`, so any invariant
violation the soak finds is reported as *the seed*, which is a complete
reproduction recipe. The generator samples every chaos primitive the
simulator knows — node kills, pod evictions, spot preemption waves,
worker⇄master network partitions, master crashes, API-server outages,
node boot-failure windows, and image-pull stalls — with per-kind weights
and parameter ranges tuned so a default schedule is hostile but
survivable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.sim.rng import RngRegistry

#: Every chaos primitive the generator can emit, with its sampling weight
#: (kills and evictions are routine; control-plane faults are rarer, as
#: each one stalls progress for its whole window).
FAULT_KIND_WEIGHTS: Dict[str, float] = {
    "node_kill": 2.0,
    "pod_eviction": 2.0,
    "preemption_wave": 2.0,
    "partition": 2.0,
    "master_crash": 0.75,
    "api_outage": 0.75,
    "boot_failures": 1.0,
    "pull_stall": 1.0,
}

FAULT_KINDS: Tuple[str, ...] = tuple(FAULT_KIND_WEIGHTS)

#: Sampling weights of the opt-in primitives a schedule's caller may add
#: to the pool (see :func:`generate_schedule`): ``migrate``
#: (checkpoint/restore drain of a random busy worker), ``corrupt``
#: (silently damage one running attempt's result), ``black_hole`` (turn
#: one worker into a fast-fail/fast-fake sink) and ``shard_crash`` (kill
#: one random dispatch shard; roughly half the strikes are permanent, so
#: the failover path is exercised). Kept out of
#: :data:`FAULT_KIND_WEIGHTS` so default schedules stay bit-identical.
OPT_IN_WEIGHTS: Dict[str, float] = {
    "migrate": 1.5,
    "corrupt": 1.5,
    "black_hole": 0.75,
    "shard_crash": 1.0,
}


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One scheduled chaos strike."""

    at_s: float
    kind: str
    #: Frozen per-kind parameters (durations, counts, probabilities).
    params: Tuple[Tuple[str, float], ...] = ()

    def param(self, key: str, default: float = 0.0) -> float:
        for k, v in self.params:
            if k == key:
                return v
        return default

    def __str__(self) -> str:
        args = ", ".join(f"{k}={v:g}" for k, v in self.params)
        return f"t={self.at_s:.0f}s {self.kind}({args})"


@dataclass(frozen=True, slots=True)
class SoakScheduleConfig:
    """Shape of a generated schedule."""

    #: Strikes land inside ``[start_after_s, horizon_s]``.
    horizon_s: float = 600.0
    start_after_s: float = 90.0
    #: Inclusive bounds on the number of strikes.
    min_events: int = 3
    max_events: int = 9
    #: At most this many master crashes per schedule (each one pauses
    #: the whole data plane for its restart delay).
    max_master_crashes: int = 1
    #: At most this many API outages per schedule.
    max_api_outages: int = 1
    #: At most this many shard crashes per schedule (each permanent one
    #: costs a failover grace worth of stranded work).
    max_shard_crashes: int = 2

    def __post_init__(self) -> None:
        if self.horizon_s <= self.start_after_s:
            raise ValueError("horizon_s must exceed start_after_s")
        if not 0 < self.min_events <= self.max_events:
            raise ValueError("need 0 < min_events <= max_events")


def _sample_params(
    kind: str, rng: RngRegistry, config: SoakScheduleConfig
) -> Tuple[Tuple[str, float], ...]:
    s = rng.stream("soak.params")
    if kind == "preemption_wave":
        return (("count", float(int(s.integers(1, 4)))),)
    if kind == "partition":
        return (("duration_s", float(s.uniform(10.0, 180.0))),)
    if kind == "master_crash":
        return (("restart_delay_s", float(s.uniform(30.0, 90.0))),)
    if kind == "api_outage":
        return (("duration_s", float(s.uniform(60.0, 240.0))),)
    if kind == "boot_failures":
        return (
            ("prob", float(s.uniform(0.3, 0.9))),
            ("duration_s", float(s.uniform(60.0, 240.0))),
        )
    if kind == "pull_stall":
        return (
            ("factor", float(s.uniform(2.0, 8.0))),
            ("duration_s", float(s.uniform(60.0, 240.0))),
        )
    if kind == "black_hole":
        # mode: 0 = fast-fail, 1 = fast-fake (encoded as a float because
        # FaultEvent params are frozen (str, float) pairs).
        return (
            ("mode", float(int(s.integers(0, 2)))),
            ("latency_s", float(s.uniform(0.5, 3.0))),
        )
    if kind == "shard_crash":
        # permanent: 1 = the shard never restarts (failover must
        # re-home its work); 0 = transient, restart_delay applies.
        permanent = float(int(s.integers(0, 2)))
        return (
            ("permanent", permanent),
            ("restart_delay_s", float(s.uniform(30.0, 120.0))),
        )
    return ()  # node_kill / pod_eviction / corrupt need no parameters


def generate_schedule(
    seed: int,
    config: SoakScheduleConfig = SoakScheduleConfig(),
    opt_in: Sequence[str] = (),
) -> List[FaultEvent]:
    """The seed's fault schedule, sorted by strike time.

    ``opt_in`` names primitives of :data:`OPT_IN_WEIGHTS` appended to
    the sampling pool, in the given order (the soak harness passes
    ``migrate``, ``corrupt``, ``black_hole``, ``shard_crash``, as its
    flags select them). Deterministic: the generator draws only from
    named streams of an :class:`RngRegistry` keyed by ``seed``, so
    regenerating with the same arguments is bit-identical.
    """
    rng = RngRegistry(seed)
    s = rng.stream("soak.schedule")
    n = int(s.integers(config.min_events, config.max_events + 1))
    kinds = list(FAULT_KIND_WEIGHTS) + list(opt_in)
    weights = [*FAULT_KIND_WEIGHTS.values(), *(OPT_IN_WEIGHTS[k] for k in opt_in)]
    total = sum(weights)
    probs = [w / total for w in weights]
    events: List[FaultEvent] = []
    crashes = outages = shard_crashes = 0
    for _ in range(n):
        kind = kinds[int(s.choice(len(kinds), p=probs))]
        # Budget the control-plane strikes; overflow degrades to a
        # routine data-plane fault so the event count stays as drawn.
        if kind == "master_crash":
            if crashes >= config.max_master_crashes:
                kind = "node_kill"
            else:
                crashes += 1
        if kind == "api_outage":
            if outages >= config.max_api_outages:
                kind = "pod_eviction"
            else:
                outages += 1
        if kind == "shard_crash":
            if shard_crashes >= config.max_shard_crashes:
                kind = "node_kill"
            else:
                shard_crashes += 1
        at = float(s.uniform(config.start_after_s, config.horizon_s))
        events.append(FaultEvent(at_s=at, kind=kind, params=_sample_params(kind, rng, config)))
    events.sort(key=lambda e: (e.at_s, e.kind))
    return events

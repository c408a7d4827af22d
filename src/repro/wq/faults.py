"""Task-level fault injection: crashes, resource exhaustion, retry policy.

The paper treats worker pods as "disposable objects which might fail or
restart" (§II-C) and leans on Work Queue's resource monitor to size
allocations per category. Real Work Queue deployments see two task-level
failure modes on top of pod loss:

* **transient failures** — the task exits nonzero (bad input shard,
  flaky service dependency); the master retries it with exponential
  backoff;
* **resource exhaustion** — the task's usage spikes above its current
  allocation and the worker's enforcement kills it. Work Queue's
  first-allocation/max-allocation scheme answers by retrying the task
  with an *escalated* allocation; the escalated size is recorded against
  the category so siblings and HTA's Algorithm 1 plan with it.

:class:`TaskFaultModel` draws one uniform variate per execution attempt
from the per-category stream ``faults.task.<category>``, so fault
sequences replay bit-identically regardless of how many other streams the
run consumes.

On top of the crash/omission faults above, this module models **value
faults** — failures that return *wrong data* instead of no data:

* **silent result corruption** — the attempt runs to completion but the
  delivered payload is damaged (bit rot, a bad NIC, a sick filesystem);
  only content-digest verification at the master can catch it;
* **checkpoint corruption** — a shipped migration snapshot is damaged in
  cut or transit; resuming from it would poison the task, so the master
  discards it and the task resumes from its last good banked progress;
* **black-hole workers** (:class:`BlackHoleProfile`) — a sick node that
  fails (or fake-completes) every task in seconds. Untreated it attracts
  the entire queue, the classic HTCondor-pool failure mode the health
  ledger (:mod:`repro.wq.health`) exists to police.

:class:`ValueFaultModel` draws from dedicated streams
(``faults.value.result.<category>`` / ``faults.value.checkpoint.<category>``)
and consumes nothing while every probability is zero, so integrity-free
runs stay bit-identical to builds that predate it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.cluster.resources import ResourceVector
from repro.sim.rng import RngRegistry
from repro.wq.task import Task


@dataclass(frozen=True, slots=True)
class TaskFault:
    """The fate drawn for one execution attempt."""

    #: ``"transient"`` (nonzero exit) or ``"exhaustion"`` (killed for
    #: exceeding the allocation).
    kind: str
    #: Fraction of the task's execution time burned before the failure
    #: surfaces (exhaustion kills mid-run; transient failures surface at
    #: the would-be exit).
    at_fraction: float
    #: For exhaustion: the allocation the retry must run under.
    escalate_to: Optional[ResourceVector] = None


@dataclass(frozen=True, slots=True)
class CategoryFaultProfile:
    """Per-category fault probabilities (per execution attempt)."""

    #: Probability the attempt exits nonzero after running to completion.
    failure_prob: float = 0.0
    #: Probability the attempt's usage spikes above its allocation.
    exhaustion_prob: float = 0.0
    #: Spike size as a multiple of the task's footprint; the retry is
    #: escalated to this allocation (Work Queue's max-allocation step).
    exhaustion_factor: float = 1.5
    #: Fraction of the execution time elapsed when the kill lands.
    exhaustion_at_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.failure_prob <= 1.0:
            raise ValueError(f"failure_prob must be in [0,1], got {self.failure_prob}")
        if not 0.0 <= self.exhaustion_prob <= 1.0:
            raise ValueError(
                f"exhaustion_prob must be in [0,1], got {self.exhaustion_prob}"
            )
        if self.failure_prob + self.exhaustion_prob > 1.0:
            raise ValueError("failure_prob + exhaustion_prob must not exceed 1")
        if self.exhaustion_factor <= 1.0:
            raise ValueError("exhaustion_factor must exceed 1")
        if not 0.0 <= self.exhaustion_at_fraction <= 1.0:
            raise ValueError("exhaustion_at_fraction must be in [0,1]")


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Exponential backoff between execution attempts of a failed task.

    Attempt ``n`` (1-based count of failures so far) waits
    ``base_backoff_s * 2**(n-1)``, capped at ``max_backoff_s``. Worker
    losses keep their immediate front-of-queue requeue — the task did
    nothing wrong — only task-level failures back off.
    """

    base_backoff_s: float = 2.0
    max_backoff_s: float = 120.0

    def __post_init__(self) -> None:
        if self.base_backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff durations must be non-negative")

    def backoff_s(self, attempts: int) -> float:
        if attempts <= 0 or self.base_backoff_s == 0:
            return 0.0
        return min(self.base_backoff_s * 2 ** (attempts - 1), self.max_backoff_s)


@dataclass(frozen=True, slots=True)
class SpeculationConfig:
    """Straggler mitigation tunables (Master's speculative re-execution)."""

    #: Scan cadence for straggler detection.
    check_period_s: float = 30.0
    #: A running task is a straggler once its elapsed execution exceeds
    #: this multiple of the category's mean runtime.
    slowdown_factor: float = 2.0
    #: Minimum completed samples before the category mean is trusted.
    min_samples: int = 3
    #: Never speculate before a task has run at least this long.
    min_age_s: float = 30.0
    #: Cap on concurrently live speculative copies.
    max_live: int = 4

    def __post_init__(self) -> None:
        if self.check_period_s <= 0:
            raise ValueError("check_period_s must be positive")
        if self.slowdown_factor <= 1.0:
            raise ValueError("slowdown_factor must exceed 1")
        if self.min_samples < 1:
            raise ValueError("min_samples must be at least 1")


@dataclass(frozen=True, slots=True)
class ValueFaultProfile:
    """Per-category value-fault probabilities (silent corruptions)."""

    #: Probability a completed attempt's delivered result is corrupted.
    result_corruption_prob: float = 0.0
    #: Probability a shipped migration checkpoint arrives corrupted.
    checkpoint_corruption_prob: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.result_corruption_prob <= 1.0:
            raise ValueError(
                f"result_corruption_prob must be in [0,1], "
                f"got {self.result_corruption_prob}"
            )
        if not 0.0 <= self.checkpoint_corruption_prob <= 1.0:
            raise ValueError(
                f"checkpoint_corruption_prob must be in [0,1], "
                f"got {self.checkpoint_corruption_prob}"
            )


#: Valid black-hole behaviours.
BLACK_HOLE_MODES = ("fast-fail", "fast-fake")


@dataclass(frozen=True, slots=True)
class BlackHoleProfile:
    """A black-hole worker's behaviour: every task it starts resolves in
    ``latency_s`` seconds — as a failure (``fast-fail``) or as a
    fake completion whose payload never verifies (``fast-fake``)."""

    mode: str = "fast-fail"
    latency_s: float = 1.0

    def __post_init__(self) -> None:
        if self.mode not in BLACK_HOLE_MODES:
            raise ValueError(
                f"unknown black-hole mode {self.mode!r}; known: {BLACK_HOLE_MODES}"
            )
        if self.latency_s < 0:
            raise ValueError(f"latency_s must be non-negative, got {self.latency_s}")


class ValueFaultModel:
    """Draws value faults (silent corruptions) from seeded streams.

    One uniform variate per *eligible* event — a result delivery or a
    checkpoint ship — from per-category streams separate from the crash
    fault streams, so arming value faults never perturbs the existing
    fault sequences, and zero-probability profiles consume nothing.
    """

    def __init__(
        self,
        rng: RngRegistry,
        *,
        profiles: Optional[Dict[str, ValueFaultProfile]] = None,
        default: Optional[ValueFaultProfile] = None,
    ) -> None:
        self.rng = rng
        self.profiles = dict(profiles) if profiles else {}
        self.default = default if default is not None else ValueFaultProfile()
        self.draws = 0

    def profile_for(self, category: str) -> ValueFaultProfile:
        return self.profiles.get(category, self.default)

    def draw_result_corruption(self, task: Task) -> bool:
        """Is this attempt's delivered result silently corrupted?"""
        profile = self.profile_for(task.category)
        if profile.result_corruption_prob == 0.0:
            return False
        self.draws += 1
        u = float(
            self.rng.stream(f"faults.value.result.{task.category}").uniform(0.0, 1.0)
        )
        return u < profile.result_corruption_prob

    def draw_checkpoint_corruption(self, task: Task) -> bool:
        """Is this shipped checkpoint corrupted in cut or transit?"""
        profile = self.profile_for(task.category)
        if profile.checkpoint_corruption_prob == 0.0:
            return False
        self.draws += 1
        u = float(
            self.rng.stream(
                f"faults.value.checkpoint.{task.category}"
            ).uniform(0.0, 1.0)
        )
        return u < profile.checkpoint_corruption_prob


class TaskFaultModel:
    """Draws a fate for each execution attempt from seeded streams."""

    def __init__(
        self,
        rng: RngRegistry,
        *,
        profiles: Optional[Dict[str, CategoryFaultProfile]] = None,
        default: Optional[CategoryFaultProfile] = None,
    ) -> None:
        self.rng = rng
        self.profiles = dict(profiles) if profiles else {}
        self.default = default if default is not None else CategoryFaultProfile()
        self.draws = 0

    def profile_for(self, category: str) -> CategoryFaultProfile:
        return self.profiles.get(category, self.default)

    def draw(self, task: Task, allocation: ResourceVector) -> Optional[TaskFault]:
        """Fate of one attempt of ``task`` running under ``allocation``.

        One uniform variate is consumed per call — the draw count per
        category depends only on the attempt sequence, keeping replays
        bit-identical. An exhaustion draw survives (returns ``None``)
        when the attempt already runs under the escalated allocation:
        retries after escalation do not die again for the same spike.
        """
        profile = self.profile_for(task.category)
        if profile.failure_prob == 0.0 and profile.exhaustion_prob == 0.0:
            return None
        self.draws += 1
        u = float(self.rng.stream(f"faults.task.{task.category}").uniform(0.0, 1.0))
        if u < profile.failure_prob:
            return TaskFault(kind="transient", at_fraction=1.0)
        if u < profile.failure_prob + profile.exhaustion_prob:
            spike = task.footprint.scale(profile.exhaustion_factor)
            survives = (
                task.min_allocation is not None
                and spike.fits_in(task.min_allocation)
            ) or spike.fits_in(allocation)
            if survives:
                return None
            return TaskFault(
                kind="exhaustion",
                at_fraction=profile.exhaustion_at_fraction,
                escalate_to=spike,
            )
        return None

"""RIU / RSH / RD / RS / RW accounting over a running experiment.

The accountant polls a set of gauges every ``period`` seconds (and on
demand), building step series of:

* ``supply``   (RS)  — cores of connected, accepting workers;
* ``in_use``   (RIU) — footprint cores of executing tasks;
* ``shortage`` (RSH) — footprint cores of ready-but-waiting tasks;
* ``waste``    (RW)  — ``max(0, supply − in_use)``;
* ``demand``   (RD)  — ``in_use + shortage``;
* ``nodes``    — cluster nodes (fig 2's cluster-size series).

Shortage uses tasks' *true* footprints: the evaluation measures actual
shortage, independent of what any estimator believed (§VI). Integrals
(core×s) are exact over the recorded step functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.sim.engine import Engine
from repro.sim.tracing import Sampler, StepSeries

Gauge = Callable[[], float]


@dataclass(frozen=True, slots=True)
class AccountingSummary:
    """The fig 10c / fig 11c row for one experiment."""

    runtime_s: float
    accumulated_waste_core_s: float
    accumulated_shortage_core_s: float
    mean_supply_cores: float
    mean_in_use_cores: float
    peak_supply_cores: float
    peak_shortage_cores: float

    @property
    def utilization(self) -> float:
        """Time-averaged RIU / RS (0..1); the paper's CPU-usage numbers."""
        if self.mean_supply_cores <= 0:
            return 0.0
        return self.mean_in_use_cores / self.mean_supply_cores

    def row(self) -> Dict[str, float]:
        return {
            "runtime_s": self.runtime_s,
            "waste_core_s": self.accumulated_waste_core_s,
            "shortage_core_s": self.accumulated_shortage_core_s,
            "utilization": self.utilization,
        }


class ResourceAccountant:
    """Samples the five resource series for one experiment run.

    Each sample evaluates the ``supply``, ``in_use`` and ``shortage``
    gauges once, in that order, and derives ``waste`` and ``demand`` from
    those same three values rather than polling the gauges again: the
    five series of one instant always agree with each other.
    """

    def __init__(
        self,
        engine: Engine,
        *,
        supply: Gauge,
        in_use: Gauge,
        shortage: Gauge,
        nodes: Optional[Gauge] = None,
        period: float = 1.0,
    ) -> None:
        self.engine = engine
        self._supply = supply
        self._in_use = in_use
        self._shortage = shortage
        self._nodes = nodes
        #: The current sample's (supply, in_use, shortage).
        self._taken = (0.0, 0.0, 0.0)
        self.sampler = Sampler(engine, period)
        # The sampler polls in registration order, so "supply" takes the
        # sample and the four series after it read what it took.
        self.sampler.add_gauge("supply", self._take)
        self.sampler.add_gauge("in_use", lambda: self._taken[1])
        self.sampler.add_gauge("shortage", lambda: self._taken[2])
        self.sampler.add_gauge(
            "waste", lambda: max(0.0, self._taken[0] - self._taken[1])
        )
        self.sampler.add_gauge("demand", lambda: self._taken[1] + self._taken[2])
        if nodes is not None:
            self.sampler.add_gauge("nodes", nodes)
        self.start_time: Optional[float] = None
        self.stop_time: Optional[float] = None

    def _take(self) -> float:
        taken = (self._supply(), self._in_use(), self._shortage())
        self._taken = taken
        return taken[0]

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        self.start_time = self.engine.now
        self.sampler.start()

    def stop(self) -> None:
        self.stop_time = self.engine.now
        self.sampler.sample_now()
        self.sampler.stop()

    # ---------------------------------------------------------------- reads
    def series(self, name: str) -> StepSeries:
        return self.sampler.series[name]

    def window(self) -> tuple[float, float]:
        t0 = self.start_time if self.start_time is not None else 0.0
        t1 = self.stop_time if self.stop_time is not None else self.engine.now
        return t0, t1

    def accumulated(self, name: str) -> float:
        t0, t1 = self.window()
        return self.series(name).integrate(t0, t1)

    def summarize(self) -> AccountingSummary:
        t0, t1 = self.window()
        runtime = t1 - t0
        supply = self.series("supply")
        return AccountingSummary(
            runtime_s=runtime,
            accumulated_waste_core_s=self.accumulated("waste"),
            accumulated_shortage_core_s=self.accumulated("shortage"),
            mean_supply_cores=supply.mean(t0, t1),
            mean_in_use_cores=self.series("in_use").mean(t0, t1),
            peak_supply_cores=supply.maximum(t0, t1),
            peak_shortage_cores=self.series("shortage").maximum(t0, t1),
        )

"""A metrics registry: counters, gauges, histograms with labels.

Replaces the ad-hoc ``self.pods_killed += 1``-style integers scattered
through the fault-injection and control-plane layers with named,
labelled instruments that one registry can enumerate — which is what
makes a uniform Prometheus text export possible (see
:mod:`repro.telemetry.exporters`). Components that predate the registry
keep their attribute API by backing the attribute with a counter (e.g.
``ChaosInjector.pods_killed`` is now a property over
``chaos_pods_killed_total``).

Instruments are cheap plain-dict machines — no locks, no background
threads — so they are safe to create unconditionally even in runs that
never export anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

#: Default histogram buckets (seconds-oriented, wide dynamic range).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1800.0,
)


def _label_key(labels: Mapping[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Instrument:
    """Shared naming/help plumbing for all instrument types."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        if not name or any(c in name for c in " \t\n{}\""):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help


class Counter(_Instrument):
    """A monotonically-increasing value, optionally per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        return self._values.get(_label_key(labels), 0.0)

    @property
    def total(self) -> float:
        """Sum across every label set."""
        return sum(self._values.values())

    def samples(self) -> List[Tuple[LabelKey, float]]:
        return sorted(self._values.items())


class Gauge(_Instrument):
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: str) -> None:
        self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: str) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> List[Tuple[LabelKey, float]]:
        return sorted(self._values.items())


@dataclass(frozen=True, slots=True)
class HistogramSnapshot:
    """Cumulative bucket counts plus sum/count for one label set."""

    buckets: Tuple[Tuple[float, int], ...]  # (upper_bound, cumulative count)
    sum: float
    count: int


class Histogram(_Instrument):
    """Observations bucketed by fixed upper bounds (Prometheus-style)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        self.bounds = bounds
        self._counts: Dict[LabelKey, List[int]] = {}
        self._sums: Dict[LabelKey, float] = {}
        self._totals: Dict[LabelKey, int] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        counts = self._counts.get(key)
        if counts is None:
            counts = self._counts[key] = [0] * len(self.bounds)
            self._sums[key] = 0.0
            self._totals[key] = 0
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                counts[i] += 1
                break
        self._sums[key] += value
        self._totals[key] += 1

    def snapshot(self, **labels: str) -> HistogramSnapshot:
        key = _label_key(labels)
        counts = self._counts.get(key, [0] * len(self.bounds))
        cumulative: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds, counts):
            running += n
            cumulative.append((bound, running))
        return HistogramSnapshot(
            buckets=tuple(cumulative),
            sum=self._sums.get(key, 0.0),
            count=self._totals.get(key, 0),
        )

    def samples(self) -> List[Tuple[LabelKey, HistogramSnapshot]]:
        return sorted(
            (key, self.snapshot(**dict(key))) for key in self._counts
        )


class MetricsRegistry:
    """Named home for every instrument; the exporters' entry point.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice
    for the same name returns the same instrument (so a component can be
    constructed before or after its peers without ordering rules), and
    asking with a conflicting type raises.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, _Instrument] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> _Instrument:
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        instrument = cls(name, help, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(  # type: ignore[return-value]
            Histogram, name, help, buckets=buckets
        )

    def get(self, name: str) -> Optional[_Instrument]:
        return self._instruments.get(name)

    def instruments(self) -> Iterable[_Instrument]:
        return [self._instruments[k] for k in sorted(self._instruments)]

    def names(self) -> List[str]:
        return sorted(self._instruments)

"""The predictive autoscaling policy: provision for *forecast* demand.

Reactive policies (HPA, the KEDA-style queue scaler, HTA itself) size the
pool for work already visible, so a burst of arrivals always pays one
full resource-initialization cycle of latency before capacity lands.
:class:`PredictiveScaler` closes that gap: it samples aggregate resource
demand from the master, forecasts it one initialization cycle ahead (the
horizon comes live from the init-time tracker, so it tightens as real
cold-start measurements arrive), and sizes the pool for the *predicted*
demand — pre-provisioning before bursts the models anticipate.

Scale-down uses HTA's drain-not-delete semantics through the worker
provisioner: pending pods are cancelled first (they cost nothing yet),
then live workers are drained idlest-first — running tasks are never
killed, unlike the replica-controller shrink path of the baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Protocol

from repro.forecast.selector import OnlineModelSelector
from repro.forecast.series import DemandSample, MasterDemandSampler
from repro.hta.provisioner import WorkerProvisioner
from repro.sim.engine import Engine, PeriodicTask
from repro.wq.master import Master


class InitTimeSource(Protocol):
    """Anything serving a current init-time estimate (tracker or fixed)."""

    def current(self) -> float: ...


@dataclass(frozen=True, slots=True)
class PredictiveScalerConfig:
    """Tunables for the predictive policy."""

    min_workers: int = 1
    max_workers: int = 20
    #: Demand sampling cadence (feeds the forecasters).
    sample_interval_s: float = 15.0
    #: Scaling decision cadence.
    decision_interval_s: float = 30.0
    #: Forecast horizon as a multiple of the live init-time estimate.
    horizon_margin: float = 1.0
    #: Lead times sampled across the horizon when sizing the pool. The
    #: pool is sized for the *envelope* (max) of these predictions, not
    #: the single point at the horizon: a burst predicted anywhere inside
    #: the init cycle must hold capacity, otherwise the point forecast
    #: slides past the spike between decisions and the scaler drains pods
    #: that are still cold-starting for it.
    horizon_samples: int = 4
    #: Multiplier on predicted demand cores before sizing the pool.
    headroom: float = 1.0
    #: Rolling error window for the model pool.
    error_window: int = 32
    #: Consecutive decisions the recommendation must stay below the
    #: current pool before draining (guards against forecast flicker;
    #: far shorter than KEDA's cooldown because drains are harmless).
    scale_down_patience: int = 2

    def __post_init__(self) -> None:
        if self.min_workers < 0 or self.max_workers < self.min_workers:
            raise ValueError("invalid worker bounds")
        if self.sample_interval_s <= 0 or self.decision_interval_s <= 0:
            raise ValueError("intervals must be positive")
        if self.horizon_margin <= 0:
            raise ValueError("horizon_margin must be positive")
        if self.horizon_samples < 1:
            raise ValueError("horizon_samples must be at least 1")
        if self.headroom <= 0:
            raise ValueError("headroom must be positive")
        if self.scale_down_patience < 1:
            raise ValueError("scale_down_patience must be at least 1")


class PredictiveScaler:
    """Sizes a drained worker pool from forecast resource demand."""

    def __init__(
        self,
        engine: Engine,
        master: Master,
        provisioner: WorkerProvisioner,
        init_source: InitTimeSource,
        config: PredictiveScalerConfig = PredictiveScalerConfig(),
        selector: Optional[OnlineModelSelector] = None,
    ) -> None:
        self.engine = engine
        self.master = master
        self.provisioner = provisioner
        self.init_source = init_source
        self.config = config
        self.selector = selector if selector is not None else OnlineModelSelector()
        self.sampler = MasterDemandSampler(
            engine, master, interval_s=config.sample_interval_s
        )
        self.sampler.on_sample(self._on_sample)
        self.decisions = 0
        self.scale_events = 0
        self.last_forecast_cores = 0.0
        self.last_desired = 0
        self._below_streak = 0
        self._decision_loop = PeriodicTask(
            engine,
            config.decision_interval_s,
            self._decide,
            start_after=config.decision_interval_s,
        )
        if self.pool_size() < config.min_workers:
            provisioner.create_workers(config.min_workers - self.pool_size())

    # ------------------------------------------------------------ lifecycle
    def stop(self) -> None:
        self.sampler.stop()
        self._decision_loop.stop()

    # ---------------------------------------------------------------- state
    def pool_size(self) -> int:
        """Workers the pool will converge to with no further action:
        pending pods plus live, non-draining workers."""
        pending = self.provisioner.pending_count()
        return pending + len(self.provisioner.runtime.drain_index)

    # ------------------------------------------------------------- feedback
    def _on_sample(self, sample: DemandSample) -> None:
        self.selector.observe(sample.time, sample.demand_cores)

    # ------------------------------------------------------------- decision
    def desired_workers(self) -> int:
        """Forecast demand one init cycle out; convert to whole workers."""
        horizon = self.init_source.current() * self.config.horizon_margin
        samples = self.config.horizon_samples
        forecast = max(
            self.selector.predict(horizon * k / samples)
            for k in range(1, samples + 1)
        )
        # Never provision below demand that is already visible: the
        # forecast layer adds anticipation, it must not subtract facts.
        visible = self.master.cores_waiting() + self.master.cores_in_use()
        cores = max(forecast, visible) * self.config.headroom
        self.last_forecast_cores = forecast
        per_worker = max(self.provisioner.worker_request.cores, 1e-9)
        desired = math.ceil(cores / per_worker)
        return max(self.config.min_workers, min(self.config.max_workers, desired))

    def _decide(self) -> None:
        self.decisions += 1
        desired = self.desired_workers()
        self.last_desired = desired
        current = self.pool_size()
        if desired > current:
            self._below_streak = 0
            self.provisioner.create_workers(desired - current)
            self.scale_events += 1
            return
        if desired < current:
            self._below_streak += 1
            if self._below_streak < self.config.scale_down_patience:
                return
            shrink = current - desired
            shrink -= self.provisioner.cancel_pending(shrink)
            if shrink > 0:
                self.provisioner.drain_workers(shrink)
            self.scale_events += 1
            self._below_streak = 0
            return
        self._below_streak = 0

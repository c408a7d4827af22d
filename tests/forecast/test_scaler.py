"""Tests for the predictive scaler's control law."""

from __future__ import annotations

import pytest

from repro.forecast.scaler import PredictiveScaler, PredictiveScalerConfig
from repro.sim.engine import Engine
from repro.wq.runtime import DrainIndex
from repro.wq.worker import WorkerState


class StubMaster:
    def __init__(self):
        self.tasks_submitted = 0
        self._backlog = 0
        self.waiting_cores = 0.0
        self.in_use_cores = 0.0

    def stats(self):
        class S:
            pass

        s = S()
        s.backlog = self._backlog
        return s

    def cores_waiting(self):
        return self.waiting_cores

    def cores_in_use(self):
        return self.in_use_cores


class StubWorker:
    def __init__(self, state=WorkerState.READY):
        self.state = state
        self.runs = {}
        self.connected_time = 1.0


class StubRuntime:
    def __init__(self):
        self.workers = []
        self.drain_index = DrainIndex()


class StubRequest:
    def __init__(self, cores=3.0):
        self.cores = cores


class StubProvisioner:
    """Pending pods become READY workers only when the test says so."""

    def __init__(self, cores_per_worker=3.0):
        self.runtime = StubRuntime()
        self.worker_request = StubRequest(cores_per_worker)
        self.pending = 0
        self.created = 0
        self.cancelled = 0
        self.drained = 0

    def pending_pods(self):
        return [object()] * self.pending

    def pending_count(self):
        return self.pending

    def create_workers(self, n):
        self.pending += n
        self.created += n

    def cancel_pending(self, n):
        took = min(n, self.pending)
        self.pending -= took
        self.cancelled += took
        return took

    def drain_workers(self, n):
        took = min(n, len(self.runtime.workers))
        for w in self.runtime.workers[:took]:
            w.state = WorkerState.DRAINING
            self.runtime.drain_index.update(w)
        self.drained += took
        return took

    def connect_pending(self):
        """Test hook: all pending pods become READY workers."""
        for _ in range(self.pending):
            worker = StubWorker()
            self.runtime.workers.append(worker)
            self.runtime.drain_index.add(worker)
        self.pending = 0


class FixedInit:
    def __init__(self, value=160.0):
        self.value = value

    def current(self):
        return self.value


class ScriptedSelector:
    """predict() reads from a horizon → value table (0.0 default)."""

    def __init__(self):
        self.table = {}
        self.observed = []

    def observe(self, t, y):
        self.observed.append((t, y))

    def predict(self, horizon_s):
        return self.table.get(round(horizon_s), 0.0)


def make_scaler(engine, config=None, selector=None, master=None):
    master = master if master is not None else StubMaster()
    provisioner = StubProvisioner()
    scaler = PredictiveScaler(
        engine,
        master,
        provisioner,
        FixedInit(160.0),
        config=config or PredictiveScalerConfig(min_workers=1, max_workers=10),
        selector=selector if selector is not None else ScriptedSelector(),
    )
    return scaler, provisioner, master


class TestConfigValidation:
    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            PredictiveScalerConfig(min_workers=-1)
        with pytest.raises(ValueError):
            PredictiveScalerConfig(min_workers=5, max_workers=2)
        with pytest.raises(ValueError):
            PredictiveScalerConfig(sample_interval_s=0)
        with pytest.raises(ValueError):
            PredictiveScalerConfig(decision_interval_s=0)
        with pytest.raises(ValueError):
            PredictiveScalerConfig(horizon_margin=0)
        with pytest.raises(ValueError):
            PredictiveScalerConfig(horizon_samples=0)
        with pytest.raises(ValueError):
            PredictiveScalerConfig(headroom=0)
        with pytest.raises(ValueError):
            PredictiveScalerConfig(scale_down_patience=0)


class TestControlLaw:
    def test_bootstraps_to_min_workers(self):
        engine = Engine()
        config = PredictiveScalerConfig(min_workers=3, max_workers=10)
        _, provisioner, _ = make_scaler(engine, config)
        assert provisioner.created == 3

    def test_samples_feed_the_selector(self):
        engine = Engine()
        selector = ScriptedSelector()
        make_scaler(engine, selector=selector)
        engine.run(until=31.0)
        assert len(selector.observed) >= 2  # 15 s cadence

    def test_visible_demand_floors_the_forecast(self):
        engine = Engine()
        scaler, _, master = make_scaler(engine)
        master.waiting_cores = 9.0  # forecast says 0, reality says 9
        assert scaler.desired_workers() == 3  # ceil(9 / 3 cores)

    def test_forecast_scales_up_ahead_of_demand(self):
        engine = Engine()
        selector = ScriptedSelector()
        selector.table[160] = 30.0  # burst predicted one init cycle out
        scaler, provisioner, _ = make_scaler(engine, selector=selector)
        engine.run(until=31.0)  # first decision at t=30
        assert provisioner.created == 1 + 10 - 1  # min bootstrap, then to max
        assert scaler.last_desired == 10

    def test_envelope_uses_max_over_horizon_not_endpoint(self):
        # The burst is predicted *mid*-horizon: a point forecast at the
        # horizon would miss it and the scaler would never pre-provision.
        engine = Engine()
        selector = ScriptedSelector()
        selector.table[80] = 30.0  # spike at horizon/2 only
        scaler, _, _ = make_scaler(engine)
        scaler.selector = selector
        assert scaler.desired_workers() == 10

    def test_clamped_to_max_workers(self):
        engine = Engine()
        selector = ScriptedSelector()
        selector.table[160] = 1e6
        scaler, _, _ = make_scaler(engine, selector=selector)
        assert scaler.desired_workers() == 10

    def test_scale_down_waits_for_patience(self):
        engine = Engine()
        selector = ScriptedSelector()
        selector.table[160] = 30.0
        config = PredictiveScalerConfig(
            min_workers=1, max_workers=10, scale_down_patience=2
        )
        scaler, provisioner, _ = make_scaler(engine, config, selector)
        engine.run(until=31.0)
        provisioner.connect_pending()
        assert len(provisioner.runtime.workers) == 10
        # Forecast collapses: first below-decision must NOT shrink ...
        selector.table.clear()
        engine.run(until=61.0)
        assert provisioner.drained == 0
        # ... the second one drains (cancel-pending first, none left).
        engine.run(until=91.0)
        assert provisioner.drained == 9
        assert scaler.pool_size() == 1

    def test_scale_down_cancels_pending_before_draining(self):
        engine = Engine()
        selector = ScriptedSelector()
        selector.table[160] = 30.0
        config = PredictiveScalerConfig(
            min_workers=1, max_workers=10, scale_down_patience=1
        )
        scaler, provisioner, _ = make_scaler(engine, config, selector)
        engine.run(until=31.0)  # scaled up; pods still pending
        selector.table.clear()
        engine.run(until=61.0)
        assert provisioner.cancelled == 9  # free: pods never became workers
        assert provisioner.drained == 0
        assert scaler.pool_size() == 1

    def test_scale_up_resets_patience_streak(self):
        engine = Engine()
        selector = ScriptedSelector()
        selector.table[160] = 30.0
        config = PredictiveScalerConfig(
            min_workers=1, max_workers=10, scale_down_patience=2
        )
        scaler, provisioner, _ = make_scaler(engine, config, selector)
        engine.run(until=31.0)
        provisioner.connect_pending()
        selector.table.clear()
        engine.run(until=61.0)  # below ×1
        selector.table[160] = 30.0
        engine.run(until=91.0)  # recovered: streak must reset
        selector.table.clear()
        engine.run(until=121.0)  # below ×1 again — still inside patience
        assert provisioner.drained == 0

    def test_stop_halts_decisions(self):
        engine = Engine()
        scaler, _, _ = make_scaler(engine)
        engine.run(until=31.0)
        n = scaler.decisions
        scaler.stop()
        engine.run(until=301.0)
        assert scaler.decisions == n

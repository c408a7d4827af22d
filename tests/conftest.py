"""Shared fixtures for the test suite."""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.images import ContainerImage
from repro.cluster.node import N1_STANDARD_4
from repro.cluster.resources import ResourceVector
from repro.experiments import runner
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.wq.link import Link
from repro.wq.master import Master


@pytest.fixture
def engine() -> Engine:
    return Engine()


@pytest.fixture
def rng() -> RngRegistry:
    return RngRegistry(12345)


@pytest.fixture
def worker_image() -> ContainerImage:
    return ContainerImage("wq-worker", 500.0)


@pytest.fixture
def small_cluster(engine, rng) -> Cluster:
    """A 2..6-node cluster with deterministic (zero-jitter) latencies."""
    return Cluster(
        engine,
        rng,
        ClusterConfig(
            machine_type=N1_STANDARD_4,
            min_nodes=2,
            max_nodes=6,
            node_reservation_mean_s=100.0,
            node_reservation_std_s=0.0,
            registry_jitter_cv=0.0,
        ),
    )


@pytest.fixture
def run_observed(monkeypatch):
    """``run_observed(spec)`` runs ``spec`` through ``run_experiment`` and
    returns ``(result, journal digest, event count at the workflow's done
    signal)``."""

    def run(spec):
        seen = {}
        assembled = runner._assembled

        @contextmanager
        def observed(spec, telemetry):
            with assembled(spec, telemetry) as parts:
                stack, _graph, _harness, manager, _accountant = parts
                manager.done_signal.add_waiter(
                    lambda _m: seen.setdefault("events", stack.engine.events_fired)
                )
                yield parts
                seen["digest"] = stack.master.journal.digest()

        with monkeypatch.context() as patch:
            patch.setattr(runner, "_assembled", observed)
            result = runner.run_experiment(spec)
        return result, seen["digest"], seen["events"]

    return run


@pytest.fixture
def link(engine) -> Link:
    return Link(engine, 100.0)


@pytest.fixture
def master(engine, link) -> Master:
    return Master(engine, link)


def make_resources(cores: float = 1.0, mem: float = 1024.0, disk: float = 1024.0) -> ResourceVector:
    return ResourceVector(cores=cores, memory_mb=mem, disk_mb=disk)

"""repro — reproduction of *Autoscaling High-Throughput Workloads on
Container Orchestrators* (Zheng, Kremer-Herman, Shaffer, Thain; IEEE
CLUSTER 2020).

The package implements the paper's contribution — **HTA, the
High-Throughput Autoscaler** (:mod:`repro.hta`) — together with every
substrate it runs on, rebuilt from scratch as a deterministic
discrete-event simulation:

* :mod:`repro.sim` — the discrete-event kernel (engine, processes, seeded
  RNG streams, exact step-function metric traces);
* :mod:`repro.cluster` — a Kubernetes-like orchestrator (API server +
  watches, scheduler, kubelets, cloud-controller node autoscaling,
  metrics-server, and the HPA baseline);
* :mod:`repro.wq` — a Work Queue-like master/worker scheduler with a
  fair-share master-egress network link and per-worker input caches;
* :mod:`repro.makeflow` — a Makeflow-like DAG workflow manager with a
  GNU-Make-style parser;
* :mod:`repro.workloads` — the paper's workloads (multistage BLAST,
  I/O-bound `dd`, CPU-bound synthetics);
* :mod:`repro.metrics` — RIU/RSH/RD/RS/RW accounting and core×s integrals;
* :mod:`repro.telemetry` — structured tracing, a metrics registry, and
  exporters (JSONL / Chrome trace / Prometheus text) shared by every
  layer, plus the per-cycle autoscaling decision audit;
* :mod:`repro.experiments` — one harness per paper figure/table.

Quickstart::

    from repro import ExperimentSpec, run_experiment
    from repro.workloads import blast_multistage

    result = run_experiment(
        ExperimentSpec(blast_multistage(), policy="hta", seed=7)
    )
    print(result.summary())

Swap ``policy`` for ``"hpa"``, ``"predictive"``, ``"queue"``, or
``"static"`` (with ``options={"n_workers": N}``) to compare the paper's
baselines on the same substrate. To audit what the autoscaler did, pass
``telemetry=TelemetryConfig(enabled=True)`` and feed
``result.trace_events`` to :func:`repro.telemetry.explain_decisions`.

See README.md for the architecture overview, DESIGN.md for the system
inventory, and EXPERIMENTS.md for paper-vs-measured numbers.
"""

__version__ = "2.0.0"

__all__ = [
    "__version__",
    # -- the experiment API
    "ExperimentResult",
    "ExperimentSpec",
    "FaultProfile",
    "StackConfig",
    "register_policy",
    "run_experiment",
    # -- the sharded data plane (see repro.wq for the full substrate)
    "DispatchConfig",
    "DispatchCore",
    "FailoverConfig",
    "FailoverCoordinator",
    "Foreman",
    # -- telemetry
    "MetricsRegistry",
    "TelemetryConfig",
    "TraceEvent",
    "Tracer",
    "chrome_trace",
    "explain_decisions",
    "prometheus_text",
    "write_events_jsonl",
]

_RUNNER_EXPORTS = {
    "ExperimentResult",
    "ExperimentSpec",
    "FaultProfile",
    "StackConfig",
    "register_policy",
    "run_experiment",
}

_WQ_EXPORTS = {
    "DispatchConfig",
    "DispatchCore",
    "FailoverConfig",
    "FailoverCoordinator",
    "Foreman",
}

_TELEMETRY_EXPORTS = {
    "MetricsRegistry",
    "TelemetryConfig",
    "TraceEvent",
    "Tracer",
    "chrome_trace",
    "explain_decisions",
    "prometheus_text",
    "write_events_jsonl",
}


def __getattr__(name: str):
    # Lazy re-export: keeps `import repro` cheap and avoids importing the
    # whole experiment stack for users who only need a substrate.
    if name in _RUNNER_EXPORTS:
        from repro.experiments import runner

        return getattr(runner, name)
    if name in _WQ_EXPORTS:
        import repro.wq as wq

        return getattr(wq, name)
    if name in _TELEMETRY_EXPORTS:
        import repro.telemetry as telemetry

        return getattr(telemetry, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")

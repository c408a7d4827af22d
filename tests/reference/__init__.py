"""Literal predecessors of optimized code paths, kept as test oracles.

Each module here holds the straightforward implementation a fast path
replaced, copied verbatim, so property tests can drive both on the
same random states and demand identical decisions:

* :mod:`.accounting_literal` — the accounting gauges as rescans;
* :mod:`.api_literal` — the API server's per-handler watch delivery;
* :mod:`.autoscaler_literal` — the cluster autoscaler's full scans, HTA's
  pending-pod filter and the waiting-cores fold;
* :mod:`.dispatch_literal` — the list-walking Work Queue dispatch pass;
* :mod:`.engine_literal` — the event engine with one heap entry per callback;
* :mod:`.estimator_literal` — Algorithm 1 over a list wait queue;
* :mod:`.link_literal` — the fair-share link as a per-stream loop;
* :mod:`.operator_literal` — HTA's per-task input gathering;
* :mod:`.scheduler_literal` — the list-scanning kube-scheduler.
"""

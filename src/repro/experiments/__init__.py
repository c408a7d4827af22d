"""Experiment harnesses: one module per paper figure/table.

The entry points:

* :mod:`~repro.experiments.runner` — the single-entry experiment API:
  :func:`~repro.experiments.runner.run_experiment` builds the full stack
  (cluster + Work Queue + workflow manager) under the policy named by an
  :class:`~repro.experiments.runner.ExperimentSpec` and returns an
  :class:`~repro.experiments.runner.ExperimentResult`;
* ``fig2`` / ``fig4`` / ``fig5`` / ``fig6`` / ``fig10`` / ``fig11`` —
  the per-figure harnesses, each printing the same rows/series the paper
  reports (and the paper's own numbers alongside);
* ``python -m repro.experiments <figN|all>`` — the CLI (``--trace-out``
  records a telemetry trace, ``--explain`` prints the decision audit).
"""

from repro.experiments import sweeps
from repro.experiments.runner import (
    ExperimentResult,
    ExperimentSpec,
    FaultProfile,
    StackConfig,
    register_policy,
    run_experiment,
)

__all__ = [
    "ExperimentResult",
    "ExperimentSpec",
    "FaultProfile",
    "StackConfig",
    "register_policy",
    "run_experiment",
    "sweeps",
]

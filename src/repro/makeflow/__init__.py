"""A Makeflow-like workflow manager (simulated).

Makeflow "parses the description and generates an in-memory
representation of the workload's DAG structure and parcels it out to an
underlying execution framework" (§II-A). This package provides:

* :mod:`~repro.makeflow.dag` — the DAG over tasks, with dependencies
  derived from file producer/consumer relationships, cycle detection,
  and per-category stage structure (fig 10a);
* :mod:`~repro.makeflow.parser` — a GNU-Make-style parser for the
  Makeflow dialect (variables, rules, category/resource directives,
  ``.SIZE`` file annotations) producing runnable
  :class:`~repro.wq.task.Task` objects;
* :mod:`~repro.makeflow.manager` — the workflow manager: submits ready
  tasks to any submitter (the Work Queue master directly, or HTA's
  operator in between), releases dependents as inputs are produced, and
  reports progress; :class:`~repro.makeflow.manager.WorkflowStream`
  does the same for a stream of workflow arrivals.
"""

from repro.makeflow.dag import WorkflowGraph, CycleError
from repro.makeflow.parser import MakeflowParseError, parse_makeflow, parse_makeflow_file
from repro.makeflow.manager import WorkflowManager, WorkflowStream, Submitter
from repro.makeflow.render import render_makeflow, write_makeflow_file

__all__ = [
    "WorkflowGraph",
    "CycleError",
    "MakeflowParseError",
    "parse_makeflow",
    "parse_makeflow_file",
    "WorkflowManager",
    "WorkflowStream",
    "Submitter",
    "render_makeflow",
    "write_makeflow_file",
]

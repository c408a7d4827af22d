"""Fixtures shared by the integration modules."""

from __future__ import annotations

import itertools

import pytest

import repro.wq.task as task_module


@pytest.fixture
def own_task_ids():
    """Number a test's tasks from a counter of their own, and give the
    global task-id counter back where it stood, so the tests after it
    see the ids they would without it. (The sharded plane maps a task to
    its shard by id, so the 4-shard soak golden in ``tests/perf``
    depends on how many tasks the process created before it.) The
    counter is read with ``next`` and rebuilt rather than copied:
    copying an ``itertools.count`` is deprecated from Python 3.12."""
    start = next(task_module._task_ids)
    task_module._task_ids = itertools.count(start)
    try:
        yield
    finally:
        task_module._task_ids = itertools.count(start)

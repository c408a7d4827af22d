"""Whole-run outcomes of the benchmark workloads, pinned bit for bit.

Each case builds a benchmark workload with ``htcbench.drive.prepare``,
drives it to the workflow's done signal with ``htcbench.drive.drive``
and demands the pinned journal digest, event count at the done signal,
makespan, waste, shortage and number of tasks done. Floats are compared
by ``repr``, so a change in the last bit fails. A change that means to
keep behaviour (a refactor, a faster path) must leave every value here
as it is; one that means to change behaviour regenerates the table and
says why.
"""

from __future__ import annotations

import pytest

from htcbench.drive import drive, prepare
from htcbench.workloads import WORKLOADS

#: (workload, seed) -> (journal digest, events at done, makespan s,
#: waste core-s, shortage core-s, tasks done).
OUTCOMES = {
    ("deep-queue", 1): (
        "4588cb28dbe6baa1df85efdd56aef0acfac9d38d01e5af61cb6768626eb37286",
        19278, 1545.238250006824, 147527.62075007506, 2360110.0, 3200,
    ),
    ("deep-queue", 13): (
        "f1539735a18fa37c8251106e46c6fd92dd3edac9fa1ce1d8a7d8e9c8e6bd3f10",
        19321, 1576.2381695576762, 147733.61986513445, 2369710.0, 3200,
    ),
    ("wide-cluster", 1): (
        "6e606b29f5e5d886d3a0d28ea7e23ed90919a8c99496938fd12cb78f50543768",
        42384, 1464.638413767139, 520751.7457239042, 408300.0, 800,
    ),
    ("wide-cluster", 13): (
        "da4449c7baa2e48a575a3517cdfe547f829c9ac4d7feddf64d4ba30140688075",
        42278, 1456.0421319413588, 517559.3791874722, 408150.0, 800,
    ),
    ("multistage-churn", 1): (
        "4bd0d1ae671c0b7b7d3620697b8f92ef1641c4ebd9912be1b784bac3cea66e8c",
        29110, 3047.394412719738, 610333.9441271974, 1869645.0, 3240,
    ),
    ("multistage-churn", 13): (
        "b4d579006315b821f5562aa1472f2d4bec289dac7226b79061cd10b70c3c4b18",
        29161, 3026.661489505778, 593274.8446851734, 1844515.0, 3240,
    ),
    ("deep-queue-sharded4", 1): (
        "1e2167ef9b8d46e715b78d7396a5dcd1048eb0f9bf3cc75054ec22af00caf62d",
        19284, 1551.3706671109885, 146408.7066711099, 2360250.0, 3200,
    ),
    ("deep-queue-sharded4", 13): (
        "22787083f636f373e1dc0c09df0a86894cc1d56ce78741782678f01b584f5d4a",
        19328, 1582.6697968740214, 149479.36776561424, 2369725.0, 3200,
    ),
}


@pytest.mark.parametrize(
    "workload, seed", sorted(OUTCOMES), ids=[f"{w}-{s}" for w, s in sorted(OUTCOMES)]
)
def test_workload_outcome_is_pinned(workload, seed):
    result = drive(prepare(WORKLOADS[workload], seed))
    got = (
        result.digest,
        result.events,
        repr(result.makespan_s),
        repr(result.waste_core_s),
        repr(result.shortage_core_s),
        result.tasks_done,
    )
    digest, events, makespan, waste, shortage, done = OUTCOMES[workload, seed]
    want = (digest, events, repr(makespan), repr(waste), repr(shortage), done)
    assert got == want
    assert result.tasks_done == result.distinct_done == result.tasks_total
    assert result.tasks_abandoned == 0

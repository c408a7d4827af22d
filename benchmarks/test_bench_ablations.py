"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation flips one HTA mechanism and measures what it buys:

1. **init-time feedback** — live-measured initialization time vs a badly
   wrong fixed constant;
2. **category-based sizing** — monitor-fed packing vs the conservative
   one-task-per-worker policy (fig 4(b)'s behaviour, under HTA);
3. **HPA stabilization window** — the waste/disruption trade-off the
   paper describes in §VI-A;
4. **drain vs kill scale-down** — HTA's non-disruptive drain vs deleting
   pods (task requeues and lost work).
"""

from __future__ import annotations

from benchmarks.conftest import run_once

from repro.cluster.cluster import ClusterConfig
from repro.cluster.hpa import HpaConfig
from repro.cluster.node import N1_STANDARD_4_RESERVED
from repro.experiments.runner import ExperimentSpec, StackConfig, run_experiment
from repro.hta.estimator import EstimatorConfig
from repro.hta.operator import HtaConfig
from repro.workloads.synthetic import staged_pipeline, uniform_bag


def stack(seed=0, max_nodes=10):
    return StackConfig(
        cluster=ClusterConfig(
            machine_type=N1_STANDARD_4_RESERVED,
            min_nodes=2,
            max_nodes=max_nodes,
            node_reservation_mean_s=150.0,
            node_reservation_std_s=3.0,
        ),
        seed=seed,
    )


def hta_cfg(**overrides):
    defaults = dict(initial_workers=2, max_workers=10, min_workers=2)
    defaults.update(overrides)
    return HtaConfig(**defaults)


def test_ablation_init_time_feedback(benchmark, capsys):
    """A controller planning with a 10 s init-time guess re-plans long
    before new capacity can arrive; the live-measured estimate spaces
    decisions one real cycle apart. The misinformed controller must
    churn more plans for the same workload."""
    workload = lambda: uniform_bag(60, execute_s=80.0, declared=True)

    def run_both():
        live = run_experiment(
            ExperimentSpec(workload(), policy="hta", stack=stack(), name="live-init")
        )
        wrong = run_experiment(
            ExperimentSpec(
                workload(),
                policy="hta",
                stack=stack(),
                name="fixed-10s",
                # ~15x below the real ~155 s
                options={"fixed_init_time_s": 10.0},
            )
        )
        return live, wrong

    live, wrong = run_once(benchmark, run_both)
    with capsys.disabled():
        print()
        print(f"  live-init : {live.summary()}  plans={live.extras['plans']:.0f}")
        print(f"  fixed-10s : {wrong.summary()}  plans={wrong.extras['plans']:.0f}")
    assert live.tasks_completed == wrong.tasks_completed == 60
    # The init-time-paced controller issues far fewer resize decisions.
    assert live.extras["plans"] < wrong.extras["plans"]


def test_ablation_category_sizing(benchmark, capsys):
    """Category feedback lets multiple tasks pack per worker; with
    probing disabled *and* estimates ignored the pool serializes."""
    workload = lambda: uniform_bag(30, execute_s=60.0, declared=True)
    conservative_workload = lambda: uniform_bag(30, execute_s=60.0, declared=False)

    def run_both():
        packed = run_experiment(
            ExperimentSpec(workload(), policy="hta", stack=stack(), name="packed")
        )
        # Unknown resources + no completions yet -> every task probes a
        # whole worker; category stats then fix it. Measure the pure
        # conservative regime via a static pool instead.
        serial = run_experiment(
            ExperimentSpec(
                conservative_workload(),
                policy="static",
                stack=stack(max_nodes=4),
                name="conservative",
                options={"n_workers": 4, "estimator": "conservative"},
            )
        )
        return packed, serial

    packed, serial = run_once(benchmark, run_both)
    with capsys.disabled():
        print()
        print(f"  packed       : {packed.summary()}")
        print(f"  conservative : {serial.summary()}")
    # Packing 3 tasks/worker beats one-task-per-worker substantially.
    assert packed.accounting.utilization > serial.accounting.utilization


def test_ablation_hpa_stabilization_window(benchmark, capsys):
    """§VI-A: the 5-minute stabilization keeps HPA pinned high (waste);
    a short window scales down eagerly but *kills pods* mid-task."""
    workload = lambda: staged_pipeline(
        [30, 2, 24], execute_s=150.0, declared=True, barrier=True
    )

    def run_sweep():
        out = {}
        for window in (0.0, 120.0, 300.0, 600.0):
            out[window] = run_experiment(
                ExperimentSpec(
                    workload(),
                    policy="hpa",
                    stack=stack(),
                    name=f"HPA-stab-{int(window)}s",
                    options={
                        "target_cpu": 0.2,
                        "hpa_config": HpaConfig(
                            target_cpu_utilization=0.2,
                            min_replicas=2,
                            max_replicas=10,
                            scale_down_stabilization_s=window,
                        ),
                    },
                )
            )
        return out

    results = run_once(benchmark, run_sweep)
    with capsys.disabled():
        print()
        for window, r in results.items():
            print(
                f"  window={window:>5.0f}s  runtime={r.makespan_s:7.0f}s "
                f"waste={r.accounting.accumulated_waste_core_s:9.0f} "
                f"requeued={r.tasks_requeued}"
            )
    assert all(r.tasks_completed == 56 for r in results.values())
    # Longer windows never requeue fewer... rather: the eager (0s) window
    # disrupts tasks; the paper-default 300s window avoids kills entirely
    # on this workload but holds capacity longer.
    assert results[0.0].tasks_requeued >= results[600.0].tasks_requeued
    assert (
        results[600.0].accounting.accumulated_waste_core_s
        >= results[0.0].accounting.accumulated_waste_core_s
    )


def test_ablation_drain_vs_kill(benchmark, capsys):
    """HTA drains workers (zero requeues); scaling down by deleting pods
    (the HPA path) loses in-flight work."""
    workload = lambda: staged_pipeline([24, 4, 20], execute_s=100.0, declared=True)

    def run_both():
        hta = run_experiment(
            ExperimentSpec(workload(), policy="hta", stack=stack(), name="drain")
        )
        hpa = run_experiment(
            ExperimentSpec(
                workload(),
                policy="hpa",
                stack=stack(),
                name="kill",
                options={
                    "target_cpu": 0.2,
                    "hpa_config": HpaConfig(
                        target_cpu_utilization=0.2,
                        min_replicas=2,
                        max_replicas=10,
                        scale_down_stabilization_s=0.0,  # eager deletion
                    ),
                },
            )
        )
        return hta, hpa

    hta, hpa = run_once(benchmark, run_both)
    with capsys.disabled():
        print()
        print(f"  drain: {hta.summary()}  requeued={hta.tasks_requeued}")
        print(f"  kill : {hpa.summary()}  requeued={hpa.tasks_requeued}")
    assert hta.tasks_requeued == 0
    assert hta.tasks_completed == hpa.tasks_completed == 48


def test_ablation_literal_pseudocode_scale_down(benchmark, capsys):
    """Algorithm 1's literal lines 19-21 never release idle workers on an
    empty queue; the paper's controller does. Compare tail waste."""
    workload = lambda: staged_pipeline([24, 2, 2], execute_s=80.0, declared=True)

    def run_both():
        paper = run_experiment(
            ExperimentSpec(workload(), policy="hta", stack=stack(), name="paper-mode")
        )
        literal = run_experiment(
            ExperimentSpec(
                workload(),
                policy="hta",
                stack=stack(),
                name="literal-mode",
                options={
                    "hta_config": hta_cfg(
                        estimator=EstimatorConfig(scale_down_on_empty_queue=False)
                    )
                },
            )
        )
        return paper, literal

    paper, literal = run_once(benchmark, run_both)
    with capsys.disabled():
        print()
        print(f"  paper-mode   : {paper.summary()}")
        print(f"  literal-mode : {literal.summary()}")
    assert (
        paper.accounting.accumulated_waste_core_s
        <= literal.accounting.accumulated_waste_core_s
    )

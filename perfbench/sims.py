"""The two simulation workloads: ``paper-figs`` and ``trace-sim``.

Each runs in fresh child processes started by ``run.py``:

* ``check`` -- sets up, reports ready, then runs the oracle checks
  (indexed core == naive core on reduced inputs);
* ``setup`` -- sets up and reports ready (one more set-up sample);
* ``measure`` -- sets up, reports ready, then runs the timed phase.

``paper-figs`` is ``run_evaluation`` over SMALLER and LARGER scaled to
2,500 VMs with the six paper strategies and ``jobs=1``: the only
workload where the allocator runs inside the simulator.  One run
evaluates a fixed number of traces (sub-seeds derived from the seed,
the first being the seed itself), so simulated outcomes are pooled over
more than one trace.

``trace-sim`` is the EGEE-like trace at 100k VMs on 650 servers under
FF-2 on the indexed, unsharded core with chronicles off and QoS factor
4: the simulator core does almost all the work and the allocator is
never called.  The trace is simulated a fixed number of times and the
median wall time is reported.

Every strategy the simulator sees is wrapped in :class:`Probe`, which
delegates ``name``/``place``/``reallocate`` -- the only members the
simulator reads -- and times each ``place`` call.

End-to-end timings are reported at reference speed: each iteration
runs under :class:`common.SpeedProbe`, and its wall time and ``place``
latencies are divided by the probe's slowdown over that iteration.  On
a shared host whose clock mode changes by 1.4x for tens of seconds this
cuts the run-to-run spread of a 2.5 s simulation from about 20% to 7%
(interquartile range over median); the raw figures are printed too.
Set-up times are scaled by a probe taken right after set-up.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time

from common import (
    OUT_DIR, SpeedProbe, Tracer, self_time_by_name, slowdown_now, tail, write_spans,
)

PAPER_VMS = 2_500
TRACE_VMS = 100_000
QOS_FACTOR = 4.0
#: Nominal wall seconds of one timed iteration on a 2-CPU x86 host; the
#: iteration count is a function of ``--seconds`` alone, so the inputs
#: depend only on the seed and the run length.
NOMINAL_ITERATION_S = {"paper-figs": 6.0, "trace-sim": 15.0}
#: Oracle input sizes (VMs) for the indexed-vs-naive checks.
PAPER_CHECK_VMS = 500
TRACE_CHECK_VMS = 2_000
SUB_SEED_STRIDE = 1_000_003


def iterations(workload: str, seconds: int) -> int:
    return max(1, round(seconds / NOMINAL_ITERATION_S[workload]))


def sub_seeds(seed: int, count: int) -> list[int]:
    return [seed] + [(seed * SUB_SEED_STRIDE + i) % 2**32 for i in range(1, count)]


class Probe:
    """Delegating strategy wrapper: counts and times ``place`` calls.

    For a proactive strategy it also sums the ``AllocationProvenance``
    of every new plan the strategy exposes through ``last_plan``.
    """

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.name = inner.name
        self.tracer = tracer
        self.proactive = hasattr(inner, "last_plan")
        self.span_name = "allocator.place" if self.proactive else "strategy.place"
        self.calls = 0
        self.accepted = 0
        self.durations: list[float] = []
        self.provenance: dict[str, int] = {}
        self.plans = 0
        self._seen_plan = None

    def place(self, vms, servers):
        with self.tracer.span(self.span_name):
            start = time.perf_counter()
            result = self.inner.place(vms, servers)
            self.durations.append(time.perf_counter() - start)
        self.calls += 1
        if result is not None:
            self.accepted += 1
        if self.proactive:
            plan = self.inner.last_plan
            if plan is not None and plan is not self._seen_plan:
                self._seen_plan = plan
                self._note(plan.search_provenance)
        return result

    def reallocate(self, vms, servers):
        return self.inner.reallocate(vms, servers)

    def _note(self, provenance) -> None:
        self.plans += 1
        if provenance is None:
            return
        sums = self.provenance
        for key in ("partitions_enumerated", "candidates_feasible",
                    "grid_hits", "grid_misses", "subtrees_pruned"):
            sums[key] = sums.get(key, 0) + getattr(provenance, key)
        sums["frontier_peak"] = max(sums.get("frontier_peak", 0), provenance.frontier_peak)


# -- set-up ----------------------------------------------------------------


class Inputs:
    """Everything set-up produces for one workload."""

    def __init__(self, workload: str, seed: int, seconds: int, tracer: Tracer):
        from repro.campaign.platformrunner import run_campaign
        from repro.core.model import ModelDatabase
        from repro.experiments.config import LARGER, SMALLER, EvaluationConfig
        from repro.experiments.evaluation import prepare_workload
        from repro.workloads.qos import QoSPolicy

        self.workload = workload
        self.seed = seed
        with tracer.span("campaign.run"):
            self.campaign = run_campaign()
        with tracer.span("model.build"):
            self.database = ModelDatabase.from_campaign(self.campaign)
        self.qos = QoSPolicy.from_optima(self.campaign.optima, factor=QOS_FACTOR)
        if workload == "paper-figs":
            # run_evaluation prepares its own trace inside the timed
            # phase; set-up only fixes the scenarios.
            self.scenarios = [
                tuple(
                    EvaluationConfig(
                        label=base.label, n_servers=base.n_servers, seed=sub
                    ).scaled(PAPER_VMS)
                    for base in (SMALLER, LARGER)
                )
                for sub in sub_seeds(seed, iterations(workload, seconds))
            ]
        else:
            self.scenario = EvaluationConfig(
                label="SIM", n_servers=SMALLER.n_servers, seed=seed,
                qos_factor=QOS_FACTOR,
            ).scaled(TRACE_VMS)
            with tracer.span("workloads.prepare"):
                self.jobs, self.n_vms = prepare_workload(self.scenario)


# -- oracle checks -----------------------------------------------------------


def _equal_runs(jobs, n_servers, strategy_factory, qos) -> bool:
    from repro.sim.datacenter import DatacenterConfig, DatacenterSimulator

    results = [
        DatacenterSimulator(
            DatacenterConfig(n_servers=n_servers, indexed=indexed)
        ).run(jobs, strategy_factory(), qos)
        for indexed in (True, False)
    ]
    a, b = results
    return (
        a.metrics == b.metrics
        and a.outcomes == b.outcomes
        and a.per_server_busy_j == b.per_server_busy_j
        and a.per_server_idle_j == b.per_server_idle_j
    )


def run_checks(inputs: Inputs) -> list[tuple[str, bool]]:
    """Indexed and naive cores must agree on reduced inputs."""
    from repro.experiments.config import SMALLER, EvaluationConfig
    from repro.experiments.evaluation import prepare_workload
    from repro.strategies import make_strategy
    from repro.workloads.assignment import total_vms_requested, truncate_to_vm_budget

    checks = []
    if inputs.workload == "trace-sim":
        prefix = truncate_to_vm_budget(inputs.jobs, TRACE_CHECK_VMS)
        n_servers = max(
            1, round(inputs.scenario.n_servers * total_vms_requested(prefix) / inputs.n_vms)
        )
        checks.append((
            "trace-sim prefix: indexed == naive",
            _equal_runs(prefix, n_servers, lambda: make_strategy("FF-2"), inputs.qos),
        ))
    else:
        config = EvaluationConfig(
            label="CHECK", n_servers=SMALLER.n_servers, seed=inputs.seed
        ).scaled(PAPER_CHECK_VMS)
        jobs, _ = prepare_workload(config)
        for name in ("FF-2", "PA-0.5"):
            checks.append((
                f"paper-figs {name} cell: indexed == naive",
                _equal_runs(
                    jobs, config.n_servers,
                    lambda: make_strategy(name, database=inputs.database),
                    inputs.qos,
                ),
            ))
    return checks


# -- timed phase -------------------------------------------------------------


class _Patched:
    """Spans around the layer calls ``run_evaluation`` makes internally."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def __enter__(self):
        import repro.experiments.evaluation as evaluation
        from repro.sim.datacenter import DatacenterSimulator

        tracer = self.tracer
        self._evaluation = evaluation
        self._prepare = prepare = evaluation.prepare_workload
        self._run = run = DatacenterSimulator.run

        def traced_prepare(config):
            with tracer.span("workloads.prepare"):
                return prepare(config)

        def traced_run(simulator, *args, **kwargs):
            with tracer.span("sim.run"):
                return run(simulator, *args, **kwargs)

        evaluation.prepare_workload = traced_prepare
        DatacenterSimulator.run = traced_run
        return self

    def __exit__(self, *exc):
        from repro.sim.datacenter import DatacenterSimulator

        self._evaluation.prepare_workload = self._prepare
        DatacenterSimulator.run = self._run
        return False


def _paper_iteration(inputs: Inputs, index: int, tracer: Tracer) -> dict:
    from repro.experiments.evaluation import run_evaluation
    from repro.strategies import paper_strategies

    probes: list[Probe] = []

    def lineup(database):
        wrapped = [Probe(strategy, tracer) for strategy in paper_strategies(database)]
        probes.extend(wrapped)
        return wrapped

    with _Patched(tracer) if tracer.enabled else contextlib.nullcontext():
        start = time.perf_counter()
        with tracer.span("experiments.evaluate"):
            result = run_evaluation(
                inputs.scenarios[index], campaign=inputs.campaign,
                strategies=lineup, jobs=1,
            )
        wall = time.perf_counter() - start
    used = [probe for probe in probes if probe.calls]
    return {"wall": wall, "result": result, "probes": used}


def _trace_iteration(inputs: Inputs, tracer: Tracer) -> dict:
    from repro.sim.datacenter import DatacenterConfig, DatacenterSimulator
    from repro.strategies import make_strategy

    probe = Probe(make_strategy("FF-2"), tracer)
    config = DatacenterConfig(
        n_servers=inputs.scenario.n_servers, indexed=True, record_chronicles=False
    )
    start = time.perf_counter()
    with tracer.span("sim.run"):
        result = DatacenterSimulator(config).run(inputs.jobs, probe, inputs.qos)
    wall = time.perf_counter() - start
    return {"wall": wall, "result": result, "probes": [probe]}


def timed_phase(inputs: Inputs, seconds: int, trace: bool, tracer: Tracer) -> list[dict]:
    """Run the iterations; with ``trace`` the first runs untraced as the
    overhead reference and the rest traced."""
    count = iterations(inputs.workload, seconds)
    # paper-figs iterations evaluate distinct traces; trace-sim repeats one.
    step = 1 if inputs.workload == "paper-figs" else 0
    if trace:
        plan = [(0, False)] + [(i * step, True) for i in range(max(1, count - 1))]
    else:
        plan = [(i * step, False) for i in range(count)]
    untraced = Tracer(enabled=False)
    runs = []
    for index, traced in plan:
        active = tracer if traced else untraced
        # All spans of one iteration (one evaluation or simulation) share
        # its ordinal as their request id.
        active.request = len(runs)
        with SpeedProbe() as probe:
            if inputs.workload == "paper-figs":
                run = _paper_iteration(inputs, index, active)
            else:
                run = _trace_iteration(inputs, active)
        run.update(
            index=index, traced=traced, slowdown=probe.slowdown,
            scaled=(run["wall"] - probe.spent) / probe.slowdown,
        )
        runs.append(run)
    return runs


# -- metrics -----------------------------------------------------------------


def _ms(value):
    return None if value is None else value * 1e3


def _outcomes(inputs: Inputs, runs: list[dict]) -> dict:
    """Simulated outcomes, pooled over the distinct traces in ``runs``."""
    if inputs.workload == "trace-sim":
        metrics = runs[0]["result"].metrics
        return {
            "vms": inputs.n_vms,
            "energy_j_per_vm": metrics.energy_j / metrics.n_vms,
            "makespan_s": metrics.makespan_s,
            "sla_violation_pct": metrics.sla_violation_pct,
            "energy_saving_pct": 0.0,
            "jobs_completed": len(runs[0]["result"].outcomes),
            "max_queue_length": metrics.max_queue_length,
        }
    distinct = {run["index"]: run["result"] for run in runs}
    energy_pa = energy_ff = vms = violations = jobs = 0.0
    makespans = []
    completed = queue = 0
    for result in distinct.values():
        pa = result.cell("SMALLER", "PA-0.5")
        ff = result.cell("SMALLER", "FF")
        energy_pa += pa.energy_j
        energy_ff += ff.energy_j
        vms += result.n_vms
        violations += pa.sla_violation_pct * result.n_jobs / 100.0
        jobs += result.n_jobs
        makespans.append(pa.makespan_s)
        completed += result.n_jobs * len(result.outcomes)
        queue = max(queue, max(o.max_queue_length for o in result.outcomes))
    return {
        "vms": vms,
        "energy_j_per_vm": energy_pa / vms,
        "makespan_s": sum(makespans) / len(makespans),
        "sla_violation_pct": 100.0 * violations / jobs,
        "energy_saving_pct": 100.0 * (1.0 - energy_pa / energy_ff),
        "jobs_completed": completed,
        "max_queue_length": queue,
    }


def _simulated_vms(inputs: Inputs, run: dict) -> int:
    if inputs.workload == "trace-sim":
        return inputs.n_vms
    result = run["result"]
    return result.n_vms * len(result.outcomes)


def _accounting(inputs: Inputs, runs: list[dict]) -> list[tuple[str, bool]]:
    """Every cell places every job once; repeated traces give equal results."""
    checks = []
    for run in runs:
        if inputs.workload == "paper-figs":
            result = run["result"]
            expected = len(result.outcomes)
            ok = len(run["probes"]) == expected and all(
                probe.accepted == result.n_jobs for probe in run["probes"]
            )
        else:
            metrics = run["result"].metrics
            ok = (
                run["probes"][0].accepted == metrics.n_jobs
                and len(run["result"].outcomes) == len(inputs.jobs)
                and metrics.n_vms == inputs.n_vms
            )
        checks.append((f"iteration {run['index']}: every job accounted for", ok))
    by_index: dict = {}
    for run in runs:
        by_index.setdefault(run["index"], []).append(run["result"])
    for index, results in by_index.items():
        if len(results) > 1:
            same = all(r.outcomes == results[0].outcomes for r in results[1:])
            checks.append((f"iteration {index}: repeated runs agree", same))
    return checks


def end_to_end(inputs: Inputs, runs: list[dict]) -> dict:
    """Timings in reference-speed seconds (see ``common.SpeedProbe``)."""
    walls = [run["wall"] for run in runs]
    simulated = sum(_simulated_vms(inputs, run) for run in runs)
    durations = [
        d / run["slowdown"] for run in runs for probe in run["probes"] for d in probe.durations
    ]
    p50, _, _ = tail(durations, 50.0)
    p99, _, _ = tail(durations, 99.0)
    outcomes = _outcomes(inputs, runs)
    return {
        "vms_per_s": simulated / sum(run["scaled"] for run in runs),
        "energy_j_per_vm": outcomes["energy_j_per_vm"],
        "makespan_s": outcomes["makespan_s"],
        "alloc_p50_ms": _ms(p50),
        "alloc_p99_ms": _ms(p99),
        "_samples": {"alloc": len(durations), "iterations": len(runs),
                     "wall_s": walls, "slowdown": [run["slowdown"] for run in runs],
                     "raw_vms_per_s": simulated / sum(walls)},
        "_outcomes": outcomes,
    }


def per_layer(inputs: Inputs, runs: list[dict], setup_tracer: Tracer, tracer: Tracer) -> dict:
    """Per-layer metrics from the traced iterations (raw wall times)."""
    traced = [run for run in runs if run["traced"]]
    untraced = [run for run in runs if not run["traced"]]
    timed_wall = sum(run["wall"] for run in traced)
    spans = tracer.spans
    by_name = self_time_by_name(spans)
    setup_spans = self_time_by_name(setup_tracer.spans)
    probes = [probe for run in traced for probe in run["probes"]]
    calls = sum(probe.calls for probe in probes)
    accepted = sum(probe.accepted for probe in probes)
    durations = [d for probe in probes for d in probe.durations]
    place_s = sum(durations)
    pa = [probe for probe in probes if probe.proactive]
    pa_s = sum(sum(probe.durations) for probe in pa)
    provenance: dict = {}
    for probe in pa:
        for key, value in probe.provenance.items():
            if key == "frontier_peak":
                provenance[key] = max(provenance.get(key, 0), value)
            else:
                provenance[key] = provenance.get(key, 0) + value
    grid = provenance.get("grid_hits", 0) + provenance.get("grid_misses", 0)
    sim_run_s = sum(
        end - start for _i, _p, name, start, end, _r in spans if name == "sim.run"
    )
    p99, _, _ = tail(durations, 99.0)
    outcomes = _outcomes(inputs, traced)
    # run_evaluation's own code is not one of the measured layers: its
    # self time is the part of the wall the layers leave unaccounted.
    layer_self = sum(t for name, t in by_name.items() if name != "experiments.evaluate")
    if inputs.workload == "paper-figs":
        jobs = sum(run["result"].n_jobs for run in traced)
        vms = sum(run["result"].n_vms for run in traced)
        prepare_s = by_name.get("workloads.prepare", 0.0)
    else:
        jobs = len(inputs.jobs)
        vms = inputs.n_vms
        prepare_s = setup_spans.get("workloads.prepare", 0.0)
    # Overhead: the first traced iteration replays the untraced one's input.
    reference = untraced[0]["scaled"]
    same_input = [run for run in traced if run["index"] == untraced[0]["index"]]
    overhead = 100.0 * (same_input[0]["scaled"] / reference - 1.0)
    return {
        "campaign.run_s": setup_spans.get("campaign.run", 0.0),
        "campaign.records": len(inputs.campaign.records),
        "model.build_s": setup_spans.get("model.build", 0.0),
        "workloads.prepare_s": prepare_s,
        "workloads.jobs": jobs,
        "workloads.vms": vms,
        "strategy.place_calls": calls,
        "strategy.place_s": place_s,
        "strategy.place_p99_ms": _ms(p99) or 0.0,
        "strategy.accept_ratio": accepted / calls if calls else 0.0,
        "allocator.calls": sum(probe.plans for probe in pa),
        "allocator.place_s": pa_s,
        "allocator.share_pct": 100.0 * pa_s / timed_wall,
        "allocator.partitions_enumerated": provenance.get("partitions_enumerated", 0),
        "allocator.candidates_feasible": provenance.get("candidates_feasible", 0),
        "allocator.subtrees_pruned": provenance.get("subtrees_pruned", 0),
        "allocator.frontier_peak": provenance.get("frontier_peak", 0),
        "allocator.grid_hit_ratio": provenance.get("grid_hits", 0) / grid if grid else 0.0,
        "sim.run_s": sim_run_s,
        "sim.self_s": sim_run_s - place_s,
        "sim.share_pct": 100.0 * (sim_run_s - place_s) / timed_wall,
        "sim.jobs_completed": outcomes["jobs_completed"],
        "sim.max_queue_length": outcomes["max_queue_length"],
        "sim.sla_violation_pct": outcomes["sla_violation_pct"],
        "sim.energy_saving_pct": outcomes["energy_saving_pct"],
        "trace.overhead_pct": overhead,
        "trace.coverage_pct": 100.0 * layer_self / timed_wall,
    }


# -- child entry -------------------------------------------------------------


def child_main(role: str, workload: str, seed: int, seconds: int, trace: bool) -> int:
    setup_tracer = Tracer(enabled=trace)
    inputs = Inputs(workload, seed, seconds, setup_tracer)
    print("READY", flush=True)
    report: dict = {"checks": [], "setup_slowdown": slowdown_now()}
    if role == "check":
        report["checks"] = run_checks(inputs)
    elif role == "measure":
        tracer = Tracer(enabled=trace)
        runs = timed_phase(inputs, seconds, trace, tracer)
        report["checks"] = _accounting(inputs, runs)
        report["cells"] = sum(
            len(run["result"].outcomes) if workload == "paper-figs" else 1 for run in runs
        )
        if trace:
            report["per_layer"] = per_layer(inputs, runs, setup_tracer, tracer)
            path = OUT_DIR / f"{workload}-{seed}-spans.jsonl"
            write_spans(_merged(setup_tracer, tracer), path)
            report["spans_file"] = str(path.name)
        else:
            report["end_to_end"] = end_to_end(inputs, runs)
    print(json.dumps(report), flush=True)
    return 0


def _merged(setup: Tracer, timed: Tracer) -> list:
    """Set-up and timed spans in one list, with distinct ids."""
    offset = max((span[0] for span in setup.spans), default=0)
    return list(setup.spans) + [
        (ident + offset, None if parent is None else parent + offset, *rest)
        for ident, parent, *rest in timed.spans
    ]


if __name__ == "__main__":  # pragma: no cover - run through run.py
    sys.exit("run the benchmark through perfbench/run.py")

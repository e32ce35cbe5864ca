"""Byte golden of whole simulation runs.

indexed == naive cannot catch a bug in the event driver itself: both
cores run the same driver.  This suite pins the bytes instead -- a
sha256 per scenario over a canonical JSON of the
:class:`~repro.sim.datacenter.SimulationResult` (metrics, outcomes,
per-server energy/carbon/cost, fault log, every chronicle interval
and note), of the deterministic metrics snapshot and of the
deterministic trace -- and checks both cores against it.

The scenarios are small but together reach every driver handler:
FCFS with backfilling and finite deadlines, a tight faulted cluster
(a crash whose evicted VMs wait in the re-allocation queue, recovery,
slowdown start/end, VM aborts, and faults that do not apply), bounded
chronicles spilling to a file, temporal carbon/price signals, and a
reactive rebalancer migrating VMs after completions, including VMs
that finish during the migration syncs.

Regenerate the golden only for an intended behaviour change::

    PYTHONPATH=src python tests/sim/test_run_golden.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from repro.ext.carbon import TemporalSignals, daily_carbon_signal, double_peak_price_signal
from repro.ext.migration import MigrationPolicy, ReactiveRebalancer
from repro.faults import FaultEvent, FaultKind, FaultSpec, materialize
from repro.obs.runtime import Observability
from repro.obs.tracer import Tracer
from repro.sim.datacenter import DatacenterConfig, DatacenterSimulator
from repro.strategies.firstfit import FirstFitStrategy
from repro.testbed.benchmarks import WorkloadClass
from repro.workloads.assignment import PreparedJob
from repro.workloads.qos import QoSPolicy

GOLDEN = Path(__file__).with_name("run_golden.json")

CLASSES = (WorkloadClass.CPU, WorkloadClass.MEM, WorkloadClass.IO)

QOS = QoSPolicy(
    max_response_s={
        WorkloadClass.CPU: 1500.0,
        WorkloadClass.MEM: 3000.0,
        WorkloadClass.IO: 1200.0,
    }
)


def _jobs(n: int, gap: float, sizes: tuple[int, ...]) -> list[PreparedJob]:
    return [
        PreparedJob(
            job_id=i + 1,
            submit_time_s=gap * i,
            workload_class=CLASSES[i % 3],
            n_vms=sizes[i % len(sizes)],
            burst_id=i // 3,
        )
        for i in range(n)
    ]


def _backfill(tmp_path, indexed, database):
    config = DatacenterConfig(
        n_servers=3,
        backfill_window=2,
        indexed=indexed,
        record_chronicles=True,
        power_off_when_empty=False,
    )
    jobs = _jobs(14, 35.0, (5, 1, 2, 4, 1))
    return config, dict(jobs=jobs, strategy=FirstFitStrategy(2), qos=QOS)


def _faults(tmp_path, indexed, database):
    config = DatacenterConfig(
        n_servers=2,
        indexed=indexed,
        record_chronicles=True,
        chronicle_capacity=3,
        chronicle_spill_path=str(tmp_path / f"spill-{indexed}.jsonl"),
        signals=TemporalSignals(
            carbon=daily_carbon_signal(7), price=double_peak_price_signal(7)
        ),
    )
    spec = FaultSpec(
        events=(
            FaultEvent(kind=FaultKind.SLOWDOWN, time_s=50.0, server=0, duration_s=300.0, factor=1.7),
            FaultEvent(kind=FaultKind.VM_ABORT, time_s=120.0, vm="j2-0"),
            FaultEvent(kind=FaultKind.VM_ABORT, time_s=130.0, vm="j99-0"),
            FaultEvent(kind=FaultKind.VM_ABORT, time_s=140.0, vm="j9-0"),
            FaultEvent(kind=FaultKind.SERVER_CRASH, time_s=200.0, server=1),
            FaultEvent(kind=FaultKind.SERVER_CRASH, time_s=220.0, server=1),
            FaultEvent(kind=FaultKind.SLOWDOWN, time_s=240.0, server=1, duration_s=50.0, factor=2.0),
            FaultEvent(kind=FaultKind.SERVER_RECOVER, time_s=700.0, server=1),
            FaultEvent(kind=FaultKind.SERVER_RECOVER, time_s=710.0, server=0),
            FaultEvent(kind=FaultKind.VM_ABORT, time_s=900.0, vm="j5-1"),
        )
    )
    jobs = _jobs(10, 40.0, (2, 3, 1, 2))
    return config, dict(
        jobs=jobs,
        strategy=FirstFitStrategy(2),
        qos=QOS,
        faults=materialize(spec, config.n_servers),
    )


def _rebalance(tmp_path, indexed, database):
    config = DatacenterConfig(n_servers=3, indexed=indexed)
    jobs = [
        PreparedJob(
            job_id=i,
            submit_time_s=(i - 1) * 20.0,
            workload_class=WorkloadClass.MEM if i % 2 else WorkloadClass.CPU,
            n_vms=4,
            burst_id=i,
        )
        for i in range(1, 11)
    ]
    rebalancer = ReactiveRebalancer(
        database,
        policy=MigrationPolicy(overload_factor=1.5, max_migrations=4),
        cooldown_s=100.0,
    )
    return config, dict(
        jobs=jobs,
        strategy=FirstFitStrategy(3),
        qos=QoSPolicy.unlimited(),
        rebalancer=rebalancer,
    )


def _rebalance_finish(tmp_path, indexed, database):
    # Two identical IO crowds on twin servers finish at the same instant:
    # the first server's completion triggers a scan that migrates from
    # the second, whose pre-migration sync finishes its VMs -- the
    # rebalancer hands those back to the driver to complete.
    config = DatacenterConfig(n_servers=3, indexed=indexed)
    jobs = [
        PreparedJob(job_id=i, submit_time_s=0.0, workload_class=WorkloadClass.IO, n_vms=8, burst_id=i)
        for i in (1, 2)
    ]
    rebalancer = ReactiveRebalancer(
        database, policy=MigrationPolicy(overload_factor=1.5, max_migrations=4), cooldown_s=0.0
    )
    return config, dict(
        jobs=jobs,
        strategy=FirstFitStrategy(2),
        qos=QoSPolicy.unlimited(),
        rebalancer=rebalancer,
    )


SCENARIOS = {
    "backfill": _backfill,
    "faults": _faults,
    "rebalance": _rebalance,
    "rebalance_finish": _rebalance_finish,
}


def _result_doc(result) -> dict:
    chronicles = []
    for chronicle in result.chronicles:
        chronicles.append(
            {
                "server": chronicle.server_id,
                "n_recorded": chronicle.n_recorded,
                "n_evicted": chronicle.n_evicted,
                "intervals": [
                    [i.t0_s, i.t1_s, list(i.mix), i.power_w, list(i.vm_ids)]
                    for i in chronicle.iter_all()
                ],
                "notes": [dataclasses.asdict(note) for note in chronicle.notes],
                "energy": [
                    chronicle.total_energy_j(),
                    chronicle.busy_energy_j(),
                    chronicle.idle_energy_j(),
                    chronicle.carbon_g(),
                    chronicle.cost(),
                ],
            }
        )
    return {
        "strategy": result.strategy_name,
        "n_servers": result.n_servers,
        "metrics": dataclasses.asdict(result.metrics),
        "outcomes": [dataclasses.asdict(outcome) for outcome in result.outcomes],
        "busy_j": list(result.per_server_busy_j),
        "idle_j": list(result.per_server_idle_j),
        "carbon_g": list(result.per_server_carbon_g),
        "cost": list(result.per_server_cost),
        "fault_log": [dataclasses.asdict(record) for record in result.fault_log],
        "chronicles": chronicles,
    }


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fingerprint(name: str, indexed: bool, tmp_path, database) -> dict:
    """sha256 of (result, deterministic snapshot, deterministic trace)."""
    config, kwargs = SCENARIOS[name](tmp_path, indexed, database)
    sink = io.StringIO()
    tracer = Tracer(sink, deterministic=True)
    obs = Observability(tracer=tracer)
    result = DatacenterSimulator(config, obs=obs).run(**kwargs)
    tracer.close()
    return {
        "result": _sha(json.dumps(_result_doc(result), sort_keys=True)),
        "snapshot": _sha(json.dumps(obs.snapshot(), sort_keys=True)),
        "trace": _sha(sink.getvalue()),
    }


@pytest.mark.parametrize("indexed", [True, False], ids=["indexed", "naive"])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_matches_golden(name, indexed, tmp_path, database):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert fingerprint(name, indexed, tmp_path, database) == golden[name]


def test_scenarios_reach_every_handler(tmp_path, database):
    """The golden only guards what the scenarios exercise."""
    config, kwargs = _faults(tmp_path, True, database)
    result = DatacenterSimulator(config).run(**kwargs)
    applied = {(r.kind, r.applied) for r in result.fault_log}
    for action in ("crash", "recover", "slowdown_start", "slowdown_end", "abort_vm"):
        assert (action, True) in applied, action
    for action in ("crash", "recover", "abort_vm"):
        assert (action, False) in applied, action
    assert any(c.n_evicted for c in result.chronicles)
    assert result.metrics.carbon_g > 0.0 and result.metrics.cost > 0.0
    assert result.metrics.sla_violations > 0

    obs = Observability()
    config, kwargs = _backfill(tmp_path, True, database)
    DatacenterSimulator(config, obs=obs).run(**kwargs)
    counters = obs.snapshot()["counters"]
    assert counters['sim.jobs_backfilled{strategy="FF-2"}'] > 0
    assert counters['sim.place_rejections{strategy="FF-2"}'] > 0

    config, kwargs = _rebalance(tmp_path, True, database)
    DatacenterSimulator(config).run(**kwargs)
    assert kwargs["rebalancer"].migrations_performed > 0

    config, kwargs = _rebalance_finish(tmp_path, True, database)
    rebalancer = kwargs["rebalancer"]
    finished_in_scan = []
    scan = rebalancer.maybe_rebalance

    def spy(servers, now):
        touched, finished = scan(servers, now)
        finished_in_scan.extend(finished)
        return touched, finished

    rebalancer.maybe_rebalance = spy
    DatacenterSimulator(config).run(**kwargs)
    assert finished_in_scan


def _write_golden() -> None:  # pragma: no cover - maintenance entry point
    import tempfile

    from repro.campaign.platformrunner import run_campaign
    from repro.core.model import ModelDatabase

    database = ModelDatabase.from_campaign(run_campaign())
    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(SCENARIOS):
            golden[name] = fingerprint(name, True, Path(tmp), database)
            naive = fingerprint(name, False, Path(tmp), database)
            if naive != golden[name]:
                raise SystemExit(f"{name}: indexed and naive cores disagree")
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":  # pragma: no cover
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_run_golden.py --write")
    _write_golden()

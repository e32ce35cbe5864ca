"""The indexed core's mix-physics memo (``repro.sim.server.MixMemo``).

The memo must be invisible in results: the indexed core equals the
naive reference bit for bit even when the memo is cleared every few
entries or a transient slowdown scales the cached slowdowns, and its
miss/clear counters are deterministic.
"""

import json
import random

import repro.sim.server as server_module
from repro.faults import FaultEvent, FaultKind, FaultSpec, materialize
from repro.obs.runtime import Observability
from repro.sim.datacenter import DatacenterConfig, DatacenterSimulator
from repro.sim.vm import SimVM
from repro.strategies import FirstFitStrategy
from repro.testbed.benchmarks import WorkloadClass
from repro.testbed.spec import default_server
from repro.workloads.assignment import PreparedJob
from repro.workloads.qos import QoSPolicy

N_SERVERS = 4


def jobs(n=60, seed=20110516):
    rng = random.Random(seed)
    out = []
    t = 0.0
    for i in range(n):
        t += rng.choice([0.0, 5.0, 60.0, 300.0])
        out.append(
            PreparedJob(
                job_id=i + 1,
                submit_time_s=t,
                workload_class=rng.choice(list(WorkloadClass)),
                n_vms=rng.randint(1, 4),
                burst_id=i,
            )
        )
    return out


def run(indexed, faults=None, obs=None):
    config = DatacenterConfig(n_servers=N_SERVERS, indexed=indexed)
    schedule = materialize(faults, N_SERVERS) if faults is not None else None
    return DatacenterSimulator(config, obs=obs).run(
        jobs(), FirstFitStrategy(3), QoSPolicy.unlimited(), faults=schedule
    )


def memo_counters(snapshot):
    return {
        key: value
        for key, value in snapshot["counters"].items()
        if key.startswith("sim.mix_memo_")
    }


class TestMemoIdentity:
    def test_indexed_equals_naive_when_the_memo_keeps_clearing(self, monkeypatch):
        monkeypatch.setattr(server_module, "_MIX_CACHE_MAX", 4)
        obs = Observability()
        fast = run(indexed=True, obs=obs)
        assert fast == run(indexed=False)
        assert fast.per_server_busy_j == run(indexed=False).per_server_busy_j
        clears = memo_counters(obs.snapshot())['sim.mix_memo_clears{strategy="FF-3"}']
        assert clears > 0

    def test_indexed_equals_naive_under_a_slowdown_fault(self):
        faults = FaultSpec(
            events=tuple(
                FaultEvent(
                    kind=FaultKind.SLOWDOWN,
                    time_s=start,
                    server=server,
                    duration_s=900.0,
                    factor=factor,
                )
                for start, server, factor in (
                    (100.0, 0, 1.7),
                    (400.0, 1, 3.0),
                    (2000.0, 0, 1.25),
                )
            )
        )
        fast = run(indexed=True, faults=faults)
        naive = run(indexed=False, faults=faults)
        assert fast == naive
        assert fast.per_server_busy_j == naive.per_server_busy_j
        assert fast != run(indexed=True)  # the fault did slow something


class TestMemoCounters:
    def test_counters_are_deterministic_and_in_the_snapshot(self):
        snapshots = []
        for _ in range(2):
            obs = Observability()
            run(indexed=True, obs=obs)
            snapshots.append(obs.snapshot())
        counters = memo_counters(snapshots[0])
        assert set(counters) == {
            'sim.mix_memo_misses{strategy="FF-3"}',
            'sim.mix_memo_clears{strategy="FF-3"}',
        }
        assert counters['sim.mix_memo_misses{strategy="FF-3"}'] > 0
        assert counters['sim.mix_memo_clears{strategy="FF-3"}'] == 0
        assert json.dumps(snapshots[0], sort_keys=True) == json.dumps(
            snapshots[1], sort_keys=True
        )

    def test_naive_core_reports_the_same_counters(self):
        # The naive core's memo tracks sequences without solving them.
        counted = []
        for indexed in (True, False):
            obs = Observability()
            run(indexed=indexed, obs=obs)
            counted.append(memo_counters(obs.snapshot()))
        assert counted[0] == counted[1]

    def test_memo_solves_only_in_the_indexed_core(self):
        power = []
        for indexed in (True, False):
            memo = server_module.MixMemo(solves=indexed)
            server = server_module.ServerRuntime("s0", default_server(), mix_cache=memo)
            server.sync(0.0)
            server.add_vm(SimVM("v", 1, WorkloadClass.MEM, 0.0), 0.0)
            power.append(server.current_power_w())
            assert memo.misses == 1
            (entry,) = memo.entries.values()
            assert entry == (((1.0,), power[-1]) if indexed else ())
        assert power[0] == power[1]

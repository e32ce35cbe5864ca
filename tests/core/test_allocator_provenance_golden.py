"""Pinned search counters on duplicate-heavy server pools.

``AllocationPlan.__eq__`` ignores provenance, so the equivalence
oracle cannot tell whether the optimized search still probes exactly
the servers it used to.  These cases pin the full
``AllocationProvenance`` (grid hits and misses, energy fallbacks,
partitions, prune and abort counters, frontier sizes) on pools where
many servers share a ``(mix, max_vms)`` class: any change to which
servers a block assignment evaluates, or in what order, moves
``grid_hits``/``grid_misses`` or the prune/abort counters.

The golden file was captured from the server-scan implementation that
predates the class index.  Regenerate it only when a counter's meaning
changes on purpose::

    PYTHONPATH=src python tests/core/test_allocator_provenance_golden.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro.campaign.optimal import ClassOptima, OptimalScenarios
from repro.campaign.records import BenchmarkRecord
from repro.core.allocator import ProactiveAllocator, ServerState, VMRequest
from repro.core.model import ModelDatabase
from repro.testbed.benchmarks import WorkloadClass

GOLDEN = Path(__file__).with_name("allocator_provenance_golden.json")

_CLASSES = (WorkloadClass.CPU, WorkloadClass.MEM, WorkloadClass.IO)


def cpu_anchored_database() -> ModelDatabase:
    """Bounds (3, 2, 2) with records only for mixes holding a CPU VM.

    Mixes without a CPU VM dominate no record, so their grid cells are
    unestimable: a server already running such a mix exercises the
    zero-energy fallback, and blocks landing there miss the grid.
    """
    optima = OptimalScenarios(
        per_class={
            WorkloadClass.CPU: ClassOptima(WorkloadClass.CPU, 3, 1, 100.0),
            WorkloadClass.MEM: ClassOptima(WorkloadClass.MEM, 2, 1, 150.0),
            WorkloadClass.IO: ClassOptima(WorkloadClass.IO, 2, 1, 200.0),
        }
    )
    records = []
    for ncpu in range(1, 4):
        for nmem in range(3):
            for nio in range(3):
                n = ncpu + nmem + nio
                time_s = 90.0 * (1.0 + 0.3 * n) + 11.0 * nmem + 17.0 * nio
                energy_j = 9_000.0 * (1.0 + 0.2 * n) + 700.0 * ncpu * nio
                records.append(
                    BenchmarkRecord.from_measurement(
                        (ncpu, nmem, nio), time_s, energy_j, 250.0
                    )
                )
    return ModelDatabase(records, optima)


def requests_for(counts, deadlines=None, order=None):
    """VM requests for a ``(ncpu, nmem, nio)`` mix, optionally reordered."""
    classes = []
    for workload_class, n in zip(_CLASSES, counts):
        classes.extend([workload_class] * n)
    if order is not None:
        classes = [classes[k] for k in order]
    deadlines = deadlines or {}
    return [
        VMRequest(f"v{k}", workload_class, deadlines.get(workload_class))
        for k, workload_class in enumerate(classes)
    ]


def interleaved_servers(n, mixes, caps):
    """``n`` servers cycling through the given mixes and caps by index."""
    return [
        ServerState(
            f"s{k}", allocated=mixes[k % len(mixes)], max_vms=caps[k % len(caps)]
        )
        for k in range(n)
    ]


def golden_cases(database):
    """(name, allocator, requests, servers) for every pinned case."""
    partial = cpu_anchored_database()
    reference_io = database.reference_time(WorkloadClass.IO)
    return [
        (
            "service_window_48_empty",
            ProactiveAllocator(database, alpha=0.5, strict_qos=False),
            requests_for((4, 4, 4), order=[0, 4, 8, 1, 5, 9, 2, 6, 10, 3, 7, 11]),
            interleaved_servers(48, [(0, 0, 0)], [None]),
        ),
        (
            "interleaved_four_classes_pa0",
            ProactiveAllocator(database, alpha=0.0, strict_qos=False, bnb_min_vms=0),
            requests_for((3, 2, 2), deadlines={WorkloadClass.IO: 3.0 * reference_io}),
            interleaved_servers(
                40, [(0, 0, 0), (1, 0, 0), (0, 1, 1), (2, 1, 0)], [None, 6]
            ),
        ),
        (
            "interleaved_three_classes_pa1",
            ProactiveAllocator(database, alpha=1.0, strict_qos=True, bnb_min_vms=0),
            requests_for((2, 2, 2)),
            interleaved_servers(36, [(1, 1, 0), (0, 0, 0), (0, 0, 1)], [8, None, 8]),
        ),
        (
            "capped_pa0_prunes_subtrees",
            ProactiveAllocator(database, alpha=0.0, strict_qos=False, bnb_min_vms=0),
            requests_for((3, 3, 3)),
            interleaved_servers(40, [(0, 0, 0)], [6]),
        ),
        (
            "mixed_caps_pa1_aborts",
            ProactiveAllocator(database, alpha=1.0, strict_qos=False, bnb_min_vms=0),
            requests_for((2, 4, 3)),
            interleaved_servers(36, [(3, 0, 0), (0, 2, 1), (1, 1, 0)], [4, 12, 4]),
        ),
        (
            "deadline_pa05_aborts",
            ProactiveAllocator(database, alpha=0.5, strict_qos=False, bnb_min_vms=0),
            requests_for((4, 4, 1), deadlines={WorkloadClass.IO: 4.0 * reference_io}),
            interleaved_servers(30, [(3, 0, 0)], [6, None, 8]),
        ),
        (
            "busy_pool_pa05_batch9",
            ProactiveAllocator(database, alpha=0.5, strict_qos=False),
            requests_for((3, 3, 3)),
            interleaved_servers(
                32, [(0, 0, 0), (2, 1, 1), (0, 2, 1), (1, 0, 0)], [12, 12, 10]
            ),
        ),
        (
            "off_grid_and_fallback_residuals",
            ProactiveAllocator(partial, alpha=0.5, strict_qos=False, bnb_min_vms=0),
            requests_for((2, 1, 1)),
            interleaved_servers(
                30, [(4, 0, 0), (0, 1, 0), (0, 0, 0), (0, 1, 1), (1, 0, 0)], [None, 4]
            ),
        ),
        (
            "anytime_forced_duplicates",
            ProactiveAllocator(database, alpha=0.5, strict_qos=False, anytime=True),
            requests_for((3, 3, 2)),
            interleaved_servers(24, [(0, 0, 0), (1, 1, 0)], [None]),
        ),
    ]


def provenance_counts(plan) -> dict:
    return dataclasses.asdict(plan.search_provenance)


def capture(database) -> dict:
    return {
        name: provenance_counts(allocator.allocate(requests, servers))
        for name, allocator, requests, servers in golden_cases(database)
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(database, golden):
    assert sorted(golden) == sorted(name for name, *_ in golden_cases(database))


@pytest.mark.parametrize("index", range(9))
def test_provenance_matches_golden(database, golden, index):
    name, allocator, requests, servers = golden_cases(database)[index]
    plan = allocator.allocate(requests, servers)
    assert provenance_counts(plan) == golden[name], name


def test_cases_exercise_the_counters_they_pin(golden):
    fallback = golden["off_grid_and_fallback_residuals"]
    assert fallback["energy_fallbacks"] > 0
    assert fallback["grid_misses"] > 0
    pruned = golden["capped_pa0_prunes_subtrees"]
    assert pruned["pruned_infeasible_subtrees"] > 0
    assert pruned["pruned_dominated_subtrees"] > 0
    for name in ("mixed_caps_pa1_aborts", "deadline_pa05_aborts"):
        assert golden[name]["aborted_assignments"] > 0, name
    assert golden["anytime_forced_duplicates"]["anytime_evaluated"] > 0


if __name__ == "__main__":
    from repro.campaign.platformrunner import run_campaign

    document = capture(ModelDatabase.from_campaign(run_campaign()))
    GOLDEN.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)

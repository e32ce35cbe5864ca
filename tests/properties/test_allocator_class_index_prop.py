"""Equivalence oracle on pools shaped for the server-class index.

:meth:`ProactiveAllocator.allocate` groups servers by ``(allocated,
max_vms)`` and probes one leader per class plus the servers the
partition already touched.  That is exact only if the leader is always
the lowest-index server the full scan would have evaluated, so these
worlds are built to make the lowest-index tie-break decide: 32--96
servers drawn from 2--6 classes, interleaved by index, with mixed VM
caps, off-grid residuals and residuals whose grid cell is unestimable
(the zero-energy fallback).  Every case must return the bit-identical
plan of :meth:`allocate_reference` (or raise the same error type),
with branch-and-bound forced on (``bnb_min_vms=0``) and at its default.
Batches stay at 8 VMs or fewer so the naive oracle stays fast.
"""

import random

import pytest

from repro.campaign.optimal import ClassOptima, OptimalScenarios
from repro.campaign.records import BenchmarkRecord
from repro.common.errors import AllocationError, ConfigurationError
from repro.core.allocator import ProactiveAllocator, ServerState, VMRequest
from repro.core.estimatecache import grid_for
from repro.core.model import ModelDatabase
from repro.testbed.benchmarks import WorkloadClass

SEEDS = range(8)
CASES_PER_SEED = 10


def random_database(rng: random.Random) -> ModelDatabase:
    """Random bounds and partial coverage, so some cells are unestimable."""
    bounds = (rng.randint(2, 4), rng.randint(1, 3), rng.randint(1, 3))
    optima = OptimalScenarios(
        per_class={
            workload_class: ClassOptima(
                workload_class, bound, 1, rng.uniform(80.0, 240.0)
            )
            for workload_class, bound in zip(WorkloadClass, bounds)
        }
    )
    include_p = rng.uniform(0.5, 1.0)
    records = []
    for ncpu in range(bounds[0] + 1):
        for nmem in range(bounds[1] + 1):
            for nio in range(bounds[2] + 1):
                n = ncpu + nmem + nio
                if n == 0 or rng.random() > include_p:
                    continue
                records.append(
                    BenchmarkRecord.from_measurement(
                        (ncpu, nmem, nio),
                        rng.uniform(50.0, 400.0) * (1.0 + 0.3 * n),
                        rng.uniform(5_000.0, 60_000.0) * (1.0 + 0.2 * n),
                        250.0,
                    )
                )
    if not records:
        records.append(
            BenchmarkRecord.from_measurement((1, 0, 0), 100.0, 15_000.0, 250.0)
        )
    return ModelDatabase(records, optima)


def class_pool(rng: random.Random, database: ModelDatabase) -> list[ServerState]:
    """32--96 servers over 2--6 distinct ``(mix, max_vms)`` classes.

    Class membership is drawn per index, so members of every class are
    interleaved with the others'.  The mix menu always offers empty
    servers, includes an off-grid residual and (when the database has
    one) a residual on an unestimable cell.
    """
    osc, osm, osi = bounds = database.grid_bounds
    grid = grid_for(database)
    unestimable = [
        (c, m, i)
        for c in range(osc + 1)
        for m in range(osm + 1)
        for i in range(osi + 1)
        if c + m + i > 0 and grid.get((c, m, i)) is None
    ]
    mixes = [(0, 0, 0), (osc + 1, 0, rng.randint(0, osi))]
    if unestimable:
        mixes.append(rng.choice(unestimable))
    mixes.extend(
        (rng.randint(0, osc), rng.randint(0, osm), rng.randint(0, osi))
        for _ in range(3)
    )
    total = sum(bounds)
    caps = [None, rng.randint(1, total), rng.randint(1, total + 2)]
    classes: list[tuple] = []
    target = rng.randint(2, 6)
    while len(classes) < target:
        candidate = (rng.choice(mixes), rng.choice(caps))
        if candidate not in classes:
            classes.append(candidate)
    n_servers = rng.randint(32, 96)
    # Every class appears at least once; the rest is a random interleave.
    layout = list(range(len(classes))) + [
        rng.randrange(len(classes)) for _ in range(n_servers - len(classes))
    ]
    rng.shuffle(layout)
    return [
        ServerState(f"s{index}", allocated=classes[k][0], max_vms=classes[k][1])
        for index, k in enumerate(layout)
    ]


def random_requests(rng: random.Random, database: ModelDatabase) -> list[VMRequest]:
    classes = list(WorkloadClass)
    with_deadlines = rng.random() < 0.4
    requests = []
    for index in range(rng.randint(1, 8)):
        workload_class = rng.choice(classes)
        deadline = None
        if with_deadlines and rng.random() < 0.7:
            deadline = database.reference_time(workload_class) * rng.uniform(0.8, 8.0)
        requests.append(VMRequest(f"v{index}", workload_class, deadline))
    return requests


def outcome(call):
    try:
        return call(), None
    except (AllocationError, ConfigurationError) as error:
        return None, error


@pytest.mark.parametrize("bnb_min_vms", [0, 9])
@pytest.mark.parametrize("seed", SEEDS)
def test_class_indexed_allocate_equals_reference(seed, bnb_min_vms):
    rng = random.Random(0xC1A55 + seed)
    for case_index in range(CASES_PER_SEED):
        database = random_database(rng)
        servers = class_pool(rng, database)
        requests = random_requests(rng, database)
        allocator = ProactiveAllocator(
            database,
            alpha=rng.choice([0.0, 0.5, 1.0, round(rng.random(), 3)]),
            strict_qos=rng.random() < 0.5,
            bnb_min_vms=bnb_min_vms,
        )
        case = f"seed={seed} bnb_min_vms={bnb_min_vms} case={case_index}"
        reference, reference_error = outcome(
            lambda: allocator.allocate_reference(requests, servers)
        )
        optimized, optimized_error = outcome(
            lambda: allocator.allocate(requests, servers)
        )
        if reference_error is not None:
            assert type(optimized_error) is type(reference_error), case
            continue
        assert optimized_error is None, f"{case}: {optimized_error}"
        assert optimized == reference, case
        assert optimized.search_provenance is not None

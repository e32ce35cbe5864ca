"""The resumable allocator: ``allocate_steps`` is ``allocate``.

:meth:`ProactiveAllocator.allocate` drains
:meth:`ProactiveAllocator.allocate_steps`, so the two must agree bit for
bit -- and with :meth:`ProactiveAllocator.allocate_reference` -- on the
server-class-index worlds of the property suite and on an anytime
batch.  A step generator yields each partition it evaluates (and
``None`` at dead ends of the exact enumeration), may be suspended and
interleaved with other searches, and a time-budgeted search keeps its
budget across suspensions.
"""

from __future__ import annotations

import io
import json
import random
from types import SimpleNamespace

import pytest

import repro.core.anytime as anytime
from properties.test_allocator_class_index_prop import (
    class_pool,
    outcome,
    random_database,
    random_requests,
)
from repro.core.allocator import ProactiveAllocator, ServerState, VMRequest
from repro.obs.runtime import observed
from repro.obs.tracer import Tracer
from repro.testbed.benchmarks import WorkloadClass


def drain_counting(steps):
    """Run a step generator; return (its value, the partitions it yielded)."""
    partitions = 0
    try:
        while True:
            if next(steps) is not None:
                partitions += 1
    except StopIteration as stop:
        return stop.value, partitions


def mixed_requests(counts, prefix=""):
    cpu, mem, io_ = counts
    return (
        [VMRequest(f"{prefix}c{i}", WorkloadClass.CPU) for i in range(cpu)]
        + [VMRequest(f"{prefix}m{i}", WorkloadClass.MEM) for i in range(mem)]
        + [VMRequest(f"{prefix}i{i}", WorkloadClass.IO) for i in range(io_)]
    )


def servers(n, max_vms=12):
    return [ServerState(f"s{i}", max_vms=max_vms) for i in range(n)]


@pytest.mark.parametrize("seed", range(4))
def test_steps_equal_allocate_and_reference_on_class_index_worlds(seed):
    rng = random.Random(0x57E95 + seed)
    for case_index in range(10):
        database = random_database(rng)
        pool = class_pool(rng, database)
        requests = random_requests(rng, database)
        allocator = ProactiveAllocator(
            database,
            alpha=rng.choice([0.0, 0.5, 1.0]),
            strict_qos=rng.random() < 0.5,
            bnb_min_vms=rng.choice([0, 9]),
        )
        case = f"seed={seed} case={case_index}"
        reference, reference_error = outcome(
            lambda: allocator.allocate_reference(requests, pool)
        )
        plan, plan_error = outcome(lambda: allocator.allocate(requests, pool))
        stepped, stepped_error = outcome(
            lambda: drain_counting(allocator.allocate_steps(requests, pool))
        )
        if reference_error is not None:
            assert type(plan_error) is type(reference_error), case
            assert type(stepped_error) is type(reference_error), case
            continue
        stepped_plan, partitions = stepped
        assert stepped_plan == plan == reference, case
        assert stepped_plan.search_provenance == plan.search_provenance, case
        provenance = stepped_plan.search_provenance
        assert provenance.mode == "exact", case
        assert partitions == provenance.partitions_enumerated, case


def test_steps_equal_allocate_on_an_anytime_batch(database):
    requests = mixed_requests((6, 5, 5))
    pool = servers(16)
    allocator = ProactiveAllocator(database)
    plan = allocator.allocate(requests, pool)
    stepped, partitions = drain_counting(allocator.allocate_steps(requests, pool))
    provenance = stepped.search_provenance
    assert provenance.mode == "anytime"
    assert stepped == plan
    assert provenance == plan.search_provenance
    assert partitions == provenance.anytime_evaluated > 0


def test_interleaved_searches_equal_sequential_ones(database):
    allocator = ProactiveAllocator(database, bnb_min_vms=0)
    batches = [mixed_requests((3, 2, 2), "a"), mixed_requests((2, 3, 1), "b")]
    pool = servers(24)
    sequential = [allocator.allocate(batch, pool) for batch in batches]
    generators = [allocator.allocate_steps(batch, pool) for batch in batches]
    results = [None, None]
    while any(result is None for result in results):
        for index, steps in enumerate(generators):
            if results[index] is not None:
                continue
            try:
                next(steps)
            except StopIteration as stop:
                results[index] = stop.value
    assert results == sequential
    assert [r.search_provenance for r in results] == [
        s.search_provenance for s in sequential
    ]


def test_interleaved_spans_open_detached(database):
    sink = io.StringIO()
    allocator = ProactiveAllocator(database)
    pool = servers(8)
    with observed(tracer=Tracer(sink, deterministic=True)):
        first = allocator.allocate_steps(mixed_requests((2, 2, 2), "a"), pool)
        second = allocator.allocate_steps(mixed_requests((2, 1, 2), "b"), pool)
        next(first)
        next(second)  # both spans open at once
        for steps in (first, second):
            drain_counting(steps)
    events = [json.loads(line) for line in sink.getvalue().splitlines()]
    spans = [e for e in events if e["name"] == "allocator.allocate"]
    assert [e["event"] for e in spans] == ["open", "open", "close", "close"]
    # Neither search became the other's parent.
    assert all(e["parent_id"] is None for e in spans)


def test_abandoned_search_closes_its_span(database):
    sink = io.StringIO()
    allocator = ProactiveAllocator(database)
    with observed(tracer=Tracer(sink, deterministic=True)):
        steps = allocator.allocate_steps(mixed_requests((2, 2, 2)), servers(8))
        next(steps)
        steps.close()
    closes = [
        json.loads(line)
        for line in sink.getvalue().splitlines()
        if '"close"' in line
    ]
    assert [(e["name"], e["attrs"]["outcome"]) for e in closes] == [
        ("allocator.allocate", "abandoned")
    ]


class FakeClock:
    """A monotonic clock that moves only when told to."""

    def __init__(self):
        self.now = 1000.0
        self.reads = 0

    def monotonic(self):
        self.reads += 1
        return self.now


class TestSuspendedBudget:
    BUDGET_S = 25.5  # about 25 evaluations of one simulated second each

    def budgeted_run(self, database, monkeypatch, suspended_s):
        clock = FakeClock()
        monkeypatch.setattr(anytime, "time", SimpleNamespace(monotonic=clock.monotonic))
        allocator = ProactiveAllocator(database, time_budget_s=self.BUDGET_S)
        original = ProactiveAllocator._assign_streamed

        def one_second_each(self, *args, **kwargs):
            clock.now += 1.0
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ProactiveAllocator, "_assign_streamed", one_second_each)
        steps = allocator.allocate_steps(mixed_requests((4, 3, 3)), servers(10))
        try:
            while True:
                next(steps)
                clock.now += suspended_s  # other tenants' slices
        except StopIteration as stop:
            return stop.value.search_provenance

    def test_suspension_does_not_spend_the_budget(self, database, monkeypatch):
        straight = self.budgeted_run(database, monkeypatch, suspended_s=0.0)
        suspended = self.budgeted_run(
            database, monkeypatch, suspended_s=10 * self.BUDGET_S
        )
        assert straight.anytime_budget_exhausted  # the budget binds
        assert suspended.anytime_budget_exhausted
        assert suspended.anytime_evaluated == straight.anytime_evaluated
        assert suspended.budget_consumed_s == straight.budget_consumed_s

    def test_unarmed_deadline_never_reads_the_clock(self, database, monkeypatch):
        clock = FakeClock()
        monkeypatch.setattr(anytime, "time", SimpleNamespace(monotonic=clock.monotonic))
        allocator = ProactiveAllocator(database, anytime=True)
        plan, partitions = drain_counting(
            allocator.allocate_steps(mixed_requests((3, 3, 2)), servers(6))
        )
        assert partitions == plan.search_provenance.anytime_evaluated > 0
        assert clock.reads == 0

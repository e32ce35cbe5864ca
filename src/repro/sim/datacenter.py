"""Top-level datacenter simulation driver (paper Sect. IV).

Binds a prepared workload trace to an allocation strategy over a
cluster of emulated servers:

* job requests arrive at their trace submit times; each job's VMs are
  placed atomically by the strategy or queued FCFS (head-of-line
  blocking, as in batch schedulers) until capacity frees up;
* VM execution follows the testbed contention model -- the simulation
  ground truth -- with progress and energy integrated between mix
  changes (the event-driven realization of Fig. 4's interval-weighted
  accounting);
* powered-on servers draw at least the paper's fixed 125 W; empty
  servers power off by default (consolidation's energy lever);
* completion, energy, and SLA outcomes feed
  :mod:`repro.sim.metrics`.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Literal, Sequence

from repro.common.errors import ConfigurationError, SimulationError
from repro.faults import (
    FAULTS_INJECTED,
    FAULTS_REALLOCATIONS,
    FaultAction,
    FaultRecord,
    FaultSchedule,
    ScheduledFault,
)
from repro.obs.runtime import Observability, get_observability
from repro.sim.chronicle import ChronicleSpill
from repro.sim.engine import EventQueue
from repro.sim.index import IndexedClusterView, NaiveClusterView
from repro.sim.metrics import JobOutcome, SimulationMetrics, compute_metrics
from repro.sim.server import MixMemo, ServerRuntime
from repro.sim.vm import SimVM, VMState
from repro.strategies.base import AllocationStrategy, VMDescriptor
from repro.testbed.contention import ContentionParams
from repro.testbed.spec import ServerSpec, default_server
from repro.workloads.assignment import PreparedJob
from repro.workloads.qos import QoSPolicy

_Event = tuple[Literal["arrival", "boundary", "fault"], int, int]
# ("arrival", job_index, 0), ("boundary", server_index, token), or
# ("fault", timeline_index, 0)


@dataclass(frozen=True)
class DatacenterConfig:
    """Cluster configuration for one simulation run.

    ``server_specs`` optionally gives each server its own hardware
    specification (heterogeneous clusters, paper Sect. V future work);
    when set its length must equal ``n_servers`` and it overrides
    ``server_spec``.
    """

    n_servers: int
    server_spec: ServerSpec = field(default_factory=default_server)
    params: ContentionParams | None = None
    power_off_when_empty: bool = True
    server_specs: tuple[ServerSpec, ...] | None = None
    #: Record per-server interval chronicles (power/mix audit trails;
    #: costs memory proportional to event count).  Consumed by the
    #: thermal replay and the accounting consistency checks.
    record_chronicles: bool = False
    #: Queue discipline: 0 = strict FCFS (a blocked head blocks
    #: everyone, as in the paper's implicit batch model); N > 0 = EASY
    #: backfilling, letting up to N queued jobs behind a blocked head
    #: be placed when capacity suits them.
    backfill_window: int = 0
    #: Use the incremental cluster indexes (see :mod:`repro.sim.index`):
    #: cached snapshot list, O(1) powered/idle counters, free-capacity
    #: candidate iteration.  ``False`` runs the retained naive
    #: reference -- full rebuilds and scans at every event site -- which
    #: the property suite and the scale bench compare against
    #: (bit-identical results, very different wall time).
    indexed: bool = True
    #: Ring-buffer capacity per chronicle (None = retain everything).
    #: Requires ``record_chronicles``; bounds chronicle memory at
    #: ``capacity`` intervals per server regardless of run length.
    chronicle_capacity: int | None = None
    #: JSONL spill file for intervals evicted from bounded chronicles
    #: (shared by all servers of the run; see
    #: :class:`repro.sim.chronicle.ChronicleSpill`).  Requires
    #: ``chronicle_capacity``.
    chronicle_spill_path: str | None = None
    #: Global index of this cluster's first server: server ids are
    #: ``s{offset+i:04d}``.  Sharded campaigns (repro.sim.shard) give
    #: each shard its slice's offset so ids match the unsharded
    #: cluster's naming.
    server_id_offset: int = 0
    #: Temporal carbon/price signals for per-interval carbon mass and
    #: energy-cost accounting (duck-typed fused ``accrue``,
    #: see :class:`repro.ext.carbon.signal.TemporalSignals`; sim never
    #: imports ext).  ``None`` -- the default -- leaves every float of
    #: the signal-free simulation untouched.
    signals: object | None = None

    def __post_init__(self) -> None:
        if self.n_servers < 1:
            raise ConfigurationError(f"n_servers must be >= 1, got {self.n_servers}")
        if self.server_specs is not None and len(self.server_specs) != self.n_servers:
            raise ConfigurationError(
                f"server_specs has {len(self.server_specs)} entries but "
                f"n_servers={self.n_servers}"
            )
        if self.backfill_window < 0:
            raise ConfigurationError(
                f"backfill_window must be >= 0, got {self.backfill_window}"
            )
        if self.chronicle_capacity is not None:
            if self.chronicle_capacity < 1:
                raise ConfigurationError(
                    f"chronicle_capacity must be >= 1, got {self.chronicle_capacity}"
                )
            if not self.record_chronicles:
                raise ConfigurationError(
                    "chronicle_capacity requires record_chronicles=True"
                )
        if self.chronicle_spill_path is not None and self.chronicle_capacity is None:
            raise ConfigurationError(
                "chronicle_spill_path requires chronicle_capacity (intervals "
                "spill only when the ring evicts)"
            )
        if self.server_id_offset < 0:
            raise ConfigurationError(
                f"server_id_offset must be >= 0, got {self.server_id_offset}"
            )

    def spec_of(self, index: int) -> ServerSpec:
        if self.server_specs is not None:
            return self.server_specs[index]
        return self.server_spec


@dataclass(frozen=True)
class SimulationResult:
    """Everything one run produces.

    ``chronicles`` is populated only when the config asked for
    recording (one entry per server, in server order).
    """

    strategy_name: str
    metrics: SimulationMetrics
    outcomes: tuple[JobOutcome, ...]
    per_server_busy_j: tuple[float, ...]
    per_server_idle_j: tuple[float, ...]
    n_servers: int
    chronicles: tuple = ()
    #: What the fault schedule actually did (empty without faults);
    #: one :class:`repro.faults.FaultRecord` per timeline entry.
    fault_log: tuple = ()
    #: Per-server carbon mass (gCO2) / energy cost, populated only when
    #: the config carried temporal signals (empty tuples otherwise).
    per_server_carbon_g: tuple = ()
    per_server_cost: tuple = ()

    @property
    def energy_j(self) -> float:
        return self.metrics.energy_j

    @property
    def makespan_s(self) -> float:
        return self.metrics.makespan_s

    @property
    def sla_violation_pct(self) -> float:
        return self.metrics.sla_violation_pct


class _JobTracker:
    """Mutable per-job completion bookkeeping."""

    __slots__ = ("job", "vms", "unfinished")

    def __init__(self, job: PreparedJob, deadline_s: float):
        self.job = job
        self.vms = [
            SimVM(
                vm_id=f"j{job.job_id}-{k}",
                job_id=job.job_id,
                workload_class=job.workload_class,
                submit_time_s=job.submit_time_s,
                deadline_s=deadline_s,
            )
            for k in range(job.n_vms)
        ]
        self.unfinished = job.n_vms


def _descriptors(vms: Sequence[SimVM], now: float) -> list[VMDescriptor]:
    return [
        VMDescriptor(
            vm_id=vm.vm_id,
            workload_class=vm.workload_class,
            remaining_deadline_s=(
                None if math.isinf(vm.deadline_s) else max(vm.deadline_s - now, 0.0)
            ),
        )
        for vm in vms
    ]


class DatacenterSimulator:
    """Simulates one (trace, strategy) combination on a cluster.

    ``obs`` (see :mod:`repro.obs`) instruments the run: a ``sim.run``
    root span, one ``sim.job`` span per job (arrival to completion,
    in sim time), ``sim.place`` points, queue-depth and powered-server
    gauges, deterministic sim-time histograms (queue wait, job
    response) and a volatile wall-clock histogram of per-placement
    strategy latency.  ``None`` resolves the process-local default,
    which is the no-op bundle unless one was installed.
    """

    def __init__(self, config: DatacenterConfig, obs: Observability | None = None):
        self._config = config
        self._obs = obs

    @property
    def config(self) -> DatacenterConfig:
        return self._config

    def run(
        self,
        jobs: Sequence[PreparedJob],
        strategy: AllocationStrategy,
        qos: QoSPolicy,
        rebalancer=None,
        faults: FaultSchedule | None = None,
    ) -> SimulationResult:
        """Run the simulation to completion and aggregate metrics.

        Parameters
        ----------
        rebalancer:
            Optional reactive-migration hook (duck-typed:
            ``maybe_rebalance(servers, now) -> (touched server ids, VMs
            finished during the migration syncs)``, e.g.
            :class:`repro.ext.migration.rebalancer.ReactiveRebalancer`);
            invoked after VM completions, with the touched servers'
            boundary events rescheduled and the finished VMs completed.
        faults:
            Optional materialized fault timeline (see
            :func:`repro.faults.materialize`).  Crashed servers evict
            their VMs, which restart from scratch via the strategy's
            :meth:`~repro.strategies.base.AllocationStrategy.reallocate`
            hook; the run's :class:`~repro.faults.FaultRecord` log lands
            on ``SimulationResult.fault_log``.  ``None`` or an empty
            schedule leaves every code path of the fault-free simulation
            untouched.

        Raises
        ------
        SimulationError
            If some job can never be placed (queue deadlock with an
            empty cluster -- the strategy rejects the job even with
            everything idle), to fail loudly instead of looping.  With
            faults the idle-cluster check is deferred until no failed
            server or pending fault event could still change capacity.
        """
        obs = self._obs if self._obs is not None else get_observability()
        run = _Run(self._config, obs, jobs, strategy, qos, rebalancer, faults)
        run.loop()
        return run.result()


class _Run:
    """One simulation run: the event loop and its named handlers.

    :meth:`loop` pops arrivals, server boundaries (stale predictions
    are skipped by token) and fault entries, and dispatches them to
    :meth:`_arrival`, :meth:`_completion` and :meth:`_fault` (one
    handler per :class:`~repro.faults.FaultAction`).  Each ends by
    settling: :meth:`_replace` re-places evicted VM groups, then
    :meth:`_drain_queue` places queued jobs via :meth:`_place`; both
    enact plans through :meth:`_commit`.  :meth:`result` assembles the
    end-of-run accounting.
    """

    def __init__(self, config, obs, jobs, strategy, qos, rebalancer, faults):
        self.config = config
        self.strategy = strategy
        self.rebalancer = rebalancer
        self.enabled = obs.enabled
        self.tracer = tracer = obs.tracer
        if self.enabled:
            self._bind_metrics(obs.registry, {"strategy": strategy.name})
        # The spill sink outlives the event loop (final syncs may still
        # record); it is closed before results are assembled, so replay
        # via Chronicle.iter_all() sees a complete, flushed file.
        path = config.chronicle_spill_path
        self.spill = ChronicleSpill(path) if path is not None else None
        indexed = config.indexed
        self.servers = servers = self._build_servers(solves_physics=indexed)
        self.server_index = {server.server_id: i for i, server in enumerate(servers)}
        self.cluster = (IndexedClusterView if indexed else NaiveClusterView)(servers)

        ordered_jobs = sorted(jobs, key=lambda j: (j.submit_time_s, j.job_id))
        self.trackers = [
            _JobTracker(job, qos.deadline_for(job.workload_class, job.submit_time_s))
            for job in ordered_jobs
        ]
        self.vm_to_tracker = {vm.vm_id: t for t in self.trackers for vm in t.vms}
        self.events: EventQueue[_Event] = EventQueue()
        for index, tracker in enumerate(self.trackers):
            self.events.schedule(tracker.job.submit_time_s, ("arrival", index, 0))
        self.fault_timeline = faults.timeline if faults is not None else ()
        if faults is not None:
            faults.validate_servers(config.n_servers)
        for index, entry in enumerate(self.fault_timeline):
            self.events.schedule(entry.time_s, ("fault", index, 0))
        self.faults_remaining = len(self.fault_timeline)
        self.fault_log: list[FaultRecord] = []
        #: Evicted VM groups (one per job) awaiting re-placement, FIFO.
        self.realloc_queue: deque[tuple[_JobTracker, list[SimVM]]] = deque()
        self.boundary_tokens = [0] * len(servers)
        self.queue: deque[_JobTracker] = deque()
        self.outcomes: list[JobOutcome] = []
        self.max_queue_length = 0
        self.run_span = tracer.start(
            "sim.run",
            t_sim=0.0,
            strategy=strategy.name,
            n_servers=config.n_servers,
            n_jobs=len(ordered_jobs),
        )
        self.job_spans: dict[int, object] = {}

    def _build_servers(self, solves_physics: bool) -> list[ServerRuntime]:
        # Servers with the same spec share one mix-physics memo (the
        # params are cluster-wide), multiplying the hit rate by the
        # cluster size.  The naive core's memos only track sequences
        # and it recomputes every step, preserving the pre-index core
        # as an honest baseline with the same sim.mix_memo_* counters.
        config = self.config
        self.mix_memos: dict[int, MixMemo] = {}
        return [
            ServerRuntime(
                server_id=f"s{config.server_id_offset + i:04d}",
                spec=config.spec_of(i),
                params=config.params,
                power_off_when_empty=config.power_off_when_empty,
                record_chronicle=config.record_chronicles,
                chronicle_capacity=config.chronicle_capacity,
                chronicle_spill=self.spill,
                mix_cache=self.mix_memos.setdefault(
                    id(config.spec_of(i)), MixMemo(solves=solves_physics)
                ),
                signals=config.signals,
            )
            for i in range(config.n_servers)
        ]

    def _bind_metrics(self, registry, label: dict) -> None:
        self.registry = registry
        self.label = label
        self.c_arrived = registry.counter("sim.jobs_arrived", **label)
        self.c_placed = registry.counter("sim.jobs_placed", **label)
        self.c_completed = registry.counter("sim.jobs_completed", **label)
        self.c_vms = registry.counter("sim.vms_placed", **label)
        self.c_attempts = registry.counter("sim.place_attempts", **label)
        self.c_rejected = registry.counter("sim.place_rejections", **label)
        self.c_backfilled = registry.counter("sim.jobs_backfilled", **label)
        self.g_queue = registry.gauge("sim.queue_depth", **label)
        self.g_powered = registry.gauge("sim.powered_servers", **label)
        self.h_wait = registry.histogram("sim.queue_wait_s", unit="s", **label)
        self.h_response = registry.histogram("sim.job_response_s", unit="s", **label)
        self.h_place = registry.histogram("sim.place_latency_s", unit="s", volatile=True, **label)

    # -- the event loop ----------------------------------------------------

    def loop(self) -> None:
        events = self.events
        pop = events.pop
        servers = self.servers
        tokens = self.boundary_tokens
        schedule_boundary = self.schedule_boundary
        while events:
            now, (kind, index, token) = pop()
            if kind == "boundary":
                if token != tokens[index]:
                    continue  # stale prediction: the mix changed since
                finished = servers[index].sync(now)
                schedule_boundary(index, now)
                if finished:
                    self._completion(finished, now)
            elif kind == "arrival":
                self._arrival(self.trackers[index], now)
            else:
                self._fault(self.fault_timeline[index], now)

    def schedule_boundary(self, index: int, now: float) -> None:
        boundary = self.servers[index].next_boundary(now)
        if boundary is None:
            return
        tokens = self.boundary_tokens
        token = tokens[index] = tokens[index] + 1
        self.events.schedule(boundary, ("boundary", index, token))

    def _settle(self, now: float) -> None:
        """After any state change: re-place evicted VMs, then drain the
        job queue (capacity may have freed up)."""
        self._replace(now)
        self._drain_queue(now)
        if self.enabled:
            self.g_powered.set(self.cluster.powered_count())

    # -- arrival, placement, completion ------------------------------------

    def _arrival(self, tracker: _JobTracker, now: float) -> None:
        queue = self.queue
        queue.append(tracker)
        self.max_queue_length = max(self.max_queue_length, len(queue))
        if self.enabled:
            self.c_arrived.inc()
            self.g_queue.set(len(queue))
            if self.tracer.enabled:
                job = tracker.job
                self.job_spans[job.job_id] = self.tracer.start(
                    "sim.job",
                    t_sim=now,
                    detached=True,
                    job_id=job.job_id,
                    workload_class=job.workload_class.value,
                    n_vms=job.n_vms,
                )
        self._settle(now)

    def _drain_queue(self, now: float) -> None:
        queue = self.queue
        while queue:
            if self._place(queue[0], now):
                queue.popleft()
                continue
            if self.cluster.idle() and self.faults_remaining == 0 and not self.realloc_queue:
                # With a failed server or faults still pending,
                # capacity may yet return; the end-of-run unfinished
                # check is the backstop against a silent hang.
                raise SimulationError(
                    f"strategy {self.strategy.name} rejects job "
                    f"{queue[0].job.job_id} on an idle cluster; it can "
                    f"never be placed"
                )
            # Head blocked: optionally backfill a bounded window of
            # later jobs (EASY-style; placing them cannot unblock the
            # head, so one pass suffices).
            window = self.config.backfill_window
            index = 1
            scanned = 0
            while window > 0 and index < len(queue) and scanned < window:
                if self._place(queue[index], now):
                    del queue[index]
                    if self.enabled:
                        self.c_backfilled.inc()
                else:
                    index += 1
                scanned += 1
            break
        self.max_queue_length = max(self.max_queue_length, len(queue))
        if self.enabled:
            self.g_queue.set(len(queue))

    def _place(self, tracker: _JobTracker, now: float) -> bool:
        """Attempt to place one queued job; True when it was placed."""
        vms = tracker.vms
        descriptors = _descriptors(vms, now)
        if not self.enabled:
            placement = self.strategy.place(descriptors, self.cluster.views())
            if placement is None:
                return False
            self._commit(vms, placement, now)
            return True
        self.c_attempts.inc()
        # Real wall latency of strategy.place() for the obs histogram
        # only; simulated time (`now`) never sees it.
        # repro: allow determinism-wallclock -- obs-only measurement
        wall0 = time.perf_counter()
        placement = self.strategy.place(descriptors, self.cluster.views())
        self.h_place.observe(time.perf_counter() - wall0)  # repro: allow determinism-wallclock -- obs-only
        if placement is None:
            self.c_rejected.inc()
            return False
        submit = tracker.job.submit_time_s
        self.c_placed.inc()
        self.c_vms.inc(len(vms))
        self.h_wait.observe(now - submit)
        if self.tracer.enabled:
            self.tracer.point(
                "sim.place",
                t_sim=now,
                job_id=tracker.job.job_id,
                n_vms=len(vms),
                wait_s=now - submit,
                servers=sorted(set(placement.values())),
            )
        self._commit(vms, placement, now)
        return True

    def _replace(self, now: float) -> None:
        """Re-place evicted VM groups FIFO; stop at the first the
        strategy cannot host (retried at the next state change)."""
        realloc_queue = self.realloc_queue
        while realloc_queue:
            tracker, group = realloc_queue[0]
            placement = self.strategy.reallocate(
                _descriptors(group, now), self.cluster.views()
            )
            if placement is None:
                break
            realloc_queue.popleft()
            if self.enabled:
                self.registry.counter(FAULTS_REALLOCATIONS, **self.label).inc(len(group))
                if self.tracer.enabled:
                    self.tracer.point(
                        "sim.fault.replace",
                        t_sim=now,
                        job_id=tracker.job.job_id,
                        n_vms=len(group),
                        servers=sorted(set(placement.values())),
                    )
            self._commit(group, placement, now, replace=True)

    def _commit(self, vms, placement, now: float, replace: bool = False) -> None:
        """Enact a placement: sync each target server, add the VM,
        reschedule the touched servers, then complete whatever the
        syncs surfaced."""
        missing = {vm.vm_id for vm in vms} - set(placement)
        if missing:
            raise SimulationError(
                f"strategy {self.strategy.name} returned a partial "
                f"{'re-placement' if replace else 'placement'} (missing {sorted(missing)})"
            )
        servers = self.servers
        touched: set[int] = set()
        finished: list[SimVM] = []
        for vm in vms:
            index = self.server_index[placement[vm.vm_id]]
            server = servers[index]
            # A sync at placement time can surface VMs that complete
            # exactly now; they must not be dropped.
            finished.extend(server.sync(now))
            server.add_vm(vm, now)
            touched.add(index)
            if replace and server.chronicle is not None:
                server.chronicle.note(now, "replace", vm.vm_id)
        for index in touched:
            self.schedule_boundary(index, now)
        if finished:
            self._complete_vms(finished, now)

    def _completion(self, finished: list[SimVM], now: float) -> None:
        self._complete_vms(finished, now)
        if self.rebalancer is not None:
            self._rebalance(now)
        self._settle(now)

    def _complete_vms(self, finished: list[SimVM], now: float) -> None:
        for vm in finished:
            vm.finish(now)
            tracker = self.vm_to_tracker[vm.vm_id]
            tracker.unfinished -= 1
            if tracker.unfinished:
                continue
            job = tracker.job
            self.outcomes.append(
                JobOutcome(
                    job_id=job.job_id,
                    workload_class=job.workload_class.value,
                    n_vms=job.n_vms,
                    submit_time_s=job.submit_time_s,
                    completion_time_s=now,
                    deadline_s=vm.deadline_s,
                )
            )
            if self.enabled:
                self.c_completed.inc()
                self.h_response.observe(now - job.submit_time_s)
                span = self.job_spans.pop(job.job_id, None)
                if span is not None:
                    span.end(t_sim=now, missed_deadline=now > vm.deadline_s)

    def _rebalance(self, now: float) -> None:
        touched_ids, done_vms = self.rebalancer.maybe_rebalance(self.servers, now)
        if done_vms:
            self._complete_vms(done_vms, now)
        for server_id in touched_ids:
            # Migration syncs the server itself; only the boundary
            # prediction needs refreshing.
            self.schedule_boundary(self.server_index[server_id], now)

    # -- faults --------------------------------------------------------------

    def _fault(self, entry: ScheduledFault, now: float) -> None:
        self.faults_remaining -= 1
        target = entry.vm if entry.vm is not None else self.servers[entry.server].server_id
        handler = _FAULT_HANDLERS[entry.action]
        detail, vm_ids, lost_work_s = handler(self, entry, now)
        self.fault_log.append(
            FaultRecord(
                time_s=now,
                kind=entry.action.value,
                target=target,
                vm_ids=vm_ids,
                lost_work_s=lost_work_s,
                applied=not detail,
                detail=detail,
            )
        )
        if self.enabled and not detail:
            self.registry.counter(FAULTS_INJECTED, **self.label).inc()
            if self.tracer.enabled:
                self.tracer.point(
                    "sim.fault",
                    t_sim=now,
                    action=entry.action.value,
                    target=target,
                    n_evicted=len(vm_ids),
                )
        self._settle(now)

    def _resync(self, index: int, finished: list[SimVM], now: float) -> None:
        """Refresh a mutated server's boundary, then complete the VMs
        its pre-mutation sync surfaced."""
        self.schedule_boundary(index, now)
        if finished:
            self._complete_vms(finished, now)

    def _crash(self, entry: ScheduledFault, now: float) -> tuple:
        server = self.servers[entry.server]
        if server.failed:
            return "already failed", (), 0.0
        finished = server.sync(now)
        evicted = server.fail(now)
        self.boundary_tokens[entry.server] += 1
        if finished:
            self._complete_vms(finished, now)
        lost_total = 0.0
        groups: dict[int, list[SimVM]] = {}
        for vm in evicted:
            fresh, lost = self._respawn(vm)
            lost_total += lost
            groups.setdefault(vm.job_id, []).append(fresh)
        for group in groups.values():
            self.realloc_queue.append((self.vm_to_tracker[group[0].vm_id], group))
        if server.chronicle is not None:
            server.chronicle.note(now, "crash", f"evicted={len(evicted)}")
        return "", tuple(vm.vm_id for vm in evicted), lost_total

    def _recover(self, entry: ScheduledFault, now: float) -> tuple:
        server = self.servers[entry.server]
        if not server.failed:
            return "not failed", (), 0.0
        server.recover(now)
        if server.chronicle is not None:
            server.chronicle.note(now, "recover")
        return "", (), 0.0

    def _slowdown_start(self, entry: ScheduledFault, now: float) -> tuple:
        return self._set_slowdown(entry, now, entry.factor, "slowdown", f"factor={entry.factor}")

    def _slowdown_end(self, entry: ScheduledFault, now: float) -> tuple:
        # A crash reset the factor, so the paired end of a slowdown on a
        # failed server is moot.
        return self._set_slowdown(entry, now, 1.0, "slowdown_end", "")

    def _set_slowdown(self, entry, now: float, factor: float, note: str, detail: str) -> tuple:
        server = self.servers[entry.server]
        if server.failed:
            return "server failed", (), 0.0
        finished = server.sync(now)
        server.set_slowdown(factor, now)
        self._resync(entry.server, finished, now)
        if server.chronicle is not None:
            server.chronicle.note(now, note, detail)
        return "", (), 0.0

    def _abort(self, entry: ScheduledFault, now: float) -> tuple:
        tracker = self.vm_to_tracker.get(entry.vm)
        vms = tracker.vms if tracker is not None else ()
        victim = next((vm for vm in vms if vm.vm_id == entry.vm), None)
        if victim is None:
            return "unknown VM", (), 0.0
        if victim.state is not VMState.RUNNING:
            return f"VM is {victim.state.value}", (), 0.0
        index = self.server_index[victim.server_id]
        server = self.servers[index]
        finished = server.sync(now)
        if victim.done:
            self._resync(index, finished, now)
            return "completed at abort time", (), 0.0
        server.detach_vm(victim, now)
        self.boundary_tokens[index] += 1
        self._resync(index, finished, now)
        fresh, lost = self._respawn(victim)
        self.realloc_queue.append((tracker, [fresh]))
        if server.chronicle is not None:
            server.chronicle.note(now, "abort", victim.vm_id)
        return "", (victim.vm_id,), lost

    def _respawn(self, vm: SimVM) -> tuple[SimVM, float]:
        """Fresh restart of an evicted/aborted VM.

        A crash loses the VM's progress; the replacement keeps the
        identity (vm_id, deadline) so QoS accounting and chronicle
        audits see one logical VM, restarted.  Returns the fresh VM
        and the discarded seconds-of-solo-work.
        """
        assert vm.benchmark is not None
        total = vm.benchmark.serial_time_s + vm.benchmark.work_time_s
        lost = total - sum(vm.remaining)
        fresh = SimVM(
            vm_id=vm.vm_id,
            job_id=vm.job_id,
            workload_class=vm.workload_class,
            submit_time_s=vm.submit_time_s,
            deadline_s=vm.deadline_s,
            benchmark=vm.benchmark,
        )
        vms = self.vm_to_tracker[vm.vm_id].vms
        vms[list(map(id, vms)).index(id(vm))] = fresh  # by identity
        return fresh, lost

    # -- result assembly ---------------------------------------------------

    def _finish(self) -> None:
        """Check every job finished, integrate every server up to the
        last completion, flush the spill and end-of-run telemetry."""
        trackers = self.trackers
        if self.queue or self.realloc_queue or any(t.unfinished for t in trackers):
            stuck = [t.job.job_id for t in trackers if t.unfinished]
            raise SimulationError(f"simulation ended with unfinished jobs: {stuck[:10]}")
        end_time = max((o.completion_time_s for o in self.outcomes), default=0.0)
        for server in self.servers:
            # A fault handled after the last completion may have synced
            # its server past end_time; never rewind.
            server.sync(max(end_time, server.last_sync_s))
        if self.spill is not None:
            self.spill.close()
        if self.enabled:
            registry, label = self.registry, self.label
            memos = self.mix_memos.values()
            self.g_queue.set(0)
            self.g_powered.set(self.cluster.powered_count())
            registry.gauge("sim.max_queue_length", **label).set(self.max_queue_length)
            registry.counter("sim.mix_memo_misses", **label).inc(sum(m.misses for m in memos))
            registry.counter("sim.mix_memo_clears", **label).inc(sum(m.clears for m in memos))
        self.run_span.end(
            t_sim=end_time,
            n_outcomes=len(self.outcomes),
            max_queue_length=self.max_queue_length,
        )

    def result(self) -> SimulationResult:
        self._finish()
        servers = self.servers
        signals = self.config.signals is not None
        busy = tuple(s.energy().busy_j for s in servers)
        idle = tuple(s.energy().idle_j for s in servers)
        carbon = tuple(s.carbon_g() for s in servers) if signals else ()
        cost = tuple(s.cost() for s in servers) if signals else ()
        if signals and self.enabled:
            self.registry.counter("carbon.grams", **self.label).inc(sum(carbon))
            self.registry.counter("cost.currency", **self.label).inc(sum(cost))
        metrics = compute_metrics(
            self.outcomes,
            energy_busy_j=sum(busy),
            energy_idle_j=sum(idle),
            max_queue_length=self.max_queue_length,
            carbon_g=sum(carbon, 0.0),
            cost=sum(cost, 0.0),
        )
        return SimulationResult(
            strategy_name=self.strategy.name,
            metrics=metrics,
            outcomes=tuple(self.outcomes),
            per_server_busy_j=busy,
            per_server_idle_j=idle,
            n_servers=len(servers),
            chronicles=tuple(s.chronicle for s in servers) if self.config.record_chronicles else (),
            fault_log=tuple(self.fault_log),
            per_server_carbon_g=carbon,
            per_server_cost=cost,
        )


_FAULT_HANDLERS = {
    FaultAction.CRASH: _Run._crash,
    FaultAction.RECOVER: _Run._recover,
    FaultAction.SLOWDOWN_START: _Run._slowdown_start,
    FaultAction.SLOWDOWN_END: _Run._slowdown_end,
    FaultAction.ABORT_VM: _Run._abort,
}

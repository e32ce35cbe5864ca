"""Per-server runtime state for the datacenter simulation.

A :class:`ServerRuntime` integrates VM progress and energy between mix
changes.  Between two consecutive mix changes (VM arrival, VM finish,
or an init-to-work stage transition) every VM's slowdown and the
server's power draw are constant, so the simulation only needs to
re-evaluate the contention model at those boundaries -- this is the
event-driven equivalent of the paper's interval-weighted accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import TYPE_CHECKING

from repro.campaign.records import MixKey
from repro.common.errors import SimulationError
from repro.sim.vm import SimVM, VMState
from repro.testbed.contention import ContentionParams, MixKind, MixModel
from repro.testbed.power import instantaneous_power
from repro.testbed.spec import SUBSYSTEMS, ServerSpec
from repro.testbed.benchmarks import WorkloadClass

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.chronicle import ChronicleSpill
    from repro.sim.index import ClusterIndex

_EPSILON_S = 1e-9

#: Mix-physics memo entries per memo before it is wholesale cleared.
#: Clearing only costs recomputation; results are unaffected.  The cap
#: holds the whole working set of a 10k-VM campaign (~9k distinct mix
#: sequences) but not of a 100k-VM one (~39k), which clears once and
#: re-misses; raising it to ``1 << 17`` costs that campaign about 17%
#: more peak RSS for a few percent of wall time.
_MIX_CACHE_MAX = 32768


class MixMemo:
    """Bit-exact memo of mix physics, shareable between servers.

    One memo serves servers with identical ``(spec, params)``.  It
    holds

    * ``kinds`` -- the kind table: one :class:`MixKind` per
      ``(id(benchmark), in init phase)``, built on first sight.  Each
      kind pins its view, hence its benchmark, so no id can be recycled
      onto another spec while the memo lives;
    * ``entries`` -- ``(slowdowns, power)`` per ordered tuple of kinds,
      the exact floats the model produced on first sight of that
      sequence.  The key is the *sequence*, not the multiset: the
      model sums demands in VM-list order and float addition is
      order-sensitive, so only an order-exact key keeps the results
      equal to the naive reference.  Slowdowns are raw -- callers apply
      the transient-fault factor, which varies independently of the
      mix.

    ``misses`` and ``clears`` count first sightings of a sequence and
    wholesale clears at ``_MIX_CACHE_MAX``; both are deterministic per
    run.  A memo built with ``solves=False`` (the naive reference's)
    tracks sequences without solving them -- its entries are empty
    tuples -- so both cores report the same counters while the naive
    one still recomputes every step from fresh views.
    """

    __slots__ = ("kinds", "entries", "misses", "clears", "solves")

    def __init__(self, solves: bool = True) -> None:
        self.kinds: dict[tuple[int, bool], MixKind] = {}
        self.entries: dict[tuple[MixKind, ...], tuple] = {}
        self.misses = 0
        self.clears = 0
        self.solves = solves

    def kind(self, vm: SimVM) -> MixKind:
        key = (id(vm.benchmark), vm.stage == 0)
        kind = self.kinds.get(key)
        if kind is None:
            kind = self.kinds[key] = MixKind(vm.active_view())
        return kind

    def physics(self, key: tuple[MixKind, ...], model: MixModel) -> tuple:
        """``(slowdowns, power)`` of the mix with these kinds (in VM
        order) under ``model``; ``()`` when the memo does not solve."""
        entry = self.entries.get(key)
        if entry is None:
            entry = ()
            if self.solves:
                slowdowns, loads = model.kind_physics(key)
                power = instantaneous_power(loads, len(key), model.server.power)
                entry = (tuple(slowdowns), power)
            if len(self.entries) >= _MIX_CACHE_MAX:
                self.entries.clear()
                self.clears += 1
            self.entries[key] = entry
            self.misses += 1
        return entry


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy accounting of one server over the simulation."""

    busy_j: float
    idle_j: float

    @property
    def total_j(self) -> float:
        return self.busy_j + self.idle_j


class ServerRuntime:
    """One powered server hosting VMs under the contention model.

    Lifecycle contract with the datacenter driver:

    * ``sync(now)`` MUST be called before any mutation (add/remove) so
      progress and energy are integrated up to ``now`` under the
      pre-change mix;
    * after mutations, ``next_boundary(now)`` tells the driver when the
      server next needs attention (stage transition or VM completion);
    * ``epoch`` increments on every mix change, letting the driver
      lazily invalidate stale scheduled events.

    Every state mutation that a placement snapshot can see -- hosting
    or unhosting a VM, a power transition, a crash or recovery -- runs
    through the ``_host``/``_unhost``/``_set_power`` helpers below,
    which notify the bound :class:`~repro.sim.index.ClusterIndex`.
    Funneling the notifications here (rather than at the driver's call
    sites) is what keeps the incremental indexes drift-free: there is
    no second code path that could forget to update a counter.
    """

    def __init__(
        self,
        server_id: str,
        spec: ServerSpec,
        params: ContentionParams | None = None,
        power_off_when_empty: bool = True,
        record_chronicle: bool = False,
        chronicle_capacity: int | None = None,
        chronicle_spill: "ChronicleSpill | None" = None,
        mix_cache: "MixMemo | bool" = True,
        signals: object | None = None,
    ):
        self.server_id = server_id
        self.spec = spec
        self._model = MixModel(spec, params)
        self._vms: list[SimVM] = []
        # The memo kind of each hosted VM, in VM order: the ordered
        # memo key, kept in step by _host/_unhost and stage transitions.
        self._kinds: list[MixKind] = []
        self._ncpu = 0
        self._nmem = 0
        self._nio = 0
        self._last_sync_s = 0.0
        self._busy_energy_j = 0.0
        self._idle_energy_j = 0.0
        # Temporal carbon/price signals (duck-typed: fused accrue per
        # repro.ext.carbon.signal.TemporalSignals; sim must not
        # import ext).  None keeps the accounting entirely absent, so
        # signal-free runs touch no extra floats.
        self._signals = signals
        self._carbon_g = 0.0
        self._cost = 0.0
        self._power_off_when_empty = power_off_when_empty
        self._powered_since_s: float | None = None  # None = off
        self.epoch = 0
        #: Crashed servers host nothing and draw nothing until recovery
        #: (see repro.faults); all mutations except recover() reject.
        self.failed = False
        self._slowdown_factor = 1.0
        self._cluster: "ClusterIndex | None" = None
        self._slot = -1
        # Mix-physics memo (see _mix_physics).  True = private memo;
        # a MixMemo may be shared between servers with identical
        # (spec, params); False = recompute every step (the faithful
        # pre-index reference used by DatacenterConfig(indexed=False)),
        # as does a shared MixMemo(solves=False).
        if isinstance(mix_cache, MixMemo):
            self._mix_memo = mix_cache
        else:
            self._mix_memo = MixMemo(solves=mix_cache)
        # The memo entry of the current mix; None after any change to
        # the VM sequence or to a VM's stage (see _mix_physics).
        self._physics: "tuple[tuple[float, ...], float] | None" = None
        if record_chronicle:
            from repro.sim.chronicle import Chronicle

            self.chronicle: "Chronicle | None" = Chronicle(
                server_id,
                capacity=chronicle_capacity,
                spill=chronicle_spill,
                signals=signals,
            )
        else:
            self.chronicle = None

    def bind_index(self, cluster: "ClusterIndex", slot: int) -> None:
        """Attach this server to the datacenter's incremental index.

        Folds the current state into the counters, so binding is exact
        regardless of when it happens; afterwards every mutation
        helper notifies ``cluster`` with this server's ``slot``.
        """
        self._cluster = cluster
        self._slot = slot
        cluster.adopt(slot, powered=self.powered_on, n_vms=len(self._vms), failed=self.failed)

    # -- index-notifying mutation helpers ------------------------------

    def _host(self, vm: SimVM) -> None:
        self._vms.append(vm)
        self._kinds.append(self._mix_memo.kind(vm))
        self._physics = None
        cls = vm.workload_class
        if cls is WorkloadClass.CPU:
            self._ncpu += 1
        elif cls is WorkloadClass.MEM:
            self._nmem += 1
        else:
            self._nio += 1
        if self._cluster is not None:
            self._cluster.on_host(self._slot)

    def _unhost(self, vm: SimVM) -> None:
        # By identity: field-equal VMs are distinct tenants.  ValueError
        # propagates to the caller.
        i = list(map(id, self._vms)).index(id(vm))
        del self._vms[i]
        del self._kinds[i]
        self._physics = None
        cls = vm.workload_class
        if cls is WorkloadClass.CPU:
            self._ncpu -= 1
        elif cls is WorkloadClass.MEM:
            self._nmem -= 1
        else:
            self._nio -= 1
        if self._cluster is not None:
            self._cluster.on_unhost(self._slot)

    def _set_power(self, since_s: float | None) -> None:
        was_on = self._powered_since_s is not None
        self._powered_since_s = since_s
        now_on = since_s is not None
        if now_on != was_on and self._cluster is not None:
            self._cluster.on_power(self._slot, now_on)

    # -- views ---------------------------------------------------------

    @property
    def vms(self) -> tuple[SimVM, ...]:
        return tuple(self._vms)

    @property
    def n_vms(self) -> int:
        return len(self._vms)

    @property
    def powered_on(self) -> bool:
        return self._powered_since_s is not None

    @property
    def slowdown_factor(self) -> float:
        """Transient-fault progress multiplier (1.0 = nominal speed)."""
        return self._slowdown_factor

    @property
    def last_sync_s(self) -> float:
        """Sim time up to which progress/energy are integrated."""
        return self._last_sync_s

    def mix_key(self) -> MixKey:
        """Current (Ncpu, Nmem, Nio) counts, maintained incrementally
        by ``_host``/``_unhost`` (O(1), not a VM-list scan)."""
        return (self._ncpu, self._nmem, self._nio)

    def energy(self) -> EnergyBreakdown:
        return EnergyBreakdown(busy_j=self._busy_energy_j, idle_j=self._idle_energy_j)

    def carbon_g(self) -> float:
        """Time-integrated carbon mass (gCO2); 0.0 without signals."""
        return self._carbon_g

    def cost(self) -> float:
        """Time-integrated energy cost; 0.0 without signals."""
        return self._cost

    def current_power_w(self) -> float:
        """Instantaneous draw under the current mix (0 when off)."""
        if not self.powered_on:
            return 0.0
        return self._mix_physics()[1]

    def _mix_physics(self) -> tuple:
        """(slowdowns, power) for the current mix, memoized bit-exactly.

        The contention model is a pure function of the per-VM active
        views, and a view is determined by ``(benchmark, stage
        bucket)`` -- there are only a handful of distinct view kinds,
        so mix sequences repeat heavily across integration steps and,
        under a shared :class:`MixMemo`, across servers.  A hit returns
        the exact floats the model produced on first sight of that
        sequence, so memoization cannot perturb results.  The server
        also keeps the entry of its current mix until ``_host``,
        ``_unhost`` or a stage transition in :meth:`sync` drops it, so
        steps that do not change the mix skip even the memo lookup.
        """
        memo = self._mix_memo
        physics = self._physics
        if physics is None:
            physics = self._physics = memo.physics(tuple(self._kinds), self._model)
        if memo.solves:
            return physics
        views = [vm.active_view() for vm in self._vms]
        slowdowns = self._model.slowdowns(views)
        loads = self._model.subsystem_loads(views)
        return slowdowns, instantaneous_power(loads, len(views), self.spec.power)

    # -- integration -----------------------------------------------------

    def sync(self, now_s: float) -> list[SimVM]:
        """Integrate progress/energy up to ``now_s``.

        Correct for arbitrary jumps: the integration steps through
        every internal stage boundary (init-to-work transitions and VM
        completions change the mix, hence everyone's rates), re-solving
        the contention model at each.  When the driver syncs exactly at
        predicted boundaries this loop runs a single step.

        Returns the VMs that completed within the interval; their
        ``done`` flag is set, but lifecycle completion
        (:meth:`SimVM.finish`) is the caller's job.
        """
        if now_s < self._last_sync_s - 1e-9:
            raise SimulationError(
                f"server {self.server_id}: sync to {now_s} before {self._last_sync_s}"
            )
        finished: list[SimVM] = []
        t = self._last_sync_s
        while now_s - t > _EPSILON_S:
            if not self._vms:
                if self.powered_on:
                    if self._power_off_when_empty:
                        self._set_power(None)
                    else:
                        idle_power = self._idle_power_w()
                        self._idle_energy_j += idle_power * (now_s - t)
                        if self._signals is not None:
                            carbon, cost = self._signals.accrue(idle_power, t, now_s)
                            self._carbon_g += carbon
                            self._cost += cost
                        if self.chronicle is not None:
                            self.chronicle.record(t, now_s, (0, 0, 0), idle_power, ())
                t = now_s
                break
            vms = self._vms
            slowdowns, power = self._mix_physics()
            # Multiplying by the transient-fault factor is exact when it
            # is 1.0, so the unfaulted path skips the product.
            factor = self._slowdown_factor
            if factor != 1.0:  # repro: allow float-equality -- x * 1.0 == x exactly
                slowdowns = [s * factor for s in slowdowns]
            next_boundary = min(
                [vm.remaining[vm.stage] * s for vm, s in zip(vms, slowdowns)]
            )
            step = min(now_s - t, max(next_boundary, _EPSILON_S))
            self._busy_energy_j += power * step
            if self._signals is not None:
                carbon, cost = self._signals.accrue(power, t, t + step)
                self._carbon_g += carbon
                self._cost += cost
            if self.chronicle is not None:
                self.chronicle.record(
                    t, t + step, self.mix_key(), power, [vm.vm_id for vm in vms]
                )
            # SimVM.advance, inlined: the same arithmetic and guard.
            any_done = False
            for i, slowdown in enumerate(slowdowns):
                vm = vms[i]
                stage = vm.stage
                if stage >= 2:
                    raise SimulationError(f"advancing finished VM {vm.vm_id}")
                remaining = vm.remaining
                remaining[stage] -= step / slowdown
                if remaining[stage] <= _EPSILON_S:
                    remaining[stage] = 0.0
                    stage += 1
                    while stage < 2 and remaining[stage] <= 0.0:
                        stage += 1
                    vm.stage = stage
                    self._physics = None
                    if stage >= 2:
                        any_done = True
                    else:
                        self._kinds[i] = self._mix_memo.kind(vm)
            if any_done:
                for vm in list(vms):
                    if vm.done:
                        finished.append(vm)
                        self._unhost(vm)
            t += step
        if finished:
            # The mix changed: outstanding boundary predictions are stale.
            self.epoch += 1
        if not self._vms and self._power_off_when_empty and self.powered_on:
            self._set_power(None)
        self._last_sync_s = now_s
        return finished

    def _idle_power_w(self) -> float:
        idle_loads = {s: 0.0 for s in SUBSYSTEMS}
        return instantaneous_power(idle_loads, 0, self.spec.power)

    def add_vm(self, vm: SimVM, now_s: float) -> None:
        """Place a VM; caller must have synced to ``now_s`` first."""
        if abs(now_s - self._last_sync_s) > 1e-6:
            raise SimulationError(
                f"server {self.server_id}: add_vm at {now_s} without sync "
                f"(last sync {self._last_sync_s})"
            )
        if self.failed:
            raise SimulationError(
                f"server {self.server_id}: cannot place VM on a failed server"
            )
        if not self.powered_on:
            self._set_power(now_s)
        vm.place(self.server_id, now_s)
        self._host(vm)
        self.epoch += 1

    def attach_vm(self, vm: SimVM, now_s: float) -> None:
        """Attach an already-running VM (migration arrival).

        Unlike :meth:`add_vm` this does not run the PENDING->RUNNING
        lifecycle transition; the VM keeps its progress state.  Caller
        must have synced to ``now_s`` first.
        """
        if abs(now_s - self._last_sync_s) > 1e-6:
            raise SimulationError(
                f"server {self.server_id}: attach_vm at {now_s} without sync"
            )
        if self.failed:
            raise SimulationError(
                f"server {self.server_id}: cannot attach VM to a failed server"
            )
        if vm.done:
            raise SimulationError(f"cannot attach finished VM {vm.vm_id!r}")
        if not self.powered_on:
            self._set_power(now_s)
        vm.server_id = self.server_id
        self._host(vm)
        self.epoch += 1

    def detach_vm(self, vm: SimVM, now_s: float) -> SimVM:
        """Remove a running VM without completing it (for migration).

        Caller must have synced to ``now_s`` first; the VM keeps its
        remaining-work state and can be re-attached to another server
        via :func:`repro.ext.migration.controller.attach_migrated`.
        """
        if abs(now_s - self._last_sync_s) > 1e-6:
            raise SimulationError(
                f"server {self.server_id}: detach_vm at {now_s} without sync"
            )
        try:
            self._unhost(vm)
        except ValueError:
            raise SimulationError(
                f"server {self.server_id}: VM {vm.vm_id!r} is not hosted here"
            ) from None
        self.epoch += 1
        if not self._vms and self._power_off_when_empty:
            self._set_power(None)
        return vm

    def next_boundary(self, now_s: float) -> float | None:
        """Earliest future time a VM completes its current stage.

        None when the server is idle.  Stage *transitions* (init to
        work) are boundaries too: they change the mix's demand vector,
        hence every co-tenant's rate.
        """
        if not self._vms:
            return None
        slowdowns = self._mix_physics()[0]
        factor = self._slowdown_factor
        earliest = min(
            [vm.remaining[vm.stage] * s * factor for vm, s in zip(self._vms, slowdowns)]
        )
        return now_s + max(earliest, _EPSILON_S)

    # -- power management -------------------------------------------------

    def power_on(self, now_s: float) -> None:
        """Explicitly power the server on (for always-on policies)."""
        self.sync(now_s)
        if not self.powered_on:
            self._set_power(now_s)

    def force_power_off(self, now_s: float) -> None:
        """Power off an idle server (error if VMs are running)."""
        self.sync(now_s)
        if self._vms:
            raise SimulationError(
                f"server {self.server_id}: cannot power off with {len(self._vms)} VMs"
            )
        self._set_power(None)

    # -- fault injection --------------------------------------------------

    def fail(self, now_s: float) -> list[SimVM]:
        """Crash the server, evicting its unfinished VMs.

        Caller must have synced to ``now_s`` first (so finished VMs
        were already harvested through :meth:`sync` and progress is
        integrated up to the crash instant).  Returns the evicted VMs
        with their progress state intact; the datacenter driver turns
        them into fresh re-allocation requests.
        """
        if abs(now_s - self._last_sync_s) > 1e-6:
            raise SimulationError(
                f"server {self.server_id}: fail at {now_s} without sync"
            )
        if self.failed:
            raise SimulationError(f"server {self.server_id}: already failed")
        evicted = [vm for vm in self._vms if not vm.done]
        for vm in list(self._vms):
            self._unhost(vm)
        self.epoch += 1
        self._set_power(None)
        self._slowdown_factor = 1.0
        self.failed = True
        if self._cluster is not None:
            self._cluster.on_failure(self._slot, True)
        return evicted

    def recover(self, now_s: float) -> None:
        """Return a crashed server to service (still powered off)."""
        if not self.failed:
            raise SimulationError(
                f"server {self.server_id}: recover without a prior crash"
            )
        self.sync(now_s)
        self.failed = False
        if self._cluster is not None:
            self._cluster.on_failure(self._slot, False)

    def set_slowdown(self, factor: float, now_s: float) -> None:
        """Begin a transient slowdown; caller must have synced first."""
        if factor < 1.0:
            raise SimulationError(
                f"server {self.server_id}: slowdown factor must be >= 1, got {factor}"
            )
        if abs(now_s - self._last_sync_s) > 1e-6:
            raise SimulationError(
                f"server {self.server_id}: set_slowdown at {now_s} without sync"
            )
        self._slowdown_factor = factor
        self.epoch += 1

    def clear_slowdown(self, now_s: float) -> None:
        """End a transient slowdown; caller must have synced first."""
        if abs(now_s - self._last_sync_s) > 1e-6:
            raise SimulationError(
                f"server {self.server_id}: clear_slowdown at {now_s} without sync"
            )
        self._slowdown_factor = 1.0
        self.epoch += 1

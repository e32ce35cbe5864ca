"""Multi-resource contention model for co-located VMs.

This module is the heart of the testbed emulator.  Given the set of VMs
active on one server (each in a particular execution phase), it
computes

* the per-subsystem load factors ``rho_s = sum_i d_{i,s} / C_s``,
* the per-VM execution slowdown, and
* the aggregate RAM occupancy (for the thrashing penalty).

The slowdown of VM *i* under mix *m* is::

    slowdown_i(m) = bottleneck_i(m) * interference_i(m) * thrash(m) * virt(n)

with

``bottleneck_i``
    a demand-weighted blend of per-subsystem stretches,
    ``sum_s w_{i,s} * max(1, rho_s)`` with ``w_{i,s}`` the fraction of
    VM *i*'s total demand directed at subsystem *s* -- when a
    subsystem is oversubscribed its demanders get their fair share and
    stretch proportionally, weighted by how much of their time they
    actually spend on it (a CPU-bound code with a 2 % disk demand
    barely notices a saturated disk);

``interference_i``
    pairwise cache/scheduler interference: co-tenants of the *same*
    workload class hurt more than complementary classes (the
    "compatibility" effect the application-centric allocator exploits);

``thrash``
    a superlinear penalty once the summed resident sets of active VMs
    exceed the guest-usable RAM -- this is what makes the average
    execution time blow up past ~11 FFTW VMs in Fig. 2;

``virt(n)``
    per-co-tenant virtualization (hypervisor scheduling) overhead.

All coefficients live in :class:`ContentionParams` and are exercised by
the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.common.errors import ConfigurationError
from repro.testbed.benchmarks import WORKLOAD_CLASSES, BenchmarkSpec, WorkloadClass
from repro.testbed.spec import SUBSYSTEMS, ServerSpec, Subsystem


@dataclass(frozen=True)
class ContentionParams:
    """Tunable coefficients of the contention model.

    Defaults are calibrated so the emulator reproduces the qualitative
    response surface reported by the paper (see
    ``tests/testbed/test_fig2_shape.py``): FFTW's average execution
    time per VM is minimized around 9 co-located VMs and degrades to
    worse-than-sequential past 11.
    """

    #: Fractional slowdown added per additional co-tenant by the
    #: hypervisor (Xen credit-scheduler overhead).
    virt_overhead_per_vm: float = 0.02
    #: Pairwise interference added per same-class co-tenant.
    same_class_interference: float = 0.006
    #: Pairwise interference added per different-class co-tenant.
    cross_class_interference: float = 0.001
    #: Multiplier of the thrashing penalty term.
    thrash_coeff: float = 1.2
    #: Exponent of the thrashing penalty term.
    thrash_exponent: float = 1.2

    def __post_init__(self) -> None:
        for name in (
            "virt_overhead_per_vm",
            "same_class_interference",
            "cross_class_interference",
            "thrash_coeff",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.thrash_exponent < 1.0:
            raise ConfigurationError(
                f"thrash_exponent must be >= 1 (superlinear), got {self.thrash_exponent}"
            )


@dataclass(frozen=True)
class ActiveVM:
    """One VM participating in a mix, in a specific execution phase.

    ``demand_scale`` is 1.0 in the work phase and
    ``benchmark.init_demand_scale`` in the initialization phase;
    ``contended`` is False during initialization (progress there is
    dominated by serial setup, not by shared-resource throughput).
    """

    benchmark: BenchmarkSpec
    demand_scale: float = 1.0
    contended: bool = True

    def demand(self, subsystem: Subsystem) -> float:
        return self.benchmark.demand(subsystem) * self.demand_scale


class MixKind:
    """The per-VM constants of one view kind, computed once.

    Everything the model reads off a single :class:`ActiveVM` depends
    only on its ``(benchmark, demand_scale, contended)``: the demand
    vector (in ``SUBSYSTEMS`` order), the resident set, the workload
    class (as its index in ``WORKLOAD_CLASSES``) and the bottleneck
    weights ``demand_s / total_demand``.  Each value is produced by the
    exact expression the naive methods evaluate, so a mix solved from
    kinds (:meth:`MixModel.kind_physics`) adds and multiplies the same
    floats as one solved from views.

    ``view`` is the shared view the constants came from; holding it
    keeps the benchmark alive, so tables keyed by ``id(benchmark)``
    stay valid for as long as they hold the kind.  Kinds compare and
    hash by identity (no Python-level ``__eq__``/``__hash__``), which
    keeps tuples of kinds cheap to use as dictionary keys.
    """

    __slots__ = ("view", "demands", "ram_gb", "class_index", "contended", "weights")

    def __init__(self, view: ActiveVM):
        self.view = view
        self.demands = tuple(view.demand(s) for s in SUBSYSTEMS)
        self.ram_gb = view.benchmark.ram_gb
        #: Position of the workload class in ``WORKLOAD_CLASSES``.
        self.class_index = WORKLOAD_CLASSES.index(view.benchmark.workload_class)
        self.contended = view.contended
        total_demand = sum(self.demands)
        #: ``(subsystem index, weight)`` for every demanded subsystem;
        #: None when the view demands nothing (stretch 1.0).
        self.weights: tuple[tuple[int, float], ...] | None = (
            None
            if total_demand <= 0.0
            else tuple(
                (i, demand / total_demand)
                for i, demand in enumerate(self.demands)
                if demand > 0.0
            )
        )

    def stretch(self, loads: Sequence[float]) -> float:
        """:meth:`MixModel.bottleneck_factor` over loads in ``SUBSYSTEMS`` order."""
        if self.weights is None:
            return 1.0
        stretch = 0.0
        for i, weight in self.weights:
            stretch += weight * max(1.0, loads[i])
        return stretch


class MixModel:
    """Evaluates loads, slowdowns and power-relevant state for one mix.

    Instances are cheap and immutable; build one per (server, params)
    pair and query it with varying mixes.
    """

    def __init__(self, server: ServerSpec, params: ContentionParams | None = None):
        self._server = server
        self._params = params or ContentionParams()

    @property
    def server(self) -> ServerSpec:
        return self._server

    @property
    def params(self) -> ContentionParams:
        return self._params

    def subsystem_loads(self, mix: Sequence[ActiveVM]) -> Mapping[Subsystem, float]:
        """Per-subsystem load factors ``rho_s`` (can exceed 1.0)."""
        loads: dict[Subsystem, float] = {}
        for subsystem in SUBSYSTEMS:
            total = sum(vm.demand(subsystem) for vm in mix)
            loads[subsystem] = total / self._server.capacity(subsystem)
        return loads

    def ram_occupancy_gb(self, mix: Sequence[ActiveVM]) -> float:
        """Summed resident sets of the active VMs in GiB."""
        return sum(vm.benchmark.ram_gb for vm in mix)

    def thrash_factor(self, mix: Sequence[ActiveVM]) -> float:
        """Swap-thrashing multiplier, >= 1.0.

        1.0 while the mix fits in guest-usable RAM; grows
        superlinearly (coeff * excess_gb ** exponent) beyond it.
        """
        return self._thrash(self.ram_occupancy_gb(mix))

    def _thrash(self, ram_occupancy_gb: float) -> float:
        excess = ram_occupancy_gb - self._server.usable_ram_gb
        if excess <= 0.0:
            return 1.0
        return 1.0 + self._params.thrash_coeff * excess**self._params.thrash_exponent

    def virt_factor(self, mix: Sequence[ActiveVM]) -> float:
        """Hypervisor overhead multiplier for an ``n``-VM mix, >= 1.0."""
        return self._virt(len(mix))

    def _virt(self, n: int) -> float:
        if n <= 1:
            return 1.0
        return 1.0 + self._params.virt_overhead_per_vm * (n - 1)

    def _interference(self, same: int, cross: int) -> float:
        p = self._params
        return 1.0 + p.same_class_interference * same + p.cross_class_interference * cross

    def interference_factor(self, vm: ActiveVM, mix: Sequence[ActiveVM]) -> float:
        """Pairwise cache/scheduler interference multiplier for ``vm``.

        ``vm`` must be an element of ``mix`` (identity membership);
        the factor counts its co-tenants, weighting same-class ones by
        ``same_class_interference`` and others by
        ``cross_class_interference``.
        """
        same = 0
        cross = 0
        seen_self = False
        for other in mix:
            if other is vm and not seen_self:
                seen_self = True
                continue
            if other.benchmark.workload_class is vm.benchmark.workload_class:
                same += 1
            else:
                cross += 1
        if not seen_self:
            raise ValueError("vm must be a member of mix")
        return self._interference(same, cross)

    def bottleneck_factor(self, vm: ActiveVM, loads: Mapping[Subsystem, float]) -> float:
        """Demand-weighted stretch for ``vm`` under precomputed loads.

        ``sum_s w_s * max(1, rho_s)`` with ``w_s`` = share of the VM's
        total demand on subsystem ``s``; equals 1.0 when nothing the VM
        touches is saturated.
        """
        total_demand = sum(vm.demand(s) for s in SUBSYSTEMS)
        if total_demand <= 0.0:
            return 1.0
        stretch = 0.0
        for subsystem in SUBSYSTEMS:
            demand = vm.demand(subsystem)
            if demand > 0.0:
                stretch += (demand / total_demand) * max(1.0, loads[subsystem])
        return stretch

    def slowdown(self, vm: ActiveVM, mix: Sequence[ActiveVM]) -> float:
        """Execution slowdown of ``vm`` under ``mix`` (>= 1.0).

        Uncontended phases (``vm.contended`` False) only pay the
        hypervisor overhead; contended phases additionally pay
        bottleneck stretching, interference and thrashing.
        """
        virt = self.virt_factor(mix)
        if not vm.contended:
            return virt
        loads = self.subsystem_loads(mix)
        return (
            self.bottleneck_factor(vm, loads)
            * self.interference_factor(vm, mix)
            * self.thrash_factor(mix)
            * virt
        )

    def slowdowns(self, mix: Sequence[ActiveVM]) -> list[float]:
        """Slowdowns for every VM of the mix (shares the load computation)."""
        if not mix:
            return []
        virt = self.virt_factor(mix)
        loads = self.subsystem_loads(mix)
        thrash = self.thrash_factor(mix)
        result: list[float] = []
        # Count classes once; per-VM interference excludes the VM itself.
        class_counts: dict[WorkloadClass, int] = {}
        for vm in mix:
            cls = vm.benchmark.workload_class
            class_counts[cls] = class_counts.get(cls, 0) + 1
        n = len(mix)
        for vm in mix:
            if not vm.contended:
                result.append(virt)
                continue
            same = class_counts[vm.benchmark.workload_class] - 1
            interference = self._interference(same, n - 1 - same)
            result.append(self.bottleneck_factor(vm, loads) * interference * thrash * virt)
        return result

    def slowdowns_and_loads(
        self, mix: Sequence[ActiveVM]
    ) -> tuple[list[float], Mapping[Subsystem, float]]:
        """Slowdowns plus the loads they were derived from, bit-exactly.

        The fast sibling of calling :meth:`slowdowns` and
        :meth:`subsystem_loads` separately: the views are grouped into
        :class:`MixKind` s (one per distinct ``(benchmark,
        demand_scale, contended)``) and the mix is solved by
        :meth:`kind_physics`.
        """
        kinds: dict[tuple[int, float, bool], MixKind] = {}
        sequence = []
        for vm in mix:
            key = (id(vm.benchmark), vm.demand_scale, vm.contended)
            kind = kinds.get(key)
            if kind is None:
                kind = kinds[key] = MixKind(vm)
            sequence.append(kind)
        return self.kind_physics(sequence)

    def kind_physics(
        self, kinds: Sequence[MixKind]
    ) -> tuple[list[float], Mapping[Subsystem, float]]:
        """Slowdowns and loads of the mix whose VMs have these kinds.

        Equal to :meth:`slowdowns` and :meth:`subsystem_loads` of the
        kinds' views bit for bit: every sum adds the same addends in
        the same VM order through ``sum()``, and every product
        multiplies the same factors in the same order.  Only the
        per-VM work is shared -- each kind's demands and weights come
        precomputed, and its slowdown is evaluated once per mix and
        reused for its duplicates.  Asserted in
        ``tests/testbed/test_contention.py`` and
        ``tests/properties/test_physics_prop.py``.
        """
        if not kinds:
            return [], self.subsystem_loads(())
        server = self._server
        load_list = [
            sum(column) / server.capacity(subsystem)
            for subsystem, column in zip(SUBSYSTEMS, zip(*[k.demands for k in kinds]))
        ]
        n = len(kinds)
        virt = self._virt(n)
        thrash = self._thrash(sum([k.ram_gb for k in kinds]))
        class_counts = [0] * len(WORKLOAD_CLASSES)
        for kind in kinds:
            class_counts[kind.class_index] += 1
        result: list[float] = []
        kind_slowdowns: dict[MixKind, float] = {}
        for kind in kinds:
            if not kind.contended:
                result.append(virt)
                continue
            value = kind_slowdowns.get(kind)
            if value is None:
                same = class_counts[kind.class_index] - 1
                interference = self._interference(same, n - 1 - same)
                value = kind.stretch(load_list) * interference * thrash * virt
                kind_slowdowns[kind] = value
            result.append(value)
        return result, dict(zip(SUBSYSTEMS, load_list))

"""Unit tests for the per-server runtime."""

import dataclasses

import pytest

from repro.common.errors import SimulationError
from repro.sim.server import ServerRuntime
from repro.sim.vm import SimVM
from repro.testbed.benchmarks import WorkloadClass, canonical_benchmark
from repro.testbed.spec import default_server


def make_vm(vm_id="v0", workload_class=WorkloadClass.CPU):
    return SimVM(
        vm_id=vm_id,
        job_id=1,
        workload_class=workload_class,
        submit_time_s=0.0,
    )


@pytest.fixture
def server():
    return ServerRuntime("s0", default_server())


class TestPowerState:
    def test_starts_powered_off(self, server):
        assert not server.powered_on
        assert server.current_power_w() == 0.0

    def test_powers_on_with_first_vm(self, server):
        server.sync(0.0)
        server.add_vm(make_vm(), 0.0)
        assert server.powered_on
        assert server.current_power_w() > 125.0

    def test_powers_off_when_empty(self, server):
        server.sync(0.0)
        vm = make_vm()
        server.add_vm(vm, 0.0)
        finished = server.sync(10_000.0)
        assert finished == [vm]
        assert not server.powered_on

    def test_always_on_policy_accrues_idle_energy(self):
        server = ServerRuntime("s0", default_server(), power_off_when_empty=False)
        server.power_on(0.0)
        vm = make_vm()
        server.sync(0.0)
        server.add_vm(vm, 0.0)
        server.sync(10_000.0)
        energy = server.energy()
        assert energy.idle_j > 0.0  # idle after the VM completed
        assert energy.busy_j > 0.0

    def test_force_power_off_requires_empty(self, server):
        server.sync(0.0)
        server.add_vm(make_vm(), 0.0)
        with pytest.raises(SimulationError):
            server.force_power_off(1.0)


class TestMixKey:
    def test_counts_by_class(self, server):
        server.sync(0.0)
        server.add_vm(make_vm("c0", WorkloadClass.CPU), 0.0)
        server.add_vm(make_vm("m0", WorkloadClass.MEM), 0.0)
        server.add_vm(make_vm("i0", WorkloadClass.IO), 0.0)
        assert server.mix_key() == (1, 1, 1)

    def test_empty_mix(self, server):
        assert server.mix_key() == (0, 0, 0)


class TestSyncSemantics:
    def test_sync_backwards_rejected(self, server):
        server.sync(10.0)
        with pytest.raises(SimulationError):
            server.sync(5.0)

    def test_add_without_sync_rejected(self, server):
        server.sync(0.0)
        with pytest.raises(SimulationError):
            server.add_vm(make_vm(), 50.0)

    def test_completion_time_matches_solo_runtime(self, server):
        vm = make_vm()
        server.sync(0.0)
        server.add_vm(vm, 0.0)
        boundary = server.next_boundary(0.0)
        # First boundary: end of the init phase.
        assert boundary == pytest.approx(vm.benchmark.serial_time_s)
        server.sync(boundary)
        second = server.next_boundary(boundary)
        assert second == pytest.approx(vm.benchmark.t_ref_s)
        finished = server.sync(second)
        assert finished == [vm]

    def test_epoch_increments_on_changes(self, server):
        epoch0 = server.epoch
        server.sync(0.0)
        server.add_vm(make_vm(), 0.0)
        assert server.epoch > epoch0
        epoch1 = server.epoch
        server.sync(10_000.0)  # VM finishes
        assert server.epoch > epoch1

    def test_energy_accrues_during_busy_time(self, server):
        server.sync(0.0)
        server.add_vm(make_vm(), 0.0)
        server.sync(100.0)
        assert server.energy().busy_j > 0.0
        assert server.energy().idle_j == 0.0

    def test_next_boundary_none_when_idle(self, server):
        assert server.next_boundary(0.0) is None

    def test_contention_delays_boundaries(self):
        crowded = ServerRuntime("a", default_server())
        solo = ServerRuntime("b", default_server())
        crowded.sync(0.0)
        solo.sync(0.0)
        for i in range(8):
            crowded.add_vm(make_vm(f"v{i}"), 0.0)
        solo.add_vm(make_vm("solo"), 0.0)
        # Skip both init phases (uncontended) to compare work phases.
        b_crowded = crowded.next_boundary(0.0)
        b_solo = solo.next_boundary(0.0)
        crowded.sync(b_crowded)
        solo.sync(b_solo)
        assert crowded.next_boundary(b_crowded) > solo.next_boundary(b_solo)


def _drain(server, t, cap=100):
    """Run the next_boundary -> sync loop; returns (iterations, time)."""
    steps = 0
    while server.n_vms and steps < cap:
        t = server.next_boundary(t)
        server.sync(t)
        steps += 1
    return steps, t


class TestSubResolutionStages:
    """A next_boundary -> sync loop must always advance."""

    @pytest.mark.parametrize("t0", [0.0, 1e8])
    def test_nanosecond_stage_does_not_livelock(self, t0):
        # A 6e-12 s initialization stage is below the integrator's
        # 1 ns resolution: it is skipped at creation, wherever the VM
        # is placed (at t = 1e8 the loop used to spin with t frozen).
        spec = dataclasses.replace(
            canonical_benchmark(WorkloadClass.CPU), serial_fraction=1e-14
        )
        vm = SimVM("v0", 1, spec.workload_class, t0, benchmark=spec)
        assert vm.stage == 1
        server = ServerRuntime("s0", default_server())
        server.sync(t0)
        server.add_vm(vm, t0)
        steps, t = _drain(server, t0)
        assert server.n_vms == 0
        assert t == pytest.approx(t0 + spec.work_time_s)

    def test_nanosecond_job_is_not_born_done(self):
        spec = dataclasses.replace(canonical_benchmark(WorkloadClass.CPU), t_ref_s=1e-12)
        vm = SimVM("v0", 1, spec.workload_class, 0.0, benchmark=spec)
        assert vm.stage == 1 and not vm.done
        server = ServerRuntime("s0", default_server())
        server.sync(0.0)
        server.add_vm(vm, 0.0)
        steps, _ = _drain(server, 0.0)
        assert vm.done and server.n_vms == 0

    @pytest.mark.parametrize("k", range(8))
    def test_late_rounding_residue_does_not_livelock(self, k):
        # Past ~2**24 s a float step is coarser than 2 ns, so syncing
        # to a predicted boundary can leave a stage a residue that
        # now + residue rounds back to now.
        t = 1e8 + 3733.7 * k
        server = ServerRuntime("s0", default_server())
        server.sync(t)
        for i, cls in enumerate(WorkloadClass):
            t += 11.3 * (i + k % 3)
            server.sync(t)
            server.add_vm(SimVM(f"v{i}", i, cls, t), t)
        steps, _ = _drain(server, t)
        assert server.n_vms == 0, f"stuck after {steps} steps"

"""Additional ServerRuntime lifecycle edge cases (migration support)."""

import pytest

from repro.common.errors import SimulationError
from repro.sim.server import ServerRuntime
from repro.sim.vm import SimVM
from repro.testbed.benchmarks import WorkloadClass
from repro.testbed.spec import default_server


def make_vm(vm_id="v0"):
    return SimVM(vm_id=vm_id, job_id=0, workload_class=WorkloadClass.CPU, submit_time_s=0.0)


@pytest.fixture
def server():
    runtime = ServerRuntime("s0", default_server())
    runtime.sync(0.0)
    return runtime


class TestDetach:
    def test_detach_returns_vm_with_state(self, server):
        vm = make_vm()
        server.add_vm(vm, 0.0)
        server.sync(100.0)
        detached = server.detach_vm(vm, 100.0)
        assert detached is vm
        assert server.n_vms == 0
        # Progress persisted: the init phase is partially consumed.
        assert vm.remaining[vm.stage] < vm.benchmark.t_ref_s

    def test_detach_unknown_vm_rejected(self, server):
        server.add_vm(make_vm("a"), 0.0)
        with pytest.raises(SimulationError, match="not hosted"):
            server.detach_vm(make_vm("b"), 0.0)

    def test_detach_without_sync_rejected(self, server):
        vm = make_vm()
        server.add_vm(vm, 0.0)
        with pytest.raises(SimulationError, match="without sync"):
            server.detach_vm(vm, 500.0)

    def test_detach_removes_by_identity_not_equality(self, server):
        # Field-equal VMs are distinct tenants: detaching the second
        # must leave the first hosted.
        first, second = make_vm("twin"), make_vm("twin")
        assert first == second and first is not second
        server.attach_vm(first, 0.0)
        server.attach_vm(second, 0.0)
        server.detach_vm(second, 0.0)
        assert len(server.vms) == 1 and server.vms[0] is first
        with pytest.raises(SimulationError, match="not hosted"):
            server.detach_vm(second, 0.0)

    def test_detach_powers_off_empty_server(self, server):
        vm = make_vm()
        server.add_vm(vm, 0.0)
        server.sync(10.0)
        server.detach_vm(vm, 10.0)
        assert not server.powered_on


class TestAttach:
    def test_attach_preserves_progress(self, server):
        origin = ServerRuntime("origin", default_server())
        origin.sync(0.0)
        vm = make_vm()
        origin.add_vm(vm, 0.0)
        origin.sync(150.0)
        origin.detach_vm(vm, 150.0)

        server.sync(150.0)
        server.attach_vm(vm, 150.0)
        assert vm.server_id == "s0"
        assert server.n_vms == 1
        # Continue to completion on the new host.
        now = 150.0
        while server.next_boundary(now) is not None:
            now = server.next_boundary(now)
            server.sync(now)
        assert vm.done

    def test_attach_without_sync_rejected(self, server):
        with pytest.raises(SimulationError, match="without sync"):
            server.attach_vm(make_vm(), 500.0)

    def test_attach_powers_on(self, server):
        assert not server.powered_on
        vm = make_vm()
        vm.place("elsewhere", 0.0)  # already running elsewhere
        server.attach_vm(vm, 0.0)
        assert server.powered_on


class TestPowerOn:
    def test_power_on_idempotent(self, server):
        server.power_on(0.0)
        server.power_on(0.0)
        assert server.powered_on

    def test_power_on_accrues_idle_until_off(self):
        runtime = ServerRuntime("s0", default_server(), power_off_when_empty=False)
        runtime.power_on(0.0)
        runtime.sync(100.0)
        assert runtime.energy().idle_j == pytest.approx(
            100.0 * default_server().power.idle_w
        )

"""Property-based tests for the testbed physics.

These pin the emulator's qualitative laws -- the properties the
paper's empirical observations rely on -- rather than calibrated
numbers.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.server import MixMemo, ServerRuntime
from repro.sim.vm import SimVM
from repro.testbed.benchmarks import BENCHMARKS, BenchmarkSpec, WorkloadClass, get_benchmark
from repro.testbed.contention import ActiveVM, ContentionParams, MixKind, MixModel
from repro.testbed.power import instantaneous_power, mix_power
from repro.testbed.runner import VMInstance, run_mix
from repro.testbed.spec import SUBSYSTEMS, default_server

bench_names = st.sampled_from(sorted(BENCHMARKS))
small_mixes = st.lists(bench_names, min_size=1, max_size=8)


def active(names):
    return [ActiveVM(get_benchmark(n)) for n in names]


class TestContentionLaws:
    @given(small_mixes)
    @settings(max_examples=60)
    def test_slowdowns_at_least_one(self, names):
        model = MixModel(default_server())
        for value in model.slowdowns(active(names)):
            assert value >= 1.0 - 1e-12

    @given(small_mixes, bench_names)
    @settings(max_examples=60)
    def test_adding_a_vm_never_speeds_up_others(self, names, extra):
        model = MixModel(default_server())
        mix = active(names)
        bigger = mix + [ActiveVM(get_benchmark(extra))]
        before = model.slowdowns(mix)
        after = model.slowdowns(bigger)[: len(mix)]
        for b, a in zip(before, after):
            assert a >= b - 1e-12

    @given(small_mixes)
    @settings(max_examples=60)
    def test_power_monotone_in_mix(self, names):
        model = MixModel(default_server())
        mix = active(names)
        assert mix_power(model, mix) >= mix_power(model, mix[:-1] if len(mix) > 1 else [])

    @given(small_mixes)
    @settings(max_examples=60)
    def test_power_bounded(self, names):
        model = MixModel(default_server())
        spec = default_server()
        draw = mix_power(model, active(names))
        assert spec.power.idle_w <= draw <= spec.power.max_w + spec.power.per_vm_w * len(names)


class TestRunnerLaws:
    @given(st.lists(bench_names, min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_run_invariants(self, names):
        server = default_server()
        vms = [VMInstance(f"v{i}", get_benchmark(n)) for i, n in enumerate(names)]
        result = run_mix(server, vms)
        # Each VM takes at least its solo reference time.
        for outcome in result.outcomes:
            t_ref = get_benchmark(outcome.benchmark_name).t_ref_s
            assert outcome.exec_time_s >= t_ref * 0.999
        # Energy equals the piecewise integral of the power profile.
        integral = sum((t1 - t0) * w for t0, t1, w in result.segments)
        assert abs(result.energy_j - integral) < 1e-6
        # Total time is the slowest VM.
        assert result.total_time_s == max(o.finish_s for o in result.outcomes)
        # Energy at least idle draw over the whole run.
        assert result.energy_j >= server.power.idle_w * result.total_time_s * 0.999

    @given(st.lists(bench_names, min_size=1, max_size=5))
    @settings(max_examples=15, deadline=None)
    def test_deterministic(self, names):
        server = default_server()
        vms = [VMInstance(f"v{i}", get_benchmark(n)) for i, n in enumerate(names)]
        a = run_mix(server, vms)
        b = run_mix(server, vms)
        assert a.total_time_s == b.total_time_s
        assert a.energy_j == b.energy_j

    @given(bench_names, st.integers(min_value=2, max_value=10))
    @settings(max_examples=20, deadline=None)
    def test_total_time_monotone_in_count(self, name, n):
        server = default_server()
        bench = get_benchmark(name)
        smaller = run_mix(server, [VMInstance(f"v{i}", bench) for i in range(n - 1)])
        bigger = run_mix(server, [VMInstance(f"v{i}", bench) for i in range(n)])
        assert bigger.total_time_s >= smaller.total_time_s - 1e-9


# -- kind-table physics ------------------------------------------------------

#: Demands include exact zeros so weights skip subsystems.
demand_values = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3.0))


@st.composite
def benchmark_specs(draw, max_ram_gb=8.0):
    demands = draw(st.lists(demand_values, min_size=4, max_size=4))
    if not any(demands):
        demands[draw(st.integers(min_value=0, max_value=3))] = draw(
            st.floats(min_value=0.01, max_value=3.0)
        )
    return BenchmarkSpec(
        name="random",
        workload_class=draw(st.sampled_from(list(WorkloadClass))),
        t_ref_s=draw(st.floats(min_value=1.0, max_value=2000.0)),
        # Stages shorter than the integrator's 1 ns step are out of
        # scope: a VM created with one never leaves it.
        serial_fraction=draw(
            st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=0.95))
        ),
        demands=dict(zip(SUBSYSTEMS, demands)),
        ram_gb=draw(st.floats(min_value=0.05, max_value=max_ram_gb)),
        init_demand_scale=draw(
            st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))
        ),
    )


def contention_params(max_thrash_coeff=3.0, max_thrash_exponent=2.5):
    return st.builds(
        ContentionParams,
        virt_overhead_per_vm=st.floats(min_value=0.0, max_value=0.2),
        same_class_interference=st.floats(min_value=0.0, max_value=0.1),
        cross_class_interference=st.floats(min_value=0.0, max_value=0.1),
        thrash_coeff=st.floats(min_value=0.0, max_value=max_thrash_coeff),
        thrash_exponent=st.floats(min_value=1.0, max_value=max_thrash_exponent),
    )


def phase_view(benchmark, init):
    if init:
        return ActiveVM(benchmark, demand_scale=benchmark.init_demand_scale, contended=False)
    return ActiveVM(benchmark)


class TestKindTableIdentity:
    """Kind-table physics equals the naive formulas bit for bit.

    The simulator's memo solves each new mix sequence from shared
    :class:`MixKind` s; the naive reference rebuilds one view per VM
    and calls ``slowdowns`` + ``subsystem_loads`` +
    ``instantaneous_power``.  Crowds of up to 24 VMs with resident
    sets up to 8 GiB run deep into thrashing.
    """

    @given(
        st.lists(benchmark_specs(), min_size=1, max_size=4),
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=3), st.booleans()),
            min_size=0,
            max_size=24,
        ),
        contention_params(),
    )
    @settings(max_examples=200, deadline=None)
    def test_kind_physics_equals_naive(self, specs, picks, params):
        model = MixModel(default_server(), params)
        table: dict = {}
        kinds = []
        for index, init in picks:
            key = (index % len(specs), init)
            if key not in table:
                table[key] = MixKind(phase_view(specs[key[0]], init))
            kinds.append(table[key])
        # Naive: fresh views per VM, as DatacenterConfig(indexed=False).
        views = [phase_view(specs[index % len(specs)], init) for index, init in picks]
        slowdowns = model.slowdowns(views)
        loads = model.subsystem_loads(views)
        power = instantaneous_power(loads, len(views), model.server.power)

        fast_slowdowns, fast_loads = model.kind_physics(kinds)
        assert fast_slowdowns == slowdowns
        assert dict(fast_loads) == dict(loads)
        entry = MixMemo().physics(tuple(kinds), model)
        assert entry == (tuple(slowdowns), power)
        if views:
            assert model.slowdowns_and_loads(views) == (slowdowns, loads)

    @given(
        st.lists(benchmark_specs(max_ram_gb=3.0), min_size=1, max_size=3),
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=2), st.floats(0.0, 400.0)),
            min_size=1,
            max_size=8,
        ),
        contention_params(max_thrash_coeff=1.5, max_thrash_exponent=1.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_server_runtime_equals_naive(self, specs, arrivals, params):
        # Memo plus cached per-server key (indexed) against fresh views
        # every step (naive), through arrivals, stage transitions and
        # completions -- serial_fraction=0 specs start in the work
        # stage, so the kind table sees them only as work kinds.  The
        # crowd is kept mild: under slowdowns of 1e5 and more, sim
        # times outgrow the integrator's 1 ns step resolution.
        runs = []
        for indexed in (True, False):
            server = ServerRuntime("s0", default_server(), params, mix_cache=indexed)
            server.sync(0.0)
            t = 0.0
            finished = []
            for i, (pick, gap) in enumerate(arrivals):
                t += gap
                finished += [vm.vm_id for vm in server.sync(t)]
                spec = specs[pick % len(specs)]
                server.add_vm(SimVM(f"v{i}", i, spec.workload_class, t, benchmark=spec), t)
            while server.n_vms:
                t = server.next_boundary(t)
                finished += [vm.vm_id for vm in server.sync(t)]
            runs.append((finished, t, server.energy()))
        assert runs[0] == runs[1]

"""Gate: fail when allocator latency or the parallel fan-out regress.

Compares a fresh ``benchmarks/BENCH_allocator.json`` (produced by
``benchmarks/bench_perf_allocator.py``) against the committed
``benchmarks/BENCH_allocator_baseline.json``.  Exits non-zero when any
batch's optimized p50 allocate latency regressed by more than the
allowed fraction (default 20%), when the streamed frontier stopped
undercutting the materialized candidate pool, or when enabling
observability (metrics + tracing) costs more than the allowed overhead
over the no-op path (default 5%).

The ``anytime`` section (when present) is held to *absolute* p50
ceilings -- the point of the anytime mode is bounded latency on
batches the exact enumerator cannot afford, so a relative baseline
would defeat the contract -- and its batch-16 quality ratio against
the exact optimum must stay under ``--quality-bound`` (default 1.05).

The ``server_scaling`` section (when present) must show a coalesce-12
session window at 2,048 servers taking at most ``SCALING_RATIO``
(2.0) times its time at 64 servers: the allocator probes one
server per ``(mix, max_vms)`` class, so extra identical servers must
not cost time.  Its identity check -- the same plan documents at every
server count -- must hold.

Additionally gates ``benchmarks/BENCH_parallel.json`` (produced by
``benchmarks/bench_perf_parallel.py``) when present: the jobs=4
evaluation fan-out must reach the required speedup over serial
(default 1.5x) *and* the identity checks -- outcomes, merged metrics
snapshot, and deterministic trace bit-identical to serial -- must
hold.  A fast but wrong pool is a regression, not a win.  The speedup
clause only applies when the recorded host had at least
``--parallel-min-cpus`` cores (default 4): a process pool cannot beat
serial on a single-CPU box, so the gate prints an explicit skip there
instead of failing on physics.  Identity is enforced unconditionally.

Additionally gates ``benchmarks/BENCH_service.json`` (produced by
``benchmarks/bench_service.py``) when present: the coalescing stream
must sustain the required admitted-requests throughput (default
200/s), every admitted VM must end up planned, the p50 HTTP
request->plan latency must stay under an absolute ceiling (default
50ms -- it measures a coalesce=1 round trip on loopback), and the
identity checks -- same admitted sequence, chunked three ways, equal
to the in-process session byte-for-byte -- must hold.  Its
``liveness`` section must show no window holding the event loop for
more than ``LIVENESS_MAX_SLICE_S`` (5 ms) in one slice while a heavy
tenant (coalesce-12 windows on 256 servers) runs beside a light one: a
window that is not sliced holds the loop for its whole duration, about
0.25 s.

Additionally gates ``benchmarks/BENCH_sim.json`` (produced by
``benchmarks/bench_sim_scale.py``) when present.  Its ``like_for_like``
leg (the indexed core, unsharded, on the same jobs as an unsharded run
of the retained naive core at the 100k-VM scale) must beat the naive
run by the required factor (default 5x) and report ``identical``:
energy, makespan and every job outcome equal to the naive core's; a
missing leg, speedup or verdict fails.  The 10-shard indexed run must
also beat the naive run by the same factor (chronicle-free legs on
both sides); the two are different simulated systems -- a sharded
result is a function of the decomposition, and its energy is about
0.5% lower at 100k VMs -- so that factor is not a like-for-like
speedup of the indexed core, only a bound on it.  Peak RSS of the 100k
campaign must stay within the allowed multiple of the 10k campaign (default 1.2x -- the
streaming chronicle and job spooling keep the core's memory flat), and
the merge-identity checks -- results bit-identical across worker
counts, with and without fault injection -- must hold unconditionally.

Additionally gates ``benchmarks/BENCH_carbon.json`` (produced by
``benchmarks/bench_carbon.py``) when present: temporally shifting the
peak-concentrated deferrable workload must cut both total energy cost
and total carbon mass by at least the required fraction (default 10%)
against the unshifted run of the same jobs, per-interval accounting
must stay within the allowed fraction of the signal-free campaign's
CPU time (default 5%, measured in situ -- see the bench docstring for
why end-to-end wall deltas are not gated), and the identity check --
signal-free metrics of the accounted run bit-identical to the plain
run -- must hold unconditionally.

Run:
    PYTHONPATH=src python benchmarks/bench_perf_allocator.py
    PYTHONPATH=src python benchmarks/bench_perf_parallel.py
    PYTHONPATH=src python benchmarks/bench_service.py
    PYTHONPATH=src python benchmarks/bench_sim_scale.py
    PYTHONPATH=src python benchmarks/bench_carbon.py
    python scripts/check_bench_regression.py [--tolerance 0.2]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
CURRENT = BENCH_DIR / "BENCH_allocator.json"
BASELINE = BENCH_DIR / "BENCH_allocator_baseline.json"
PARALLEL = BENCH_DIR / "BENCH_parallel.json"
SERVICE = BENCH_DIR / "BENCH_service.json"
LINT = BENCH_DIR / "BENCH_lint.json"
SIM = BENCH_DIR / "BENCH_sim.json"
CARBON = BENCH_DIR / "BENCH_carbon.json"

#: absolute p50 ceilings (seconds) for the anytime-mode batches; the
#: exact enumerator needs ~13 s (batch 16) to minutes (batch 32) here.
ANYTIME_CEILINGS = {"16": 0.65, "32": 1.5}

#: allowed ratio of the coalesce-12 session window p50 at the largest
#: server count over the smallest (2,048 vs 64 servers).
SCALING_RATIO = 2.0

#: longest one window may hold the service's event loop in one slice
#: (seconds), beside a heavy tenant.
LIVENESS_MAX_SLICE_S = 0.005


def load(path: Path) -> dict:
    if not path.exists():
        sys.exit(
            f"missing {path}\n"
            f"run: PYTHONPATH=src python benchmarks/bench_perf_allocator.py"
        )
    return json.loads(path.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="allowed p50 latency regression fraction (default 0.20)",
    )
    parser.add_argument(
        "--obs-tolerance",
        type=float,
        default=0.05,
        help="allowed enabled-observability overhead fraction over the "
        "no-op path (default 0.05)",
    )
    parser.add_argument(
        "--quality-bound",
        type=float,
        default=1.05,
        help="allowed anytime/exact objective ratio at batch 16 "
        "(default 1.05, i.e. within 5%% of the exact optimum)",
    )
    parser.add_argument(
        "--parallel-speedup",
        type=float,
        default=1.5,
        help="required jobs=4 evaluation speedup over serial (default 1.5)",
    )
    parser.add_argument(
        "--parallel-min-cpus",
        type=int,
        default=4,
        help="enforce the speedup clause only when the benchmark host had "
        "at least this many CPUs (default 4); identity is always enforced",
    )
    parser.add_argument(
        "--service-throughput",
        type=float,
        default=200.0,
        help="required admitted VM requests per second through the "
        "service's coalescing stream (default 200)",
    )
    parser.add_argument(
        "--service-latency-bound",
        type=float,
        default=0.050,
        help="absolute p50 ceiling (seconds) for the HTTP request->plan "
        "round trip at coalesce=1 (default 0.050)",
    )
    parser.add_argument(
        "--lint-bound",
        type=float,
        default=10.0,
        help="absolute ceiling (seconds) for the cold whole-repo "
        "full-catalog lint pass (default 10.0)",
    )
    parser.add_argument(
        "--sim-speedup",
        type=float,
        default=5.0,
        help="required wall-time factor over the naive core at the gate "
        "scale, for both the like-for-like indexed leg and the sharded "
        "run (default 5.0)",
    )
    parser.add_argument(
        "--sim-rss-ratio",
        type=float,
        default=1.2,
        help="allowed gate-scale over base-scale peak-RSS multiple for the "
        "chronicled sharded campaign (default 1.2)",
    )
    parser.add_argument(
        "--carbon-shift-win",
        type=float,
        default=0.10,
        help="required fractional reduction in both cost and carbon from "
        "shifting the deferrable peak workload (default 0.10)",
    )
    parser.add_argument(
        "--carbon-overhead",
        type=float,
        default=0.05,
        help="allowed in-situ accounting fraction of the signal-free "
        "campaign's CPU time (default 0.05)",
    )
    parser.add_argument("--current", type=Path, default=CURRENT)
    parser.add_argument("--baseline", type=Path, default=BASELINE)
    parser.add_argument("--parallel", type=Path, default=PARALLEL)
    parser.add_argument("--service", type=Path, default=SERVICE)
    parser.add_argument("--lint", type=Path, default=LINT)
    parser.add_argument("--sim", type=Path, default=SIM)
    parser.add_argument("--carbon", type=Path, default=CARBON)
    args = parser.parse_args(argv)

    current = load(args.current)
    baseline = load(args.baseline)

    failures = []
    for size, base_entry in sorted(baseline["batches"].items(), key=lambda kv: int(kv[0])):
        entry = current["batches"].get(size)
        if entry is None:
            print(f"batch {size}: not present in current run (skipped)")
            continue
        base_p50 = base_entry["optimized"]["p50_s"]
        cur_p50 = entry["optimized"]["p50_s"]
        ratio = cur_p50 / base_p50 if base_p50 > 0 else float("inf")
        verdict = "OK"
        if ratio > 1.0 + args.tolerance:
            verdict = "REGRESSION"
            failures.append(
                f"batch {size}: optimized p50 {cur_p50:.3f}s vs baseline "
                f"{base_p50:.3f}s ({(ratio - 1.0) * 100:+.0f}%)"
            )
        print(
            f"batch {size:>2s}: p50 {cur_p50:8.3f}s  baseline {base_p50:8.3f}s  "
            f"{(ratio - 1.0) * 100:+6.1f}%  {verdict}"
        )

        peak = entry["peak_retained_candidates"]
        pool = entry["candidates_feasible"]
        if pool > 10 and peak >= pool:
            failures.append(
                f"batch {size}: frontier peak {peak} no longer undercuts "
                f"the {pool}-candidate pool"
            )

    anytime = current.get("anytime")
    if anytime is None:
        print(
            "anytime: no section in current run (skipped; rerun "
            "benchmarks/bench_perf_allocator.py to gate the anytime mode)"
        )
    else:
        for size, ceiling in sorted(ANYTIME_CEILINGS.items(), key=lambda kv: int(kv[0])):
            entry = anytime["batches"].get(size)
            if entry is None:
                print(f"anytime batch {size}: not present in current run (skipped)")
                continue
            p50 = entry["p50_s"]
            verdict = "OK"
            if p50 > ceiling:
                verdict = "REGRESSION"
                failures.append(
                    f"anytime batch {size}: p50 {p50:.3f}s exceeds the "
                    f"{ceiling:.2f}s ceiling"
                )
            print(
                f"anytime batch {size:>2s}: p50 {p50:8.3f}s  ceiling "
                f"{ceiling:8.3f}s  {verdict}"
            )
        quality = anytime.get("quality")
        if quality is None:
            print("anytime quality: no entry (quick run; skipped)")
        else:
            ratio = quality["ratio"]
            verdict = "OK"
            if ratio > args.quality_bound:
                verdict = "REGRESSION"
                failures.append(
                    f"anytime quality: ratio {ratio:.4f} exceeds the "
                    f"{args.quality_bound:.2f} bound (anytime "
                    f"{quality['anytime_objective']:.6f} vs exact "
                    f"{quality['exact_objective']:.6f} at batch "
                    f"{quality['batch']})"
                )
            print(
                f"anytime quality: ratio {ratio:8.4f}  bound "
                f"{args.quality_bound:8.2f}  {verdict}"
            )

    scaling = current.get("server_scaling")
    if scaling is None:
        print(
            "server scaling: no section in current run (skipped; rerun "
            "benchmarks/bench_perf_allocator.py to gate it)"
        )
    else:
        sizes = sorted(scaling["servers"], key=int)
        smallest, largest = sizes[0], sizes[-1]
        small_p50 = scaling["servers"][smallest]["p50_s"]
        large_p50 = scaling["servers"][largest]["p50_s"]
        ratio = large_p50 / small_p50 if small_p50 > 0 else float("inf")
        verdict = "OK"
        if ratio > SCALING_RATIO:
            verdict = "REGRESSION"
            failures.append(
                f"server scaling: window p50 {large_p50:.3f}s at {largest} "
                f"servers is {ratio:.2f}x the {small_p50:.3f}s at {smallest}, "
                f"over the {SCALING_RATIO:.1f}x bound"
            )
        print(
            f"server scaling: {largest}/{smallest} window p50 ratio "
            f"{ratio:8.2f}  bound {SCALING_RATIO:8.1f}  {verdict}"
        )
        if not scaling.get("plans_identical", False):
            failures.append(
                "server scaling: plans differ across server counts -- the "
                "sizes are no longer like for like"
            )
        print(f"server scaling: identity plans={scaling.get('plans_identical')}")

    observability = current.get("observability")
    if observability is None:
        print("observability: no section in current run (skipped)")
    else:
        overhead = observability["overhead_frac"]
        verdict = "OK"
        if overhead > args.obs_tolerance:
            verdict = "REGRESSION"
            failures.append(
                f"observability: enabled overhead {overhead * 100:+.1f}% exceeds "
                f"the {args.obs_tolerance * 100:.0f}% bound "
                f"(noop p50 {observability['noop']['p50_s'] * 1e3:.3f}ms, "
                f"enabled p50 {observability['enabled']['p50_s'] * 1e3:.3f}ms)"
            )
        print(
            f"observability: noop p50 {observability['noop']['p50_s'] * 1e3:8.3f}ms  "
            f"enabled p50 {observability['enabled']['p50_s'] * 1e3:8.3f}ms  "
            f"{overhead * 100:+6.1f}%  {verdict}"
        )

    if not args.parallel.exists():
        print(
            f"parallel: no {args.parallel.name} (skipped; run "
            f"benchmarks/bench_perf_parallel.py to gate the fan-out)"
        )
    else:
        parallel = json.loads(args.parallel.read_text())
        cpu_count = parallel.get("cpu_count", 1)
        entry = parallel.get("parallel", {}).get("4")
        if entry is None:
            failures.append("parallel: no jobs=4 entry in BENCH_parallel.json")
        else:
            speedup = entry["speedup"]
            if cpu_count < args.parallel_min_cpus:
                verdict = (
                    f"SKIPPED (host had {cpu_count} CPU"
                    f"{'s' if cpu_count != 1 else ''}; speedup gated at "
                    f">= {args.parallel_min_cpus})"
                )
            else:
                verdict = "OK"
                if speedup < args.parallel_speedup:
                    verdict = "REGRESSION"
                    failures.append(
                        f"parallel: jobs=4 speedup {speedup:.2f}x below the "
                        f"required {args.parallel_speedup:.2f}x on a "
                        f"{cpu_count}-CPU host "
                        f"(serial {parallel['serial']['wall_s']:.2f}s, "
                        f"jobs=4 {entry['wall_s']:.2f}s)"
                    )
            print(
                f"parallel: jobs=4 {entry['wall_s']:8.2f}s  serial "
                f"{parallel['serial']['wall_s']:8.2f}s  {speedup:5.2f}x  {verdict}"
            )
        identity = parallel.get("identity", {})
        for check in ("outcomes", "snapshot", "trace"):
            if not identity.get(check, False):
                failures.append(
                    f"parallel: {check} identity check failed -- the pool no "
                    f"longer reproduces the serial run bit-for-bit"
                )
        print(
            f"parallel: identity outcomes={identity.get('outcomes')} "
            f"snapshot={identity.get('snapshot')} trace={identity.get('trace')}"
        )

    if not args.service.exists():
        print(
            f"service: no {args.service.name} (skipped; run "
            f"benchmarks/bench_service.py to gate the allocation service)"
        )
    else:
        service = json.loads(args.service.read_text())
        throughput = service["throughput"]
        rate = throughput["requests_per_s"]
        verdict = "OK"
        if rate < args.service_throughput:
            verdict = "REGRESSION"
            failures.append(
                f"service: {rate:.0f} req/s below the required "
                f"{args.service_throughput:.0f} req/s "
                f"({throughput['requests']} requests in "
                f"{throughput['wall_s']:.2f}s)"
            )
        print(
            f"service: throughput {rate:8.0f} req/s  required "
            f"{args.service_throughput:8.0f}  {verdict}"
        )
        if not throughput.get("all_planned", False):
            failures.append(
                "service: not every admitted VM ended up planned -- the "
                "batching loop dropped or failed windows"
            )
        latency = service["latency"]
        p50 = latency["p50_s"]
        verdict = "OK"
        if p50 > args.service_latency_bound:
            verdict = "REGRESSION"
            failures.append(
                f"service: p50 request->plan latency {p50 * 1e3:.1f}ms exceeds "
                f"the {args.service_latency_bound * 1e3:.0f}ms ceiling"
            )
        print(
            f"service: latency p50 {p50 * 1e3:8.2f}ms  ceiling "
            f"{args.service_latency_bound * 1e3:8.0f}ms  {verdict}"
        )
        identity = service.get("identity", {})
        for check in ("chunks_identical", "library_identical"):
            if not identity.get(check, False):
                failures.append(
                    f"service: {check} failed -- coalesced batches are no "
                    f"longer bit-identical across arrival chunkings"
                )
        print(
            f"service: identity chunks={identity.get('chunks_identical')} "
            f"library={identity.get('library_identical')}"
        )
        liveness = service.get("liveness")
        if liveness is None:
            failures.append(
                "service: no liveness section -- rerun benchmarks/bench_service.py"
            )
        else:
            held = liveness["max_slice_s"]
            verdict = "OK"
            if held > LIVENESS_MAX_SLICE_S:
                verdict = "REGRESSION"
                failures.append(
                    f"service: a window held the event loop for {held * 1e3:.1f}ms "
                    f"in one slice, above the {LIVENESS_MAX_SLICE_S * 1e3:.0f}ms "
                    f"ceiling -- other tenants stall behind it"
                )
            print(
                f"service: max slice {held * 1e3:8.2f}ms  ceiling "
                f"{LIVENESS_MAX_SLICE_S * 1e3:8.0f}ms  {verdict}"
            )

    if not args.lint.exists():
        print(
            f"lint: no {args.lint.name} (skipped; run "
            f"benchmarks/bench_lint.py to gate the invariant linter)"
        )
    else:
        lint = json.loads(args.lint.read_text())
        cold_p50 = lint["cold"]["p50_s"]
        verdict = "OK"
        if cold_p50 > args.lint_bound:
            verdict = "REGRESSION"
            failures.append(
                f"lint: cold whole-repo pass p50 {cold_p50:.2f}s exceeds the "
                f"{args.lint_bound:.0f}s ceiling over "
                f"{lint['checked_files']} files -- a gate slower than the "
                f"suite stops being run"
            )
        print(
            f"lint: cold p50 {cold_p50:8.2f}s  warm p50 "
            f"{lint['warm']['p50_s']:8.2f}s  ceiling {args.lint_bound:8.0f}s  "
            f"({lint['checked_files']} files)  {verdict}"
        )

    if not args.sim.exists():
        print(
            f"sim: no {args.sim.name} (skipped; run "
            f"benchmarks/bench_sim_scale.py to gate the simulation core)"
        )
    else:
        sim = json.loads(args.sim.read_text())
        gate_scale, base_scale = str(sim["gate_scale"]), str(sim["base_scale"])
        speedup = sim["speedup_vs_naive"]
        verdict = "OK"
        if speedup < args.sim_speedup:
            verdict = "REGRESSION"
            gate_row = sim["scales"][gate_scale]
            failures.append(
                f"sim: {speedup:.2f}x over the naive core at the "
                f"{gate_scale}-VM scale, below the required "
                f"{args.sim_speedup:.1f}x (naive "
                f"{sim['naive']['wall_s']:.2f}s, sharded "
                f"{gate_row['nochron_wall_s']:.2f}s)"
            )
        print(
            f"sim: sharded speedup {speedup:8.2f}x  required "
            f"{args.sim_speedup:8.1f}x  ({gate_scale} VMs, "
            f"naive {sim['naive']['wall_s']:.2f}s)  {verdict}"
        )
        rss_ratio = sim["rss_ratio"]
        verdict = "OK"
        if rss_ratio > args.sim_rss_ratio:
            verdict = "REGRESSION"
            failures.append(
                f"sim: peak RSS grew {rss_ratio:.2f}x from the "
                f"{base_scale}-VM to the {gate_scale}-VM campaign, over the "
                f"{args.sim_rss_ratio:.1f}x flatness bound -- the streaming "
                f"chronicle or job spool stopped bounding memory"
            )
        print(
            f"sim: rss ratio {rss_ratio:8.2f}  bound "
            f"{args.sim_rss_ratio:8.1f}  "
            f"({sim['scales'][base_scale]['peak_rss_mb']:.0f}MB -> "
            f"{sim['scales'][gate_scale]['peak_rss_mb']:.0f}MB)  {verdict}"
        )
        like = sim.get("like_for_like", {})
        verdict = "OK"
        if like.get("identical") is not True:
            verdict = "REGRESSION"
            failures.append(
                "sim: the like-for-like indexed leg is missing or differs from "
                "the naive core (energy, makespan or job outcomes)"
            )
        if "speedup" not in like:
            verdict = "REGRESSION"
            failures.append("sim: the like-for-like leg has no speedup")
            print(f"sim: like-for-like speedup missing  {verdict}")
        else:
            if like["speedup"] < args.sim_speedup:
                verdict = "REGRESSION"
                failures.append(
                    f"sim: like-for-like {like['speedup']:.2f}x over the naive "
                    f"core at the {gate_scale}-VM scale, below the required "
                    f"{args.sim_speedup:.1f}x (naive {sim['naive']['wall_s']:.2f}s, "
                    f"indexed unsharded {like['wall_s']:.2f}s)"
                )
            print(
                f"sim: like-for-like {like['speedup']:8.2f}x  required "
                f"{args.sim_speedup:8.1f}x  (indexed unsharded "
                f"{like['wall_s']:.2f}s, identical {like.get('identical')})  {verdict}"
            )
        identity = sim.get("identity", {})
        for check in ("workers", "workers_faulted"):
            if not identity.get(check, False):
                failures.append(
                    f"sim: {check} identity check failed -- merged sharded "
                    f"results are no longer bit-identical across worker counts"
                )
        print(
            f"sim: identity workers={identity.get('workers')} "
            f"faulted={identity.get('workers_faulted')}"
        )

    if not args.carbon.exists():
        print(
            f"carbon: no {args.carbon.name} (skipped; run "
            f"benchmarks/bench_carbon.py to gate the carbon scenario)"
        )
    else:
        carbon = json.loads(args.carbon.read_text())
        shift = carbon["shift"]
        for axis, unit in (("cost", "EUR"), ("carbon", "g")):
            cut = shift[f"{axis}_reduction_frac"]
            verdict = "OK"
            if cut < args.carbon_shift_win:
                verdict = "REGRESSION"
                failures.append(
                    f"carbon: shifting cut {axis} by only {cut * 100:.1f}%, "
                    f"below the required {args.carbon_shift_win * 100:.0f}% "
                    f"({shift[f'{axis}_no_shift']:.3f} -> "
                    f"{shift[f'{axis}_shifted']:.3f} {unit})"
                )
            print(
                f"carbon: shift {axis:>6s} {shift[f'{axis}_no_shift']:8.3f} -> "
                f"{shift[f'{axis}_shifted']:8.3f} {unit}  "
                f"cut {cut * 100:5.1f}%  required "
                f"{args.carbon_shift_win * 100:.0f}%  {verdict}"
            )
        overhead = carbon["overhead"]
        frac = overhead["overhead_frac"]
        verdict = "OK"
        if frac > args.carbon_overhead:
            verdict = "REGRESSION"
            failures.append(
                f"carbon: accounting took {frac * 100:.2f}% of the "
                f"signal-free campaign's CPU time, over the "
                f"{args.carbon_overhead * 100:.0f}% bound "
                f"({overhead['accounting_s'] * 1e3:.1f}ms over "
                f"{overhead['accrue_calls']} calls, plain "
                f"{overhead['plain_cpu_s']:.2f}s)"
            )
        print(
            f"carbon: accounting {overhead['accounting_s'] * 1e3:8.1f}ms  "
            f"plain {overhead['plain_cpu_s']:8.2f}s cpu  "
            f"{frac * 100:5.2f}%  bound {args.carbon_overhead * 100:.0f}%  "
            f"{verdict}"
        )
        if not carbon.get("identity", {}).get("metrics_unchanged", False):
            failures.append(
                "carbon: metrics_unchanged identity failed -- attaching "
                "signals perturbed the signal-free metrics"
            )
        print(
            f"carbon: identity metrics_unchanged="
            f"{carbon.get('identity', {}).get('metrics_unchanged')}"
        )

    if failures:
        print("\nFAIL:")
        for failure in failures:
            print(f"  - {failure}")
        print(
            "\nhint: on a dirty tree, run the invariant linter first --\n"
            "  python scripts/lint.py\n"
            "a layering or determinism violation is a cheaper explanation "
            "for a perf delta than a real regression."
        )
        return 1
    print("\nall batches within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Scale benchmark: the indexed sharded simulation core vs the naive core.

Prepares an EGEE-like workload at each scale (10k and 100k VM budgets;
1M behind ``--full``), writes the prepared jobs to a CSV, and then
measures each campaign in a fresh subprocess: the child loads the jobs,
runs the sharded indexed simulator with a bounded chronicle ring
spilling to JSONL, and reports wall clock plus its own peak RSS
(``VmHWM``; see :func:`own_peak_rss_mb`).  A separate child runs the 100k campaign on the naive
core (``indexed=False``, unsharded, every counter and view recomputed
by scanning -- the pre-index code path, kept unoptimized on purpose) to
price the speedup, and another runs it on the indexed core, also
unsharded, for the like-for-like comparison.

Properties gated by ``scripts/check_bench_regression.py``:

* **speedup**: naive wall / sharded wall at the 100k scale (>= 5x by
  default).  This is not a like-for-like factor: a sharded result is a
  function of the decomposition (energy about 0.5% lower at 100k), so
  the two legs simulate different systems.  All shards run with
  ``workers=1``, so none of the factor comes from extra CPUs.
* **like for like**: naive wall / indexed unsharded wall on the same
  jobs (``like_for_like``).  Both legs simulate the same system, and
  ``identical`` records whether energy, makespan and every job outcome
  are equal to the naive leg's; the gate fails unless they are.
* **memory flatness**: peak RSS of the 100k campaign within 1.2x of
  the 10k campaign.  The measured child holds the prepared jobs
  (O(jobs), inherent to the workload) and the campaign itself; the
  chronicle ring + spill keep per-interval history out of RAM, and the
  per-shard event loop peaks at one shard's working set regardless of
  campaign length.  Workload *preparation* (trace generation, cleaning,
  profile assignment) is O(jobs) by construction and runs in the
  parent, unmeasured -- its cost is reported as ``prep_wall_s``.

Identity verdicts (always required to hold): merged sharded results are
bit-identical across worker counts, with and without fault injection.

Run:  PYTHONPATH=src python benchmarks/bench_sim_scale.py [--quick|--full]
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.exec.sharded import run_sharded
from repro.experiments.config import SMALLER, EvaluationConfig
from repro.experiments.evaluation import prepare_workload
from repro.faults import random_crash_spec
from repro.service.schema import SCHEMA_VERSION
from repro.sim.datacenter import DatacenterConfig, DatacenterSimulator
from repro.strategies import make_strategy
from repro.testbed.benchmarks import WorkloadClass
from repro.workloads.assignment import PreparedJob
from repro.workloads.qos import QoSPolicy

OUTPUT = Path(__file__).resolve().parent / "BENCH_sim.json"

SEED = 20110516
STRATEGY = "FF-2"
#: One shard per 10k VMs of budget: the shard size the flatness claim
#: is calibrated for.
SHARD_UNIT = 10_000
CHRONICLE_CAPACITY = 8

SCALES = (10_000, 100_000)
QUICK_SCALES = (2_000, 10_000)
FULL_SCALES = (10_000, 100_000, 1_000_000)
IDENTITY_JOBS = 400
IDENTITY_SERVERS = 30


def write_jobs_csv(jobs, path: Path) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        for job in jobs:
            writer.writerow(
                [job.job_id, job.submit_time_s, job.workload_class.value,
                 job.n_vms, job.burst_id]
            )


def iter_jobs_csv(path: Path):
    """Lazily yield jobs in file order (the canonical submit order)."""
    with path.open(newline="") as handle:
        for row in csv.reader(handle):
            yield PreparedJob(
                job_id=int(row[0]),
                submit_time_s=float(row[1]),
                workload_class=WorkloadClass(row[2]),
                n_vms=int(row[3]),
                burst_id=int(row[4]),
            )


def read_jobs_csv(path: Path) -> list[PreparedJob]:
    return list(iter_jobs_csv(path))


def own_peak_rss_mb() -> float:
    """Peak RSS of this process's own address space, in MiB.

    ``ru_maxrss`` is not it: Linux carries the high-water mark of the
    pre-``exec`` image into the child, so a child spawned by a parent
    holding a prepared 100k-VM workload reports the parent's peak
    whenever its own stays lower.  ``VmHWM`` belongs to the new address
    space; ``ru_maxrss`` is the fallback where ``/proc`` is missing.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_main(args) -> int:
    """One measured campaign; prints a JSON line with wall and peak RSS."""
    chronicled = args.mode == "sharded"
    sharded = args.mode.startswith("sharded")
    config = DatacenterConfig(
        n_servers=args.n_servers,
        indexed=(args.mode != "naive"),
        record_chronicles=chronicled,
        chronicle_capacity=CHRONICLE_CAPACITY if chronicled else None,
        chronicle_spill_path=args.spill if chronicled else None,
    )
    strategy = make_strategy(STRATEGY)
    qos = QoSPolicy.unlimited()
    started = time.perf_counter()
    if not sharded:
        result = DatacenterSimulator(config).run(
            read_jobs_csv(Path(args.jobs_csv)), strategy, qos
        )
    else:
        # Jobs stream from the CSV straight into per-shard spool
        # files: the campaign's job list is never resident at once,
        # and only the shard currently simulating holds its jobs.
        with tempfile.TemporaryDirectory(prefix="bench_spool_") as spool:
            result = run_sharded(
                iter_jobs_csv(Path(args.jobs_csv)), strategy, qos, config,
                shards=args.shards, workers=1, spool_dir=spool,
            )
    wall_s = time.perf_counter() - started
    peak_mb = own_peak_rss_mb()
    print(
        json.dumps(
            {
                "wall_s": wall_s,
                "peak_rss_mb": peak_mb,
                "makespan_s": result.metrics.makespan_s,
                "energy_j": result.metrics.energy_j,
                "n_jobs": result.metrics.n_jobs,
                "n_vms": result.metrics.n_vms,
                "outcomes_sha256": hashlib.sha256(
                    repr(result.outcomes).encode()
                ).hexdigest(),
            }
        )
    )
    return 0


def run_child(jobs_csv: Path, n_servers: int, mode: str, shards: int, spill: str | None):
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--jobs-csv", str(jobs_csv), "--n-servers", str(n_servers),
        "--mode", mode, "--shards", str(shards),
    ]
    if spill is not None:
        argv += ["--spill", spill]
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def identity_jobs() -> list[PreparedJob]:
    cfg = EvaluationConfig(label="IDY", n_servers=IDENTITY_SERVERS, seed=SEED)
    jobs, _ = prepare_workload(cfg)
    return jobs[:IDENTITY_JOBS]


def result_fingerprint(result) -> str:
    return json.dumps(
        {
            "outcomes": [
                [o.job_id, o.workload_class, o.n_vms, o.submit_time_s,
                 o.completion_time_s, o.deadline_s]
                for o in result.outcomes
            ],
            "busy": list(result.per_server_busy_j),
            "idle": list(result.per_server_idle_j),
            "faults": [repr(entry) for entry in result.fault_log],
        },
        sort_keys=True,
    )


def identity_checks() -> dict:
    jobs = identity_jobs()
    qos = QoSPolicy.unlimited()
    config = DatacenterConfig(n_servers=IDENTITY_SERVERS, indexed=True)
    verdicts = {}
    for label, faults in (
        ("workers", None),
        ("workers_faulted",
         random_crash_spec(seed=7, crash_rate_per_1000s=4.0, recover_after_s=120.0)),
    ):
        prints = []
        for workers in (1, 2, 3):
            result = run_sharded(
                jobs, make_strategy(STRATEGY), qos, config,
                shards=3, workers=workers, faults=faults,
            )
            prints.append(result_fingerprint(result))
        verdicts[label] = prints[0] == prints[1] == prints[2]
    return verdicts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test scales (2k/10k); committed numbers "
                        "use the default 10k/100k")
    parser.add_argument("--full", action="store_true",
                        help="add the 1M-VM leg (several minutes)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--jobs-csv", help=argparse.SUPPRESS)
    parser.add_argument("--n-servers", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--mode", choices=("sharded", "sharded-nochron", "indexed", "naive"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--shards", type=int, default=1, help=argparse.SUPPRESS)
    parser.add_argument("--spill", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)

    scales = QUICK_SCALES if args.quick else (FULL_SCALES if args.full else SCALES)
    gate_scale, base_scale = scales[1], scales[0]

    scale_rows = {}
    naive_row = indexed_row = None
    with tempfile.TemporaryDirectory(prefix="bench_sim_") as tmp:
        tmpdir = Path(tmp)
        for budget in scales:
            cfg = EvaluationConfig(
                label="BENCH", n_servers=SMALLER.n_servers, seed=SEED
            ).scaled(budget)
            print(f"preparing {budget}-VM workload ...", flush=True)
            prep_started = time.perf_counter()
            jobs, _ = prepare_workload(cfg)
            prep_wall_s = time.perf_counter() - prep_started
            jobs_csv = tmpdir / f"jobs_{budget}.csv"
            write_jobs_csv(jobs, jobs_csv)
            shards = max(1, budget // SHARD_UNIT)
            print(f"sharded campaign at {budget} ({shards} shards) ...", flush=True)
            row = run_child(
                jobs_csv, cfg.n_servers, "sharded", shards,
                str(tmpdir / f"spill_{budget}.jsonl"),
            )
            row.update(prep_wall_s=prep_wall_s, n_servers=cfg.n_servers, shards=shards)
            scale_rows[str(budget)] = row
            print(f"  {row['wall_s']:.2f}s  peak {row['peak_rss_mb']:.0f}MB")
            if budget == gate_scale:
                # Like-for-like speedup pair: neither leg records
                # chronicles (the pre-index core had none either).
                print(f"sharded campaign at {budget}, chronicles off ...", flush=True)
                nochron_row = run_child(
                    jobs_csv, cfg.n_servers, "sharded-nochron", shards, None
                )
                scale_rows[str(budget)]["nochron_wall_s"] = nochron_row["wall_s"]
                print(f"  {nochron_row['wall_s']:.2f}s")
                print(f"naive campaign at {budget} (pre-index core) ...", flush=True)
                naive_row = run_child(jobs_csv, cfg.n_servers, "naive", 1, None)
                naive_row.update(n_servers=cfg.n_servers)
                print(f"  {naive_row['wall_s']:.2f}s")
                print(f"indexed campaign at {budget}, unsharded ...", flush=True)
                indexed_row = run_child(jobs_csv, cfg.n_servers, "indexed", 1, None)
                print(f"  {indexed_row['wall_s']:.2f}s")

    print("sharded identity across worker counts ...", flush=True)
    identity = identity_checks()

    gate_row = scale_rows[str(gate_scale)]
    base_row = scale_rows[str(base_scale)]
    nochron_wall = gate_row["nochron_wall_s"]
    speedup = naive_row["wall_s"] / nochron_wall if nochron_wall > 0 else float("inf")
    rss_ratio = gate_row["peak_rss_mb"] / base_row["peak_rss_mb"]
    like_for_like = {
        "wall_s": indexed_row["wall_s"],
        "speedup": naive_row["wall_s"] / indexed_row["wall_s"],
        "identical": all(
            indexed_row[key] == naive_row[key]
            for key in ("energy_j", "makespan_s", "outcomes_sha256")
        ),
    }

    document = {
        "schema_version": SCHEMA_VERSION,
        "seed": SEED,
        "strategy": STRATEGY,
        "cpu_count": os.cpu_count() or 1,
        "chronicle_capacity": CHRONICLE_CAPACITY,
        "scales": scale_rows,
        "naive": {"scale": gate_scale, **naive_row},
        "gate_scale": gate_scale,
        "base_scale": base_scale,
        "speedup_vs_naive": speedup,
        "like_for_like": like_for_like,
        "rss_ratio": rss_ratio,
        "identity": identity,
    }
    OUTPUT.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUTPUT}")
    print(
        f"speedup {speedup:.2f}x  like-for-like {like_for_like['speedup']:.2f}x "
        f"(identical {like_for_like['identical']})  rss ratio {rss_ratio:.2f}  "
        f"identity {identity}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

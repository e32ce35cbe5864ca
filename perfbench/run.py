"""One benchmark for the three user pipelines of this repository.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-figs --seed 20110516 --seconds 24 --trace 0

Workloads (each runs in fresh processes; the program receives only the
inputs generated from ``--seed``):

* ``paper-figs``    -- ``run_evaluation`` (Figs. 5-7) at 2,500 VMs, jobs=1;
* ``trace-sim``     -- a 100k-VM EGEE-like trace simulated under FF-2;
* ``service-mixed`` -- ``repro serve`` driven by an open-loop client.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the
same workload with spans recorded around the calls into each layer and
prints the per-layer metrics; spans go to ``.perfbench_out/``.  The
last line of standard output is the JSON result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The lines before it name every metric with its unit (and, for traced
runs, the end-to-end metric it maps to), the checks, and a host
fingerprint; each run also appends that row, fingerprint included, to
``.perfbench_out/ledger.jsonl``.  ``perfbench/meta.json`` records each
workload's default seed, input size and reason, and what each metric
means on each workload, its layer and the end-to-end metrics it moves.

Every end-to-end metric is printed on every workload, so each has a
meaning on all three (see ``meta.json``).  Timings dominated by the
program's own computation are reported at a reference CPU speed (see
``common.SpeedProbe``); latencies of the service's light requests,
which mostly wait on the network stack of two processes, are raw.

Tests of the benchmark's helpers:  python3 -m pytest perfbench
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

from common import OUT_DIR, ROOT, SRC, emit, host_fingerprint, median, reap, spawn

HERE = Path(__file__).resolve().parent
META = json.loads((HERE / "meta.json").read_text())
WORKLOADS = tuple(META["workloads"])
#: Share of the timed wall (%) the traced layers should account for.
COVERAGE_RANGE = (90.0, 110.0)
#: Wall-clock ceiling for all the child processes of one run.
RUN_TIMEOUT_S = 170.0
_DEADLINE = time.monotonic() + RUN_TIMEOUT_S


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_child(role: str, args) -> dict:
    """Run one sim child; return its set-up time, report and peak RSS."""
    started = time.perf_counter()
    proc = spawn([str(HERE / "run.py"), "--role", role, "--workload", args.workload,
                  "--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace)])
    timeout = max(1.0, _DEADLINE - time.monotonic())
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    ready = None
    lines = []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - started
            else:
                lines.append(line)
    finally:
        watchdog.cancel()
    code, rss_mb = reap(proc, timeout)
    if code != 0 or ready is None or not lines:
        raise RuntimeError(f"{role} child failed with exit code {code}")
    report = json.loads(lines[-1])
    return {"setup_s": ready / report["setup_slowdown"], "raw_setup_s": ready,
            "report": report, "peak_rss_mb": rss_mb}


def run_sim_workload(args) -> dict:
    check = run_child("check", args)
    extra = run_child("setup", args)
    measure = run_child("measure", args)
    report = measure["report"]
    checks = check["report"]["checks"] + report["checks"]
    children = (check, extra, measure)
    result = {
        "setup_samples": [child["setup_s"] for child in children],
        "peak_rss_mb": measure["peak_rss_mb"],
        "ops": report["cells"],
        "failed_ops": 0,
        "checks": checks,
    }
    if args.trace:
        result["per_layer"] = report["per_layer"]
    else:
        e2e = report["end_to_end"]
        result["end_to_end"] = {
            key: value for key, value in e2e.items() if not key.startswith("_")
        }
        result["report"] = {
            "samples": e2e["_samples"], "outcomes": e2e["_outcomes"],
            "raw_setup_s": [child["raw_setup_s"] for child in children],
        }
    return result


def run_service_workload(args) -> dict:
    from service_mixed import run_service

    result = run_service(args.seed, args.seconds, bool(args.trace))
    summary = result.pop("summary")
    result["end_to_end"] = summary["end_to_end"]
    result["report"] = summary["report"]
    if args.trace:
        result["per_layer"] = summary["per_layer"]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's default seed)")
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("check", "setup", "measure"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: the program is missing ({SRC / 'repro'} not found); "
              f"run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = _spec()
    if args.seed is None:
        args.seed = META["workloads"][args.workload]["default_seed"]
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.role is not None:
        sys.path.insert(0, str(SRC))
        from sims import child_main

        return child_main(args.role, args.workload, args.seed, args.seconds, bool(args.trace))

    print(f"# host {json.dumps(host_fingerprint(), sort_keys=True)}", flush=True)
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    if args.workload == "service-mixed":
        sys.path.insert(0, str(SRC))
        result = run_service_workload(args)
    else:
        result = run_sim_workload(args)

    checks = result["checks"]
    for name, ok in checks:
        print(f"# check {'ok  ' if ok else 'FAIL'} {name}")
    mismatches = sum(1 for _name, ok in checks if not ok)
    for key, value in result.get("report", {}).items():
        print(f"# {key} {json.dumps(value, sort_keys=True)}")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        layer_meta = META["per_layer"]
        metrics = {}
        for entry in spec["per_layer"]:
            name = entry["name"]
            exercised = args.workload in layer_meta[name]["workloads"]
            # A layer this workload does not exercise did no work.
            value = result["per_layer"].get(name) if exercised else 0
            metrics[name] = {"value": value, "unit": entry["unit"]}
            print(f"# {name} = {value} {entry['unit']} "
                  f"-> {', '.join(layer_meta[name]['moves'])}")
        coverage = metrics["trace.coverage_pct"]["value"]
        if not COVERAGE_RANGE[0] <= coverage <= COVERAGE_RANGE[1]:
            print(f"# warning: layers account for {coverage:.1f}% of the timed wall "
                  f"(expected {COVERAGE_RANGE[0]}-{COVERAGE_RANGE[1]}%)")
    else:
        values = dict(result["end_to_end"])
        values["setup_s"] = median(result["setup_samples"])
        values["peak_rss_mb"] = result["peak_rss_mb"]
        metrics = {}
        for entry in spec["end_to_end"]:
            name = entry["name"]
            metrics[name] = {"value": values[name], "unit": units[name]}
            print(f"# {name} = {values[name]} {units[name]}")
        print(f"# setup samples {result['setup_samples']}")
    attempted = result["ops"] + len(checks)
    failed = result["failed_ops"] + mismatches
    missing = [name for name, m in metrics.items() if m["value"] is None]
    if missing:
        print(f"# metrics without enough samples: {missing}")
    correct = failed == 0 and not missing
    _append_ledger(args, correct, metrics)
    emit(correct, attempted, failed, metrics)
    return 0


def _append_ledger(args, correct: bool, metrics: dict) -> None:
    """One row per run, with the host fingerprint, in an append-only file."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    row = {"host": host_fingerprint(), "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace, "correct": correct,
           "metrics": {name: m["value"] for name, m in metrics.items()}}
    with (OUT_DIR / "ledger.jsonl").open("a") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())

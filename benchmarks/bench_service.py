"""Service benchmark: request->plan latency and coalescing throughput.

Drives a live :class:`repro.service.server.BackgroundService` over real
HTTP (loopback) and records:

* **latency** -- p50/p95 wall time from ``POST .../requests`` (one VM,
  ``coalesce=1``) to the plan appearing in the session, including every
  HTTP round trip;
* **throughput** -- admitted VM requests per second for a coalesced
  stream (chunked admissions + one flush), the ISSUE's >= 200 req/s
  contract;
* **identity** -- the same 64-request sequence admitted in chunks of
  1, 8 and 64 must produce byte-identical batch documents, and those
  must equal an in-process :class:`repro.service.session.Session` fed
  the same stream (the HTTP path adds transport, never semantics);
* **liveness** -- one heavy tenant (``coalesce=12`` on 256 servers,
  several windows queued at once) beside a light tenant sending one VM
  at a time: the longest time any window held the event loop in one
  slice (the max of the volatile ``service.window_slice_s``
  histograms, which record the loop thread's CPU time per slice), and
  the light requests' p50/p99 request->plan latency while heavy windows
  were in flight.

Writes ``BENCH_service.json`` next to this file;
``scripts/check_bench_regression.py`` gates the numbers.

Run:
    PYTHONPATH=src python benchmarks/bench_service.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from repro.campaign.platformrunner import run_campaign
from repro.core.model import ModelDatabase
from repro.obs.runtime import Observability
from repro.service.schema import SCHEMA_VERSION
from repro.service.server import BackgroundService
from repro.service.session import Session, SessionConfig

OUTPUT = Path(__file__).resolve().parent / "BENCH_service.json"

N_SERVERS = 8
CLASSES = ("cpu", "mem", "io")
HEAVY_SERVERS = 256
HEAVY_COALESCE = 12


def percentile(samples, pct):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(pct / 100 * (len(ordered) - 1))))
    return ordered[index]


def request_doc(i: int) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "vm_id": f"vm{i}",
        "workload_class": CLASSES[i % len(CLASSES)],
        "max_exec_time_s": None,
    }


def new_session(svc: BackgroundService, coalesce: int, n_servers: int = N_SERVERS) -> str:
    status, body = svc.request(
        "POST", "/v1/sessions", {"n_servers": n_servers, "coalesce": coalesce}
    )
    assert status == 201, (status, body)
    return body["session_id"]


def bench_latency(svc: BackgroundService, rounds: int) -> dict:
    """One VM per admission, coalesce=1: full HTTP request->plan time."""
    sid = new_session(svc, coalesce=1)
    samples = []
    for i in range(rounds):
        t0 = time.perf_counter()
        status, _ = svc.request(
            "POST", f"/v1/sessions/{sid}/requests", {"requests": [request_doc(i)]}
        )
        assert status == 200
        while True:
            _, info = svc.request("GET", f"/v1/sessions/{sid}")
            if info["batches_completed"] >= i + 1:
                break
        samples.append(time.perf_counter() - t0)
    svc.request("DELETE", f"/v1/sessions/{sid}")
    return {
        "rounds": rounds,
        "p50_s": statistics.median(samples),
        "p95_s": percentile(samples, 95),
    }


def bench_throughput(svc: BackgroundService, total: int, chunk: int, coalesce: int) -> dict:
    """Chunked admissions + one flush; requests/s over the full drain.

    The datacenter is sized so every admitted VM can be placed
    (sessions never release capacity except through fault eviction);
    an unplaceable tail would make the later windows' error path
    flatter the numbers.
    """
    sid = new_session(svc, coalesce=coalesce, n_servers=max(N_SERVERS, total // 8))
    t0 = time.perf_counter()
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        body = {"requests": [request_doc(i) for i in range(start, stop)]}
        status, response = svc.request("POST", f"/v1/sessions/{sid}/requests", body)
        assert status == 200, (status, response)
    status, _ = svc.request("POST", f"/v1/sessions/{sid}/flush")
    assert status == 200
    elapsed = time.perf_counter() - t0
    status, plans = svc.request("GET", f"/v1/sessions/{sid}/plans")
    assert status == 200
    batches = plans["batches"]
    planned = sum(len(batch["vm_ids"]) for batch in batches if batch["plan"] is not None)
    svc.request("DELETE", f"/v1/sessions/{sid}")
    return {
        "requests": total,
        "chunk": chunk,
        "coalesce": coalesce,
        "wall_s": elapsed,
        "requests_per_s": total / elapsed,
        "planned_vms": planned,
        "all_planned": planned == total,
    }


def bench_identity(svc: BackgroundService, database: ModelDatabase, total: int) -> dict:
    """Same admitted sequence, three chunkings -> byte-identical batches."""
    coalesce = 8
    documents = {}
    for chunk in (1, 8, total):
        sid = new_session(svc, coalesce=coalesce)
        for start in range(0, total, chunk):
            stop = min(start + chunk, total)
            body = {"requests": [request_doc(i) for i in range(start, stop)]}
            status, _ = svc.request("POST", f"/v1/sessions/{sid}/requests", body)
            assert status == 200
        status, _ = svc.request("POST", f"/v1/sessions/{sid}/flush")
        assert status == 200
        _, plans = svc.request("GET", f"/v1/sessions/{sid}/plans")
        documents[chunk] = json.dumps(plans["batches"], sort_keys=True)
        svc.request("DELETE", f"/v1/sessions/{sid}")
    chunks_identical = len(set(documents.values())) == 1

    # Library-path reference: an in-process session fed the same stream.
    from repro.service.schema import decode_vm_request

    session = Session(
        "sess-0", SessionConfig(n_servers=N_SERVERS, coalesce=coalesce), database
    )
    session.admit([decode_vm_request(request_doc(i)) for i in range(total)])
    session.flush()
    reference = json.dumps(
        [json.loads(json.dumps(record.to_document())) for record in session.batches],
        sort_keys=True,
    )
    library_identical = reference == documents[total]
    return {
        "requests": total,
        "chunkings": sorted(documents),
        "chunks_identical": chunks_identical,
        "library_identical": library_identical,
    }


def _http(port: int, method: str, path: str, body: dict | None = None):
    """One JSON round trip to the loopback service; returns (status, document)."""
    import http.client

    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        connection.request(method, path, body=payload)
        response = connection.getresponse()
        raw = response.read()
        return response.status, (json.loads(raw) if raw else None)
    finally:
        connection.close()


def _liveness_client(port: int, heavy: str, light: str, windows: int, results) -> None:
    """The liveness client, in its own process so it never takes the
    service thread's GIL: queue the heavy windows, then send light
    requests one at a time until the last heavy window commits."""
    body = {
        "requests": [
            {**request_doc(i), "vm_id": f"h{i}"}
            for i in range(windows * HEAVY_COALESCE)
        ]
    }
    t0 = time.perf_counter()
    status, response = _http(port, "POST", f"/v1/sessions/{heavy}/requests", body)
    assert status == 200, (status, response)
    samples = []
    sent = 0
    while _http(port, "GET", f"/v1/sessions/{heavy}")[1]["batches_completed"] < windows:
        start = time.perf_counter()
        status, _ = _http(
            port, "POST", f"/v1/sessions/{light}/requests", {"requests": [request_doc(sent)]}
        )
        assert status == 200
        sent += 1
        while _http(port, "GET", f"/v1/sessions/{light}")[1]["batches_completed"] < sent:
            pass
        elapsed = time.perf_counter() - start
        if _http(port, "GET", f"/v1/sessions/{heavy}")[1]["batches_completed"] < windows:
            samples.append(elapsed)
    results.send((samples, time.perf_counter() - t0))


def bench_liveness(svc: BackgroundService, obs: Observability, windows: int) -> dict:
    """Light requests beside queued heavy windows; the longest slice.

    The heavy session gets ``windows`` full coalesce-12 windows in one
    admission (four VMs of each class per window, the costliest mix of
    twelve).  Light requests (``coalesce=1``) go one at a time until
    the last heavy window commits; a light latency counts when the
    heavy tenant still had a window pending at its plan.  The client
    runs in a child process, as real tenants do.
    """
    import multiprocessing

    heavy = new_session(svc, coalesce=HEAVY_COALESCE, n_servers=HEAVY_SERVERS)
    light = new_session(svc, coalesce=1)
    context = multiprocessing.get_context("spawn")
    receiver, sender = context.Pipe(duplex=False)
    client = context.Process(
        target=_liveness_client, args=(svc.port, heavy, light, windows, sender)
    )
    client.start()
    sender.close()  # a client that dies now ends recv() with EOFError
    samples, heavy_s = receiver.recv()
    client.join(timeout=30)
    histograms = obs.registry.snapshot(include_volatile=True)["histograms"]
    slice_max = max(
        histograms[f'service.window_slice_s{{session="{sid}"}}']["max"]
        for sid in (heavy, light)
    )
    heavy_key = f'service.window_alloc_s{{session="{heavy}"}}'
    svc.request("DELETE", f"/v1/sessions/{heavy}")
    svc.request("DELETE", f"/v1/sessions/{light}")
    return {
        "heavy_windows": windows,
        "heavy_servers": HEAVY_SERVERS,
        "heavy_wall_s": heavy_s,
        "heavy_window_alloc_mean_s": histograms[heavy_key]["mean"],
        "light_samples": len(samples),
        "light_p50_s": statistics.median(samples) if samples else None,
        "light_p99_s": percentile(samples, 99) if samples else None,
        "max_slice_s": slice_max,
    }


def run(quick: bool = False) -> dict:
    print("building campaign database...")
    database = ModelDatabase.from_campaign(run_campaign())
    obs = Observability()
    with BackgroundService(database=database, obs=obs) as svc:
        print("measuring request->plan latency...")
        latency = bench_latency(svc, rounds=10 if quick else 50)
        print(f"  p50 {latency['p50_s'] * 1e3:.2f}ms  p95 {latency['p95_s'] * 1e3:.2f}ms")
        print("measuring coalescing throughput...")
        throughput = bench_throughput(
            svc, total=80 if quick else 320, chunk=32, coalesce=8
        )
        print(
            f"  {throughput['requests_per_s']:.0f} req/s "
            f"({throughput['requests']} requests in {throughput['wall_s']:.2f}s, "
            f"all planned: {throughput['all_planned']})"
        )
        print("checking coalescing identity across chunkings...")
        identity = bench_identity(svc, database, total=24 if quick else 64)
        print(
            f"  chunks identical: {identity['chunks_identical']}, "
            f"library identical: {identity['library_identical']}"
        )
        print("measuring liveness beside a heavy tenant...")
        liveness = bench_liveness(svc, obs, windows=2 if quick else 4)
        print(
            f"  max slice {liveness['max_slice_s'] * 1e3:.2f}ms  light p99 "
            f"{(liveness['light_p99_s'] or 0.0) * 1e3:.2f}ms over "
            f"{liveness['light_samples']} requests"
        )
    document = {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "allocation service: latency, throughput, coalescing identity, liveness",
        "quick": quick,
        "latency": latency,
        "throughput": throughput,
        "identity": identity,
        "liveness": liveness,
    }
    OUTPUT.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUTPUT}")
    return document


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smaller sample counts")
    args = parser.parse_args()
    document = run(quick=args.quick)
    ok = (
        document["throughput"]["all_planned"]
        and document["identity"]["chunks_identical"]
        and document["identity"]["library_identical"]
    )
    sys.exit(0 if ok else 1)

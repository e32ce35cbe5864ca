"""The ``service-mixed`` workload: ``repro serve`` under an open-loop client.

The server runs in its own child process: ``repro serve`` started
through ``perfbench/serve.py``, which samples the server's CPU speed.
This process is the one client: an asyncio loop sends requests on a
fixed schedule over at most ``nproc`` keep-alive connections.  Every
latency is timed from the moment the request was *due*, so a stalled
server also charges the wait it imposes on requests queued behind it.

Phase A -- light tenants only (``coalesce=1``, one VM per admission) at
a few fixed rates.  Transport, decode and encode dominate; each
allocation is about 0.1 ms.  Light sessions are rotated before they
fill, so every VM can be placed.

Phase B -- light tenants at one fixed rate, ``/v1/healthz`` probes and
one heavy tenant (``coalesce=12`` on 256 servers) whose every window
blocks the server's event loop for over a second.  The heavy
allocations then set everyone's latency.  Heavy windows hold four VMs
of each class (in an order drawn from the seed): the costliest mix of
twelve, where a one-class window costs a hundredth as much, so every
window blocks for about the same time.

A light request is done when its plan is visible: the admission
``POST`` answered and a ``GET /v1/sessions/{id}`` reporting the
request's window among the completed batches.  After the phases the
client fetches every session's plans and replays the same admitted
sequences through an in-process ``Session``; the documents must match
byte for byte.

``alloc_p99_ms`` (light requests beside the heavy tenant) is reported at
reference speed: divided by the server's slowdown sampled while heavy
windows were being allocated.  Phase A latencies are raw.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import subprocess
import threading
import time

from common import (
    OUT_DIR, Tracer, interrupt, median, self_time_by_name, slowdown_of, spawn, tail, write_spans,
)
from serve import PROBE_TAG

HOST = "127.0.0.1"
CLASSES = ("cpu", "mem", "io")
LIGHT_SERVERS = 8
#: VMs admitted to one light session before the client moves to the
#: next (an 8-server session holds about 160 VMs).
LIGHT_ROTATE = 120
HEAVY_SERVERS = 256
HEAVY_COALESCE = 12
#: Phase A: (rate in requests/s, share of the run length).  The first
#: step is the base rate that ``alloc_p50_ms`` is read at.
PHASE_A = ((120, 0.36), (240, 0.07), (480, 0.07))
PHASE_B_SHARE = 0.50
PHASE_B_LIGHT_RATE = 120
HEALTHZ_RATE = 100
HEAVY_PERIOD_S = 2.5
HEAVY_FIRST_S = 0.5
STEP_GAP_S = 0.3
#: A phase A step meets the limit when its light tail latency stays
#: under this and its last request completes soon after it was due.
LIGHT_LIMIT_MS = 50.0
DRAIN_LIMIT_S = 0.5
#: A run whose generator sent requests later than this (p99) is invalid.
LATENESS_LIMIT_MS = 20.0
OP_TIMEOUT_S = 30.0
#: Server speed samples needed inside heavy windows to scale by them.
MIN_PROBE_SAMPLES = 5
START_TIMEOUT_S = 60.0
SETUP_SAMPLES = 3


class Conn:
    """A minimal HTTP/1.1 keep-alive JSON client."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Conn":
        reader, writer = await asyncio.open_connection(HOST, port)
        return cls(reader, writer)

    async def request(self, method: str, path: str, body=None):
        payload = b"" if body is None else json.dumps(body).encode()
        self.writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: {HOST}\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n".encode() + payload
        )
        await self.writer.drain()
        status = int((await self.reader.readline()).split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        document = json.loads(await self.reader.readexactly(length)) if length else None
        return status, document

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


# -- schedule -----------------------------------------------------------


class Op:
    """One scheduled operation and what happened to it."""

    __slots__ = ("kind", "due", "step", "session", "docs", "request", "traced",
                 "enqueued", "sent", "admitted", "visible", "ordinal", "ok")

    def __init__(self, kind, due, step, session=None, docs=None, request=0, traced=False):
        self.kind = kind
        self.due = due
        self.step = step
        self.session = session
        self.docs = docs
        self.request = request
        self.traced = traced
        self.enqueued = self.sent = self.admitted = self.visible = None
        self.ordinal = None
        self.ok = False


def build_schedule(seed: int, seconds: int, trace: bool):
    """All operations with their due times (seconds from the phase start).

    Returns ``(ops, steps, light session count)``; ``steps`` maps each
    step name to its ``(start, end, rate)``.  Inputs depend on the seed
    and the run length only.
    """
    from repro.service.schema import SCHEMA_VERSION

    rng = random.Random(seed)
    ops: list[Op] = []
    steps: dict[str, tuple] = {}
    light_count = 0

    def light(due, step):
        nonlocal light_count
        doc = {"schema_version": SCHEMA_VERSION, "vm_id": f"vm{light_count}",
               "workload_class": rng.choice(CLASSES), "max_exec_time_s": None}
        # With tracing on, every other light request is traced; the
        # untraced half is the overhead reference.
        ops.append(Op("light", due, step, session=light_count // LIGHT_ROTATE,
                      docs=[doc], request=light_count,
                      traced=trace and light_count % 2 == 0))
        light_count += 1

    t = 0.0
    for index, (rate, share) in enumerate(PHASE_A):
        length = share * seconds
        name = f"A{index}"
        count = int(length * rate)
        for i in range(count):
            light(t + i / rate, name)
        steps[name] = (t, t + length, rate)
        t += length + STEP_GAP_S
    length = PHASE_B_SHARE * seconds
    steps["B"] = (t, t + length, PHASE_B_LIGHT_RATE)
    for i in range(int(length * PHASE_B_LIGHT_RATE)):
        light(t + i / PHASE_B_LIGHT_RATE, "B")
    for i in range(int(length * HEALTHZ_RATE)):
        ops.append(Op("healthz", t + (i + 0.5) / HEALTHZ_RATE, "B"))
    window = 0
    due = HEAVY_FIRST_S
    while due + HEAVY_PERIOD_S <= length or window == 0:
        classes = list(CLASSES) * (HEAVY_COALESCE // len(CLASSES))
        rng.shuffle(classes)
        docs = [
            {"schema_version": SCHEMA_VERSION, "vm_id": f"h{window}-{j}",
             "workload_class": workload_class, "max_exec_time_s": None}
            for j, workload_class in enumerate(classes)
        ]
        ops.append(Op("heavy", t + due, "B", docs=docs, request=window))
        window += 1
        due += HEAVY_PERIOD_S
    ops.sort(key=lambda op: op.due)
    sessions = (light_count + LIGHT_ROTATE - 1) // LIGHT_ROTATE
    return ops, steps, sessions


# -- server process ------------------------------------------------------


def start_server():
    """Spawn ``repro serve`` on an ephemeral port; return (proc, port, t_spawn)."""
    started = time.perf_counter()
    proc = spawn(["perfbench/serve.py", "--port", "0", "--max-sessions", "256"],
                 stderr=subprocess.PIPE)
    watchdog = threading.Timer(START_TIMEOUT_S, proc.kill)
    watchdog.start()
    port = None
    try:
        while port is None:
            line = proc.stderr.readline()
            if not line:
                interrupt(proc)
                raise RuntimeError("repro serve exited before listening")
            if "listening on http://" in line:
                port = int(line.split("listening on http://", 1)[1].split()[0].rsplit(":", 1)[1])
    finally:
        watchdog.cancel()
    return proc, port, started


def stop_server(proc) -> tuple[int, float, dict]:
    """Stop the server; return (exit code, peak RSS in MB, its speed probe)."""
    code, rss_mb = interrupt(proc)
    for line in proc.stderr.read().splitlines():
        if line.startswith(PROBE_TAG):
            return code, rss_mb, json.loads(line[len(PROBE_TAG):])
    raise RuntimeError(f"repro serve stopped without its speed probe (exit {code})")


async def wait_healthy(port: int, started: float) -> float:
    """Seconds from spawn until ``/v1/healthz`` first answers 200."""
    while True:
        if time.perf_counter() - started > START_TIMEOUT_S:
            raise RuntimeError("repro serve never answered /v1/healthz")
        try:
            conn = await Conn.open(port)
        except OSError:
            await asyncio.sleep(0.005)
            continue
        try:
            status, _ = await conn.request("GET", "/v1/healthz")
        finally:
            await conn.close()
        if status == 200:
            return time.perf_counter() - started


# -- the timed phases ------------------------------------------------------


async def _poll_visible(conn: Conn, session_id: str, ordinal: int) -> bool:
    while True:
        status, info = await conn.request("GET", f"/v1/sessions/{session_id}")
        if status != 200:
            return False
        if info["batches_completed"] >= ordinal:
            return True


async def _execute(conn: Conn, op: Op, light_ids, heavy_id, depth: list) -> None:
    op.sent = time.perf_counter()
    if op.kind == "healthz":
        status, _ = await conn.request("GET", "/v1/healthz")
        op.visible = time.perf_counter()
        op.ok = status == 200
        return
    session_id = light_ids[op.session] if op.kind == "light" else heavy_id
    status, body = await conn.request(
        "POST", f"/v1/sessions/{session_id}/requests", {"requests": op.docs}
    )
    op.admitted = time.perf_counter()
    if status != 200:
        return
    depth[0] = max(depth[0], body["queue_depth"])
    op.ordinal = body["admitted_total"]
    windows = op.ordinal if op.kind == "light" else op.ordinal // HEAVY_COALESCE
    op.ok = await _poll_visible(conn, session_id, windows)
    op.visible = time.perf_counter()


async def _worker(port: int, queue: asyncio.Queue, light_ids, heavy_id, depth) -> None:
    conn = await Conn.open(port)
    try:
        while True:
            op = await queue.get()
            if op is None:
                return
            try:
                await asyncio.wait_for(
                    _execute(conn, op, light_ids, heavy_id, depth), OP_TIMEOUT_S
                )
            except (asyncio.TimeoutError, ConnectionError, OSError, ValueError, KeyError):
                op.ok = False
                # The connection may still owe a response: start afresh.
                await conn.close()
                conn = await Conn.open(port)
    finally:
        await conn.close()


async def drive(port: int, ops, light_sessions: int, connections: int) -> dict:
    control = await Conn.open(port)
    light_ids = []
    for _ in range(light_sessions):
        status, body = await control.request(
            "POST", "/v1/sessions", {"n_servers": LIGHT_SERVERS, "coalesce": 1}
        )
        if status != 201:
            raise RuntimeError(f"light session creation failed: {status} {body}")
        light_ids.append(body["session_id"])
    status, body = await control.request(
        "POST", "/v1/sessions", {"n_servers": HEAVY_SERVERS, "coalesce": HEAVY_COALESCE}
    )
    if status != 201:
        raise RuntimeError(f"heavy session creation failed: {status} {body}")
    heavy_id = body["session_id"]

    queue: asyncio.Queue = asyncio.Queue()
    depth = [0]
    workers = [
        asyncio.ensure_future(_worker(port, queue, light_ids, heavy_id, depth))
        for _ in range(connections)
    ]
    t0 = time.perf_counter() + 0.05
    for op in ops:
        op.due += t0
        delay = op.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        op.enqueued = time.perf_counter()
        queue.put_nowait(op)
    for _ in workers:
        queue.put_nowait(None)
    await asyncio.gather(*workers)
    finished = time.perf_counter()

    status, snapshot = await control.request("GET", "/v1/metrics")
    plans = {}
    for sid in light_ids + [heavy_id]:
        status, body = await control.request("GET", f"/v1/sessions/{sid}/plans")
        plans[sid] = body["batches"] if status == 200 else None
    await control.close()
    return {"t0": t0, "finished": finished, "snapshot": snapshot, "plans": plans,
            "light_ids": light_ids, "heavy_id": heavy_id, "queue_depth_max": depth[0]}


# -- correctness -----------------------------------------------------------


def replay(ops, run, tracer: Tracer) -> dict:
    """Feed each session's admitted sequence to an in-process Session.

    Returns the checks and the in-process allocation times per window.
    The model is rebuilt here with the calls the server makes at
    start-up, under spans, to split the server's set-up time.
    """
    from repro.campaign.platformrunner import run_campaign
    from repro.core.model import ModelDatabase
    from repro.service.schema import decode_vm_request
    from repro.service.session import Session, SessionConfig

    with tracer.span("campaign.run"):
        campaign = run_campaign()
    with tracer.span("model.build"):
        database = ModelDatabase.from_campaign(campaign)
    checks = []
    light_ms = []
    by_session: dict = {}
    for op in ops:
        if op.kind == "light" and op.ordinal is not None:
            by_session.setdefault(op.session, []).append(op)
    for index, sid in enumerate(run["light_ids"]):
        admitted = sorted(by_session.get(index, []), key=lambda op: op.ordinal)
        session = Session(sid, SessionConfig(n_servers=LIGHT_SERVERS, coalesce=1), database)
        for op in admitted:
            session.admit([decode_vm_request(doc) for doc in op.docs])
            start = time.perf_counter()
            session.run_ready_batches()
            light_ms.append((time.perf_counter() - start) * 1e3)
        expected = [record.to_document() for record in session.batches]
        checks.append((f"light session {sid}: plans equal in-process Session",
                       _same(expected, run["plans"][sid])))
    heavy = sorted((op for op in ops if op.kind == "heavy" and op.ordinal is not None),
                   key=lambda op: op.ordinal)
    heavy_s = None
    if heavy:
        session = Session(run["heavy_id"],
                          SessionConfig(n_servers=HEAVY_SERVERS, coalesce=HEAVY_COALESCE),
                          database)
        session.admit([decode_vm_request(doc) for doc in heavy[0].docs])
        start = time.perf_counter()
        session.run_ready_batches()
        heavy_s = time.perf_counter() - start
        served = run["plans"][run["heavy_id"]]
        checks.append(("heavy first window: plan equals in-process Session",
                       served is not None and _same(
                           [session.batches[0].to_document()], served[:1])))
    else:
        checks.append(("heavy first window: admitted", False))
    return {"checks": checks, "light_ms": light_ms, "heavy_s": heavy_s,
            "records": len(campaign.records)}


def _same(expected, served) -> bool:
    if served is None:
        return False
    # Both sides through the same JSON encoder, as the wire does.
    return json.dumps(expected, sort_keys=True) == json.dumps(served, sort_keys=True)


# -- metrics ---------------------------------------------------------------


def _latencies_ms(ops, step, kind="light", traced=None):
    return [
        (op.visible - op.due) * 1e3
        for op in ops
        if op.kind == kind and op.step == step and op.ok
        and (traced is None or op.traced == traced)
    ]


def _step_verdicts(ops, steps) -> dict:
    verdicts = {}
    for name, (_start, _end, rate) in steps.items():
        if not name.startswith("A"):
            continue
        done = [op for op in ops if op.step == name and op.kind == "light"]
        latencies = _latencies_ms(ops, name)
        value, pct, n = tail(latencies, 99.0)
        last_due = max(op.due for op in done)
        last_visible = max((op.visible for op in done if op.visible), default=float("inf"))
        first_due = min(op.due for op in done)
        met = (
            value is not None and value <= LIGHT_LIMIT_MS
            and len(latencies) == len(done)
            and last_visible - last_due <= DRAIN_LIMIT_S
        )
        verdicts[name] = {
            "rate": rate, "tail_ms": value, "tail_pct": pct, "n": n, "met": met,
            "achieved_per_s": len(latencies) / (last_visible - first_due),
        }
    return verdicts


def _counter(snapshot, prefix) -> int:
    return sum(v for k, v in snapshot.get("counters", {}).items() if k.startswith(prefix))


def summarize(ops, steps, run, checked, trace: bool, tracer: Tracer) -> dict:
    """End-to-end metrics (and, with tracing, the per-layer ones)."""
    lateness = [(op.enqueued - op.due) * 1e3 for op in ops]
    late_p99, late_pct, _ = tail(lateness, 99.0)
    verdicts = _step_verdicts(ops, steps)
    passing = [v for v in verdicts.values() if v["met"]]
    # With no rate meeting the limit, the base rate's throughput stands
    # in, and the report says so.
    best = max(passing, key=lambda v: v["rate"]) if passing else verdicts["A0"]
    base = _latencies_ms(ops, "A0")
    light_p50, _, n_base = tail(base, 50.0)
    light_p99, light_p99_pct, _ = tail(base, 99.0)
    under = _latencies_ms(ops, "B")
    under_p99, under_pct, n_under = tail(under, 99.0)
    health = _latencies_ms(ops, "B", kind="healthz")
    health_p99, health_pct, n_health = tail(health, 99.0)
    heavy_ops = [op for op in ops if op.kind == "heavy" and op.ok]
    heavy_windows = [op.visible - op.admitted for op in heavy_ops]
    # Under the heavy tenant the server's allocations set the tail, so
    # it is reported at reference speed: divided by the server's
    # slowdown sampled while heavy windows were being allocated.
    probe = run["server_probe"]
    busy = [
        sample for stamp, sample in zip(probe["times"], probe["samples"])
        if any(op.admitted <= stamp <= op.visible for op in heavy_ops)
    ]
    heavy_slowdown = slowdown_of(busy if len(busy) >= MIN_PROBE_SAMPLES else probe["samples"])

    # The light sessions' final allocation: each server's latest estimate.
    final: dict = {}
    for sid in run["light_ids"]:
        for batch in run["plans"][sid] or []:
            for assignment in (batch["plan"] or {}).get("assignments", ()):
                final[(sid, assignment["server_id"])] = (
                    assignment["estimate"]["energy_j"],
                    sum(assignment["combined"].values()),
                    assignment["estimate"]["time_s"],
                )
    makespans: dict = {}
    for (sid, _server), (_energy, _vms, time_s) in final.items():
        makespans[sid] = max(makespans.get(sid, 0.0), time_s)
    result = {
        "end_to_end": {
            "vms_per_s": best["achieved_per_s"],
            "energy_j_per_vm": (sum(entry[0] for entry in final.values())
                                / sum(entry[1] for entry in final.values())),
            "makespan_s": sum(makespans.values()) / len(makespans),
            "alloc_p50_ms": light_p50,
            "alloc_p99_ms": None if under_p99 is None else under_p99 / heavy_slowdown,
        },
        "report": {
            "steps": verdicts,
            "light_p50_ms": [light_p50, 50.0, n_base],
            "light_p99_ms": [light_p99, light_p99_pct, n_base],
            "light_p99_under_heavy_ms": [under_p99, under_pct, n_under],
            "healthz_p99_ms": [health_p99, health_pct, n_health],
            "heavy_window_s": [median(heavy_windows), 50.0, len(heavy_windows)],
            "client_lateness_p99_ms": [late_p99, late_pct, len(lateness)],
            "server_slowdown_under_heavy": [heavy_slowdown, len(busy)],
            "max_light_rps": best["achieved_per_s"] if passing else "no rate met the limit",
        },
        "lateness_p99_ms": late_p99,
    }
    if trace:
        result["per_layer"] = _per_layer(ops, steps, run, checked, tracer, result)
    return result


def _per_layer(ops, steps, run, checked, tracer: Tracer, result) -> dict:
    traced = [op for op in ops if op.kind == "light" and op.traced and op.ok]
    for op in traced:
        root = tracer.record("service.request", op.due, op.visible, request=op.request)
        tracer.record("client.wait", op.due, op.sent, parent=root, request=op.request)
        tracer.record("service.admit", op.sent, op.admitted, parent=root, request=op.request)
        tracer.record("service.poll", op.admitted, op.visible, parent=root, request=op.request)
    by_name = self_time_by_name(tracer.spans)
    total = sum(op.visible - op.due for op in traced)
    covered = total - by_name.get("service.request", 0.0)
    # Round trips are stamped on every request, traced or not.
    base = [op for op in ops if op.kind == "light" and op.step == "A0" and op.ok]
    admit = [(op.admitted - op.sent) * 1e3 for op in base]
    lag = [(op.visible - op.admitted) * 1e3 for op in base]
    admit_p50, _, _ = tail(admit, 50.0)
    admit_p99, _, _ = tail(admit, 99.0)
    lag_p50, _, _ = tail(lag, 50.0)
    light_alloc_ms = median(checked["light_ms"]) or 0.0
    heavy_alloc_s = checked["heavy_s"] or 0.0
    snapshot = run["snapshot"] or {}
    gauges = snapshot.get("gauges", {})
    depth_max = max(
        [run["queue_depth_max"]]
        + [g["max"] for k, g in gauges.items() if k.startswith("service.queue_depth")]
    )
    untraced_p50 = median(_latencies_ms(ops, "A0", traced=False))
    traced_p50 = median(_latencies_ms(ops, "A0", traced=True))
    a_wall = sum(end - start for name, (start, end, _r) in steps.items() if name != "B")
    b_start, b_end, _ = steps["B"]
    a_windows = sum(1 for op in ops if op.kind == "light" and op.step != "B" and op.ok)
    b_light = sum(1 for op in ops if op.kind == "light" and op.step == "B" and op.ok)
    b_heavy = sum(1 for op in ops if op.kind == "heavy" and op.ok)
    report = result["report"]
    provenance = [
        batch["plan"]["search_provenance"]
        for batches in run["plans"].values()
        for batch in (batches or [])
        if batch["plan"] is not None and batch["plan"]["search_provenance"] is not None
    ]
    grid = sum(p["grid_hits"] + p["grid_misses"] for p in provenance)
    alloc_s = sum(checked["light_ms"]) / 1e3 + b_heavy * heavy_alloc_s
    return {
        "campaign.run_s": by_name.get("campaign.run", 0.0),
        "campaign.records": checked["records"],
        "model.build_s": by_name.get("model.build", 0.0),
        "allocator.calls": len(provenance),
        "allocator.place_s": alloc_s,
        "allocator.share_pct": 100.0 * alloc_s / (run["finished"] - run["t0"]),
        "allocator.partitions_enumerated": sum(p["partitions_enumerated"] for p in provenance),
        "allocator.candidates_feasible": sum(p["candidates_feasible"] for p in provenance),
        "allocator.subtrees_pruned": sum(
            p["pruned_infeasible_subtrees"] + p["pruned_dominated_subtrees"]
            for p in provenance
        ),
        "allocator.frontier_peak": max((p["frontier_peak"] for p in provenance), default=0),
        "allocator.grid_hit_ratio": (
            sum(p["grid_hits"] for p in provenance) / grid if grid else 0.0
        ),
        "service.admit_rtt_p50_ms": admit_p50,
        "service.admit_rtt_p99_ms": admit_p99,
        "service.plan_lag_p50_ms": lag_p50,
        "service.window_alloc_ms.light": light_alloc_ms,
        "service.window_alloc_s.heavy": heavy_alloc_s,
        "service.transport_ms": admit_p50 + lag_p50 - light_alloc_ms,
        "service.batches": _counter(snapshot, "service.batches"),
        "service.batch_failures": _counter(snapshot, "service.batch_failures"),
        "service.http_errors": _counter(snapshot, "service.http.errors"),
        "service.queue_depth_max": depth_max,
        "service.light_p99_ms": report["light_p99_ms"][0],
        "service.healthz_p99_ms": report["healthz_p99_ms"][0],
        "service.heavy_window_s": report["heavy_window_s"][0],
        "service.phase_a_alloc_share_pct": 100.0 * a_windows * light_alloc_ms / 1e3 / a_wall,
        "service.phase_b_alloc_share_pct": 100.0 * (
            b_heavy * heavy_alloc_s + b_light * light_alloc_ms / 1e3
        ) / (b_end - b_start),
        "client.lateness_p99_ms": result["lateness_p99_ms"],
        "trace.overhead_pct": 100.0 * (traced_p50 / untraced_p50 - 1.0),
        "trace.coverage_pct": 100.0 * covered / total,
    }


# -- entry -------------------------------------------------------------------


def run_service(seed: int, seconds: int, trace: bool) -> dict:
    """Set up, drive both phases, check, and return the results."""
    connections = max(1, min(2, os.cpu_count() or 1))
    raw_setup = []
    probes = []
    answered = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, port, started = start_server()
        try:
            raw_setup.append(asyncio.run(wait_healthy(port, started)))
            answered.append(started + raw_setup[-1])
        finally:
            probes.append(stop_server(proc)[2])
    proc, port, started = start_server()
    try:
        raw_setup.append(asyncio.run(wait_healthy(port, started)))
        answered.append(started + raw_setup[-1])
        ops, steps, sessions = build_schedule(seed, seconds, trace)
        run = asyncio.run(drive(port, ops, sessions, connections))
    finally:
        code, rss_mb, run_probe = stop_server(proc)
    probes.append(run_probe)
    run["server_probe"] = run_probe
    # Set-up at reference speed: scaled by the server's own samples
    # taken before it first answered (imports and the campaign).
    setup = []
    for raw, probe, ready in zip(raw_setup, probes, answered):
        early = [sample for stamp, sample in zip(probe["times"], probe["samples"])
                 if stamp <= ready]
        setup.append(raw / slowdown_of(early or probe["samples"]))
    t0 = run["t0"]
    steps = {name: (s + t0, e + t0, r) for name, (s, e, r) in steps.items()}
    tracer = Tracer(enabled=trace)
    checked = replay(ops, run, tracer)
    summary = summarize(ops, steps, run, checked, trace, tracer)
    summary["report"]["raw_setup_s"] = raw_setup
    if trace:
        write_spans(tracer.spans, OUT_DIR / f"service-mixed-{seed}-spans.jsonl")
    checks = list(checked["checks"])
    checks.append(("server exited cleanly", code == 0))
    valid = summary["lateness_p99_ms"] is not None and (
        summary["lateness_p99_ms"] <= LATENESS_LIMIT_MS
    )
    checks.append(("generator kept to its schedule", valid))
    failed_ops = sum(1 for op in ops if not op.ok)
    return {
        "setup_samples": setup,
        "peak_rss_mb": rss_mb,
        "ops": len(ops),
        "failed_ops": failed_ops,
        "checks": checks,
        "summary": summary,
        "connections": connections,
    }

"""Time-sliced windows: a heavy window shares the event loop.

Each test runs the service and an asyncio HTTP client on one event
loop and starts a coalesce-12 window on 256 servers (about 6,700
evaluated partitions).  ``WINDOW_SLICE_S`` is set to 0 here, so the
window yields the loop after every partition and stays in flight for
thousands of loop turns while a client round trip takes a handful.
The assertions are about the order of events, never about wall time:

* ``/v1/healthz`` and a light tenant's plan are answered while the
  heavy window is still in flight;
* faults, ``PUT .../state``, flush and delete sent mid-window apply
  after that window commits, and the plans equal an in-process
  :class:`~repro.service.session.Session` running the same operations
  in the same order;
* two interleaved heavy windows leave a well-formed span tree, and the
  slice histogram enters the deterministic snapshot as a count only.
"""

from __future__ import annotations

import asyncio
import io
import json

import pytest

import repro.service.server as server
from repro.obs.registry import MetricsRegistry
from repro.obs.runtime import Observability, observed
from repro.obs.tracer import Tracer
from repro.service.schema import decode_fault_spec, decode_vm_request
from repro.service.server import Service, ServiceConfig
from repro.service.session import Session, SessionConfig

CLASSES = ("cpu", "mem", "io")
HEAVY = {"n_servers": 256, "coalesce": 12}
LIGHT = {"n_servers": 8, "coalesce": 1}


def doc(vm_id, index):
    return {
        "schema_version": "1",
        "vm_id": vm_id,
        "workload_class": CLASSES[index % len(CLASSES)],
        "max_exec_time_s": None,
    }


def heavy_docs(prefix="h", n=12):
    return [doc(f"{prefix}{i}", i) for i in range(n)]


@pytest.fixture(autouse=True)
def every_partition_a_slice(monkeypatch):
    monkeypatch.setattr(server, "WINDOW_SLICE_S", 0.0)


class Client:
    """One-shot HTTP/1.1 JSON requests on the running loop."""

    def __init__(self, service: Service):
        self.service = service

    async def request(self, method, path, body=None):
        reader, writer = await asyncio.open_connection(
            self.service.config.host, self.service.port
        )
        payload = b"" if body is None else json.dumps(body).encode()
        writer.write(
            f"{method} {path} HTTP/1.1\r\nContent-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n".encode() + payload
        )
        await writer.drain()
        status = int((await reader.readline()).split()[1])
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        document = json.loads(await reader.readexactly(length)) if length else None
        writer.close()
        await writer.wait_closed()
        return status, document

    async def create(self, config):
        status, body = await self.request("POST", "/v1/sessions", config)
        assert status == 201, body
        return body["session_id"]

    async def admit(self, sid, docs):
        status, body = await self.request(
            "POST", f"/v1/sessions/{sid}/requests", {"requests": docs}
        )
        assert status == 200, body
        return body

    async def completed(self, sid):
        status, info = await self.request("GET", f"/v1/sessions/{sid}")
        assert status == 200, info
        return info["batches_completed"]

    async def plans(self, sid):
        status, body = await self.request("GET", f"/v1/sessions/{sid}/plans")
        assert status == 200, body
        return body["batches"]


#: Generous bound on one scenario; they take about a second.
SCENARIO_TIMEOUT_S = 120.0


def run(database, scenario, obs=None):
    """Start a service on this thread's loop and run ``scenario`` on it."""

    async def main():
        service = Service(ServiceConfig(port=0), database=database, obs=obs)
        await service.start()
        try:
            return await asyncio.wait_for(
                scenario(service, Client(service)), SCENARIO_TIMEOUT_S
            )
        finally:
            await service.stop()

    return asyncio.run(main())


def slices(registry, sid):
    return registry.histogram(
        "service.window_slice_s", unit="s", volatile=True, session=sid
    ).count


async def window_in_flight(registry, session: Session):
    """Return once ``session``'s first window has run a slice."""
    while slices(registry, session.session_id) == 0:
        await asyncio.sleep(0)
    assert session.batches == [], "the window committed before it was seen"


def rendered(batches):
    return json.dumps(batches, sort_keys=True)


def reference_session(database, config, registry=None):
    return Session("ref", SessionConfig(**config), database, registry=registry)


def requests_of(docs):
    return [decode_vm_request(d) for d in docs]


def test_healthz_and_light_plans_answer_mid_window(database):
    obs = Observability()

    async def scenario(service, client):
        heavy = await client.create(HEAVY)
        light = await client.create(LIGHT)
        await client.admit(heavy, heavy_docs())
        await window_in_flight(obs.registry, service._sessions[heavy])
        events = []
        status, _ = await client.request("GET", "/v1/healthz")
        assert status == 200
        events.append(("healthz", await client.completed(heavy)))
        await client.admit(light, [doc("l0", 0)])
        while await client.completed(light) < 1:
            pass
        events.append(("light plan", await client.completed(heavy)))
        while await client.completed(heavy) < 1:
            await asyncio.sleep(0)
        events.append(("heavy plan", await client.completed(heavy)))
        return events, await client.plans(light)

    events, light_plans = run(database, scenario, obs)
    # Both answers came while the heavy window had not committed.
    assert events == [("healthz", 0), ("light plan", 0), ("heavy plan", 1)]
    assert light_plans[0]["plan"] is not None


def crash_spec(server_index):
    return {
        "schema_version": "1",
        "events": [{"kind": "server_crash", "server": server_index, "time_s": 1.0}],
    }


def test_faults_apply_after_the_in_flight_window(database):
    obs = Observability()
    spec = crash_spec(0)

    async def scenario(service, client):
        sid = await client.create(HEAVY)
        await client.admit(sid, heavy_docs())
        await window_in_flight(obs.registry, service._sessions[sid])
        status, body = await client.request("POST", f"/v1/sessions/{sid}/faults", spec)
        assert status == 200, body
        committed = await client.completed(sid)
        status, _ = await client.request("POST", f"/v1/sessions/{sid}/flush")
        assert status == 200
        return committed, body["records"], await client.plans(sid)

    committed, records, plans = run(database, scenario, obs)
    assert committed == 1
    assert records[0]["vm_ids"], "the crash evicted VMs the window had placed"

    reference = reference_session(database, HEAVY)
    reference.admit(requests_of(heavy_docs()))
    reference.run_ready_batches()
    expected = reference.apply_faults(decode_fault_spec(spec))
    reference.flush()
    assert [r["vm_ids"] for r in records] == [list(r.vm_ids) for r in expected]
    assert rendered(plans) == rendered(
        [json.loads(json.dumps(r.to_document())) for r in reference.batches]
    )


def test_put_state_applies_after_the_in_flight_window(database):
    obs = Observability()

    async def scenario(service, client):
        sid = await client.create(HEAVY)
        await client.admit(sid, heavy_docs())
        await window_in_flight(obs.registry, service._sessions[sid])
        status, snapshot = await client.request("GET", f"/v1/sessions/{sid}/state")
        assert status == 200
        assert await client.completed(sid) == 0
        status, info = await client.request("PUT", f"/v1/sessions/{sid}/state", snapshot)
        assert status == 200, info
        # The restore replaced a committed window: the loop runs it again.
        while await client.completed(sid) < 1:
            await asyncio.sleep(0)
        status, metrics = await client.request("GET", "/v1/metrics")
        return snapshot, await client.plans(sid), metrics["counters"]

    snapshot, plans, counters = run(database, scenario, obs)

    registry = MetricsRegistry()
    reference = reference_session(database, HEAVY, registry=registry)
    reference.admit(requests_of(heavy_docs()))
    before = reference.state_document()
    # The mid-window snapshot is the pre-window state.
    assert {k: v for k, v in snapshot.items() if k != "session_id"} == {
        k: v for k, v in before.items() if k != "session_id"
    }
    reference.run_ready_batches()
    reference.restore(before)
    reference.run_ready_batches()
    assert counters["service.batches"] == registry.counter("service.batches").value == 2
    assert rendered(plans) == rendered(
        [json.loads(json.dumps(r.to_document())) for r in reference.batches]
    )


def test_flush_applies_after_the_in_flight_window(database):
    obs = Observability()

    async def scenario(service, client):
        sid = await client.create(HEAVY)
        await client.admit(sid, heavy_docs())
        await window_in_flight(obs.registry, service._sessions[sid])
        # Admission never waits for the window; it queues behind it.
        admitted = await client.admit(sid, heavy_docs("t", 5))
        status, flushed = await client.request("POST", f"/v1/sessions/{sid}/flush")
        assert status == 200
        return admitted, flushed["batches"], await client.plans(sid)

    admitted, flushed, plans = run(database, scenario, obs)
    assert admitted["queue_depth"] == 17
    # The batching loop committed the full window; flush ran the tail.
    assert [len(batch["vm_ids"]) for batch in flushed] == [5]

    reference = reference_session(database, HEAVY)
    reference.admit(requests_of(heavy_docs()))
    reference.run_ready_batches()
    reference.admit(requests_of(heavy_docs("t", 5)))
    reference.flush()
    assert rendered(plans) == rendered(
        [json.loads(json.dumps(r.to_document())) for r in reference.batches]
    )


def test_delete_applies_after_the_in_flight_window(database):
    obs = Observability()

    async def scenario(service, client):
        sid = await client.create(HEAVY)
        await client.admit(sid, heavy_docs())
        session = service._sessions[sid]
        await window_in_flight(obs.registry, session)
        status, body = await client.request("DELETE", f"/v1/sessions/{sid}")
        assert status == 200, body
        status, _ = await client.request("GET", f"/v1/sessions/{sid}")
        return session.batches, status

    batches, status = run(database, scenario, obs)
    assert status == 404
    assert len(batches) == 1 and batches[0].plan is not None


def test_interleaved_windows_leave_a_well_formed_span_tree(database):
    sink = io.StringIO()

    async def scenario(service, client):
        first = await client.create(HEAVY)
        second = await client.create(HEAVY)
        await client.admit(first, heavy_docs("a"))
        await client.admit(second, heavy_docs("b"))
        registry = service._registry
        await window_in_flight(registry, service._sessions[first])
        await window_in_flight(registry, service._sessions[second])
        while min([await client.completed(first), await client.completed(second)]) < 1:
            await asyncio.sleep(0)
        status, snapshot = await client.request("GET", "/v1/metrics")
        return first, second, snapshot

    with observed(tracer=Tracer(sink)) as obs:
        first, second, snapshot = run(database, scenario)

    events = [json.loads(line) for line in sink.getvalue().splitlines()]
    opened = {}
    closed = set()
    for event in events:
        span_id = event["span_id"]
        if event["event"] == "open":
            assert span_id not in opened
            assert event["parent_id"] is None or (
                event["parent_id"] in opened and event["parent_id"] not in closed
            )
            opened[span_id] = event
        elif event["event"] == "close":
            assert span_id in opened and span_id not in closed
            assert event["parent_id"] == opened[span_id]["parent_id"]
            closed.add(span_id)
    assert closed == set(opened)
    windows = [e for e in events if e["name"] == "allocator.allocate"]
    assert len(windows) == 4
    # The two windows overlapped, and neither became the other's parent.
    assert [e["event"] for e in windows] == ["open", "open", "close", "close"]
    assert all(e["parent_id"] is None for e in windows)

    full = obs.registry.snapshot(include_volatile=True)["histograms"]
    for sid in (first, second):
        key = f'service.window_slice_s{{session="{sid}"}}'
        entry = snapshot["histograms"][key]
        assert entry["volatile"] is True and entry["unit"] == "s"
        assert set(entry) == {"count", "unit", "volatile"}
        assert entry["count"] == full[key]["count"] > 100
        # The window's loop time is the sum of its slices.
        held = full[f'service.window_alloc_s{{session="{sid}"}}']
        assert held["count"] == 1
        assert held["sum"] == pytest.approx(full[key]["sum"])

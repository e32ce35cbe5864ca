"""Tests for the benchmark's own helpers.

Run:  python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import re

import pytest

from common import MIN_BEYOND, ROOT, Tracer, self_time_by_name, self_times, tail

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
META = json.loads((ROOT / "perfbench" / "meta.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.mark.parametrize("n", [0, 1, 19, 20, 99, 100, 199, 999, 1000, 5000, 20000])
@pytest.mark.parametrize("pct", [50.0, 90.0, 99.0, 99.9])
def test_tail_never_reports_fewer_than_ten_beyond(n, pct):
    samples = list(range(n))
    value, reported, count = tail(samples, pct)
    assert count == n
    if value is None:
        assert reported is None
        assert n * 0.5 < MIN_BEYOND
        return
    assert reported <= pct
    beyond = sum(1 for sample in samples if sample > value)
    assert beyond >= MIN_BEYOND


def test_tail_keeps_the_requested_percentile_when_supported():
    assert tail(range(1000), 99.0) == (989, 99.0, 1000)
    assert tail(range(999), 99.0)[1] == 98.0
    assert tail(range(10), 50.0) == (None, None, 10)


def test_self_time_of_nested_spans():
    spans = [
        # id, parent, name, start, end, request
        (1, None, "root", 0.0, 10.0, 7),
        (2, 1, "a", 1.0, 4.0, 7),
        (3, 1, "b", 3.0, 6.0, 7),  # overlaps a: the union counts once
        (4, 2, "a.child", 2.0, 3.0, 7),
        (5, 1, "c", 8.0, 12.0, 7),  # runs past its parent: clipped
    ]
    selfs = self_times(spans)
    assert selfs == {1: 3.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 4.0}
    by_name = self_time_by_name(spans)
    assert by_name["root"] == 3.0
    assert sum(selfs[i] for i in (1, 2, 3, 4)) == pytest.approx(9.0)


def test_tracer_records_parents_and_request_ids():
    tracer = Tracer()
    with tracer.span("outer", request=3):
        with tracer.span("inner", request=3):
            pass
        with tracer.span("inner", request=3):
            pass
    spans = {span[0]: span for span in tracer.spans}
    outer = [s for s in spans.values() if s[2] == "outer"][0]
    inners = [s for s in spans.values() if s[2] == "inner"]
    assert outer[1] is None
    assert all(s[1] == outer[0] for s in inners)
    assert all(s[5] == 3 for s in spans.values())
    assert all(s[3] <= s[4] for s in spans.values())
    disabled = Tracer(enabled=False)
    with disabled.span("x"):
        pass
    assert disabled.spans == []


def _metrics():
    return SPEC["end_to_end"] + SPEC["per_layer"]


def test_metric_names_and_units_are_well_formed():
    names = [metric["name"] for metric in _metrics()]
    assert len(names) == len(set(names))
    for metric in _metrics():
        assert NAME.fullmatch(metric["name"]), metric["name"]
        assert UNIT.fullmatch(metric["unit"]), metric["unit"]
        assert metric["better"] in ("higher", "lower")
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]


def test_every_per_layer_entry_maps_to_existing_metrics_and_workloads():
    end_to_end = {metric["name"] for metric in SPEC["end_to_end"]}
    workloads = {workload["name"] for workload in SPEC["workloads"]}
    assert workloads == set(META["workloads"])
    assert set(META["per_layer"]) == {metric["name"] for metric in SPEC["per_layer"]}
    for name, entry in META["per_layer"].items():
        assert entry["moves"] and set(entry["moves"]) <= end_to_end, name
        assert entry["workloads"] and set(entry["workloads"]) <= workloads, name
    assert set(META["end_to_end"]) == end_to_end

"""Unit tests for the SWF reader/writer/merger."""

from dataclasses import replace

import pytest

from repro.common.errors import TraceFormatError
from repro.workloads.swf import (
    N_FIELDS,
    JobStatus,
    SWFRecord,
    merge_swf,
    read_swf,
    write_swf,
)


def record(job=1, submit=0, run=100, status=JobStatus.COMPLETED, procs=1):
    return SWFRecord(
        job_number=job,
        submit_time=submit,
        run_time=run,
        status=int(status),
        allocated_procs=procs,
    )


class TestRecord:
    def test_field_count(self):
        assert len(record().as_fields()) == N_FIELDS

    def test_from_fields_roundtrip(self):
        original = record(job=7, submit=33)
        assert SWFRecord.from_fields(original.as_fields()) == original

    def test_from_fields_wrong_arity(self):
        with pytest.raises(ValueError):
            SWFRecord.from_fields([1, 2, 3])

    def test_status_enum(self):
        assert record(status=JobStatus.FAILED).job_status is JobStatus.FAILED
        assert record().completed

    def test_unknown_status_maps_to_unknown(self):
        r = SWFRecord(job_number=1, submit_time=0, status=42)
        assert r.job_status is JobStatus.UNKNOWN

    def test_shifted(self):
        assert record(submit=10).shifted(5).submit_time == 15


class TestFileRoundTrip:
    def test_roundtrip(self, tmp_path):
        records = [record(job=1), record(job=2, submit=10)]
        path = tmp_path / "trace.swf"
        write_swf(records, path, comments=["; Version: 2.2", "UnixStartTime: 0"])
        comments, loaded = read_swf(path)
        assert loaded == records
        assert comments[0] == "; Version: 2.2"
        assert comments[1].startswith(";")  # prefix added when missing

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "trace.swf"
        line = " ".join(str(f) for f in record().as_fields())
        path.write_text(f"\n{line}\n\n")
        _, loaded = read_swf(path)
        assert len(loaded) == 1

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "trace.swf"
        path.write_text("1 2 3\n")
        with pytest.raises(TraceFormatError, match="line 1"):
            read_swf(path)

    def test_non_integer_rejected(self, tmp_path):
        path = tmp_path / "trace.swf"
        fields = ["x"] + ["0"] * (N_FIELDS - 1)
        path.write_text(" ".join(fields) + "\n")
        with pytest.raises(TraceFormatError):
            read_swf(path)


class TestMerge:
    def test_merge_sorts_by_submit(self):
        a = [record(job=1, submit=100)]
        b = [record(job=1, submit=50)]
        merged = merge_swf([a, b])
        assert [r.submit_time for r in merged] == [50, 100]

    def test_merge_renumbers(self):
        a = [record(job=1, submit=0), record(job=2, submit=5)]
        b = [record(job=1, submit=3)]
        merged = merge_swf([a, b])
        assert [r.job_number for r in merged] == [1, 2, 3]

    def test_merge_empty(self):
        assert merge_swf([]) == []
        assert merge_swf([[], []]) == []


class TestRenumbering:
    """Merging and cleaning build renumbered records directly; they must
    equal the ``dataclasses.replace`` copies field for field."""

    @staticmethod
    def site_traces():
        from repro.workloads.rawlogs import parse_raw_log, raw_log_to_swf
        from repro.workloads.synthetic import EGEETraceConfig, generate_raw_grid_logs

        logs = generate_raw_grid_logs(EGEETraceConfig(n_jobs=400), rng=20110516)
        return [raw_log_to_swf(parse_raw_log(lines, dialect)) for dialect, lines in logs]

    def test_renumbered_equals_replace(self):
        original = record(job=7, submit=40, run=9, procs=3)
        copy = original.renumbered(2, 15)
        assert copy == replace(original, job_number=2, submit_time=15)
        assert copy.as_fields()[2:] == original.as_fields()[2:]

    def test_merge_matches_replace_on_generated_trace(self):
        traces = self.site_traces()
        ordered = sorted(
            (r for trace in traces for r in trace), key=lambda r: r.submit_time
        )
        expected = [replace(r, job_number=i) for i, r in enumerate(ordered, start=1)]
        merged = merge_swf(traces)
        assert len(merged) == len(expected) > 0
        assert [r.as_fields() for r in merged] == [r.as_fields() for r in expected]

    def test_clean_matches_replace_on_generated_trace(self):
        from repro.workloads.cleaning import _is_anomalous, clean_trace

        merged = merge_swf(self.site_traces())
        survivors = sorted(
            (
                r
                for r in merged
                if r.job_status is JobStatus.COMPLETED and not _is_anomalous(r)
            ),
            key=lambda r: r.submit_time,
        )
        base = survivors[0].submit_time
        expected = [
            replace(r, submit_time=r.submit_time - base, job_number=i)
            for i, r in enumerate(survivors, start=1)
        ]
        cleaned, _report = clean_trace(merged)
        assert len(cleaned) == len(expected) < len(merged)
        assert [r.as_fields() for r in cleaned] == [r.as_fields() for r in expected]

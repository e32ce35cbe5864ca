"""Standard Workload Format (SWF) records, reader, writer and merger.

The SWF (Feitelson's Parallel Workload Archive) is a line-oriented
plain-text format: comment/header lines start with ``;``, data lines
hold 18 whitespace-separated integer fields per job, with ``-1``
denoting "unknown".  The paper converts the Grid Observatory logs into
SWF, merges the per-site files into one, and cleans the result.

Only the fields the reproduction consumes get named accessors; the
full 18-field tuple is preserved on round-trip.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from repro.common.errors import TraceFormatError

#: SWF field count (fixed by the standard).
N_FIELDS = 18


class JobStatus(enum.IntEnum):
    """SWF status field values."""

    FAILED = 0
    COMPLETED = 1
    PARTIAL_TO_BE_CONTINUED = 2
    PARTIAL_LAST = 3
    CANCELLED = 5
    UNKNOWN = -1


@dataclass(frozen=True, slots=True)
class SWFRecord:
    """One SWF job line.

    Field names follow the SWF standard; times are seconds relative to
    the trace start, ``-1`` = unknown.
    """

    job_number: int
    submit_time: int
    wait_time: int = -1
    run_time: int = -1
    allocated_procs: int = -1
    avg_cpu_time: int = -1
    used_memory: int = -1
    requested_procs: int = -1
    requested_time: int = -1
    requested_memory: int = -1
    status: int = JobStatus.UNKNOWN
    user_id: int = -1
    group_id: int = -1
    executable: int = -1
    queue: int = -1
    partition: int = -1
    preceding_job: int = -1
    think_time: int = -1

    @property
    def job_status(self) -> JobStatus:
        try:
            return JobStatus(self.status)
        except ValueError:
            return JobStatus.UNKNOWN

    @property
    def completed(self) -> bool:
        return self.status == JobStatus.COMPLETED

    def renumbered(self, job_number: int, submit_time: int) -> "SWFRecord":
        """A copy with a new job number and submit time.

        Equal to ``replace(self, job_number=..., submit_time=...)``;
        built directly because merging and cleaning renumber every
        record of a trace, where ``replace``'s per-call field
        introspection dominates.
        """
        return SWFRecord(job_number, submit_time, *self.as_fields()[2:])

    def shifted(self, delta_s: int) -> "SWFRecord":
        """A copy with the submit time shifted by ``delta_s`` seconds."""
        return replace(self, submit_time=self.submit_time + delta_s)

    def as_fields(self) -> tuple[int, ...]:
        return (
            self.job_number,
            self.submit_time,
            self.wait_time,
            self.run_time,
            self.allocated_procs,
            self.avg_cpu_time,
            self.used_memory,
            self.requested_procs,
            self.requested_time,
            self.requested_memory,
            self.status,
            self.user_id,
            self.group_id,
            self.executable,
            self.queue,
            self.partition,
            self.preceding_job,
            self.think_time,
        )

    @classmethod
    def from_fields(cls, fields: Sequence[int]) -> "SWFRecord":
        if len(fields) != N_FIELDS:
            raise ValueError(f"SWF record needs {N_FIELDS} fields, got {len(fields)}")
        return cls(*fields)


def read_swf(path: str | os.PathLike) -> tuple[list[str], list[SWFRecord]]:
    """Read an SWF file.

    Returns (header_comments, records); comments keep their leading
    ``;``.  Data lines with the wrong field count or non-integer
    fields raise :class:`TraceFormatError` with the line number.
    """
    comments: list[str] = []
    records: list[SWFRecord] = []
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith(";"):
                comments.append(stripped)
                continue
            parts = stripped.split()
            if len(parts) != N_FIELDS:
                raise TraceFormatError(
                    f"expected {N_FIELDS} fields, got {len(parts)}",
                    line_number=line_number,
                )
            try:
                fields = [int(p) for p in parts]
            except ValueError as exc:
                raise TraceFormatError(str(exc), line_number=line_number) from exc
            records.append(SWFRecord.from_fields(fields))
    return comments, records


def write_swf(
    records: Iterable[SWFRecord],
    path: str | os.PathLike,
    comments: Sequence[str] = (),
) -> None:
    """Write records to an SWF file (comments first, then data lines)."""
    with open(path, "w") as handle:
        for comment in comments:
            if not comment.startswith(";"):
                comment = f"; {comment}"
            handle.write(comment + "\n")
        for record in records:
            handle.write(" ".join(str(f) for f in record.as_fields()) + "\n")


def merge_swf(traces: Sequence[Sequence[SWFRecord]]) -> list[SWFRecord]:
    """Merge several SWF traces into one.

    "As they are usually composed of multiple files we combined them
    into a single file."  Records are interleaved by submit time and
    renumbered sequentially from 1 (job numbers from different sites
    collide); ties keep the input-trace order.
    """
    merged = sorted(
        (record for trace in traces for record in trace),
        key=lambda r: r.submit_time,
    )
    return [
        record.renumbered(index, record.submit_time)
        for index, record in enumerate(merged, start=1)
    ]

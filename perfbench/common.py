"""Helpers shared by every workload of the benchmark.

* :func:`tail` -- percentiles that are only reported when the sample
  count supports them (at least ten samples beyond the percentile);
* :class:`Tracer` -- in-memory spans (name, start, end, parent, request
  id) recorded by the benchmark around calls into the program's layers,
  written out once at the end, plus :func:`self_times`;
* :func:`host_fingerprint` -- CPU model and count, Python and numpy
  versions and git SHA, attached to every result row;
* :class:`SpeedProbe` -- samples the CPU speed of the measuring thread
  while the program runs, so timings can be scaled to a reference
  speed;
* child-process helpers that start the program from source and collect
  each child's peak RSS when it ends.

Nothing here imports the program under test (``repro``): the benchmark
can load this module in a directory that does not hold the program.
"""

from __future__ import annotations

import json
import math
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

#: Percentiles tried, highest first, when the requested one is not
#: supported by the sample count.
_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def tail(samples, pct: float):
    """``(value, pct_reported, n)`` for the ``pct`` percentile of ``samples``.

    Falls back to the highest lower percentile that has at least
    :data:`MIN_BEYOND` samples beyond it; with too few samples even for
    the median, the value is ``None``.  The value is the nearest-rank
    percentile (an observed sample, never an interpolation).
    """
    ordered = sorted(samples)
    n = len(ordered)
    for candidate in (pct,) + tuple(p for p in _LADDER if p < pct):
        if n * (100.0 - candidate) / 100.0 >= MIN_BEYOND:
            rank = max(1, math.ceil(candidate / 100.0 * n))
            return ordered[rank - 1], candidate, n
    return None, None, n


def median(samples):
    ordered = sorted(samples)
    if not ordered:
        return None
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# -- host speed ----------------------------------------------------------

#: One probe sample: a fixed pure-Python loop of about a millisecond.
PROBE_LOOP = 20_000
#: Seconds one probe sample takes on the reference host (a 2-vCPU Intel
#: Xeon at 2.1 GHz in its faster clock mode).  Such shared hosts switch
#: between clock modes about 1.4x apart for tens of seconds at a time;
#: interpreter-bound code (the probe, the simulator, the allocator)
#: slows by the same factor, so dividing a time by the probe's
#: slowdown over the same interval removes the mode from the figure.
PROBE_REFERENCE_S = 1.03e-3


def probe_sample() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i
    return time.perf_counter() - start


class SpeedProbe:
    """Samples this thread's speed every ``interval_s`` while active.

    A ``SIGALRM`` handler runs :func:`probe_sample` between the
    program's bytecodes in the main thread, so the samples see the same
    CPU as the measured code.  ``spent`` is the time the samples took
    (subtract it from the measured wall); ``slowdown`` is the mean
    sample over the reference (1.0 at reference speed), leaving out the
    slowest tenth of the samples, which were preempted mid-sample.
    """

    def __init__(self, interval_s: float = 0.25):
        self.interval_s = interval_s
        self.samples: list[float] = []
        self.times: list[float] = []
        self.spent = 0.0

    def _tick(self, _signum, _frame) -> None:
        self.times.append(time.perf_counter())
        sample = probe_sample()
        self.samples.append(sample)
        self.spent += sample

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self._tick(None, None)
        return False

    @property
    def slowdown(self) -> float:
        return slowdown_of(self.samples)


def slowdown_of(samples) -> float:
    """Mean sample over the reference, without the slowest tenth."""
    kept = sorted(samples)[: max(1, len(samples) * 9 // 10)]
    return sum(kept) / len(kept) / PROBE_REFERENCE_S


def slowdown_now(samples: int = 20) -> float:
    """Mean slowdown over ``samples`` back-to-back probe samples."""
    return sum(probe_sample() for _ in range(samples)) / samples / PROBE_REFERENCE_S


# -- spans -------------------------------------------------------------


class Tracer:
    """Spans kept in memory: ``(id, parent, name, start, end, request)``.

    ``enabled=False`` makes :meth:`span` a no-op context, so the
    untraced path costs one attribute test per call.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 1
        #: Request id given to spans opened without one.
        self.request = None

    def new_id(self) -> int:
        ident = self._next_id
        self._next_id += 1
        return ident

    def record(self, name, start, end, parent=None, request=None) -> int:
        """Append a finished span (explicit parent; used by async code)."""
        ident = self.new_id()
        self.spans.append((ident, parent, name, start, end, request))
        return ident

    def span(self, name: str, request=None):
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, self.request if request is None else request)


class _Span:
    __slots__ = ("tracer", "name", "request", "ident", "parent", "start")

    def __init__(self, tracer, name, request):
        self.tracer = tracer
        self.name = name
        self.request = request

    def __enter__(self):
        tracer = self.tracer
        self.ident = tracer.new_id()
        self.parent = tracer._stack[-1] if tracer._stack else None
        tracer._stack.append(self.ident)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tracer = self.tracer
        tracer._stack.pop()
        tracer.spans.append(
            (self.ident, self.parent, self.name, self.start, end, self.request)
        )
        return False


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


def write_spans(spans, path: Path) -> None:
    """Write spans as JSON lines, once, at the end of a run."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for ident, parent, name, start, end, request in spans:
            handle.write(
                json.dumps(
                    {"id": ident, "parent": parent, "name": name,
                     "start": start, "end": end, "request": request}
                )
                + "\n"
            )


def _covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """``{span id: self time}``: duration minus the part its children cover.

    Children are clipped to their parent's interval, and overlapping
    children count once.
    """
    children: dict = {}
    for ident, parent, _name, start, end, _request in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = {}
    for ident, _parent, _name, start, end, _request in spans:
        clipped = [
            (max(s, start), min(e, end))
            for s, e in children.get(ident, ())
            if min(e, end) > max(s, start)
        ]
        result[ident] = (end - start) - _covered(clipped)
    return result


def self_time_by_name(spans) -> dict:
    """Summed self time per span name."""
    selfs = self_times(spans)
    totals: dict = {}
    for ident, _parent, name, *_rest in spans:
        totals[name] = totals.get(name, 0.0) + selfs[ident]
    return totals


# -- host fingerprint ----------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_fingerprint() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": _git_sha(),
    }


# -- child processes -----------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def spawn(argv, **kwargs) -> subprocess.Popen:
    """Start ``python3 argv...`` from the checkout root with ``src`` importable."""
    return subprocess.Popen(
        [sys.executable, *argv], cwd=str(ROOT), env=child_env(),
        stdout=subprocess.PIPE, text=True, **kwargs,
    )


def reap(proc: subprocess.Popen, timeout: float = 60.0) -> tuple[int, float]:
    """Wait for ``proc``; return ``(exit code, peak RSS in MB)``.

    ``os.wait4`` gives the rusage of this one child, so the peak RSS
    belongs to the measured process alone.
    """
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.01)
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    return code, usage.ru_maxrss / 1024.0


def interrupt(proc: subprocess.Popen, timeout: float = 30.0) -> tuple[int, float]:
    """Stop a server child with SIGINT and reap it."""
    # os.kill, not Popen.send_signal: the latter polls, which could reap
    # the child before os.wait4 reads its rusage.
    if proc.returncode is None:
        os.kill(proc.pid, signal.SIGINT)
    return reap(proc, timeout)


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """The result line: the last line the benchmark prints."""
    print(
        json.dumps(
            {"correct": bool(correct), "attempted": int(attempted),
             "failed": int(failed), "metrics": metrics}
        ),
        flush=True,
    )

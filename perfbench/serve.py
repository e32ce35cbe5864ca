"""``repro serve`` under a speed probe, for the ``service-mixed`` workload.

Runs the CLI entry point (``repro.cli.main(["serve", ...])``) unchanged
while :class:`common.SpeedProbe` samples the server thread's speed
(about 1 ms every 250 ms); when the server stops, prints the samples
with their ``time.perf_counter`` stamps (the system-wide monotonic
clock on Linux, so the client can match them to its own timings) as one
line on standard error::

    perfbench-probe {"times": [...], "samples": [...]}

Usage:  python3 perfbench/serve.py --port 0 [other ``repro serve`` flags]
"""

from __future__ import annotations

import json
import sys

from common import SpeedProbe

PROBE_TAG = "perfbench-probe"


def main() -> int:
    from repro.cli import main as repro_main

    with SpeedProbe() as probe:
        code = repro_main(["serve", *sys.argv[1:]])
    print(f"{PROBE_TAG} " + json.dumps({"times": probe.times, "samples": probe.samples}),
          file=sys.stderr, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Run one loopspace command in this fresh interpreter, as a user would.

    python3 bench/worker.py TRACE ARG...

TRACE is 0 or 1; ARG... is the loopspace command line.  The command runs
in process through loopspace.cli.main with stdout and stderr captured,
and one JSON object goes to the real stdout: exit code, seconds spent in
main, the time of a fixed reference loop run just before and just after
it, peak resident memory, the captured report and, when traced, the raw
per-layer counts.  The caller puts the repository's src on PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import traceback
from time import perf_counter

import loopspace.cli

# About 20 ms of pure-Python work on a 2-core Xeon VM with Python 3.11.7.
REFERENCE_STEPS = 125_000


def peak_rss_kb():
    """Peak resident memory of this process image, in KiB.  (ru_maxrss
    would also count the parent's memory at the time of the fork.)"""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def reference_s():
    """Seconds this interpreter takes for a fixed pure-Python loop, a probe
    of how fast the host runs Python at this moment.  The loop allocates
    no object the garbage collector tracks, so its time does not depend on
    what the command left on the heap."""
    start = perf_counter()
    acc, table = 0, {}
    for i in range(REFERENCE_STEPS):
        acc = (acc * 31 + i) % 1000003
        table[i & 255] = acc
    return perf_counter() - start


def main():
    trace = sys.argv[1] == "1"
    argv = sys.argv[2:]
    tracer = None
    if trace:
        import tracing

        tracer = tracing.install()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        before = reference_s()
        start = perf_counter()
        try:
            code = loopspace.cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception:
            code = None
            traceback.print_exc()
        seconds = perf_counter() - start
        after = reference_s()
    rss_kb = peak_rss_kb()
    json.dump(
        {
            "code": code,
            "seconds": seconds,
            "reference_s": (before + after) / 2,
            "rss_kb": rss_kb,
            "stdout": out.getvalue(),
            "stderr": err.getvalue(),
            "counts": tracer.counts if tracer else None,
        },
        sys.stdout,
    )


if __name__ == "__main__":
    main()

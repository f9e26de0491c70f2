"""Run one ``chebpot`` CLI command with its parts timed and its calls traced.

Usage: python cli_wrap.py SUMMARY.json <chebpot arguments...>

Behaves like ``python -m chebpot.cli <arguments>`` and also writes
SUMMARY.json: the seconds spent importing ``chebpot.cli``, inside the
command's runner, and from the runner's return to exit (serialising and
writing the artifacts), plus the span summary and cache counters of the
library calls the runner made.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402

summary_path, argv = sys.argv[1], sys.argv[2:]
import chebpot.cli as cli  # noqa: E402

T_IMPORTED = time.monotonic()

import tracer as T  # noqa: E402

tr = T.Tracer()
tr.install()
runner = cli._RUNNERS[argv[0]]
marks = {}


def timed_runner(doc, args):
    marks["runner_start"] = time.monotonic()
    tr.active = True
    try:
        return runner(doc, args)
    finally:
        tr.active = False
        marks["runner_end"] = time.monotonic()


cli._RUNNERS[argv[0]] = timed_runner
cache0 = T.cache_snapshot()
code = cli.main(argv)
T_DONE = time.monotonic()
parts = {
    "start_mono": T_START,
    "import_s": T_IMPORTED - T_START,
    "runner_s": marks["runner_end"] - marks["runner_start"],
    "write_s": T_DONE - marks["runner_end"],
}
with open(summary_path, "w") as fh:
    json.dump({"parts": parts, "trace": tr.summary(), "cache": T.cache_delta(cache0, T.cache_snapshot())}, fh)
sys.exit(code)

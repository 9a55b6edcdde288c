"""Run one sscurv CLI command with tracing on; spans go to a file.

    python3 perfbench/cli_child.py TRACE_FILE COMMAND [ARGS...]

Standard output, standard error and the exit code are the CLI's own, so the
reported bytes can be compared with an untraced `python -m sscurv.cli` run.
TRACE_FILE receives the spans, the counts and the time the import took.
"""

import json
import sys
from time import perf_counter

t0 = perf_counter()
import sscurv.cli  # noqa: E402
import_ms = (perf_counter() - t0) * 1e3

import spans  # noqa: E402

tracer = spans.Tracer()
tracer.install()
tracer.op = 0
try:
    code = tracer.call("cli.main", sscurv.cli.main, sys.argv[2:])
finally:
    tracer.uninstall()
    with open(sys.argv[1], "w") as fh:
        json.dump({"import_ms": import_ms, "trace": tracer.dump()}, fh)
sys.exit(code)

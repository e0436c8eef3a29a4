"""One mldistill CLI command, as the benchmark spawns it.

    python3 perfbench/child.py READY_FILE TRACE_FILE RUN_ID -- CLI_ARGS...

Imports `mldistill.cli` (and with it numpy and scipy), writes the
CLOCK_MONOTONIC time at which `main` is about to run to READY_FILE, then
runs `mldistill.cli.main(CLI_ARGS)` and exits with its code.  With no
CLI_ARGS it is a set-up probe and exits 0 after writing READY_FILE.
A TRACE_FILE other than "-" installs the span tracer and writes the spans
there when the command ends.
"""

import sys
import time
from pathlib import Path


def main(argv):
    ready_file, trace_file, run_id, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: child.py READY_FILE TRACE_FILE RUN_ID -- CLI_ARGS...")
    import numpy  # noqa: F401
    import scipy.sparse  # noqa: F401

    import mldistill.cli

    ready = time.monotonic()
    Path(ready_file).write_text(repr(ready), encoding="utf-8")
    if not cli_args:
        return 0
    if trace_file == "-":
        return mldistill.cli.main(cli_args)

    import tracer as tracing

    tracer = tracing.Tracer(run_id).install()
    try:
        return tracer.span("cli.main", None, mldistill.cli.main, cli_args)
    finally:
        tracer.dump(trace_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

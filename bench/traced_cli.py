"""Run one ``floatdyn`` CLI command with spans on, then save the spans.

Usage: ``python traced_cli.py SPANS.json OP_ID -- <floatdyn arguments>``

The import of ``floatdyn.cli`` is recorded as the ``cli.import`` span.
The spans file is written whatever the command's outcome, and the exit
code is the command's own.
"""

import json
import sys
import time

from spans import Tracer


def main() -> int:
    out, op, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS.json OP_ID -- ARGS...")
    tracer = Tracer()
    tracer.op = int(op)
    start = time.perf_counter_ns()
    import floatdyn.cli

    tracer.add("cli.import", start, time.perf_counter_ns())
    tracer.install()
    try:
        return floatdyn.cli.main(argv)
    finally:
        with open(out, "w") as handle:
            json.dump(tracer.spans, handle)


if __name__ == "__main__":
    sys.exit(main())

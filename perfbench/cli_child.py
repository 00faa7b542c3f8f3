"""`python -m plurisusy.cli ARGS` under the tracer, for the traced cli runs.

    python3 perfbench/cli_child.py SPANS_FILE ARGS...

Records interpreter start-up (from the launch time the parent put in
PERFBENCH_LAUNCHED) and the package import as spans, wraps the layer
boundaries, runs the CLI's `main` and writes the spans, with the time
teardown began, to SPANS_FILE before exiting with the CLI's exit code.
"""

import os
import sys
import time

from tracing import Tracer, install

tracer = Tracer()
tracer.begin_op(0)
# monotonic and perf_counter read the same clock on Linux
tracer.span("cli.startup", float(os.environ["PERFBENCH_LAUNCHED"]),
            time.monotonic())
t0 = time.perf_counter()
import plurisusy.cli  # noqa: E402  (timed as the import span)
tracer.span("import.plurisusy", t0, time.perf_counter())
install(tracer)
try:
    code = plurisusy.cli.main(sys.argv[2:])
except SystemExit as exc:  # argparse usage errors
    code = exc.code
finally:
    # interpreter teardown from here on is the parent's cli.shutdown span
    tracer.dump(sys.argv[1], exit_at=time.monotonic())
sys.exit(code)

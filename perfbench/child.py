"""Run one derhamz call in this fresh interpreter, as a user's CLI call would.

    python3 perfbench/child.py '<json spec>'

The spec is {"workload", "args", "trace"}.  derhamz must be importable
(run.py puts the checkout's src/ on PYTHONPATH).  Prints one JSON line: the
monotonic time at which derhamz was imported and the parser built, the
time inside the call, the call's exit code and stdout, the peak resident
set size and, when traced, the span report.
"""

import contextlib
import io
import json
import resource
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    from derhamz import cli
    cli.build_parser()
    ready = time.monotonic()

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        if spec["workload"] == "oracle":
            from derhamz import bockstein
            start = time.perf_counter()
            reports = bockstein.compare_with_closed_form(*spec["args"])
            wall = time.perf_counter() - start
            print(json.dumps(reports))
            code = 0
        else:
            start = time.perf_counter()
            code = cli.main(list(spec["args"]))
            wall = time.perf_counter() - start

    result = {
        "ready": ready,
        "wall_s": wall,
        "exit": code,
        "stdout": out.getvalue(),
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.report() if tracer else None,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Child process of a traced ``cli`` request.

Usage: python3 launch.py SPANS_OUT OP ARGS...

Times ``import kreinalg.cli``, installs the same span wrappers as the
in-process workloads, runs ``kreinalg.cli.main(ARGS)`` and writes the spans,
the counters, the import time and the time spent inside this script to
SPANS_OUT, also when ``main`` raises.  The parent subtracts that last
figure from the process wall time to get the interpreter's own start and
exit cost.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    out_path, op, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    begin = time.perf_counter()
    import kreinalg.cli

    import_s = time.perf_counter() - begin
    import tracing

    tracer = tracing.Tracer()
    tracer.op = op
    tracing.install(tracer)
    try:
        return kreinalg.cli.main(argv)
    finally:  # also when main raises, so the request's spans are kept
        sys.stdout.flush()
        record = {"spans": tracer.spans, "counters": tracer.counters, "import_s": import_s,
                  "inside_s": time.perf_counter() - START}
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main())

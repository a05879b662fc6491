"""One traced ``kreinframes`` command, run as its own process (``cli_small``).

    python -m cli_child SPANS SPAWNED_AT <kreinframes arguments...>

(with this directory and the program's ``src`` on ``PYTHONPATH``).

Times the interpreter start (from ``SPAWNED_AT``, the parent's
``time.monotonic()`` just before it started this process), then the imports
of numpy, scipy.linalg and kreinframes, each after the previous one; wraps
the layers and calls ``kreinframes.cli.main``; writes the spans as JSON to
``SPANS``, with the time it starts to exit, and exits with the command's
exit code.  It imports as little as it can before the program's own imports,
so that the child costs what ``python -m kreinframes`` costs.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402

from tracing import Tracer, instrument  # noqa: E402


def main() -> int:
    spans_path, spawned_at, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.op = 0
    tracer.record("import.python", "interpreter", spawned_at, T_START)
    start = time.monotonic()
    import numpy  # noqa: F401
    now = time.monotonic()
    tracer.record("import.numpy", "numpy", start, now)
    start = now
    import scipy.linalg  # noqa: F401
    now = time.monotonic()
    tracer.record("import.scipy", "scipy.linalg", start, now)
    start = now
    from kreinframes import cli
    tracer.record("import.kreinframes", "kreinframes", start, time.monotonic())
    instrument(cli, tracer)
    code = cli.main(argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "report_bytes": tracer.report_bytes,
                   "exit_from": time.monotonic()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

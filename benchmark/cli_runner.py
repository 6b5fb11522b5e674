"""Traced stand-in for ``python -m sympovm.cli``.

Usage: python cli_runner.py SPANS_JSON CLI_ARG...

Times the import of ``sympovm.cli``, wraps the traced functions, runs
``sympovm.cli.main`` on the remaining arguments and writes the spans to
SPANS_JSON.  Standard output and the exit code are the CLI's own.
"""

import sys
import time

t0 = time.perf_counter()
import sympovm.cli as cli  # noqa: E402  (the import is what is timed)
t1 = time.perf_counter()

from tracer import Tracer  # noqa: E402

if __name__ == "__main__":
    tracer = Tracer()
    tracer.spans.append(["cli.import", t0, t1, None])
    tracer.install()
    main = tracer.span("cli.main", cli.main)
    try:
        code = main(sys.argv[2:])
    finally:
        tracer.dump(sys.argv[1])
    sys.exit(code)

"""Start ``repro serve`` in this process, optionally with the tracer on.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/serve_boot.py TRACE_OUT serve [serve flags...]

``TRACE_OUT`` is ``-`` for an untraced server.  Otherwise the tracer's
wrappers are installed before the CLI runs, ``SIGUSR1`` zeroes the
counters (and then creates ``TRACE_OUT.reset``, so the sender knows it
happened), and when the server exits the per-target counters are
written to ``TRACE_OUT`` as JSON.
"""

from __future__ import annotations

import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    trace_out, cli_args = argv[0], argv[1:]
    tracer = None
    if trace_out != "-":
        tracer = Tracer().install()

        def reset(signum, frame) -> None:
            tracer.reset()
            open(trace_out + ".reset", "w").close()

        signal.signal(signal.SIGUSR1, reset)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        if tracer is not None:
            tracer.restore()
            tmp = trace_out + ".part"
            with open(tmp, "w") as fh:
                json.dump({"targets": tracer.snapshot(),
                           "missing": tracer.missing}, fh)
            os.replace(tmp, trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Launcher for the served model: ``repro-hics serve`` with optional layer wrappers.

Usage: ``python3 perfbench/serve_child.py TRACE_OUT serve --model ... --port 0``

``TRACE_OUT`` ``-`` runs the unmodified CLI.  Any other value installs the
layer wrappers of ``layers.py`` in this process first, and writes the spans and
counters to that path once the server has shut down (SIGINT).
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv) -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from repro.cli import main as cli_main

    trace_out, cli_args = argv[0], argv[1:]
    if trace_out == "-":
        return cli_main(cli_args)

    from perfbench.layers import install
    from perfbench.tracer import Patcher, Tracer

    tracer = Tracer(run_id=os.path.basename(trace_out))
    patcher = Patcher()
    install(tracer, patcher)
    try:
        return cli_main(cli_args)
    finally:
        patcher.uninstall()
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

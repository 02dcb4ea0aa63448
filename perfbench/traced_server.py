"""Run ``python -m repro.server`` with the benchmark's layer wrappers installed.

Usage::

    python perfbench/traced_server.py SPANS.jsonl [repro.server arguments...]

Tracing starts off, so boot and table loading leave no spans.  SIGUSR1
turns it on and SIGUSR2 off; each is acknowledged with one line on stdout.
When the server exits (SIGTERM drain), the wrappers are removed, checked to
be gone, and the spans are written to ``SPANS.jsonl``.
"""

from __future__ import annotations

import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import tracing  # noqa: E402


def main() -> int:
    spans_path, server_argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.enabled = False
    installation = tracing.install(tracer)

    def toggle(signum, _frame) -> None:
        tracer.enabled = signum == signal.SIGUSR1
        state = "on" if tracer.enabled else "off"
        # os.write, not print: a signal handler must not re-enter the
        # buffered stdout the server may be writing to.
        os.write(sys.stdout.fileno(), f"perfbench: tracing {state}\n".encode())

    signal.signal(signal.SIGUSR1, toggle)
    signal.signal(signal.SIGUSR2, toggle)
    from repro.server.__main__ import main as serve

    try:
        return serve(server_argv)
    finally:
        installation.uninstall()
        tracing.write_spans(tracer.spans, spans_path)
        tracing.assert_uninstalled()


if __name__ == "__main__":
    sys.exit(main())

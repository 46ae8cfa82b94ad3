"""Launch ``repro serve`` with the benchmark's span wrappers installed.

    python perfbench/serve_traced.py SPANS.jsonl.gz serve [serve flags]

Installs :class:`tracing.SpanRecorder`, then calls the same entry point
as ``python -m repro``; when the server stops (SIGINT) the spans are
written to ``SPANS.jsonl.gz``.
"""

from __future__ import annotations

import sys

from common import import_repro
from tracing import SpanRecorder


def main(argv) -> int:
    out, serve_args = argv[0], argv[1:]
    import_repro()
    from repro.__main__ import main as repro_main

    recorder = SpanRecorder().install()
    try:
        return repro_main(serve_args)
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Run ``repro serve`` with span timers on every serving layer.

Usage (from the repository root)::

    python3 perfbench/traced_server.py SPANS.json serve [serve args ...]

Wraps the entry points listed in :data:`perfbench.spans.SERVER_POINTS`,
then calls ``repro.cli.main(["serve", ...])`` — the same entry point
the ``repro`` console script runs — and writes every recorded span to
``SPANS.json`` when the server shuts down (SIGTERM).  ``src/`` is not
touched.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.spans import SpanRecorder, install_server  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "serve":
        print(__doc__, file=sys.stderr)
        return 2
    recorder = SpanRecorder()
    install_server(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[1:])
    finally:
        recorder.dump(argv[0])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""``repro serve`` with the ``sim`` layer traced (run by ``run.py``).

Usage: ``server.py SPANS.json -- <repro cli arguments>`` with
``PYTHONPATH=src``.  Runs the same ``repro.cli.main`` that ``python -m
repro.cli`` runs; when the server stops on SIGINT the spans are written
to ``SPANS.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(spans_path: str, argv: list[str]) -> None:
    from layers import install_sim_layer
    from tracing import Tracer

    from repro.cli import main as cli_main

    tracer = Tracer()
    install_sim_layer(tracer)
    try:
        cli_main(argv)
    finally:
        tracer.uninstall()
        Path(spans_path).write_text(json.dumps(
            [[s.name, s.start, s.end, s.parent, s.counters]
             for s in tracer.collect()]), encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: server.py SPANS.json -- <repro cli arguments>")
    main(sys.argv[1], sys.argv[3:])

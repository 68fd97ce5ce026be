"""One contest grid in a fresh process (run by ``run.py``).

Usage: ``grid.py CONFIG.json RESULT.json`` with ``PYTHONPATH=src``.

The config names the grid (benchmarks, flows, samples, effort, seed,
jobs), the output directory, the parent's ``time.monotonic()`` just
before it launched this process, and two switches:

``setup_only``
    Stop right before the first task would be submitted (the set-up
    sample: interpreter start, imports, task specs, flow resolution).
``trace_dir``
    Install the layer spans (``layers.py``) before the grid runs; pool
    workers spill their spans there and the result carries the merged
    list.

The grid itself is ``repro.runner.run_contest_tasks`` into a fresh run
directory with kept solutions, exactly as ``repro contest --out-dir D
--keep-solutions`` runs it.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(config_path: str, result_path: str) -> None:
    config = json.loads(Path(config_path).read_text(encoding="utf-8"))

    from repro.runner import contest_tasks, resolve_flow, run_contest_tasks

    specs = contest_tasks(
        config["benchmarks"], config["flows"],
        n_train=config["samples"], n_valid=config["samples"],
        n_test=config["samples"], effort=config["effort"],
        master_seed=config["seed"],
    )
    for name in config["flows"]:
        resolve_flow(name)
    result: dict = {"setup_s": time.monotonic() - config["launched"]}
    if config.get("setup_only"):
        Path(result_path).write_text(json.dumps(result), encoding="utf-8")
        return

    tracer = None
    if config.get("trace_dir"):
        from layers import install_contest_layers
        from tracing import Tracer

        tracer = Tracer(spill_dir=config["trace_dir"])
        install_contest_layers(tracer)
    start = time.perf_counter()
    run_contest_tasks(specs, jobs=config["jobs"], out_dir=config["out_dir"],
                      keep_solutions=True)
    result["grid_wall_s"] = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux: the largest pool worker.
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    result["peak_rss_mb"] = workers.ru_maxrss / 1024.0
    result["tasks"] = len(specs)
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = [[s.name, s.start, s.end, s.parent, s.counters]
                           for s in tracer.collect()]
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])

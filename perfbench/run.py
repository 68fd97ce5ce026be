"""The repository benchmark: contest grid -> run store -> served circuits.

Usage (from the repository root)::

    python3 perfbench/run.py --workload contest-broad --seed 1 \
        --seconds 9 --trace 0

Every workload runs the whole pipeline users run: a kept-solutions
contest grid in a fresh process (``repro.runner.run_contest_tasks``
into a fresh run directory), an oracle over the stored circuits, then
``repro serve`` on that store under open-loop load.  ``--trace 0``
measures the end-to-end metrics; ``--trace 1`` adds a traced grid and a
traced server and reports the per-layer metrics.  Each metric is
printed as ``name value unit``; the last line is one JSON object.  The
exit code is non-zero when any correctness check fails.  See
``perfbench/README.md`` for the definitions.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

BROAD_BENCHMARKS = [0, 12, 30, 50, 74, 75, 82, 95]
TEAM_FLOWS = [f"team{i:02d}" for i in (1, 2, 3, 4, 5, 6, 7, 9, 10)]

# Both workloads contest the same benchmarks; they differ in how much of
# a run the grid is.  contest-broad: the everyday 72-task mix, so the
# flows, ml, synth and aig.opt layers dominate.  serve-open: the four
# cheapest flows build the store, so serving and simulation dominate;
# they still cross every layer the grid has (ml fit, cgp, espresso,
# standard-function short cuts, candidate selection).  Its grid takes
# a few seconds, too short to ride out the host's slow spells, so it
# runs three times into fresh stores and the median wall time is
# reported.
WORKLOADS: dict[str, dict[str, Any]] = {
    "contest-broad": {"benchmarks": BROAD_BENCHMARKS, "flows": TEAM_FLOWS,
                      "grids": 1},
    "serve-open": {"benchmarks": BROAD_BENCHMARKS,
                   "flows": ["team01", "team07", "team09", "team10"],
                   "grids": 3},
}
SAMPLES = 400  # per split, the `repro contest` default
EFFORT = "small"
JOBS = 2
SETUP_REPEATS = 3
GRID_TIMEOUT_S = 150
# Serving: latency is taken open-loop at LATENCY_RATE, a rate the
# in-process server sustains on a 2-core machine, for two thirds of
# --seconds; capacity is the answer rate of a closed loop that keeps
# both connections busy for the last third.  Both are split evenly over
# the SETUP_REPEATS server launches.
LATENCY_RATE = 100  # requests per second
CONNECTIONS = 2


class CheckFailed(Exception):
    """A step of the run could not complete, so nothing was measured."""


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    env["PYTHONUNBUFFERED"] = "1"
    return env


def _run_grid(config: dict[str, Any], work: Path, tag: str) -> dict[str, Any]:
    config_path = work / f"{tag}.config.json"
    result_path = work / f"{tag}.result.json"
    config = dict(config, launched=time.monotonic())
    config_path.write_text(json.dumps(config), encoding="utf-8")
    # A session of its own, so a hung grid is killed with its workers.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "grid.py"), str(config_path),
         str(result_path)],
        env=_env(), cwd=ROOT, start_new_session=True,
    )
    try:
        code = proc.wait(timeout=GRID_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise CheckFailed(f"grid process {tag} ran over "
                          f"{GRID_TIMEOUT_S} s") from None
    if code != 0:
        raise CheckFailed(f"grid process {tag} exited {code}")
    return json.loads(result_path.read_text(encoding="utf-8"))


# -- serving ---------------------------------------------------------------

class Server:
    """``repro serve`` on a store, as a subprocess on an ephemeral port."""

    def __init__(self, store: Path, spans_path: Path | None):
        cli = ["serve", "--store", str(store), "--port", "0"]
        if spans_path is None:
            argv = [sys.executable, "-m", "repro.cli", *cli]
        else:
            argv = [sys.executable, str(HERE / "server.py"), str(spans_path),
                    "--", *cli]
        self.launched = time.monotonic()
        self.proc = subprocess.Popen(argv, env=_env(), cwd=ROOT,
                                     stdout=subprocess.PIPE, text=True)
        self.port = self._wait_for_port(timeout=60.0)

    def _wait_for_port(self, timeout: float) -> int:
        assert self.proc.stdout is not None
        watchdog = threading.Timer(timeout, self.proc.kill)
        watchdog.start()
        try:
            for line in self.proc.stdout:
                if " on http://" in line:
                    address = line.split(" on http://", 1)[1].split()[0]
                    return int(address.rsplit(":", 1)[1])
        finally:
            watchdog.cancel()
        self.stop()
        raise CheckFailed("repro serve did not report its port")

    def request(self, method: str, path: str,
                body: bytes | None = None) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def warm(self, models: dict[str, Any]) -> float:
        """Seconds from launch until every model answered one row."""
        for name, aig in sorted(models.items()):
            body = json.dumps({"rows": [[0] * aig.n_inputs]}).encode("ascii")
            status, _ = self.request("POST", f"/predict/{name}", body)
            if status != 200:
                raise CheckFailed(f"warm-up of {name} answered {status}")
        return time.monotonic() - self.launched

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise CheckFailed("no VmHWM in /proc status")

    def cpu_s(self) -> float:
        """User + system CPU seconds the server has used so far."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text() \
            .rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def metrics(self) -> dict[str, float]:
        from repro.serve import parse_metrics_text

        status, text = self.request("GET", "/metrics")
        if status != 200:
            raise CheckFailed(f"/metrics answered {status}")
        return parse_metrics_text(text.decode("utf-8"))

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def _served_models(store: Path) -> dict[str, Any]:
    """``{model name: stored winner AIG}``, as the server picks them."""
    from repro.aig.aiger import loads_aag
    from repro.serve import ModelStore

    models = ModelStore(str(store))
    return {name: loads_aag(models.bundle(name).aag_text)
            for name in models.names()}


def _histogram_delta(before: dict[str, float], after: dict[str, float],
                     name: str) -> list[tuple[float, float]]:
    """``[(upper bound, count in bucket)]`` between two scrapes."""
    prefix = f"repro_serve_{name}_bucket{{le=\""
    bounds = []
    for key, value in after.items():
        if key.startswith(prefix):
            le = key[len(prefix):-2]
            bounds.append((float("inf") if le == "+Inf" else float(le),
                           value - before.get(key, 0.0)))
    bounds.sort()
    return [(le, cum - (bounds[i - 1][1] if i else 0.0))
            for i, (le, cum) in enumerate(bounds)]


def _histogram_quantile(buckets: list[tuple[float, float]], q: float) -> float:
    """Linear interpolation inside the bucket holding quantile ``q``."""
    total = sum(count for _, count in buckets)
    if not total:
        return 0.0
    target, seen, lower = q * total, 0.0, 0.0
    for upper, count in buckets:
        if count and seen + count >= target:
            if upper == float("inf"):
                return lower
            return lower + (upper - lower) * (target - seen) / count
        seen += count
        lower = upper
    return lower


def _delta(before: dict[str, float], after: dict[str, float],
           key: str) -> float:
    return after.get(key, 0.0) - before.get(key, 0.0)


def _serve_layer_metrics(before: dict[str, float], mid: dict[str, float],
                         after: dict[str, float]) -> dict[str, float]:
    """Server-side figures: latency and batching over the open-loop
    step (``before``..``mid``), rejections and cache over both steps."""
    latency = _histogram_delta(before, mid, "predict_latency_seconds")
    rows_count = _delta(before, mid, "repro_serve_batch_rows_count")
    batches = _delta(before, mid, "repro_serve_batches_total")
    requests = _delta(before, mid,
                      'repro_serve_http_requests_total{endpoint="/predict"}')
    rejected = sum(_delta(before, after, k) for k in after
                   if k.startswith("repro_serve_rejected_total"))
    hits = _delta(before, after, 'repro_serve_store_cache_events{event="hits"}')
    misses = _delta(before, after,
                    'repro_serve_store_cache_events{event="misses"}')
    return {
        "serve.handler_p50_ms": 1e3 * _histogram_quantile(latency, 0.50),
        "serve.handler_p99_ms": 1e3 * _histogram_quantile(latency, 0.99),
        "serve.batch_rows.mean": _delta(before, mid, "repro_serve_batch_rows_sum")
        / rows_count if rows_count else 0.0,
        "serve.requests_per_batch": requests / batches if batches else 0.0,
        "serve.rejected": rejected,
        "serve.cache_hit_frac": hits / (hits + misses) if hits + misses else 0.0,
    }


def _serve_phase(store: Path, seed: int, seconds: float, trace: bool,
                 work: Path) -> dict[str, Any]:
    """Three server launches; each is a set-up sample and then takes a
    third of the load, so the figures pool three server processes."""
    from load import make_requests, percentile, run_closed, run_open, \
        throughput

    models = _served_models(store)
    rng = np.random.default_rng([seed, 0x5E7E])
    open_seconds = 2 * seconds / 3 / SETUP_REPEATS
    closed_seconds = seconds / 3 / SETUP_REPEATS
    # Enough for a closed loop at six times the open-loop rate.
    loads = [(make_requests(models, round(LATENCY_RATE * open_seconds), rng),
              make_requests(models, round(6 * LATENCY_RATE * closed_seconds),
                            rng))
             for _ in range(SETUP_REPEATS)]

    setup, peak_rss, latency, capacity, scrapes, cpu = [], [], [], [], [], []
    for i, (open_requests, closed_requests) in enumerate(loads):
        traced = trace and i == SETUP_REPEATS - 1
        server = Server(store, work / "server-spans.json" if traced else None)
        try:
            setup.append(server.warm(models))
            if traced:
                scrapes.append(server.metrics())
            cpu_before = server.cpu_s()
            latency.append(run_open("127.0.0.1", server.port, open_requests,
                                    LATENCY_RATE, CONNECTIONS))
            if traced:
                scrapes.append(server.metrics())
            capacity.append(run_closed("127.0.0.1", server.port,
                                       closed_requests, closed_seconds,
                                       CONNECTIONS))
            if traced:
                scrapes.append(server.metrics())
            cpu.append(server.cpu_s() - cpu_before)
            peak_rss.append(server.peak_rss_mb())
        finally:
            server.stop()

    outcomes = [o for step in latency + capacity for o in step.outcomes]
    at_rate = [o for step in latency for o in step.outcomes]
    # A failed request misses any latency limit.
    latencies = [o.latency if o.ok else float("inf") for o in at_rate]
    out: dict[str, Any] = {
        "setup_s": statistics.median(setup),
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "serve_peak_rss_mb": max(peak_rss),
        "serve_cpu_ms_per_req": 1e3 * sum(cpu) / len(outcomes),
    }
    if trace:
        out["layers"] = _serve_layer_metrics(*scrapes)
        out["layers"].update({
            "serve.client_p50_ms": 1e3 * percentile(latencies, 50),
            "serve.client_p99_ms": 1e3 * percentile(latencies, 99),
            "serve.max_rps": throughput(capacity),
            "serve.gen_late_p99_ms": 1e3 * percentile(
                [o.lateness for o in at_rate], 99),
        })
        out["spans"] = json.loads(
            (work / "server-spans.json").read_text(encoding="utf-8"))
    return out


# -- the workload ------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work: Path) -> tuple[dict[str, float], int, int, list[str]]:
    """Returns (metrics, attempted, failed, problems)."""
    from checks import oracle_failures, quality, records_digest
    from layers import contest_layer_metrics
    from tracing import Span, summarize

    workload = WORKLOADS[name]
    grid = dict(benchmarks=workload["benchmarks"], flows=workload["flows"],
                samples=SAMPLES, effort=EFFORT, jobs=JOBS, seed=seed)
    n_grids = workload["grids"]
    setup = [_run_grid(dict(grid, setup_only=True, out_dir=""), work,
                       f"setup{i}")["setup_s"]
             for i in range(SETUP_REPEATS - n_grids)]
    stores = [work / f"store{i}" for i in range(n_grids)]
    grids = [_run_grid(dict(grid, out_dir=str(store)), work, f"grid{i}")
             for i, store in enumerate(stores)]
    setup.extend(g["setup_s"] for g in grids)
    store = stores[0]

    failed_tasks = oracle_failures(store)
    problems = [f"{key}: {message}"
                for key, messages in failed_tasks.items()
                for message in messages]
    digest = records_digest(store)
    print(f"records_sha256 {digest}")
    for other in stores[1:]:
        if records_digest(other) != digest:
            problems.append(f"records of {other.name} differ from {store.name}")
    total_ands, mean_accuracy, tasks = quality(store)
    if tasks != grids[0]["tasks"]:
        problems.append(f"{tasks} records for {grids[0]['tasks']} tasks")
    grid_wall_s = statistics.median(g["grid_wall_s"] for g in grids)

    layers: dict[str, float] = {}
    spans: list[list[Any]] = []
    if trace:
        spill = work / "spans"
        spill.mkdir()
        traced = _run_grid(dict(grid, out_dir=str(work / "store-traced"),
                                trace_dir=str(spill)), work, "traced")
        traced_digest = records_digest(work / "store-traced")
        if traced_digest != digest:
            problems.append(f"traced records_sha256 {traced_digest} "
                            f"differs from untraced {digest}")
        spans = traced["spans"]
        stats = summarize(Span(*s) for s in spans)
        layers = contest_layer_metrics(stats)
        task = stats["runner.task"]
        layers["runner.pool_busy_frac"] = task.total / (JOBS * grid_wall_s)
        layers["trace.coverage_frac"] = \
            (task.total - task.self_time) / task.total
        layers["trace.overhead_frac"] = \
            traced["grid_wall_s"] / grid_wall_s - 1.0

    served = _serve_phase(store, seed, seconds, trace, work)
    attempted = tasks + served["attempted"]
    failed = len(failed_tasks) + served["failed"]
    metrics = {
        "setup_s": statistics.median(setup) + served["setup_s"],
        "grid_wall_s": grid_wall_s,
        "total_ands": float(total_ands),
        "mean_test_accuracy": mean_accuracy,
        "success_frac": 1.0 - failed / attempted,
        "grid_peak_rss_mb": max(g["peak_rss_mb"] for g in grids),
        "serve_peak_rss_mb": served["serve_peak_rss_mb"],
        "serve_cpu_ms_per_req": served["serve_cpu_ms_per_req"],
    }
    if served["failed"]:
        problems.append(f"{served['failed']} responses not 200 or not "
                        f"bit-exact")
    if trace:
        sim = summarize(Span(*s) for s in spans + served["spans"])
        for step in ("compile", "run"):
            layer = sim.get(f"sim.{step}")
            layers[f"sim.{step}.s"] = layer.total if layer else 0.0
            layers[f"sim.{step}.calls"] = layer.calls if layer else 0
        layers.update(served["layers"])
        metrics = layers
    return metrics, attempted, failed, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if args.trace else "end_to_end"]}

    work = ROOT / ".perfbench" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        metrics, attempted, failed, problems = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), work)
    except CheckFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = sorted(set(wanted) - set(metrics))
    if missing:
        problems.append(f"metrics not measured: {missing}")
    for problem in problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    report = {name: {"value": metrics[name], "unit": unit}
              for name, unit in wanted.items() if name in metrics}
    for name, entry in report.items():
        print(f"{name} {entry['value']!r} {entry['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": report}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

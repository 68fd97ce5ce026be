"""Which ``repro`` functions the traced run wraps, and the per-layer
metrics derived from their spans.

Each span name is ``<layer>.<step>``, where the layer is a package of
``src/repro``.  ``install_contest_layers`` covers the contest path
(``contest``, ``runner``, ``flows``, ``ml``, ``cgp``, ``twolevel``,
``synth``, ``aig``, ``sim``); the served side only needs ``sim``
(``install_sim_layer``), because ``serve`` reports itself through its
``/metrics`` endpoint.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from typing import Any

from tracing import LayerStats, Tracer

OPT_PASSES = ("balance", "rewrite", "refactor", "fraig_lite")


def _import_all(package: str) -> list[Any]:
    pkg = importlib.import_module(package)
    modules = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        modules.append(importlib.import_module(f"{package}.{info.name}"))
    return modules


def _defined_in(module: Any, obj: Any) -> bool:
    return getattr(obj, "__module__", None) == module.__name__


def _ands_out(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"ands_out": result.num_ands}


def _pass_useful(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"useful": float(result.num_ands < args[0].num_ands)}


def _compress_sizes(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"ands_in": args[0].num_ands, "ands_out": result.num_ands}


def _short_circuit(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"short_circuited": float(result.short_circuited)}


def install_sim_layer(tracer: Tracer) -> None:
    from repro.sim.engine import CompiledAIG

    tracer.wrap_method("sim.compile", CompiledAIG, "__init__")
    tracer.wrap_method("sim.run", CompiledAIG, "run_packed_all")
    tracer.wrap_method("sim.run", CompiledAIG, "run_packed")


def install_contest_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary a contest task crosses."""
    import repro.flows  # noqa: F401  (registers and imports every flow)
    from repro.aig.aig import AIG
    from repro.cgp.evolve import CGPEvolver
    from repro.flows.api import Flow
    from repro.runner.store import RunStore

    tracer.wrap_function("runner.task", "repro.runner.task", "run_task")
    tracer.wrap_method("runner.store_append", RunStore, "append")
    tracer.wrap_function("contest.problem", "repro.runner.task",
                         "make_task_problem")
    tracer.wrap_function("contest.evaluate", "repro.contest.evaluate",
                         "evaluate_solutions")
    tracer.wrap_method("flows.stage", Flow, "run_detailed", _short_circuit)
    tracer.wrap_function("flows.select", "repro.flows.common", "pick_best")
    for module in _import_all("repro.ml"):
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if _defined_in(module, cls) and "fit" in cls.__dict__:
                tracer.wrap_method("ml.fit", cls, "fit")
    tracer.wrap_method("cgp.evolve", CGPEvolver, "run")
    tracer.wrap_function("cgp.evolve", "repro.cgp.evolve", "evolve_from_aig")
    tracer.wrap_function("twolevel.espresso", "repro.twolevel.espresso",
                         "espresso")
    for module in _import_all("repro.synth"):
        for attr, fn in inspect.getmembers(module, inspect.isfunction):
            if _defined_in(module, fn) and attr.endswith("_to_aig"):
                tracer.wrap_function("synth.to_aig", module.__name__, attr,
                                     _ands_out)
    for name in OPT_PASSES:
        tracer.wrap_function(f"aig.opt.{name}", "repro.aig.opt.passes", name,
                             _pass_useful)
    tracer.wrap_function("aig.opt.compress", "repro.aig.opt.passes",
                         "compress", _compress_sizes)
    tracer.wrap_function("aig.approx.substitute", "repro.aig.approx",
                         "substitute_constants")
    tracer.wrap_method("aig.extract_cone", AIG, "extract_cone")
    install_sim_layer(tracer)


def contest_layer_metrics(stats: dict[str, LayerStats]) -> dict[str, float]:
    """Per-layer metrics of a traced contest grid (absent layer: 0)."""
    empty = LayerStats()

    def get(name: str) -> LayerStats:
        return stats.get(name, empty)

    def frac(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {
        "aig.approx.rounds": get("aig.approx.substitute").calls,
        "aig.extract_cone.s": get("aig.extract_cone").total,
        "aig.extract_cone.calls": get("aig.extract_cone").calls,
    }
    for name in OPT_PASSES:
        layer = get(f"aig.opt.{name}")
        out[f"aig.opt.{name}.self_s"] = layer.self_time
        out[f"aig.opt.{name}.useful_frac"] = frac(
            layer.counters.get("useful", 0.0), layer.calls)
    compress = get("aig.opt.compress")
    out["aig.opt.compress.calls"] = compress.calls
    out["aig.opt.compress.ands_in"] = compress.counters.get("ands_in", 0.0)
    out["aig.opt.compress.ands_out"] = compress.counters.get("ands_out", 0.0)
    stage = get("flows.stage")
    out.update({
        "ml.fit.self_s": get("ml.fit").self_time,
        "ml.fit.calls": get("ml.fit").calls,
        "cgp.evolve.s": get("cgp.evolve").total,
        "twolevel.espresso.s": get("twolevel.espresso").total,
        "synth.to_aig.s": get("synth.to_aig").total,
        "synth.ands_out": get("synth.to_aig").counters.get("ands_out", 0.0),
        "flows.stage.self_s": stage.self_time,
        "flows.select.s": get("flows.select").total,
        "flows.short_circuit_frac": frac(
            stage.counters.get("short_circuited", 0.0), stage.calls),
        "runner.task_s": get("runner.task").total,
        "runner.tail_task_s": get("runner.task").max_call,
        "runner.store_append.s": get("runner.store_append").total,
        "contest.problem.s": get("contest.problem").total,
        "contest.evaluate.s": get("contest.evaluate").total,
    })
    return out

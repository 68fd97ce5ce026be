"""Tests for the benchmark's outside-in tracing helper.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import multiprocessing
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.append(str(Path(__file__).resolve().parents[1]))

from tracing import Span, Tracer, summarize  # noqa: E402

import repro.aig  # noqa: E402
import repro.aig.opt.passes as passes  # noqa: E402
import repro.aig.optimize as optimize  # noqa: E402
import repro.flows.common as flows_common  # noqa: E402
from repro.aig.aig import AIG  # noqa: E402
from repro.aig.build import ripple_adder  # noqa: E402
from repro.ml.decision_tree import DecisionTree  # noqa: E402
from repro.ml.forest import RandomForest  # noqa: E402


def _adder() -> AIG:
    aig = AIG(8)
    lits = list(aig.input_lits())
    for lit in ripple_adder(aig, lits[:4], lits[4:]):
        aig.set_output(lit)
    return aig


def test_function_wrap_rebinds_every_from_import_alias():
    original = passes.compress
    with Tracer() as tracer:
        wrapper = tracer.wrap_function("aig.opt.compress",
                                       "repro.aig.opt.passes", "compress")
        for module in (passes, optimize, flows_common, repro.aig):
            assert module.compress is wrapper
        flows_common.compress(_adder())
        repro.aig.compress(_adder())
    assert [s.name for s in tracer.spans] == ["aig.opt.compress"] * 2
    assert wrapper.__wrapped__ is original
    assert wrapper.__qualname__ == original.__qualname__


def test_calls_inside_the_defining_module_are_traced():
    with Tracer() as tracer:
        tracer.wrap_function("aig.opt.compress", "repro.aig.opt.passes",
                             "compress")
        tracer.wrap_function("aig.opt.rewrite", "repro.aig.opt.passes",
                             "rewrite")
        passes.compress(_adder())
    names = {s.name for s in tracer.spans}
    assert names == {"aig.opt.compress", "aig.opt.rewrite"}
    rewrites = [s for s in tracer.spans if s.name == "aig.opt.rewrite"]
    assert all(tracer.spans[s.parent].name == "aig.opt.compress"
               for s in rewrites)


def test_self_time_excludes_nested_spans():
    with Tracer() as tracer:
        tracer.wrap_function("aig.opt.compress", "repro.aig.opt.passes",
                             "compress")
        tracer.wrap_function("aig.opt.rewrite", "repro.aig.opt.passes",
                             "rewrite")
        passes.compress(_adder())
    stats = summarize(tracer.spans)
    (compress,) = [s for s in tracer.spans if s.name == "aig.opt.compress"]
    rewrite_time = sum(s.duration for s in tracer.spans
                       if s.name == "aig.opt.rewrite")
    assert stats["aig.opt.compress"].self_time == pytest.approx(
        compress.duration - rewrite_time)
    assert stats["aig.opt.compress"].total == pytest.approx(compress.duration)
    assert stats["aig.opt.rewrite"].self_time == pytest.approx(rewrite_time)


def test_class_methods_nest_and_count_once_in_layer_total():
    rng = np.random.default_rng(0)
    X = rng.integers(0, 2, size=(64, 6), dtype=np.uint8)
    y = X[:, 0] ^ X[:, 1]
    with Tracer() as tracer:
        tracer.wrap_method("ml.fit", RandomForest, "fit")
        tracer.wrap_method("ml.fit", DecisionTree, "fit")
        RandomForest(n_trees=3, max_depth=3,
                     rng=np.random.default_rng(1)).fit(X, y)
    (forest,) = [s for s in tracer.spans if s.parent == -1]
    trees = [s for s in tracer.spans if s.parent >= 0]
    assert len(trees) == 3
    assert all(tracer.spans[s.parent] is forest for s in trees)
    stats = summarize(tracer.spans)["ml.fit"]
    assert stats.calls == 4
    assert stats.total == pytest.approx(forest.duration)
    assert stats.self_time == pytest.approx(forest.duration)


def test_uninstall_restores_every_original_object():
    originals = {module: module.compress
                 for module in (passes, optimize, flows_common, repro.aig)}
    fit = RandomForest.__dict__["fit"]
    tracer = Tracer()
    tracer.wrap_function("aig.opt.compress", "repro.aig.opt.passes",
                         "compress")
    tracer.wrap_method("ml.fit", RandomForest, "fit")
    tracer.uninstall()
    for module, original in originals.items():
        assert module.compress is original
    assert RandomForest.__dict__["fit"] is fit


def test_measure_records_counters():
    with Tracer() as tracer:
        tracer.wrap_function(
            "aig.opt.compress", "repro.aig.opt.passes", "compress",
            lambda args, kwargs, out: {"ands_in": args[0].num_ands,
                                       "ands_out": out.num_ands})
        aig = _adder()
        result = passes.compress(aig)
    counters = summarize(tracer.spans)["aig.opt.compress"].counters
    assert counters == {"ands_in": aig.num_ands, "ands_out": result.num_ands}


def test_wrapping_twice_is_refused():
    with Tracer() as tracer:
        tracer.wrap_function("a", "repro.aig.opt.passes", "compress")
        with pytest.raises(ValueError):
            tracer.wrap_function("a", "repro.aig.opt.passes", "compress")


def _child() -> None:
    passes.compress(_adder())


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="spilling relies on forked children")
def test_forked_children_spill_their_span_trees(tmp_path):
    with Tracer(spill_dir=tmp_path) as tracer:
        tracer.wrap_function("aig.opt.compress", "repro.aig.opt.passes",
                             "compress")
        tracer.wrap_function("aig.opt.rewrite", "repro.aig.opt.passes",
                             "rewrite")
        process = multiprocessing.get_context("fork").Process(target=_child)
        process.start()
        process.join(timeout=60)
        assert process.exitcode == 0
        assert tracer.spans == []
        spans = tracer.collect()
    roots = [s for s in spans if s.parent == -1]
    assert [s.name for s in roots] == ["aig.opt.compress"]
    assert all(spans[s.parent].name == "aig.opt.compress"
               for s in spans if s.name == "aig.opt.rewrite")


def test_summarize_on_hand_built_spans():
    spans = [Span("a", 0.0, 10.0, -1), Span("b", 1.0, 4.0, 0),
             Span("a", 5.0, 7.0, 0), Span("b", 5.5, 6.0, 2)]
    stats = summarize(spans)
    assert stats["a"].calls == 2
    assert stats["a"].total == pytest.approx(10.0)
    assert stats["a"].self_time == pytest.approx(10 - 3 - 2 + 2 - 0.5)
    assert stats["b"].total == pytest.approx(3.5)
    assert stats["b"].max_call == pytest.approx(3.0)

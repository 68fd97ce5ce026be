"""AIG kernels vs. the frozen kernels they replaced.

``compress`` and LUT synthesis are the AIG layer's share of a contest
grid.  Three benches time them on contest-shaped work and check the
result byte for byte against ``tests/reference_aig_kernels.py``, whose
``frozen_kernels()`` runs the same live passes and synthesis on the
full-width ISOP, the tuple-and-set cuts, the three separate cone
walks, the numpy-mask cone extraction and the per-pattern neuron
table:

* ``compress`` on every graph a small contest slice (ex74 and ex82,
  flows team02-team06, 200 samples) hands to it, against the plain
  round loop on the frozen kernels;
* ISOP of both polarities of every fanout-free-cone table ``refactor``
  meets on those graphs, against the full-width recursion;
* ``mlp_to_aig`` of a Team 3-shaped pruned MLP (one hidden layer of
  24 sigmoid neurons, fanin 8) on the frozen kernels.

Headline asserts: identical graphs and covers, ``compress`` >= 1.2x,
ISOP >= 2x and ``mlp_to_aig`` >= 3x over the frozen kernels.
"""

from functools import lru_cache

from _report import best_of_interleaved, echo
from repro.aig.aig import AIG
from repro.aig.build import _lut_programs
from repro.aig.isop import isop
from repro.aig.opt.passes import compress
from repro.aig.opt.traverse import ffc_cone
from repro.contest import DEFAULT_REGISTRY
from repro.ml.mlp import MLP
from repro.synth.from_mlp import mlp_to_aig
from repro.utils.rng import rng_for
from tests.reference_aig_kernels import (
    frozen_kernels,
    reference_compress_rounds,
    reference_isop,
)

SLICE_BENCHMARKS = [74, 82]
SLICE_FLOWS = ["team02", "team03", "team04", "team05", "team06"]
SAMPLES = 200


def _structure(aig: AIG):
    return aig.n_inputs, aig._fanin0, aig._fanin1, aig.outputs


@lru_cache(maxsize=None)
def _slice_graphs() -> tuple[AIG, ...]:
    """Every graph the contest slice hands to ``compress``."""
    import repro.flows.common as common
    from repro.runner import contest_tasks, run_contest_tasks

    captured: list[AIG] = []
    live = common.compress

    def capture(aig, *args, **kwargs):
        captured.append(aig.extract_cone())
        return live(aig, *args, **kwargs)

    common.compress = capture
    try:
        run_contest_tasks(
            contest_tasks(SLICE_BENCHMARKS, SLICE_FLOWS, n_train=SAMPLES,
                          n_valid=SAMPLES, n_test=SAMPLES, effort="small",
                          master_seed=1),
            jobs=1,
        )
    finally:
        common.compress = live
    return tuple(captured)


def _frozen(fn):
    def run():
        with frozen_kernels():
            return fn()

    return run


def _cold(fn):
    """``fn`` with the LUT program cache emptied first, as
    :func:`frozen_kernels` leaves it for the frozen side."""
    def run():
        _lut_programs.cache_clear()
        return fn()

    return run


def test_compress_vs_frozen_kernels(benchmark):
    graphs = _slice_graphs()

    def live():
        return [_structure(compress(g)) for g in graphs]

    def frozen():
        return [_structure(reference_compress_rounds(g)) for g in graphs]

    (ref_time, new_time), (ref, new) = best_of_interleaved(
        [_frozen(frozen), _cold(live)], repeats=5
    )
    benchmark.pedantic(_cold(live), rounds=3, iterations=1)
    assert new == ref
    speedup = ref_time / new_time
    ands_in = sum(g.num_ands for g in graphs)
    ands_out = sum(len(s[1]) for s in new)
    echo(f"\n=== compress on {len(graphs)} contest-slice graphs "
         f"({ands_in} -> {ands_out} ANDs) ===")
    echo(f"  plain loop, frozen kernels: {1e3 * ref_time:8.1f} ms")
    echo(f"  memo + live kernels:        {1e3 * new_time:8.1f} ms "
         f"({speedup:.2f}x)")
    # Measured 1.75-2.4x on a quiet 2-core box and 1.29x at worst on
    # a loaded one; the floor sits below that worst case.
    assert speedup >= 1.2


def _refactor_tables() -> list[tuple[int, int]]:
    """``(table, k)`` of every fanout-free cone ``refactor`` prices."""
    tables = []
    for g in _slice_graphs():
        fanout = g.fanout_counts().tolist()
        for var in range(g.n_inputs + 1, g.num_vars):
            cone = ffc_cone(g, var, fanout, 10)
            if cone is not None:
                tables.append((cone[1], len(cone[0])))
    return tables


def _both_polarities(isop_fn, tables):
    out = []
    for table, k in tables:
        neg = ~table & ((1 << (1 << k)) - 1)
        out.append((isop_fn(table, table, k), isop_fn(neg, neg, k)))
    return out


def test_isop_vs_full_width(benchmark):
    tables = _refactor_tables()
    (ref_time, new_time), (ref, new) = best_of_interleaved(
        [
            lambda: _both_polarities(reference_isop, tables),
            lambda: _both_polarities(isop, tables),
        ],
        repeats=9,
    )
    benchmark.pedantic(
        lambda: _both_polarities(isop, tables), rounds=3, iterations=1
    )
    assert new == ref
    speedup = ref_time / new_time
    widest = max(k for _, k in tables)
    echo(f"\n=== ISOP, both polarities of {len(tables)} refactor cone "
         f"tables (up to {widest} leaves) ===")
    echo(f"  full-width recursion: {1e3 * ref_time:8.1f} ms")
    echo(f"  word-level recursion: {1e3 * new_time:8.1f} ms "
         f"({speedup:.2f}x)")
    assert speedup >= 2.0


def _pruned_mlp() -> MLP:
    problem = DEFAULT_REGISTRY.problem(
        "ex74", n_train=SAMPLES, n_valid=SAMPLES, n_test=SAMPLES
    )
    X, y = problem.train.X.astype(float), problem.train.y
    mlp = MLP(hidden_sizes=(24,), activation="sigmoid",
              rng=rng_for("bench-aig-kernels-mlp"))
    mlp.fit(X, y, epochs=15)
    mlp.prune_to_fanin(8, X, y, rounds=2, retrain_epochs=3)
    return mlp


def test_mlp_to_aig_vs_frozen_kernels(benchmark):
    mlp = _pruned_mlp()

    def live():
        return _structure(mlp_to_aig(mlp))

    (ref_time, new_time), (ref, new) = best_of_interleaved(
        [_frozen(live), _cold(live)], repeats=3
    )
    benchmark.pedantic(_cold(live), rounds=3, iterations=1)
    assert new == ref
    speedup = ref_time / new_time
    echo(f"\n=== mlp_to_aig, 24 sigmoid neurons of fanin 8 "
         f"({len(new[1])} ANDs) ===")
    echo(f"  frozen kernels: {1e3 * ref_time:8.1f} ms")
    echo(f"  live kernels:   {1e3 * new_time:8.1f} ms ({speedup:.1f}x)")
    assert speedup >= 3.0

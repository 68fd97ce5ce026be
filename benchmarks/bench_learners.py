"""The array-native learners vs. the node-by-node oracles they replaced.

Decision trees (Teams 2, 3, 5, 8, 10) and Team 9's CGP hold most of a
contest grid's learner time.  Two benches time them on contest-shaped
work and check the result byte for byte against the frozen oracles in
``tests/reference_learners.py``:

* a Team 8-style 17-tree, depth-8 ``RandomForest`` fit plus predict on
  a fixed 400-row problem (level-wise growth, node-array predict);
* a Team 9-style 600-generation CGP run bootstrapped from a depth-8
  tree's AIG (phenotype-cached fitness, Python-int bit vectors).

Headline asserts: trees >= 1.5x and CGP >= 2x over the oracles, with
identical trees, votes, genomes, fitness traces and RNG state.
"""

import time

import numpy as np

from _report import echo
from repro.cgp import CGPEvolver, CGPGenome
from repro.contest import DEFAULT_REGISTRY
from repro.ml.decision_tree import DecisionTree
from repro.ml.forest import RandomForest
from repro.synth.from_tree import tree_to_aig
from tests.reference_learners import ReferenceEvolver, ReferenceForest

N_SAMPLES = 400
GENERATIONS = 600
BENCHMARK = "ex74"  # 16 inputs; its depth-8 starter has about 100 ANDs


def _problem():
    problem = DEFAULT_REGISTRY.problem(
        BENCHMARK, n_train=N_SAMPLES, n_valid=N_SAMPLES, n_test=N_SAMPLES,
    )
    return problem.train, problem.test


def _best_of_interleaved(fns, repeats):
    """Best-of timing with the candidates interleaved per round, so a
    quiet window on a shared box benefits each of them equally."""
    bests = [float("inf")] * len(fns)
    results = [None] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            results[i] = fn()
            bests[i] = min(bests[i], time.perf_counter() - start)
    return bests, results


def _forest_run(cls, train, test):
    forest = cls(n_trees=17, max_depth=8, rng=np.random.default_rng(8))
    forest.fit(train.X, train.y)
    nodes = [tree.nodes for tree in forest.trees]
    return nodes, forest.predict(train.X), forest.predict(test.X)


def test_forest_fit_predict_vs_oracle(benchmark):
    train, test = _problem()
    (ref_time, new_time), (ref, new) = _best_of_interleaved(
        [
            lambda: _forest_run(ReferenceForest, train, test),
            lambda: _forest_run(RandomForest, train, test),
        ],
        repeats=5,
    )
    benchmark.pedantic(
        lambda: _forest_run(RandomForest, train, test),
        rounds=3, iterations=1,
    )
    assert new[0] == ref[0]
    for got, want in zip(new[1:], ref[1:], strict=True):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    speedup = ref_time / new_time
    n_nodes = sum(len(nodes) for nodes in new[0])
    echo(f"\n=== 17-tree forest fit + predict ({N_SAMPLES} rows, "
         f"{n_nodes} nodes) ===")
    echo(f"  recursive oracle:   {1e3 * ref_time:8.1f} ms")
    echo(f"  level-wise + walk:  {1e3 * new_time:8.1f} ms "
         f"({speedup:.1f}x)")
    assert speedup >= 1.5


def _cgp_run(cls, starter, train):
    rng = np.random.default_rng(9)
    seed = CGPGenome.from_aig(starter, rng=rng)
    evolver = cls(n_nodes=seed.n_nodes, rng=rng)
    genome, fitness = evolver.run(
        train.X, train.y, generations=GENERATIONS, seed_genome=seed
    )
    return (
        genome.funcs.tolist(), genome.in0.tolist(), genome.in1.tolist(),
        genome.output, fitness, evolver.log.fitness,
        evolver.log.mutation_rate, rng.bit_generator.state,
    )


def test_cgp_bootstrapped_run_vs_oracle(benchmark):
    train, _ = _problem()
    half = N_SAMPLES // 2
    starter = tree_to_aig(
        DecisionTree(max_depth=8).fit(train.X[:half], train.y[:half])
    )
    (ref_time, new_time), (ref, new) = _best_of_interleaved(
        [
            lambda: _cgp_run(ReferenceEvolver, starter, train),
            lambda: _cgp_run(CGPEvolver, starter, train),
        ],
        repeats=3,
    )
    benchmark.pedantic(
        lambda: _cgp_run(CGPEvolver, starter, train),
        rounds=3, iterations=1,
    )
    assert new == ref
    speedup = ref_time / new_time
    echo(f"\n=== CGP {GENERATIONS} generations, (1+4)-ES from a "
         f"{starter.num_ands}-AND starter ===")
    echo(f"  evaluate-every-offspring oracle: {1e3 * ref_time:8.1f} ms")
    echo(f"  phenotype-cached bit vectors:    {1e3 * new_time:8.1f} ms "
         f"({speedup:.1f}x)")
    assert speedup >= 2.0

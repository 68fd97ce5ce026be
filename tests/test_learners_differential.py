"""Differential tests: the array-native learners against frozen oracles.

``tests/reference_learners.py`` keeps the node-by-node decision tree
and the evaluate-every-offspring CGP loop.  The level-wise tree, its
node-array ``predict`` and the phenotype-cached evolver must reproduce
them exactly: the same ``nodes`` list, the same predictions, the same
genome, fitness trace and RNG state.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cgp import AIG_FUNCTIONS, XAIG_FUNCTIONS, CGPEvolver, CGPGenome
from repro.ml.decision_tree import DecisionTree
from repro.ml.forest import RandomForest
from repro.synth.from_tree import tree_to_aig
from repro.utils.bitops import pack_bits, unpack_bits
from tests.reference_learners import (
    ReferenceEvolver,
    ReferenceForest,
    ReferenceTree,
    reference_active_nodes,
    reference_evaluate_packed,
)

# ---------------------------------------------------------------------
# Decision trees
# ---------------------------------------------------------------------


@st.composite
def tree_problems(draw):
    """A 0/1 matrix with duplicate rows and constant columns, labels,
    and tree hyper-parameters."""
    tau = draw(st.sampled_from([None, 0.05]))
    # The decomposition fallback is a per-row Python scan in both
    # implementations, so its problems are drawn smaller.
    n = draw(st.integers(0, 300 if tau else 600))
    d = draw(st.integers(1, 24 if tau else 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(0, 2, size=(n, d)).astype(np.uint8)
    n_dup = draw(st.integers(0, n // 2))
    if n_dup:
        X[n - n_dup:] = X[rng.integers(0, n - n_dup, size=n_dup)]
    for col in draw(st.lists(st.integers(0, d - 1), max_size=3)):
        X[:, col] = draw(st.integers(0, 1))
    kind = draw(st.sampled_from(["random", "xor", "majority", "noisy"]))
    if kind == "random":
        y = rng.integers(0, 2, size=n)
    elif kind == "xor":
        y = X[:, 0] ^ X[:, d // 2] ^ (X[:, -1] & X[:, d // 3])
    elif kind == "majority":
        y = 2 * X[:, : min(d, 5)].sum(axis=1) > min(d, 5)
    else:
        y = (X[:, 0] & X[:, -1]) ^ (rng.random(n) < 0.15)
    params = {
        "criterion": draw(st.sampled_from(["entropy", "gini"])),
        "max_depth": draw(st.sampled_from([None, 0, 1, 3, 8])),
        "min_samples_leaf": draw(st.integers(1, 3)),
        "decomposition_tau": tau,
    }
    return X, np.asarray(y, dtype=np.uint8), params


@given(tree_problems(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_tree_matches_recursive_oracle(problem, seed):
    X, y, params = problem
    tree = DecisionTree(**params).fit(X, y)
    oracle = ReferenceTree(**params).fit(X, y)
    assert tree.nodes == oracle.nodes
    X_new = np.random.default_rng(seed).integers(
        0, 2, size=(97, X.shape[1])
    ).astype(np.uint8)
    for rows in (X, X_new):
        got, want = tree.predict(rows), oracle.predict(rows)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    for cf in (0.5, 0.25, 0.05, 0.001):
        tree.prune(cf)
        oracle.prune(cf)
        assert tree.nodes == oracle.nodes
        assert np.array_equal(tree.predict(X_new), oracle.predict(X_new))


def test_forest_matches_oracle_forest():
    rng = np.random.default_rng(7)
    X = rng.integers(0, 2, size=(400, 24)).astype(np.uint8)
    y = ((X[:, 0] & X[:, 1]) | (X[:, 2] ^ X[:, 3])).astype(np.uint8)
    forest = RandomForest(rng=np.random.default_rng(3)).fit(X, y)
    oracle = ReferenceForest(rng=np.random.default_rng(3)).fit(X, y)
    for tree, ref in zip(forest.trees, oracle.trees, strict=True):
        assert tree.nodes == ref.nodes
    assert np.array_equal(forest.predict(X), oracle.predict(X))


# ---------------------------------------------------------------------
# CGP
# ---------------------------------------------------------------------


@st.composite
def cgp_runs(draw):
    n = draw(st.integers(1, 300))
    d = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(0, 2, size=(n, d)).astype(np.uint8)
    y = (X[:, 0] ^ (X[:, -1] & X[:, d // 2])).astype(np.uint8)
    if draw(st.booleans()):
        y ^= (rng.random(n) < 0.1).astype(np.uint8)
    function_set = draw(st.sampled_from([AIG_FUNCTIONS, XAIG_FUNCTIONS]))
    kwargs = {
        "function_set": function_set,
        "n_nodes": draw(st.integers(1, 40)),
        "lam": draw(st.integers(1, 5)),
        "mutation_rate": draw(st.sampled_from([0.0, 0.02, 0.05, 0.3])),
    }
    if draw(st.booleans()):  # mini-batch fitness
        kwargs["batch_size"] = draw(st.integers(1, n + 3))
        kwargs["batch_generations"] = draw(st.integers(1, 60))
    seeded = draw(st.booleans())
    generations = draw(st.integers(0, 150))
    return X, y, kwargs, seeded, generations, draw(st.integers(0, 2**16))


def _evolve(cls, X, y, kwargs, seeded, generations, seed):
    rng = np.random.default_rng(seed)
    seed_genome = None
    if seeded:
        aig = tree_to_aig(DecisionTree(max_depth=4).fit(X, y))
        if aig.num_ands:
            seed_genome = CGPGenome.from_aig(
                aig, rng=rng, function_set=kwargs["function_set"]
            )
            kwargs = {**kwargs, "n_nodes": seed_genome.n_nodes}
    evolver = cls(rng=rng, **kwargs)
    genome, fitness = evolver.run(
        X, y, generations=generations, seed_genome=seed_genome
    )
    return genome, fitness, evolver.log, rng.bit_generator.state


@given(cgp_runs())
@settings(max_examples=40, deadline=None)
def test_evolver_matches_evaluate_every_offspring_oracle(run):
    got = _evolve(CGPEvolver, *run)
    want = _evolve(ReferenceEvolver, *run)
    genome, ref = got[0], want[0]
    assert np.array_equal(genome.funcs, ref.funcs)
    assert np.array_equal(genome.in0, ref.in0)
    assert np.array_equal(genome.in1, ref.in1)
    assert genome.output == ref.output
    assert got[1] == want[1]
    assert got[2].fitness == want[2].fitness
    assert got[2].mutation_rate == want[2].mutation_rate
    assert got[3] == want[3]


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 8),
    st.integers(1, 60),
    st.integers(1, 4),
    st.sampled_from([AIG_FUNCTIONS, XAIG_FUNCTIONS]),
)
@settings(max_examples=60, deadline=None)
def test_packed_evaluation_matches_numpy_oracle(
    seed, n_inputs, n_nodes, n_words, function_set
):
    rng = np.random.default_rng(seed)
    genome = CGPGenome.random(n_inputs, n_nodes, rng, function_set)
    # Arbitrary words, padding bits included.
    packed = rng.integers(
        0, 2**64, size=(n_inputs, n_words), dtype=np.uint64
    )
    assert genome.active_nodes() == reference_active_nodes(genome)
    got = genome.evaluate_packed(packed)
    assert got.dtype == np.uint64
    assert np.array_equal(got, reference_evaluate_packed(genome, packed))
    X = rng.integers(0, 2, size=(64 * n_words - 5, n_inputs)).astype(np.uint8)
    want = unpack_bits(
        reference_evaluate_packed(genome, pack_bits(X))[None, :], X.shape[0]
    )[:, 0]
    got = genome.evaluate(X)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)

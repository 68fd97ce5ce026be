"""Frozen reference learners: the oracles the array-native kernels match.

These are the node-by-node decision tree (recursive growth, per-node
best split, stack-routed prediction) and the per-offspring CGP loop
with numpy packed-word evaluation, kept verbatim in behaviour so the
differential tests and ``benchmarks/bench_learners.py`` can require
byte-identical results from ``repro.ml.decision_tree`` and
``repro.cgp``.  Nothing in ``src/repro`` imports this module.
"""

from __future__ import annotations

import numpy as np

from repro.cgp.evolve import EvolutionLog
from repro.cgp.genome import AIG_FUNCTIONS, CGPGenome
from repro.ml.decision_tree import TreeNode, _pessimistic_errors, entropy, gini
from repro.utils.bitops import pack_bits, popcount64

# ----------------------------------------------------------------------
# Decision tree
# ----------------------------------------------------------------------


class ReferenceTree:
    """The recursive C4.5/CART tree the level-wise grower replaced."""

    def __init__(
        self,
        max_depth=None,
        min_samples_leaf=1,
        criterion="entropy",
        min_gain=1e-9,
        decomposition_tau=None,
    ):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.criterion = criterion
        self.min_gain = min_gain
        self.decomposition_tau = decomposition_tau
        self.nodes: list[TreeNode] = []
        self.n_inputs = None

    def fit(self, X, y):
        X = np.asarray(X, dtype=np.uint8)
        y = np.asarray(y, dtype=np.uint8).ravel()
        self.n_inputs = X.shape[1]
        self.nodes = []
        self._grow(X, y, np.arange(X.shape[0]), depth=0, banned=0)
        return self

    def _impurity(self, pos, total):
        fn = entropy if self.criterion == "entropy" else gini
        return fn(pos, total)

    def _grow(self, X, y, idx, depth, banned) -> int:
        node_id = len(self.nodes)
        y_here = y[idx]
        n = len(idx)
        n_pos = int(y_here.sum())
        value = 1 if 2 * n_pos > n else 0
        node = TreeNode(
            value=value,
            n_samples=n,
            n_errors=min(n_pos, n - n_pos),
        )
        self.nodes.append(node)
        if (
            n_pos == 0
            or n_pos == n
            or (self.max_depth is not None and depth >= self.max_depth)
            or n < max(2, 2 * self.min_samples_leaf)
        ):
            return node_id
        feature, gain = self._best_split(X, y, idx, banned)
        if feature is None:
            return node_id
        use_decomposition = (
            self.decomposition_tau is not None
            and gain < self.decomposition_tau
        )
        if use_decomposition:
            alt = self._decomposition_split(X, y, idx, banned)
            if alt is not None:
                feature = alt
        elif gain < self.min_gain:
            return node_id
        mask = X[idx, feature] == 1
        idx_left = idx[~mask]
        idx_right = idx[mask]
        if (
            len(idx_left) < self.min_samples_leaf
            or len(idx_right) < self.min_samples_leaf
        ):
            return node_id
        node.feature = feature
        node.is_leaf = False
        new_banned = banned | (1 << feature)
        node.left = self._grow(X, y, idx_left, depth + 1, new_banned)
        node.right = self._grow(X, y, idx_right, depth + 1, new_banned)
        return node_id

    def _best_split(self, X, y, idx, banned):
        Xn = X[idx]
        yn = y[idx]
        n = len(idx)
        ones = Xn.sum(axis=0).astype(np.float64)
        pos_ones = Xn[yn == 1].sum(axis=0).astype(np.float64)
        n_pos = float(yn.sum())
        zeros = n - ones
        pos_zeros = n_pos - pos_ones
        parent = self._impurity(np.array(n_pos), np.array(float(n)))
        child = (
            ones / n * self._impurity(pos_ones, ones)
            + zeros / n * self._impurity(pos_zeros, zeros)
        )
        gains = parent - child
        gains = np.where((ones == 0) | (zeros == 0), -np.inf, gains)
        if banned:
            banned_idx = [
                i for i in range(X.shape[1]) if banned & (1 << i)
            ]
            gains[banned_idx] = -np.inf
        best = int(np.argmax(gains))
        if not np.isfinite(gains[best]):
            return None, 0.0
        return best, float(gains[best])

    def _decomposition_split(self, X, y, idx, banned):
        Xn = X[idx]
        yn = y[idx]
        chosen = None
        for feature in range(X.shape[1]):
            if banned & (1 << feature):
                continue
            mask = Xn[:, feature] == 1
            y0, y1 = yn[~mask], yn[mask]
            if len(y0) == 0 or len(y1) == 0:
                continue
            constant = (
                y0.min() == y0.max() or y1.min() == y1.max()
            )
            complement = self._looks_complement(Xn, yn, feature)
            if constant or complement:
                chosen = feature
        return chosen

    @staticmethod
    def _looks_complement(Xn, yn, feature) -> bool:
        other_cols = [c for c in range(Xn.shape[1]) if c != feature]
        seen = {}
        for row, label in zip(Xn, yn, strict=True):
            key = row[other_cols].tobytes()
            side = row[feature]
            prev = seen.get(key)
            if prev is None:
                seen[key] = (int(side), int(label))
            else:
                prev_side, prev_label = prev
                if prev_side != side and prev_label == label:
                    return False
        return True

    def prune(self, confidence_factor=0.25):
        if not self.nodes:
            return self
        self._prune_rec(0, confidence_factor)
        return self

    def _prune_rec(self, node_id, cf):
        node = self.nodes[node_id]
        leaf_error = _pessimistic_errors(node.n_samples, node.n_errors, cf)
        if node.is_leaf:
            return leaf_error
        subtree_error = self._prune_rec(node.left, cf) + self._prune_rec(
            node.right, cf
        )
        if leaf_error <= subtree_error + 0.1:
            node.is_leaf = True
            node.feature = -1
            node.left = -1
            node.right = -1
            return leaf_error
        return subtree_error

    def predict(self, X):
        X = np.asarray(X, dtype=np.uint8)
        if X.ndim == 1:
            X = X[None, :]
        out = np.zeros(X.shape[0], dtype=np.uint8)
        stack = [(0, np.arange(X.shape[0]))]
        while stack:
            node_id, idx = stack.pop()
            if idx.size == 0:
                continue
            node = self.nodes[node_id]
            if node.is_leaf:
                out[idx] = node.value
                continue
            mask = X[idx, node.feature] == 1
            stack.append((node.left, idx[~mask]))
            stack.append((node.right, idx[mask]))
        return out


class ReferenceForest:
    """``RandomForest.fit``/``predict`` over :class:`ReferenceTree`,
    drawing the same bootstrap rows and feature subsets."""

    def __init__(self, n_trees=17, max_depth=8, rng=None):
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.trees = []
        self.feature_subsets = []

    def fit(self, X, y):
        X = np.asarray(X, dtype=np.uint8)
        y = np.asarray(y, dtype=np.uint8).ravel()
        n, n_features = X.shape
        k = max(1, int(round(np.sqrt(n_features))))
        for _ in range(self.n_trees):
            idx = self.rng.integers(0, n, size=n)
            cols = np.sort(
                self.rng.choice(n_features, size=min(k, n_features),
                                replace=False)
            )
            tree = ReferenceTree(max_depth=self.max_depth)
            tree.fit(X[np.ix_(idx, cols)], y[idx])
            self.trees.append(tree)
            self.feature_subsets.append(cols)
        return self

    def predict(self, X):
        X = np.asarray(X, dtype=np.uint8)
        votes = np.zeros((X.shape[0], self.n_trees), dtype=np.uint8)
        for t, (tree, cols) in enumerate(
            zip(self.trees, self.feature_subsets, strict=True)
        ):
            votes[:, t] = tree.predict(X[:, cols])
        return (votes.sum(axis=1) * 2 > self.n_trees).astype(np.uint8)


# ----------------------------------------------------------------------
# CGP
# ----------------------------------------------------------------------

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

_NUMPY_IMPL = {
    "and": lambda a, b: a & b,
    "and_na": lambda a, b: (a ^ _ONES) & b,
    "and_nb": lambda a, b: a & (b ^ _ONES),
    "nor": lambda a, b: (a ^ _ONES) & (b ^ _ONES),
    "or": lambda a, b: a | b,
    "nand": lambda a, b: (a & b) ^ _ONES,
    "not": lambda a, b: a ^ _ONES,
    "buf": lambda a, b: a,
    "xor": lambda a, b: a ^ b,
    "xnor": lambda a, b: (a ^ b) ^ _ONES,
}


def reference_active_nodes(genome: CGPGenome) -> list[int]:
    """The set-based depth-first active-node walk."""
    active = set()
    stack = [genome.output - genome.n_inputs]
    while stack:
        node = stack.pop()
        if node < 0 or node in active:
            continue
        active.add(node)
        for ref in (genome.in0[node], genome.in1[node]):
            stack.append(int(ref) - genome.n_inputs)
    return sorted(active)


def reference_evaluate_packed(genome: CGPGenome, packed_inputs):
    """Per-node numpy evaluation over packed uint64 words."""
    n_words = packed_inputs.shape[1]
    values = {i: packed_inputs[i] for i in range(genome.n_inputs)}
    for node in reference_active_nodes(genome):
        fn = _NUMPY_IMPL[genome.function_set[genome.funcs[node]]]
        a = values[int(genome.in0[node])]
        b = values[int(genome.in1[node])]
        values[genome.n_inputs + node] = fn(a, b)
    out = values.get(genome.output)
    if out is None:
        out = np.zeros(n_words, dtype=np.uint64)
    return out


def _reference_fitness(genome, packed, y_packed, n_samples) -> float:
    out = reference_evaluate_packed(genome, packed)
    wrong = out ^ y_packed
    pad = n_samples % 64
    if pad:
        wrong[-1] &= np.uint64((1 << pad) - 1)
    errors = int(popcount64(wrong).sum())
    return 1.0 - errors / n_samples


class ReferenceEvolver:
    """The (1+lambda)-ES loop that evaluated every offspring."""

    def __init__(
        self,
        n_nodes=500,
        lam=4,
        mutation_rate=0.05,
        function_set=AIG_FUNCTIONS,
        batch_size=None,
        batch_generations=1000,
        rng=None,
    ):
        self.n_nodes = n_nodes
        self.lam = lam
        self.mutation_rate = mutation_rate
        self.function_set = tuple(function_set)
        self.batch_size = batch_size
        self.batch_generations = batch_generations
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.log = EvolutionLog()

    def run(self, X, y, generations=2000, seed_genome=None):
        X = np.asarray(X, dtype=np.uint8)
        y = np.asarray(y, dtype=np.uint8).ravel()
        n = X.shape[0]
        packed_full = pack_bits(X)
        y_packed_full = pack_bits(y[:, None])[0]
        if seed_genome is not None:
            parent = seed_genome
        else:
            parent = CGPGenome.random(
                X.shape[1], self.n_nodes, self.rng, self.function_set
            )
        rate = self.mutation_rate
        batch = None
        packed, y_packed, n_eval = packed_full, y_packed_full, n
        parent_fit = _reference_fitness(parent, packed, y_packed, n_eval)
        for gen in range(generations):
            if self.batch_size is not None and self.batch_size < n:
                if batch is None or gen % self.batch_generations == 0:
                    idx = self.rng.choice(n, size=self.batch_size,
                                          replace=False)
                    batch = idx
                    packed = pack_bits(X[idx])
                    y_packed = pack_bits(y[idx][:, None])[0]
                    n_eval = self.batch_size
                    parent_fit = _reference_fitness(
                        parent, packed, y_packed, n_eval
                    )
            improved = False
            best_child = None
            best_fit = -1.0
            for _ in range(self.lam):
                child = parent.mutate(rate, self.rng)
                fit = _reference_fitness(child, packed, y_packed, n_eval)
                if fit > best_fit or (
                    fit == best_fit
                    and best_child is not None
                    and len(reference_active_nodes(child))
                    > len(reference_active_nodes(best_child))
                ):
                    best_fit = fit
                    best_child = child
            if best_fit > parent_fit:
                improved = True
            if best_fit > parent_fit or (
                best_fit == parent_fit
                and len(reference_active_nodes(best_child))
                >= len(reference_active_nodes(parent))
            ):
                parent = best_child
                parent_fit = best_fit
            min_rate = 1.0 / (3 * parent.n_nodes + 1)
            if improved:
                rate = min(rate * 1.5, 0.5)
            else:
                rate = max(rate * 1.5 ** (-0.25), min_rate)
            self.log.fitness.append(parent_fit)
            self.log.mutation_rate.append(rate)
        final_fit = _reference_fitness(parent, packed_full, y_packed_full, n)
        return parent, final_fit

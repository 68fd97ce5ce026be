"""C4.5-style decision trees on binary features.

This single implementation covers the roles the contest teams filled
with WEKA's J48 (Team 2), scikit-learn's CART (Teams 5 and 10) and two
custom C4.5 variants (Teams 3 and 8):

* information-gain or gini splitting on 0/1 features;
* depth / minimum-samples stopping (`max_depth`, `min_samples_leaf`);
* C4.5 *confidence-factor* (pessimistic error) subtree pruning, the
  knob Team 2 sweeps over {0.001, 0.01, 0.1, 0.25, 0.5};
* Team 8's *functional decomposition* fallback: when the best mutual
  information is below a threshold ``tau``, split instead on a feature
  for which one branch looks constant or one branch looks like the
  complement of the other (checked aggressively: assumed true until a
  counterexample is found, picking the last satisfying feature, as in
  their contest implementation).

Trees expose their structure (`nodes` array) so the synthesis bridges
can turn them into MUX-tree AIGs or path covers.

The kernels are array-native, so their cost scales with tree levels,
not nodes:

* growth is level-wise: the live samples are tagged by frontier node,
  every frontier node's split counts come from one integer
  ``reduceat`` per level, the gain expressions run on the
  ``(nodes x features)`` matrix with a row-wise first-max ``argmax``,
  and the nodes are finally renumbered into the preorder a recursive
  grower produces (a node, its left subtree, then its right subtree);
  only Team 8's fallback is still a per-node call;
* ``fit`` and ``prune`` flatten ``nodes`` into ``feature``/``next``/
  ``value`` arrays with leaves as self-loops, and ``predict`` moves all
  rows down together, one gather per level.

Fitting and prediction fail closed: non-0/1 data, a 1-D feature
matrix, mismatched lengths, an unfitted tree and a wrong input width
raise errors that name the problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv

from repro.twolevel.cover import Cover
from repro.twolevel.cube import Cube
from repro.utils.bitops import as_bits

_EPS = 1e-12


def entropy(pos: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Binary entropy of ``pos`` successes out of ``total`` (vectorized)."""
    total = np.maximum(total, _EPS)
    p = np.clip(pos / total, _EPS, 1 - _EPS)
    return -(p * np.log2(p) + (1 - p) * np.log2(1 - p))


def gini(pos: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Gini impurity (vectorized)."""
    total = np.maximum(total, _EPS)
    p = pos / total
    return 2 * p * (1 - p)


@dataclass
class TreeNode:
    """One node; leaves have ``feature == -1``."""

    feature: int = -1
    left: int = -1   # child when feature value is 0
    right: int = -1  # child when feature value is 1
    value: int = 0   # majority label (used when leaf)
    n_samples: int = 0
    n_errors: int = 0  # training errors if this node were a leaf
    is_leaf: bool = True


class DecisionTree:
    """Binary-feature classification tree.

    Parameters
    ----------
    max_depth:
        Depth cap; ``None`` grows until purity (Team 7's "unlimited").
    min_samples_leaf:
        Minimum samples to keep splitting (WEKA's ``-M``).
    criterion:
        ``"entropy"`` (C4.5/J48) or ``"gini"`` (CART).
    min_gain:
        Minimum impurity gain to accept a split.
    decomposition_tau:
        When set, enables Team 8's functional-decomposition fallback
        for splits whose best gain is below this threshold.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_leaf: int = 1,
        criterion: str = "entropy",
        min_gain: float = 1e-9,
        decomposition_tau: float | None = None,
    ):
        if criterion not in ("entropy", "gini"):
            raise ValueError(f"unknown criterion {criterion!r}")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.criterion = criterion
        self.min_gain = min_gain
        self.decomposition_tau = decomposition_tau
        self.nodes: list[TreeNode] = []
        self.n_inputs: int | None = None
        self._walk: tuple[np.ndarray, np.ndarray, np.ndarray, int] | None = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTree":
        X = as_bits(X, "X")
        y = as_bits(y, "y").ravel()
        if X.ndim != 2:
            raise ValueError(
                f"X must be a 2-D sample matrix, got shape {X.shape}"
            )
        if X.shape[0] != y.shape[0]:
            raise ValueError(
                f"X/y length mismatch: {X.shape[0]} rows, {y.shape[0]} labels"
            )
        self.n_inputs = X.shape[1]
        self.nodes = self._grow(X, y)
        self._compile()
        return self

    def _grow(self, X: np.ndarray, y: np.ndarray) -> list[TreeNode]:
        """Grow the tree level by level; returns its nodes in preorder.

        The frontier is one array of live sample ids, grouped by node
        and ascending within each group, so one ``reduceat`` per level
        yields every frontier node's split counts at once.
        """
        n_rows, n_features = X.shape
        if n_rows == 0:
            return [TreeNode()]
        impurity = entropy if self.criterion == "entropy" else gini
        min_leaf = self.min_samples_leaf
        min_split = max(2, 2 * min_leaf)
        grown: list[TreeNode] = []  # breadth-first
        order = np.arange(n_rows)
        sizes = np.array([n_rows])
        banned = np.zeros((1, n_features), dtype=bool)
        depth = 0
        while sizes.size:
            starts = np.cumsum(sizes) - sizes
            n_pos = np.add.reduceat(y[order], starts, dtype=np.int64)
            first_id = len(grown)
            for n, p in zip(sizes.tolist(), n_pos.tolist(), strict=True):
                grown.append(TreeNode(
                    value=1 if 2 * p > n else 0,
                    n_samples=n,
                    n_errors=min(p, n - p),
                ))
            live = (n_pos > 0) & (n_pos < sizes) & (sizes >= min_split)
            if self.max_depth is not None and depth >= self.max_depth:
                live[:] = False
            if not live.any():
                break
            # Restrict the frontier to the nodes that may split.
            node_ids = first_id + np.flatnonzero(live)
            order = order[np.repeat(live, sizes)]
            sizes, n_pos, banned = sizes[live], n_pos[live], banned[live]
            starts = np.cumsum(sizes) - sizes
            Xs = X[order]
            ys = y[order]
            ones_i = np.add.reduceat(Xs, starts, axis=0, dtype=np.int64)
            pos_ones_i = np.add.reduceat(
                Xs & ys[:, None], starts, axis=0, dtype=np.int64
            )
            # The per-node gain expressions, one row per frontier node.
            n = sizes.astype(np.float64)[:, None]
            ones = ones_i.astype(np.float64)
            pos_ones = pos_ones_i.astype(np.float64)
            zeros = n - ones
            pos_zeros = n_pos.astype(np.float64)[:, None] - pos_ones
            parent = impurity(n_pos.astype(np.float64), n[:, 0])
            child = (
                ones / n * impurity(pos_ones, ones)
                + zeros / n * impurity(pos_zeros, zeros)
            )
            gains = parent[:, None] - child
            # A split is useless if one side is empty or the feature was
            # already used on this path (re-splitting a binary feature).
            gains[(ones == 0) | (zeros == 0) | banned] = -np.inf
            rows = np.arange(sizes.size)
            feature = gains.argmax(axis=1)
            gain = gains[rows, feature]
            split = np.isfinite(gain)
            if self.decomposition_tau is None:
                split &= gain >= self.min_gain
            else:
                decompose = split & (gain < self.decomposition_tau)
                split &= decompose | (gain >= self.min_gain)
                for i in np.flatnonzero(decompose).tolist():
                    idx = order[starts[i]:starts[i] + sizes[i]]
                    alt = self._decomposition_split(X, y, idx, banned[i])
                    if alt is not None:
                        feature[i] = alt
            n_right = ones_i[rows, feature]
            n_left = sizes - n_right
            split &= (n_left >= min_leaf) & (n_right >= min_leaf)
            if not split.any():
                break
            # Children of the r-th splitting node take the r-th pair of
            # slots on the next level: left (x=0) first, then right.
            next_id = len(grown)
            for r, (i, f) in enumerate(zip(
                node_ids[split].tolist(), feature[split].tolist(),
                strict=True,
            )):
                node = grown[i]
                node.feature = f
                node.is_leaf = False
                node.left = next_id + 2 * r
                node.right = next_id + 2 * r + 1
            group = np.repeat(np.cumsum(split) - 1, sizes)
            go = np.repeat(split, sizes)
            side = Xs[np.arange(order.size), feature[np.repeat(rows, sizes)]]
            key = (2 * group + side)[go]
            order = order[go][np.argsort(key, kind="stable")]
            sizes = np.stack([n_left[split], n_right[split]], axis=1).ravel()
            banned = banned[split]
            banned[np.arange(banned.shape[0]), feature[split]] = True
            banned = np.repeat(banned, 2, axis=0)
            depth += 1
        return _preorder(grown)

    def _decomposition_split(self, X, y, idx, banned) -> int | None:
        """Team 8's fallback: constant branch or complement branches.

        ``banned`` flags the features already used on the node's path.

        Checked aggressively (complement assumed until a counterexample
        is seen) and picking the *last* satisfying feature, both
        matching the behaviour their write-up describes.
        """
        Xn = X[idx]
        yn = y[idx]
        chosen = None
        for feature in np.flatnonzero(~banned).tolist():
            mask = Xn[:, feature] == 1
            y0, y1 = yn[~mask], yn[mask]
            if len(y0) == 0 or len(y1) == 0:
                continue
            constant = (
                y0.min() == y0.max() or y1.min() == y1.max()
            )
            complement = self._looks_complement(Xn, yn, feature, mask)
            if constant or complement:
                chosen = feature
        return chosen

    @staticmethod
    def _looks_complement(Xn, yn, feature, mask) -> bool:
        """True unless a counterexample to branch-complementarity exists.

        Two samples that agree on every feature except ``feature``
        must have opposite labels for the branches to be complements.
        """
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

    # ------------------------------------------------------------------
    # C4.5 confidence-factor pruning
    # ------------------------------------------------------------------
    def prune(self, confidence_factor: float = 0.25) -> "DecisionTree":
        """Pessimistic-error subtree replacement (J48's ``-C``).

        Smaller confidence factors prune more aggressively.
        """
        if not self.nodes:
            return self
        self._prune_rec(0, confidence_factor)
        self._compile()
        return self

    def _prune_rec(self, node_id: int, cf: float) -> float:
        """Returns the estimated error count of the (pruned) subtree."""
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

    # ------------------------------------------------------------------
    # Prediction and export
    # ------------------------------------------------------------------
    def _compile(self) -> None:
        """Flatten ``nodes`` into the arrays :meth:`predict` walks.

        ``next[2 * i + b]`` is node ``i``'s child for feature value
        ``b``; a leaf loops back to itself, so every row can take the
        same number of steps (the tree depth).
        """
        nodes = self.nodes
        feature = np.array(
            [0 if node.is_leaf else node.feature for node in nodes],
            dtype=np.intp,
        )
        nxt = np.array(
            [(i, i) if node.is_leaf else (node.left, node.right)
             for i, node in enumerate(nodes)],
            dtype=np.intp,
        ).ravel()
        value = np.array([node.value for node in nodes], dtype=np.uint8)
        self._walk = (feature, nxt, value, self.depth())

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._walk is None:
            raise RuntimeError("tree is not fitted")
        X = np.asarray(X, dtype=np.uint8)
        if X.ndim == 1:
            X = X[None, :]
        if X.ndim != 2:
            raise ValueError(
                f"X must be a 2-D sample matrix, got shape {X.shape}"
            )
        if X.shape[1] != self.n_inputs:
            raise ValueError(
                f"expected {self.n_inputs} input columns, got {X.shape[1]}"
            )
        feature, nxt, value, depth = self._walk
        rows = np.arange(X.shape[0])
        node = np.zeros(X.shape[0], dtype=np.intp)
        for _ in range(depth):
            node = nxt[2 * node + (X[rows, feature[node]] == 1)]
        return value[node]

    def depth(self) -> int:
        """Maximum root-to-leaf edge count."""
        if not self.nodes:
            return 0

        def rec(node_id):
            node = self.nodes[node_id]
            if node.is_leaf:
                return 0
            return 1 + max(rec(node.left), rec(node.right))

        return rec(0)

    def num_leaves(self) -> int:
        """Count of leaves reachable from the root (after pruning)."""
        count = 0
        stack = [0] if self.nodes else []
        while stack:
            node = self.nodes[stack.pop()]
            if node.is_leaf:
                count += 1
            else:
                stack.append(node.left)
                stack.append(node.right)
        return count

    def to_cover(self) -> Cover:
        """Cover of root-to-leaf paths ending in a 1-leaf (DT -> PLA).

        This is exactly Team 2's ``j48topla`` conversion.
        """
        if self.n_inputs is None:
            raise RuntimeError("tree is not fitted")
        cubes: list[Cube] = []

        def rec(node_id: int, path: list[tuple[int, int]]):
            node = self.nodes[node_id]
            if node.is_leaf:
                if node.value == 1:
                    cubes.append(Cube.from_literals(path))
                return
            rec(node.left, path + [(node.feature, 0)])
            rec(node.right, path + [(node.feature, 1)])

        rec(0, [])
        return Cover(self.n_inputs, cubes)


def _preorder(grown: list[TreeNode]) -> list[TreeNode]:
    """Renumber breadth-first nodes into depth-first preorder (node,
    then its whole left subtree, then its right subtree)."""
    rank = [0] * len(grown)
    visit = []
    stack = [0]
    while stack:
        i = stack.pop()
        rank[i] = len(visit)
        visit.append(grown[i])
        node = grown[i]
        if not node.is_leaf:
            stack.append(node.right)
            stack.append(node.left)
    for node in visit:
        if not node.is_leaf:
            node.left = rank[node.left]
            node.right = rank[node.right]
    return visit


def _pessimistic_errors(n: int, errors: int, cf: float) -> float:
    """C4.5 upper confidence bound on errors at a node.

    Uses the Clopper-Pearson upper bound on the binomial error rate at
    confidence level ``cf`` (J48's ``CF`` parameter), scaled by ``n``.
    """
    if n == 0:
        return 0.0
    if errors >= n:
        return float(n)
    # The beta quantile, called directly: ``scipy.stats.beta.ppf``
    # wraps the same function at ~25x the per-call cost.
    upper = betaincinv(errors + 1, n - errors, 1 - cf)
    return float(n * upper)

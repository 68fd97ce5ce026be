"""K-feasible cut enumeration and cut-function computation.

Used by the rewriting pass: every AND node gets a set of cuts (leaf
sets of bounded size) and, when requested, the truth table of the node
in terms of each cut's leaves.  Truth tables are computed *bottom-up*
during enumeration — a merged cut's table is assembled from its two
fanin cut tables by leaf-set expansion — so no cone is ever walked,
which keeps the cost per cut constant even on chain-shaped graphs
where a 4-leaf cut can span thousands of nodes.

:func:`cut_function` (cone evaluation for arbitrary leaf sets, used by
the refactoring pass and by tests) delegates to the iterative walker
in :mod:`repro.aig.opt.traverse`; the seed's recursive version hit the
Python recursion limit on exactly those deep-cone cuts.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

from repro.aig.aig import AIG
from repro.aig.isop import full_mask, var_mask
from repro.aig.opt import traverse

Cut = tuple[int, ...]  # sorted variable indices

TRIVIAL_TABLE = 0b10  # the identity function over one leaf


@lru_cache(maxsize=1 << 14)
def _expand_map(positions: Cut, k_sup: int) -> tuple[int, ...]:
    """Minterm projection for expanding a sub-cut table to a superset.

    ``positions[i]`` is the position of the sub-cut's leaf ``i`` in
    the super-cut; entry ``m`` of the result is the sub-cut minterm
    that super-cut minterm ``m`` projects to.
    """
    out = []
    for m in range(1 << k_sup):
        src = 0
        for i, p in enumerate(positions):
            if (m >> p) & 1:
                src |= 1 << i
        out.append(src)
    return tuple(out)


@lru_cache(maxsize=1 << 16)
def _expand_table(table: int, positions: Cut, k_sup: int) -> int:
    out = 0
    for m, src in enumerate(_expand_map(positions, k_sup)):
        if (table >> src) & 1:
            out |= 1 << m
    return out


def _expand(table: int, sub: Cut, sup: Cut) -> int:
    """Re-express ``table`` (over leaves ``sub``) over superset ``sup``."""
    if sub == sup:
        return table
    if table == TRIVIAL_TABLE and len(sub) == 1:
        # The identity over one leaf is that leaf's variable table.
        return var_mask(len(sup), sup.index(sub[0]))
    return _expand_table(table, tuple(map(sup.index, sub)), len(sup))


def _node_cuts(
    aig: AIG, k: int, max_cuts: int, with_tables: bool
) -> list[list[tuple[int, Cut, int]]]:
    """Per-variable ``(mask, cut, table)`` entries, kept cuts only.

    A leaf set is an int bitmask while cuts are merged and pruned:
    union is ``|``, the size check ``bit_count()`` and dominance
    ``p & m == p``.  The sorted leaf tuple is built only for cuts that
    survive pruning; they are ordered by ``(len, cut)`` and truncated
    to ``max_cuts``.  ``table`` is the root's function over the cut.
    When ``with_tables`` is false no table is computed and the slot
    keeps the pair of fanin entries the cut was merged from (the
    trivial cut keeps its identity table).
    """
    base = aig.n_inputs + 1
    entries: list[list[tuple[int, Cut, int]]] = [[(0, (), 0)]]
    entries += [[(1 << v, (v,), TRIVIAL_TABLE)] for v in range(1, base)]
    var = base
    for f0, f1 in zip(aig._fanin0, aig._fanin1, strict=True):
        own = 1 << var
        merged: dict[int, tuple | None] = {own: None}
        cuts1 = entries[f1 >> 1]
        for e0 in entries[f0 >> 1]:
            m0 = e0[0]
            for e1 in cuts1:
                m = m0 | e1[0]
                if m.bit_count() <= k and m not in merged:
                    merged[m] = (e0, e1)
        # Drop dominated cuts (proper supersets of another cut);
        # distinct masks of one size never dominate each other.
        kept: list[int] = []
        for m in sorted(merged, key=int.bit_count):
            for p in kept:
                if p & m == p:
                    break
            else:
                kept.append(m)
        node: list[tuple[int, Cut, int]] = []
        for m in kept:
            pair = merged[m]
            if pair is None:
                node.append((own, (var,), TRIVIAL_TABLE))
                continue
            e0, e1 = pair
            node.append((m, tuple(sorted({*e0[1], *e1[1]})), pair))
        node.sort(key=lambda e: (len(e[1]), e[1]))
        del node[max_cuts:]
        if with_tables:
            for i, (m, cut, pair) in enumerate(node):
                if m == own:
                    continue
                (_, c0, t0), (_, c1, t1) = pair
                fm = full_mask(len(cut))
                a = _expand(t0, c0, cut)
                if f0 & 1:
                    a = ~a & fm
                b = _expand(t1, c1, cut)
                if f1 & 1:
                    b = ~b & fm
                node[i] = (m, cut, a & b)
        entries.append(node)
        var += 1
    return entries


def enumerate_cuts(
    aig: AIG, k: int = 4, max_cuts: int = 8
) -> dict[int, list[Cut]]:
    """Per-variable k-feasible cuts (including the trivial cut).

    Returns a dict mapping each variable index to a list of cuts; each
    cut is a sorted tuple of leaf variable indices.  The constant
    variable never appears as a leaf.
    """
    entries = _node_cuts(aig, k, max_cuts, with_tables=False)
    return {v: [e[1] for e in node] for v, node in enumerate(entries)}


def enumerate_cuts_with_truths(
    aig: AIG, k: int = 4, max_cuts: int = 8
) -> dict[int, list[tuple[Cut, int]]]:
    """Cuts plus the node's truth table over each cut's leaves.

    Same enumeration as :func:`enumerate_cuts`, but every surviving
    cut carries the function of its root in terms of its leaves,
    assembled bottom-up from the fanin cut tables.  Entries are
    ``(cut, table)`` pairs; the table of the trivial cut ``(var,)`` is
    the identity ``0b10``.
    """
    entries = _node_cuts(aig, k, max_cuts, with_tables=True)
    return {v: [e[1:] for e in node] for v, node in enumerate(entries)}


def cut_function(aig: AIG, root: int, leaves: Sequence[int]) -> int:
    """Truth table of variable ``root`` in terms of ``leaves``.

    ``leaves`` must be a cut of ``root`` (every path from the root to
    the inputs passes through a leaf); otherwise a ``ValueError`` is
    raised when an input variable outside the cut is reached.
    Iterative — safe on cones of any depth.
    """
    return traverse.cut_truth(aig, root, leaves)

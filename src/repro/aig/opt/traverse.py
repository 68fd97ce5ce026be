"""Iterative (stack-based) cone walks shared by all optimization passes.

The seed implementations of cut-function evaluation and MFFC sizing
were recursive, and their recursion depth is bounded only by the cone
depth — on chain-shaped graphs (deep ripple/parity chains, exactly
what the circuit builders emit for learned arithmetic) they blew the
Python recursion limit.  Every walk here uses an explicit stack, so
graph depth is never a correctness concern again; the pass layer,
:mod:`repro.aig.cuts` and the fraig-lite prover all route through
these helpers.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.aig.aig import AIG
from repro.aig.isop import full_mask, var_mask

Cut = tuple[int, ...]


def cut_truth(aig: AIG, root: int, leaves: Sequence[int]) -> int:
    """Truth table of variable ``root`` in terms of ``leaves``.

    ``leaves`` must be a cut of ``root``; reaching a primary input
    outside the cut raises ``ValueError``.  Iterative post-order
    evaluation — safe on cones of any depth.
    """
    k = len(leaves)
    fm = full_mask(k)
    values = {0: 0}
    for pos, leaf in enumerate(leaves):
        values[leaf] = var_mask(k, pos)
    if root in values:
        return values[root]
    stack = [root]
    while stack:
        var = stack[-1]
        if var in values:
            stack.pop()
            continue
        if not aig.is_and_var(var):
            raise ValueError(
                f"variable {var} reached outside the cut {tuple(leaves)}"
            )
        f0, f1 = aig.fanins(var)
        v0, v1 = f0 >> 1, f1 >> 1
        t0 = values.get(v0)
        t1 = values.get(v1)
        if t0 is None or t1 is None:
            if t0 is None:
                stack.append(v0)
            if t1 is None:
                stack.append(v1)
            continue
        stack.pop()
        a = ~t0 & fm if f0 & 1 else t0
        b = ~t1 & fm if f1 & 1 else t1
        values[var] = a & b
    return values[root]


def ffc_cone(
    aig: AIG, var: int, fanout: Sequence[int], max_leaves: int
) -> tuple[Cut, int, int] | None:
    """Leaves, truth table and MFFC size of ``var``'s fanout-free cone.

    One walk answers what the cone's leaves are, what ``var``
    computes over them (:func:`cut_truth`) and how many nodes would
    die with it: the size of its maximum fanout-free cone (MFFC).
    ``fanout`` is the graph's fanout count array.  Single-fanout AND
    fanins are expanded, everything else but the constant is a leaf;
    the expanded nodes are reached once each (the cone is a tree) and
    are exactly the MFFC.  Returns None when the cone has fewer than 2
    or more than ``max_leaves`` leaves.
    """
    base = aig.n_inputs + 1
    fanin0, fanin1 = aig._fanin0, aig._fanin1
    inner = [var]
    found: set[int] = set()
    j = var - base
    stack = [fanin0[j] >> 1, fanin1[j] >> 1]
    while stack:
        v = stack.pop()
        if v >= base and fanout[v] == 1:
            inner.append(v)
            j = v - base
            stack.append(fanin0[j] >> 1)
            stack.append(fanin1[j] >> 1)
        elif v:
            found.add(v)
            if len(found) > max_leaves:
                return None
    if len(found) < 2:
        return None
    leaves = tuple(sorted(found))
    k = len(leaves)
    fm = full_mask(k)
    values = {0: 0}
    for pos, leaf in enumerate(leaves):
        values[leaf] = var_mask(k, pos)
    # Fanins precede their node, so ascending order is topological.
    inner.sort()
    for v in inner:
        j = v - base
        f0, f1 = fanin0[j], fanin1[j]
        a = values[f0 >> 1]
        if f0 & 1:
            a ^= fm
        b = values[f1 >> 1]
        if f1 & 1:
            b ^= fm
        values[v] = a & b
    return leaves, values[var], len(inner)


def bounded_cut(
    aig: AIG,
    roots: Iterable[int],
    max_leaves: int = 12,
    max_visit: int = 48,
) -> Cut | None:
    """A common cut of ``roots`` found by bounded backward expansion.

    AND nodes are expanded until the visit budget runs out; the
    unexpanded frontier (primary inputs plus any AND nodes beyond the
    budget) is returned as the cut.  Any frontier of a backward walk
    is a valid cut, so :func:`cut_truth` over the result terminates
    for every root.  Returns None when the frontier exceeds
    ``max_leaves`` — callers treat that as "no bounded proof found".
    """
    expanded = set()
    leaves = set()
    stack = [r for r in roots]
    while stack:
        v = stack.pop()
        if v in expanded or v in leaves or aig.is_const_var(v):
            continue
        if aig.is_and_var(v) and len(expanded) < max_visit:
            expanded.add(v)
            f0, f1 = aig.fanins(v)
            stack.append(f0 >> 1)
            stack.append(f1 >> 1)
        else:
            leaves.add(v)
            if len(leaves) > max_leaves:
                return None
    return tuple(sorted(leaves))

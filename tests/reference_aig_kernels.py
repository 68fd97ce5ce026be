"""Frozen AIG kernels: the oracles the word-level and bitmask kernels match.

These are the full-width Minato–Morreale ISOP (cofactors expanded back
over all ``k`` variables), the tuple-and-set cut enumeration (with and
without bottom-up cut tables), the per-pattern neuron truth table, the
numpy-mask ``reachable_vars``/``extract_cone`` and the ``compress``
round loop that re-runs every pass every round.  They are kept
verbatim in behaviour so ``tests/test_aig_kernels_differential.py``
and ``benchmarks/bench_aig_kernels.py`` can require identical results
from ``repro.aig`` and ``repro.synth``, and so the seed optimization
baseline (``tests/reference_seed_opt.py``) runs on kernels the engine
does not share.  Nothing in ``src/repro`` imports this module.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from repro.aig.aig import AIG, CONST0
from repro.ml.mlp import _act

Cube = tuple[tuple[int, int], ...]
Cut = tuple[int, ...]

# ----------------------------------------------------------------------
# ISOP over full-width truth tables
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _full_mask(k: int) -> int:
    return (1 << (1 << k)) - 1


@lru_cache(maxsize=None)
def _var_mask(k: int, i: int) -> int:
    s = 1 << i
    block = ((1 << s) - 1) << s
    period = 2 * s
    m = 0
    for r in range((1 << k) // period):
        m |= block << (r * period)
    return m


def _cofactor0(table: int, k: int, i: int) -> int:
    half = table & ~_var_mask(k, i)
    return half | (half << (1 << i))


def _cofactor1(table: int, k: int, i: int) -> int:
    half = table & _var_mask(k, i)
    return half | (half >> (1 << i))


def reference_isop(lower: int, upper: int, k: int) -> tuple[list[Cube], int]:
    """The full-width ``repro.aig.isop.isop``."""
    if lower & ~upper & _full_mask(k):
        raise ValueError("infeasible interval: lower not contained in upper")
    return _isop(lower, upper, k, k)


def _isop(lower: int, upper: int, k: int, top: int) -> tuple[list[Cube], int]:
    if lower == 0:
        return [], 0
    if upper == _full_mask(k):
        return [()], _full_mask(k)
    var = None
    for i in reversed(range(top)):
        if (
            _cofactor0(lower, k, i) != _cofactor1(lower, k, i)
            or _cofactor0(upper, k, i) != _cofactor1(upper, k, i)
        ):
            var = i
            break
    if var is None:
        return [()], _full_mask(k)
    l0, l1 = _cofactor0(lower, k, var), _cofactor1(lower, k, var)
    u0, u1 = _cofactor0(upper, k, var), _cofactor1(upper, k, var)
    fm = _full_mask(k)
    c0, f0 = _isop(l0 & ~u1 & fm, u0, k, var)
    c1, f1 = _isop(l1 & ~u0 & fm, u1, k, var)
    l_rest = (l0 & ~f0 & fm) | (l1 & ~f1 & fm)
    cr, fr = _isop(l_rest, u0 & u1, k, var)
    nm = _var_mask(k, var)
    table = (f0 & ~nm & fm) | (f1 & nm) | fr
    cover = (
        [tuple(sorted(c + ((var, 0),))) for c in c0]
        + [tuple(sorted(c + ((var, 1),))) for c in c1]
        + cr
    )
    return cover, table


# ----------------------------------------------------------------------
# Cut enumeration over sorted tuples and sets
# ----------------------------------------------------------------------


@lru_cache(maxsize=1 << 14)
def _expand_map(positions: Cut, k_sup: int) -> tuple[int, ...]:
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
    if sub == sup:
        return table
    positions = tuple(sup.index(leaf) for leaf in sub)
    return _expand_table(table, positions, len(sup))


def _merge_node_cuts(cuts, aig: AIG, var: int, k: int, max_cuts: int):
    f0, f1 = aig.fanins(var)
    v0, v1 = f0 >> 1, f1 >> 1
    merged: dict = {(var,): None}
    for c0 in cuts[v0]:
        s0 = set(c0)
        len0 = len(c0)
        for c1 in cuts[v1]:
            if len0 + len(c1) > k and (c0[-1] < c1[0] or c1[-1] < c0[0]):
                continue
            leaves = tuple(sorted(s0.union(c1)))
            if len(leaves) <= k and leaves not in merged:
                merged[leaves] = (c0, c1)
    pruned: list[Cut] = []
    pruned_sets: list[set] = []
    for cand in sorted(merged, key=len):
        cs = set(cand)
        if any(p <= cs for p in pruned_sets):
            continue
        pruned.append(cand)
        pruned_sets.append(cs)
    pruned.sort(key=lambda c: (len(c), c))
    return pruned[:max_cuts], merged


def reference_enumerate_cuts(
    aig: AIG, k: int = 4, max_cuts: int = 8
) -> dict[int, list[Cut]]:
    """The tuple-and-set ``repro.aig.cuts.enumerate_cuts``."""
    cuts: dict[int, list[Cut]] = {0: [()]}
    for i in range(aig.n_inputs):
        cuts[1 + i] = [(1 + i,)]
    base = aig.n_inputs + 1
    for j in range(aig.num_ands):
        var = base + j
        cuts[var], _ = _merge_node_cuts(cuts, aig, var, k, max_cuts)
    return cuts


def reference_enumerate_cuts_with_truths(
    aig: AIG, k: int = 4, max_cuts: int = 8
) -> dict[int, list[tuple[Cut, int]]]:
    """The tuple-and-set ``repro.aig.cuts.enumerate_cuts_with_truths``."""
    cuts: dict[int, list[Cut]] = {0: [()]}
    tables: dict[int, dict[Cut, int]] = {0: {(): 0}}
    for i in range(aig.n_inputs):
        v = 1 + i
        cuts[v] = [(v,)]
        tables[v] = {(v,): 0b10}
    base = aig.n_inputs + 1
    out: dict[int, list[tuple[Cut, int]]] = {}
    for v in range(base):
        out[v] = [(c, tables[v][c]) for c in cuts.get(v, [])]
    for j in range(aig.num_ands):
        var = base + j
        f0, f1 = aig.fanins(var)
        v0, v1 = f0 >> 1, f1 >> 1
        kept, merged = _merge_node_cuts(cuts, aig, var, k, max_cuts)
        cuts[var] = kept
        node_tables: dict[Cut, int] = {(var,): 0b10}
        for cut in kept:
            if cut == (var,):
                continue
            c0, c1 = merged[cut]
            fm = _full_mask(len(cut))
            a = _expand(tables[v0][c0], c0, cut)
            if f0 & 1:
                a = ~a & fm
            b = _expand(tables[v1][c1], c1, cut)
            if f1 & 1:
                b = ~b & fm
            node_tables[cut] = a & b
        tables[var] = node_tables
        out[var] = [(c, node_tables[c]) for c in kept]
    return out


# ----------------------------------------------------------------------
# Fanout-free cone walks, one per question
# ----------------------------------------------------------------------


def reference_cut_truth(aig: AIG, root: int, leaves) -> int:
    """The iterative ``repro.aig.opt.traverse.cut_truth``."""
    k = len(leaves)
    fm = _full_mask(k)
    values = {0: 0}
    for pos, leaf in enumerate(leaves):
        values[leaf] = _var_mask(k, pos)
    if root in values:
        return values[root]
    stack = [root]
    while stack:
        var = stack[-1]
        if var in values:
            stack.pop()
            continue
        if not aig.is_and_var(var):
            raise ValueError(f"variable {var} reached outside the cut")
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


def reference_mffc_size(aig: AIG, var: int, fanout) -> int:
    """The seed's iterative MFFC walk, ``traverse.mffc_size`` before
    :func:`~repro.aig.opt.traverse.ffc_cone` absorbed it."""
    if not aig.is_and_var(var):
        return 0
    counted = set()
    stack = [(var, True)]
    while stack:
        v, is_root = stack.pop()
        if v in counted or not aig.is_and_var(v):
            continue
        if not is_root and fanout[v] > 1:
            continue
        counted.add(v)
        f0, f1 = aig.fanins(v)
        stack.append((f0 >> 1, False))
        stack.append((f1 >> 1, False))
    return len(counted)


def reference_ffc_leaves(aig: AIG, var: int, fanout, max_leaves: int):
    """The iterative ``repro.aig.opt.traverse.ffc_leaves``."""
    leaves = set()
    stack = [lit >> 1 for lit in aig.fanins(var)]
    while stack:
        v = stack.pop()
        if aig.is_and_var(v) and fanout[v] == 1:
            stack.extend(lit >> 1 for lit in aig.fanins(v))
        elif not aig.is_const_var(v):
            leaves.add(v)
        if len(leaves) > max_leaves:
            return None
    if len(leaves) < 2:
        return None
    return tuple(sorted(leaves))


def reference_ffc_cone(aig: AIG, var: int, fanout, max_leaves: int):
    """``repro.aig.opt.traverse.ffc_cone`` as the three separate walks."""
    leaves = reference_ffc_leaves(aig, var, fanout, max_leaves)
    if leaves is None:
        return None
    return (
        leaves,
        reference_cut_truth(aig, var, leaves),
        reference_mffc_size(aig, var, fanout),
    )


# ----------------------------------------------------------------------
# Neuron truth tables, one pattern at a time
# ----------------------------------------------------------------------


def reference_neuron_table(
    weights: np.ndarray, bias: float, activation: str
) -> int:
    """The per-pattern ``repro.synth.from_mlp._neuron_table``."""
    k = weights.shape[0]
    table = 0
    for pattern in range(1 << k):
        bits = np.array([(pattern >> i) & 1 for i in range(k)], dtype=float)
        z = float(weights @ bits + bias)
        if _act(activation, np.array(z)) >= 0.5:
            table |= 1 << pattern
    return table


# ----------------------------------------------------------------------
# Cone extraction over a numpy mask and mapping
# ----------------------------------------------------------------------


def reference_reachable_vars(aig: AIG, lits=None) -> np.ndarray:
    """The numpy-mask ``AIG.reachable_vars``."""
    if lits is None:
        lits = aig.outputs
    mask = np.zeros(aig.num_vars, dtype=bool)
    stack = [lit >> 1 for lit in lits]
    while stack:
        var = stack.pop()
        if mask[var]:
            continue
        mask[var] = True
        if aig.is_and_var(var):
            f0, f1 = aig.fanins(var)
            stack.append(f0 >> 1)
            stack.append(f1 >> 1)
    return mask


def reference_extract_cone(aig: AIG, lits=None, builder=AIG) -> AIG:
    """The numpy-mapping ``AIG.extract_cone``, rebuilt into ``builder``."""
    if lits is None:
        lits = list(aig.outputs)
    new = builder(aig.n_inputs)
    mask = reference_reachable_vars(aig, lits)
    mapping = np.full(aig.num_vars, -1, dtype=np.int64)
    mapping[0] = CONST0
    for i in range(aig.n_inputs):
        mapping[1 + i] = new.input_lit(i)
    base = aig.n_inputs + 1
    for j in range(aig.num_ands):
        var = base + j
        if not mask[var]:
            continue
        f0, f1 = aig._fanin0[j], aig._fanin1[j]
        a = mapping[f0 >> 1] ^ (f0 & 1)
        b = mapping[f1 >> 1] ^ (f1 & 1)
        mapping[var] = new.add_and(a, b)
    for lit in lits:
        new.set_output(int(mapping[lit >> 1]) ^ (lit & 1))
    return new


# ----------------------------------------------------------------------
# The compress round loop, every pass every round
# ----------------------------------------------------------------------


def reference_compress_rounds(aig: AIG, max_rounds: int = 3, passes=None) -> AIG:
    """``compress`` without the rejected-pass memo.

    ``passes`` defaults to the live ``balance``, ``rewrite``,
    ``refactor`` and ``fraig_lite``; each is re-run every round even on
    a graph it already failed to improve.
    """
    if passes is None:
        from repro.aig.opt.passes import balance, fraig_lite, refactor, rewrite

        passes = (balance, rewrite, refactor, fraig_lite)
    best = aig.extract_cone()
    for _ in range(max_rounds):
        size_before = best.num_ands
        for pass_fn in passes:
            cand = pass_fn(best)
            if cand.num_ands < best.num_ands or (
                cand.num_ands == best.num_ands and cand.depth() < best.depth()
            ):
                best = cand
        if best.num_ands >= size_before:
            break
    return best


# ----------------------------------------------------------------------
# The live passes on the frozen kernels
# ----------------------------------------------------------------------


@contextmanager
def frozen_kernels():
    """Run the live passes and synthesis on this module's kernels.

    Swaps in the full-width ISOP, the tuple-and-set cut enumeration,
    the three separate cone walks, the numpy-mask cone extraction and
    the per-pattern neuron table for the duration of the block, so a
    bench can race today's ``compress`` or ``mlp_to_aig`` against the
    same code on the kernels it replaced.  The LUT program cache is
    emptied on entry and exit so neither side reuses the other's programs.
    """
    import repro.aig.build as build
    import repro.aig.opt.passes as passes
    import repro.synth.from_mlp as from_mlp

    swaps = [
        (build, "isop", reference_isop),
        (passes, "enumerate_cuts_with_truths",
         reference_enumerate_cuts_with_truths),
        (passes, "ffc_cone", reference_ffc_cone),
        (AIG, "extract_cone", reference_extract_cone),
        (AIG, "reachable_vars", reference_reachable_vars),
        (from_mlp, "_neuron_table", reference_neuron_table),
    ]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in swaps]
    build._lut_programs.cache_clear()
    try:
        for owner, name, fn in swaps:
            setattr(owner, name, fn)
        yield
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)
        build._lut_programs.cache_clear()

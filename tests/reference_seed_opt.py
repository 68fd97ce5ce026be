"""The seed build-measure-rollback passes, kept as the pinned baseline.

These are the pre-engine implementations of ``rewrite``, ``refactor``
and ``compress``: every rewrite candidate is tentatively *built* into
the output graph (per-candidate ISOP resynthesis included), measured,
rolled back, and the winner rebuilt.  ``benchmarks/bench_opt_engine.py``
races the NPN-library engine against them — do not "optimize" this
module, its slowness is the baseline being measured.

The baseline shares no kernel with the engine it is raced against:

- :class:`RollbackAIG` is its own builder — an :class:`AIG` whose
  ``add_and`` logs every strash entry so :meth:`RollbackAIG.checkpoint`
  and :meth:`RollbackAIG.rollback` can undo tentative construction
  (the live graph has no undo log);
- ISOP, cut enumeration, cone extraction and the cone walks (cut
  function, MFFC size, FFC leaves) are the frozen kernels of
  :mod:`tests.reference_aig_kernels`, iterative like the engine's, so
  the baseline measures the seed *algorithm*, not the seed's recursion
  crashes;
- the SOP builder and ``balance`` are frozen copies too.

Nothing in ``src/repro`` imports this module.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.aig.aig import AIG, CONST0, CONST1, lit_make, lit_not
from tests.reference_aig_kernels import (
    reference_cut_truth as cut_function,
    reference_enumerate_cuts,
    reference_extract_cone,
    reference_ffc_leaves as ffc_leaves,
    reference_isop,
    reference_mffc_size as mffc_size,
)


class RollbackAIG(AIG):
    """An :class:`AIG` with an undo log for tentative construction."""

    def __init__(self, n_inputs: int):
        super().__init__(n_inputs)
        self._strash_log: list[tuple[int, int]] = []

    def add_and(self, a: int, b: int) -> int:
        if a > b:
            a, b = b, a
        if a == CONST0:
            return CONST0
        if a == CONST1:
            return b
        if a == b:
            return a
        if a == lit_not(b):
            return CONST0
        key = (a, b)
        found = self._strash.get(key)
        if found is not None:
            return found
        var = self.num_vars
        self._fanin0.append(a)
        self._fanin1.append(b)
        lit = lit_make(var)
        self._strash[key] = lit
        self._strash_log.append(key)
        self._version += 1
        return lit

    def checkpoint(self) -> tuple[int, int, int]:
        """Snapshot for :meth:`rollback` (node count, strash log, outputs)."""
        return (self.num_ands, len(self._strash_log), len(self.outputs))

    def rollback(self, state: tuple[int, int, int]) -> None:
        """Undo all nodes/outputs added after ``state`` was taken."""
        n_ands, n_log, n_outs = state
        for key in self._strash_log[n_log:]:
            self._strash.pop(key, None)
        del self._strash_log[n_log:]
        del self._fanin0[n_ands:]
        del self._fanin1[n_ands:]
        del self.outputs[n_outs:]
        self._version += 1

    def extract_cone(self, lits=None) -> RollbackAIG:
        return reference_extract_cone(self, lits, builder=RollbackAIG)


# ----------------------------------------------------------------------
# Frozen SOP builder
# ----------------------------------------------------------------------


def _map_lit(mapping, lit: int) -> int:
    return mapping[lit >> 1] ^ (lit & 1)


def _reduce_balanced(lits, op, identity):
    if not lits:
        return identity
    while len(lits) > 1:
        nxt = [op(lits[i], lits[i + 1]) for i in range(0, len(lits) - 1, 2)]
        if len(lits) % 2:
            nxt.append(lits[-1])
        lits = nxt
    return lits[0]


def sop_over_leaves(aig: AIG, cover, leaves) -> int:
    terms = []
    for cube in cover:
        lits = [
            leaves[var] if value else lit_not(leaves[var])
            for var, value in cube
        ]
        terms.append(_reduce_balanced(lits, aig.add_and, CONST1))
    return _reduce_balanced(terms, aig.add_or, CONST0)


# ----------------------------------------------------------------------
# Seed passes
# ----------------------------------------------------------------------


def _seed_lut(aig: RollbackAIG, table: int, leaves) -> int:
    """The seed ``build.lut``: per-call double ISOP, build both
    polarities behind a checkpoint, roll back, rebuild the winner."""
    k = len(leaves)
    full = (1 << (1 << k)) - 1
    table &= full
    if table == 0:
        return CONST0
    if table == full:
        return CONST1
    pos_cover, _ = reference_isop(table, table, k)
    neg_cover, _ = reference_isop(~table & full, ~table & full, k)
    state = aig.checkpoint()
    sop_over_leaves(aig, pos_cover, leaves)
    pos_cost = aig.num_ands - state[0]
    aig.rollback(state)
    neg = sop_over_leaves(aig, neg_cover, leaves)
    neg_cost = aig.num_ands - state[0]
    if neg_cost < pos_cost:
        return lit_not(neg)
    aig.rollback(state)
    return sop_over_leaves(aig, pos_cover, leaves)


def _fanout_counts(aig: AIG) -> np.ndarray:
    counts = np.zeros(aig.num_vars, dtype=np.int64)
    for j in range(aig.num_ands):
        counts[aig._fanin0[j] >> 1] += 1
        counts[aig._fanin1[j] >> 1] += 1
    for o in aig.outputs:
        counts[o >> 1] += 1
    return counts


def reference_balance(aig: AIG) -> RollbackAIG:
    """Depth-oriented rebuild of single-fanout AND trees."""
    fanout = _fanout_counts(aig)
    base = aig.n_inputs + 1
    internal = np.zeros(aig.num_vars, dtype=bool)
    for fanins in (aig._fanin0, aig._fanin1):
        f = np.asarray(fanins, dtype=np.int64)
        internal[f[(f & 1) == 0] >> 1] = True
    internal &= fanout == 1
    internal[:base] = False
    new = RollbackAIG(aig.n_inputs)
    lv = [0] * base
    mapping = [0] * aig.num_vars
    for i in range(aig.n_inputs):
        mapping[1 + i] = new.input_lit(i)
    for j in range(aig.num_ands):
        var = base + j
        if internal[var]:
            continue
        leaves = []
        stack = list(aig.fanins(var))
        while stack:
            lit = stack.pop()
            v = lit >> 1
            if not (lit & 1) and aig.is_and_var(v) and fanout[v] == 1:
                stack.extend(aig.fanins(v))
            else:
                leaves.append(lit)
        heap = [(lv[_map_lit(mapping, leaf) >> 1], _map_lit(mapping, leaf))
                for leaf in leaves]
        heapq.heapify(heap)
        while len(heap) > 1:
            _, a = heapq.heappop(heap)
            _, b = heapq.heappop(heap)
            lit = new.add_and(a, b)
            while len(lv) < new.num_vars:
                f0, f1 = new._fanin0[len(lv) - base], new._fanin1[len(lv) - base]
                lv.append(max(lv[f0 >> 1], lv[f1 >> 1]) + 1)
            heapq.heappush(heap, (lv[lit >> 1], lit))
        mapping[var] = heap[0][1]
    for lit in aig.outputs:
        new.set_output(_map_lit(mapping, lit))
    return new.extract_cone()


def reference_rewrite(aig: AIG, k: int = 4, max_cuts: int = 8) -> RollbackAIG:
    """Seed cut rewriting: build, measure, roll back every candidate."""
    cuts = reference_enumerate_cuts(aig, k=k, max_cuts=max_cuts)
    new = RollbackAIG(aig.n_inputs)
    mapping = np.zeros(aig.num_vars, dtype=np.int64)
    for i in range(aig.n_inputs):
        mapping[1 + i] = new.input_lit(i)
    base = aig.n_inputs + 1
    for j in range(aig.num_ands):
        var = base + j
        f0, f1 = aig.fanins(var)
        candidates = [("direct", None, None)]
        for cut in cuts[var]:
            if len(cut) < 2 or cut == (var,):
                continue
            table = cut_function(aig, var, cut)
            candidates.append(("cut", cut, table))
        best_cost = None
        best_kind = None
        for kind, cut, table in candidates:
            state = new.checkpoint()
            if kind == "direct":
                new.add_and(_map_lit(mapping, f0), _map_lit(mapping, f1))
            else:
                _seed_lut(new, table, [int(mapping[leaf]) for leaf in cut])
            cost = new.num_ands - state[0]
            new.rollback(state)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_kind = (kind, cut, table)
        kind, cut, table = best_kind
        if kind == "direct":
            mapping[var] = new.add_and(
                _map_lit(mapping, f0), _map_lit(mapping, f1)
            )
        else:
            mapping[var] = _seed_lut(
                new, table, [int(mapping[leaf]) for leaf in cut]
            )
    for lit in aig.outputs:
        new.set_output(_map_lit(mapping, lit))
    return new.extract_cone()


def reference_refactor(aig: AIG, max_leaves: int = 10) -> RollbackAIG:
    """Seed MFFC resynthesis: build the cone, compare, roll back."""
    fanout = _fanout_counts(aig)
    new = RollbackAIG(aig.n_inputs)
    mapping = np.zeros(aig.num_vars, dtype=np.int64)
    for i in range(aig.n_inputs):
        mapping[1 + i] = new.input_lit(i)
    base = aig.n_inputs + 1
    for j in range(aig.num_ands):
        var = base + j
        f0, f1 = aig.fanins(var)
        leaves = ffc_leaves(aig, var, fanout, max_leaves)
        if leaves is None:
            mapping[var] = new.add_and(
                _map_lit(mapping, f0), _map_lit(mapping, f1)
            )
            continue
        table = cut_function(aig, var, leaves)
        old_cone = mffc_size(aig, var, fanout)
        state = new.checkpoint()
        cand = _seed_lut(new, table, [int(mapping[leaf]) for leaf in leaves])
        cost = new.num_ands - state[0]
        if cost <= old_cone:
            mapping[var] = cand
        else:
            new.rollback(state)
            mapping[var] = new.add_and(
                _map_lit(mapping, f0), _map_lit(mapping, f1)
            )
    for lit in aig.outputs:
        new.set_output(_map_lit(mapping, lit))
    return new.extract_cone()


def reference_compress(aig: AIG, max_rounds: int = 3) -> RollbackAIG:
    """Seed optimization script (no fraig pass existed yet)."""
    best = reference_extract_cone(aig, builder=RollbackAIG)
    for _ in range(max_rounds):
        size_before = best.num_ands
        for pass_fn in (
            reference_balance, reference_rewrite, reference_refactor,
            reference_rewrite,
        ):
            cand = pass_fn(best)
            if cand.num_ands < best.num_ands or (
                cand.num_ands == best.num_ands and cand.depth() < best.depth()
            ):
                best = cand
        if best.num_ands >= size_before:
            break
    return best

"""Mutation-free cost evaluation against a live AIG.

The seed optimization passes measured a rewrite candidate by
*building* it into the graph behind a checkpoint, reading the node
delta and rolling back — which thrashes the strash log, bumps the
structural ``_version`` on every probe (invalidating the cached
simulation engine) and rebuilds the winner a second time.

:class:`VirtualBuilder` replaces that cycle: it exposes the same
``add_and`` contract as :class:`repro.aig.aig.AIG` — identical
constant folding, fanin normalization and structural hashing — but
probes the target graph's strash *read-only* and allocates virtual
literals for nodes that do not exist yet.  ``n_new`` is then exactly
the number of AND nodes a real build would append, including sharing
both with the existing graph and within the candidate itself, and the
virtual literal sequence matches the literals a real build would
return (so counting and building stay in lockstep).
"""

from __future__ import annotations

import sys

from repro.aig.aig import AIG, CONST0, CONST1, GateOps


class BudgetExceeded(Exception):
    """Raised by a budgeted :class:`VirtualBuilder` on the first node
    that makes the candidate too expensive to win — pricing a losing
    candidate stops at its first unshared node."""


class VirtualBuilder(GateOps):
    """Counts the AND nodes a construction would add to ``aig``.

    Literals returned by :meth:`add_and` are real literals of the
    target graph when the node already exists (strash hit or constant
    fold) and *virtual* literals — numbered from ``2 * aig.num_vars``
    upward, exactly where a real build would place them — otherwise.
    The target graph is never touched.

    With ``budget`` set, :class:`BudgetExceeded` is raised as soon as
    ``n_new`` would exceed it.
    """

    def __init__(self, aig: AIG, budget: int | None = None):
        self._real_strash = aig._strash
        self._local: dict[tuple[int, int], int] = {}
        self._next_lit = (1 + aig.n_inputs + len(aig._fanin0)) << 1
        self.budget = budget
        self._cap = sys.maxsize if budget is None else budget
        self.n_new = 0

    def add_and(self, a: int, b: int) -> int:
        # Mirror of AIG.add_and; keep the two in lockstep.
        if a > b:
            a, b = b, a
        if a <= CONST1:
            return b if a else CONST0
        if a == b:
            return a
        if a ^ 1 == b:
            return CONST0
        key = (a, b)
        found = self._real_strash.get(key)
        if found is not None:
            return found
        found = self._local.get(key)
        if found is not None:
            return found
        if self.n_new >= self._cap:
            raise BudgetExceeded
        lit = self._next_lit
        self._next_lit = lit + 2
        self._local[key] = lit
        self.n_new += 1
        return lit

"""Shared plumbing for the team flows.

The pieces every flow funnels through: the per-flow deterministic RNG
stream (:func:`flow_rng` — named sub-streams of
:func:`repro.utils.rng.rng_for`, so two flows on the same problem
never share randomness), the legality funnel (:func:`finalize_aig` —
cone-extract, optimize, approximate under the contest node cap) and
candidate selection (:func:`pick_best` — accuracy first, used-node
count as tie-break, over-cap candidates only as a last resort).

Finalization is lazy inside the funnel: :func:`defer_finalize` leaves
the exact pass of an in-cap candidate pending (a :class:`Deferred`),
and :func:`pick_best` runs it only on candidates that can still win.
The exact pass cannot change a candidate's accuracy, only its size,
so the selected circuit is the one eager finalization would pick.

Determinism contract: everything here is a pure function of its
arguments plus the passed-in RNG stream; given the same ``(flow,
problem, master_seed)`` the same bytes come out.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.aig.aig import AIG, CONST0, CONST1
from repro.aig.approx import approximate_to_size
from repro.aig.optimize import balance, compress
from repro.contest.problem import MAX_AND_NODES, LearningProblem, Solution
from repro.ml.dataset import Dataset
from repro.ml.metrics import accuracy
from repro.sim.batch import output_predictions
from repro.utils.rng import rng_for


def flow_rng(flow: str, problem: LearningProblem, master_seed: int,
             *extra) -> np.random.Generator:
    """Deterministic per-flow, per-benchmark RNG stream."""
    return rng_for("flow", flow, problem.name, master_seed, *extra)


def aig_accuracy(aig: AIG, data: Dataset) -> float:
    """Accuracy of a single-output AIG on a dataset."""
    return accuracy(data.y, aig.simulate(data.X)[:, 0])


def constant_solution(problem: LearningProblem, method: str) -> Solution:
    """Majority-constant fallback when nothing can be trained."""
    aig = AIG(problem.n_inputs)
    majority = problem.train.merge(problem.valid).onset_fraction() > 0.5
    aig.set_output(CONST1 if majority else CONST0)
    return Solution(aig=aig, method=f"{method}+const")


class Deferred:
    """An in-cap candidate whose exact finalize pass has not run yet.

    ``cone`` is the cone-extracted circuit.  The deferred pass
    (``compress``, or ``balance`` above ``optimize_limit``) is exact and
    never grows the graph, so the cone already computes the finalized
    function and is known to stay under the node cap: it can be scored
    as it is.  :meth:`force` runs the pass once and memoizes the result.
    """

    __slots__ = ("cone", "_optimize_limit", "_final")

    def __init__(self, cone: AIG, optimize_limit: int) -> None:
        self.cone = cone
        self._optimize_limit = optimize_limit
        self._final: AIG | None = None

    def force(self) -> AIG:
        if self._final is None:
            self._final = _exact_pass(self.cone, self._optimize_limit)
        return self._final

    @property
    def finalized(self) -> bool:
        return self._final is not None

    @property
    def current(self) -> AIG:
        """The finalized circuit once forced, the cone before."""
        return self._final if self._final is not None else self.cone


def force(aig: AIG | Deferred) -> AIG:
    """The finalized circuit (running a deferred pass if needed)."""
    return aig.force() if isinstance(aig, Deferred) else aig


def current(aig: AIG | Deferred) -> AIG:
    """The circuit as it stands, without forcing anything."""
    return aig.current if isinstance(aig, Deferred) else aig


def is_finalized(aig: AIG | Deferred) -> bool:
    """Whether the circuit's finalize passes have all run."""
    return not isinstance(aig, Deferred) or aig.finalized


def _exact_pass(aig: AIG, optimize_limit: int) -> AIG:
    """``compress``, or just ``balance`` on very large graphs."""
    return compress(aig) if aig.num_ands <= optimize_limit else balance(aig)


def defer_finalize(
    aig: AIG,
    rng: np.random.Generator,
    max_nodes: int = MAX_AND_NODES,
    optimize: bool = True,
    optimize_limit: int = 20000,
) -> AIG | Deferred:
    """:func:`finalize_aig`, with the exact pass of an in-cap candidate
    deferred to selection.

    A cone over ``max_nodes`` is finalized at once, so the
    approximation draws from ``rng`` exactly where the eager funnel
    drew them.  An in-cap cone never reaches the approximation (the
    exact pass cannot grow it), so its pass is left to whoever needs
    its size: :func:`pick_best` only forces the candidates that can
    still win.
    """
    aig = aig.extract_cone()
    if optimize:
        if aig.num_ands <= max_nodes:
            return Deferred(aig, optimize_limit)
        aig = _exact_pass(aig, optimize_limit)
    if aig.num_ands > max_nodes:
        aig = approximate_to_size(aig, max_ands=max_nodes, rng=rng)
        if aig.num_ands <= optimize_limit:
            aig = compress(aig)
    return aig


def finalize_aig(
    aig: AIG,
    rng: np.random.Generator,
    max_nodes: int = MAX_AND_NODES,
    optimize: bool = True,
    optimize_limit: int = 20000,
) -> AIG:
    """Post-process a candidate circuit the way the teams used ABC.

    Garbage-collects, optimizes (skipping the expensive passes on very
    large graphs), and applies Team 1-style approximation if the result
    still exceeds the node cap.
    """
    return force(defer_finalize(
        aig, rng, max_nodes=max_nodes, optimize=optimize,
        optimize_limit=optimize_limit,
    ))


def pick_best(
    candidates: Iterable[tuple[str, AIG | Deferred]],
    data: Dataset,
    max_nodes: int = MAX_AND_NODES,
) -> tuple[str, AIG, float] | None:
    """Best legal candidate by accuracy on ``data`` (ties: smaller,
    then earlier).

    Candidates over the node cap are only used if nothing legal exists;
    they obey the same ``(accuracy, size)`` ordering.  All candidates
    are scored in one batched pass (``data`` is bit-packed once).

    Size — both for the cap check and the tie-break — is the *used*
    node count, so a candidate that was never cone-extracted is not
    mis-ranked (or wrongly rejected as over-cap) because of dead logic
    the final circuit would not even ship.

    :class:`Deferred` candidates are scored on their cone (the same
    function).  Only those whose finalized size can matter are forced:
    a cone over ``max_nodes`` (its legality depends on it) and every
    legal candidate tied at the best legal accuracy (the tie-break
    does).  The winner is returned forced, and the outcome is the one
    eager finalization of every candidate would give.
    """
    candidates = list(candidates)
    if not candidates:
        return None
    circuits = [aig for _, aig in candidates]
    for aig in circuits:
        if (isinstance(aig, Deferred)
                and aig.cone.count_used_ands() > max_nodes):
            aig.force()
    preds = output_predictions([current(aig) for aig in circuits], data.X)
    accs = [accuracy(data.y, pred) for pred in preds]
    sizes = [current(aig).count_used_ands() for aig in circuits]
    pool = [i for i, size in enumerate(sizes) if size <= max_nodes]
    if pool:
        top = max(accs[i] for i in pool)
        for i in pool:
            if accs[i] == top:
                sizes[i] = force(circuits[i]).count_used_ands()
    else:
        pool = list(range(len(candidates)))
    best = min(pool, key=lambda i: (-accs[i], sizes[i], i))
    return candidates[best][0], force(circuits[best]), accs[best]

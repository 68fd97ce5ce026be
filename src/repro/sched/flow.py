"""Learned-scheduling contest flows: ``learned`` and ``learned-greedy``.

Both flows share one candidate recipe — decision trees at a few leaf
granularities, trained on train+valid merged and synthesized through
the SOP path (deterministic, so the trees are artifact-cached and
shared with the fixed-schedule twin) — and differ only in how the
resulting circuits are optimized:

``learned``
    The epsilon-greedy contextual bandit: warm-started from the
    packaged offline policy, exploring with a flow-seeded RNG stream
    and learning online across the run's candidates.  Spec overrides:
    ``learned:budget=20,epsilon=0.1``.

``learned-greedy``
    Pure exploitation of the packaged policy — no exploration, no
    online updates.  Spec override: ``learned-greedy:budget=20``.

The schedule stage mirrors ``finalize_aig`` exactly (cone-extract,
skip the learned loop above ``optimize_limit`` nodes in favour of a
single ``balance``, approximate down to the contest node cap and
re-schedule) so the learned flows obey the same legality rules as
every team flow.  :func:`fixed_twin` builds the unregistered
control flow — identical candidates, classic ``compress`` finalize of
every one of them — that ``bench_sched.py`` races the learned flows
against.

Determinism: tree training is exact, the packaged policy is a
committed artifact, and bandit exploration draws only from the flow's
:func:`~repro.flows.common.flow_rng` stream — so contest records stay
byte-reproducible for a given ``(problem, seed)``.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.aig.aig import AIG
from repro.aig.approx import approximate_to_size
from repro.aig.optimize import balance
from repro.contest.problem import MAX_AND_NODES, LearningProblem, Solution
from repro.flows.api import (
    ArtifactCache,
    Candidate,
    FinalizeSpec,
    Flow,
    FlowContext,
    FlowResult,
    Stage,
)
from repro.flows.common import finalize_aig
from repro.flows.registry import register
from repro.ml.decision_tree import DecisionTree
from repro.sched.policy import EpsilonGreedyBandit, default_policy
from repro.sched.scheduler import schedule_opt
from repro.synth.from_sop import cover_to_aig

#: Above this many AND nodes the learned loop is skipped for a single
#: ``balance`` — the same threshold ``FinalizeSpec`` applies.
OPTIMIZE_LIMIT = FinalizeSpec().optimize_limit


def _tree_candidates_stage(ctx: FlowContext) -> list[Candidate]:
    """Decision trees at the effort grid's leaf granularities.

    Training is deterministic, so each tree is artifact-cached by its
    data digest + hyper-parameters and shared across every flow in the
    grid that asks for the same tree (including the fixed twin)."""
    merged = ctx.merged_train_valid()
    X, y = merged.X, merged.y
    digest = ArtifactCache.dataset_digest(X, y)
    out: list[Candidate] = []
    for leaf in ctx.params["leaf_sizes"]:
        aig = ctx.artifact(
            "sched-tree",
            (digest, leaf, ctx.params["prune_cf"]),
            lambda leaf=leaf: cover_to_aig(
                DecisionTree(min_samples_leaf=leaf)
                .fit(X, y)
                .prune(ctx.params["prune_cf"])
                .to_cover()
            ),
        )
        out.append(Candidate(f"tree-m{leaf}", aig, {"leaf": leaf}))
    return out


def _resolve_budget(ctx: FlowContext) -> int:
    override = ctx.state.get("budget")
    budget = ctx.params["budget"] if override is None else override
    return int(budget)


def _schedule_one(
    aig: AIG, policy, budget: int, rng
) -> tuple[AIG, list[str]]:
    """``finalize_aig`` with the learned loop in ``compress``'s seat."""
    aig = aig.extract_cone()
    if aig.num_ands <= OPTIMIZE_LIMIT:
        aig, history = schedule_opt(aig, policy, budget=budget, rng=rng)
    else:
        aig, history = balance(aig), ["balance"]
    if aig.num_ands > MAX_AND_NODES:
        aig = approximate_to_size(aig, max_ands=MAX_AND_NODES, rng=rng)
        if aig.num_ands <= OPTIMIZE_LIMIT:
            aig, extra = schedule_opt(aig, policy, budget=budget, rng=rng)
            history += ["approx", *extra]
    return aig, history


def _make_schedule_stage(bandit: bool):
    def _schedule_stage(ctx: FlowContext) -> None:
        budget = _resolve_budget(ctx)
        if bandit:
            epsilon = ctx.state.get("epsilon")
            if epsilon is None:
                epsilon = ctx.params["epsilon"]
            policy = EpsilonGreedyBandit(
                prior=default_policy(), epsilon=float(epsilon)
            )
            rng = ctx.derive_rng("sched")
        else:
            policy = default_policy()
            rng = None
        scheduled: list[Candidate] = []
        for cand in ctx.candidates:
            aig, history = _schedule_one(cand.aig, policy, budget, rng)
            scheduled.append(
                Candidate(
                    cand.name,
                    aig,
                    {**cand.provenance, "passes": history,
                     "budget": budget},
                    cand.stage,
                )
            )
        ctx.candidates[:] = scheduled

    return _schedule_stage


class SchedFlow(Flow):
    """A Flow whose contract accepts scheduling knobs.

    ``budget`` (both flows) and ``epsilon`` (bandit only) arrive as
    spec-string overrides (``learned:budget=20``) or direct kwargs;
    they land in the run's ``state`` where the schedule stage reads
    them, falling back to the effort grid."""

    def run(
        self,
        problem: LearningProblem,
        effort: str = "small",
        master_seed: int = 0,
        *,
        cache: ArtifactCache | None = None,
        budget: int | None = None,
        epsilon: float | None = None,
    ) -> Solution:
        return self.run_sched(
            problem, effort=effort, master_seed=master_seed,
            cache=cache, budget=budget, epsilon=epsilon,
        ).solution

    __call__ = run

    def run_sched(
        self,
        problem: LearningProblem,
        effort: str = "small",
        master_seed: int = 0,
        *,
        cache: ArtifactCache | None = None,
        budget: int | None = None,
        epsilon: float | None = None,
        state: Mapping[str, object] | None = None,
    ) -> FlowResult:
        merged = dict(state or {})
        if budget is not None:
            merged["budget"] = budget
        if epsilon is not None:
            merged["epsilon"] = epsilon
        return self.run_detailed(
            problem, effort=effort, master_seed=master_seed,
            cache=cache, state=merged,
        )


_EFFORTS = {
    "small": {
        "leaf_sizes": (1, 3),
        "prune_cf": 0.25,
        "budget": 8,
        "epsilon": 0.15,
    },
    "full": {
        "leaf_sizes": (1, 2, 4, 8),
        "prune_cf": 0.25,
        "budget": 20,
        "epsilon": 0.15,
    },
}


BANDIT_FLOW = register(SchedFlow(
    "learned",
    team="sched",
    techniques={"decision tree", "learned scheduling", "bandit"},
    description="Decision-tree candidates optimized by an "
                "epsilon-greedy contextual bandit over the pass "
                "palette",
    efforts=_EFFORTS,
    stages=(
        Stage("candidates", _tree_candidates_stage,
              "decision trees at several leaf granularities"),
        Stage("schedule", _make_schedule_stage(bandit=True),
              "bandit-scheduled optimization"),
    ),
    finalize=None,
    spec_params={"budget": int, "epsilon": float},
))

GREEDY_FLOW = register(SchedFlow(
    "learned-greedy",
    team="sched",
    techniques={"decision tree", "learned scheduling"},
    description="Decision-tree candidates optimized by the packaged "
                "greedy policy",
    efforts=_EFFORTS,
    stages=(
        Stage("candidates", _tree_candidates_stage,
              "decision trees at several leaf granularities"),
        Stage("schedule", _make_schedule_stage(bandit=False),
              "greedy-policy-scheduled optimization"),
    ),
    finalize=None,
    spec_params={"budget": int},
))


def _finalize_every_stage(ctx: FlowContext) -> None:
    """Eager ``finalize_aig`` of every candidate, in emission order.

    The default funnel only compresses candidates that can still win;
    the twin's per-candidate sizes are what ``bench_sched.py``
    compares, so every one of them must be compressed."""
    ctx.candidates[:] = [
        Candidate(c.name, finalize_aig(c.aig, ctx.rng), c.provenance,
                  c.stage)
        for c in ctx.candidates
    ]


def fixed_twin() -> Flow:
    """The unregistered control: identical candidates, classic
    ``compress`` finalize of every candidate — what ``bench_sched.py``
    compares the learned flows against at (provably) equal accuracy:
    every palette pass is exact, so twin candidates compute identical
    functions and only sizes differ."""
    return Flow(
        "fixed-compress",
        team="sched",
        techniques={"decision tree"},
        description="Twin of the learned flows with the fixed "
                    "compress schedule",
        efforts=_EFFORTS,
        stages=(
            Stage("candidates", _tree_candidates_stage,
                  "decision trees at several leaf granularities"),
            Stage("finalize", _finalize_every_stage,
                  "classic compress finalize of every candidate"),
        ),
        finalize=None,
    )

"""(1+lambda) evolution strategy for CGP (Team 9).

Implements the loop from the paper: four mutated offspring per
generation, neutral drift (offspring with equal fitness replace the
parent), preferential selection of phenotypically *larger* individuals
on ties [Milano & Nolfi], a 1/5th-rule adaptive mutation rate
[Doerr & Doerr], and optional mini-batch fitness evaluation that
reshuffles every ``batch_generations`` generations.

Fitness runs on Python-int bit vectors (one int per input column,
``int.bit_count`` for the errors).  Each individual carries its active
nodes with its fitness, computed once.  An offspring whose output gene
and active genes all equal its parent's has the parent's phenotype, so
it is not evaluated: it takes the parent's fitness on the current
batch [Goldman & Punch, "Reducing wasted evaluations in CGP", EuroGP
2013].  Mutation and every random draw are unaffected, so a run is the
same as one that evaluates every offspring.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.aig.aig import AIG
from repro.cgp.genome import (
    AIG_FUNCTIONS,
    CGPGenome,
    bit_columns,
    check_function_set,
)
from repro.utils.bitops import as_bits


@dataclass
class EvolutionLog:
    """Best-fitness trace, one entry per generation."""

    fitness: list[float] = field(default_factory=list)
    mutation_rate: list[float] = field(default_factory=list)


class _Batch:
    """Training rows as Python-int bit vectors, scored by bit count."""

    def __init__(self, X: np.ndarray, y: np.ndarray):
        self.n = X.shape[0]
        self.mask = (1 << self.n) - 1
        self.columns = bit_columns(X)
        self.target = bit_columns(y[:, None])[0]

    def fitness(self, genome: CGPGenome, active: list[int]) -> float:
        out = genome.evaluate_bits(self.columns, self.mask, active)
        return 1.0 - (out ^ self.target).bit_count() / self.n


def _same_phenotype(
    child: CGPGenome, parent: CGPGenome, parent_active: np.ndarray
) -> bool:
    """True when ``child`` kept the output gene and every gene of the
    parent's active nodes, so both compute the same function through
    the same active set."""
    if child.output != parent.output:
        return False
    changed = child.funcs != parent.funcs
    changed |= child.in0 != parent.in0
    changed |= child.in1 != parent.in1
    return not changed[parent_active].any()


class CGPEvolver:
    """Evolve a CGP genome to fit training samples."""

    def __init__(
        self,
        n_nodes: int = 500,
        lam: int = 4,
        mutation_rate: float = 0.05,
        function_set: Sequence[str] = AIG_FUNCTIONS,
        batch_size: int | None = None,
        batch_generations: int = 1000,
        rng: np.random.Generator | None = None,
    ):
        self.n_nodes = n_nodes
        self.lam = lam
        self.mutation_rate = mutation_rate
        self.function_set = check_function_set(function_set)
        self.batch_size = batch_size
        self.batch_generations = batch_generations
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.log = EvolutionLog()

    # ------------------------------------------------------------------
    def run(
        self,
        X: np.ndarray,
        y: np.ndarray,
        generations: int = 2000,
        seed_genome: CGPGenome | None = None,
    ) -> tuple[CGPGenome, float]:
        """Evolve and return ``(best_genome, training_accuracy)``.

        ``log`` restarts, so it holds this run's generations only.
        """
        X = as_bits(X, "X")
        y = as_bits(y, "y").ravel()
        if X.ndim != 2:
            raise ValueError(
                f"X must be a 2-D sample matrix, got shape {X.shape}"
            )
        n = X.shape[0]
        if y.shape[0] != n:
            raise ValueError(
                f"X/y length mismatch: {n} rows, {y.shape[0]} labels"
            )
        if n == 0:
            raise ValueError("no training samples")
        self.log = EvolutionLog()
        full = batch = _Batch(X, y)
        if seed_genome is not None:
            parent = seed_genome
        else:
            parent = CGPGenome.random(
                X.shape[1], self.n_nodes, self.rng, self.function_set
            )
        rate = self.mutation_rate
        minibatch = self.batch_size is not None and self.batch_size < n
        # Each individual carries its active nodes (phenotype) with its
        # fitness on the current batch.
        parent_active = parent.active_nodes()
        parent_index = np.array(parent_active, dtype=np.intp)
        parent_fit = batch.fitness(parent, parent_active)
        for gen in range(generations):
            if minibatch and (batch is full or gen % self.batch_generations == 0):
                idx = self.rng.choice(n, size=self.batch_size, replace=False)
                batch = _Batch(X[idx], y[idx])
                parent_fit = batch.fitness(parent, parent_active)
            best_child = parent
            best_active = parent_active
            best_fit = -1.0
            for _ in range(self.lam):
                child = parent.mutate(rate, self.rng)
                if _same_phenotype(child, parent, parent_index):
                    active, fit = parent_active, parent_fit
                else:
                    active = child.active_nodes()
                    fit = batch.fitness(child, active)
                if fit > best_fit or (
                    fit == best_fit and len(active) > len(best_active)
                ):
                    best_fit = fit
                    best_child = child
                    best_active = active
            improved = best_fit > parent_fit
            # Neutral drift: accept >=, preferring larger phenotypes on
            # exact ties with the parent.
            if improved or (
                best_fit == parent_fit
                and len(best_active) >= len(parent_active)
            ):
                if best_active is not parent_active:
                    parent_index = np.array(best_active, dtype=np.intp)
                parent = best_child
                parent_active = best_active
                parent_fit = best_fit
            # 1/5th success rule; the floor keeps at least ~one gene
            # mutating per offspring so the search never freezes.
            min_rate = 1.0 / (3 * parent.n_nodes + 1)
            if improved:
                rate = min(rate * 1.5, 0.5)
            else:
                rate = max(rate * 1.5 ** (-0.25), min_rate)
            self.log.fitness.append(parent_fit)
            self.log.mutation_rate.append(rate)
        return parent, full.fitness(parent, parent_active)


def evolve_from_aig(
    aig: AIG,
    X: np.ndarray,
    y: np.ndarray,
    generations: int = 2000,
    n_nodes: int | None = None,
    rng: np.random.Generator | None = None,
    **kwargs,
) -> tuple[CGPGenome, float]:
    """Bootstrapped evolution: seed the population from an AIG."""
    if rng is None:
        rng = np.random.default_rng(0)
    seed = CGPGenome.from_aig(aig, n_nodes=n_nodes, rng=rng)
    evolver = CGPEvolver(
        n_nodes=seed.n_nodes, rng=rng, **kwargs
    )
    return evolver.run(X, y, generations=generations, seed_genome=seed)

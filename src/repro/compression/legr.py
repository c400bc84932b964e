"""Method C2 — LeGR: Learned Global Ranking (Chin et al., CVPR 2020).

Technique TE2: filters across all layers are ranked by an *affine-transformed*
norm ``alpha_u * norm + kappa_u`` where ``(alpha_u, kappa_u)`` are per-unit
coefficients learned with a regularised evolutionary algorithm; the global
ranking then drives one-shot pruning to the HP2 budget, followed by
fine-tuning (TE3).

Hyperparameters: HP1 fine-tune epochs, HP2 parameter decrease ratio, HP6
maximum per-unit pruning ratio, HP7 evolution epochs, HP8 filter evaluation
criterion (``l1_weight``, ``l2_weight``, ``l2_bn_param``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..models.pruning import PrunableUnit
from ..nn import Module
from .base import CompressionMethod, ExecutionContext, StepReport, fine_tune
from .masks import masked_evaluation
from .surgery import (
    PruningPlan,
    bn_scale_magnitudes,
    channel_limits,
    execute_plan,
    filter_l1_norms,
    filter_l2_norms,
    greedy_removal,
    params_per_channel,
    plan_from_dropped,
    prune_by_scores,
)

_CRITERIA: Dict[str, Callable[[PrunableUnit], np.ndarray]] = {
    "l1_weight": filter_l1_norms,
    "l2_weight": filter_l2_norms,
    # l2 norm modulated by the BN scale — LeGR's "l2_bn_param" variant.
    "l2_bn_param": lambda u: filter_l2_norms(u) * (bn_scale_magnitudes(u) + 1e-8),
}


class GlobalRanking:
    """LeGR's planning problem with everything candidate-independent fixed.

    The units' names, criterion scores, per-channel costs, floors and total
    criterion mass do not depend on ``(alpha, kappa)``, so they are fixed
    once per apply; a candidate costs one affine transform of the flat
    scores and one :func:`greedy_removal`.  Plans and fitness values equal
    ``plan_global_pruning`` over the per-unit transformed scores and the
    per-unit retained sums, bit for bit.
    """

    def __init__(
        self,
        names: Sequence[str],
        base_scores: List[np.ndarray],
        costs: Sequence[int],
        budget: float,
        max_ratio: float,
    ):
        self.names = names
        self.base_scores = base_scores
        self.costs = costs
        self.budget = budget
        self.counts = np.array([len(s) for s in base_scores], dtype=np.int64)
        self.flat_base = np.concatenate([np.empty(0), *base_scores])
        ends = np.cumsum(self.counts)
        self.spans = list(zip((ends - self.counts).tolist(), ends.tolist()))
        self.limits = channel_limits(self.counts, max_ratio)
        self.total = sum(float(s.sum()) for s in base_scores) + 1e-12

    def removal(self, alpha: np.ndarray, kappa: np.ndarray) -> Tuple[np.ndarray, int]:
        """Flat dropped mask and parameters removed for one candidate."""
        scores = (
            np.repeat(alpha, self.counts) * self.flat_base
            + np.repeat(kappa, self.counts)
        )
        return greedy_removal(scores, self.counts, self.limits, self.costs, self.budget)

    def plan(self, alpha: np.ndarray, kappa: np.ndarray) -> PruningPlan:
        return plan_from_dropped(self.names, self.counts, *self.removal(alpha, kappa))

    def retained_fraction(self, alpha: np.ndarray, kappa: np.ndarray) -> float:
        """Fraction of the total criterion mass the candidate's plan keeps."""
        kept = ~self.removal(alpha, kappa)[0]
        # per-unit sums in unit order: regrouping would change the rounding
        retained = sum(
            float(s[kept[start:end]].sum())
            for s, (start, end) in zip(self.base_scores, self.spans)
        )
        return retained / self.total


@dataclass(eq=False)
class _Individual:
    """One candidate per-unit affine ranking transform."""

    alpha: np.ndarray  # (num_units,)
    kappa: np.ndarray  # (num_units,)
    fitness: float


class LeGR(CompressionMethod):
    """Evolutionarily learned global filter ranking."""

    label = "C2"
    name = "LeGR"
    techniques = ("TE2", "TE3")

    population_size = 8
    samples_per_generation = 4
    mutation_scale = 0.2
    #: cap on EA generations — at paper scale HP7 resolves to dozens of
    #: epochs; beyond this the ranking transform has long converged.
    max_generations = 25
    #: a learned plan that removes less than this share of the budget is
    #: topped up with the learned ranking's criterion
    top_up_below = 0.98

    def generations(self, hp: Dict[str, object], ctx: ExecutionContext) -> int:
        """HP7's evolution epochs as a generation count, 1 to ``max_generations``."""
        generations = max(1, int(round(ctx.epochs(float(hp.get("HP7", 0.5))))))
        return min(generations, self.max_generations)

    def evolve(
        self,
        fitness: Callable[[np.ndarray, np.ndarray], float],
        num_units: int,
        generations: int,
        rng: np.random.Generator,
    ) -> _Individual:
        """Regularised evolution of per-unit ``(alpha, kappa)`` transforms.

        Each generation draws ``samples_per_generation`` children, each
        mutated from the fittest of three random members; a child joins the
        population and the least fit member leaves.  Returns the fittest.
        """
        def individual(alpha: np.ndarray, kappa: np.ndarray) -> _Individual:
            return _Individual(alpha, kappa, fitness(alpha, kappa))

        population = [
            individual(
                np.abs(rng.normal(1.0, 0.1, size=num_units)),
                rng.normal(0.0, 0.05, size=num_units),
            )
            for _ in range(self.population_size)
        ]
        for _ in range(generations):
            for _ in range(self.samples_per_generation):
                parent = max(
                    rng.choice(population, size=min(3, len(population)), replace=False),
                    key=lambda i: i.fitness,
                )
                population.append(individual(
                    np.abs(parent.alpha + rng.normal(0, self.mutation_scale, size=num_units)),
                    parent.kappa + rng.normal(0, self.mutation_scale / 4, size=num_units),
                ))
                population.remove(min(population, key=lambda i: i.fitness))
        return max(population, key=lambda i: i.fitness)

    def compress(
        self, model: Module, hp: Dict[str, object], ctx: ExecutionContext, report: StepReport
    ) -> None:
        budget = ctx.param_budget(float(hp["HP2"]))
        max_ratio = float(hp.get("HP6", 0.9))
        criterion = _CRITERIA[str(hp.get("HP8", "l2_weight"))]
        generations = self.generations(hp, ctx)

        units = model.pruning_units()
        ranking = GlobalRanking(
            [u.name for u in units], [criterion(u) for u in units],
            [params_per_channel(u) for u in units], budget, max_ratio,
        )

        def fitness(alpha: np.ndarray, kappa: np.ndarray) -> float:
            if ctx.train_enabled and ctx.dataset is not None:
                return masked_evaluation(
                    units,
                    ranking.plan(alpha, kappa).keep,
                    lambda: ctx.quick_accuracy(model),
                )
            # Analysis-only proxy: fraction of total criterion mass retained.
            return ranking.retained_fraction(alpha, kappa)

        best = self.evolve(fitness, len(units), generations, ctx.rng)
        execute_plan(units, ranking.plan(best.alpha, best.kappa))
        # One-shot plans undershoot the budget on chain topologies (unit
        # costs interact); top up with the learned ranking's criterion.
        removed_so_far = report.params_before - model.num_parameters()
        if removed_so_far < self.top_up_below * budget:
            units = model.pruning_units()
            top_up_scores = {
                u.name: best.alpha[min(i, len(best.alpha) - 1)] * criterion(u)
                + best.kappa[min(i, len(best.kappa) - 1)]
                for i, u in enumerate(units)
            }
            prune_by_scores(
                model, top_up_scores, budget - removed_so_far,
                max_ratio=max_ratio, score_fn=criterion,
            )

        report.fine_tune_epochs = ctx.epochs(float(hp["HP1"]))
        fine_tune(model, report.fine_tune_epochs, ctx)
        report.details = {"generations": generations, "best_fitness": best.fitness}

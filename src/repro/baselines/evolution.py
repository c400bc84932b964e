"""Multi-objective evolutionary baseline (§4.1), NSGA-II style.

A population of complete schemes evolves under non-dominated sorting with
crowding-distance selection.  Variation operators: strategy replacement,
hyperparameter-neighbour mutation, insertion, deletion (the shared
:func:`~repro.baselines.moves.mutate_scheme` move), and one-point
crossover.  Every offspring evaluation charges the shared simulated budget.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..core.evaluator import EvaluationResult
from ..core.pareto import crowding_distance, nondominated_sort
from ..core.search import SearchStrategy
from ..core.solver import Solver, register_solver
from ..space.scheme import CompressionScheme
from .moves import mutate_scheme


@register_solver("evolution", label="Evolution")
class EvolutionSolver(Solver):
    """NSGA-II over complete compression schemes.

    Round 0 proposes the random initial population; each later round is one
    generation: binary-tournament parent selection, mutation/crossover
    offspring, then environmental selection over parents + offspring.
    Variation consumes only the strategy rng, so generating the whole
    generation before submitting it through ``evaluate_many`` (and any
    engine workers behind it) replays the serial trajectory.
    """

    def __init__(
        self,
        strategy: SearchStrategy,
        population_size: int = 16,
        offspring_per_generation: int = 8,
    ):
        super().__init__(strategy)
        self.population_size = population_size
        self.offspring_per_generation = offspring_per_generation
        self._population: List[CompressionScheme] = []
        self._offspring: List[CompressionScheme] = []
        self._known: Dict[str, EvaluationResult] = {}
        self._seeded = False

    # ------------------------------------------------------------------ #
    def _mutate(self, scheme: CompressionScheme) -> CompressionScheme:
        mutated = mutate_scheme(scheme, self.space, self.rng, self.max_length)
        # Statically-infeasible children fall back to the parent, exactly
        # like the move's nominal-PR guard — no evaluation cost is charged.
        if mutated is not scheme and not self.strategy.feasible(mutated):
            return scheme
        return mutated

    def _crossover(self, a: CompressionScheme, b: CompressionScheme) -> CompressionScheme:
        cut_a = int(self.rng.integers(0, a.length + 1))
        cut_b = int(self.rng.integers(0, b.length + 1))
        child = CompressionScheme(a.strategies[:cut_a] + b.strategies[cut_b:])
        child = child.prefix(self.max_length)
        if child.is_empty or child.total_param_step > 0.9:
            return a
        if not self.strategy.feasible(child):
            return a
        return child

    # ------------------------------------------------------------------ #
    def propose(self, state: SearchStrategy) -> List[CompressionScheme]:
        if not self._seeded:
            population: List[CompressionScheme] = []
            while len(population) < self.population_size and state.budget_left() > 0:
                scheme = state.random_scheme()
                if not scheme.is_empty:
                    population.append(scheme)
            self._population = population
            self._offspring = []
            return list(population)
        if not self._population:
            return []
        points = np.stack(
            [self._known[s.identifier].objectives for s in self._population]
        )
        offspring: List[CompressionScheme] = []
        for _ in range(self.offspring_per_generation):
            i, j = self.rng.integers(0, len(self._population), size=2)
            # Binary tournament on domination rank then crowding.
            parent = (
                self._population[int(i)]
                if self._beats(points, int(i), int(j))
                else self._population[int(j)]
            )
            if self.rng.random() < 0.3 and len(self._population) >= 2:
                other = self._population[int(self.rng.integers(len(self._population)))]
                child = self._crossover(parent, other)
            else:
                child = self._mutate(parent)
            offspring.append(child)
        self._offspring = offspring
        self._round_attrs = {"population": len(self._population)}
        return offspring

    def observe(self, results: List[EvaluationResult]) -> None:
        for result in results:
            self._known[result.scheme.identifier] = result
        if not self._seeded:
            self._seeded = True
            # keep only members the driver actually evaluated
            self._population = [
                s for s in self._population if s.identifier in self._known
            ]
            return
        survivors = [s for s in self._offspring if s.identifier in self._known]
        merged = self._population + survivors
        if not merged:
            self._population = []
            return
        merged_points = np.stack(
            [self._known[s.identifier].objectives for s in merged]
        )
        self._population = self._environmental_selection(merged, merged_points)
        self._round_attrs.update(
            offspring=len(self._offspring), survivors=len(self._population)
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def _beats(points: np.ndarray, i: int, j: int) -> bool:
        a, b = points[i], points[j]
        if np.all(a >= b) and np.any(a > b):
            return True
        if np.all(b >= a) and np.any(b > a):
            return False
        return bool(a[0] >= b[0])  # tie-break on AR

    def _environmental_selection(
        self, schemes: List[CompressionScheme], points: np.ndarray
    ) -> List[CompressionScheme]:
        selected: List[int] = []
        for front in nondominated_sort(points):
            if len(selected) + len(front) <= self.population_size:
                selected.extend(int(i) for i in front)
            else:
                need = self.population_size - len(selected)
                dist = crowding_distance(points[front])
                order = np.argsort(-dist)[:need]
                selected.extend(int(front[i]) for i in order)
                break
        # Deduplicate by identifier while preserving order.
        seen = set()
        unique: List[CompressionScheme] = []
        for i in selected:
            key = schemes[i].identifier
            if key not in seen:
                seen.add(key)
                unique.append(schemes[i])
        return unique

"""Random Search baseline (§4.1) — uniform schemes from the tree S (L=5)."""

from __future__ import annotations

from typing import List

from ..core.search import SearchStrategy
from ..core.solver import Solver, register_solver
from ..space.scheme import CompressionScheme


@register_solver("random", label="Random")
class RandomSolver(Solver):
    """Evaluate uniformly random schemes until the budget runs out.

    One batch of ``record_every`` draws per round / trajectory snapshot:
    generation consumes only the strategy rng, so batching through
    ``evaluate_many`` (and any engine workers behind it) preserves the
    serial scheme sequence.  Statically-infeasible draws are pruned by the
    driver gate for free.
    """

    def __init__(self, strategy: SearchStrategy, record_every: int = 5):
        super().__init__(strategy)
        self.record_every = record_every

    def propose(self, state: SearchStrategy) -> List[CompressionScheme]:
        batch: List[CompressionScheme] = []
        attempts = 0
        while len(batch) < self.record_every and attempts < 4 * self.record_every:
            scheme = state.random_scheme()
            attempts += 1
            if not scheme.is_empty:
                batch.append(scheme)
        return batch

"""Shared scheme-edit move: the NSGA-II mutation and the local-search step.

One uniformly-chosen edit of a scheme — replace a strategy, nudge one
hyperparameter to a grid neighbour, insert, or delete.  The Evolution
baseline mutates with it and the local-search solvers take it as their
neighbourhood, so neighbourhood sizes are comparable across solvers.  Edits
that would empty the scheme or push the nominal cumulative PR past
``max_nominal`` return the original scheme unchanged (a self-loop in the
search graph).  Static budget feasibility is the caller's job, not the
move's: Evolution falls back to the parent, the others leave it to the
solver driver.
"""

from __future__ import annotations

from ..space.scheme import CompressionScheme
from ..space.strategy import StrategySpace


def mutate_scheme(
    scheme: CompressionScheme,
    space: StrategySpace,
    rng,
    max_length: int,
    max_nominal: float = 0.9,
) -> CompressionScheme:
    """One random edit move; falls back to ``scheme`` when the edit is invalid."""
    strategies = list(scheme.strategies)
    op = rng.random()
    if op < 0.35 and strategies:  # replace one strategy entirely
        i = int(rng.integers(len(strategies)))
        strategies[i] = space[int(rng.integers(len(space)))]
    elif op < 0.65 and strategies:  # nudge one hyperparameter
        i = int(rng.integers(len(strategies)))
        strategies[i] = space.neighbor(strategies[i], rng)
    elif op < 0.85 and len(strategies) < max_length:  # insert
        i = int(rng.integers(len(strategies) + 1))
        strategies.insert(i, space[int(rng.integers(len(space)))])
    elif len(strategies) > 1:  # delete
        i = int(rng.integers(len(strategies)))
        del strategies[i]
    mutated = CompressionScheme(tuple(strategies))
    if mutated.is_empty or mutated.total_param_step > max_nominal:
        return scheme
    return mutated

"""The four ablation variants of §4.5.

========================  ====================================================
AutoMC                    the full algorithm
AutoMC-KG                 no knowledge-graph embedding (random init + NN_exp)
AutoMC-NNexp              no experience enhancement (TransR only)
AutoMC-MultipleSource     search space restricted to LeGR strategies
AutoMC-ProgressiveSearch  RL controller instead of the progressive strategy
========================  ====================================================

:func:`build_variant` wires a ready-to-run solver for one variant given an
evaluator factory (each variant needs its own evaluator so budgets are
independent).
"""

from __future__ import annotations

from typing import Optional

from ..knowledge.embedding import EmbeddingConfig, learn_embeddings
from ..space.strategy import StrategySpace
from .interface import Evaluator
from .progressive import ProgressiveConfig
from .solver import Solver, make_solver

VARIANTS = (
    "AutoMC",
    "AutoMC-KG",
    "AutoMC-NNexp",
    "AutoMC-MultipleSource",
    "AutoMC-ProgressiveSearch",
)


def build_variant(
    name: str,
    evaluator: Evaluator,
    gamma: float = 0.3,
    budget_hours: float = 24.0,
    max_length: int = 5,
    seed: int = 0,
    embedding_rounds: int = 3,
    progressive_config: Optional[ProgressiveConfig] = None,
) -> Solver:
    """A configured solver implementing one §4.5 variant (``name`` is the variant)."""
    if name not in VARIANTS:
        raise KeyError(f"unknown variant {name!r}; choose from {VARIANTS}")
    shared = dict(gamma=gamma, budget_hours=budget_hours, max_length=max_length, seed=seed)

    if name == "AutoMC-ProgressiveSearch":
        # Same knowledge, non-progressive RL search.
        solver = make_solver("rl", evaluator, StrategySpace(), **shared)
        solver.strategy.name = name
        return solver

    from ..knowledge.experience import default_experience

    experience = default_experience()
    if name == "AutoMC-MultipleSource":
        space = StrategySpace(method_labels=["C2"])
        config = EmbeddingConfig(rounds=embedding_rounds, seed=seed)
    elif name == "AutoMC-KG":
        space = StrategySpace()
        config = EmbeddingConfig(rounds=embedding_rounds, use_kg=False, seed=seed)
    elif name == "AutoMC-NNexp":
        # No experience anywhere: neither embedding enhancement nor warm start.
        space = StrategySpace()
        config = EmbeddingConfig(rounds=embedding_rounds, use_experience=False, seed=seed)
        experience = None
    else:  # full AutoMC
        space = StrategySpace()
        config = EmbeddingConfig(rounds=embedding_rounds, seed=seed)

    embeddings = learn_embeddings(space, config=config)
    solver = make_solver(
        "progressive", evaluator, space, embeddings=embeddings,
        config=progressive_config, experience=experience, **shared,
    )
    solver.strategy.name = name
    return solver

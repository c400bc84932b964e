"""Algorithm 1 — compression-strategy embedding learning.

Alternates TransR training over the knowledge graph with experience-based
enhancement through NN_exp, exactly as the paper's pseudo-code:

1. build G over the strategy space and gather experience E;
2. each round: one (or a few) TransR epochs -> extract strategy embeddings ->
   optimise them jointly with NN_exp against E (Eq. 3) -> write the enhanced
   embeddings back into the TransR entity table;
3. return the final high-level embeddings.

Ablation switches: ``use_kg=False`` skips TransR (random init — the
AutoMC-KG variant); ``use_experience=False`` skips the enhancement rounds
(the AutoMC-NN_exp variant).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..space.strategy import StrategySpace
from .experience import ExperienceRecord, default_experience
from .graph import KnowledgeGraph, build_knowledge_graph
from .nn_exp import NNExp, enhance_embeddings
from .transr import TransR, TransRConfig


@dataclass
class EmbeddingConfig:
    dim: int = 32
    rounds: int = 4              # alternating rounds of Algorithm 1
    transr_epochs_per_round: int = 3
    nn_exp_epochs_per_round: int = 30
    use_kg: bool = True
    use_experience: bool = True
    seed: int = 0


@dataclass
class StrategyEmbeddings:
    """The learned high-level embeddings, indexed like the strategy space."""

    table: np.ndarray  # (num_strategies, dim)
    space: StrategySpace
    nn_exp: Optional[NNExp] = None
    transr_losses: List[float] = field(default_factory=list)
    nn_exp_losses: List[float] = field(default_factory=list)

    def of(self, strategy) -> np.ndarray:
        return self.table[strategy.index]

    @property
    def dim(self) -> int:
        return self.table.shape[1]


def learn_embeddings(
    space: StrategySpace,
    records: Optional[Sequence[ExperienceRecord]] = None,
    config: Optional[EmbeddingConfig] = None,
    graph: Optional[KnowledgeGraph] = None,
) -> StrategyEmbeddings:
    """Run Algorithm 1 and return the high-level strategy embeddings."""
    cfg = config or EmbeddingConfig()
    records = list(records) if records is not None else default_experience()
    rng = np.random.default_rng(cfg.seed)

    strategy_ids = None
    transr = None
    if cfg.use_kg:
        graph = graph or build_knowledge_graph(space)
        transr = TransR(
            graph.num_entities,
            graph.num_relations,
            TransRConfig(entity_dim=cfg.dim, relation_dim=cfg.dim, seed=cfg.seed),
        )
        strategy_ids = np.array(
            [graph.strategy_entities[i] for i in space.identifiers], dtype=np.int64
        )
        table = transr.entities[strategy_ids].copy()
    else:
        table = rng.normal(0, 0.1, size=(len(space), cfg.dim))

    nn_exp: Optional[NNExp] = None
    transr_losses: List[float] = []
    nn_exp_losses: List[float] = []

    for _ in range(max(cfg.rounds, 1)):
        if cfg.use_kg and transr is not None:
            for _ in range(cfg.transr_epochs_per_round):
                transr_losses.append(transr.train_epoch(graph.triplets))
            table = transr.entities[strategy_ids].copy()
        if cfg.use_experience:
            result, nn_exp = enhance_embeddings(
                table,
                space,
                records,
                network=nn_exp,
                epochs=cfg.nn_exp_epochs_per_round,
                seed=cfg.seed,
            )
            table = result.embeddings
            nn_exp_losses.extend(result.losses)
            if cfg.use_kg and transr is not None:
                # Replace e with the enhanced ẽ (Algorithm 1, line 9).
                transr.entities[strategy_ids] = table
        if not cfg.use_kg and not cfg.use_experience:
            break

    return StrategyEmbeddings(
        table=table,
        space=space,
        nn_exp=nn_exp,
        transr_losses=transr_losses,
        nn_exp_losses=nn_exp_losses,
    )

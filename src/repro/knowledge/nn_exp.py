"""NN_exp — the experience-based embedding enhancement network (§3.3.1, Eq. 3).

A small MLP takes the concatenation of a strategy embedding and a task
feature vector and predicts that strategy's (AR, PR) on the task.  Training
jointly optimises the network parameters θ *and the strategy embeddings
themselves* — the gradient flowing into the embedding table is what injects
the papers' experimental experience into the representations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..nn import Adam, Embedding, Linear, Module, Tensor, concat
from ..space.strategy import StrategySpace
from .experience import ExperienceRecord, nearest_strategy

TASK_FEATURES = 7


class NNExp(Module):
    """MLP predicting (AR, PR) from [strategy embedding ; task features]."""

    def __init__(self, embedding_dim: int, hidden: int = 64, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.fc1 = Linear(embedding_dim + TASK_FEATURES, hidden, rng=rng)
        self.fc2 = Linear(hidden, hidden // 2, rng=rng)
        self.out = Linear(hidden // 2, 2, rng=rng)

    def forward(self, strategy_embedding: Tensor, task_features: Tensor) -> Tensor:
        x = concat([strategy_embedding, task_features], axis=1)
        x = self.fc1(x).relu()
        x = self.fc2(x).relu()
        return self.out(x)


@dataclass
class EnhancementResult:
    """Outcome of one embedding-enhancement phase."""

    embeddings: np.ndarray  # (num_strategies, dim) — the enhanced table
    losses: List[float]
    matched_records: int


def enhance_embeddings(
    embeddings: np.ndarray,
    space: StrategySpace,
    records: Sequence[ExperienceRecord],
    network: Optional[NNExp] = None,
    epochs: int = 30,
    learning_rate: float = 1e-3,
    seed: int = 0,
) -> Tuple[EnhancementResult, NNExp]:
    """Optimise θ and the strategy embeddings against Eq. 3's MSE objective.

    Returns the enhanced embedding table (a copy) and the trained network
    (reusable across Algorithm 1's alternating rounds).
    """
    dim = embeddings.shape[1]
    net = network or NNExp(dim, seed=seed)

    table = Embedding(embeddings.shape[0], dim)
    table.weight.data = embeddings.copy()

    pairs = []
    for record in records:
        strategy = nearest_strategy(space, record)
        if strategy is not None:
            pairs.append((strategy.index, record))
    if not pairs:
        return EnhancementResult(embeddings.copy(), [], 0), net

    ids = np.array([i for i, _ in pairs], dtype=np.int64)
    tasks = np.stack([r.task.feature_vector() for _, r in pairs])
    targets = np.stack([r.target for _, r in pairs])

    optimizer = Adam(list(net.parameters()) + [table.weight], lr=learning_rate)
    losses: List[float] = []
    for _ in range(epochs):
        emb = table(ids)
        pred = net(emb, Tensor(tasks))
        diff = pred - Tensor(targets)
        loss = (diff * diff).mean()
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        losses.append(loss.item())

    return (
        EnhancementResult(
            embeddings=table.weight.data.copy(),
            losses=losses,
            matched_records=len(pairs),
        ),
        net,
    )

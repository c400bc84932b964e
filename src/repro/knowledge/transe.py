"""TransE knowledge-graph embedding (Bordes et al., NeurIPS 2013).

A simpler alternative to TransR kept for the design-choice ablation
benchmarks: entities and relations share one space and a true triplet should
satisfy ``e_h + e_r ≈ e_t`` (no per-relation projection).  The paper picks
TransR because the five relation types of G connect entities of different
kinds; comparing against TransE quantifies how much that choice matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .transr import ordered_row_sum


@dataclass
class TransEConfig:
    dim: int = 32
    margin: float = 1.0
    learning_rate: float = 0.01
    batch_size: int = 512
    seed: int = 0


class TransE:
    """Margin-ranking TransE trainer over integer triplet arrays."""

    def __init__(self, num_entities: int, num_relations: int, config: Optional[TransEConfig] = None):
        self.config = config or TransEConfig()
        rng = np.random.default_rng(self.config.seed)
        bound = 6.0 / np.sqrt(self.config.dim)
        self.entities = rng.uniform(-bound, bound, size=(num_entities, self.config.dim))
        self.relations = rng.uniform(-bound, bound, size=(num_relations, self.config.dim))
        self._normalize()
        self._rng = rng
        self.loss_history: List[float] = []

    def _normalize(self) -> None:
        norms = np.linalg.norm(self.entities, axis=1, keepdims=True)
        np.divide(self.entities, np.maximum(norms, 1.0), out=self.entities)

    def score(self, heads: np.ndarray, rels: np.ndarray, tails: np.ndarray) -> np.ndarray:
        diff = self.entities[heads] + self.relations[rels] - self.entities[tails]
        return (diff ** 2).sum(axis=1)

    def train_epoch(self, triplets: np.ndarray) -> float:
        cfg = self.config
        rng = self._rng
        order = rng.permutation(len(triplets))
        total = 0.0
        n_entities = len(self.entities)
        for start in range(0, len(order), cfg.batch_size):
            batch = triplets[order[start : start + cfg.batch_size]]
            heads, rels, tails = batch[:, 0], batch[:, 1], batch[:, 2]
            corrupt_head = rng.random(len(batch)) < 0.5
            random_entities = rng.integers(0, n_entities, size=len(batch))
            neg_heads = np.where(corrupt_head, random_entities, heads)
            neg_tails = np.where(corrupt_head, tails, random_entities)

            pos = self.score(heads, rels, tails)
            neg = self.score(neg_heads, rels, neg_tails)
            violation = cfg.margin + pos - neg
            active = violation > 0
            total += float(violation[active].sum())
            if not active.any():
                continue
            self._step(heads[active], rels[active], tails[active],
                       neg_heads[active], neg_tails[active])
        self._normalize()
        self.loss_history.append(total / max(len(triplets), 1))
        return self.loss_history[-1]

    def _step(self, heads, rels, tails, neg_heads, neg_tails) -> None:
        """Averaged gradient step, accumulated in the same order as TransR's."""
        lr = self.config.learning_rate
        n_entities, n_relations = len(self.entities), len(self.relations)
        u_pos = 2.0 * (self.entities[heads] + self.relations[rels] - self.entities[tails])
        u_neg = 2.0 * (self.entities[neg_heads] + self.relations[rels] - self.entities[neg_tails])
        ent_idx = np.concatenate([heads, tails, neg_heads, neg_tails])
        ent_grad = ordered_row_sum(
            ent_idx, np.concatenate([u_pos, -u_pos, -u_neg, u_neg]), n_entities
        )
        ent_count = np.bincount(ent_idx, minlength=n_entities)
        rel_idx = np.concatenate([rels, rels])
        rel_grad = ordered_row_sum(rel_idx, np.concatenate([u_pos, -u_neg]), n_relations)
        rel_count = np.bincount(rel_idx, minlength=n_relations)
        self.entities -= lr * ent_grad / np.maximum(ent_count, 1.0)[:, None]
        self.relations -= lr * rel_grad / np.maximum(rel_count, 1.0)[:, None]

    def fit(self, triplets: np.ndarray, epochs: int = 20) -> List[float]:
        for _ in range(epochs):
            self.train_epoch(triplets)
        return self.loss_history

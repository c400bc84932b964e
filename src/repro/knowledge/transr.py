"""TransR knowledge-graph embedding (Lin et al., AAAI 2015) — Eq. 2.

Entities live in R^d, relations in R^k, and each relation owns a projection
matrix W_r in R^{k x d}.  A true triplet (h, r, t) should satisfy
``W_r e_h + e_r ≈ W_r e_t``; training minimises a margin ranking loss between
true triplets and corrupted negatives, with hand-derived gradients (the
model is small enough that explicit numpy gradients beat the autodiff tape).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np


@dataclass
class TransRConfig:
    entity_dim: int = 32
    relation_dim: int = 32
    margin: float = 1.0
    learning_rate: float = 0.01
    batch_size: int = 512
    seed: int = 0


def ordered_row_sum(indices: np.ndarray, rows: np.ndarray, num_rows: int) -> np.ndarray:
    """``out[indices[i]] += rows[i]`` into zeros, summing in the order given.

    One ``np.bincount`` over flattened (row, column) positions: it adds each
    bucket's terms in input order, so the result is bit-for-bit that of
    ``np.add.at(np.zeros((num_rows, d)), indices, rows)``.
    """
    d = rows.shape[1]
    flat = (indices[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=rows.ravel(), minlength=num_rows * d).reshape(num_rows, d)


def _ordered_total(rows: np.ndarray) -> np.ndarray:
    """``0.0 + rows[0] + rows[1] + ...``, added in row order.

    ``np.add.reduce`` over the first axis adds whole rows in order while a
    row holds two or more numbers; over one-number rows it switches to
    pairwise summation, so those go through :func:`ordered_row_sum`.
    """
    flat = rows.reshape(len(rows), -1)
    if flat.shape[1] > 1:
        total = np.add.reduce(flat, axis=0, initial=0.0)
    else:
        total = ordered_row_sum(np.zeros(len(flat), dtype=np.intp), flat, 1)
    return total.reshape(rows.shape[1:])


class TransR:
    """Margin-ranking TransR trainer over integer triplet arrays."""

    def __init__(self, num_entities: int, num_relations: int, config: Optional[TransRConfig] = None):
        self.config = config or TransRConfig()
        rng = np.random.default_rng(self.config.seed)
        d, k = self.config.entity_dim, self.config.relation_dim
        bound = 6.0 / np.sqrt(d)
        self.entities = rng.uniform(-bound, bound, size=(num_entities, d))
        self.relations = rng.uniform(-bound, bound, size=(num_relations, k))
        self.projections = np.tile(np.eye(k, d), (num_relations, 1, 1))
        self.projections += rng.normal(0, 0.01, size=self.projections.shape)
        self._normalize()
        self._rng = rng
        self.loss_history: List[float] = []

    # ------------------------------------------------------------------ #
    def _normalize(self) -> None:
        norms = np.linalg.norm(self.entities, axis=1, keepdims=True)
        np.divide(self.entities, np.maximum(norms, 1.0), out=self.entities)
        rnorms = np.linalg.norm(self.relations, axis=1, keepdims=True)
        np.divide(self.relations, np.maximum(rnorms, 1.0), out=self.relations)

    def _residuals(self, w: np.ndarray, heads, rels, tails) -> np.ndarray:
        """``W_r e_h + e_r - W_r e_t`` per triplet, given ``w = projections[rels]``."""
        h = np.einsum("nkd,nd->nk", w, self.entities[heads])
        t = np.einsum("nkd,nd->nk", w, self.entities[tails])
        return h + self.relations[rels] - t

    def score(self, heads: np.ndarray, rels: np.ndarray, tails: np.ndarray) -> np.ndarray:
        """||W_r e_h + e_r - W_r e_t||^2 for each triplet (lower = better)."""
        diff = self._residuals(self.projections[rels], heads, rels, tails)
        return (diff ** 2).sum(axis=1)

    # ------------------------------------------------------------------ #
    def train_epoch(self, triplets: np.ndarray) -> float:
        """One pass of margin-ranking SGD with uniform negative sampling."""
        cfg = self.config
        rng = self._rng
        order = rng.permutation(len(triplets))
        total_loss = 0.0
        n_entities = len(self.entities)
        for start in range(0, len(order), cfg.batch_size):
            batch = triplets[order[start : start + cfg.batch_size]]
            heads, rels, tails = batch[:, 0], batch[:, 1], batch[:, 2]
            # Corrupt head or tail uniformly.
            corrupt_head = rng.random(len(batch)) < 0.5
            random_entities = rng.integers(0, n_entities, size=len(batch))
            neg_heads = np.where(corrupt_head, random_entities, heads)
            neg_tails = np.where(corrupt_head, tails, random_entities)

            w = self.projections[rels]  # (n, k, d)
            u_pos = self._residuals(w, heads, rels, tails)
            u_neg = self._residuals(w, neg_heads, rels, neg_tails)
            violation = cfg.margin + (u_pos ** 2).sum(axis=1) - (u_neg ** 2).sum(axis=1)
            active = violation > 0
            total_loss += float(violation[active].sum())
            if not active.any():
                continue
            self._sgd_step(
                w[active], rels[active],
                heads[active], tails[active], u_pos[active],
                neg_heads[active], neg_tails[active], u_neg[active],
            )
        self._normalize()
        self.loss_history.append(total_loss / max(len(triplets), 1))
        return self.loss_history[-1]

    def _sgd_step(self, w, rels, heads, tails, u_pos, neg_heads, neg_tails, u_neg) -> None:
        """Apply gradients of (pos_score - neg_score) for violating triplets.

        ``w`` is ``projections[rels]`` and ``u_pos`` / ``u_neg`` are the
        residuals :meth:`_residuals` computed for the batch's scores.  Many
        triplets in a batch touch the *same* relation (there are only five),
        so raw accumulation explodes; gradients are averaged per parameter
        (entity / relation / projection) before the update.

        Each table is accumulated in one ordered pass — entity rows over
        positive heads, positive tails, negative heads, negative tails, and
        each relation's rows over its positive then negative triplets — so
        every sum adds its terms in the order an ``np.add.at`` per term
        would, and the result is bit-for-bit the same.
        """
        lr = self.config.learning_rate
        n_entities, n_relations = len(self.entities), len(self.relations)
        grad_pos = 2.0 * np.einsum("nkd,nk->nd", w, u_pos)
        grad_neg = 2.0 * np.einsum("nkd,nk->nd", w, u_neg)
        ent_idx = np.concatenate([heads, tails, neg_heads, neg_tails])
        ent_grad = ordered_row_sum(
            ent_idx, np.concatenate([grad_pos, -grad_pos, -grad_neg, grad_neg]), n_entities
        )
        ent_count = np.bincount(ent_idx, minlength=n_entities)
        rel_idx = np.concatenate([rels, rels])
        rel_grad = ordered_row_sum(
            rel_idx, np.concatenate([2.0 * u_pos, -(2.0 * u_neg)]), n_relations
        )
        rel_count = np.bincount(rel_idx, minlength=n_relations)

        diff_pos = self.entities[heads] - self.entities[tails]
        diff_neg = self.entities[neg_heads] - self.entities[neg_tails]
        proj_grad = np.zeros_like(self.projections)
        for r in np.unique(rels):
            rows = np.flatnonzero(rels == r)
            outer = 2.0 * np.einsum(
                "nk,nd->nkd",
                np.concatenate([u_pos[rows], u_neg[rows]]),
                np.concatenate([diff_pos[rows], diff_neg[rows]]),
            )
            outer[len(rows):] *= -1.0
            proj_grad[r] = _ordered_total(outer)

        ent_scale = np.maximum(ent_count, 1.0)[:, None]
        rel_scale = np.maximum(rel_count, 1.0)
        self.entities -= lr * ent_grad / ent_scale
        self.relations -= lr * rel_grad / rel_scale[:, None]
        self.projections -= lr * proj_grad / rel_scale[:, None, None]

    # ------------------------------------------------------------------ #
    def fit(self, triplets: np.ndarray, epochs: int = 20) -> List[float]:
        for _ in range(epochs):
            self.train_epoch(triplets)
        return self.loss_history

    def embedding_of(self, entity_id: int) -> np.ndarray:
        return self.entities[entity_id].copy()

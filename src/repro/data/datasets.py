"""Synthetic class-conditional image datasets.

The environment has no network access, so CIFAR-10/100 are substituted with
procedurally generated datasets of the same shape (3x32x32, 10/100 classes).
Each class owns a deterministic set of spatial prototypes (oriented gratings
with class-specific colour and frequency); samples are noisy mixtures of
their class prototypes.  A CNN can genuinely learn these — accuracy improves
with training and degrades when capacity is removed, which is the property
the compression experiments rely on.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from ..nn.tensor import get_default_dtype


def _class_prototype(
    label: int, channels: int, size: int, rng: np.random.Generator
) -> np.ndarray:
    """A deterministic oriented-grating prototype for one class."""
    yy, xx = np.meshgrid(np.linspace(-1, 1, size), np.linspace(-1, 1, size), indexing="ij")
    angle = rng.uniform(0, np.pi)
    freq = rng.uniform(2.0, 6.0)
    phase = rng.uniform(0, 2 * np.pi)
    wave = np.sin(freq * (np.cos(angle) * xx + np.sin(angle) * yy) * np.pi + phase)
    blob_x, blob_y = rng.uniform(-0.5, 0.5, size=2)
    blob = np.exp(-(((xx - blob_x) ** 2 + (yy - blob_y) ** 2) / 0.3))
    base = 0.7 * wave + 0.8 * blob
    colors = rng.uniform(-1.0, 1.0, size=channels)
    return np.stack([base * c for c in colors], axis=0)


class SyntheticImageDataset:
    """An in-memory labelled image dataset with deterministic generation."""

    def __init__(
        self,
        num_classes: int = 10,
        num_samples: int = 512,
        image_size: int = 32,
        channels: int = 3,
        noise: float = 0.35,
        seed: int = 0,
        name: str = "synthetic",
    ):
        if num_samples < num_classes:
            raise ValueError("need at least one sample per class")
        self.num_classes = num_classes
        self.image_size = image_size
        self.channels = channels
        self.noise = noise
        self.seed = seed
        self.name = name
        rng = np.random.default_rng(seed)
        prototypes = np.stack(
            [_class_prototype(c, channels, image_size, rng) for c in range(num_classes)]
        )
        labels = np.arange(num_samples) % num_classes
        rng.shuffle(labels)
        images = prototypes[labels].astype(np.float64)
        images += rng.normal(0, noise, size=images.shape)
        # Per-channel standardisation, as one would do with real CIFAR.
        mean = images.mean(axis=(0, 2, 3), keepdims=True)
        std = images.std(axis=(0, 2, 3), keepdims=True) + 1e-8
        # Stored in the training dtype so every batch feeds the model without
        # a per-step astype copy.
        self.images = ((images - mean) / std).astype(get_default_dtype())
        self.labels = labels.astype(np.int64)

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        return self.images[index], int(self.labels[index])

    def iter_batches(
        self,
        batch_size: int,
        shuffle: bool = False,
        rng: Optional[np.random.Generator] = None,
        with_indices: bool = False,
    ) -> Iterator:
        """Yield (x, y) or (x, y, indices) mini-batches."""
        order = np.arange(len(self))
        if shuffle:
            (rng or np.random.default_rng(self.seed)).shuffle(order)
        for start in range(0, len(order), batch_size):
            idx = order[start : start + batch_size]
            if with_indices:
                yield self.images[idx], self.labels[idx], idx
            else:
                yield self.images[idx], self.labels[idx]

    # ------------------------------------------------------------------ #
    def split(self, fraction: float, seed: int = 0) -> Tuple["SyntheticImageDataset", "SyntheticImageDataset"]:
        """Random split into (first, second) with ``fraction`` in the first."""
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(self))
        cut = int(round(fraction * len(self)))
        return self._subset(order[:cut], f"{self.name}-a"), self._subset(order[cut:], f"{self.name}-b")

    def subsample(self, fraction: float, seed: int = 0) -> "SyntheticImageDataset":
        """Class-stratified subsample — the paper's '10% of D' trick (§4.1)."""
        rng = np.random.default_rng(seed)
        chosen = []
        for c in range(self.num_classes):
            members = np.flatnonzero(self.labels == c)
            take = max(1, int(round(fraction * len(members))))
            chosen.append(rng.choice(members, size=take, replace=False))
        idx = np.concatenate(chosen)
        rng.shuffle(idx)
        return self._subset(idx, f"{self.name}-{fraction:g}")

    def _subset(self, indices: np.ndarray, name: str) -> "SyntheticImageDataset":
        sub = object.__new__(SyntheticImageDataset)
        sub.num_classes = self.num_classes
        sub.image_size = self.image_size
        sub.channels = self.channels
        sub.noise = self.noise
        sub.seed = self.seed
        sub.name = name
        sub.images = self.images[indices]
        sub.labels = self.labels[indices]
        return sub

    def __repr__(self) -> str:
        return (
            f"SyntheticImageDataset({self.name}: {len(self)} samples, "
            f"{self.num_classes} classes, {self.channels}x{self.image_size}x{self.image_size})"
        )


def tiny_dataset(num_classes: int = 4, num_samples: int = 160, image_size: int = 8, seed: int = 0) -> SyntheticImageDataset:
    """Small dataset for fast unit tests and real-training examples."""
    return SyntheticImageDataset(
        num_classes, num_samples, image_size, 3, noise=0.25, seed=seed, name="tiny"
    )

"""Datasets, loaders, augmentation and task descriptors."""

from .augmentation import AugmentedDataset, random_crop, random_horizontal_flip
from .datasets import SyntheticImageDataset, synthetic_cifar10, tiny_dataset
from .tasks import EXP1, EXP2, CompressionTask, task_from_dataset, transfer_task

__all__ = [
    "AugmentedDataset",
    "EXP1",
    "EXP2",
    "CompressionTask",
    "SyntheticImageDataset",
    "random_crop",
    "random_horizontal_flip",
    "synthetic_cifar10",
    "task_from_dataset",
    "tiny_dataset",
    "transfer_task",
]

"""Datasets, loaders and task descriptors."""

from .datasets import SyntheticImageDataset, tiny_dataset
from .tasks import EXP1, EXP2, CompressionTask, task_from_dataset, transfer_task

__all__ = [
    "EXP1",
    "EXP2",
    "CompressionTask",
    "SyntheticImageDataset",
    "task_from_dataset",
    "tiny_dataset",
    "transfer_task",
]

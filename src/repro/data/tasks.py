"""Compression-task descriptors — the ``Task_k`` feature vector of §3.3.1.

A :class:`CompressionTask` bundles the dataset attributes and original-model
performance information that AutoMC feeds to :math:`\\mathcal{NN}_{exp}`:

1. data features — category number, image size, channel number, data amount;
2. model features — original parameter amount, FLOPs, accuracy.

Paper-scale tasks (Exp1/Exp2) are described by metadata only; tiny tasks also
carry a live dataset so the real-training evaluator can use them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CompressionTask:
    """Everything AutoMC knows about one compression problem."""

    name: str
    num_classes: int
    image_size: int
    channels: int
    data_amount: int
    model_name: str
    model_params: float  # millions
    model_flops: float  # GFLOPs
    model_accuracy: float  # [0, 1]

    def feature_vector(self) -> np.ndarray:
        """The 7-part task embedding input of §3.3.1, log/unit-scaled."""
        return np.array(
            [
                np.log10(self.num_classes),
                self.image_size / 32.0,
                self.channels / 3.0,
                np.log10(max(self.data_amount, 1)),
                np.log10(max(self.model_params, 1e-4)),
                np.log10(max(self.model_flops, 1e-4)),
                self.model_accuracy,
            ]
        )

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.model_name} "
            f"({self.model_params:.2f}M, {self.model_flops:.2f}G, "
            f"acc {self.model_accuracy:.4f}) on {self.num_classes} classes"
        )


# Paper experiment tasks — metadata mirrors Table 2's baseline rows.
EXP1 = CompressionTask(
    name="Exp1",
    num_classes=10,
    image_size=32,
    channels=3,
    data_amount=50_000,
    model_name="resnet56",
    model_params=0.90,
    model_flops=0.27,
    model_accuracy=0.9104,
)

EXP2 = CompressionTask(
    name="Exp2",
    num_classes=100,
    image_size=32,
    channels=3,
    data_amount=50_000,
    model_name="vgg16",
    model_params=14.77,
    model_flops=0.63,
    model_accuracy=0.7003,
)


def task_from_dataset(dataset, model, model_name: str, accuracy: float) -> CompressionTask:
    """Build a task descriptor by profiling a live model on a live dataset."""
    from ..analysis.costmodel import profile_model

    prof = profile_model(model, (dataset.channels, dataset.image_size, dataset.image_size))
    return CompressionTask(
        name=dataset.name,
        num_classes=dataset.num_classes,
        image_size=dataset.image_size,
        channels=dataset.channels,
        data_amount=len(dataset),
        model_name=model_name,
        model_params=prof.params_m,
        model_flops=prof.flops_g,
        model_accuracy=accuracy,
    )


def transfer_task(task: CompressionTask, model_name: str, model_params: float,
                  model_flops: float, model_accuracy: float) -> CompressionTask:
    """The same dataset/task with a different model (for the transfer study)."""
    return CompressionTask(
        name=f"{task.name}->{model_name}",
        num_classes=task.num_classes,
        image_size=task.image_size,
        channels=task.channels,
        data_amount=task.data_amount,
        model_name=model_name,
        model_params=model_params,
        model_flops=model_flops,
        model_accuracy=model_accuracy,
    )

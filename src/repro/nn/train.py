"""Training and evaluation loops for the numpy substrate.

:class:`Trainer` is the single place where gradient training happens; the
compression methods (fine-tuning, distillation, SFP's prune-while-training
loop) all drive it through small callbacks.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from ..obs import NULL_TRACER
from .layers import Module
from .losses import cross_entropy
from .optim import SGD, CosineSchedule, Optimizer
from .tensor import Tensor, detect_anomaly, no_grad


@dataclass
class TrainReport:
    """Summary of one training run."""

    epochs: int
    steps: int
    losses: List[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")


def evaluate_accuracy(model: Module, dataset, batch_size: int = 64) -> float:
    """Top-1 accuracy of ``model`` on ``dataset`` (fraction in [0, 1]).

    Runs under :func:`repro.nn.no_grad` — accuracy measurement never needs
    the tape, so inference skips all autodiff bookkeeping.
    """
    was_training = model.training
    model.eval()
    correct = 0
    total = 0
    with no_grad():
        for xb, yb in dataset.iter_batches(batch_size, shuffle=False):
            logits = model(Tensor(xb)).data
            correct += int((logits.argmax(axis=-1) == yb).sum())
            total += len(yb)
    model.train(was_training)
    return correct / max(total, 1)


class Trainer:
    """Mini-batch gradient trainer with pluggable loss and per-step hooks."""

    def __init__(
        self,
        lr: float = 0.05,
        momentum: float = 0.9,
        weight_decay: float = 5e-4,
        batch_size: int = 32,
        seed: int = 0,
        cosine: bool = True,
        detect_anomaly: bool = False,
    ):
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.batch_size = batch_size
        self.seed = seed
        self.cosine = cosine
        #: when True, every forward/backward runs under
        #: :func:`repro.nn.tensor.detect_anomaly` so the first NaN/Inf raises
        #: an AnomalyError naming the op that produced it.
        self.detect_anomaly = detect_anomaly
        #: observability hook (see repro.obs); the default NULL_TRACER is
        #: the shared no-op tracer
        self.tracer = NULL_TRACER

    def evaluate(self, model: Module, dataset, batch_size: Optional[int] = None) -> float:
        """Grad-free top-1 accuracy of ``model`` on ``dataset``."""
        return evaluate_accuracy(model, dataset, batch_size or self.batch_size)

    def fit(
        self,
        model: Module,
        dataset,
        epochs: float,
        loss_fn: Optional[Callable[[Tensor, np.ndarray, np.ndarray], Tensor]] = None,
        step_hook: Optional[Callable[[Module, int], None]] = None,
        optimizer: Optional[Optimizer] = None,
    ) -> TrainReport:
        """Train ``model`` on ``dataset`` for ``epochs`` (may be fractional).

        ``loss_fn(logits, targets, batch_indices)`` defaults to cross-entropy;
        ``step_hook(model, step)`` runs after every optimizer step (used by
        SFP to re-zero pruned filters).
        """
        if loss_fn is None:
            loss_fn = lambda logits, targets, idx: cross_entropy(logits, targets)
        model.train()
        opt = optimizer or SGD(
            model.parameters(),
            lr=self.lr,
            momentum=self.momentum,
            weight_decay=self.weight_decay,
        )
        steps_per_epoch = max(1, int(np.ceil(len(dataset) / self.batch_size)))
        total_steps = max(1, int(round(epochs * steps_per_epoch)))
        schedule = CosineSchedule(opt, total_steps) if self.cosine else None
        report = TrainReport(epochs=int(np.ceil(epochs)), steps=total_steps)
        rng = np.random.default_rng(self.seed)
        guard = detect_anomaly() if self.detect_anomaly else contextlib.nullcontext()
        step = 0
        tracer = self.tracer
        fit_span = tracer.start("train.fit", epochs=float(epochs), steps=total_steps)
        epoch_span = tracer.start("train.epoch", epoch=0)
        try:
            with guard:
                while step < total_steps:
                    for xb, yb, idx in dataset.iter_batches(
                        self.batch_size, shuffle=True, rng=rng, with_indices=True
                    ):
                        logits = model(Tensor(xb))
                        loss = loss_fn(logits, yb, idx)
                        opt.zero_grad()
                        loss.backward()
                        opt.step()
                        if schedule is not None:
                            schedule.step()
                        if step_hook is not None:
                            step_hook(model, step)
                        report.losses.append(loss.item())
                        step += 1
                        if step % steps_per_epoch == 0 or step >= total_steps:
                            epoch_index = (step - 1) // steps_per_epoch
                            epoch_losses = report.losses[epoch_index * steps_per_epoch:]
                            epoch_span.set(
                                epoch=epoch_index,
                                steps=len(epoch_losses),
                                mean_loss=float(np.mean(epoch_losses)),
                            )
                            tracer.finish(epoch_span)
                            epoch_span = None
                            if step < total_steps:
                                epoch_span = tracer.start("train.epoch", epoch=epoch_index + 1)
                        if step >= total_steps:
                            break
        finally:
            if epoch_span is not None:
                tracer.finish(epoch_span)
            fit_span.set(final_loss=report.final_loss)
            tracer.finish(fit_span)
        return report

"""Evaluator configuration — the picklable spec both backends rebuild from.

:class:`EvaluatorConfig` consolidates the constructor knobs that used to be
scattered across ``TrainingEvaluator``/``SurrogateEvaluator`` kwargs (epochs,
seed, cache sizes, lint flag, data fraction).  It is a *frozen*, picklable
value object, which makes it

* the single source of truth an :class:`~repro.core.engine.EvaluationEngine`
  ships to worker processes so they can rebuild an identical evaluator, and
* the canonical input to the evaluator fingerprint that keys the persistent
  result cache.

Models are referenced by registry name (``"resnet20"``) rather than factory
callables, and datasets are the plain-numpy :class:`SyntheticImageDataset`
objects — both pickle cleanly.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Dict, Optional

import numpy as np

from ..analysis.costmodel import Budget
from ..data.tasks import CompressionTask

#: per-backend defaults for fields left as ``None`` in a user-built config
_BACKEND_DEFAULTS: Dict[str, Dict[str, object]] = {
    "surrogate": {"pretrain_epochs": 100.0, "model_cache_size": 32},
    "training": {"pretrain_epochs": 2.0, "model_cache_size": 16},
}


@dataclass(frozen=True)
class EvaluatorConfig:
    """Frozen, picklable spec from which an evaluator can be (re)built.

    ``backend`` selects the evaluator class; ``None`` fields fall back to
    that backend's defaults when the config is resolved.  Only fields that
    change *measured values* enter the fingerprint — presentation knobs
    (cache size, linting) do not.
    """

    backend: str = "surrogate"               # "surrogate" | "training"
    model_name: Optional[str] = None         # repro.models registry name
    dataset_name: str = "cifar10"
    task: Optional[CompressionTask] = None
    num_classes: Optional[int] = None        # default: task/dataset classes
    pretrain_epochs: Optional[float] = None  # backend default when None
    data_fraction: float = 0.1               # surrogate cost model only
    seed: int = 0
    model_cache_size: Optional[int] = None   # backend default when None
    lint_schemes: bool = True
    # Static budget-feasibility ceilings (repro.analysis.costmodel).  A budget
    # only *filters* which schemes are evaluated — it never changes a measured
    # result — so, like linting, it stays out of the fingerprint.
    budget: Optional[Budget] = field(default=None, compare=False)
    # Measured latency: batch size for the median wall-clock inference timing
    # attached to each result (None disables it).  Wall-clock is machine- and
    # load-dependent, so it is an *extra measured column*, never an input to
    # the deterministic quantities — it stays out of the fingerprint.
    latency_batch: Optional[int] = field(default=None, compare=False)
    # Prefix-model snapshot store (repro.core.stores).  Presentation-layer
    # knobs: resuming a snapshot is bit-identical to replaying the prefix, so
    # neither field enters the fingerprint.  Carried in the config so engine
    # workers rebuild evaluators that share the same on-disk store.
    snapshot_dir: Optional[str] = field(default=None, compare=False)
    snapshot_budget_mb: Optional[float] = field(default=None, compare=False)
    # training backend: live (picklable) datasets and trainer knobs
    train_data: Optional[object] = field(default=None, compare=False)
    val_data: Optional[object] = field(default=None, compare=False)
    trainer_lr: float = 0.05
    trainer_batch_size: int = 32

    # ------------------------------------------------------------------ #
    def resolved(self, backend: Optional[str] = None) -> "EvaluatorConfig":
        """A copy with ``backend`` set and ``None`` fields filled from defaults."""
        backend = backend or self.backend
        if backend not in _BACKEND_DEFAULTS:
            raise ValueError(f"unknown evaluator backend {backend!r}")
        updates: Dict[str, object] = {"backend": backend}
        for name, default in _BACKEND_DEFAULTS[backend].items():
            if getattr(self, name) is None:
                updates[name] = default
        return replace(self, **updates)

    @property
    def is_buildable(self) -> bool:
        """True when :meth:`build` can rebuild this evaluator in a fresh process."""
        from ..models import available_models

        if self.model_name not in available_models():
            return False
        if self.backend == "surrogate":
            return self.task is not None
        return self.train_data is not None and self.val_data is not None

    def build(self):
        """Construct the evaluator this config describes (used by workers)."""
        from ..models import create_model
        from .evaluator import SurrogateEvaluator, TrainingEvaluator

        config = self.resolved()
        if config.model_name is None:
            raise ValueError("EvaluatorConfig.build() needs a registry model_name")
        if config.backend == "surrogate":
            if config.task is None:
                raise ValueError("surrogate EvaluatorConfig needs a task")
            num_classes = config.num_classes or config.task.num_classes
            return SurrogateEvaluator(
                lambda: create_model(config.model_name, num_classes=num_classes),
                config.model_name,
                config.dataset_name,
                config.task,
                config=config,
            )
        if config.train_data is None or config.val_data is None:
            raise ValueError("training EvaluatorConfig needs train_data and val_data")
        num_classes = config.num_classes or config.train_data.num_classes
        return TrainingEvaluator(
            lambda: create_model(config.model_name, num_classes=num_classes),
            config.train_data,
            config.val_data,
            config=config,
        )

    # ------------------------------------------------------------------ #
    def to_payload(self) -> Dict[str, object]:
        """JSON-safe wire form (the ``repro serve`` job protocol).

        Inverse of :meth:`from_payload`.  Live training datasets are
        process-local objects and cannot cross the wire — a training config
        submitted to a server must reference data the server can build
        itself, so configs carrying ``train_data``/``val_data`` are
        rejected here.
        """
        if self.train_data is not None or self.val_data is not None:
            raise ValueError(
                "EvaluatorConfig with live train_data/val_data cannot be "
                "serialised for the serve protocol"
            )
        payload = asdict(self)
        payload.pop("train_data")
        payload.pop("val_data")
        payload["task"] = None if self.task is None else asdict(self.task)
        payload["budget"] = None if self.budget is None else self.budget.to_payload()
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "EvaluatorConfig":
        """Rebuild a config from :meth:`to_payload` output.

        Unknown keys are rejected (typo'd wire payloads fail loudly instead
        of silently falling back to defaults).
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown EvaluatorConfig fields: {', '.join(unknown)}")
        data = dict(payload)
        task = data.get("task")
        if task is not None:
            data["task"] = CompressionTask(**task)
        data["budget"] = Budget.from_payload(data.get("budget"))
        return cls(**data)  # type: ignore[arg-type]

    # ------------------------------------------------------------------ #
    def fingerprint_payload(self) -> Dict[str, object]:
        """The config fields that determine measured results (for fingerprints)."""
        payload: Dict[str, object] = {
            "backend": self.backend,
            "model_name": self.model_name,
            "dataset_name": self.dataset_name,
            "seed": self.seed,
            "pretrain_epochs": self.pretrain_epochs,
        }
        if self.task is not None:
            payload["task"] = str(self.task)
        if self.backend == "surrogate":
            payload["data_fraction"] = self.data_fraction
        else:
            payload["trainer"] = (self.trainer_lr, self.trainer_batch_size)
            for name, data in (("train", self.train_data), ("val", self.val_data)):
                if data is not None:
                    payload[f"{name}_data"] = dataset_digest(data)
        return payload


def dataset_digest(dataset) -> str:
    """Content digest of an in-memory dataset (images + labels)."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(dataset.images).tobytes())
    digest.update(np.ascontiguousarray(dataset.labels).tobytes())
    return digest.hexdigest()

"""Loading and saving experience records as JSON.

Users extending AutoMC with their own measurements drop a JSON file of
records and pass them to :func:`~repro.knowledge.embedding.learn_embeddings`
or the AutoMC facade.  Schema (one object per record):

.. code-block:: json

    {
      "method": "C2",
      "hp": {"HP2": 0.36, "HP8": "l2_weight"},
      "task": {
        "name": "cifar10-resnet56", "num_classes": 10, "image_size": 32,
        "channels": 3, "data_amount": 50000, "model_name": "resnet56",
        "model_params": 0.85, "model_flops": 0.25, "model_accuracy": 0.9303
      },
      "pr": 0.40,
      "ar": -0.005
    }
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from ..data.tasks import CompressionTask
from .experience import ExperienceRecord

_REQUIRED_TASK_KEYS = (
    "name", "num_classes", "image_size", "channels", "data_amount",
    "model_name", "model_params", "model_flops", "model_accuracy",
)


def record_to_dict(record: ExperienceRecord) -> Dict:
    """JSON-serialisable representation of one record."""
    task = record.task
    return {
        "method": record.method_label,
        "hp": dict(record.hp),
        "task": {key: getattr(task, key) for key in _REQUIRED_TASK_KEYS},
        "pr": record.pr,
        "ar": record.ar,
    }


def record_from_dict(payload: Dict) -> ExperienceRecord:
    """Parse and validate one record object."""
    for key in ("method", "task", "pr", "ar"):
        if key not in payload:
            raise ValueError(f"experience record missing {key!r}: {payload}")
    task_payload = payload["task"]
    missing = [k for k in _REQUIRED_TASK_KEYS if k not in task_payload]
    if missing:
        raise ValueError(f"experience task missing {missing}")
    pr = float(payload["pr"])
    ar = float(payload["ar"])
    # pr = 0 is a real result: post-training quantization removes no
    # parameters (the shipped C8 records)
    if not 0.0 <= pr < 1.0:
        raise ValueError(f"pr must be in [0, 1), got {pr}")
    if ar <= -1.0:
        raise ValueError(f"ar must be > -1, got {ar}")
    task = CompressionTask(**{k: task_payload[k] for k in _REQUIRED_TASK_KEYS})
    return ExperienceRecord(
        method_label=str(payload["method"]),
        hp=tuple(sorted(dict(payload.get("hp", {})).items())),
        task=task,
        pr=pr,
        ar=ar,
    )


def save_experience(records: Sequence[ExperienceRecord], path: str) -> None:
    """Write records to a JSON file."""
    with open(path, "w") as handle:
        json.dump([record_to_dict(r) for r in records], handle, indent=2)


def load_experience(path: str) -> List[ExperienceRecord]:
    """Read records from a JSON file (validating every entry)."""
    with open(path) as handle:
        payload = json.load(handle)
    if not isinstance(payload, list):
        raise ValueError("experience file must contain a JSON list")
    return [record_from_dict(item) for item in payload]

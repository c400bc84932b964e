"""Model checkpointing: save/load state dicts as ``.npz`` archives.

Structural surgery changes array shapes, so a checkpoint also records each
parameter's shape implicitly; :func:`load_model` therefore only works on a
model with the *same structure* (use :func:`save_model` / :func:`load_model`
around a compression run, or re-apply the scheme to rebuild the structure).

:func:`save_module` / :func:`load_module` serialize the *full* module —
structure and state together — and are the codec of the
:class:`~repro.core.stores.ModelSnapshotStore`, which needs them: a compressed
prefix model cannot be rebuilt from a state dict alone because the surgery
that produced its structure is exactly the work the snapshot exists to skip.
"""

from __future__ import annotations

import os
import pickle
from typing import Dict, Optional, Tuple

import numpy as np

from .layers import Module

#: format tag for save_module payloads; bump on incompatible layout changes
_MODULE_FORMAT = 1

#: npz keys cannot contain "/" cleanly across platforms; dots are fine.
_PREFIX = "state."


def save_model(model: Module, path: str) -> None:
    """Serialize a model's parameters and buffers to ``path`` (.npz)."""
    state = model.state_dict()
    arrays = {_PREFIX + name: value for name, value in state.items()}
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    np.savez_compressed(path, **arrays)


def load_state(path: str) -> Dict[str, np.ndarray]:
    """Read a checkpoint back into a plain state dict."""
    with np.load(path) as archive:
        return {
            key[len(_PREFIX):]: archive[key]
            for key in archive.files
            if key.startswith(_PREFIX)
        }


def load_model(model: Module, path: str) -> Module:
    """Load a checkpoint into ``model`` (shapes must match) and return it."""
    model.load_state_dict(load_state(path))
    return model


def save_module(model: Module, path: str, extra: Optional[dict] = None) -> None:
    """Serialize a full module (structure + parameters + buffers) to ``path``.

    ``extra`` rides along in the same payload (the snapshot store uses it for
    accuracy / per-step cost metadata).  The write is a plain single-file
    write; callers that need atomicity write to a temp path and rename.
    """
    payload = {"format": _MODULE_FORMAT, "module": model, "extra": extra or {}}
    with open(path, "wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)


def load_module(path: str) -> Tuple[Module, dict]:
    """Read a :func:`save_module` payload back as ``(module, extra)``.

    Raises ``ValueError`` on payloads that are not save_module output (wrong
    pickle shape or format tag) so callers can treat corruption as a miss.
    """
    with open(path, "rb") as handle:
        payload = pickle.load(handle)
    if (
        not isinstance(payload, dict)
        or payload.get("format") != _MODULE_FORMAT
        or not isinstance(payload.get("module"), Module)
    ):
        raise ValueError(f"{path!r} is not a save_module payload")
    return payload["module"], payload.get("extra", {})

"""Temporary (soft) channel masking.

LeGR's evolutionary fitness evaluation and SFP's soft pruning both need to
zero channels *without* structural removal — either to probe a candidate
pruning plan cheaply or to let zeroed filters recover during training.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

import numpy as np

from ..models.pruning import PrunableUnit


def zero_unit_channels(unit: PrunableUnit, drop: np.ndarray) -> None:
    """Zero the producer filters (and BN affine) for channels in ``drop``."""
    drop = np.asarray(drop, dtype=np.int64)
    if drop.size == 0:
        return
    unit.producer.weight.data[drop] = 0.0
    if getattr(unit.producer, "bias", None) is not None:
        unit.producer.bias.data[drop] = 0.0
    if unit.bn is not None:
        unit.bn.gamma.data[drop] = 0.0
        unit.bn.beta.data[drop] = 0.0


def masked_evaluation(
    units: Sequence[PrunableUnit],
    keep: Dict[str, np.ndarray],
    evaluate: Callable[[], float],
) -> float:
    """Evaluate with channels soft-masked, then restore the weights.

    ``keep`` maps unit name -> kept channel indices (as in a PruningPlan);
    everything else is zeroed for the duration of ``evaluate``.
    """
    saved: List[tuple] = []
    for unit in units:
        kept = keep[unit.name]
        mask = np.ones(unit.out_channels, dtype=bool)
        mask[kept] = False
        drop = np.flatnonzero(mask)
        if drop.size == 0:
            continue
        entry = [unit, drop, unit.producer.weight.data[drop].copy(), None, None, None]
        if getattr(unit.producer, "bias", None) is not None:
            entry[3] = unit.producer.bias.data[drop].copy()
        if unit.bn is not None:
            entry[4] = unit.bn.gamma.data[drop].copy()
            entry[5] = unit.bn.beta.data[drop].copy()
        saved.append(tuple(entry))
        zero_unit_channels(unit, drop)
    try:
        return evaluate()
    finally:
        for unit, drop, w, b, g, beta in saved:
            unit.producer.weight.data[drop] = w
            if b is not None:
                unit.producer.bias.data[drop] = b
            if g is not None:
                unit.bn.gamma.data[drop] = g
                unit.bn.beta.data[drop] = beta

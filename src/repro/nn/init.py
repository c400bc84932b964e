"""Weight initialisation schemes for :mod:`repro.nn` layers."""

from __future__ import annotations

import numpy as np


def kaiming_normal(shape, fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """He-normal initialisation, appropriate for ReLU networks."""
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape)


def kaiming_uniform(shape, fan_in: int, rng: np.random.Generator) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)

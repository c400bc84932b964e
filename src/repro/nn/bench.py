"""The latency probe: wall-clock time of one grad-free inference batch.

``SchemeEvaluator`` calls :func:`measure_latency` to fill the
measured-latency column of an evaluation.  Speed claims about the program
itself are made with the repository benchmark (``perfbench/``), not here.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np


def _median_time(fn: Callable[[], None], repeats: int) -> float:
    """Median wall-clock seconds of ``repeats`` calls of ``fn``."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    samples.sort()
    return samples[len(samples) // 2]


def measure_latency(
    model,
    input_shape,
    batch: int = 32,
    repeats: int = 5,
    seed: int = 0,
) -> float:
    """Median wall-clock milliseconds per grad-free inference batch.

    The measured-latency column evaluators attach to results: one warm-up
    forward (so lazily-built state — quantized weight layouts — is paid
    once), then the median of ``repeats`` timed batches.  Restores
    the model's train/eval mode on exit.
    """
    from .tensor import Tensor, no_grad

    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(batch, *input_shape)).astype(np.float32))
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            model(x)
            seconds = _median_time(lambda: model(x), repeats)
    finally:
        model.train(was_training)
    return seconds * 1000.0

"""Timings of float32, fp16 and int8 inference on one ResNet.

fp16 must not materially slow inference down.  int8 carries no speed
claim: its conv runs the same float32 GEMM as the float path, over exact
integer values, so it times about 1.0x float32.  The float32 baseline is
timed in the same run, interleaved with the quantized modes, on the same
model, batch and data, so the gate does not depend on the machine class.
Kernel exactness and whole-model int8/fp16 accuracy are tier-1 tests
(``tests/test_quant_properties.py``).
"""

from __future__ import annotations

import time
from typing import Dict

import numpy as np
import pytest

from repro.models import ResNet
from repro.nn import Tensor, no_grad
from repro.nn.quant import quantize_module

#: float32 vs fp16 vs int8 on the same model and batch.
QUANT_WORKLOAD = {"batch": 32, "depth": 56, "calibration_batches": 2}


def run_quant_benchmarks(repeats: int = 5, seed: int = 0) -> Dict[str, float]:
    """Time grad-free inference in float32 vs fp16 vs int8 on one ResNet.

    All three runs share the model architecture, batch and input data; only
    the execution precision differs (``repro.nn.quant.quantize_module``).
    The int8 run is calibrated on random batches — calibration quality only
    affects accuracy, never speed, so random data is fine for timing.
    """
    sizes = QUANT_WORKLOAD
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(sizes["batch"], 3, 32, 32)).astype(np.float32)
    calibration = [
        rng.normal(size=(sizes["batch"], 3, 32, 32)).astype(np.float32)
        for _ in range(sizes["calibration_batches"])
    ]
    models = {}
    for mode in ("float32", "fp16", "int8"):
        model = ResNet(sizes["depth"], num_classes=10)
        if mode != "float32":
            model = quantize_module(
                model, mode=mode,
                calibration=calibration if mode == "int8" else None,
            )
        model.eval()
        with no_grad():
            model(Tensor(x))  # warm-up: quantized layouts built lazily
        models[mode] = model
    # Interleaved sampling: each repeat times every mode back to back, so
    # machine-wide drift (CPU frequency, background load) moves all modes
    # together and cancels out of the speedup ratios.
    samples: Dict[str, list] = {mode: [] for mode in models}
    with no_grad():
        for _ in range(repeats):
            for mode, model in models.items():
                t0 = time.perf_counter()
                model(Tensor(x))
                samples[mode].append(time.perf_counter() - t0)
    results: Dict[str, float] = {}
    for mode, times in samples.items():
        times.sort()
        results[f"inference_{mode}"] = times[len(times) // 2]
    return results


@pytest.fixture(scope="module")
def quant_results():
    return run_quant_benchmarks()


def test_quant_benchmarks_time_every_mode(quant_results):
    print()
    for name, seconds in quant_results.items():
        print(f"  {name:<20} {seconds:.6f}s")
    assert set(quant_results) == {
        "inference_float32", "inference_fp16", "inference_int8"
    }
    assert all(seconds > 0 for seconds in quant_results.values())


def test_fp16_not_slower_than_float32(quant_results):
    """fp16 is storage-only; it must not materially slow inference down."""
    ratio = quant_results["inference_float32"] / quant_results["inference_fp16"]
    assert ratio >= 0.8, f"fp16 path slowed inference to {ratio:.2f}x of float32"

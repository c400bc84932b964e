"""Microbenchmarks for the repro.nn hot-path kernels.

The workloads mirror how the search actually exercises the substrate: conv2d
forward (surrogate inference), conv2d forward+backward (fine-tuning), fused
batch-norm in both modes, one full ResNet-56 SGD step, and a grad-free
inference batch.  ``repro bench`` and ``benchmarks/test_nn_kernels.py`` both
drive :func:`run_kernel_benchmarks`; results are written to ``BENCH_nn.json``
alongside the committed pre-fast-path baseline so speedups are always
computed against the same reference.

Timings are wall-clock medians — robust against one-off scheduler noise but
still sensitive to machine load, which is why the perf assertions in the
benchmark suite leave generous headroom below the measured speedups.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

import numpy as np

#: Median kernel timings (seconds) measured on the commit before the
#: fast-path kernels landed (fused batch_norm / conv+relu / add_relu,
#: grad-free inference, float32 default).  Same workloads, same machine
#: class as CI; used to report speedup factors in BENCH_nn.json.
PRE_FASTPATH_BASELINE: Dict[str, float] = {
    "conv2d_fwd": 0.005847,
    "conv2d_fwd_bwd": 0.033697,
    "batchnorm_fwd_bwd": 0.004500,
    "batchnorm_eval": 0.001539,
    "resnet56_step": 1.318985,
    "inference_batch": 2.433395,
}

#: Timings (seconds) of the ResNet workloads measured on the commit before
#: the kernel-plan/workspace layer landed: allocation-per-call
#: im2col/col2im, an unconditional ``np.pad`` every forward, and the
#: row-major (N, Ho*Wo, C*kh*kw) patch GEMM orientation.  Recorded as the
#: *fastest* observation over repeated windows — the statistic the
#: workspace suite itself reports — which is the conservative choice: a
#: fast baseline understates the speedup.  Same workloads, same machine
#: class as CI; the suite's gates (>=1.3x train step, >=1.5x inference
#: batch) are asserted against these.
PRE_PLANS_BASELINE: Dict[str, float] = {
    "resnet56_step": 0.406912,
    "inference_batch": 0.490978,
}

#: Quantized-inference workloads: float32 vs fp16 vs int8 on the same model
#: and batch.  The baseline is the *same-run* float32 timing, so the speedup
#: column is a self-contained A/B, robust to machine class.
QUANT_WORKLOADS = {
    "full": {"batch": 32, "depth": 56, "calibration_batches": 2},
    "smoke": {"batch": 4, "depth": 8, "calibration_batches": 1},
}

#: Workload shapes. ``full`` matches the baseline measurement; ``smoke`` is
#: a seconds-long variant for CI.
WORKLOADS = {
    "full": {
        "conv_x": (8, 16, 32, 32),
        "conv_w": (16, 16, 3, 3),
        "bn_x": (32, 32, 16, 16),
        "step_batch": 8,
        "inference_batch": 32,
        "resnet_depth": 56,
    },
    "smoke": {
        "conv_x": (2, 8, 16, 16),
        "conv_w": (8, 8, 3, 3),
        "bn_x": (4, 8, 8, 8),
        "step_batch": 2,
        "inference_batch": 4,
        "resnet_depth": 8,
    },
}


def _median_time(fn: Callable[[], None], repeats: int, number: int) -> float:
    """Median over ``repeats`` of the mean time of ``number`` calls."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - t0) / number)
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
            seconds = _median_time(lambda: model(x), repeats, 1)
    finally:
        model.train(was_training)
    return seconds * 1000.0


def run_kernel_benchmarks(
    smoke: bool = False,
    repeats: int = 5,
    seed: int = 0,
    only: Optional[str] = None,
) -> Dict[str, float]:
    """Time the repro.nn hot-path kernels; returns {workload: seconds}.

    ``smoke=True`` shrinks every shape so the whole suite runs in a couple
    of seconds (used by the CI job; the numbers are not comparable to the
    committed baseline, which uses the ``full`` sizes).
    """
    from ..models import ResNet
    from .losses import cross_entropy
    from .optim import SGD
    from .tensor import Tensor, no_grad
    from . import functional as F

    sizes = WORKLOADS["smoke" if smoke else "full"]
    rng = np.random.default_rng(seed)
    results: Dict[str, float] = {}

    def wanted(name: str) -> bool:
        return only is None or name == only

    if wanted("conv2d_fwd"):
        x = Tensor(rng.normal(size=sizes["conv_x"]))
        w = Tensor(rng.normal(size=sizes["conv_w"]))
        with no_grad():
            results["conv2d_fwd"] = _median_time(
                lambda: F.conv2d(x, w, stride=1, padding=1), repeats, 3
            )

    if wanted("conv2d_fwd_bwd"):
        xg = Tensor(rng.normal(size=sizes["conv_x"]), requires_grad=True)
        wg = Tensor(rng.normal(size=sizes["conv_w"]), requires_grad=True)

        def conv_step() -> None:
            xg.zero_grad()
            wg.zero_grad()
            F.conv2d(xg, wg, stride=1, padding=1).sum().backward()

        results["conv2d_fwd_bwd"] = _median_time(conv_step, repeats, 3)

    if wanted("batchnorm_fwd_bwd") or wanted("batchnorm_eval"):
        channels = sizes["bn_x"][1]
        bx = Tensor(rng.normal(size=sizes["bn_x"]))
        gamma = Tensor(np.ones(channels), requires_grad=True)
        beta = Tensor(np.zeros(channels), requires_grad=True)
        rmean = np.zeros(channels, dtype=bx.dtype)
        rvar = np.ones(channels, dtype=bx.dtype)

        if wanted("batchnorm_fwd_bwd"):

            def bn_step() -> None:
                gamma.zero_grad()
                beta.zero_grad()
                F.batch_norm(bx, gamma, beta, rmean, rvar, training=True).sum().backward()

            results["batchnorm_fwd_bwd"] = _median_time(bn_step, repeats, 3)

        if wanted("batchnorm_eval"):
            with no_grad():
                results["batchnorm_eval"] = _median_time(
                    lambda: F.batch_norm(bx, gamma, beta, rmean, rvar, training=False),
                    repeats,
                    3,
                )

    if wanted("resnet56_step") or wanted("inference_batch"):
        model = ResNet(sizes["resnet_depth"], num_classes=10)

        if wanted("resnet56_step"):
            opt = SGD(model.parameters(), lr=0.05, momentum=0.9)
            step_x = rng.normal(size=(sizes["step_batch"], 3, 32, 32))
            step_y = rng.integers(0, 10, size=sizes["step_batch"])

            def train_step() -> None:
                logits = model(Tensor(step_x))
                loss = cross_entropy(logits, step_y)
                opt.zero_grad()
                loss.backward()
                opt.step()

            model.train()
            results["resnet56_step"] = _median_time(train_step, repeats, 1)

        if wanted("inference_batch"):
            model.eval()
            inf_x = rng.normal(size=(sizes["inference_batch"], 3, 32, 32))
            with no_grad():
                results["inference_batch"] = _median_time(
                    lambda: model(Tensor(inf_x)), repeats, 1
                )

    return results


def run_quant_benchmarks(
    smoke: bool = False, repeats: int = 5, seed: int = 0
) -> Dict[str, float]:
    """Time grad-free inference in float32 vs fp16 vs int8 on one ResNet.

    All three runs share the model architecture, batch and input data; only
    the execution precision differs (``repro.nn.quant.quantize_module``).
    The int8 run is calibrated on random batches — calibration quality only
    affects accuracy, never speed, so random data is fine for timing.
    """
    from ..models import ResNet
    from .quant import quantize_module
    from .tensor import Tensor, no_grad

    sizes = QUANT_WORKLOADS["smoke" if smoke else "full"]
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


def run_workspace_benchmarks(
    smoke: bool = False, repeats: int = 5, seed: int = 0
) -> Dict[str, float]:
    """Time a ResNet train step and inference batch, gated by the suite
    against :data:`PRE_PLANS_BASELINE`.

    One warm-up of each workload, then ``repeats`` interleaved samples;
    returns the fastest of each.
    """
    from ..models import ResNet
    from .losses import cross_entropy
    from .optim import SGD
    from .tensor import Tensor, no_grad

    sizes = WORKLOADS["smoke" if smoke else "full"]
    rng = np.random.default_rng(seed)
    model = ResNet(sizes["resnet_depth"], num_classes=10)
    opt = SGD(model.parameters(), lr=0.05, momentum=0.9)
    step_x = rng.normal(size=(sizes["step_batch"], 3, 32, 32))
    step_y = rng.integers(0, 10, size=sizes["step_batch"])
    inf_x = rng.normal(size=(sizes["inference_batch"], 3, 32, 32))

    def train_step() -> None:
        logits = model(Tensor(step_x))
        loss = cross_entropy(logits, step_y)
        opt.zero_grad()
        loss.backward()
        opt.step()

    def inference() -> None:
        with no_grad():
            model(Tensor(inf_x))

    model.train()
    train_step()  # warm-up
    model.eval()
    inference()
    samples: Dict[str, list] = {"resnet56_step": [], "inference_batch": []}
    for _ in range(repeats):
        model.train()
        t0 = time.perf_counter()
        train_step()
        samples["resnet56_step"].append(time.perf_counter() - t0)
        model.eval()
        t0 = time.perf_counter()
        inference()
        samples["inference_batch"].append(time.perf_counter() - t0)
    # Minimum, not median: the committed baseline was recorded with the
    # same statistic, and the fastest observation is the one least
    # polluted by scheduler noise.
    return {name: min(times) for name, times in samples.items()}


def build_workspace_report(
    results: Dict[str, float], smoke: bool = False
) -> Dict[str, object]:
    """BENCH_workspace.json payload: the ResNet workloads vs
    :data:`PRE_PLANS_BASELINE`, the committed timings of the
    allocation-per-call, row-major-GEMM kernels."""
    return build_report(
        results,
        smoke=smoke,
        baseline=dict(PRE_PLANS_BASELINE),
        description=(
            "pre-plan kernels (allocation-per-call im2col/col2im, np.pad "
            "every forward, row-major patch GEMM)"
        ),
        suite="repro.nn transposed-GEMM conv kernels",
    )


def load_baseline(path) -> Dict[str, float]:
    """The ``current.results_s`` timings of a report written with --output.

    Raises :class:`ValueError` with a readable reason when the file is
    missing, not JSON, or does not carry that section (schema drift between
    the committed report and the running code) — callers degrade to "no
    baseline, recording fresh" instead of crashing after the timed run.
    """
    import json

    try:
        with open(path) as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        raise ValueError("file does not exist")
    except OSError as exc:
        raise ValueError(f"cannot read file: {exc}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}")
    block = payload.get("current") if isinstance(payload, dict) else None
    results = block.get("results_s") if isinstance(block, dict) else None
    if not isinstance(results, dict):
        raise ValueError("no current.results_s section (schema mismatch)")
    timings = {
        str(name): float(seconds)
        for name, seconds in results.items()
        if isinstance(seconds, (int, float)) and seconds > 0
    }
    if not timings:
        raise ValueError("current.results_s holds no positive timings")
    return timings


def build_report(
    results: Dict[str, float],
    smoke: bool = False,
    baseline: Optional[Dict[str, float]] = None,
    description: Optional[str] = None,
    suite: str = "repro.nn kernel microbenchmarks",
) -> Dict[str, object]:
    """Assemble a BENCH_*.json payload: baseline, current, speedups.

    ``baseline=None`` keeps the committed pre-fast-path numbers (the kernel
    suite's reference); pass a ``{workload: seconds}`` mapping (e.g. from
    :func:`load_baseline`) to A/B against an earlier run, or ``{}`` for no
    baseline at all — the speedup section is then empty.
    """
    if baseline is None:
        baseline = PRE_FASTPATH_BASELINE
        description = description or (
            "pre fast-path kernels (fused BN/conv+relu, "
            "grad-free inference, float32 default)"
        )
    speedup = {
        name: baseline[name] / seconds
        for name, seconds in results.items()
        if name in baseline and seconds > 0 and not smoke
    }
    return {
        "suite": suite,
        "sizes": "smoke" if smoke else "full",
        "baseline": {
            "description": description or "",
            "results_s": baseline,
        },
        "current": {"results_s": results},
        "speedup_vs_baseline": speedup,
    }


def build_quant_report(
    results: Dict[str, float], smoke: bool = False
) -> Dict[str, object]:
    """BENCH_quant.json payload: fp16/int8 inference vs same-run float32."""
    base = results.get("inference_float32", 0.0)
    baseline = {name: base for name in results} if base > 0 else {}
    return build_report(
        results,
        smoke=smoke,
        baseline=baseline,
        description="float32 fused inference path (same model/batch, this run)",
        suite="repro.nn quantized inference",
    )


def format_report(report: Dict[str, object]) -> str:
    """Human-readable table of a BENCH_*.json payload.

    Tolerant of missing/mismatched baseline sections: an old or hand-edited
    report renders with an empty baseline column and a "no baseline" note
    rather than raising.
    """
    baseline_block = report.get("baseline")
    baseline = (
        baseline_block.get("results_s") if isinstance(baseline_block, dict) else None
    )
    if not isinstance(baseline, dict):
        baseline = {}
    current_block = report.get("current")
    current = (
        current_block.get("results_s") if isinstance(current_block, dict) else None
    )
    if not isinstance(current, dict):
        current = {}
    speedup = report.get("speedup_vs_baseline")
    if not isinstance(speedup, dict):
        speedup = {}
    suite = report.get("suite", "repro.nn benchmarks")
    sizes = report.get("sizes", "?")
    lines = [
        f"{suite} ({sizes} sizes)",
        f"{'workload':<20} {'baseline (s)':>14} {'current (s)':>14} {'speedup':>9}",
    ]
    if not baseline:
        lines.insert(1, "no baseline available — recording fresh numbers")
    for name, seconds in current.items():
        base = baseline.get(name)
        base_s = f"{base:.6f}" if isinstance(base, (int, float)) else "-"
        ratio = f"{speedup[name]:.2f}x" if name in speedup else "-"
        lines.append(f"{name:<20} {base_s:>14} {seconds:>14.6f} {ratio:>9}")
    if not current:
        lines.append("(report carries no current timings)")
    if sizes == "smoke":
        lines.append("(smoke sizes are CI-scaled; not comparable to the baseline column)")
    return "\n".join(lines)

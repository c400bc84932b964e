"""Perf-regression gates for the conv kernels' ResNet workloads.

The end-to-end workloads (one ResNet-56 SGD step, one grad-free inference
batch) re-run against the committed pre-plan baseline
(``PRE_PLANS_BASELINE``: allocation-per-call im2col/col2im, ``np.pad``
every forward, row-major patch GEMM) and must hold >= 1.3x train-step /
>= 1.5x inference-batch speedups.  Kernel values and gradients are pinned
separately in ``tests/goldens/kernels.json``.

``REPRO_BENCH_SMOKE=1`` (the CI setting) shrinks the benchmark shapes and
skips the perf gates — smoke-sized timings are dominated by Python
dispatch, not kernels.  ``benchmarks/out/BENCH_workspace.json`` is written
either way so CI can upload it.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.nn.bench import (
    PRE_PLANS_BASELINE,
    build_workspace_report,
    run_workspace_benchmarks,
)

from .conftest import OUT_DIR

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"


# --------------------------------------------------------------------------- #
# Benchmarks -> BENCH_workspace.json (+ regression gates at full sizes)
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def bench_results():
    return run_workspace_benchmarks(smoke=SMOKE, repeats=3 if SMOKE else 5)


def test_workspace_benchmarks_emit_report(bench_results):
    report = build_workspace_report(bench_results, smoke=SMOKE)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "BENCH_workspace.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {path}")
    for name, seconds in bench_results.items():
        print(f"  {name:<26} {seconds:.6f}s")
    assert set(bench_results) >= set(PRE_PLANS_BASELINE)
    assert all(seconds > 0 for seconds in bench_results.values())


@pytest.mark.skipif(SMOKE, reason="smoke sizes are not comparable to the baseline")
@pytest.mark.parametrize(
    "workload,required",
    [("resnet56_step", 1.3), ("inference_batch", 1.5)],
)
def test_speedup_vs_pre_plan_baseline(bench_results, workload, required):
    """The PR's headline: >= 1.3x train step, >= 1.5x inference batch."""
    speedup = PRE_PLANS_BASELINE[workload] / bench_results[workload]
    assert speedup >= required, (
        f"{workload} regressed: {speedup:.2f}x vs the committed pre-plan "
        f"baseline ({PRE_PLANS_BASELINE[workload]:.4f}s -> "
        f"{bench_results[workload]:.4f}s, need >= {required}x)"
    )

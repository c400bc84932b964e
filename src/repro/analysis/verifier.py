"""The static model verifier: trace + rule checks over a whole model.

:func:`verify_model` is the main entry point for programmatic use, the
``repro analyze`` CLI, and the surgery self-verification hooks.  It combines

* a parameter/buffer sweep (``V009`` nonfinite values), and
* the structural graph trace of :mod:`repro.analysis.graph`
  (channel/shape consistency, residual alignment, factorised-rank sanity),

into one :class:`~repro.analysis.diagnostics.Report`.  Checkpoint archives
get the same treatment via :func:`verify_checkpoint` (``C###`` rules) without
needing the original model structure.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..nn.layers import Module
from .diagnostics import Report
from .graph import ModelGraph, trace_model

#: CIFAR-style default resolution used when no input shape is given
DEFAULT_INPUT_SHAPE: Tuple[int, int, int] = (3, 32, 32)


def check_finite_parameters(model: Module, report: Report) -> None:
    """Flag NaN/Inf entries in any parameter or buffer (rule ``V009``)."""
    for name, param in model.named_parameters():
        bad = int(np.size(param.data) - np.isfinite(param.data).sum())
        if bad:
            report.error(
                "V009",
                name,
                f"parameter contains {bad} non-finite entries",
                expected="finite values",
                actual=f"{bad} NaN/Inf",
            )
    for name, buf in model.named_buffers():
        bad = int(np.size(buf) - np.isfinite(buf).sum())
        if bad:
            report.error(
                "V009",
                name,
                f"buffer contains {bad} non-finite entries",
                expected="finite values",
                actual=f"{bad} NaN/Inf",
            )


def verify_model(
    model: Module,
    input_shape: Tuple[int, int, int] = DEFAULT_INPUT_SHAPE,
    name: str = "",
) -> Report:
    """Statically verify ``model`` without running a forward pass.

    Returns a report whose ``graph`` attribute holds the traced
    :class:`~repro.analysis.graph.ModelGraph`; ``report.has_errors`` means
    the model is guaranteed to fail (or silently misbehave) at forward time.
    """
    report = Report(subject=name or type(model).__name__)
    check_finite_parameters(model, report)
    graph: ModelGraph = trace_model(model, input_shape=input_shape, report=report)
    report.graph = graph
    if graph.output is not None and not report.has_errors:
        report.note(
            "V000",
            "",
            f"traced {len(graph)} layers; output spec {graph.output}",
        )
    return report


def verify_checkpoint(
    state: Dict[str, np.ndarray],
    model: Optional[Module] = None,
    input_shape: Tuple[int, int, int] = DEFAULT_INPUT_SHAPE,
    name: str = "checkpoint",
) -> Report:
    """Verify a saved state dict, optionally against a target model.

    Rules: ``C001`` — the checkpoint does not load into ``model`` (missing
    keys or shape mismatches); ``C002`` — a stored array contains non-finite
    values.  When loading succeeds the loaded model is verified structurally
    too, and those diagnostics are appended.
    """
    report = Report(subject=name)
    if not state:
        report.error("C001", "", "checkpoint holds no arrays")
        return report
    for key, value in state.items():
        bad = int(np.size(value) - np.isfinite(value).sum())
        if bad:
            report.error(
                "C002",
                key,
                f"stored array contains {bad} non-finite entries",
                expected="finite values",
                actual=f"{bad} NaN/Inf",
            )
    if model is not None:
        try:
            model.load_state_dict(state)
        except (KeyError, ValueError) as exc:
            report.error(
                "C001",
                "",
                f"checkpoint does not load into {type(model).__name__}: {exc}",
            )
            return report
        report.extend(verify_model(model, input_shape=input_shape, name=name))
    return report


def assert_valid(model: Module, input_shape: Tuple[int, int, int] = DEFAULT_INPUT_SHAPE) -> None:
    """Raise :class:`~repro.analysis.diagnostics.VerificationError` on errors."""
    verify_model(model, input_shape=input_shape).raise_on_error()

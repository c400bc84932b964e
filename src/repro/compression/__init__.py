"""The six compression methods of Table 1 (plus the C7/C8 quantization extensions).

``METHODS`` maps the paper's labels (C1..C6) to singleton method objects;
:func:`get_method` resolves a label or name case-insensitively.
"""

from typing import Dict

from .base import CompressionMethod, ExecutionContext, StepReport, fine_tune
from .factorized import BasisConv2d, TuckerConv2d, replace_module
from .hooi import choose_tucker_ranks, tucker2, tucker2_params, tucker2_reconstruct
from .hos import HOSCompression
from .legr import LeGR
from .lfb import LearningFilterBasis
from .lma import LMADistillation
from .masks import masked_evaluation, zero_unit_channels
from .ns import NetworkSlimming
from .quant import PostTrainingQuantization
from .quantization import IncrementalQuantization, quantize_to_power_of_two
from .sfp import SoftFilterPruning
from .surgery import (
    PruningPlan,
    SurgeryError,
    bn_scale_magnitudes,
    execute_plan,
    filter_l1_norms,
    filter_l2_norms,
    params_per_channel,
    plan_global_pruning,
    prune_by_scores,
    prune_unit,
    uniform_width_scale,
)

METHODS: Dict[str, CompressionMethod] = {
    m.label: m
    for m in (
        LMADistillation(),
        LeGR(),
        NetworkSlimming(),
        SoftFilterPruning(),
        HOSCompression(),
        LearningFilterBasis(),
    )
}

EXTENSION_METHODS: Dict[str, CompressionMethod] = {
    "C7": IncrementalQuantization(),
    "C8": PostTrainingQuantization(),
}


def get_method(key: str) -> CompressionMethod:
    """Resolve a method by label ("C2") or name ("LeGR"), case-insensitive."""
    for method in list(METHODS.values()) + list(EXTENSION_METHODS.values()):
        if key.lower() in (method.label.lower(), method.name.lower()):
            return method
    raise KeyError(f"unknown compression method {key!r}")


__all__ = [
    "BasisConv2d",
    "CompressionMethod",
    "EXTENSION_METHODS",
    "ExecutionContext",
    "HOSCompression",
    "IncrementalQuantization",
    "LMADistillation",
    "LeGR",
    "LearningFilterBasis",
    "METHODS",
    "NetworkSlimming",
    "PostTrainingQuantization",
    "PruningPlan",
    "SoftFilterPruning",
    "StepReport",
    "SurgeryError",
    "TuckerConv2d",
    "bn_scale_magnitudes",
    "choose_tucker_ranks",
    "execute_plan",
    "filter_l1_norms",
    "filter_l2_norms",
    "fine_tune",
    "get_method",
    "masked_evaluation",
    "params_per_channel",
    "plan_global_pruning",
    "prune_by_scores",
    "prune_unit",
    "quantize_to_power_of_two",
    "replace_module",
    "tucker2",
    "tucker2_params",
    "tucker2_reconstruct",
    "uniform_width_scale",
    "zero_unit_channels",
]

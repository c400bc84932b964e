"""Paper-scale accuracy surrogate calibrated to the paper's tables."""

from .accuracy import AccuracyModel, StepEffect
from .calibration import (
    ACCURACY_HEADROOM,
    BASELINE_ACCURACY,
    TABLE2_ANCHORS,
    TABLE3_ACC40,
    MethodCurve,
    method_curve,
)

__all__ = [
    "ACCURACY_HEADROOM",
    "AccuracyModel",
    "BASELINE_ACCURACY",
    "MethodCurve",
    "StepEffect",
    "TABLE2_ANCHORS",
    "TABLE3_ACC40",
    "method_curve",
]

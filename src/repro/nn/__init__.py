"""From-scratch numpy neural-network substrate used by the AutoMC reproduction.

Public surface:

* :class:`~repro.nn.tensor.Tensor` — reverse-mode autodiff array
* layer classes (:class:`Conv2d`, :class:`Linear`, :class:`BatchNorm2d`, ...)
* :mod:`repro.nn.functional` — stateless ops
* optimizers and LR schedules
* :class:`~repro.nn.train.Trainer` / :func:`evaluate_accuracy`
* :mod:`repro.nn.workspace` — the per-thread scratch high-water meter
  (``workspace_stats`` / ``reset_workspace_peak``): the largest transient
  scratch a single conv kernel allocated since the last reset
"""

from . import functional, init, losses
from .layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Embedding,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    Module,
    Parameter,
    ReLU,
    Sequential,
)
from .optim import SGD, Adam, CosineSchedule, Optimizer
from .quant import (
    QuantizedConv2d,
    QuantizedLinear,
    calibrate_module,
    fold_batchnorm,
    quantize_module,
    quantized_bits,
)
from .serialization import load_model, load_state, save_model
from .tensor import (
    Tensor,
    concat,
    default_dtype,
    get_default_dtype,
    is_grad_enabled,
    no_grad,
    set_default_dtype,
    stack,
    where,
)
from .train import Trainer, TrainReport, evaluate_accuracy
from .workspace import reset_workspace_peak, workspace_stats

__all__ = [
    "AvgPool2d",
    "Adam",
    "BatchNorm2d",
    "Conv2d",
    "CosineSchedule",
    "Embedding",
    "Flatten",
    "GlobalAvgPool2d",
    "Identity",
    "Linear",
    "MaxPool2d",
    "Module",
    "Optimizer",
    "Parameter",
    "QuantizedConv2d",
    "QuantizedLinear",
    "ReLU",
    "SGD",
    "Sequential",
    "Tensor",
    "Trainer",
    "TrainReport",
    "calibrate_module",
    "concat",
    "default_dtype",
    "fold_batchnorm",
    "evaluate_accuracy",
    "get_default_dtype",
    "is_grad_enabled",
    "no_grad",
    "reset_workspace_peak",
    "set_default_dtype",
    "functional",
    "init",
    "load_model",
    "load_state",
    "losses",
    "quantize_module",
    "quantized_bits",
    "save_model",
    "stack",
    "where",
    "workspace_stats",
]

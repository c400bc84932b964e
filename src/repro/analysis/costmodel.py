"""P(M)/F(M) of a model, and the static cost model of compression schemes.

:func:`profile_model` measures a model's parameter count and FLOPs — the
P(M) and F(M) of the paper (§3.1).  FLOPs come from shape propagation:
:func:`count_flops` sums :meth:`_Op.flops` over the nodes of
:func:`~repro.analysis.graph.trace_model`, so no forward pass runs.
Multiply-adds count as two FLOPs (the convention that makes the paper's
VGG-16 / CIFAR figure come out at 0.63 GFLOPs).

A :class:`SchemeCostModel` evaluates a
:class:`~repro.space.scheme.CompressionScheme` *symbolically*: starting from
the :func:`~repro.analysis.graph.trace_model` graph of the base model, each
strategy is applied as an *effect signature* — a transformation of abstract
channel counts, factorisation ranks, and weight dtypes that calls the
planning rules of the real surgery in :mod:`repro.compression` without
touching a single weight.  The result is a :class:`CostPrediction` of
post-scheme parameters, FLOPs, peak activation memory, and a latency proxy,
obtained in microseconds instead of the seconds-to-minutes a real
surgery+profile costs.

Effect signatures per method, with the executed code each one calls (every
ratio, share and floor is read from the method object in
:data:`repro.compression.METHODS` or from :mod:`repro.compression.surgery`):

====== ===============================================================
method effect on the abstract model
====== ===============================================================
C1     :func:`~repro.compression.surgery.drop_uniformly`, the per-unit
       drop of ``uniform_width_scale``, then a global top-up through
       :func:`~repro.compression.surgery.greedy_removal`.
C2     :meth:`~repro.compression.legr.LeGR.evolve` over a
       :class:`~repro.compression.legr.GlobalRanking` of expected scores,
       for :meth:`~repro.compression.legr.LeGR.generations`, then the
       LeGR top-up.
C3     :func:`~repro.compression.surgery.prune_in_rounds` (the rounds and
       stop rule of ``prune_by_scores``) around ``greedy_removal``.
C4     the same at SFP's ratio.
C5     HOS's share of the budget pruned the same way, the rest taken by
       :func:`~repro.compression.factorized.factorize_largest_first` over
       the plain conv ops with the plan
       :func:`~repro.compression.hos.tucker_plan` (Tucker-2 at the ranks
       of :func:`~repro.compression.hos.saving_ranks`).
C6     the same walk with the plan
       :func:`~repro.compression.lfb.basis_plan` (a filter basis of
       :func:`~repro.compression.lfb.choose_basis_size`).
C7     parameters/FLOPs unchanged; effective weight width becomes
       HP17 bits (weight-memory prediction only).
C8     effective weight width is :data:`repro.nn.quant.MODE_BITS` of
       HP19, the width the executed quantized layers report.  Each
       BatchNorm of a :func:`~repro.nn.quant.foldable_batchnorms` pair
       whose conv is still plain folds away and gives the conv a bias, as
       :func:`~repro.nn.quant.fold_batchnorm` does.  Convolutions become
       quantized ops, which later C1–C6 steps leave alone, as they leave
       ``QuantizedConv2d``.
====== ===============================================================

Channel scores are weight-dependent, but their *order statistics* at init are
not: the abstraction models each criterion's removal order (proportional
interleaving, unit-order drain for tied BN gammas — see :func:`_prune_mode`).
Parameter predictions are budget-driven and tight; FLOPs depend on *which*
layers lose channels, so their tolerance is validated (and pinned) against
measured post-surgery profiles in the golden tests.

:class:`Budget` turns predictions into the ``S###`` feasibility rules used by
:func:`repro.analysis.linter.lint_scheme` and the evaluators:

* ``S001`` params-over-budget   — predicted params exceed ``max_params``;
* ``S002`` flops-over-budget    — predicted FLOPs exceed ``max_flops``;
* ``S003`` act-mem-over-budget  — predicted peak activation memory exceeds
  ``max_act_mem`` bytes;
* ``S004`` latency-over-budget  — the latency proxy exceeds
  ``max_latency_ms``;
* ``S005`` weight-mem-over-budget — predicted weight storage at the
  effective quantized width exceeds ``max_weight_mem`` bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..compression import METHODS, ExecutionContext
from ..compression.factorized import factorize_largest_first
from ..compression.hooi import tucker2_params
from ..compression.hos import tucker_plan
from ..compression.legr import GlobalRanking
from ..compression.lfb import basis_params, basis_plan
from ..compression.surgery import (
    UNIFORM_MAX_RATIO,
    channel_limits,
    drop_uniformly,
    greedy_removal,
    prune_in_rounds,
)
from ..nn.quant import MODE_BITS, foldable_batchnorms
from ..space.scheme import CompressionScheme
from .diagnostics import Report
from .graph import ModelGraph, trace_model

#: bytes per activation / weight element at the runtime's native precision
BYTES_PER_ELEMENT = 4
#: native weight width before any quantization step
DEFAULT_WEIGHT_BITS = 32
#: latency proxy: sustained FLOPs per millisecond of the reference device
LATENCY_FLOPS_PER_MS = 1.0e8
#: latency proxy: fixed per-op launch overhead in milliseconds
LATENCY_OP_OVERHEAD_MS = 0.005
#: scheme states a SchemeCostModel caches before evicting the longest half
STATE_CACHE_SIZE = 4096

#: rule catalogue (mirrored in docs/static_analysis.md)
S_RULES: Dict[str, str] = {
    "S001": "params-over-budget",
    "S002": "flops-over-budget",
    "S003": "act-mem-over-budget",
    "S004": "latency-over-budget",
    "S005": "weight-mem-over-budget",
}

#: FLOPs rules per registered runtime op (checked by repro.analysis.repolint:
#: every op name passed to ``repro.nn.functional._register_op`` must appear
#: here, so a new op cannot silently evade the cost model).
OP_FLOP_RULES: Dict[str, str] = {
    "conv2d": "2*Ho*Wo*F*C*kh*kw + Ho*Wo*F if bias (fused ReLU free)",
    "linear": "2*out*in + out if bias",
    "add_relu": "one FLOP per output element",
    "batch_norm": "2 FLOPs per input element (fused scale-shift)",
    "max_pool2d": "not counted (comparison-only)",
    "avg_pool2d": "not counted",
    "global_avg_pool2d": "not counted",
    "quant_conv2d": "2*Ho*Wo*F*C*kh*kw + Ho*Wo*F if bias (same MACs as conv2d)",
    "quant_linear": "2*out*in + out if bias (same MACs as linear)",
}


# --------------------------------------------------------------------------- #
# Predictions and budgets
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class CostPrediction:
    """Statically predicted cost profile of a model after a scheme."""

    params: int
    flops: int
    act_mem: int  # peak activation memory, bytes (batch size 1)
    latency_ms: float
    weight_bits: int = DEFAULT_WEIGHT_BITS

    @property
    def weight_mem(self) -> int:
        """Weight storage in bytes at the effective quantized width."""
        return int(math.ceil(self.params * self.weight_bits / 8))

    def to_payload(self) -> Dict[str, object]:
        return {
            "params": self.params,
            "flops": self.flops,
            "act_mem": self.act_mem,
            "latency_ms": self.latency_ms,
            "weight_bits": self.weight_bits,
        }


@dataclass(frozen=True)
class Budget:
    """Hard resource ceilings a compressed model must satisfy.

    ``None`` fields are unconstrained.  ``max_params``/``max_flops`` are
    absolute counts, ``max_act_mem``/``max_weight_mem`` are bytes,
    ``max_latency_ms`` is the latency ceiling in milliseconds (checked
    statically against the proxy, and — when measured latency is enabled —
    against real wall-clock by the evaluators).
    """

    max_params: Optional[int] = None
    max_flops: Optional[int] = None
    max_act_mem: Optional[int] = None
    max_latency_ms: Optional[float] = None
    max_weight_mem: Optional[int] = None

    @property
    def is_null(self) -> bool:
        return (
            self.max_params is None
            and self.max_flops is None
            and self.max_act_mem is None
            and self.max_latency_ms is None
            and self.max_weight_mem is None
        )

    def violations(self, prediction: CostPrediction) -> List[Tuple[str, str, object, object]]:
        """``(rule, message, expected, actual)`` for every exceeded ceiling."""
        found: List[Tuple[str, str, object, object]] = []
        if self.max_params is not None and prediction.params > self.max_params:
            found.append((
                "S001", "predicted parameter count exceeds the budget",
                f"<= {self.max_params}", prediction.params,
            ))
        if self.max_flops is not None and prediction.flops > self.max_flops:
            found.append((
                "S002", "predicted FLOPs exceed the budget",
                f"<= {self.max_flops}", prediction.flops,
            ))
        if self.max_act_mem is not None and prediction.act_mem > self.max_act_mem:
            found.append((
                "S003", "predicted peak activation memory exceeds the budget",
                f"<= {self.max_act_mem} bytes", prediction.act_mem,
            ))
        if self.max_latency_ms is not None and prediction.latency_ms > self.max_latency_ms:
            found.append((
                "S004", "predicted latency proxy exceeds the budget",
                f"<= {self.max_latency_ms} ms", round(prediction.latency_ms, 4),
            ))
        if self.max_weight_mem is not None and prediction.weight_mem > self.max_weight_mem:
            found.append((
                "S005", "predicted weight storage exceeds the budget",
                f"<= {self.max_weight_mem} bytes", prediction.weight_mem,
            ))
        return found

    def feasible(self, prediction: CostPrediction) -> bool:
        return not self.violations(prediction)

    def to_payload(self) -> Dict[str, object]:
        return {
            "max_params": self.max_params,
            "max_flops": self.max_flops,
            "max_act_mem": self.max_act_mem,
            "max_latency_ms": self.max_latency_ms,
            "max_weight_mem": self.max_weight_mem,
        }

    @classmethod
    def from_payload(cls, payload: Optional[Dict[str, object]]) -> Optional["Budget"]:
        if payload is None:
            return None
        budget = cls(
            max_params=payload.get("max_params"),
            max_flops=payload.get("max_flops"),
            max_act_mem=payload.get("max_act_mem"),
            max_latency_ms=payload.get("max_latency_ms"),
            max_weight_mem=payload.get("max_weight_mem"),
        )
        return None if budget.is_null else budget


# --------------------------------------------------------------------------- #
# Abstract model structure
# --------------------------------------------------------------------------- #
#: op kinds that carry parameters / FLOPs; ``qconv`` is a quantized
#: convolution, costed like ``conv`` but no longer plain for surgery
_COSTED_KINDS = ("conv", "qconv", "tucker", "basis", "bn", "linear", "add_relu")


@dataclass
class _Op:
    """One abstract layer: enough structure to recompute params and FLOPs."""

    path: str
    kind: str  # conv | qconv | tucker | basis | bn | linear | add_relu | zero
    in_ch: int = 0
    out_ch: int = 0
    kernel: int = 1
    stride: int = 1
    padding: int = 0
    bias: bool = False
    r_in: int = 0  # Tucker input rank
    r_out: int = 0  # Tucker output rank
    basis: int = 0  # filter-basis size
    h_in: Optional[int] = None
    w_in: Optional[int] = None
    h_out: Optional[int] = None
    w_out: Optional[int] = None

    # -- accounting -------------------------------------------------------- #
    def params(self) -> int:
        if self.kind in ("conv", "qconv"):
            p = self.out_ch * self.in_ch * self.kernel * self.kernel
            return p + (self.out_ch if self.bias else 0)
        if self.kind == "tucker":
            p = tucker2_params(self.out_ch, self.in_ch, self.kernel, self.r_out, self.r_in)
            return p + (self.out_ch if self.bias else 0)
        if self.kind == "basis":
            p = basis_params(self.out_ch, self.in_ch, self.kernel, self.basis)
            return p + (self.out_ch if self.bias else 0)
        if self.kind == "bn":
            return 2 * self.out_ch  # gamma + beta; running stats are buffers
        if self.kind == "linear":
            return self.out_ch * self.in_ch + (self.out_ch if self.bias else 0)
        return 0

    def flops(self) -> int:
        """FLOPs at batch size 1 of the kernels this op runs (2 per MAC)."""
        if self.kind in ("conv", "qconv"):
            area = (self.h_out or 1) * (self.w_out or 1)
            macs = area * self.out_ch * self.in_ch * self.kernel * self.kernel
            return 2 * macs + (area * self.out_ch if self.bias else 0)
        if self.kind == "tucker":
            area_in = (self.h_in or 1) * (self.w_in or 1)
            area_out = (self.h_out or 1) * (self.w_out or 1)
            first = area_in * self.r_in * self.in_ch
            core = area_out * self.r_out * self.r_in * self.kernel * self.kernel
            last = area_out * self.out_ch * self.r_out
            return 2 * (first + core + last) + (area_out * self.out_ch if self.bias else 0)
        if self.kind == "basis":
            area_out = (self.h_out or 1) * (self.w_out or 1)
            basis = area_out * self.basis * self.in_ch * self.kernel * self.kernel
            coeff = area_out * self.out_ch * self.basis
            return 2 * (basis + coeff) + (area_out * self.out_ch if self.bias else 0)
        if self.kind == "bn":
            area = (self.h_in or 1) * (self.w_in or 1)
            return 2 * self.out_ch * area
        if self.kind == "linear":
            return 2 * self.out_ch * self.in_ch + (self.out_ch if self.bias else 0)
        if self.kind == "add_relu":
            return self.out_ch * (self.h_out or 1) * (self.w_out or 1)
        return 0

    def input_elements(self) -> int:
        if self.kind == "linear":
            return self.in_ch
        area = (self.h_in or 1) * (self.w_in or 1)
        return self.in_ch * area if self.in_ch else self.out_ch * area

    def output_elements(self) -> int:
        if self.kind == "linear":
            return self.out_ch
        return self.out_ch * (self.h_out or 1) * (self.w_out or 1)

    def input_cost_per_channel(self) -> int:
        """Parameters one *input* channel of this op costs (surgery mirror)."""
        if self.kind == "conv":
            return self.out_ch * self.kernel * self.kernel
        if self.kind == "linear":
            return self.out_ch
        if self.kind == "tucker":
            return self.r_in  # first 1x1 factor loses one column
        if self.kind == "basis":
            return self.basis * self.kernel * self.kernel
        return 0


@dataclass(frozen=True)
class _Unit:
    """Abstract pruning unit: op indices instead of module references."""

    name: str
    producer: int
    bn: Optional[int]
    consumers: Tuple[int, ...]


_KIND_BY_NODE = {
    "Conv2d": "conv",
    "Conv2dReLU": "conv",
    "QuantizedConv2d": "qconv",
    "TuckerConv2d": "tucker",
    "BasisConv2d": "basis",
    "BatchNorm2d": "bn",
    "Linear": "linear",
    "QuantizedLinear": "linear",
    "AddReLU": "add_relu",
}


def _has_bias(module) -> bool:
    """Float layers hold ``bias``; their quantized twins hold ``qbias``."""
    return getattr(module, "bias", getattr(module, "qbias", None)) is not None


class AbstractModel:
    """Mutable symbolic model: ops in execution order plus pruning units.

    Channel pruning mutates unit-linked channel counts; factorisation
    rewrites an op's kind in place.  ``folds`` holds the ``(conv, bn)`` op
    indices of the base model's :func:`~repro.nn.quant.foldable_batchnorms`
    pairs, for the C8 effect signature.  Spatial dimensions come from the base
    trace and never change (no compression method alters strides).
    """

    def __init__(
        self,
        ops: List[_Op],
        units: Sequence[_Unit],
        input_elements: int,
        weight_bits: int = DEFAULT_WEIGHT_BITS,
        folds: Sequence[Tuple[int, int]] = (),
    ):
        self.ops = ops
        self.units = tuple(units)
        self.input_elements = input_elements
        self.weight_bits = weight_bits
        self.folds = tuple(folds)

    # -- construction ------------------------------------------------------ #
    @classmethod
    def from_model(cls, model, input_shape: Tuple[int, int, int] = (3, 32, 32)) -> "AbstractModel":
        graph = trace_model(model, input_shape=input_shape, report=Report(subject="costmodel"))
        return cls.from_graph(graph, model)

    @classmethod
    def from_graph(cls, graph: ModelGraph, model) -> "AbstractModel":
        ops: List[_Op] = []
        index_of: Dict[int, int] = {}
        for node in graph.nodes:
            ops.append(cls._op_from_node(node))
            index_of.setdefault(id(node.module), len(ops) - 1)

        units: List[_Unit] = []
        for unit in model.pruning_units():
            producer = index_of.get(id(unit.producer))
            if producer is None:
                continue
            consumers = tuple(
                index_of[id(c)] for c in unit.consumers if id(c) in index_of
            )
            bn = index_of.get(id(unit.bn)) if unit.bn is not None else None
            units.append(_Unit(name=unit.name, producer=producer, bn=bn, consumers=consumers))
        folds = [
            (index_of[id(conv)], index_of[id(bn)])
            for _, _, conv, bn in foldable_batchnorms(model)
            if id(conv) in index_of and id(bn) in index_of
        ]

        channels, height, width = graph.input.channels, graph.input.height, graph.input.width
        input_elements = channels * (height or 1) * (width or 1)
        return cls(ops=ops, units=units, input_elements=input_elements, folds=folds)

    @staticmethod
    def _op_from_node(node) -> _Op:
        kind = _KIND_BY_NODE.get(node.kind, "zero")
        module = node.module
        op = _Op(
            path=node.path,
            kind=kind,
            h_in=node.inputs.height,
            w_in=node.inputs.width,
            h_out=node.output.height,
            w_out=node.output.width,
        )
        if kind in ("conv", "qconv", "tucker", "basis"):
            op.in_ch = module.in_channels
            op.out_ch = module.out_channels
            op.kernel = int(getattr(module, "kernel_size", 1))
            op.stride = int(getattr(module, "stride", 1))
            op.padding = int(getattr(module, "padding", 0))
            op.bias = _has_bias(module)
            if kind == "tucker":
                op.r_out, op.r_in = module.ranks
            elif kind == "basis":
                op.basis = module.basis_size
        elif kind == "bn":
            op.out_ch = module.num_features
            op.in_ch = module.num_features
        elif kind == "linear":
            op.in_ch = module.in_features
            op.out_ch = module.out_features
            op.bias = _has_bias(module)
        elif kind == "add_relu":
            op.in_ch = node.inputs.channels
            op.out_ch = node.output.channels
        else:
            op.in_ch = node.inputs.channels
            op.out_ch = node.output.channels
        return op

    def clone(self) -> "AbstractModel":
        return AbstractModel(
            ops=[replace(op) for op in self.ops],
            units=self.units,
            input_elements=self.input_elements,
            weight_bits=self.weight_bits,
            folds=self.folds,
        )

    # -- accounting -------------------------------------------------------- #
    def params(self) -> int:
        return sum(op.params() for op in self.ops)

    def flops(self) -> int:
        return sum(op.flops() for op in self.ops)

    def peak_activation_bytes(self) -> int:
        peak = self.input_elements
        for op in self.ops:
            if op.kind in _COSTED_KINDS:
                peak = max(peak, op.input_elements(), op.output_elements())
        return peak * BYTES_PER_ELEMENT

    def latency_ms(self) -> float:
        costed = sum(1 for op in self.ops if op.kind in _COSTED_KINDS)
        return self.flops() / LATENCY_FLOPS_PER_MS + costed * LATENCY_OP_OVERHEAD_MS

    def predict(self) -> CostPrediction:
        return CostPrediction(
            params=self.params(),
            flops=self.flops(),
            act_mem=self.peak_activation_bytes(),
            latency_ms=self.latency_ms(),
            weight_bits=self.weight_bits,
        )

    # -- pruning-unit helpers ---------------------------------------------- #
    def active_units(self) -> List[_Unit]:
        """Units whose producer is still a plain convolution (surgery mirror)."""
        return [u for u in self.units if self.ops[u.producer].kind == "conv"]

    def plain_convs(self) -> List[Tuple[_Op, int, int, int]]:
        """``(op, f, c, k)`` of every plain convolution, for the factorisation
        walk.  Execution order matches module declaration order for every
        zoo architecture, so the walk sees them as the methods do."""
        return [(op, op.out_ch, op.in_ch, op.kernel) for op in self.ops if op.kind == "conv"]

    def unit_channels(self, unit: _Unit) -> int:
        return self.ops[unit.producer].out_ch

    def unit_fan_in(self, unit: _Unit) -> int:
        """Fan-in of the producer's filters (drives init score statistics)."""
        producer = self.ops[unit.producer]
        return producer.in_ch * producer.kernel * producer.kernel

    def params_per_channel(self, unit: _Unit) -> int:
        producer = self.ops[unit.producer]
        cost = producer.in_ch * producer.kernel * producer.kernel
        if producer.bias:
            cost += 1
        if unit.bn is not None:
            cost += 2
        for ci in unit.consumers:
            cost += self.ops[ci].input_cost_per_channel()
        return cost

    def drop_channels(self, unit: _Unit, count: int) -> None:
        if count <= 0:
            return
        self.ops[unit.producer].out_ch -= count
        if unit.bn is not None:
            self.ops[unit.bn].out_ch -= count
            self.ops[unit.bn].in_ch -= count
        for ci in unit.consumers:
            self.ops[ci].in_ch -= count


# --------------------------------------------------------------------------- #
# Effect signatures
# --------------------------------------------------------------------------- #
def _norm_ppf(q: float) -> float:
    """Inverse standard-normal CDF (Acklam's rational approximation).

    Absolute error < 1.15e-9 over (0, 1) — far below the width of the score
    distributions it feeds, and dependency-free (``scipy`` is unavailable).
    """
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    q = min(max(q, 1e-12), 1.0 - 1e-12)
    if q < 0.02425:
        u = math.sqrt(-2.0 * math.log(q))
        return (((((c[0] * u + c[1]) * u + c[2]) * u + c[3]) * u + c[4]) * u + c[5]) / \
            ((((d[0] * u + d[1]) * u + d[2]) * u + d[3]) * u + 1.0)
    if q > 1.0 - 0.02425:
        u = math.sqrt(-2.0 * math.log(1.0 - q))
        return -(((((c[0] * u + c[1]) * u + c[2]) * u + c[3]) * u + c[4]) * u + c[5]) / \
            ((((d[0] * u + d[1]) * u + d[2]) * u + d[3]) * u + 1.0)
    u = q - 0.5
    t = u * u
    return (((((a[0] * t + a[1]) * t + a[2]) * t + a[3]) * t + a[4]) * t + a[5]) * u / \
        (((((b[0] * t + b[1]) * t + b[2]) * t + b[3]) * t + b[4]) * t + 1.0)


def _blom_positions(n: int) -> List[float]:
    """Blom's plotting positions — E[j-th order statistic] quantiles."""
    return [(j + 1 - 0.375) / (n + 0.25) for j in range(n)]


#: planner modes — the static abstraction of one score criterion's removal
#: order, as expected order statistics of the criterion at init time:
#: ``proportional``    scores are identically distributed across units
#:                     (z-scored, rank-normalised, or scale-invariant
#:                     criteria), so expected removals interleave by quantile;
#: ``drain``           scores are exactly tied (BN gammas initialise to 1),
#:                     so the stable greedy empties units in definition order;
#: ``l2_norm``         filter l2 norms: ``sqrt(sum w^2)`` of ``d`` Kaiming
#:                     weights is ~N(sqrt(2)(1 - 1/(4d)), 1/sqrt(d)) — means
#:                     are nearly fan-in free but spreads shrink with fan-in,
#:                     so small-fan-in units contribute the global low tail;
#: ``l1_norm``         filter l1 norms: ~N(2 sqrt(d/pi), sqrt(2(1 - 2/pi)))
#:                     — means grow with fan-in, draining small-fan-in units.
_PLAN_MODES = ("proportional", "drain", "l2_norm", "l1_norm")


def _expected_scores(mode: str, n: int, fan_in: int) -> List[float]:
    """Ascending expected channel scores for one unit under ``mode``."""
    if mode == "drain":
        return [0.0] * n
    positions = _blom_positions(n)
    if mode == "l2_norm":
        mean = math.sqrt(2.0) * (1.0 - 1.0 / (4.0 * max(fan_in, 1)))
        std = 1.0 / math.sqrt(max(fan_in, 1))
        return [mean + std * _norm_ppf(q) for q in positions]
    if mode == "l1_norm":
        mean = 2.0 * math.sqrt(max(fan_in, 1) / math.pi)
        std = math.sqrt(2.0 * (1.0 - 2.0 / math.pi))
        return [mean + std * _norm_ppf(q) for q in positions]
    return positions  # proportional: common distribution, quantiles suffice


def _prune_once(
    model: AbstractModel, budget: int, max_ratio: float, mode: str = "proportional"
) -> int:
    """One ``plan_global_pruning`` pass over expected score order statistics.

    Runs the real planner's greedy (:func:`greedy_removal`: ascending-score
    order with frozen per-unit costs, per-unit floors, and a stop-at-budget
    rule) over the active units, with each unit's scores replaced by their
    expected order statistics under ``mode`` (see ``_PLAN_MODES``), and
    drops the planned channels.  Returns the planned parameter removal
    (overshoot bounded by one channel, like the greedy).
    """
    units = model.active_units()
    if not units:
        return 0
    n = [model.unit_channels(u) for u in units]
    scores = [
        value
        for i, unit in enumerate(units)
        for value in _expected_scores(mode, n[i], model.unit_fan_in(unit))
    ]
    dropped, removed = greedy_removal(
        np.asarray(scores, dtype=np.float64),
        n,
        channel_limits(n, max_ratio),
        [model.params_per_channel(u) for u in units],
        budget,
    )
    for unit, mask in zip(units, np.split(dropped, np.cumsum(n))[:-1]):
        model.drop_channels(unit, int(mask.sum()))
    return removed


def _abstract_prune(
    model: AbstractModel, budget: int, max_ratio: float, mode: str = "proportional"
) -> int:
    """``prune_by_scores``: :func:`prune_in_rounds` of :func:`_prune_once`."""
    return prune_in_rounds(
        model.params, lambda remaining: _prune_once(model, remaining, max_ratio, mode), budget
    )


def _abstract_uniform_scale(model: AbstractModel, budget: int) -> int:
    """``uniform_width_scale`` (C1's width shrink): its :func:`drop_uniformly`,
    then a greedy top-up over expected scores."""
    units = model.active_units()
    if not units or budget <= 0:
        return 0
    removed = drop_uniformly(
        units, model.unit_channels, model.params_per_channel, model.drop_channels,
        budget, UNIFORM_MAX_RATIO,
    )
    if removed < budget:
        removed += _prune_once(model, budget - removed, UNIFORM_MAX_RATIO)
    return removed


def _tucker_walk(model: AbstractModel, budget: int) -> int:
    """HOS's TE7 on the abstract ops: ``factorize_largest_first`` with its plan."""
    floor = METHODS["C5"].min_channels_for_tucker
    return factorize_largest_first(
        model.plain_convs(), budget, floor, floor, tucker_plan, _to_tucker
    )


def _to_tucker(op: _Op, ranks: Tuple[int, int]) -> None:
    op.kind = "tucker"
    op.r_out, op.r_in = ranks


def _basis_walk(model: AbstractModel, budget: int) -> int:
    """LFB on the abstract ops: ``factorize_largest_first`` with its plan."""
    return factorize_largest_first(
        model.plain_convs(), budget, METHODS["C6"].min_channels, 1, basis_plan, _to_basis
    )


def _to_basis(op: _Op, basis: int) -> None:
    op.kind = "basis"
    op.basis = basis


def _abstract_legr(
    model: AbstractModel, budget: int, hp: Mapping[str, object], ctx: ExecutionContext
) -> int:
    """LeGR's no-train path on expected score order statistics.

    With training disabled, the real C2's fitness is the fraction of
    criterion mass the plan of a per-unit transform ``alpha * score +
    kappa`` retains.  That is computable from the expected scores, so this
    runs LeGR's own :meth:`~repro.compression.legr.LeGR.evolve` and
    :class:`~repro.compression.legr.GlobalRanking` on them, drawing from the
    default context's seeded generator: the expectation of the stochastic
    search, not one draw of it.
    """
    units = model.active_units()
    if not units or budget <= 0:
        return 0
    legr = METHODS["C2"]
    start = model.params()
    max_ratio = float(hp["HP6"])
    mode = "l1_norm" if hp["HP8"] == "l1_weight" else "l2_norm"
    ranking = GlobalRanking(
        [u.name for u in units],
        [
            np.asarray(_expected_scores(mode, model.unit_channels(u), model.unit_fan_in(u)))
            for u in units
        ],
        [model.params_per_channel(u) for u in units],
        budget,
        max_ratio,
    )
    best = legr.evolve(
        ranking.retained_fraction, len(units), legr.generations(hp, ctx), ctx.rng
    )
    dropped = ranking.removal(best.alpha, best.kappa)[0]
    for unit, (first, end) in zip(units, ranking.spans):
        model.drop_channels(unit, int(dropped[first:end].sum()))
    removed = start - model.params()
    if removed < legr.top_up_below * budget:
        _abstract_prune(model, budget - removed, max_ratio, mode=mode)
    return start - model.params()


def _prune_mode(label: str, hp: Mapping[str, object]) -> str:
    """Static abstraction of the removal *order* a method's scores induce.

    Derived from the init-time score statistics of ``repro.nn`` (Kaiming
    weights, unit BN gammas) and validated empirically against measured
    post-surgery profiles (see ``tests/test_costmodel.py``):

    - C3 scores ``|bn.gamma|`` which initialise to exact ties, so the stable
      greedy drains units in definition order to their floors;
    - C4 scores filter l2 norms whose order statistics under Kaiming init
      put small-fan-in units in the global low tail (``l2_norm`` model);
    - C5's raw ``P2``+``l1norm`` aggregation has means growing with fan-in
      (``l1_norm`` model); the z-scored/rank-normalised aggregations and the
      scale-free moment criteria interleave uniformly (``proportional``);
    - C2 runs LeGR's evolution on the abstract scores (see
      :func:`_abstract_legr`), so this lookup does not apply to it.
    """
    if label == "C3":
        return "drain"
    if label == "C4":
        return "l2_norm"
    if label == "C5" and hp.get("HP11") == "P2" and hp.get("HP12") == "l1norm":
        return "l1_norm"
    return "proportional"


def apply_strategy(model: AbstractModel, strategy, base_params: int) -> None:
    """Apply one strategy's effect signature to ``model`` in place.

    ``base_params`` is P(M) of the *original* model.  The strategy is
    resolved in a default training-free :class:`ExecutionContext`, as the
    methods resolve it: HP2 budgets relative to ``base_params``, ``*n``
    epochs over the default pre-training epochs, and a fresh seeded
    generator.
    """
    label = strategy.method_label
    hp = strategy.hp
    ctx = ExecutionContext(original_params=base_params, train_enabled=False)
    budget = ctx.param_budget(float(hp.get("HP2", 0.0)))
    mode = _prune_mode(label, hp)
    if label == "C1":
        _abstract_uniform_scale(model, budget)
    elif label == "C2":
        _abstract_legr(model, budget, hp, ctx)
    elif label == "C3":
        _abstract_prune(model, budget, float(hp["HP6"]), mode=mode)
    elif label == "C4":
        _abstract_prune(model, budget, METHODS["C4"].max_ratio, mode=mode)
    elif label == "C5":
        hos = METHODS["C5"]
        removed = _abstract_prune(
            model, int(round(budget * hos.prune_share)), hos.max_ratio, mode=mode
        )
        _tucker_walk(model, budget - removed)
    elif label == "C6":
        _basis_walk(model, budget)
    elif label == "C7":
        model.weight_bits = int(hp["HP17"])
    elif label == "C8":
        # Real PTQ: executed precision is exactly the mode's storage width.
        model.weight_bits = MODE_BITS[str(hp["HP19"])]
        for conv, bn in model.folds:
            if model.ops[conv].kind == "conv":
                model.ops[conv].bias = True
                model.ops[bn].kind = "zero"  # executed as an Identity
        for op in model.ops:
            if op.kind == "conv":
                op.kind = "qconv"
    else:
        raise ValueError(f"no effect signature for method {label!r}")


# --------------------------------------------------------------------------- #
# The scheme-level cost model
# --------------------------------------------------------------------------- #
class SchemeCostModel:
    """Predict post-scheme cost profiles by abstract interpretation.

    Prefix states are cached by scheme identifier, so scoring thousands of
    one-step extensions of the same parent (the progressive-search hot path)
    costs one strategy application each.
    """

    def __init__(self, model, input_shape: Tuple[int, int, int] = (3, 32, 32)):
        base = AbstractModel.from_model(model, input_shape=input_shape)
        self.base_params = base.params()
        self.base_prediction = base.predict()
        self._states: Dict[str, AbstractModel] = {"START": base}

    def state(self, scheme: CompressionScheme) -> AbstractModel:
        """The abstract model after ``scheme`` (cached; do not mutate)."""
        identifier = scheme.identifier
        cached = self._states.get(identifier)
        if cached is not None:
            return cached
        parent = self.state(scheme.prefix(scheme.length - 1))
        state = parent.clone()
        apply_strategy(state, scheme.strategies[-1], self.base_params)
        if len(self._states) >= STATE_CACHE_SIZE:
            self._evict()
        self._states[identifier] = state
        return state

    def _evict(self) -> None:
        # Drop the longest cached schemes first: short prefixes are the
        # shared ancestors whose reuse pays for the cache.
        victims = sorted(self._states, key=lambda k: -k.count("->"))
        for key in victims[: STATE_CACHE_SIZE // 2]:
            if key != "START":
                del self._states[key]

    def predict(self, scheme: CompressionScheme) -> CostPrediction:
        return self.state(scheme).predict()

    def feasible(self, scheme: CompressionScheme, budget: Optional[Budget]) -> bool:
        if budget is None or budget.is_null:
            return True
        return budget.feasible(self.predict(scheme))


def check_budget(
    report: Report,
    scheme: CompressionScheme,
    budget: Budget,
    cost_model: SchemeCostModel,
) -> CostPrediction:
    """Run the S### rules for ``scheme`` against ``budget`` into ``report``."""
    prediction = cost_model.predict(scheme)
    for rule, message, expected, actual in budget.violations(prediction):
        report.error(rule, "budget", message, expected=expected, actual=actual)
    return prediction


# --------------------------------------------------------------------------- #
# P(M) and F(M) of a concrete model
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ModelProfile:
    """Cost profile of a model on a given input resolution."""

    params: int
    flops: int

    @property
    def params_m(self) -> float:
        """Parameter count in millions."""
        return self.params / 1e6

    @property
    def flops_g(self) -> float:
        """FLOPs per input sample, in billions."""
        return self.flops / 1e9

    def __str__(self) -> str:
        return f"{self.params_m:.2f}M params, {self.flops_g:.3f}G FLOPs"


def count_params(model) -> int:
    """Total trainable parameter count of a model."""
    return model.num_parameters()


def count_flops(model, input_shape: Tuple[int, ...]) -> int:
    """FLOPs of one forward pass on a single input of ``input_shape``.

    ``input_shape`` is ``(C, H, W)`` or ``(features,)``.  The count is read
    off the traced graph of the model as it stands, so it runs no forward
    pass.  Raises ``ValueError`` when the trace skips a module it cannot
    follow (V010) or finds a structure that cannot execute.
    """
    report = Report(subject=type(model).__name__)
    graph = trace_model(model, input_shape=input_shape, report=report)
    blocking = report.errors + report.by_rule("V010")
    if blocking:
        lines = "\n".join(d.format() for d in blocking)
        raise ValueError(f"cannot count FLOPs of {report.subject}:\n{lines}")
    return sum(AbstractModel._op_from_node(node).flops() for node in graph.nodes)


def profile_model(model, input_shape: Tuple[int, ...] = (3, 32, 32)) -> ModelProfile:
    """Measure both the parameter count and per-sample FLOPs of ``model``."""
    return ModelProfile(params=count_params(model), flops=count_flops(model, input_shape))

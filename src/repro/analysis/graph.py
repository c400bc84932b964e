"""Static model-graph tracing with shape/channel inference — no forward pass.

The tracer walks a :class:`~repro.nn.layers.Module` tree the same way its
``forward`` would consume a tensor, but propagates a symbolic
:class:`TensorSpec` (channels + optional spatial dims) instead of data.
Every layer visit emits a :class:`GraphNode` and checks the structural
invariants that real structural surgery can break:

* ``V001`` conv-input-mismatch — a convolution's input channels disagree
  with the channels produced upstream;
* ``V002`` bn-feature-mismatch — a batch norm normalises a different number
  of channels than it receives;
* ``V003`` linear-fanin-mismatch — a linear layer's fan-in disagrees with
  the (flattened) feature count reaching it;
* ``V004`` residual-misalignment — a residual block's branch and shortcut
  disagree in channels or spatial resolution at the merge;
* ``V005`` factorized-rank-invalid / ``V006`` factorized-rank-inflated —
  a Tucker/basis factorisation with inconsistent or non-compressing ranks;
* ``V007`` zero-width-layer — a layer with zero output channels/features;
* ``V008`` spatial-collapse — spatial resolution falls below 1x1;
* ``V010`` untraceable-module — an unknown composite the tracer must skip;
* ``V012`` op-needs-spatial-input — a conv/pool applied after flattening;
* ``V013`` unknown-fused-activation — a convolution requests an activation
  fusion the runtime does not implement.

The trace mirrors the *fused* execution path of ``repro.nn``: a residual
merge emits one ``AddReLU`` node (the runtime's ``F.add_relu`` fused op), a
``Conv2d`` whose ``activation`` attribute is ``"relu"`` is recorded as a
single ``Conv2dReLU`` node (``conv2d(..., activation="relu")``), and a
``BatchNorm2d`` is one node for the single fused normalise-scale-shift op
that both the training and eval paths execute.  The quantized twins
``QuantizedConv2d`` / ``QuantizedLinear`` are conv and linear nodes.  The
graph is what :func:`repro.analysis.costmodel.count_flops` sums, so P(M)/F(M)
and the static cost model read one set of FLOP rules.

Custom modules can opt into tracing by defining
``trace_static(tracer, spec, path) -> TensorSpec``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from ..compression.factorized import BasisConv2d, TuckerConv2d
from ..models.resnet import BasicBlock, Bottleneck, BottleneckResNet, ResNet
from ..models.vgg import VGG
from ..nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    Sequential,
)
from ..nn.quant import QuantizedConv2d, QuantizedLinear
from .diagnostics import Report


@dataclass(frozen=True)
class TensorSpec:
    """Symbolic activation shape: channels plus optional spatial dims.

    ``height``/``width`` are ``None`` once the activation is flattened
    (after global pooling or an explicit flatten).
    """

    channels: int
    height: Optional[int] = None
    width: Optional[int] = None

    @property
    def spatial(self) -> bool:
        return self.height is not None and self.width is not None

    @property
    def features(self) -> int:
        """Fan-in a linear layer would see at this point."""
        if self.spatial:
            return self.channels * self.height * self.width
        return self.channels

    def __str__(self) -> str:
        if self.spatial:
            return f"({self.channels}, {self.height}, {self.width})"
        return f"({self.channels},)"


@dataclass
class GraphNode:
    """One traced layer: its path, kind, and inferred input/output specs."""

    path: str
    kind: str
    module: Module
    inputs: TensorSpec
    output: TensorSpec

    def __repr__(self) -> str:
        return f"GraphNode({self.path or '<root>'}: {self.kind} {self.inputs} -> {self.output})"


@dataclass
class ModelGraph:
    """The structural graph produced by one trace."""

    input: TensorSpec
    output: Optional[TensorSpec] = None
    nodes: List[GraphNode] = field(default_factory=list)

    def node(self, path: str) -> GraphNode:
        for n in self.nodes:
            if n.path == path:
                return n
        raise KeyError(f"no traced node at {path!r}")

    def paths(self) -> List[str]:
        return [n.path for n in self.nodes]

    def __len__(self) -> int:
        return len(self.nodes)


def _join(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def _conv_spatial(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


class GraphTracer:
    """Walks a module tree, inferring shapes and reporting inconsistencies."""

    def __init__(self, report: Report, input_spec: TensorSpec):
        self.report = report
        self.graph = ModelGraph(input=input_spec)

    # ------------------------------------------------------------------ #
    def trace(self, module: Module, spec: TensorSpec, path: str = "") -> TensorSpec:
        """Infer the output spec of ``module`` applied to ``spec``."""
        custom = getattr(module, "trace_static", None)
        if custom is not None:
            return custom(self, spec, path)
        handler = self._handler_for(module)
        if handler is not None:
            return handler(module, spec, path)
        if getattr(module, "is_conv_like", False):
            return self._generic_conv_like(module, spec, path)
        self.report.warn(
            "V010",
            path,
            f"cannot statically trace {type(module).__name__}; "
            "define trace_static() to include it in verification",
        )
        self._record(module, spec, spec, path)
        return spec

    def _handler_for(self, module: Module):
        # Composite blocks must dispatch before any generic fallbacks.
        for kind, handler in (
            (Sequential, self._sequential),
            (BasicBlock, self._basic_block),
            (Bottleneck, self._bottleneck),
            (ResNet, self._stem_blocks_head),
            (BottleneckResNet, self._stem_blocks_head),
            (VGG, self._vgg),
            (Conv2d, self._conv),
            (QuantizedConv2d, self._conv),
            (TuckerConv2d, self._tucker),
            (BasisConv2d, self._basis),
            (BatchNorm2d, self._bn),
            (Linear, self._linear),
            (QuantizedLinear, self._linear),
            (MaxPool2d, self._pool),
            (AvgPool2d, self._pool),
            (GlobalAvgPool2d, self._global_pool),
            (Flatten, self._flatten),
            (ReLU, self._passthrough),
            (Identity, self._passthrough),
        ):
            if isinstance(module, kind):
                return handler
        return None

    def _record(
        self,
        module: Module,
        spec: TensorSpec,
        out: TensorSpec,
        path: str,
        kind: Optional[str] = None,
    ) -> None:
        self.graph.nodes.append(
            GraphNode(
                path=path,
                kind=kind if kind is not None else type(module).__name__,
                module=module,
                inputs=spec,
                output=out,
            )
        )

    # ------------------------------------------------------------------ #
    # Leaf layers
    # ------------------------------------------------------------------ #
    def _check_spatial_input(self, module: Module, spec: TensorSpec, path: str) -> bool:
        if spec.spatial:
            return True
        self.report.error(
            "V012",
            path,
            f"{type(module).__name__} requires a spatial (NCHW) input but the "
            "activation was already flattened",
        )
        return False

    def _spatial_after(
        self, spec: TensorSpec, kernel: int, stride: int, padding: int, path: str
    ) -> TensorSpec:
        height = _conv_spatial(spec.height, kernel, stride, padding)
        width = _conv_spatial(spec.width, kernel, stride, padding)
        if height < 1 or width < 1:
            self.report.error(
                "V008",
                path,
                "spatial resolution collapses below 1x1 "
                f"(input {spec.height}x{spec.width}, kernel {kernel}, stride {stride})",
                expected=">= 1x1",
                actual=f"{height}x{width}",
            )
            height = width = 1  # keep tracing with a sane floor
        return replace(spec, height=height, width=width)

    def _conv(self, conv: Conv2d, spec: TensorSpec, path: str) -> TensorSpec:
        if conv.out_channels < 1 or conv.in_channels < 1:
            self.report.error(
                "V007",
                path,
                "convolution has a zero-width channel dimension",
                expected=">= 1",
                actual=f"{conv.in_channels} in / {conv.out_channels} out",
            )
        if conv.in_channels != spec.channels:
            self.report.error(
                "V001",
                path,
                "convolution input channels disagree with the incoming activation",
                expected=spec.channels,
                actual=conv.in_channels,
            )
        out = replace(spec, channels=conv.out_channels)
        if self._check_spatial_input(conv, spec, path):
            out = self._spatial_after(out, conv.kernel_size, conv.stride, conv.padding, path)
        activation = getattr(conv, "activation", None)
        kind = None
        if activation == "relu":
            kind = "Conv2dReLU"
        elif activation is not None:
            self.report.warn(
                "V013",
                path,
                f"convolution requests fused activation {activation!r} which the "
                "runtime does not implement; tracing it as a plain convolution",
            )
        self._record(conv, spec, out, path, kind=kind)
        return out

    def _generic_conv_like(self, module: Module, spec: TensorSpec, path: str) -> TensorSpec:
        """Anything exposing the conv-like protocol (in/out channels, k, s, p)."""
        if module.in_channels != spec.channels:
            self.report.error(
                "V001",
                path,
                f"{type(module).__name__} input channels disagree with the incoming activation",
                expected=spec.channels,
                actual=module.in_channels,
            )
        out = replace(spec, channels=module.out_channels)
        if self._check_spatial_input(module, spec, path):
            out = self._spatial_after(
                out,
                getattr(module, "kernel_size", 1),
                getattr(module, "stride", 1),
                getattr(module, "padding", 0),
                path,
            )
        self._record(module, spec, out, path)
        return out

    def _tucker(self, conv: TuckerConv2d, spec: TensorSpec, path: str) -> TensorSpec:
        r_out, r_in = conv.ranks
        first_rank = conv.first_weight.shape[0]
        last_rank = conv.last_weight.shape[1]
        if r_in < 1 or r_out < 1:
            self.report.error(
                "V005", path, "Tucker factorisation has a non-positive rank",
                expected=">= 1", actual=f"({r_out}, {r_in})",
            )
        if first_rank != r_in or last_rank != r_out:
            self.report.error(
                "V005",
                path,
                "Tucker factor matrices disagree with the core tensor's ranks",
                expected=f"({r_out}, {r_in})",
                actual=f"({last_rank}, {first_rank})",
            )
        if r_in > conv.in_channels or r_out > conv.out_channels:
            self.report.warn(
                "V006",
                path,
                "Tucker ranks exceed the layer's channel counts; the "
                "factorisation stores more parameters than a plain convolution",
                expected=f"<= ({conv.out_channels}, {conv.in_channels})",
                actual=f"({r_out}, {r_in})",
            )
        return self._generic_conv_like(conv, spec, path)

    def _basis(self, conv: BasisConv2d, spec: TensorSpec, path: str) -> TensorSpec:
        basis = conv.basis_size
        coeff_rank = conv.coeff_weight.shape[1]
        if basis < 1:
            self.report.error(
                "V005", path, "filter basis is empty", expected=">= 1", actual=basis
            )
        if coeff_rank != basis:
            self.report.error(
                "V005",
                path,
                "recombination coefficients disagree with the basis size",
                expected=basis,
                actual=coeff_rank,
            )
        if basis >= conv.out_channels > 0:
            self.report.warn(
                "V006",
                path,
                "filter basis is not smaller than the filter count; the "
                "factorisation does not compress this layer",
                expected=f"< {conv.out_channels}",
                actual=basis,
            )
        return self._generic_conv_like(conv, spec, path)

    def _bn(self, bn: BatchNorm2d, spec: TensorSpec, path: str) -> TensorSpec:
        if bn.num_features != spec.channels:
            self.report.error(
                "V002",
                path,
                "batch-norm feature count disagrees with the incoming channels",
                expected=spec.channels,
                actual=bn.num_features,
            )
        if np.any(bn.running_var < 0):
            self.report.warn(
                "V011", path, "batch-norm running variance has negative entries"
            )
        self._record(bn, spec, spec, path)
        return spec

    def _linear(self, linear: Linear, spec: TensorSpec, path: str) -> TensorSpec:
        if linear.out_features < 1:
            self.report.error(
                "V007", path, "linear layer has zero output features",
                expected=">= 1", actual=linear.out_features,
            )
        if linear.in_features != spec.features:
            self.report.error(
                "V003",
                path,
                "linear fan-in disagrees with the flattened feature count",
                expected=spec.features,
                actual=linear.in_features,
            )
        out = TensorSpec(channels=linear.out_features)
        self._record(linear, spec, out, path)
        return out

    def _pool(self, pool: Module, spec: TensorSpec, path: str) -> TensorSpec:
        out = spec
        if self._check_spatial_input(pool, spec, path):
            out = self._spatial_after(spec, pool.kernel_size, pool.stride, 0, path)
        self._record(pool, spec, out, path)
        return out

    def _global_pool(self, pool: Module, spec: TensorSpec, path: str) -> TensorSpec:
        out = TensorSpec(channels=spec.channels)
        self._record(pool, spec, out, path)
        return out

    def _flatten(self, module: Module, spec: TensorSpec, path: str) -> TensorSpec:
        out = TensorSpec(channels=spec.features)
        self._record(module, spec, out, path)
        return out

    def _passthrough(self, module: Module, spec: TensorSpec, path: str) -> TensorSpec:
        self._record(module, spec, spec, path)
        return spec

    # ------------------------------------------------------------------ #
    # Composites
    # ------------------------------------------------------------------ #
    def _sequential(self, seq: Sequential, spec: TensorSpec, path: str) -> TensorSpec:
        for name, child in seq._modules.items():
            spec = self.trace(child, spec, _join(path, name))
        return spec

    def _residual(self, block: Module, branch, spec: TensorSpec, path: str) -> TensorSpec:
        """Trace a main branch and its shortcut, checking merge alignment."""
        main = branch(spec)
        if block.downsample is not None:
            skip = self.trace(block.downsample, spec, _join(path, "downsample"))
        else:
            skip = spec
        if main.channels != skip.channels:
            self.report.error(
                "V004",
                path,
                "residual branch and shortcut disagree in channels at the merge",
                expected=skip.channels,
                actual=main.channels,
            )
        if main.spatial and skip.spatial and (
            main.height != skip.height or main.width != skip.width
        ):
            self.report.error(
                "V004",
                path,
                "residual branch and shortcut disagree in spatial size at the merge",
                expected=f"{skip.height}x{skip.width}",
                actual=f"{main.height}x{main.width}",
            )
        # The merge is a real fused op at runtime (F.add_relu) with its own
        # FLOPs, so it gets a node of its own.
        self._record(block, main, main, _join(path, "add_relu"), kind="AddReLU")
        return main

    def _basic_block(self, block: BasicBlock, spec: TensorSpec, path: str) -> TensorSpec:
        def branch(s: TensorSpec) -> TensorSpec:
            s = self.trace(block.conv1, s, _join(path, "conv1"))
            s = self.trace(block.bn1, s, _join(path, "bn1"))
            s = self.trace(block.conv2, s, _join(path, "conv2"))
            return self.trace(block.bn2, s, _join(path, "bn2"))

        return self._residual(block, branch, spec, path)

    def _bottleneck(self, block: Bottleneck, spec: TensorSpec, path: str) -> TensorSpec:
        def branch(s: TensorSpec) -> TensorSpec:
            s = self.trace(block.conv1, s, _join(path, "conv1"))
            s = self.trace(block.bn1, s, _join(path, "bn1"))
            s = self.trace(block.conv2, s, _join(path, "conv2"))
            s = self.trace(block.bn2, s, _join(path, "bn2"))
            s = self.trace(block.conv3, s, _join(path, "conv3"))
            return self.trace(block.bn3, s, _join(path, "bn3"))

        return self._residual(block, branch, spec, path)

    def _stem_blocks_head(self, model: Module, spec: TensorSpec, path: str) -> TensorSpec:
        spec = self.trace(model.conv1, spec, _join(path, "conv1"))
        spec = self.trace(model.bn1, spec, _join(path, "bn1"))
        spec = self.trace(model.blocks, spec, _join(path, "blocks"))
        spec = self.trace(model.pool, spec, _join(path, "pool"))
        return self.trace(model.classifier, spec, _join(path, "classifier"))

    def _vgg(self, model: VGG, spec: TensorSpec, path: str) -> TensorSpec:
        spec = self.trace(model.features, spec, _join(path, "features"))
        spec = self.trace(model.pool, spec, _join(path, "pool"))
        return self.trace(model.classifier, spec, _join(path, "classifier"))


def trace_model(
    model: Module,
    input_shape=(3, 32, 32),
    report: Optional[Report] = None,
) -> ModelGraph:
    """Trace ``model`` on a symbolic input, returning the structural graph.

    ``input_shape`` is ``(C, H, W)`` for an image or ``(features,)`` for a
    flat input.  Diagnostics go into ``report`` when given (otherwise they
    are discarded — use :func:`repro.analysis.verify_model` for the checking
    entry point).
    """
    spec = TensorSpec(*input_shape)
    tracer = GraphTracer(report if report is not None else Report(subject="trace"), spec)
    tracer.graph.output = tracer.trace(model, spec)
    return tracer.graph

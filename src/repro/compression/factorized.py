"""Factorised convolution layers produced by low-rank compression.

Both layers behave exactly like a :class:`~repro.nn.Conv2d` in the forward
pass but store fewer parameters.  They participate in the pruning-graph
protocol as *consumers* (their input channels can be shrunk) but are not
prunable producers themselves — once a layer is factorised its output
channels are tied to the recombination matrix.

:func:`factorize_largest_first` is the one walk that decides which
convolutions HOS (C5) and LFB (C6) factorise; the executed methods and the
static cost model's effect signatures both call it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Tuple, TypeVar

import numpy as np

from ..nn import Conv2d, Module, Parameter
from ..nn import functional as F
from ..nn.tensor import Tensor


class TuckerConv2d(Module):
    """Tucker-2 factorised convolution: 1x1 -> k x k core -> 1x1.

    Produced by HOOI decomposition (method C5).  For weight W of shape
    (F, C, k, k) and ranks (r_out, r_in):

    * ``first``: pointwise conv C -> r_in (the input factor U_in^T),
    * ``core``: k x k conv r_in -> r_out (the core tensor),
    * ``last``: pointwise conv r_out -> F (the output factor U_out).
    """

    is_conv_like = True
    prunable_output = False

    def __init__(
        self,
        in_factor: np.ndarray,   # (C, r_in)
        core: np.ndarray,        # (r_out, r_in, k, k)
        out_factor: np.ndarray,  # (F, r_out)
        bias: Optional[np.ndarray],
        stride: int,
        padding: int,
    ):
        super().__init__()
        r_out, r_in, kh, kw = core.shape
        self.stride = stride
        self.padding = padding
        self.kernel_size = kh
        self.first_weight = Parameter(in_factor.T.reshape(r_in, in_factor.shape[0], 1, 1))
        self.core_weight = Parameter(core)
        self.last_weight = Parameter(out_factor.reshape(out_factor.shape[0], r_out, 1, 1))
        self.bias = Parameter(bias) if bias is not None else None

    @property
    def in_channels(self) -> int:
        return self.first_weight.shape[1]

    @property
    def out_channels(self) -> int:
        return self.last_weight.shape[0]

    @property
    def ranks(self) -> tuple:
        return (self.core_weight.shape[0], self.core_weight.shape[1])

    def forward(self, x: Tensor) -> Tensor:
        out = F.conv2d(x, self.first_weight, None, stride=1, padding=0)
        out = F.conv2d(out, self.core_weight, None, stride=self.stride, padding=self.padding)
        return F.conv2d(out, self.last_weight, self.bias, stride=1, padding=0)

    # Pruning-graph consumer protocol -------------------------------------
    def shrink_input_channels(self, keep: np.ndarray) -> None:
        self.first_weight.data = np.ascontiguousarray(self.first_weight.data[:, keep])
        self.first_weight.grad = None

    def input_cost_per_channel(self) -> int:
        return self.first_weight.shape[0]

    def __repr__(self) -> str:
        return (
            f"TuckerConv2d({self.in_channels}->{self.out_channels}, "
            f"ranks={self.ranks}, k={self.kernel_size})"
        )


class BasisConv2d(Module):
    """Filter-basis factorised convolution (method C6, LFB).

    The layer's F filters are expressed as linear combinations of ``b``
    shared basis filters: a k x k convolution with the basis followed by a
    pointwise recombination.
    """

    is_conv_like = True
    prunable_output = False

    def __init__(
        self,
        basis: np.ndarray,         # (b, C, k, k)
        coefficients: np.ndarray,  # (F, b)
        bias: Optional[np.ndarray],
        stride: int,
        padding: int,
    ):
        super().__init__()
        self.stride = stride
        self.padding = padding
        self.kernel_size = basis.shape[2]
        self.basis_weight = Parameter(basis)
        self.coeff_weight = Parameter(coefficients.reshape(*coefficients.shape, 1, 1))
        self.bias = Parameter(bias) if bias is not None else None

    @property
    def in_channels(self) -> int:
        return self.basis_weight.shape[1]

    @property
    def out_channels(self) -> int:
        return self.coeff_weight.shape[0]

    @property
    def basis_size(self) -> int:
        return self.basis_weight.shape[0]

    def forward(self, x: Tensor) -> Tensor:
        out = F.conv2d(x, self.basis_weight, None, stride=self.stride, padding=self.padding)
        return F.conv2d(out, self.coeff_weight, self.bias, stride=1, padding=0)

    # Pruning-graph consumer protocol -------------------------------------
    def shrink_input_channels(self, keep: np.ndarray) -> None:
        self.basis_weight.data = np.ascontiguousarray(self.basis_weight.data[:, keep])
        self.basis_weight.grad = None

    def input_cost_per_channel(self) -> int:
        b = self.basis_weight.shape
        return b[0] * b[2] * b[3]

    def __repr__(self) -> str:
        return (
            f"BasisConv2d({self.in_channels}->{self.out_channels}, "
            f"basis={self.basis_size}, k={self.kernel_size})"
        )


def replace_module(model: Module, dotted: str, new_module: Module) -> None:
    """Swap the module at ``dotted`` path (e.g. ``blocks.3.conv1``) in place."""
    parts = dotted.split(".")
    parent = model
    for part in parts[:-1]:
        parent = parent._modules[part]
    parent.add_module(parts[-1], new_module)


Layer = TypeVar("Layer")
Choice = TypeVar("Choice")


def factorize_largest_first(
    convs: Iterable[Tuple[Layer, int, int, int]],
    budget: int,
    min_out: int,
    min_in: int,
    plan: Callable[[int, int, int, int], Tuple[int, Choice]],
    commit: Callable[[Layer, Choice], None],
) -> int:
    """Factorise the largest convolutions until ``budget`` weights are saved.

    ``convs`` lists ``(layer, f, c, k)`` for each plain convolution of a
    model, in definition order.  Those with ``k >= 2``, ``f >= min_out`` and
    ``c >= min_in`` are visited largest weight first (ties keep their
    order).  ``plan(f, c, k, needed)`` returns the weights the factorised
    kernel keeps and the choice (ranks, basis size) that keeps them; a layer
    whose plan would not shrink it is skipped, the rest are handed to
    ``commit(layer, choice)``, and the walk stops once the budget is met.
    Returns the weights saved.
    """
    candidates = sorted(
        (conv for conv in convs if conv[3] >= 2 and conv[1] >= min_out and conv[2] >= min_in),
        key=lambda conv: -conv[1] * conv[2] * conv[3] * conv[3],
    )
    saved = 0
    for layer, f, c, k in candidates:
        if saved >= budget:
            break
        size = f * c * k * k
        new_size, choice = plan(f, c, k, budget - saved)
        if new_size < size:
            commit(layer, choice)
            saved += size - new_size
    return saved


def factorize_convs(
    model: Module,
    budget: int,
    min_out: int,
    min_in: int,
    plan: Callable[[int, int, int, int], Tuple[int, Choice]],
    build: Callable[[Conv2d, Choice], Module],
) -> int:
    """:func:`factorize_largest_first` over ``model``'s ``Conv2d`` layers,
    swapping each chosen one for ``build(conv, choice)``."""
    convs = [
        ((name, module), *module.weight.shape[:2], module.kernel_size)
        for name, module in model.named_modules()
        if isinstance(module, Conv2d)
    ]

    def swap(layer: Tuple[str, Conv2d], choice: Choice) -> None:
        replace_module(model, layer[0], build(layer[1], choice))

    return factorize_largest_first(convs, budget, min_out, min_in, plan, swap)

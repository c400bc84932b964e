"""Layer/module system for the numpy neural-network substrate.

:class:`Module` mirrors the familiar ``torch.nn.Module`` contract: modules own
:class:`Parameter` leaves and child modules, expose ``named_parameters()`` /
``state_dict()`` traversal, and switch between ``train()`` and ``eval()``
modes.  The compression code in :mod:`repro.compression` performs *structural
surgery* directly on these modules (replacing weight arrays with smaller
ones), so layers keep their configuration (``out_channels`` etc.) derived
from the current weight shapes rather than from construction-time arguments.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import functional as F
from . import init
from .tensor import _ATOMIC, Tensor, _deepcopy_value, get_default_dtype


class Parameter(Tensor):
    """A tensor registered as a trainable leaf of a module.

    Parameters are stored in the global default dtype (float32 unless
    :func:`repro.nn.set_default_dtype` says otherwise) so the whole training
    hot path runs at one precision.
    """

    def __init__(self, data: np.ndarray, name: str = ""):
        super().__init__(
            np.asarray(data, dtype=get_default_dtype()), requires_grad=True, name=name
        )


class Module:
    """Base class for all layers and models."""

    def __init__(self):
        self._parameters: Dict[str, Parameter] = {}
        self._buffers: Dict[str, np.ndarray] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True

    # ------------------------------------------------------------------ #
    # Registration / traversal
    # ------------------------------------------------------------------ #
    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    def __deepcopy__(self, memo: dict) -> "Module":
        """Copy the module tree attribute by attribute.

        Equivalent to the stdlib's reduce-based copy but without its
        per-object reduce round trip.  The copy is in ``memo`` before its
        attributes are copied, and each attribute goes through the shared
        memo, so ``self.weight`` and ``self._parameters["weight"]`` stay one
        object in the copy.
        """
        cls = type(self)
        result = cls.__new__(cls)
        memo[id(self)] = result
        state = {}
        for name, value in self.__dict__.items():
            state[name] = value if type(value) in _ATOMIC else _deepcopy_value(value, memo)
        object.__setattr__(result, "__dict__", state)
        return result

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def add_module(self, name: str, module: "Module") -> None:
        self._modules[name] = module
        object.__setattr__(self, name, module)

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield (prefix.rstrip("."), self)
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        for _, m in self.named_modules():
            yield m

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name in self._buffers:
            yield (f"{prefix}{name}", self._buffers[name])
        for name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{name}.")

    # ------------------------------------------------------------------ #
    # Mode / gradient management
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for m in self._modules.values():
            m.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        """Logical parameter count: own parameters plus children, recursively.

        Recursive (rather than a flat sum over ``parameters()``) so leaves
        with non-Parameter storage — e.g. quantized layers whose weights
        live in int8 buffers — can override this to report their logical
        element count and keep P(M) precision-independent.
        """
        total = sum(p.size for p in self._parameters.values())
        for module in self._modules.values():
            total += module.num_parameters()
        return total

    # ------------------------------------------------------------------ #
    # State dict
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        for name, buf in self.named_buffers():
            state[name] = buf.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        for name, p in self.named_parameters():
            if name not in state:
                raise KeyError(f"missing parameter {name!r} in state dict")
            if p.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: "
                    f"{p.data.shape} vs {state[name].shape}"
                )
            # Cast to the parameter's dtype: checkpoints written at another
            # precision must not silently change the model's compute dtype.
            p.data = np.asarray(state[name], dtype=p.data.dtype).copy()
        for name, _ in self.named_buffers():
            if name in state:
                self._assign_buffer(name, state[name])

    def _assign_buffer(self, dotted: str, value: np.ndarray) -> None:
        parts = dotted.split(".")
        target = self
        for part in parts[:-1]:
            target = target._modules[part]
        target._buffers[parts[-1]][...] = value

    # ------------------------------------------------------------------ #
    # Forward
    # ------------------------------------------------------------------ #
    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs) -> Tensor:
        return self.forward(*args, **kwargs)


class Conv2d(Module):
    """2D convolution over NCHW input."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.stride = stride
        self.padding = padding
        self.kernel_size = kernel_size
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            init.kaiming_normal(
                (out_channels, in_channels, kernel_size, kernel_size), fan_in, rng
            )
        )
        self.bias = Parameter(np.zeros(out_channels)) if bias else None

    @property
    def in_channels(self) -> int:
        return self.weight.shape[1]

    @property
    def out_channels(self) -> int:
        return self.weight.shape[0]

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, self.stride, self.padding)

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride})"
        )


class Linear(Module):
    """Affine layer over (N, in_features)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.weight = Parameter(
            init.kaiming_uniform((out_features, in_features), in_features, rng)
        )
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    @property
    def in_features(self) -> int:
        return self.weight.shape[1]

    @property
    def out_features(self) -> int:
        return self.weight.shape[0]

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"


class BatchNorm2d(Module):
    """Batch normalisation over the channel dim of NCHW input."""

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(num_features))
        self.beta = Parameter(np.zeros(num_features))
        dtype = get_default_dtype()
        self.register_buffer("running_mean", np.zeros(num_features, dtype=dtype))
        self.register_buffer("running_var", np.ones(num_features, dtype=dtype))

    @property
    def num_features(self) -> int:
        return self.gamma.shape[0]

    def forward(self, x: Tensor) -> Tensor:
        return F.batch_norm(
            x,
            self.gamma,
            self.beta,
            self.running_mean,
            self.running_var,
            self.training,
            self.momentum,
            self.eps,
        )

    def __repr__(self) -> str:
        return f"BatchNorm2d({self.num_features})"


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()

    def __repr__(self) -> str:
        return "ReLU()"


class MaxPool2d(Module):
    def __init__(self, kernel_size: int = 2, stride: Optional[int] = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)

    def __repr__(self) -> str:
        return f"MaxPool2d({self.kernel_size})"


class AvgPool2d(Module):
    def __init__(self, kernel_size: int = 2, stride: Optional[int] = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size, self.stride)


class GlobalAvgPool2d(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool2d(x)

    def __repr__(self) -> str:
        return "GlobalAvgPool2d()"


class Flatten(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.flatten(x)

    def __repr__(self) -> str:
        return "Flatten()"


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x

    def __repr__(self) -> str:
        return "Identity()"


class Sequential(Module):
    """Chain of modules applied in order, indexable like a list."""

    def __init__(self, *modules: Module):
        super().__init__()
        for i, module in enumerate(modules):
            self.add_module(str(i), module)

    def __getitem__(self, index: int) -> Module:
        return self._modules[str(index % len(self._modules))]

    def __len__(self) -> int:
        return len(self._modules)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules.values())

    def forward(self, x: Tensor) -> Tensor:
        for module in self._modules.values():
            x = module(x)
        return x

    def __repr__(self) -> str:
        inner = ", ".join(repr(m) for m in self)
        return f"Sequential({inner})"


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors (used by F_mo)."""

    def __init__(self, num_embeddings: int, dim: int, rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.weight = Parameter(rng.normal(0, 0.1, size=(num_embeddings, dim)))

    @property
    def num_embeddings(self) -> int:
        return self.weight.shape[0]

    @property
    def dim(self) -> int:
        return self.weight.shape[1]

    def forward(self, ids: np.ndarray) -> Tensor:
        return self.weight[np.asarray(ids, dtype=np.int64)]

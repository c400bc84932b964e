"""Reverse-mode automatic differentiation over numpy arrays.

This module is the lowest layer of the ``repro.nn`` substrate.  It provides a
:class:`Tensor` wrapper around ``numpy.ndarray`` that records a tape of
operations so gradients can be computed with :meth:`Tensor.backward`.  The
design intentionally mirrors the small core of PyTorch's autograd:

* every op returns a new :class:`Tensor` whose ``_backward`` closure knows how
  to push gradients to its parents;
* broadcasting is fully supported — gradients are "unbroadcast" (summed) back
  to the parent shapes;
* :meth:`Tensor.backward` runs a topological sort of the tape and accumulates
  ``.grad`` arrays on every tensor with ``requires_grad=True``.

Only float64/float32 arrays are supported; all gradients use the dtype of the
forward data.  The default construction dtype is float32 (see
:func:`set_default_dtype`) — training throughput on the numpy substrate is
memory-bandwidth bound, so halving element width roughly doubles it.
Gradient-check tests that probe with central differences opt back into
float64 via :func:`default_dtype`.

:func:`no_grad` disables tape construction entirely: ops executed inside the
context return plain value tensors with no parents and no backward closures,
which is the fast path for accuracy evaluation and other pure inference.
"""

from __future__ import annotations

import copy
import sys
import threading
import traceback
from contextlib import contextmanager
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]


# --------------------------------------------------------------------------- #
# Default dtype (float32 for training throughput; float64 for grad checks)
# --------------------------------------------------------------------------- #
_DEFAULT_DTYPE = np.dtype(np.float32)


def get_default_dtype() -> np.dtype:
    """The dtype new tensors (and parameters/buffers) are created with."""
    return _DEFAULT_DTYPE


def set_default_dtype(dtype) -> None:
    """Set the global construction dtype (float32 or float64).

    Everything downstream — parameters, im2col buffers, dropout masks, batch
    norm running statistics — follows this dtype, so a single call switches
    the whole substrate between fast float32 training and float64 precision.
    """
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"default dtype must be float32 or float64, got {dtype}")
    global _DEFAULT_DTYPE
    _DEFAULT_DTYPE = dtype


@contextmanager
def default_dtype(dtype):
    """Scoped :func:`set_default_dtype` (used by the gradient-check tests)."""
    previous = _DEFAULT_DTYPE
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(previous)


# --------------------------------------------------------------------------- #
# Gradient mode (no_grad skips tape construction for pure inference)
# --------------------------------------------------------------------------- #
# Thread-local on purpose: concurrent engines (one thread per search job in
# `repro serve`) mix inference and training.  A process-global flag would let
# one job's no_grad() forward pass silently stop another job's training from
# recording its tape.
_GRAD = threading.local()


def is_grad_enabled() -> bool:
    """Whether ops on this thread currently record the autodiff tape."""
    return getattr(_GRAD, "enabled", True)


@contextmanager
def no_grad():
    """Disable autodiff tape construction inside the context.

    Ops still compute forward values but skip parent tracking and
    ``_backward`` closures, so inference costs only the numpy work.  The
    context nests, is exception-safe, and affects only the calling thread;
    calling :meth:`Tensor.backward` inside it raises a clear
    :class:`RuntimeError`.
    """
    previous = getattr(_GRAD, "enabled", True)
    _GRAD.enabled = False
    try:
        yield
    finally:
        _GRAD.enabled = previous


# --------------------------------------------------------------------------- #
# Anomaly detection (the autodiff sanitizer used by repro.analysis)
# --------------------------------------------------------------------------- #
class AnomalyError(ArithmeticError):
    """An op produced NaN/Inf data or gradients while anomaly mode was on."""

    def __init__(self, op: str, phase: str, kind: str, context: str = ""):
        self.op = op or "<leaf or untracked op>"
        self.phase = phase
        self.kind = kind
        self.context = context
        message = f"{phase} pass produced {kind} in the output of op {self.op!r}"
        if context:
            message += f"\ntensor created at:\n{context}"
        super().__init__(message)


class _AnomalyState:
    __slots__ = ("check_nan", "check_inf", "capture_stacks", "context_frames")

    def __init__(self, check_nan: bool, check_inf: bool, capture_stacks: bool, context_frames: int):
        self.check_nan = check_nan
        self.check_inf = check_inf
        self.capture_stacks = capture_stacks
        self.context_frames = context_frames

    def bad_kind(self, data: np.ndarray) -> Optional[str]:
        """Name of the first anomaly present in ``data``, or None."""
        if self.check_nan and self.check_inf:
            if not np.isfinite(data).all():
                return "NaN" if np.isnan(data).any() else "Inf"
            return None
        if self.check_nan and np.isnan(data).any():
            return "NaN"
        if self.check_inf and np.isinf(data).any():
            return "Inf"
        return None


_ANOMALY: Optional[_AnomalyState] = None


def anomaly_enabled() -> bool:
    """Whether an anomaly-detection context is currently active."""
    return _ANOMALY is not None


@contextmanager
def detect_anomaly(
    check_nan: bool = True,
    check_inf: bool = True,
    capture_stacks: bool = True,
    context_frames: int = 6,
):
    """Check tensors for NaN/Inf at op boundaries, forward and backward.

    Inside the context every op output is validated as it is created, and the
    backward pass validates each gradient as it is produced, so an
    :class:`AnomalyError` names the *originating* op (with the Python stack
    where its output tensor was created) rather than a symptom far
    downstream.  Opt-in because the checks and stack captures cost time —
    mirror of ``torch.autograd.detect_anomaly``.
    """
    global _ANOMALY
    previous = _ANOMALY
    _ANOMALY = _AnomalyState(check_nan, check_inf, capture_stacks, context_frames)
    try:
        yield
    finally:
        _ANOMALY = previous


def _capture_context(state: _AnomalyState) -> str:
    if not state.capture_stacks:
        return ""
    here = __file__
    frames = [f for f in traceback.extract_stack() if f.filename != here]
    return "".join(traceback.format_list(frames[-state.context_frames:]))


def _register_op(out: "Tensor", op: str) -> "Tensor":
    """Attach op metadata to ``out`` and validate it (anomaly mode only)."""
    state = _ANOMALY
    if state is None:
        return out
    out._op = op
    out._ctx = _capture_context(state)
    kind = state.bad_kind(out.data)
    if kind is not None:
        raise AnomalyError(op, "forward", kind, out._ctx)
    return out


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` so that it has ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum out the leading dimensions added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum the dimensions that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike, dtype=None) -> np.ndarray:
    target = _DEFAULT_DTYPE if dtype is None else np.dtype(dtype)
    if isinstance(value, np.ndarray):
        if value.dtype == target:
            return value
        return value.astype(target)
    return np.asarray(value, dtype=target)


# --------------------------------------------------------------------------- #
# Structural deep copy (Tensor.__deepcopy__ and Module.__deepcopy__)
# --------------------------------------------------------------------------- #
#: types ``copy.deepcopy`` returns as they are
_ATOMIC = frozenset({type(None), bool, int, float, complex, str, bytes})
_MISSING = object()


def _deepcopy_value(value, memo: dict):
    """``copy.deepcopy(value, memo)`` with a model's common leaves inlined.

    An exact ``np.ndarray`` of a non-object dtype is copied with
    ``copy(order="K")``, as ``ndarray.__deepcopy__`` does, so strided and
    F-ordered layouts survive.  Arrays and plain dicts are registered in
    ``memo`` before anything else is copied, so two names for one object
    stay one object in the copy.  A value whose class has a
    ``__deepcopy__`` (a child module or :class:`Tensor`) is passed to it
    directly, as :func:`copy.deepcopy` would do after its dispatch; every
    other value goes to :func:`copy.deepcopy`.
    """
    cls = type(value)
    if cls in _ATOMIC:
        return value
    found = memo.get(id(value), _MISSING)
    if found is not _MISSING:
        return found
    if cls is np.ndarray and not value.dtype.hasobject:
        result = value.copy(order="K")
        memo[id(value)] = result
        return result
    if cls is tuple and not value:
        return value
    if cls is dict:
        result = {}
        memo[id(value)] = result
        for key, item in value.items():
            result[_deepcopy_value(key, memo)] = _deepcopy_value(item, memo)
        return result
    copier = getattr(cls, "__deepcopy__", None)
    if copier is not None:
        # what copy.deepcopy would call, without its dispatch round trip
        result = copier(value, memo)
        if result is not value:
            memo[id(value)] = result
        return result
    return copy.deepcopy(value, memo)


class _TensorMeta(type):
    @property
    def inference(cls) -> bool:
        """Class-level mirror of this thread's grad mode — True inside :func:`no_grad`."""
        return not is_grad_enabled()


class Tensor(metaclass=_TensorMeta):
    """A numpy array plus the bookkeeping needed for reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name", "_op", "_ctx")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        name: str = "",
        dtype=None,
    ):
        self.data = _as_array(data, dtype=dtype)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents = _parents
        self.name = name
        # Populated by _register_op while anomaly mode is active.
        self._op = ""
        self._ctx = ""

    # ------------------------------------------------------------------ #
    # Introspection helpers
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """A new tensor sharing data but cut from the autodiff graph."""
        return Tensor(self.data, requires_grad=False, dtype=self.data.dtype)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad, dtype=self.data.dtype)

    def zero_grad(self) -> None:
        self.grad = None

    def __deepcopy__(self, memo: dict) -> "Tensor":
        """Copy the slots (and a subclass's ``__dict__``) value by value.

        Same result as the stdlib's reduce-based copy: ``_backward``
        closures are shared, ``_parents`` and ``grad`` are copied.
        """
        cls = type(self)
        result = cls.__new__(cls)
        memo[id(self)] = result
        for name in Tensor.__slots__:
            value = getattr(self, name, _MISSING)
            if value is _MISSING:
                continue
            if type(value) not in _ATOMIC:
                value = _deepcopy_value(value, memo)
            setattr(result, name, value)
        state = getattr(self, "__dict__", None)
        if state:
            result.__dict__.update(_deepcopy_value(state, memo))
        return result

    # ------------------------------------------------------------------ #
    # Graph construction
    # ------------------------------------------------------------------ #
    def _make(
        self,
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        # Op results keep the dtype the computation produced — the default
        # dtype governs construction of *new* tensors, not propagation.
        out = Tensor(
            data, requires_grad=requires, _parents=parents if requires else (),
            dtype=data.dtype,
        )
        if requires:
            out._backward = backward
        if _ANOMALY is not None:
            # The caller is the op method itself (__add__, relu, conv2d, ...).
            _register_op(out, sys._getframe(1).f_code.co_name)
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = grad.copy() if grad.base is not None or grad.flags.writeable is False else grad
        else:
            self.grad = self.grad + grad

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad, self.shape))
            other._accumulate(_unbroadcast(grad, other.shape))

        return self._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad, self.shape))
            other._accumulate(_unbroadcast(-grad, other.shape))

        return self._make(data, (self, other), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad * other.data, self.shape))
            other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return self._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad / other.data, self.shape))
            other._accumulate(
                _unbroadcast(-grad * self.data / (other.data ** 2), other.shape)
            )

        return self._make(data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make(data, (self,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    ga = np.outer(grad, other.data) if grad.ndim == 1 else np.expand_dims(grad, -1) * other.data
                else:
                    ga = grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(np.asarray(ga), self.shape))
            if other.requires_grad:
                if self.data.ndim == 1:
                    gb = np.outer(self.data, grad) if grad.ndim == 1 else np.expand_dims(self.data, -1) @ np.expand_dims(grad, -2)
                else:
                    gb = np.swapaxes(self.data, -1, -2) @ grad
                other._accumulate(_unbroadcast(np.asarray(gb), other.shape))

        return self._make(data, (self, other), backward)

    # ------------------------------------------------------------------ #
    # Elementwise functions
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * data)

        return self._make(data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return self._make(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * 0.5 / data)

        return self._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - data ** 2))

        return self._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * data * (1.0 - data))

        return self._make(data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return self._make(data, (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * sign)

        return self._make(np.abs(self.data), (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        mask = (self.data >= low) & (self.data <= high)
        data = np.clip(self.data, low, high)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return self._make(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return self._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            full = self.data.max(axis=axis, keepdims=True)
            mask = (self.data == full).astype(self.data.dtype)
            mask = mask / mask.sum(axis=axis, keepdims=True)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(mask * g)

        return self._make(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(self.shape))

        return self._make(data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return self._make(data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return self._make(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to ones (i.e. this tensor is treated as a loss); a
        scalar loss is the common case.
        """
        if not is_grad_enabled():
            raise RuntimeError(
                "Tensor.backward() called inside no_grad(): the tape was never "
                "recorded. Run the forward pass outside no_grad() to train."
            )
        if grad is None:
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.asarray(grad, dtype=self.data.dtype)
        state = _ANOMALY
        if state is not None:
            kind = state.bad_kind(self.grad)
            if kind is not None:
                raise AnomalyError(self._op, "backward", kind, self._ctx)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                if state is not None:
                    # All grads were finite before this closure ran, so a bad
                    # parent grad pinpoints this node's op as the origin.
                    for parent in node._parents:
                        if parent.grad is None:
                            continue
                        kind = state.bad_kind(parent.grad)
                        if kind is not None:
                            raise AnomalyError(node._op, "backward", kind, node._ctx)
            # Free intermediate grads that nothing else needs? Keep them:
            # optimizers read leaf grads; intermediates are small in our nets.


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * grad.ndim
            sl[axis] = slice(start, stop)
            t._accumulate(grad[tuple(sl)])

    requires = is_grad_enabled() and any(t.requires_grad for t in tensors)
    out = Tensor(
        data, requires_grad=requires, _parents=tuple(tensors) if requires else (),
        dtype=data.dtype,
    )
    if requires:
        out._backward = backward
    return _register_op(out, "concat")


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient support."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        parts = np.split(grad, len(tensors), axis=axis)
        for t, part in zip(tensors, parts):
            t._accumulate(np.squeeze(part, axis=axis))

    requires = is_grad_enabled() and any(t.requires_grad for t in tensors)
    out = Tensor(
        data, requires_grad=requires, _parents=tuple(tensors) if requires else (),
        dtype=data.dtype,
    )
    if requires:
        out._backward = backward
    return _register_op(out, "stack")


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select with gradient support; ``condition`` is constant."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    cond = np.asarray(condition, dtype=bool)
    data = np.where(cond, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(_unbroadcast(grad * cond, a.shape))
        b._accumulate(_unbroadcast(grad * (~cond), b.shape))

    requires = is_grad_enabled() and (a.requires_grad or b.requires_grad)
    out = Tensor(
        data, requires_grad=requires, _parents=(a, b) if requires else (),
        dtype=data.dtype,
    )
    if requires:
        out._backward = backward
    return _register_op(out, "where")

"""``copy.deepcopy`` of modules and tensors equals an independent copy.

``Module.__deepcopy__`` and ``Tensor.__deepcopy__`` copy the model tree
attribute by attribute.  The reference here is a pickle round trip, which
never calls ``__deepcopy__``: both copies must hold the same module types,
the same array bytes and dtypes, and the same aliasing pattern (one object
reachable under two names stays one object).  Array layouts must match the
source, as ``ndarray.__deepcopy__`` keeps them, and the copy must share no
module, tensor or array with the source.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.compression import EXTENSION_METHODS, METHODS, ExecutionContext
from repro.compression.factorized import BasisConv2d, TuckerConv2d
from repro.models import available_models, create_model
from repro.nn import Module, Parameter, Tensor, no_grad
from repro.nn.quant import QuantizedConv2d

HP = {
    "HP1": 0.2, "HP2": 0.2, "HP4": 3, "HP5": 0.5, "HP6": 0.9, "HP7": 0.4,
    "HP8": "l2_weight", "HP9": 0.2, "HP10": 3, "HP11": "P1", "HP12": "l1norm",
    "HP13": 0.3, "HP14": 1, "HP15": 1.0, "HP16": "MSE", "HP17": 5, "HP18": 0.5,
    "HP20": 1,
}

#: (label, extra hyperparameters) of each state a model is copied in
VARIANTS = {
    "built": None,
    "C1": ("C1", {}),
    "C2": ("C2", {}),
    "C3": ("C3", {}),
    "C4": ("C4", {}),
    "C5": ("C5", {}),
    "C6": ("C6", {}),
    "C8-int8": ("C8", {"HP19": "int8"}),
    "C8-fp16": ("C8", {"HP19": "fp16"}),
}

INPUT = np.random.default_rng(7).normal(size=(1, 3, 32, 32)).astype(np.float32)


def _walk(root):
    """``(path, object)`` for every module, tensor and array reachable
    through module attributes, in attribute order; an object met again is
    listed again but not walked again."""
    found, walked = [], set()

    def visit(path, value):
        if isinstance(value, (Module, Tensor, np.ndarray)):
            found.append((path, value))
            if id(value) in walked:
                return
            walked.add(id(value))
        if isinstance(value, Module):
            for name, item in vars(value).items():
                visit(f"{path}.{name}", item)
        elif isinstance(value, Tensor):
            visit(f"{path}.data", value.data)
            visit(f"{path}.grad", value.grad)
            for i, parent in enumerate(value._parents):
                visit(f"{path}._parents[{i}]", parent)
        elif isinstance(value, (dict, list, tuple)):
            items = value.items() if isinstance(value, dict) else enumerate(value)
            for key, item in items:
                visit(f"{path}[{key!r}]", item)

    visit("", root)
    return found


def _alias_pattern(found):
    """Each path with the index of the first path naming the same object."""
    first = {}
    return [(path, first.setdefault(id(obj), i)) for i, (path, obj) in enumerate(found)]


def _arrays(found):
    return [(path, obj) for path, obj in found if isinstance(obj, np.ndarray)]


def _layout(a):
    """Strides of the dimensions longer than one (the others are arbitrary)."""
    return [st for st, n in zip(a.strides, a.shape) if n > 1]


def assert_copy_equivalent(source):
    """``copy.deepcopy(source)`` against a pickle round trip of ``source``."""
    before = [(path, a.tobytes()) for path, a in _arrays(_walk(source))]
    clone = copy.deepcopy(source)
    reference = pickle.loads(pickle.dumps(source))
    src, got, ref = _walk(source), _walk(clone), _walk(reference)

    # same tree: module types and paths
    assert [(p, type(o)) for p, o in got] == [(p, type(o)) for p, o in ref]
    assert [(p, type(o)) for p, o in got] == [(p, type(o)) for p, o in src]
    # registries and attributes alias the same objects, as in the reference
    assert _alias_pattern(got) == _alias_pattern(ref)
    # nothing is shared with the source
    assert not {id(o) for _, o in got} & {id(o) for _, o in src}
    for (path, a), (_, b), (_, s) in zip(_arrays(got), _arrays(ref), _arrays(src)):
        assert a.dtype == b.dtype and a.shape == b.shape, path
        assert a.tobytes() == b.tobytes(), path
        # ndarray.__deepcopy__ keeps the source layout (pickle does not)
        assert _layout(a) == _layout(s), path
        assert a.flags.c_contiguous == s.flags.c_contiguous, path
        assert a.flags.f_contiguous == s.flags.f_contiguous, path
        assert a.flags.writeable and not np.shares_memory(a, s), path
    for (path, a), (_, b) in zip(got, ref):
        if isinstance(a, Tensor):
            assert a.requires_grad == b.requires_grad and a.name == b.name, path
        if isinstance(a, Module):
            assert a.training == b.training, path
    assert clone.state_dict().keys() == reference.state_dict().keys()

    # a bit-identical forward (eval mode on both copies, never the source)
    clone.eval()
    reference.eval()
    with no_grad():
        out = clone(Tensor(INPUT)).data
        expected = reference(Tensor(INPUT)).data
    assert out.dtype == expected.dtype
    assert out.tobytes() == expected.tobytes()

    # mutating every array of the copy leaves the source as it was
    for _, a in _arrays(got):
        a[...] = 0
    assert [(path, a.tobytes()) for path, a in _arrays(_walk(source))] == before


@pytest.fixture(scope="module")
def built_models():
    """Each zoo model built once; tests work on pickle round trips of it."""
    return {name: create_model(name) for name in available_models()}


def _variant(model, variant):
    model = pickle.loads(pickle.dumps(model))
    if VARIANTS[variant] is None:
        return model
    label, extra = VARIANTS[variant]
    method = METHODS.get(label) or EXTENSION_METHODS[label]
    ctx = ExecutionContext(original_params=model.num_parameters(), train_enabled=False)
    method.apply(model, {**HP, **extra}, ctx)
    with no_grad():
        model(Tensor(INPUT))  # fills lazily built caches such as _wmat
    return model


@pytest.mark.parametrize("variant", list(VARIANTS))
@pytest.mark.parametrize("name", available_models())
def test_zoo_model_copy_matches_pickle(built_models, name, variant):
    model = _variant(built_models[name], variant)
    assert_copy_equivalent(model)


@pytest.mark.parametrize(
    "variant, layer", [("C5", TuckerConv2d), ("C6", BasisConv2d), ("C8-int8", QuantizedConv2d)]
)
def test_variants_reach_the_layers_they_name(built_models, variant, layer):
    model = _variant(built_models["resnet56"], variant)
    layers = [m for m in model.modules() if isinstance(m, layer)]
    assert layers
    if layer is QuantizedConv2d:
        assert all(isinstance(m._wmat, np.ndarray) for m in layers)
        clone = copy.deepcopy(model)
        for a, b in zip(layers, [m for m in clone.modules() if isinstance(m, layer)]):
            assert b._wmat is not a._wmat
            assert b._wmat.tobytes() == a._wmat.tobytes()


def test_factorized_layers_keep_strided_layouts():
    rng = np.random.default_rng(0)
    tucker = TuckerConv2d(
        rng.normal(size=(6, 3)), rng.normal(size=(4, 3, 3, 3)).transpose(0, 1, 3, 2),
        rng.normal(size=(5, 4)), rng.normal(size=5), stride=1, padding=1,
    )
    basis = BasisConv2d(
        np.asfortranarray(rng.normal(size=(2, 6, 3, 3))), rng.normal(size=(5, 2)),
        None, stride=1, padding=1,
    )
    assert not tucker.core_weight.data.flags.c_contiguous
    assert basis.basis_weight.data.flags.f_contiguous
    for layer in (tucker, basis):
        clone = copy.deepcopy(layer)
        for name, p in layer._parameters.items():
            if p is not None:
                q = clone._parameters[name]
                assert q is getattr(clone, name)
                assert _layout(q.data) == _layout(p.data)
                assert q.data.tobytes() == p.data.tobytes()


def test_non_leaf_tensor_round_trips():
    x = Parameter(np.arange(6.0).reshape(2, 3), name="x")
    x.note = {"tag": [1, 2]}  # a Parameter's own __dict__
    y = (x * x + 1.0).relu()
    y.sum().backward()
    clone = copy.deepcopy(y)
    assert type(clone) is Tensor and clone is not y
    assert clone.data.tobytes() == y.data.tobytes()
    assert clone.requires_grad and clone._backward is y._backward
    mul = clone._parents[0]._parents[0]
    # x * x: both parents are one copied x
    assert mul._parents[0] is mul._parents[1]
    x_copy = mul._parents[0]
    assert type(x_copy) is Parameter and x_copy is not x
    assert x_copy.name == "x" and x_copy.note == x.note and x_copy.note is not x.note
    assert x_copy.grad is not x.grad
    np.testing.assert_array_equal(x_copy.grad, x.grad)
    x_copy.grad[...] = 0
    x_copy.data[...] = 0
    assert x.grad.any() and x.data.any()

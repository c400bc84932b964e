"""Unit + property tests for the autodiff Tensor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.nn.tensor import Tensor, concat, stack, where

from .conftest import numeric_gradient

# Central-difference gradient checks need float64 precision.
pytestmark = pytest.mark.usefixtures("float64_gradcheck")


def _finite_arrays(shape=(3, 4)):
    return arrays(
        np.float64,
        shape,
        elements=st.floats(-3, 3, allow_nan=False, allow_infinity=False),
    )


class TestBasics:
    def test_construction_and_shape(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.ndim == 2
        assert t.size == 4
        assert not t.requires_grad

    def test_detach_cuts_graph(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert d.data is t.data

    def test_item_scalar(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_repr_mentions_shape(self):
        assert "shape=(2,)" in repr(Tensor([1.0, 2.0]))


class TestArithmetic:
    def test_add_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, [1, 1])
        np.testing.assert_allclose(b.grad, [1, 1])

    def test_broadcast_add_unbroadcasts_grad(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(b.grad, [2, 2, 2])

    def test_mul_backward(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([5.0, 7.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, [5, 7])
        np.testing.assert_allclose(b.grad, [2, 3])

    def test_div_backward(self):
        a = Tensor([4.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a / b).sum().backward()
        np.testing.assert_allclose(a.grad, [0.5])
        np.testing.assert_allclose(b.grad, [-1.0])

    def test_pow_backward(self):
        a = Tensor([3.0], requires_grad=True)
        (a ** 2).sum().backward()
        np.testing.assert_allclose(a.grad, [6.0])

    def test_scalar_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([2.0])

    def test_rsub_rdiv(self):
        a = Tensor([2.0], requires_grad=True)
        (1.0 - a).sum().backward()
        np.testing.assert_allclose(a.grad, [-1.0])
        a.zero_grad()
        (4.0 / a).sum().backward()
        np.testing.assert_allclose(a.grad, [-1.0])

    def test_matmul_backward_matches_numeric(self, rng):
        a_data = rng.normal(size=(3, 4))
        b_data = rng.normal(size=(4, 2))
        a = Tensor(a_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        ((a @ b) ** 2).sum().backward()

        num_a = numeric_gradient(lambda: float(((a_data @ b_data) ** 2).sum()), a_data)
        num_b = numeric_gradient(lambda: float(((a_data @ b_data) ** 2).sum()), b_data)
        np.testing.assert_allclose(a.grad, num_a, atol=1e-5)
        np.testing.assert_allclose(b.grad, num_b, atol=1e-5)


class TestElementwise:
    @pytest.mark.parametrize(
        "op, reference_grad",
        [
            ("exp", lambda x: np.exp(x)),
            ("tanh", lambda x: 1 - np.tanh(x) ** 2),
            ("sigmoid", lambda x: (1 / (1 + np.exp(-x))) * (1 - 1 / (1 + np.exp(-x)))),
            ("relu", lambda x: (x > 0).astype(float)),
            ("abs", lambda x: np.sign(x)),
        ],
    )
    def test_unary_gradients(self, op, reference_grad, rng):
        x_data = rng.normal(size=(5,))
        x = Tensor(x_data, requires_grad=True)
        getattr(x, op)().sum().backward()
        np.testing.assert_allclose(x.grad, reference_grad(x_data), atol=1e-10)

    def test_log_sqrt_gradients(self):
        x = Tensor([1.0, 4.0], requires_grad=True)
        x.log().sum().backward()
        np.testing.assert_allclose(x.grad, [1.0, 0.25])
        x.zero_grad()
        x.sqrt().sum().backward()
        np.testing.assert_allclose(x.grad, [0.5, 0.25])

    def test_clip_gradient_masks_out_of_range(self):
        x = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        x.clip(-1, 1).sum().backward()
        np.testing.assert_allclose(x.grad, [0, 1, 0])


class TestReductions:
    def test_sum_axis_keepdims(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = x.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_mean_gradient_scales(self):
        x = Tensor(np.ones((2, 4)), requires_grad=True)
        x.mean().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 4), 1 / 8))

    def test_var_matches_numpy(self, rng):
        data = rng.normal(size=(3, 5))
        np.testing.assert_allclose(
            Tensor(data).var(axis=1).data, data.var(axis=1), atol=1e-12
        )

    def test_max_gradient_splits_ties(self):
        x = Tensor([[1.0, 2.0, 2.0]], requires_grad=True)
        x.max(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0, 0.5, 0.5]])


class TestShapes:
    def test_reshape_roundtrip_grad(self):
        x = Tensor(np.arange(6.0), requires_grad=True)
        x.reshape(2, 3).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones(6))

    def test_transpose_grad(self, rng):
        data = rng.normal(size=(2, 3, 4))
        x = Tensor(data, requires_grad=True)
        (x.transpose(2, 0, 1) * 2).sum().backward()
        np.testing.assert_allclose(x.grad, np.full(data.shape, 2.0))

    def test_getitem_scatter_grad(self):
        x = Tensor(np.zeros(5), requires_grad=True)
        x[np.array([0, 0, 3])].sum().backward()
        np.testing.assert_allclose(x.grad, [2, 0, 0, 1, 0])

    def test_concat_and_stack_grads(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        concat([a, b]).sum().backward()
        np.testing.assert_allclose(a.grad, [1, 1])
        np.testing.assert_allclose(b.grad, [1])

        c = Tensor([1.0, 2.0], requires_grad=True)
        d = Tensor([3.0, 4.0], requires_grad=True)
        (stack([c, d]) * 3).sum().backward()
        np.testing.assert_allclose(c.grad, [3, 3])
        np.testing.assert_allclose(d.grad, [3, 3])

    def test_where_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        where(np.array([True, False]), a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [1, 0])
        np.testing.assert_allclose(b.grad, [0, 1])


class TestBackwardMechanics:
    def test_grad_accumulates_over_reuse(self):
        x = Tensor([2.0], requires_grad=True)
        (x * x).sum().backward()  # d(x^2)/dx = 2x = 4
        np.testing.assert_allclose(x.grad, [4.0])

    def test_diamond_graph(self):
        x = Tensor([1.0], requires_grad=True)
        a = x * 2
        b = x * 3
        (a + b).sum().backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_deep_chain_does_not_recurse(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(2000):  # would overflow a recursive backward
            y = y + 1.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_no_grad_on_constant_branch(self):
        x = Tensor([1.0], requires_grad=True)
        c = Tensor([2.0])
        (x * c).sum().backward()
        assert c.grad is None


class TestHypothesisGradients:
    @settings(max_examples=25, deadline=None)
    @given(_finite_arrays())
    def test_sum_of_squares_gradient(self, data):
        x = Tensor(data.copy(), requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * data, atol=1e-8)

    @settings(max_examples=25, deadline=None)
    @given(_finite_arrays((2, 3)), _finite_arrays((2, 3)))
    def test_addition_commutes_through_grad(self, a_data, b_data):
        a = Tensor(a_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        ((a + b) * (a + b)).sum().backward()
        np.testing.assert_allclose(a.grad, b.grad, atol=1e-8)

    @settings(max_examples=20, deadline=None)
    @given(
        arrays(
            np.float64,
            array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4),
            elements=st.floats(-2, 2, allow_nan=False, allow_infinity=False),
        )
    )
    def test_mean_grad_sums_to_one(self, data):
        x = Tensor(data.copy(), requires_grad=True)
        x.mean().backward()
        assert x.grad.sum() == pytest.approx(1.0, abs=1e-9)

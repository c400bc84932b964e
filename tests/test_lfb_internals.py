"""Unit tests for LFB's basis-size budgeting and SVD basis extraction."""

import numpy as np

from repro.compression.lfb import LearningFilterBasis, _max_useful_basis
from repro.compression.lfb import basis_params as _basis_params


class TestBudgetMath:
    def test_basis_params_formula(self):
        assert _basis_params(f=16, c=8, k=3, b=4) == 4 * 8 * 9 + 16 * 4

    def test_max_useful_basis_shrinks(self):
        f, c, k = 64, 32, 3
        b = _max_useful_basis(f, c, k)
        assert _basis_params(f, c, k, b) < f * c * k * k
        # one more basis vector would stop saving (or nearly so)
        assert _basis_params(f, c, k, b + 2) >= f * c * k * k * 0.95

    def test_max_useful_basis_at_least_one(self):
        assert _max_useful_basis(2, 2, 3) >= 1


class TestSvdBasis:
    def test_gram_path_matches_svd_path(self, rng):
        """The Gram-eigenbasis fast path must agree with plain SVD."""
        w = rng.normal(size=(6, 4, 3, 3))
        mat = w.reshape(6, -1)
        u, s, vt = np.linalg.svd(mat, full_matrices=False)
        basis, coeffs = LearningFilterBasis._svd_basis(w, 3)
        reconstruction = coeffs @ basis.reshape(3, -1)
        reference = (u[:, :3] * s[:3]) @ vt[:3]
        np.testing.assert_allclose(reconstruction, reference, atol=1e-8)

    def test_full_rank_reconstructs_exactly(self, rng):
        w = rng.normal(size=(4, 3, 3, 3))
        basis, coeffs = LearningFilterBasis._svd_basis(w, 4)
        reconstruction = (coeffs @ basis.reshape(4, -1)).reshape(w.shape)
        np.testing.assert_allclose(reconstruction, w, atol=1e-8)

    def test_reconstruction_error_monotone_in_b(self, rng):
        w = rng.normal(size=(8, 4, 3, 3))
        mat = w.reshape(8, -1)
        errors = []
        for b in (1, 2, 4, 8):
            basis, coeffs = LearningFilterBasis._svd_basis(w, b)
            approx = coeffs @ basis.reshape(b, -1)
            errors.append(np.linalg.norm(mat - approx))
        assert all(a >= b - 1e-9 for a, b in zip(errors, errors[1:]))

    def test_basis_shapes(self, rng):
        w = rng.normal(size=(10, 5, 3, 3))
        basis, coeffs = LearningFilterBasis._svd_basis(w, 3)
        assert basis.shape == (3, 5, 3, 3)
        assert coeffs.shape == (10, 3)

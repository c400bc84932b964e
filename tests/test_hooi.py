"""Tests for the HOOI Tucker-2 decomposition."""

import numpy as np
import pytest

from repro.compression.hooi import (
    choose_tucker_ranks,
    tucker2,
    tucker2_params,
    tucker2_reconstruct,
)


def reconstruction_error(weight, core, u_out, u_in):
    """Relative Frobenius reconstruction error of a Tucker-2 factorisation."""
    approx = tucker2_reconstruct(core, u_out, u_in)
    return float(np.linalg.norm(weight - approx) / (np.linalg.norm(weight) + 1e-12))


class TestTucker2:
    def test_full_rank_exact(self, rng):
        w = rng.normal(size=(6, 4, 3, 3))
        core, u_out, u_in = tucker2(w, 6, 4)
        np.testing.assert_allclose(tucker2_reconstruct(core, u_out, u_in), w, atol=1e-8)

    def test_factor_shapes(self, rng):
        w = rng.normal(size=(8, 5, 3, 3))
        core, u_out, u_in = tucker2(w, 3, 2)
        assert core.shape == (3, 2, 3, 3)
        assert u_out.shape == (8, 3)
        assert u_in.shape == (5, 2)

    def test_factors_orthonormal(self, rng):
        w = rng.normal(size=(8, 5, 3, 3))
        _, u_out, u_in = tucker2(w, 4, 3)
        np.testing.assert_allclose(u_out.T @ u_out, np.eye(4), atol=1e-10)
        np.testing.assert_allclose(u_in.T @ u_in, np.eye(3), atol=1e-10)

    def test_ranks_clamped_to_dims(self, rng):
        w = rng.normal(size=(4, 3, 3, 3))
        core, u_out, u_in = tucker2(w, 100, 100)
        assert core.shape[:2] == (4, 3)

    def test_invalid_rank_raises(self, rng):
        with pytest.raises(ValueError):
            tucker2(np.zeros((4, 3, 3, 3)), 0, 2)

    def test_low_rank_tensor_recovered(self, rng):
        """A tensor that IS rank (2, 2) must be reconstructed exactly."""
        core = rng.normal(size=(2, 2, 3, 3))
        u_out = np.linalg.qr(rng.normal(size=(8, 2)))[0]
        u_in = np.linalg.qr(rng.normal(size=(6, 2)))[0]
        w = tucker2_reconstruct(core, u_out, u_in)
        core2, uo2, ui2 = tucker2(w, 2, 2)
        np.testing.assert_allclose(
            tucker2_reconstruct(core2, uo2, ui2), w, atol=1e-8
        )

    def test_error_decreases_with_rank(self, rng):
        w = rng.normal(size=(10, 8, 3, 3))
        errors = []
        for rank in (2, 4, 6, 8):
            core, uo, ui = tucker2(w, rank, rank)
            errors.append(reconstruction_error(w, core, uo, ui))
        assert all(a >= b - 1e-9 for a, b in zip(errors, errors[1:]))

    def test_hooi_no_worse_than_hosvd_init(self, rng):
        """Extra HOOI sweeps should not increase reconstruction error."""
        w = rng.normal(size=(12, 10, 3, 3))
        core0, uo0, ui0 = tucker2(w, 4, 4, n_iter=0)
        core5, uo5, ui5 = tucker2(w, 4, 4, n_iter=5)
        assert reconstruction_error(w, core5, uo5, ui5) <= (
            reconstruction_error(w, core0, uo0, ui0) + 1e-9
        )


class TestRankSelection:
    def test_params_formula(self):
        assert tucker2_params(8, 4, 3, 2, 3) == 4 * 3 + 2 * 3 * 9 + 8 * 2

    def test_choose_ranks_fits_budget(self):
        f, c, k = 64, 32, 3
        budget = tucker2_params(f, c, k, 16, 8) + 5
        ro, ri = choose_tucker_ranks(f, c, k, budget)
        assert tucker2_params(f, c, k, ro, ri) <= budget
        assert ro >= 1 and ri >= 1

    def test_choose_ranks_maximal(self):
        """Budget equal to the full layer should give near-full ranks."""
        f, c, k = 16, 8, 3
        full = f * c * k * k
        ro, ri = choose_tucker_ranks(f, c, k, full * 2)
        assert ro >= f * 0.8 and ri >= c * 0.8

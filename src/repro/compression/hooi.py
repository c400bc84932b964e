"""Higher-Order Orthogonal Iteration (HOOI) Tucker-2 decomposition.

Used by method C5 (HOS) to compress convolution kernels: the 4D kernel
W (F, C, k, k) is decomposed along its output- and input-channel modes as

    W  ≈  core ×_0 U_out ×_1 U_in

with ``core`` of shape (r_out, r_in, k, k).  HOOI alternates SVDs of the two
mode unfoldings (Kolda & Bader 2009, Alg. 4.2); truncated HOSVD provides the
initialisation.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def _unfold(tensor: np.ndarray, mode: int) -> np.ndarray:
    """Mode-n unfolding of a tensor into a matrix."""
    return np.moveaxis(tensor, mode, 0).reshape(tensor.shape[mode], -1)


def _leading_left_singular(matrix: np.ndarray, rank: int) -> np.ndarray:
    """Top-``rank`` left singular vectors via the (cheaper) Gram eigenbasis."""
    m, n = matrix.shape
    if m <= n:
        gram = matrix @ matrix.T
        values, vectors = np.linalg.eigh(gram)
        order = np.argsort(values)[::-1][:rank]
        return vectors[:, order]
    u, _, _ = np.linalg.svd(matrix, full_matrices=False)
    return u[:, :rank]


def _project_in(weight: np.ndarray, u_in: np.ndarray) -> np.ndarray:
    """weight x_1 u_in^T  — contract the input-channel mode (BLAS matmul)."""
    f, c, kh, kw = weight.shape
    moved = weight.transpose(0, 2, 3, 1).reshape(-1, c)  # (F*k*k, C)
    return (moved @ u_in).reshape(f, kh, kw, -1).transpose(0, 3, 1, 2)


def _project_out(weight: np.ndarray, u_out: np.ndarray) -> np.ndarray:
    """weight x_0 u_out^T — contract the output-channel mode (BLAS matmul)."""
    f = weight.shape[0]
    flat = weight.reshape(f, -1)  # (F, C*k*k)
    return (u_out.T @ flat).reshape(-1, *weight.shape[1:])


def tucker2(
    weight: np.ndarray,
    rank_out: int,
    rank_in: int,
    n_iter: int = 2,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tucker-2 decomposition of a conv kernel via HOOI.

    Returns ``(core, u_out, u_in)`` with shapes
    (rank_out, rank_in, k, k), (F, rank_out), (C, rank_in).
    """
    f, c = weight.shape[0], weight.shape[1]
    rank_out = int(min(rank_out, f))
    rank_in = int(min(rank_in, c))
    if rank_out < 1 or rank_in < 1:
        raise ValueError("Tucker-2 ranks must be >= 1")

    # HOSVD initialisation.
    u_out = _leading_left_singular(_unfold(weight, 0), rank_out)
    u_in = _leading_left_singular(_unfold(weight, 1), rank_in)

    # HOOI sweeps: optimise each factor with the other fixed.
    for _ in range(n_iter):
        projected_in = _project_in(weight, u_in)
        u_out = _leading_left_singular(_unfold(projected_in, 0), rank_out)
        projected_out = _project_out(weight, u_out)
        u_in = _leading_left_singular(_unfold(projected_out, 1), rank_in)

    core = _project_in(_project_out(weight, u_out), u_in)
    return core, u_out, u_in


def tucker2_reconstruct(core: np.ndarray, u_out: np.ndarray, u_in: np.ndarray) -> np.ndarray:
    """Inverse of :func:`tucker2` (up to truncation error)."""
    ro, ri, kh, kw = core.shape
    expanded = (u_out @ core.reshape(ro, -1)).reshape(-1, ri, kh, kw)
    f = expanded.shape[0]
    moved = expanded.transpose(0, 2, 3, 1).reshape(-1, ri)
    return (moved @ u_in.T).reshape(f, kh, kw, -1).transpose(0, 3, 1, 2)


def tucker2_params(f: int, c: int, k: int, rank_out: int, rank_in: int) -> int:
    """Parameter count of the factorised layer (first + core + last convs)."""
    return c * rank_in + rank_out * rank_in * k * k + f * rank_out


def choose_tucker_ranks(f: int, c: int, k: int, param_budget: int) -> Tuple[int, int]:
    """Largest symmetric-ratio ranks whose factorised size fits ``param_budget``.

    Keeps ``rank_out / f == rank_in / c`` and binary-searches the ratio.
    """
    lo, hi = 1e-3, 1.0
    best = (1, 1)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        ro = max(1, int(round(f * mid)))
        ri = max(1, int(round(c * mid)))
        if tucker2_params(f, c, k, ro, ri) <= param_budget:
            best = (ro, ri)
            lo = mid
        else:
            hi = mid
    return best

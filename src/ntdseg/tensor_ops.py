"""Dense order-3 tensor arithmetic: mode products, reconstruction, HOSVD."""
from __future__ import annotations

import numpy as np


def check_real(array, name: str) -> None:
    """Raise ValueError unless `array` is bool, integer or float of at most
    64 bits, the dtypes that numpy casts safely to float64."""
    dtype = np.asarray(array).dtype
    if not np.can_cast(dtype, np.float64):
        raise ValueError(
            f"{name} must be bool, integer or float of at most 64 bits, got dtype {dtype}"
        )


def _check_mode(mode: int) -> None:
    if mode not in (0, 1, 2):
        raise ValueError(f"mode must be 0, 1 or 2, got {mode}")


def mode_product(tensor: np.ndarray, matrix: np.ndarray, mode: int) -> np.ndarray:
    """Contract `matrix` with `tensor` along `mode` (the n-mode product)."""
    _check_mode(mode)
    if tensor.ndim != 3:
        raise ValueError(f"tensor must be order 3, got shape {tensor.shape}")
    if matrix.ndim != 2 or matrix.shape[1] != tensor.shape[mode]:
        raise ValueError(
            f"matrix of shape {matrix.shape} cannot contract mode {mode} "
            f"of tensor with shape {tensor.shape}"
        )
    if mode == 0:
        flat = matrix @ tensor.reshape(tensor.shape[0], -1)
        return flat.reshape((matrix.shape[0],) + tensor.shape[1:])
    if mode == 1:
        return matrix @ tensor
    return tensor @ matrix.T


def reconstruct(
    core: np.ndarray, w: np.ndarray, h: np.ndarray, q: np.ndarray
) -> np.ndarray:
    """Expand a core tensor through one factor matrix per mode."""
    out = mode_product(core, w, 0)
    out = mode_product(out, h, 1)
    return mode_product(out, q, 2)


def truncated_hosvd(
    tensor: np.ndarray,
    ranks: tuple[int, int, int],
    skip_modes: tuple[int, ...] = (),
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Truncated higher-order SVD of an order-3 tensor.

    Returns ``(w, h, q, core)`` where each factor holds the leading left
    singular vectors of the tensor's mode-n fibers and
    ``core = tensor x0 w.T x1 h.T x2 q.T``; factors and core keep their
    signs. Modes listed in `skip_modes` get an identity factor instead of
    an SVD; their rank must equal the tensor dimension. The tensor is read
    as float64.
    """
    check_real(tensor, "tensor")
    tensor = np.asarray(tensor, dtype=np.float64)
    if tensor.ndim != 3:
        raise ValueError(f"tensor must be order 3, got shape {tensor.shape}")
    for mode in range(3):
        if ranks[mode] > tensor.shape[mode]:
            raise ValueError(
                f"rank {ranks[mode]} exceeds dimension {tensor.shape[mode]} "
                f"of mode {mode}"
            )
    factors = []
    for mode in range(3):
        if mode in skip_modes:
            if ranks[mode] != tensor.shape[mode]:
                raise ValueError(
                    f"skipped mode {mode} requires full rank {tensor.shape[mode]}"
                )
            factors.append(np.eye(tensor.shape[mode]))
            continue
        # Left singular vectors do not depend on column order, up to sign.
        fibers = np.moveaxis(tensor, mode, 0).reshape(tensor.shape[mode], -1)
        u, _, _ = np.linalg.svd(fibers, full_matrices=False)
        factors.append(u[:, : ranks[mode]])
    core = tensor
    for mode, factor in enumerate(factors):
        core = mode_product(core, factor.T, mode)
    return factors[0], factors[1], factors[2], core

"""Dense order-3 tensor arithmetic: mode products, reconstruction, HOSVD."""
from __future__ import annotations

import numpy as np


def real_array(array, name: str, order: int | None = None) -> np.ndarray:
    """`array` read as float64. Raise ValueError unless it is bool, integer
    or float of at most 64 bits, the dtypes that numpy casts safely to
    float64, unless every entry is finite and, if `order` is given, unless
    it has `order` axes."""
    array = np.asarray(array)
    if not np.can_cast(array.dtype, np.float64):
        raise ValueError(
            f"{name} must be bool, integer or float of at most 64 bits, got dtype {array.dtype}"
        )
    array = np.asarray(array, dtype=np.float64)
    non_finite = array.size - np.count_nonzero(np.isfinite(array))
    if non_finite:
        raise ValueError(f"{name} has {non_finite} non-finite entries (NaN or inf)")
    if order is not None and array.ndim != order:
        raise ValueError(f"{name} must be order {order}, got shape {array.shape}")
    return array


def integer_arg(value, name: str, minimum: int, maximum: int | None = None) -> int:
    """`value` as a Python int. Raise ValueError unless it is a Python or
    numpy integer, not a bool, of at least `minimum` and, if `maximum` is
    given, of at most `maximum`."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if minimum <= value and (maximum is None or value <= maximum):
            return int(value)
    bounds = f"of at least {minimum}" if maximum is None else f"from {minimum} to {maximum}"
    raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")


def mode_product(tensor: np.ndarray, matrix: np.ndarray, mode: int) -> np.ndarray:
    """Contract `matrix` with `tensor` along `mode` (the n-mode product)."""
    mode = integer_arg(mode, "mode", 0, 2)
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

    Returns ``(w, h, q, core)`` where each factor holds, largest first, the
    top eigenvectors of the mode-n Gram ``F F.T`` of the tensor's mode-n
    fibers F, which are F's leading left singular vectors up to sign, and
    ``core = tensor x0 w.T x1 h.T x2 q.T``; factors and core keep their
    signs. The Grams are formed from ``tensor / 2**e``, with ``2**e`` the
    power of two just above the largest magnitude. A power-of-two scale is
    exact, so the Grams neither overflow nor underflow, and the factors of
    ``2**k * tensor`` are the factors of `tensor`, bit for bit. Modes listed
    in `skip_modes` get an identity factor instead; their rank must equal
    the tensor dimension. The tensor is read as float64.
    """
    tensor = real_array(tensor, "tensor", 3)
    if len(ranks) != 3:
        raise ValueError(f"ranks must hold 3 entries, got {len(ranks)}")
    skip_modes = {integer_arg(mode, "skipped mode", 0, 2) for mode in skip_modes}
    ranks = [integer_arg(rank, f"rank of mode {mode}", 1) for mode, rank in enumerate(ranks)]
    for mode in range(3):
        if ranks[mode] > tensor.shape[mode]:
            raise ValueError(
                f"rank {ranks[mode]} exceeds dimension {tensor.shape[mode]} "
                f"of mode {mode}"
            )
    scaled = np.ldexp(tensor, -np.frexp(np.max(np.abs(tensor)))[1])
    factors = []
    for mode in range(3):
        if mode in skip_modes:
            if ranks[mode] != tensor.shape[mode]:
                raise ValueError(
                    f"skipped mode {mode} requires full rank {tensor.shape[mode]}"
                )
            factors.append(np.eye(tensor.shape[mode]))
            continue
        # The Gram does not depend on column order.
        fibers = np.moveaxis(scaled, mode, 0).reshape(tensor.shape[mode], -1)
        _, vectors = np.linalg.eigh(fibers @ fibers.T)
        factors.append(vectors[:, ::-1][:, : ranks[mode]].copy())
    core = tensor
    for mode, factor in enumerate(factors):
        core = mode_product(core, factor.T, mode)
    return factors[0], factors[1], factors[2], core

"""Inner nonnegative least-squares solvers.

Two solvers back the alternating Tucker updates: an accelerated
hierarchical ALS for matrix problems ``min_{Z>=0} ||Y - A Z||_F^2``
expressed in normal-equation (Gram) form, and a projected gradient
method with a Lipschitz step for the core tensor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .tensor_ops import mode_product

_ZERO_COLUMN_EPS = 1e-12


@dataclass(frozen=True)
class NnlsProblem:
    """``min_{Z>=0} ||Y - A Z||_F^2`` reduced to Gram form.

    ``gram = A.T A``, ``cross = A.T Y`` and ``scale = ||Y||_F^2``, so the
    objective is ``scale - 2 <cross, Z> + <Z, gram Z>`` without touching
    the (possibly long) data matrices again.
    """

    gram: np.ndarray
    cross: np.ndarray
    scale: float

    def __post_init__(self):
        if self.gram.shape[0] != self.gram.shape[1]:
            raise ValueError("gram matrix must be square")
        if self.cross.shape[0] != self.gram.shape[0]:
            raise ValueError("gram/cross row mismatch")
        if not (np.isfinite(self.gram).all() and np.isfinite(self.cross).all()):
            raise ValueError("non-finite entries in NNLS problem")

    @classmethod
    def from_data(cls, a: np.ndarray, y: np.ndarray) -> "NnlsProblem":
        return cls(a.T @ a, a.T @ y, float(np.sum(y * y)))

    def objective(self, z: np.ndarray) -> float:
        return float(self.scale - 2.0 * np.sum(self.cross * z) + np.sum(z * (self.gram @ z)))

    def gradient(self, z: np.ndarray) -> np.ndarray:
        """Gradient of ``1/2 ||Y - A Z||^2`` with respect to Z."""
        return self.gram @ z - self.cross


@dataclass(frozen=True)
class SolverConfig:
    max_inner_iters: int = 100
    inner_tolerance: float = 1e-8
    acceleration_budget: float = 0.5

    def __post_init__(self):
        if not (isinstance(self.max_inner_iters, Integral) and self.max_inner_iters >= 1):
            raise ValueError("max_inner_iters must be a positive integer")
        if not 0.0 <= self.inner_tolerance < 1.0:
            raise ValueError("inner_tolerance must lie in [0, 1)")
        if not (math.isfinite(self.acceleration_budget) and self.acceleration_budget > 0):
            raise ValueError("acceleration_budget must be a positive finite number")


def hals_nnls(
    problem: NnlsProblem, z0: np.ndarray, cfg: SolverConfig = SolverConfig()
) -> np.ndarray:
    """Accelerated HALS for the matrix NNLS problem.

    Sweeps exact coordinate-block updates over the rows of Z (one row per
    column of A), repeating sweeps while the iterate still moves, up to a
    work budget proportional to the sweep cost. Monotone in the objective
    and never returns negative entries.
    """
    z = np.array(z0, dtype=float)
    if z.shape != problem.cross.shape:
        raise ValueError(f"z0 shape {z.shape} does not match cross shape {problem.cross.shape}")
    if not np.isfinite(z).all():
        raise ValueError("non-finite entries in z0")

    r = problem.gram.shape[0]
    max_sweeps = min(
        cfg.max_inner_iters, max(1, math.ceil(cfg.acceleration_budget * (1 + r)))
    )
    first_delta = None
    for _ in range(max_sweeps):
        delta = 0.0
        for j in range(r):
            denom = problem.gram[j, j]
            if denom <= 0.0:
                continue
            row = np.maximum(
                0.0, z[j] + (problem.cross[j] - problem.gram[j] @ z) / denom
            )
            if not row.any():
                # Keep a degenerate component alive at negligible scale.
                row = np.full_like(row, _ZERO_COLUMN_EPS * z[j].max())
            delta += float(np.sum((row - z[j]) ** 2))
            z[j] = row
        delta = math.sqrt(delta)
        if first_delta is None:
            first_delta = delta
        if delta <= cfg.inner_tolerance * first_delta:
            break
    return z


def _factor_grams(w: np.ndarray, h: np.ndarray, q: np.ndarray):
    return w.T @ w, h.T @ h, q.T @ q


def _core_lipschitz(grams) -> float:
    bound = 1.0
    for g in grams:
        bound *= float(np.linalg.eigvalsh(g)[-1])
    return bound


def core_prox_gradient(
    x: np.ndarray,
    w: np.ndarray,
    h: np.ndarray,
    q: np.ndarray,
    g0: np.ndarray,
    cfg: SolverConfig = SolverConfig(),
) -> np.ndarray:
    """Projected gradient update of the nonnegative core tensor.

    Each iteration steps along the gradient of the smooth reconstruction
    objective with step ``1/L``, ``L`` being the product of the largest
    eigenvalues of the three factor Grams, then clips at zero.
    """
    expected = (w.shape[1], h.shape[1], q.shape[1])
    if g0.shape != expected:
        raise ValueError(f"core shape {g0.shape} does not match factor ranks {expected}")
    if x.shape != (w.shape[0], h.shape[0], q.shape[0]):
        raise ValueError("tensor shape does not match factor rows")

    grams = _factor_grams(w, h, q)
    lipschitz = _core_lipschitz(grams)
    if lipschitz <= 0.0:
        raise ValueError("degenerate factors: zero Lipschitz bound for the core step")
    step = 1.0 / lipschitz

    cross = mode_product(mode_product(mode_product(x, w.T, 0), h.T, 1), q.T, 2)
    x_sq = float(np.sum(x * x))

    def gram_image(g):
        out = mode_product(g, grams[0], 0)
        out = mode_product(out, grams[1], 1)
        return mode_product(out, grams[2], 2)

    g = np.maximum(np.asarray(g0, dtype=float), 0.0)
    image = gram_image(g)
    obj = x_sq - 2.0 * float(np.sum(cross * g)) + float(np.sum(g * image))
    for _ in range(cfg.max_inner_iters):
        g_next = np.maximum(0.0, g - step * (image - cross))
        image = gram_image(g_next)
        obj_next = x_sq - 2.0 * float(np.sum(cross * g_next)) + float(
            np.sum(g_next * image)
        )
        improvement = obj - obj_next
        g, obj = g_next, obj_next
        if improvement <= cfg.inner_tolerance * max(abs(obj), 1e-300):
            break
    return g

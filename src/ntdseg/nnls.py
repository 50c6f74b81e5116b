"""Inner nonnegative least-squares solvers.

Two solvers back the alternating Tucker updates, both in normal-equation
(Gram) form, so neither touches the data tensor: an accelerated
hierarchical ALS for matrix problems ``min_{Z>=0} ||Y - A Z||_F^2``, and a
projected gradient method with a Lipschitz step for the core tensor, which
reads the three factor Grams and the data projected onto the factors.
Both stop by the rule of `SolverConfig`; neither evaluates an objective.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np


@dataclass(frozen=True)
class NnlsProblem:
    """``min_{Z>=0} ||Y - A Z||_F^2`` reduced to Gram form.

    ``gram = A.T A`` and ``cross = A.T Y``. Up to the constant
    ``||Y||_F^2`` the objective is ``<Z, gram Z> - 2 <cross, Z>``, so the
    solver never touches the (possibly long) data matrices.
    """

    gram: np.ndarray
    cross: np.ndarray

    def __post_init__(self):
        if self.gram.shape[0] != self.gram.shape[1]:
            raise ValueError("gram matrix must be square")
        if self.cross.shape[0] != self.gram.shape[0]:
            raise ValueError("gram/cross row mismatch")
        if not (np.isfinite(self.gram).all() and np.isfinite(self.cross).all()):
            raise ValueError("non-finite entries in NNLS problem")


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule of both solvers (Gillis & Glineur 2012): stop after
    `max_inner_iters` iterations (HALS sweeps or core steps), or once an
    iteration moves the iterate by at most `inner_tolerance` times the
    first iteration's move, in Frobenius norm. `acceleration_budget` caps
    HALS sweeps at ``ceil(budget * (1 + rank))``; the core does not read it."""

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
    work budget proportional to the sweep cost. Each row moves to the
    exact minimiser of its block, so a row that updates to all zeros stays
    exactly zero and no update increases the objective. Never returns
    negative entries.
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
    # Per-row views, built once: Gram diagonal entry, Gram row, cross row and
    # the row of z that the update overwrites. A row with no positive
    # diagonal entry is never updated.
    rows = [
        row
        for row in zip(problem.gram.diagonal().tolist(), problem.gram, problem.cross, z)
        if row[0] > 0.0
    ]
    new = np.empty(z.shape[1])
    change = np.empty(z.shape[1])
    first_delta = None
    for _ in range(max_sweeps):
        delta = 0.0
        for denom, gram_row, cross_row, z_row in rows:
            # new = max(0, z_row + (cross_row - gram_row @ z) / denom)
            np.matmul(gram_row, z, out=new)
            np.subtract(cross_row, new, out=new)
            np.divide(new, denom, out=new)
            np.add(z_row, new, out=new)
            np.maximum(0.0, new, out=new)
            np.subtract(new, z_row, out=change)
            np.multiply(change, change, out=change)
            delta += float(np.add.reduce(change))
            z_row[...] = new
        delta = math.sqrt(delta)
        if first_delta is None:
            first_delta = delta
        if delta <= cfg.inner_tolerance * first_delta:
            break
    return z


def core_prox_gradient(
    grams: tuple[np.ndarray, np.ndarray, np.ndarray],
    cross: np.ndarray,
    g0: np.ndarray,
    cfg: SolverConfig = SolverConfig(),
) -> np.ndarray:
    """Projected gradient update of the nonnegative core tensor.

    Minimises ``||X - G x0 W x1 H x2 Q||_F^2`` over ``G >= 0`` from
    ``grams = (W.T W, H.T H, Q.T Q)`` and ``cross = X x0 W.T x1 H.T x2 Q.T``.
    Each iteration steps along the gradient with step ``1/L``, ``L`` being
    the product of the largest eigenvalues of the three Grams, then clips
    at zero, until the `SolverConfig` rule stops it.
    """
    expected = cross.shape
    if g0.shape != expected:
        raise ValueError(f"core shape {g0.shape} does not match cross shape {expected}")
    if tuple(g.shape for g in grams) != tuple((r, r) for r in expected):
        raise ValueError(f"factor Grams do not match cross shape {expected}")
    if not (np.isfinite(cross).all() and all(np.isfinite(g).all() for g in grams)):
        raise ValueError("non-finite entries in core problem")
    if not np.isfinite(g0).all():
        raise ValueError("g0 has non-finite entries")

    gram_w, gram_h, gram_q = grams
    lipschitz = math.prod(float(np.linalg.eigvalsh(g)[-1]) for g in grams)
    if lipschitz <= 0.0:
        raise ValueError("degenerate factors: zero Lipschitz bound for the core step")
    step = 1.0 / lipschitz

    g = np.maximum(np.asarray(g0, dtype=float), 0.0, out=np.empty(expected))
    g_next = np.empty(expected)
    partial = np.empty(expected)
    image = np.empty(expected)
    first_delta = None
    for _ in range(cfg.max_inner_iters):
        # image = G x0 (W.T W) x1 (H.T H) x2 (Q.T Q)
        np.matmul(gram_h, (gram_w @ g.reshape(expected[0], -1)).reshape(expected), out=partial)
        np.matmul(partial, gram_q.T, out=image)
        # g_next = max(0, g - step * (image - cross))
        np.subtract(image, cross, out=g_next)
        np.multiply(step, g_next, out=g_next)
        np.subtract(g, g_next, out=g_next)
        np.maximum(0.0, g_next, out=g_next)
        delta = float(np.linalg.norm(g_next - g))
        g, g_next = g_next, g
        if first_delta is None:
            first_delta = delta
        if delta <= cfg.inner_tolerance * first_delta:
            break
    return g

"""Inner nonnegative least-squares solvers.

Two solvers back the alternating Tucker updates, both in normal-equation
(Gram) form, so neither touches the data tensor: an accelerated
hierarchical ALS for matrix problems ``min_{Z>=0} ||Y - A Z||_F^2``, and
FISTA with gradient restart and a Lipschitz step for the core tensor,
which reads the three factor Grams and the data projected onto the
factors. Both take plain arrays, read them as float64 and check their
dtypes, shapes and finiteness first. Fixed iteration caps are the only
stopping rule: HALS runs ``min(MAX_INNER_ITERS, ceil((1 + r) / 2))``
sweeps for rank ``r``. The core runs ``CORE_STEPS`` (30) FISTA steps and
returns its end point or its start, whichever has the lower objective,
because FISTA alone is not monotone. So neither solver raises its
objective, and the core step returns it as ``value``:
``||X - G x0 W x1 H x2 Q||_F^2 - ||X||_F^2`` of the core.
Neither keeps state apart from its iterate, so to iterate further, call
again from the result. k chained HALS calls are exactly k times the cap;
the core's momentum starts afresh at each call, so chained core calls are
not one longer call.

The core step runs on the live sub-core only: a slice whose factor has a
zero column (zero Gram row and column, zero cross slice) has zero gradient
and adds nothing to the other slices, so it keeps its start value exactly.
HALS still sweeps a row that is all zero, because a dead component can
come back to life in a later sweep.
"""
from __future__ import annotations

import math

import numpy as np

from .tensor_ops import check_real

# Cap on the HALS sweeps of `hals_nnls`.
MAX_INNER_ITERS = 100
# FISTA steps per `core_prox_gradient` call.
CORE_STEPS = 30


def hals_nnls(gram: np.ndarray, cross: np.ndarray, z0: np.ndarray) -> np.ndarray:
    """Accelerated HALS for ``min_{Z>=0} ||Y - A Z||_F^2`` in Gram form.

    Reads ``gram = A.T A`` and ``cross = A.T Y``: up to the constant
    ``||Y||_F^2`` the objective is ``<Z, gram Z> - 2 <cross, Z>``, so the
    solver never touches the (possibly long) data matrices.

    Runs ``min(MAX_INNER_ITERS, ceil((1 + r) / 2))`` sweeps of exact
    coordinate-block updates over the r rows of Z (one row per column of
    A), a budget proportional to the sweep cost. Each row moves to the
    exact minimiser of its block, so a row that updates to all zeros is
    exactly zero and no update increases the objective. Never returns
    negative entries. To sweep further, call again from the result.
    """
    for array, name in ((gram, "gram"), (cross, "cross"), (z0, "z0")):
        check_real(array, name)
    gram, cross = np.asarray(gram, dtype=float), np.asarray(cross, dtype=float)
    r = cross.shape[0]
    if gram.shape != (r, r):
        raise ValueError(
            f"gram shape {gram.shape} is not ({r}, {r}) for cross shape {cross.shape}"
        )
    if not (np.isfinite(gram).all() and np.isfinite(cross).all()):
        raise ValueError("non-finite entries in NNLS problem")
    z = np.array(z0, dtype=float)
    if z.shape != cross.shape:
        raise ValueError(f"z0 shape {z.shape} does not match cross shape {cross.shape}")
    if not np.isfinite(z).all():
        raise ValueError("non-finite entries in z0")

    sweeps = min(MAX_INNER_ITERS, math.ceil((1 + r) / 2))
    # Per-row views, built once: Gram diagonal entry, Gram row, cross row and
    # the row of z that the update overwrites. A row with no positive
    # diagonal entry is never updated.
    rows = [
        row
        for row in zip(gram.diagonal().tolist(), gram, cross, z)
        if row[0] > 0.0
    ]
    new = np.empty(z.shape[1])
    for _ in range(sweeps):
        for denom, gram_row, cross_row, z_row in rows:
            # z_row = max(0, z_row + (cross_row - gram_row @ z) / denom)
            np.matmul(gram_row, z, out=new)
            np.subtract(cross_row, new, out=new)
            np.divide(new, denom, out=new)
            np.add(z_row, new, out=new)
            np.maximum(0.0, new, out=z_row)
    return z


def core_prox_gradient(
    grams: tuple[np.ndarray, np.ndarray, np.ndarray],
    cross: np.ndarray,
    g0: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Accelerated projected gradient update of the nonnegative core tensor.

    Minimises ``||X - G x0 W x1 H x2 Q||_F^2`` over ``G >= 0`` from
    ``grams = (W.T W, H.T H, Q.T Q)`` and ``cross = X x0 W.T x1 H.T x2 Q.T``
    with ``CORE_STEPS`` FISTA steps (Beck & Teboulle 2009) and the gradient
    restart of O'Donoghue & Candes (2015). Each step takes a gradient step
    of ``1/L`` from the extrapolated point and clips at zero, ``L`` being
    the product of the largest eigenvalues of the three Grams. FISTA is not
    monotone, so the call returns its start instead of its end point when
    the start's objective is lower: the result is never worse than ``g0``
    clipped at zero. It returns ``(core, value)``, with ``value`` the
    objective ``||X - G x0 W x1 H x2 Q||_F^2 - ||X||_F^2`` of that core,
    ``<G, G x0 W.T W x1 H.T H x2 Q.T Q> - 2 <cross, G>``, which the end
    guard compared. To step further, call again from the core.
    """
    for array, name in [(gram, "factor Grams") for gram in grams] + [(cross, "cross"), (g0, "g0")]:
        check_real(array, name)
    grams = tuple(np.asarray(gram, dtype=float) for gram in grams)
    cross, g0 = np.asarray(cross, dtype=float), np.asarray(g0, dtype=float)
    expected = cross.shape
    if g0.shape != expected:
        raise ValueError(f"core shape {g0.shape} does not match cross shape {expected}")
    if tuple(g.shape for g in grams) != tuple((r, r) for r in expected):
        raise ValueError(f"factor Grams do not match cross shape {expected}")
    if not (np.isfinite(cross).all() and all(np.isfinite(g).all() for g in grams)):
        raise ValueError("non-finite entries in core problem")
    if not np.isfinite(g0).all():
        raise ValueError("g0 has non-finite entries")

    g = np.maximum(g0, 0.0, out=np.empty(expected))
    # A slice whose Gram row, Gram column and cross slice are all zero has
    # zero gradient and adds nothing to any other slice's Gram image, so it
    # keeps its value and the steps run on the live sub-core alone.
    live = [
        np.flatnonzero(
            gram.any(axis=0) | gram.any(axis=1)
            | cross.any(axis=tuple(other for other in range(3) if other != mode))
        )
        for mode, gram in enumerate(grams)
    ]
    index = np.ix_(*live)
    live_grams = tuple(gram[np.ix_(i, i)] for gram, i in zip(grams, live))
    # a mode with no live slice has an empty Gram and a zero bound
    lipschitz = math.prod(float(np.linalg.eigvalsh(gram).max(initial=0.0)) for gram in live_grams)
    if lipschitz <= 0.0:
        raise ValueError("degenerate factors: zero Lipschitz bound for the core step")
    # the dead slices add nothing to the objective either: the sub-core's is the core's
    g[index], value = _prox_steps(live_grams, cross[index], g[index], 1.0 / lipschitz)
    return g, float(value)


def _prox_steps(grams, cross, start, step):
    """The FISTA steps of `core_prox_gradient` from ``start >= 0``: the end
    point, or `start` if its objective is lower, and that objective."""
    gram_w, gram_h, gram_q = grams
    shape = cross.shape
    partial = np.empty(shape)
    image = np.empty(shape)

    def gram_image(g):
        # G x0 (W.T W) x1 (H.T H) x2 (Q.T Q), into `image`
        np.matmul(gram_h, (gram_w @ g.reshape(shape[0], -1)).reshape(shape), out=partial)
        return np.matmul(partial, gram_q.T, out=image)

    def objective(g, g_image):
        # ||X - G x0 W x1 H x2 Q||_F^2 - ||X||_F^2
        return np.vdot(g, g_image) - 2.0 * np.vdot(cross, g)

    g, y = start.copy(), start.copy()  # iterate and extrapolated point
    g_next, move = np.empty(shape), np.empty(shape)
    t = 1.0
    for k in range(CORE_STEPS):
        gram_image(y)
        if k == 0:  # y is the start
            start_objective = objective(start, image)
        # g_next = max(0, y - step * (image - cross))
        np.subtract(image, cross, out=g_next)
        np.multiply(step, g_next, out=g_next)
        np.subtract(y, g_next, out=g_next)
        np.maximum(0.0, g_next, out=g_next)
        # restart when <y - g_next, g_next - g> > 0, else extrapolate
        np.subtract(y, g_next, out=y)
        np.subtract(g_next, g, out=move)
        if np.vdot(y, move) > 0.0:
            t = 1.0
            np.copyto(y, g_next)
        else:
            t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
            np.multiply((t - 1.0) / t_next, move, out=y)
            np.add(g_next, y, out=y)
            t = t_next
        g, g_next = g_next, g
    end_objective = objective(g, gram_image(g))
    if end_objective <= start_objective:
        return g, end_objective
    return start, start_objective

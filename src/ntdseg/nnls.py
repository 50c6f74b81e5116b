"""Inner nonnegative least-squares solvers.

Two solvers back the alternating Tucker updates, both in normal-equation
(Gram) form, so neither touches the data tensor: an accelerated
hierarchical ALS for matrix problems ``min_{Z>=0} ||Y - A Z||_F^2``, and
FISTA with gradient restart and a Lipschitz step for the core tensor,
which reads the three factor Grams and the data projected onto the
factors. Both take plain arrays, read them as float64 and check their
dtypes, shapes and finiteness first. Fixed iteration caps are the only
stopping rule: HALS runs ``HALS_SWEEPS`` (4) sweeps whatever the rank,
each row set to its block's minimiser in normalized form: Gram and cross
rows divided by the Gram diagonal once per call, so a row update is one
product, one subtraction and one clip. The count does not grow with the
rank r because a sweep costs r row updates, so extra sweeps cost the most
where r is highest; in Gillis & Glineur (2012, "Accelerated
multiplicative updates and hierarchical ALS algorithms for NMF") the
inner count likewise falls as a sweep grows costlier. Four was chosen by
measurement: on the benchmark songs at the (48, 48) grid corner, 4 sweeps
per call reach a median final objective within 1% of 25 sweeps' in about
0.6 of the time.
The core runs ``CORE_STEPS`` (30) FISTA steps and returns its end point
or its start, whichever has the lower objective, because FISTA alone is
not monotone. So neither solver raises its objective, and the core step
returns it as ``value``: ``||X - G x0 W x1 H x2 Q||_F^2 - ||X||_F^2`` of
the core.
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

from .tensor_ops import real_array

# Sweeps per `hals_nnls` call, for every rank.
HALS_SWEEPS = 4
# FISTA steps per `core_prox_gradient` call.
CORE_STEPS = 30


def hals_nnls(gram: np.ndarray, cross: np.ndarray, z0: np.ndarray) -> np.ndarray:
    """Accelerated HALS for ``min_{Z>=0} ||Y - A Z||_F^2`` in Gram form.

    Reads ``gram = A.T A`` and ``cross = A.T Y``: up to the constant
    ``||Y||_F^2`` the objective is ``<Z, gram Z> - 2 <cross, Z>``, so the
    solver never touches the (possibly long) data matrices.

    Runs ``HALS_SWEEPS`` (4) sweeps of exact coordinate-block updates over
    the r rows of Z (one row per column of A), the same count for every
    rank, since a sweep's cost grows with r (the module docstring gives
    the measurement behind the count). Each row moves to the
    exact minimiser of its block, in the normalized form of Cichocki & Phan
    (2009): with ``d = gram[k, k] > 0``, row k becomes ``max(0, cross[k] / d
    - sum_{j != k} gram[k, j] / d * Z[j])``. The sweeps start from `z0`
    clipped at zero, and a row with ``d <= 0`` keeps that start. So a row
    that updates to all zeros is exactly zero and no update increases the
    objective. Never returns negative entries. To sweep further, call again
    from the result.
    """
    gram, cross = real_array(gram, "gram"), real_array(cross, "cross", 2)
    r = cross.shape[0]
    if gram.shape != (r, r):
        raise ValueError(
            f"gram shape {gram.shape} is not ({r}, {r}) for cross shape {cross.shape}"
        )
    z = np.maximum(real_array(z0, "z0"), 0.0)
    if z.shape != cross.shape:
        raise ValueError(f"z0 shape {z.shape} does not match cross shape {cross.shape}")

    # Each live row (positive Gram diagonal entry d) in normalized form: Gram
    # and cross rows over d and its own Gram entry zero, so the block's
    # minimiser is z_row = max(0, cross_row - gram_row @ z). A row with no
    # positive diagonal entry is never updated.
    live = np.flatnonzero(gram.diagonal() > 0.0)
    diagonal = gram.diagonal()[live, np.newaxis]
    gram_rows = gram[live] / diagonal
    gram_rows[np.arange(live.size), live] = 0.0
    rows = list(zip(gram_rows, cross[live] / diagonal, [z[k] for k in live]))
    new = np.empty(z.shape[1])
    for _ in range(HALS_SWEEPS):
        for gram_row, cross_row, z_row in rows:
            np.matmul(gram_row, z, out=new)
            np.subtract(cross_row, new, out=new)
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
    grams = tuple(real_array(gram, f"Gram of mode {mode}") for mode, gram in enumerate(grams))
    cross, g0 = real_array(cross, "cross"), real_array(g0, "g0")
    expected = cross.shape
    if g0.shape != expected:
        raise ValueError(f"core shape {g0.shape} does not match cross shape {expected}")
    if tuple(g.shape for g in grams) != tuple((r, r) for r in expected):
        raise ValueError(f"factor Grams do not match cross shape {expected}")

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

"""Alternating nonnegative Tucker decomposition of order-3 tensors."""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from numbers import Integral

import numpy as np

from .nnls import core_prox_gradient, hals_nnls
from .tensor_ops import mode_product, real_array, reconstruct, truncated_hosvd

# Below this fraction of ||x||^2, `decompose` takes a cycle's objective
# from the explicit residual instead of the Gram form. The Gram form adds
# and subtracts terms of about ||x||^2, so its rounding error is a
# multiple of ||x||^2, bounded here by 1e-14 ||x||^2 (about 90 rounding
# units; the benchmark songs show at most 1e-15). Above the floor that
# error stays under 1e-10 of the objective, the relative slack within
# which the trace must not rise.
GRAM_OBJECTIVE_FLOOR = 1e-14 / 1e-10


@dataclass(frozen=True)
class NtdRanks:
    f_rank: int
    t_rank: int
    b_rank: int

    def __post_init__(self):
        for name in ("f_rank", "t_rank", "b_rank"):
            value = getattr(self, name)
            if not (isinstance(value, Integral) and value >= 1):
                raise ValueError(f"{name} must be a positive integer")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.f_rank, self.t_rank, self.b_rank)


@dataclass(frozen=True)
class NtdConfig:
    max_outer_iters: int = 100
    fix_w_to_identity: bool = False

    def __post_init__(self):
        if not (isinstance(self.max_outer_iters, Integral) and self.max_outer_iters >= 0):
            raise ValueError("max_outer_iters must be a nonnegative integer")


@dataclass
class NtdModel:
    w: np.ndarray
    h: np.ndarray
    q: np.ndarray
    core: np.ndarray
    ranks: NtdRanks
    objective_trace: list[float]

    def reconstruct(self) -> np.ndarray:
        return reconstruct(self.core, self.w, self.h, self.q)

    def objective(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(x - self.reconstruct())) ** 2

    def to_json(self, config: "NtdConfig | None" = None) -> str:
        doc = {
            "dims": [int(self.w.shape[0]), int(self.h.shape[0]), int(self.q.shape[0])],
            "ranks": list(self.ranks.as_tuple()),
            "w": self.w.tolist(),
            "h": self.h.tolist(),
            "q": self.q.tolist(),
            "core": self.core.tolist(),
            "objective_trace": list(self.objective_trace),
        }
        if config is not None:
            doc["config"] = asdict(config)
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "NtdModel":
        doc = json.loads(text)
        ranks = NtdRanks(*doc["ranks"])
        return cls(
            w=np.array(doc["w"], dtype=float),
            h=np.array(doc["h"], dtype=float),
            q=np.array(doc["q"], dtype=float),
            core=np.array(doc["core"], dtype=float),
            ranks=ranks,
            objective_trace=[float(v) for v in doc["objective_trace"]],
        )


def parameter_count(
    dims: tuple[int, int, int], ranks: NtdRanks
) -> tuple[int, int]:
    """Entry count of the full tensor versus its Tucker representation."""
    f, t, b = dims
    fr, tr, br = ranks.as_tuple()
    return f * t * b, f * fr + t * tr + b * br + fr * tr * br


def check_fit(x: np.ndarray, ranks: NtdRanks, cfg: NtdConfig) -> None:
    """Raise ValueError unless `decompose` can fit `x` at `ranks` under `cfg`."""
    x = real_array(x, "input tensor", 3)
    with np.errstate(over="ignore"):
        x_sq = float(np.einsum("ijk,ijk->", x, x))  # no copy of x in any layout
    if x.size and x.min() < 0:
        raise ValueError("input tensor must be nonnegative")
    if not math.isfinite(x_sq):
        raise ValueError("squared norm of the input tensor overflows")
    for rank, dim, name in zip(ranks.as_tuple(), x.shape, "FTB"):
        if rank > dim:
            raise ValueError(f"{name}-rank {rank} exceeds tensor dimension {dim}")
    if cfg.fix_w_to_identity and ranks.f_rank != x.shape[0]:
        raise ValueError(
            "fix_w_to_identity requires f_rank equal to the frequency dimension, "
            f"got f_rank {ranks.f_rank} and frequency dimension {x.shape[0]}"
        )


def initialize(x: np.ndarray, ranks: NtdRanks, cfg: NtdConfig = NtdConfig()) -> NtdModel:
    """Nonnegative model from the absolute values of the truncated HOSVD."""
    check_fit(x, ranks, cfg)
    skip = (0,) if cfg.fix_w_to_identity else ()
    w, h, q, core = (np.abs(a) for a in truncated_hosvd(x, ranks.as_tuple(), skip_modes=skip))
    model = NtdModel(w=w, h=h, q=q, core=core, ranks=ranks, objective_trace=[])
    model.objective_trace.append(model.objective(x))
    return model


def _factor_problem(
    projected: np.ndarray, core: np.ndarray, grams: list[np.ndarray], mode: int
) -> tuple[np.ndarray, np.ndarray]:
    """Gram-form NNLS subproblem ``(gram, cross)`` for the factor on `mode`.

    `projected` is the data contracted with the transposed factors on the
    other two modes, and `grams` holds every factor's Gram. The unknown is
    the transposed factor, so the Gram is rank-by-rank and never touches
    the long tensor modes directly.
    """
    others = tuple(i for i in range(3) if i != mode)
    core_image = core
    for i in others:
        core_image = mode_product(core_image, grams[i], i)
    gram = np.tensordot(core, core_image, axes=(others, others))
    cross = np.tensordot(core, projected, axes=(others, others))
    return gram, cross


def decompose(x: np.ndarray, ranks: NtdRanks, cfg: NtdConfig = NtdConfig()) -> NtdModel:
    """Alternating NTD from the HOSVD start: exactly `cfg.max_outer_iters`
    cycles of factor updates, then the core. The returned model is
    normalized; its objective trace holds the initial value plus one entry
    per cycle. The initial value is the explicit ``||x - x^||^2``; each
    cycle's is ``||x||^2`` plus `core_prox_gradient`'s ``value``, or the
    explicit residual where that is below ``GRAM_OBJECTIVE_FLOOR * ||x||^2``.

    This is the only code that contracts `x`. Every fit works on its own
    scaled, C-ordered copy of `x`, which is ``x x0 W.T`` when W is fixed; a
    free W forms ``x x0 W.T`` once per W. `check_fit` runs on `x` first.

    The fit runs on ``x / 2**e``, with ``2**e`` the power of two just above
    the largest entry, and the returned Q and objective trace carry
    ``2**e`` and ``4**e`` back. A power-of-two scale is exact, so
    ``decompose(2**k * x)`` is ``decompose(x)`` with Q scaled by ``2**k``,
    and the factor Grams cannot underflow on a tiny input.
    """
    check_fit(x, ranks, cfg)
    exponent = int(np.frexp(np.max(x))[1])
    # float64 whatever the input's real dtype; C order: same bits for every layout
    x = np.ldexp(x, -exponent, order="C", dtype=np.float64)
    x_sq = float(np.vdot(x, x))
    model = initialize(x, ranks, cfg)
    w, h, q, core = model.w, model.h, model.q, model.core
    grams = [w.T @ w, h.T @ h, q.T @ q]
    xw = x  # x x0 W.T for the fixed identity W; a free W step replaces it
    for iteration in range(cfg.max_outer_iters):
        if not cfg.fix_w_to_identity:
            xhq = mode_product(mode_product(x, h.T, 1), q.T, 2)
            w = hals_nnls(*_factor_problem(xhq, core, grams, 0), w.T).T
            grams[0] = w.T @ w
            xw = mode_product(x, w.T, 0)
        h = hals_nnls(*_factor_problem(mode_product(xw, q.T, 2), core, grams, 1), h.T).T
        grams[1] = h.T @ h
        xwh = mode_product(xw, h.T, 1)
        q = hals_nnls(*_factor_problem(xwh, core, grams, 2), q.T).T
        grams[2] = q.T @ q
        core, value = core_prox_gradient(tuple(grams), mode_product(xwh, q.T, 2), core)

        model.w, model.h, model.q, model.core = w, h, q, core
        objective = x_sq + value
        if objective < GRAM_OBJECTIVE_FLOOR * x_sq:
            objective = model.objective(x)
        if not np.isfinite(objective):
            raise FloatingPointError(
                f"non-finite objective at outer iteration {iteration}"
            )
        model.objective_trace.append(objective)
    model = normalize(model)
    return replace(
        model,
        q=np.ldexp(model.q, exponent),
        objective_trace=[math.ldexp(v, 2 * exponent) for v in model.objective_trace],
    )


def normalize(model: NtdModel) -> NtdModel:
    """Push scale so columns of H and frontal core slices have unit l2 norm.

    Column scales of H move into the core along the within-bar mode; core
    slice scales move into the corresponding columns of Q. Reconstruction
    is unchanged; zero columns and slices are left alone.
    """
    h = model.h.copy()
    core = model.core.copy()
    q = model.q.copy()

    col_norms = np.linalg.norm(h, axis=0)
    for j, norm in enumerate(col_norms):
        if norm > 0.0:
            h[:, j] /= norm
            core[:, j, :] *= norm

    for b in range(core.shape[2]):
        slice_norm = np.linalg.norm(core[:, :, b])
        if slice_norm > 0.0:
            core[:, :, b] /= slice_norm
            q[:, b] *= slice_norm

    return replace(model, h=h, core=core, q=q)

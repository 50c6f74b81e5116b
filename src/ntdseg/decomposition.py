"""Alternating nonnegative Tucker decomposition of order-3 tensors."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np

from .nnls import NnlsProblem, core_prox_gradient, hals_nnls
from .tensor_ops import mode_product, reconstruct, truncated_hosvd


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

    def validate_for(self, shape: tuple[int, int, int]) -> None:
        for rank, dim, name in zip(self.as_tuple(), shape, "FTB"):
            if rank > dim:
                raise ValueError(f"{name}-rank {rank} exceeds tensor dimension {dim}")


@dataclass(frozen=True)
class NtdConfig:
    max_outer_iters: int = 100
    outer_tolerance: float = 1e-8
    fix_w_to_identity: bool = False

    def __post_init__(self):
        if not (isinstance(self.max_outer_iters, Integral) and self.max_outer_iters >= 0):
            raise ValueError("max_outer_iters must be a nonnegative integer")
        if not 0.0 <= self.outer_tolerance < 1.0:
            raise ValueError("outer_tolerance must lie in [0, 1)")


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
            doc["config"] = {
                "max_outer_iters": config.max_outer_iters,
                "outer_tolerance": config.outer_tolerance,
                "fix_w_to_identity": config.fix_w_to_identity,
            }
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


def initialize(x: np.ndarray, ranks: NtdRanks, cfg: NtdConfig = NtdConfig()) -> NtdModel:
    """Nonnegative model from the absolute values of the truncated HOSVD."""
    ranks.validate_for(x.shape)
    if cfg.fix_w_to_identity and ranks.f_rank != x.shape[0]:
        raise ValueError("fix_w_to_identity requires f_rank equal to the frequency dimension")
    skip = (0,) if cfg.fix_w_to_identity else ()
    w, h, q, core = (np.abs(a) for a in truncated_hosvd(x, ranks.as_tuple(), skip_modes=skip))
    model = NtdModel(w=w, h=h, q=q, core=core, ranks=ranks, objective_trace=[])
    model.objective_trace.append(model.objective(x))
    return model


def _factor_problem(
    projected: np.ndarray, core: np.ndarray, grams: list[np.ndarray], mode: int
) -> NnlsProblem:
    """Gram-form NNLS subproblem for the factor on `mode`.

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
    return NnlsProblem(gram=gram, cross=cross)


def decompose(x: np.ndarray, ranks: NtdRanks, cfg: NtdConfig = NtdConfig()) -> NtdModel:
    """Alternating NTD from the HOSVD start: cyclic factor updates, then
    the core, until the relative objective improvement stalls. The returned
    model is normalized; its objective trace holds one entry per completed
    cycle plus the initial value.

    This is the only code that contracts `x`: it forms ``x x0 W.T`` once
    per W (once per fit when W is fixed) and reuses it for the H, Q and
    core steps. It takes ``||x||^2`` once per fit, only to reject an input
    whose squared norm overflows.
    """
    non_finite = int(np.count_nonzero(~np.isfinite(x)))
    if non_finite:
        raise ValueError(f"input tensor has {non_finite} non-finite entries (NaN or inf)")
    if np.any(x < 0):
        raise ValueError("input tensor must be nonnegative")
    with np.errstate(over="ignore"):
        x_sq = float(np.sum(x * x))
    if not math.isfinite(x_sq):
        raise ValueError("squared norm of the input tensor overflows")
    model = initialize(x, ranks, cfg)
    w, h, q, core = model.w, model.h, model.q, model.core
    grams = [w.T @ w, h.T @ h, q.T @ q]
    objective = model.objective_trace[0]
    xw = mode_product(x, w.T, 0) if cfg.fix_w_to_identity else None
    for iteration in range(cfg.max_outer_iters):
        if not cfg.fix_w_to_identity:
            xhq = mode_product(mode_product(x, h.T, 1), q.T, 2)
            w = hals_nnls(_factor_problem(xhq, core, grams, 0), w.T).T
            grams[0] = w.T @ w
            xw = mode_product(x, w.T, 0)
        h = hals_nnls(_factor_problem(mode_product(xw, q.T, 2), core, grams, 1), h.T).T
        grams[1] = h.T @ h
        xwh = mode_product(xw, h.T, 1)
        q = hals_nnls(_factor_problem(xwh, core, grams, 2), q.T).T
        grams[2] = q.T @ q
        core = core_prox_gradient(tuple(grams), mode_product(xwh, q.T, 2), core)

        model.w, model.h, model.q, model.core = w, h, q, core
        new_objective = model.objective(x)
        if not np.isfinite(new_objective):
            raise FloatingPointError(
                f"non-finite objective at outer iteration {iteration}"
            )
        model.objective_trace.append(new_objective)
        improvement = objective - new_objective
        objective = new_objective
        if improvement < cfg.outer_tolerance * max(objective, 1e-300):
            break
    return normalize(model)


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

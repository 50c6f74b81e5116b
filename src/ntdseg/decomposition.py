"""Alternating nonnegative Tucker decomposition of order-3 tensors."""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .nnls import NnlsProblem, SolverConfig, core_prox_gradient, hals_nnls
from .tensor_ops import frobenius_norm, mode_product, reconstruct, truncated_hosvd


@dataclass(frozen=True)
class NtdRanks:
    f_rank: int
    t_rank: int
    b_rank: int

    def __post_init__(self):
        if min(self.f_rank, self.t_rank, self.b_rank) < 1:
            raise ValueError("ranks must be positive")

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
    seed: int = 0
    perturb_init: bool = False
    inner: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.max_outer_iters < 0:
            raise ValueError("max_outer_iters must be nonnegative")
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
        return frobenius_norm(x - self.reconstruct()) ** 2

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
                "seed": config.seed,
                "perturb_init": config.perturb_init,
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
    w, h, q, core = truncated_hosvd(x, ranks.as_tuple(), nonnegative=True, skip_modes=skip)
    if cfg.fix_w_to_identity:
        w = np.eye(x.shape[0])
    if cfg.perturb_init:
        rng = np.random.default_rng(cfg.seed)
        h = h + rng.uniform(0.0, 1e-10, h.shape)
        q = q + rng.uniform(0.0, 1e-10, q.shape)
        core = core + rng.uniform(0.0, 1e-10, core.shape)
        if not cfg.fix_w_to_identity:
            w = w + rng.uniform(0.0, 1e-10, w.shape)
    model = NtdModel(w=w, h=h, q=q, core=core, ranks=ranks, objective_trace=[])
    model.objective_trace.append(model.objective(x))
    return model


def _factor_problem(
    x: np.ndarray, core: np.ndarray, factors: list[np.ndarray], mode: int, x_sq: float
) -> NnlsProblem:
    """Gram-form NNLS subproblem for the factor on `mode`.

    The unknown is the transposed factor, so the Gram is rank-by-rank and
    never touches the long tensor modes directly.
    """
    others = tuple(i for i in range(3) if i != mode)
    projected = x
    core_image = core
    for i in others:
        projected = mode_product(projected, factors[i].T, i)
        core_image = mode_product(core_image, factors[i].T @ factors[i], i)
    gram = np.tensordot(core, core_image, axes=(others, others))
    cross = np.tensordot(core, projected, axes=(others, others))
    return NnlsProblem(gram=gram, cross=cross, scale=x_sq)


def _check_init(init: NtdModel, shape: tuple[int, int, int], ranks: NtdRanks) -> None:
    r = ranks.as_tuple()
    expected = {
        "w": (shape[0], r[0]), "h": (shape[1], r[1]), "q": (shape[2], r[2]), "core": r,
    }
    for name, want in expected.items():
        array = getattr(init, name)
        if array.shape != want:
            raise ValueError(f"init {name} has shape {array.shape}, expected {want}")
        if not np.isfinite(array).all():
            raise ValueError(f"init {name} has non-finite entries")
        if np.any(array < 0):
            raise ValueError(f"init {name} has negative entries")


def decompose(
    x: np.ndarray,
    ranks: NtdRanks,
    cfg: NtdConfig = NtdConfig(),
    init: NtdModel | None = None,
) -> NtdModel:
    """Alternating NTD: cyclic factor updates, then the core, until the
    relative objective improvement stalls. The returned model is
    normalized; its objective trace holds one entry per completed cycle
    plus the initial value. `init` overrides the HOSVD starting point.
    """
    non_finite = int(np.count_nonzero(~np.isfinite(x)))
    if non_finite:
        raise ValueError(f"input tensor has {non_finite} non-finite entries (NaN or inf)")
    if np.any(x < 0):
        raise ValueError("input tensor must be nonnegative")
    if init is not None:
        ranks.validate_for(x.shape)
        _check_init(init, x.shape, ranks)
        model = NtdModel(
            w=init.w.copy(), h=init.h.copy(), q=init.q.copy(),
            core=init.core.copy(), ranks=ranks, objective_trace=[],
        )
        model.objective_trace.append(model.objective(x))
    else:
        model = initialize(x, ranks, cfg)
    x_sq = float(np.sum(x * x))
    factors = [model.w, model.h, model.q]
    core = model.core
    objective = model.objective_trace[0]
    for iteration in range(cfg.max_outer_iters):
        for mode in range(3):
            if mode == 0 and cfg.fix_w_to_identity:
                continue
            problem = _factor_problem(x, core, factors, mode, x_sq)
            factors[mode] = hals_nnls(problem, factors[mode].T, cfg.inner).T
        core = core_prox_gradient(x, factors[0], factors[1], factors[2], core, cfg.inner)

        new_objective = frobenius_norm(x - reconstruct(core, *factors)) ** 2
        if not np.isfinite(new_objective):
            raise FloatingPointError(
                f"non-finite objective at outer iteration {iteration}"
            )
        model.objective_trace.append(new_objective)
        improvement = objective - new_objective
        objective = new_objective
        if improvement < cfg.outer_tolerance * max(objective, 1e-300):
            break
    model.w, model.h, model.q, model.core = factors[0], factors[1], factors[2], core
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

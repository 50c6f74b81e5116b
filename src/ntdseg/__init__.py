"""Bar-scale nonnegative Tucker decomposition and structural segmentation."""

from .decomposition import (
    NtdConfig,
    NtdModel,
    NtdRanks,
    decompose,
    initialize,
    normalize,
    parameter_count,
)
from .evaluation import (
    DEFAULT_TOLERANCES,
    HitRateScore,
    LambdaFit,
    RankSweepResult,
    default_rank_grid,
    fit_lambda,
    hit_rate,
    oracle_select,
    rank_sweep,
    segment_song,
    snap_to_downbeats,
)
from .ingest import (
    BarGrid,
    Chromagram,
    IngestError,
    ReferenceSegmentation,
    load_annotation,
    load_bars,
    load_chromagram,
    save_annotation,
    save_bars,
    save_chromagram,
    synth_song,
    tensor_to_chromagram,
    tensorize,
)
from .nnls import NnlsProblem, SolverConfig, core_prox_gradient, hals_nnls
from .segmentation import (
    Segmentation,
    SegmentationConfig,
    autosimilarity_from_features,
    boundaries_to_times,
    make_kernel,
    modified_score,
    penalty,
    raw_score,
    segment,
)
from .tensor_ops import frobenius_norm, mode_product, reconstruct, truncated_hosvd

__all__ = [name for name in dir() if not name.startswith("_")]

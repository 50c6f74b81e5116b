"""Boundary hit-rate metrics and experiment harnesses."""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .decomposition import NtdConfig, NtdRanks, check_fit, decompose
from .ingest import BarGrid, ReferenceSegmentation, check_bar_count
from .segmentation import (
    SegmentationConfig,
    autosimilarity_from_features,
    boundaries_to_times,
    segment,
)
from .tensor_ops import integer_arg

DEFAULT_TOLERANCES = (0.5, 3.0)


@dataclass(frozen=True)
class HitRateScore:
    tolerance: float
    precision: float
    recall: float
    f_measure: float
    matched: int
    n_ref: int
    n_est: int


def _max_matching(reference: list[float], estimate: list[float], tolerance: float) -> int:
    """Maximum one-to-one matching of two sorted lists within `tolerance`.

    Every tolerance window has the same width, so pairing the earliest
    unmatched reference with the earliest unmatched estimate it can reach
    is optimal; one forward pass over both lists suffices.
    """
    matched = i = j = 0
    while i < len(reference) and j < len(estimate):
        if abs(reference[i] - estimate[j]) <= tolerance:
            matched += 1
            i += 1
            j += 1
        elif estimate[j] < reference[i]:
            j += 1
        else:
            i += 1
    return matched


def _check_tolerance(tolerance: float) -> None:
    try:
        valid = bool(np.isfinite(tolerance) and tolerance > 0)
    except TypeError:  # not a number
        valid = False
    if not valid:
        raise ValueError("tolerance must be a positive finite number")


def hit_rate(reference, estimate, tolerance: float) -> HitRateScore:
    """Precision/recall/F of estimated boundaries against a reference.

    A boundary counts as correct when it lies within `tolerance` seconds
    of a reference boundary, under a maximum one-to-one matching.
    """
    reference = [float(t) for t in reference]
    estimate = [float(t) for t in estimate]
    if not np.isfinite(reference + estimate).all():
        raise ValueError("boundary times must be finite, got NaN or inf")
    if reference != sorted(reference) or estimate != sorted(estimate):
        raise ValueError("boundary lists must be sorted ascending")
    _check_tolerance(tolerance)

    matched = _max_matching(reference, estimate, tolerance)
    precision = matched / len(estimate) if estimate else 0.0
    recall = matched / len(reference) if reference else 0.0
    f_measure = (
        2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    )
    return HitRateScore(
        tolerance=tolerance,
        precision=precision,
        recall=recall,
        f_measure=f_measure,
        matched=matched,
        n_ref=len(reference),
        n_est=len(estimate),
    )


@dataclass(frozen=True)
class SweepEntry:
    objective: float
    scores: dict[float, HitRateScore]


def default_rank_grid(low: int = 12, high: int = 48, step: int = 4):
    """Grid of (t_rank, b_rank) pairs, 12..48 step 4 by default."""
    step = integer_arg(step, "rank step", 1)
    low = integer_arg(low, "lowest rank", 1)
    high = integer_arg(high, "highest rank", 1)
    if low > high:
        raise ValueError(f"lowest rank {low} exceeds highest rank {high}")
    values = range(low, high + 1, step)
    return [(t, b) for t in values for b in values]


def segment_song(
    x: np.ndarray,
    bars: BarGrid,
    ranks: NtdRanks,
    ntd_cfg: NtdConfig,
    seg_cfg: SegmentationConfig,
):
    """Decompose, build the bar autosimilarity and segment; returns the
    timed segmentation, the final objective and the autosimilarity."""
    check_bar_count(x, bars)
    model = decompose(x, ranks, ntd_cfg)
    autosim = autosimilarity_from_features(model.q)
    seg = boundaries_to_times(segment(autosim, seg_cfg), bars)
    return seg, model.objective_trace[-1], autosim


def rank_sweep(
    x: np.ndarray,
    bars: BarGrid,
    reference: ReferenceSegmentation,
    grid,
    ntd_cfg: NtdConfig = NtdConfig(fix_w_to_identity=True),
    seg_cfg: SegmentationConfig = SegmentationConfig(),
    tolerances=DEFAULT_TOLERANCES,
) -> dict[tuple[int, int], SweepEntry]:
    """Evaluate the full pipeline on every (t_rank, b_rank) pair.

    Returns a dict keyed by (t_rank, b_rank); every fit has F-rank
    `x.shape[0]`. Before the first fit it checks every tolerance, `check_fit`
    at every pair and the bar count of `x` against `bars`.
    """
    if not grid:
        raise ValueError("rank grid must be nonempty")
    for tol in tolerances:
        _check_tolerance(tol)
    ranks = {}
    for t_rank, b_rank in grid:
        try:
            pair_ranks = NtdRanks(x.shape[0], t_rank, b_rank)
            check_fit(x, pair_ranks, ntd_cfg)
        except ValueError as exc:
            raise ValueError(f"rank pair ({t_rank}, {b_rank}): {exc}") from exc
        ranks[t_rank, b_rank] = pair_ranks
    check_bar_count(x, bars)
    ref_bounds = reference.boundaries()
    sweep = {}
    for (t_rank, b_rank), pair_ranks in ranks.items():
        try:
            seg, objective, _ = segment_song(x, bars, pair_ranks, ntd_cfg, seg_cfg)
        except Exception as exc:
            raise RuntimeError(f"rank pair ({t_rank}, {b_rank}) failed: {exc}") from exc
        scores = {
            tol: hit_rate(ref_bounds, list(seg.boundary_times), tol)
            for tol in tolerances
        }
        sweep[t_rank, b_rank] = SweepEntry(objective=objective, scores=scores)
    return sweep


def oracle_select(
    sweep: dict[tuple[int, int], SweepEntry], tolerance: float
) -> tuple[int, int, HitRateScore]:
    """Grid point with the best F at `tolerance`; ties prefer smaller
    t_rank, then smaller b_rank."""
    if not sweep:
        raise ValueError("empty sweep result")
    for key, entry in sweep.items():
        if tolerance not in entry.scores:
            raise ValueError(
                f"tolerance {tolerance} is not scored at grid point {key}, "
                f"which scores {sorted(entry.scores)}"
            )
    best = min(sweep, key=lambda key: (-sweep[key].scores[tolerance].f_measure, key))
    return best[0], best[1], sweep[best].scores[tolerance]


@dataclass(frozen=True)
class LambdaFit:
    """2-fold cross-validated penalty weight.

    Fold A tunes on even-indexed songs and tests on odd ones; fold B the
    reverse. `selected` is the tuned value with the better corpus-wide
    mean F (smaller value on ties).
    """

    even_tuned: float
    odd_tuned: float
    even_test_f: float
    odd_test_f: float
    selected: float

    @property
    def mean_test_f(self) -> float:
        return 0.5 * (self.even_test_f + self.odd_test_f)


def fit_lambda(
    corpus,
    lambda_grid,
    ranks: NtdRanks,
    ntd_cfg: NtdConfig = NtdConfig(fix_w_to_identity=True),
    seg_cfg: SegmentationConfig = SegmentationConfig(),
    tolerance: float = 0.5,
) -> LambdaFit:
    """Fit the regularity penalty weight by 2-fold cross-validation over
    a corpus of (tensor, bars, reference) songs split by index parity.

    Before the first fit it checks every lambda, the tolerance, and for
    each song `check_fit` at `ranks` and its bar count against its grid.
    """
    if len(corpus) < 2:
        raise ValueError("corpus must contain at least 2 songs")
    if not lambda_grid:
        raise ValueError("lambda grid must be nonempty")
    _check_tolerance(tolerance)
    for k, (x, bars, _) in enumerate(corpus):
        try:
            check_fit(x, ranks, ntd_cfg)
            check_bar_count(x, bars)
        except ValueError as exc:
            raise ValueError(f"song {k}: {exc}") from exc
    lambdas = sorted(set(float(v) for v in lambda_grid))
    configs = [replace(seg_cfg, penalty_weight=lam) for lam in lambdas]

    # Decomposition does not depend on lambda: fit each song once, then
    # segment it once per lambda into a songs x lambdas table of F values.
    f_table = np.empty((len(corpus), len(lambdas)))
    for i, (x, bars, reference) in enumerate(corpus):
        autosim = autosimilarity_from_features(decompose(x, ranks, ntd_cfg).q)
        ref_bounds = reference.boundaries()
        for j, cfg in enumerate(configs):
            seg = boundaries_to_times(segment(autosim, cfg), bars)
            f_table[i, j] = hit_rate(ref_bounds, list(seg.boundary_times), tolerance).f_measure

    # Fold means add the songs in index order; ndarray.mean may sum pairwise.
    even_f, odd_f, all_f = (
        sum(rows) / len(rows) for rows in (f_table[0::2], f_table[1::2], f_table)
    )
    # argmax takes the first maximum: the smallest lambda among ties.
    even_i, odd_i = int(np.argmax(even_f)), int(np.argmax(odd_f))
    selected = min(even_i, odd_i, key=lambda j: (-all_f[j], j))
    return LambdaFit(
        even_tuned=lambdas[even_i],
        odd_tuned=lambdas[odd_i],
        even_test_f=float(odd_f[even_i]),
        odd_test_f=float(even_f[odd_i]),
        selected=lambdas[selected],
    )


def write_sweep_report(
    path, sweep: dict[tuple[int, int], SweepEntry], tolerances=DEFAULT_TOLERANCES
) -> None:
    """Tab-delimited table, one row per grid point."""
    with open(path, "w") as fh:
        header = ["t_rank", "b_rank", "objective"]
        for tol in tolerances:
            header += [f"P@{tol}", f"R@{tol}", f"F@{tol}"]
        fh.write("\t".join(header) + "\n")
        for (t_rank, b_rank), entry in sorted(sweep.items()):
            row = [str(t_rank), str(b_rank), repr(entry.objective)]
            for tol in tolerances:
                score = entry.scores[tol]
                row += [repr(score.precision), repr(score.recall), repr(score.f_measure)]
            fh.write("\t".join(row) + "\n")

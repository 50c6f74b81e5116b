"""Boundary hit-rate metrics and experiment harnesses."""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .decomposition import NtdConfig, NtdRanks, decompose
from .ingest import BarGrid, ReferenceSegmentation
from .segmentation import (
    SegmentationConfig,
    autosimilarity_from_features,
    boundaries_to_times,
    segment,
)

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


def hit_rate(reference, estimate, tolerance: float) -> HitRateScore:
    """Precision/recall/F of estimated boundaries against a reference.

    A boundary counts as correct when it lies within `tolerance` seconds
    of a reference boundary, under a maximum one-to-one matching.
    """
    reference = [float(t) for t in reference]
    estimate = [float(t) for t in estimate]
    if reference != sorted(reference) or estimate != sorted(estimate):
        raise ValueError("boundary lists must be sorted ascending")
    if not (np.isfinite(tolerance) and tolerance > 0):
        raise ValueError("tolerance must be a positive finite number")

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
    t_rank: int
    b_rank: int
    objective: float
    scores: dict[float, HitRateScore]


@dataclass
class RankSweepResult:
    entries: dict[tuple[int, int], SweepEntry] = field(default_factory=dict)


def default_rank_grid(low: int = 12, high: int = 48, step: int = 4):
    """Grid of (t_rank, b_rank) pairs, 12..48 step 4 by default."""
    if step <= 0:
        raise ValueError(f"rank step must be positive, got {step}")
    if low < 1:
        raise ValueError(f"lowest rank must be at least 1, got {low}")
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
) -> RankSweepResult:
    """Evaluate the full pipeline on every (t_rank, b_rank) pair."""
    if not grid:
        raise ValueError("rank grid must be nonempty")
    ref_bounds = reference.boundaries()
    result = RankSweepResult()
    for t_rank, b_rank in grid:
        ranks = NtdRanks(x.shape[0], t_rank, b_rank)
        try:
            seg, objective, _ = segment_song(x, bars, ranks, ntd_cfg, seg_cfg)
        except Exception as exc:
            raise RuntimeError(f"rank pair ({t_rank}, {b_rank}) failed: {exc}") from exc
        scores = {
            tol: hit_rate(ref_bounds, list(seg.boundary_times), tol)
            for tol in tolerances
        }
        result.entries[(t_rank, b_rank)] = SweepEntry(
            t_rank=t_rank, b_rank=b_rank, objective=objective, scores=scores
        )
    return result


def oracle_select(
    sweep: RankSweepResult, tolerance: float
) -> tuple[int, int, HitRateScore]:
    """Grid point with the best F at `tolerance`; ties prefer smaller
    t_rank, then smaller b_rank."""
    if not sweep.entries:
        raise ValueError("empty sweep result")
    best_key = min(
        sweep.entries,
        key=lambda key: (-sweep.entries[key].scores[tolerance].f_measure, key[0], key[1]),
    )
    return best_key[0], best_key[1], sweep.entries[best_key].scores[tolerance]


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
    a corpus of (tensor, bars, reference) songs split by index parity."""
    if len(corpus) < 2:
        raise ValueError("corpus must contain at least 2 songs")
    if not lambda_grid:
        raise ValueError("lambda grid must be nonempty")
    lambda_grid = sorted(set(float(v) for v in lambda_grid))

    # Decomposition does not depend on lambda: fit each song once, then
    # segment it once per lambda into a table of F values.
    f_table = []
    for x, bars, reference in corpus:
        autosim = autosimilarity_from_features(decompose(x, ranks, ntd_cfg).q)
        ref_bounds = reference.boundaries()
        row = {}
        for lam in lambda_grid:
            seg = boundaries_to_times(segment(autosim, replace(seg_cfg, penalty_weight=lam)), bars)
            row[lam] = hit_rate(ref_bounds, list(seg.boundary_times), tolerance).f_measure
        f_table.append(row)

    def mean_f(indices, lam: float) -> float:
        total = 0.0
        for i in indices:
            total += f_table[i][lam]
        return total / len(indices)

    even = [i for i in range(len(corpus)) if i % 2 == 0]
    odd = [i for i in range(len(corpus)) if i % 2 == 1]

    def tune(indices) -> float:
        scores = {lam: mean_f(indices, lam) for lam in lambda_grid}
        return max(scores, key=lambda lam: (scores[lam], -lam))

    even_tuned = tune(even)
    odd_tuned = tune(odd)
    even_test_f = mean_f(odd, even_tuned)
    odd_test_f = mean_f(even, odd_tuned)

    all_indices = list(range(len(corpus)))
    selected = max(
        (even_tuned, odd_tuned),
        key=lambda lam: (mean_f(all_indices, lam), -lam),
    )
    return LambdaFit(
        even_tuned=even_tuned,
        odd_tuned=odd_tuned,
        even_test_f=even_test_f,
        odd_test_f=odd_test_f,
        selected=selected,
    )


def write_sweep_report(path, sweep: RankSweepResult, tolerances=DEFAULT_TOLERANCES) -> None:
    """Tab-delimited table, one row per grid point."""
    with open(path, "w") as fh:
        header = ["t_rank", "b_rank", "objective"]
        for tol in tolerances:
            header += [f"P@{tol}", f"R@{tol}", f"F@{tol}"]
        fh.write("\t".join(header) + "\n")
        for key in sorted(sweep.entries):
            entry = sweep.entries[key]
            row = [str(entry.t_rank), str(entry.b_rank), repr(entry.objective)]
            for tol in tolerances:
                score = entry.scores[tol]
                row += [repr(score.precision), repr(score.recall), repr(score.f_measure)]
            fh.write("\t".join(row) + "\n")

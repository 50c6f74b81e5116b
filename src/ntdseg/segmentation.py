"""Autosimilarity construction and kernel-based boundary search."""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ingest import BarGrid


@dataclass(frozen=True)
class SegmentationConfig:
    penalty_weight: float = 1.0  # lambda in the modified score
    max_segment_bars: int = 32
    kernel_band: int = 4

    def __post_init__(self):
        if not (np.isfinite(self.penalty_weight) and self.penalty_weight >= 0):
            raise ValueError("penalty_weight must be a nonnegative finite number")
        if self.max_segment_bars < 2:
            raise ValueError("max_segment_bars must be at least 2")
        if self.kernel_band < 1:
            raise ValueError("kernel_band must be positive")


@dataclass(frozen=True)
class Segmentation:
    """Bar-index boundaries 0 = b_0 < ... < b_k = B and their times."""

    bar_boundaries: tuple[int, ...]
    boundary_times: tuple[float, ...] | None = None


def autosimilarity_from_features(features: np.ndarray) -> np.ndarray:
    """Cosine autosimilarity of per-bar feature rows.

    Rows are l2-normalized (zero rows stay zero) before the outer
    product, giving a symmetric matrix with entries in [0, 1] for
    nonnegative features and unit diagonal on nonzero rows.
    """
    features = np.asarray(features, dtype=float)
    norms = np.linalg.norm(features, axis=1, keepdims=True)
    safe = np.where(norms > 0.0, norms, 1.0)
    normalized = features / safe
    return normalized @ normalized.T


def make_kernel(n: int, band: int = 4) -> np.ndarray:
    """Binary kernel with ones on the first `band` off-diagonals."""
    if n < 2:
        raise ValueError("kernel size must be at least 2")
    offsets = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return ((offsets >= 1) & (offsets <= band)).astype(float)


def raw_score(a: np.ndarray, b1: int, b2: int, band: int = 4) -> float:
    """Kernel-weighted mean similarity of the segment [b1, b2]."""
    size = a.shape[0]
    if not 0 <= b1 <= b2 < size:
        raise IndexError(f"segment ({b1}, {b2}) out of range for {size} bars")
    n = b2 - b1 + 1
    if n == 1:
        return 0.0
    sub = a[b1 : b2 + 1, b1 : b2 + 1]
    total = 0.0
    for d in range(1, min(band, n - 1) + 1):
        total += float(np.trace(sub, offset=d)) + float(np.trace(sub, offset=-d))
    return total / n


def penalty(n: int) -> float:
    """Segment-length regularity prior: 8-bar segments are free, then
    multiples of 4, then even lengths, with odd lengths penalized most."""
    if n < 1:
        raise ValueError("segment length must be positive")
    if n == 8:
        return 0.0
    if n % 4 == 0:
        return 0.25
    if n % 2 == 0:
        return 0.5
    return 1.0


def max_eight_bar_score(a: np.ndarray, band: int = 4) -> float:
    """Maximum raw score over all 8-bar windows (full-length windows when
    the piece is shorter than 8 bars)."""
    size = a.shape[0]
    window = min(8, size)
    return max(raw_score(a, s, s + window - 1, band) for s in range(size - window + 1))


def modified_score(
    a: np.ndarray, b1: int, b2: int, cfg: SegmentationConfig, c_max8: float
) -> float:
    n = b2 - b1 + 1
    return raw_score(a, b1, b2, cfg.kernel_band) - cfg.penalty_weight * penalty(n) * c_max8


def segment(a: np.ndarray, cfg: SegmentationConfig = SegmentationConfig()) -> Segmentation:
    """Optimal contiguous partition of the bars by dynamic programming.

    Maximizes the sum of modified segment scores over all partitions with
    segments no longer than `max_segment_bars`. Ties prefer fewer
    segments, then the lexicographically smallest boundary sequence.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"autosimilarity must be a square matrix, got shape {a.shape}")
    size = a.shape[0]
    if size < 1:
        raise ValueError("autosimilarity must cover at least one bar")
    if not np.isfinite(a).all():
        raise ValueError("autosimilarity has non-finite entries (NaN or inf)")
    c_max8 = max_eight_bar_score(a, cfg.kernel_band)

    # best[e]: (total score, segment count, boundary prefix) for bars [0, e)
    best: list[tuple[float, int, tuple[int, ...]] | None] = [None] * (size + 1)
    best[0] = (0.0, 0, (0,))
    for end in range(1, size + 1):
        chosen = None
        for start in range(max(0, end - cfg.max_segment_bars), end):
            prev = best[start]
            if prev is None:
                continue
            total = prev[0] + modified_score(a, start, end - 1, cfg, c_max8)
            candidate = (total, prev[1] + 1, prev[2] + (end,))
            if (
                chosen is None
                or candidate[0] > chosen[0]
                or (candidate[0] == chosen[0] and candidate[1] < chosen[1])
                or (
                    candidate[0] == chosen[0]
                    and candidate[1] == chosen[1]
                    and candidate[2] < chosen[2]
                )
            ):
                chosen = candidate
        best[end] = chosen
    assert best[size] is not None
    return Segmentation(bar_boundaries=best[size][2])


def boundaries_to_times(seg: Segmentation, bars: BarGrid) -> Segmentation:
    """Attach the downbeat time of every bar boundary."""
    for b in seg.bar_boundaries:
        if not 0 <= b <= bars.n_bars:
            raise IndexError(f"boundary {b} outside bar grid with {bars.n_bars} bars")
    times = tuple(float(bars.downbeats[b]) for b in seg.bar_boundaries)
    return replace(seg, boundary_times=times)


def save_segmentation(path, boundary_times) -> None:
    """Write MIREX-style 'start end label' lines with synthetic labels."""
    times = list(boundary_times)
    with open(path, "w") as fh:
        for k in range(len(times) - 1):
            fh.write(f"{times[k]!r} {times[k + 1]!r} S{k}\n")

"""Autosimilarity construction and kernel-based boundary search."""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ingest import BarGrid
from .tensor_ops import integer_arg, real_array


@dataclass(frozen=True)
class SegmentationConfig:
    penalty_weight: float = 1.0  # lambda in the modified score
    max_segment_bars: int = 32
    kernel_band: int = 4

    def __post_init__(self):
        try:
            valid = bool(np.isfinite(self.penalty_weight) and self.penalty_weight >= 0)
        except TypeError:  # not a number
            valid = False
        if not valid:
            raise ValueError("penalty_weight must be a nonnegative finite number")
        for name, minimum in (("max_segment_bars", 2), ("kernel_band", 1)):
            object.__setattr__(self, name, integer_arg(getattr(self, name), name, minimum))


@dataclass(frozen=True)
class Segmentation:
    """Bar-index boundaries 0 = b_0 < ... < b_k = B and their times."""

    bar_boundaries: tuple[int, ...]
    boundary_times: tuple[float, ...] | None = None


def autosimilarity_from_features(features: np.ndarray) -> np.ndarray:
    """Cosine autosimilarity of per-bar feature rows.

    Rows are l2-normalized (zero rows stay zero) before the outer
    product, giving a symmetric matrix with entries in [0, 1] for
    nonnegative features and unit diagonal on nonzero rows. Each row is
    first scaled by the power of two that puts its largest magnitude in
    [1/2, 1), so the norm can neither underflow nor overflow, and scaling
    a row by any power of two leaves the matrix unchanged, bit for bit.
    """
    features = real_array(features, "features", 2)
    _, exponents = np.frexp(np.abs(features).max(axis=1, keepdims=True, initial=0.0))
    features = np.ldexp(features, -exponents)
    norms = np.linalg.norm(features, axis=1, keepdims=True)
    safe = np.where(norms > 0.0, norms, 1.0)
    normalized = features / safe
    return normalized @ normalized.T


def _band_scores(a: np.ndarray, band: int, longest: int) -> np.ndarray:
    """Raw score of every segment of up to `longest` <= len(a) bars.

    Entry [s, n - 1] is the kernel-weighted mean similarity of bars
    [s, s + n), -inf where that segment runs past the last bar. A
    segment's kernel sum is the sum of the segment one bar shorter plus
    the pairs a[e, e - k] + a[e - k, e] of its new last bar e for
    k = 1..min(band, n - 1), added in that order, so a block scores the
    same to the bit wherever it sits in `a`.
    """
    size = a.shape[0]
    sums = np.full((size, longest), -np.inf)
    sums[:, 0] = 0.0
    last_bar = np.zeros(size)  # pairs of bar e with the bars before it so far
    for k in range(1, longest):
        if k <= band:
            last_bar[k:] += np.diagonal(a, -k) + np.diagonal(a, k)
        sums[: size - k, k] = sums[: size - k, k - 1] + last_bar[k:]
    return sums / np.arange(1, longest + 1)


def raw_score(a: np.ndarray, b1: int, b2: int, band: int = 4) -> float:
    """Kernel-weighted mean similarity of the segment [b1, b2]."""
    size = a.shape[0]
    if not 0 <= b1 <= b2 < size:
        raise IndexError(f"segment ({b1}, {b2}) out of range for {size} bars")
    return float(_band_scores(a[b1 : b2 + 1, b1 : b2 + 1], band, b2 - b1 + 1)[0, -1])


def penalty(n: int) -> float:
    """Segment-length regularity prior: 8-bar segments are free, then
    multiples of 4, then even lengths, with odd lengths penalized most."""
    n = integer_arg(n, "segment length", 1)
    if n == 8:
        return 0.0
    if n % 4 == 0:
        return 0.25
    if n % 2 == 0:
        return 0.5
    return 1.0


def segment(a: np.ndarray, cfg: SegmentationConfig = SegmentationConfig()) -> Segmentation:
    """Optimal contiguous partition of the bars by dynamic programming.

    Maximizes the exact sum of modified segment scores over all partitions
    with segments no longer than `max_segment_bars`. Ties prefer fewer
    segments, then the lexicographically smallest boundary sequence.
    """
    a = real_array(a, "autosimilarity")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"autosimilarity must be a square matrix, got shape {a.shape}")
    size = a.shape[0]
    if size < 1:
        raise ValueError("autosimilarity must cover at least one bar")
    longest = cfg.max_segment_bars
    with np.errstate(over="ignore", invalid="ignore"):
        raw = _band_scores(a, cfg.kernel_band, min(size, max(8, longest)))
        c_max8 = raw[:, min(8, size) - 1].max()
        penalties = np.array([penalty(n) for n in range(1, raw.shape[1] + 1)])
        scores = raw - cfg.penalty_weight * penalties * c_max8
    # segments [s, s + n) that end inside the song; the others score -inf
    inside = np.add.outer(np.arange(size), np.arange(1, raw.shape[1] + 1)) <= size
    if not np.isfinite(scores[inside]).all():
        raise ValueError(
            f"segment scores overflow: penalty_weight {cfg.penalty_weight!r} "
            "or the autosimilarity's entries are too large"
        )
    # Totals are exact: each score is an integer count of the smallest power
    # of two among them, so partitions tie exactly when their scores do.
    mantissa, exponent = np.frexp(np.where(inside, scores, 0.0))
    mantissa = np.ldexp(mantissa, 53).astype(np.int64).astype(object)
    units = (mantissa << (exponent - exponent.min())).tolist()
    # totals[e], bounds[e]: best partition of bars [0, e)
    totals, bounds = [0], [(0,)]
    for end in range(1, size + 1):
        start = min(
            range(max(0, end - longest), end),
            key=lambda s: (-(totals[s] + units[s][end - s - 1]), len(bounds[s]), bounds[s]),
        )
        totals.append(totals[start] + units[start][end - start - 1])
        bounds.append(bounds[start] + (end,))
    return Segmentation(bar_boundaries=bounds[size])


def boundaries_to_times(seg: Segmentation, bars: BarGrid) -> Segmentation:
    """Attach the downbeat time of every bar boundary."""
    for b in seg.bar_boundaries:
        if not 0 <= b <= bars.n_bars:
            raise IndexError(f"boundary {b} outside bar grid with {bars.n_bars} bars")
    times = tuple(float(bars.downbeats[b]) for b in seg.bar_boundaries)
    return replace(seg, boundary_times=times)


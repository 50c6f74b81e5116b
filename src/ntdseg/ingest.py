"""File ingestion, bar-synchronous tensorization and synthetic songs."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .tensor_ops import real_array


class IngestError(ValueError):
    """Raised on unparsable or invariant-violating input files."""


@dataclass(frozen=True)
class Chromagram:
    """Per-frame pitch-class energies with their timestamps."""

    frame_times: np.ndarray
    values: np.ndarray  # n_pitch_classes x n_frames, nonnegative

    def __post_init__(self):
        object.__setattr__(self, "frame_times", real_array(self.frame_times, "frame times", 1))
        object.__setattr__(self, "values", real_array(self.values, "chroma values", 2))
        if self.frame_times.shape[0] != self.values.shape[1]:
            raise IngestError(
                f"{self.frame_times.shape[0]} frame times for "
                f"{self.values.shape[1]} chroma frames"
            )
        diffs = np.diff(self.frame_times)
        if np.any(diffs <= 0):
            idx = int(np.argmax(diffs <= 0))
            raise IngestError(f"frame times not strictly increasing at index {idx + 1}")
        if np.any(self.values < 0):
            row, col = np.unravel_index(int(np.argmin(self.values)), self.values.shape)
            raise IngestError(f"negative chroma energy at row {row}, column {col}")

    @property
    def n_pitch_classes(self) -> int:
        return self.values.shape[0]

    @property
    def n_frames(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class BarGrid:
    """Downbeat times in seconds; bar b spans [downbeats[b], downbeats[b+1])."""

    downbeats: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "downbeats", real_array(self.downbeats, "downbeats", 1))
        if self.downbeats.shape[0] < 2:
            raise IngestError("bar grid needs at least 2 downbeats")
        diffs = np.diff(self.downbeats)
        if np.any(diffs <= 0):
            idx = int(np.argmax(diffs <= 0))
            raise IngestError(f"downbeats not strictly increasing at index {idx + 1}")

    @property
    def n_bars(self) -> int:
        return self.downbeats.shape[0] - 1


@dataclass(frozen=True)
class ReferenceSegmentation:
    """Contiguous labeled segments (start, end, label) in seconds."""

    segments: tuple[tuple[float, float, str], ...]

    def __post_init__(self):
        if not self.segments:
            raise IngestError("no segments found")
        for k, (start, end, _) in enumerate(self.segments):
            if not (np.isfinite(start) and np.isfinite(end)):
                raise IngestError(f"segment {k} has a non-finite bound")
            if start >= end:
                raise IngestError(f"segment {k} has start {start} >= end {end}")
            if k > 0 and self.segments[k - 1][1] != start:
                raise IngestError(
                    f"segment {k} start {start} does not continue previous end "
                    f"{self.segments[k - 1][1]}"
                )

    def boundaries(self) -> list[float]:
        """Segment start times plus the final end time."""
        return [s for s, _, _ in self.segments] + [self.segments[-1][1]]


def _load_json(path, kind: str, build):
    """`build` applied to the JSON document at `path`. Any decoding error
    and any KeyError, TypeError or ValueError of `build` becomes an
    IngestError whose message starts with the path."""
    with open(path) as fh:
        try:
            return build(json.load(fh))
        except json.JSONDecodeError as exc:
            raise IngestError(f"{path}: invalid JSON: {exc}") from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise IngestError(f"{path}: malformed {kind} document: {exc}") from exc


def _chromagram(doc) -> Chromagram:
    chroma = np.array(doc["chroma"], dtype=float)
    pitch_classes = int(doc["pitch_classes"])
    if chroma.ndim != 2 or chroma.shape[1] != pitch_classes:
        raise IngestError(f"chroma frames must each have {pitch_classes} entries")
    return Chromagram(frame_times=np.array(doc["frame_times"], dtype=float), values=chroma.T)


def load_chromagram(path) -> Chromagram:
    return _load_json(path, "chromagram", _chromagram)


def save_chromagram(path, chroma: Chromagram) -> None:
    doc = {
        "pitch_classes": chroma.n_pitch_classes,
        "frame_times": chroma.frame_times.tolist(),
        "chroma": chroma.values.T.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_bars(path) -> BarGrid:
    return _load_json(path, "bar", lambda doc: BarGrid(np.array(doc["downbeats"], dtype=float)))


def save_bars(path, bars: BarGrid) -> None:
    with open(path, "w") as fh:
        json.dump({"downbeats": bars.downbeats.tolist()}, fh)


def load_annotation(path) -> ReferenceSegmentation:
    segments = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(None, 2)
            if len(parts) < 3:
                raise IngestError(f"{path}:{lineno}: expected 'start end label'")
            try:
                start, end = float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise IngestError(f"{path}:{lineno}: unparsable time: {exc}") from exc
            segments.append((start, end, parts[2]))
    try:
        return ReferenceSegmentation(segments=tuple(segments))
    except IngestError as exc:
        raise IngestError(f"{path}: {exc}") from exc


def save_annotation(path, segmentation: ReferenceSegmentation) -> None:
    with open(path, "w") as fh:
        for start, end, label in segmentation.segments:
            fh.write(f"{start!r} {end!r} {label}\n")


def tensorize(chroma: Chromagram, bars: BarGrid, frames_per_bar: int = 96) -> np.ndarray:
    """Recast a chromagram as a pitch-class x frame x bar tensor.

    Each bar span is cut into `frames_per_bar` equal sub-intervals and
    each output frame is the mean of the chroma frames falling in its
    sub-interval. Empty sub-intervals borrow the chroma frame nearest in
    time to their center, the earlier one on a tie. A bar containing no
    chroma frames at all is a degenerate input and rejected.
    """
    if not isinstance(frames_per_bar, (int, np.integer)) or frames_per_bar < 1:
        raise ValueError("frames_per_bar must be a positive integer")
    times, beats, fpb, n_bars = chroma.frame_times, bars.downbeats, frames_per_bar, bars.n_bars
    first = np.searchsorted(times, beats)  # bar b holds frames first[b]:first[b + 1]
    counts = np.diff(first)
    if not counts.all():
        b = int(np.argmin(counts))
        start, end = beats[b], beats[b + 1]
        raise IngestError(f"bar {b} spanning [{start}, {end}) contains no chroma frames")
    edges = beats[:-1, None] + np.diff(beats)[:, None] * np.arange(fpb + 1) / fpb
    per_bar = zip(edges, np.split(times, first)[1:-1])
    sub = np.concatenate([np.searchsorted(e, t, side="right") for e, t in per_bar])
    # Cells run sub-interval-major, so the sums reshape to (n_pc, fpb, n_bars).
    cell = np.clip(sub - 1, 0, fpb - 1) * n_bars + np.repeat(np.arange(n_bars), counts)
    members = np.bincount(cell, minlength=fpb * n_bars)
    in_bars = chroma.values[:, first[0] : first[-1]]
    out = np.stack([np.bincount(cell, row, fpb * n_bars) for row in in_bars])
    empty = members == 0
    out[:, ~empty] /= members[~empty]
    centers = (0.5 * (edges[:, :-1] + edges[:, 1:])).T.ravel()[empty]
    after = np.minimum(np.searchsorted(times, centers), times.size - 1)
    before = np.maximum(after - 1, 0)
    later = np.abs(times[after] - centers) < np.abs(times[before] - centers)
    out[:, empty] = chroma.values[:, np.where(later, after, before)]
    return out.reshape(chroma.n_pitch_classes, fpb, n_bars)


def synth_song(
    patterns: list[np.ndarray],
    bar_assignment: list[int],
    noise_level: float = 0.0,
    seed: int = 0,
    bar_duration: float = 2.0,
) -> tuple[np.ndarray, BarGrid, ReferenceSegmentation]:
    """Build a synthetic bar tensor from repeated patterns.

    Bar b is `patterns[bar_assignment[b]]` plus uniform noise in
    [0, noise_level]. Bars are uniform in time and reference boundaries
    sit exactly where the assigned pattern changes.
    """
    if not bar_assignment:
        raise ValueError("bar_assignment must be nonempty")
    if not (math.isfinite(noise_level) and noise_level >= 0):
        raise ValueError("noise_level must be a nonnegative finite number")
    patterns = [real_array(p, f"pattern {k}", 2) for k, p in enumerate(patterns)]
    shapes = {p.shape for p in patterns}
    if len(shapes) != 1:
        raise ValueError("all patterns must share one shape")
    (shape,) = shapes
    for idx in bar_assignment:
        if not 0 <= idx < len(patterns):
            raise ValueError(f"pattern index {idx} out of range")

    n_pc, frames = shape
    if n_pc == 0 or frames == 0:
        raise ValueError(
            f"patterns need at least one pitch class and one frame, got shape {(n_pc, frames)}"
        )
    n_bars = len(bar_assignment)
    rng = np.random.default_rng(seed)
    tensor = np.zeros((n_pc, frames, n_bars))
    for b, idx in enumerate(bar_assignment):
        tensor[:, :, b] = patterns[idx]
    if noise_level > 0:
        tensor = np.maximum(0.0, tensor + rng.uniform(0.0, noise_level, tensor.shape))

    bars = BarGrid(downbeats=bar_duration * np.arange(n_bars + 1, dtype=float))

    segments = []
    seg_start_bar = 0
    for b in range(1, n_bars + 1):
        if b == n_bars or bar_assignment[b] != bar_assignment[b - 1]:
            segments.append(
                (
                    seg_start_bar * bar_duration,
                    b * bar_duration,
                    f"P{bar_assignment[seg_start_bar]}",
                )
            )
            seg_start_bar = b
    reference = ReferenceSegmentation(segments=tuple(segments))
    return tensor, bars, reference


def check_bar_count(tensor: np.ndarray, bars: BarGrid) -> None:
    """Raise ValueError unless `tensor` is order 3 with one entry per bar on its last mode."""
    if tensor.ndim != 3:
        raise ValueError(f"input tensor must be order 3, got shape {tensor.shape}")
    if tensor.shape[-1] != bars.n_bars:
        raise ValueError(f"tensor has {tensor.shape[-1]} bars but the bar grid has {bars.n_bars}")


def tensor_to_chromagram(tensor: np.ndarray, bars: BarGrid) -> Chromagram:
    """Flatten a bar tensor back to a chromagram, one frame per sub-interval.

    Frame times sit at sub-interval centers, so `tensorize` on the result
    reproduces the tensor exactly.
    """
    check_bar_count(tensor, bars)
    n_pc, frames, n_bars = tensor.shape
    width = np.diff(bars.downbeats) / frames
    times = (bars.downbeats[:-1, None] + width[:, None] * (np.arange(frames) + 0.5)).ravel()
    values = tensor.transpose(0, 2, 1).reshape(n_pc, -1)
    return Chromagram(frame_times=times, values=values)

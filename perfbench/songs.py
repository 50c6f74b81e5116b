"""Seeded synthetic songs, written in the file formats the ntdseg CLI reads.

A song is a sequence of blocks of 4, 8 or 16 bars. Each block repeats one of
a few random pitch-class x frame patterns, different from the previous
block's, plus uniform noise, so section boundaries are known exactly and the
segmentation is not trivial. Bars are 2 s long and hold 96 frames, the
tensor's own grid. The same (seed, song index) always gives the same files.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import ntdseg

FRAMES_PER_BAR = 96
PITCH_CLASSES = 12
BAR_SECONDS = 2.0
BLOCK_BARS = (4, 8, 16)
PATTERNS = 4
NOISE = 0.1


@dataclass(frozen=True)
class SongFiles:
    chroma: Path
    bars: Path
    reference: Path
    downbeats: tuple[float, ...]
    boundaries: tuple[float, ...]  # reference boundary times, 0 to song end
    tensor_norm: float | None  # ||X||_F of the CLI's tensor; None when resampled


def song_tensor(seed: int, index: int, n_bars: int):
    """Bar tensor, bar grid and reference of song `index` under `seed`."""
    rng = np.random.default_rng([seed, index])
    patterns = [rng.uniform(0.0, 1.0, (PITCH_CLASSES, FRAMES_PER_BAR)) for _ in range(PATTERNS)]
    assignment: list[int] = []
    current = -1
    while len(assignment) < n_bars:
        current = int(rng.choice([p for p in range(PATTERNS) if p != current]))
        assignment += [current] * int(rng.choice(BLOCK_BARS))
    assignment = assignment[:n_bars]
    return ntdseg.synth_song(
        patterns, assignment, noise_level=NOISE, seed=int(rng.integers(2**31)),
        bar_duration=BAR_SECONDS,
    )


def resample(chroma: ntdseg.Chromagram, fps: float, end: float) -> ntdseg.Chromagram:
    """Linear interpolation of every pitch class onto frames at `fps`."""
    times = (np.arange(int(end * fps)) + 0.5) / fps
    values = np.stack([np.interp(times, chroma.frame_times, row) for row in chroma.values])
    return ntdseg.Chromagram(frame_times=times, values=values)


def write_song(
    directory: Path, name: str, seed: int, index: int, n_bars: int, fps: float | None = None
) -> SongFiles:
    """Write song `index` as `<name>.chroma.json`, `.bars.json` and `.ref.txt`.

    With `fps` set, the chromagram is resampled to that frame rate instead of
    sitting on the 96-frames-per-bar grid.
    """
    tensor, bars, reference = song_tensor(seed, index, n_bars)
    chroma = ntdseg.tensor_to_chromagram(tensor, bars)
    if fps is not None:
        chroma = resample(chroma, fps, float(bars.downbeats[-1]))
    files = SongFiles(
        chroma=directory / f"{name}.chroma.json",
        bars=directory / f"{name}.bars.json",
        reference=directory / f"{name}.ref.txt",
        downbeats=tuple(float(t) for t in bars.downbeats),
        boundaries=tuple(reference.boundaries()),
        tensor_norm=None if fps is not None else float(np.linalg.norm(tensor)),
    )
    ntdseg.save_chromagram(files.chroma, chroma)
    ntdseg.save_bars(files.bars, bars)
    ntdseg.save_annotation(files.reference, reference)
    return files

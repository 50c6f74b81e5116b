"""The benchmark's workloads: their inputs, one item of work, and output checks.

Each workload writes a pool of inputs from the seed, runs one item on one
pool entry the way a user runs the pipeline (`ntdseg.cli.main` in-process,
or `ntdseg.fit_lambda` for the lambda fit, which has no CLI command), and
checks the files the item wrote. A check raises `OutputError` on a wrong
output and returns the item's quality figures otherwise.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import ntdseg
from ntdseg import cli, evaluation, ingest

import songs

TOLERANCES = (0.5, 3.0)
RANKS = ("--t-rank", "12", "--b-rank", "10")  # the paper's (12, 12, 10); W fixed to I
LAMBDA_GRID = tuple(round(0.1 * k, 1) for k in range(21))
# Outer-iteration cap of the fits in rank_grid and lambda_fit, a quarter of
# the default 100: it keeps one item short enough to time several in a run,
# while the shapes each workload exists for (48x48 cores, the DP's share)
# stay the same. paper_song and long_song keep the default.
OUTER_CAP = 25


class OutputError(Exception):
    """An item wrote a missing, malformed or wrong output."""


@dataclass(frozen=True)
class Workload:
    name: str
    item: str  # what one item is; why each workload exists is in BENCHMARK.json
    prepare: Callable[[int, Path], list]  # (seed, directory) -> pool of inputs
    run: Callable[[object, Path], list[Path]]  # (input, out dir) -> files written
    check: Callable[[object, Path], dict[str, float]]  # quality figures


def _cli(argv: list[str]) -> None:
    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise OutputError(f"ntdseg {argv[0]} exited with code {code}")


def matched(reference, estimate, tolerance: float) -> int:
    """Maximum one-to-one matching of sorted boundary lists within a tolerance.

    Tolerance windows are intervals on a line, so the greedy two-pointer
    pass is maximum; it is an independent check of `ntdseg evaluate`.
    """
    i = j = count = 0
    while i < len(reference) and j < len(estimate):
        if abs(reference[i] - estimate[j]) <= tolerance:
            count, i, j = count + 1, i + 1, j + 1
        elif reference[i] < estimate[j]:
            i += 1
        else:
            j += 1
    return count


def f_measure(reference, estimate, tolerance: float) -> tuple[float, float, float]:
    hits = matched(reference, estimate, tolerance)
    p = hits / len(estimate) if estimate else 0.0
    r = hits / len(reference) if reference else 0.0
    return p, r, (2 * p * r / (p + r) if p + r > 0 else 0.0)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def read_boundaries(path: Path, song: songs.SongFiles) -> list[float]:
    """Parse a boundary file and check it against the song's bar grid."""
    try:
        lines = [line.split(None, 2) for line in path.read_text().splitlines() if line.strip()]
        segments = [(float(p[0]), float(p[1])) for p in lines]
    except (OSError, ValueError, IndexError) as exc:
        raise OutputError(f"{path.name}: unparsable boundaries: {exc}") from exc
    if not segments:
        raise OutputError(f"{path.name}: no segments")
    times = [s for s, _ in segments] + [segments[-1][1]]
    if any(e != s for (_, e), (s, _) in zip(segments, segments[1:])):
        raise OutputError(f"{path.name}: segments are not contiguous")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise OutputError(f"{path.name}: boundaries not strictly increasing")
    grid = set(song.downbeats)
    if any(t not in grid for t in times):
        raise OutputError(f"{path.name}: boundary off the bar grid")
    if times[0] != song.downbeats[0] or times[-1] != song.downbeats[-1]:
        raise OutputError(f"{path.name}: boundaries do not run from 0 to the song end")
    return times


def _read_tsv(path: Path) -> list[dict[str, str]]:
    try:
        header, *rows = [line.split("\t") for line in path.read_text().splitlines()]
    except (OSError, ValueError) as exc:
        raise OutputError(f"{path.name}: unreadable: {exc}") from exc
    if any(len(row) != len(header) for row in rows):
        raise OutputError(f"{path.name}: ragged table")
    return [dict(zip(header, row)) for row in rows]


def _check_scores(reference, estimate, scores: dict[float, tuple[float, float, float]], name):
    for tol in TOLERANCES:
        if tol not in scores:
            raise OutputError(f"{name}: no score at tolerance {tol}")
        expected = f_measure(reference, estimate, tol)
        if not all(_close(a, b) for a, b in zip(scores[tol], expected)):
            raise OutputError(f"{name}: P/R/F at {tol} s is {scores[tol]}, expected {expected}")


# -- segment + evaluate on one song (paper_song, long_song) ---------------------

def run_song(song: songs.SongFiles, out: Path) -> list[Path]:
    est, scores = out / "est.txt", out / "scores.tsv"
    _cli(["segment", "--chroma", song.chroma, "--bars", song.bars, *RANKS, "--out", est])
    _cli(["evaluate", "--estimate", est, "--reference", song.reference, "--out", scores])
    return [est, scores]


def check_song(song: songs.SongFiles, out: Path) -> dict[str, float]:
    estimate = read_boundaries(out / "est.txt", song)
    try:
        scores = {
            float(r["tolerance"]): (float(r["precision"]), float(r["recall"]), float(r["f_measure"]))
            for r in _read_tsv(out / "scores.tsv")
        }
    except (KeyError, ValueError) as exc:
        raise OutputError(f"scores.tsv: malformed: {exc}") from exc
    _check_scores(list(song.boundaries), estimate, scores, "scores.tsv")
    return {"f_0.5": scores[0.5][2], "f_3": scores[3.0][2]}


def song_pool(count: int, bars: int, fps: float | None = None):
    def prepare(seed: int, directory: Path) -> list[songs.SongFiles]:
        return [songs.write_song(directory, f"song{i}", seed, i, bars, fps) for i in range(count)]

    return prepare


# -- sweep over the corners of the paper's rank grid (rank_grid) ----------------

GRID_CORNERS = (12, 48)  # smallest and largest rank of the paper's grid


def run_sweep(song: songs.SongFiles, out: Path) -> list[Path]:
    tsv = out / "sweep.tsv"
    low, high = GRID_CORNERS
    _cli(["sweep", "--chroma", song.chroma, "--bars", song.bars, "--reference", song.reference,
          "--rank-min", low, "--rank-max", high, "--rank-step", high - low,
          "--max-outer-iters", OUTER_CAP, "--out", tsv])
    return [tsv]


def check_sweep(song: songs.SongFiles, out: Path) -> dict[str, float]:
    rows = _read_tsv(out / "sweep.tsv")
    try:
        points = [(int(r["t_rank"]), int(r["b_rank"])) for r in rows]
        objectives = [float(r["objective"]) for r in rows]
        scores = [
            {tol: (float(r[f"P@{tol}"]), float(r[f"R@{tol}"]), float(r[f"F@{tol}"])) for tol in TOLERANCES}
            for r in rows
        ]
    except (KeyError, ValueError) as exc:
        raise OutputError(f"sweep.tsv: malformed: {exc}") from exc
    expected = [(t, b) for t in GRID_CORNERS for b in GRID_CORNERS]
    if points != expected:
        raise OutputError(f"sweep.tsv: grid points {points}, expected {expected}")
    if not all(math.isfinite(v) and v >= 0 for v in objectives):
        raise OutputError(f"sweep.tsv: objective not finite and nonnegative: {objectives}")
    for point, score in zip(points, scores):
        for tol, (p, r, f) in score.items():
            if not all(0.0 <= v <= 1.0 for v in (p, r, f)):
                raise OutputError(f"sweep.tsv: score outside [0, 1] at {point}")
            if not _close(f, 2 * p * r / (p + r) if p + r > 0 else 0.0):
                raise OutputError(f"sweep.tsv: F@{tol} inconsistent with P and R at {point}")
    return {
        "f_0.5": sum(s[0.5][2] for s in scores) / len(scores),
        "f_3": sum(s[3.0][2] for s in scores) / len(scores),
        "rel_error": sum(math.sqrt(v) / song.tensor_norm for v in objectives) / len(objectives),
    }


# -- 2-fold lambda fit over a four-song corpus (lambda_fit) ---------------------

def corpus_pool(seed: int, directory: Path) -> list[list[songs.SongFiles]]:
    return [song_pool(4, 89)(seed, directory)]


def run_lambda(corpus: list[songs.SongFiles], out: Path) -> list[Path]:
    loaded = []
    for song in corpus:
        chroma = ingest.load_chromagram(song.chroma)
        bars = ingest.load_bars(song.bars)
        reference = ingest.load_annotation(song.reference)
        loaded.append((ingest.tensorize(chroma, bars, songs.FRAMES_PER_BAR), bars, reference))
    config = ntdseg.NtdConfig(max_outer_iters=OUTER_CAP, fix_w_to_identity=True)
    fit = evaluation.fit_lambda(loaded, LAMBDA_GRID, ntdseg.NtdRanks(12, 12, 10), config)
    path = out / "lambda.json"
    path.write_text(json.dumps({k: repr(v) for k, v in vars(fit).items()}))
    return [path]


def check_lambda(corpus, out: Path) -> dict[str, float]:
    keys = ("even_tuned", "odd_tuned", "even_test_f", "odd_test_f", "selected")
    try:
        raw = json.loads((out / "lambda.json").read_text())
        doc = {k: float(raw[k]) for k in keys}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise OutputError(f"lambda.json: unreadable: {exc}") from exc
    if not {doc["even_tuned"], doc["odd_tuned"]} <= set(LAMBDA_GRID):
        raise OutputError(f"lambda.json: tuned value outside the grid: {doc}")
    if doc["selected"] not in (doc["even_tuned"], doc["odd_tuned"]):
        raise OutputError(f"lambda.json: selected value is neither fold's: {doc}")
    if not all(0.0 <= doc[k] <= 1.0 for k in ("even_test_f", "odd_test_f")):
        raise OutputError(f"lambda.json: test F outside [0, 1]: {doc}")
    return {"f_0.5": 0.5 * (doc["even_test_f"] + doc["odd_test_f"])}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper_song",
            "one 89-bar song (96 frames/bar, 4/8/16-bar blocks, noise 0.1) through segment then evaluate; pool of 4 songs",
            song_pool(4, 89), run_song, check_song,
        ),
        Workload(
            "rank_grid",
            "one sweep over the corners of the paper grid (12,12),(12,48),(48,12),(48,48) on one 89-bar song, fits capped at 25 outer iterations; pool of 3 songs",
            song_pool(3, 89), run_sweep, check_sweep,
        ),
        Workload(
            "long_song",
            "one 400-bar song, chromagram resampled to 43 frames/s, through segment then evaluate; pool of 2 songs",
            song_pool(2, 400, fps=43.0), run_song, check_song,
        ),
        Workload(
            "lambda_fit",
            "one fit_lambda over four 89-bar songs and 21 lambda values, fits capped at 25 outer iterations, loading and tensorizing the corpus",
            corpus_pool, run_lambda, check_lambda,
        ),
    )
}

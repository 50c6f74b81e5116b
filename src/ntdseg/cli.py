"""Command-line entry point for decomposition, segmentation and evaluation runs."""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import evaluation, ingest, segmentation
from .decomposition import NtdConfig, NtdRanks, decompose


def build_parser() -> argparse.ArgumentParser:
    # Each flag is declared once, on a parent parser shared by the commands that read it.
    parents = (argparse.ArgumentParser(add_help=False) for _ in range(7))
    song, frames, out, scoring, ranks, ntd, seg = parents
    song.add_argument("--chroma", required=True)
    song.add_argument("--bars", required=True)
    frames.add_argument("--frames-per-bar", type=int, default=96)
    out.add_argument("--out", required=True)
    scoring.add_argument("--reference", required=True)
    scoring.add_argument("--tolerance", type=float, nargs="+",
                         default=list(evaluation.DEFAULT_TOLERANCES))
    ranks.add_argument("--t-rank", type=int, default=12)
    ranks.add_argument("--b-rank", type=int, default=10)
    ranks.add_argument("--f-rank", type=int, default=None,
                       help="frequency rank for --free-w; defaults to the pitch-class count")
    ntd.add_argument("--free-w", action="store_true",
                     help="optimize W instead of fixing it to the identity")
    ntd.add_argument("--max-outer-iters", type=int, default=NtdConfig.max_outer_iters)
    defaults = segmentation.SegmentationConfig
    seg.add_argument("--lambda", dest="penalty_weight", type=float, default=defaults.penalty_weight)
    seg.add_argument("--max-segment-bars", type=int, default=defaults.max_segment_bars)
    seg.add_argument("--kernel-band", type=int, default=defaults.kernel_band)

    parser = argparse.ArgumentParser(prog="ntdseg")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("decompose", parents=[song, frames, ranks, ntd, out],
                   help="fit an NTD model and write it to disk")
    p = sub.add_parser("segment", parents=[song, frames, ranks, ntd, seg, out],
                       help="decompose and write boundary estimates")
    p.add_argument("--autosim-out", default=None,
                   help="optional path for the autosimilarity matrix as TSV")
    p = sub.add_parser("evaluate", parents=[scoring, out],
                       help="score estimated boundaries against a reference")
    p.add_argument("--estimate", required=True)
    p = sub.add_parser("sweep", parents=[song, frames, ntd, seg, scoring, out],
                       help="hit rates over a grid of (t_rank, b_rank) pairs at the full F-rank")
    p.add_argument("--rank-min", type=int, default=12)
    p.add_argument("--rank-max", type=int, default=48)
    p.add_argument("--rank-step", type=int, default=4)
    p = sub.add_parser("synth", parents=[frames],
                       help="write a synthetic song as chromagram/bars/annotation")
    p.add_argument("--pattern-count", type=int, default=3)
    p.add_argument("--block-bars", type=int, default=8)
    p.add_argument("--blocks", type=int, default=6)
    p.add_argument("--pitch-classes", type=int, default=12)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", required=True)
    return parser


def _ntd_config(args) -> NtdConfig:
    return NtdConfig(
        max_outer_iters=args.max_outer_iters,
        fix_w_to_identity=not args.free_w,
    )


def _ranks(args, n_pitch_classes: int) -> NtdRanks:
    f_rank = args.f_rank if args.f_rank is not None else n_pitch_classes
    return NtdRanks(f_rank, args.t_rank, args.b_rank)


def _seg_config(args) -> segmentation.SegmentationConfig:
    return segmentation.SegmentationConfig(
        penalty_weight=args.penalty_weight,
        max_segment_bars=args.max_segment_bars,
        kernel_band=args.kernel_band,
    )


def _load_tensor(args) -> tuple[np.ndarray, ingest.BarGrid]:
    chroma = ingest.load_chromagram(args.chroma)
    bars = ingest.load_bars(args.bars)
    return ingest.tensorize(chroma, bars, args.frames_per_bar), bars


def _cmd_decompose(args) -> None:
    cfg = _ntd_config(args)
    x, _ = _load_tensor(args)
    model = decompose(x, _ranks(args, x.shape[0]), cfg)
    with open(args.out, "w") as fh:
        fh.write(model.to_json(cfg))


def _cmd_segment(args) -> None:
    cfg, seg_cfg = _ntd_config(args), _seg_config(args)
    x, bars = _load_tensor(args)
    seg, _, autosim = evaluation.segment_song(x, bars, _ranks(args, x.shape[0]), cfg, seg_cfg)
    times = seg.boundary_times
    segments = tuple((s, e, f"S{k}") for k, (s, e) in enumerate(zip(times, times[1:])))
    ingest.save_annotation(args.out, ingest.ReferenceSegmentation(segments))
    if args.autosim_out:
        np.savetxt(args.autosim_out, autosim, delimiter="\t")


def _cmd_evaluate(args) -> None:
    estimate = ingest.load_annotation(args.estimate).boundaries()
    reference = ingest.load_annotation(args.reference).boundaries()
    scores = [(tol, evaluation.hit_rate(reference, estimate, tol)) for tol in args.tolerance]
    with open(args.out, "w") as fh:
        fh.write("tolerance\tprecision\trecall\tf_measure\tmatched\tn_ref\tn_est\n")
        for tol, s in scores:
            fh.write(
                f"{tol!r}\t{s.precision!r}\t{s.recall!r}\t{s.f_measure!r}"
                f"\t{s.matched}\t{s.n_ref}\t{s.n_est}\n"
            )


def _cmd_sweep(args) -> None:
    cfg, seg_cfg = _ntd_config(args), _seg_config(args)
    grid = evaluation.default_rank_grid(args.rank_min, args.rank_max, args.rank_step)
    x, bars = _load_tensor(args)
    reference = ingest.load_annotation(args.reference)
    sweep = evaluation.rank_sweep(x, bars, reference, grid, cfg, seg_cfg, tuple(args.tolerance))
    evaluation.write_sweep_report(args.out, sweep, tuple(args.tolerance))


def _cmd_synth(args) -> None:
    for flag, value in (("--pattern-count", args.pattern_count), ("--blocks", args.blocks),
                        ("--block-bars", args.block_bars)):
        if value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")
    for flag, value in (("--pitch-classes", args.pitch_classes),
                        ("--frames-per-bar", args.frames_per_bar)):
        if value < 0:
            raise ValueError(f"{flag} must not be negative, got {value}")
    rng = np.random.default_rng(args.seed)
    patterns = [
        rng.uniform(0.0, 1.0, (args.pitch_classes, args.frames_per_bar))
        for _ in range(args.pattern_count)
    ]
    assignment = []
    for block in range(args.blocks):
        assignment += [block % args.pattern_count] * args.block_bars
    tensor, bars, reference = ingest.synth_song(
        patterns, assignment, noise_level=args.noise, seed=args.seed + 1
    )
    ingest.save_chromagram(
        f"{args.out_prefix}.chroma.json", ingest.tensor_to_chromagram(tensor, bars)
    )
    ingest.save_bars(f"{args.out_prefix}.bars.json", bars)
    ingest.save_annotation(f"{args.out_prefix}.ref.txt", reference)


_COMMANDS = {
    "decompose": _cmd_decompose,
    "segment": _cmd_segment,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
    "synth": _cmd_synth,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except (OSError, ValueError, IndexError, RuntimeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

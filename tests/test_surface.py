import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

import ntdseg
from ntdseg import (
    NtdConfig,
    NtdModel,
    NtdRanks,
    SegmentationConfig,
    cli,
    decompose,
    default_rank_grid,
    ingest,
    mode_product,
    penalty,
    synth_song,
    truncated_hosvd,
)

# The supported public surface. Adding or removing a name is a deliberate
# change to this list.
PUBLIC = [
    "BarGrid",
    "Chromagram",
    "DEFAULT_TOLERANCES",
    "HitRateScore",
    "IngestError",
    "LambdaFit",
    "NtdConfig",
    "NtdModel",
    "NtdRanks",
    "ReferenceSegmentation",
    "Segmentation",
    "SegmentationConfig",
    "autosimilarity_from_features",
    "boundaries_to_times",
    "core_prox_gradient",
    "decompose",
    "default_rank_grid",
    "fit_lambda",
    "hals_nnls",
    "hit_rate",
    "initialize",
    "load_annotation",
    "load_bars",
    "load_chromagram",
    "mode_product",
    "normalize",
    "oracle_select",
    "parameter_count",
    "penalty",
    "rank_sweep",
    "raw_score",
    "reconstruct",
    "save_annotation",
    "save_bars",
    "save_chromagram",
    "segment",
    "segment_song",
    "synth_song",
    "tensor_to_chromagram",
    "tensorize",
    "truncated_hosvd",
]


def test_public_surface():
    assert sorted(ntdseg.__all__) == PUBLIC


# -- integer arguments ----------------------------------------------------------
#
# Every integer argument is read by `tensor_ops.integer_arg`: Python and numpy
# integers pass and come back as Python ints; bools, floats and anything else,
# and values out of range, raise one of two messages.

CUBE = np.random.default_rng(0).random((3, 4, 5))
PATTERNS = [np.zeros((2, 3)), np.ones((2, 3))]


def _identity_mode(factors):
    return [np.array_equal(f, np.eye(len(f))) for f in factors[:3]].index(True)


def _tensorize(frames_per_bar):
    chroma = ingest.Chromagram(frame_times=np.arange(8.0), values=np.ones((2, 8)))
    return ingest.tensorize(chroma, ingest.BarGrid([0.0, 4.0, 8.0]), frames_per_bar).shape[1]


def _chromagram(pitch_classes):
    # the document as `load_chromagram` parses it; JSON itself has no numpy integers
    doc = {"pitch_classes": pitch_classes, "frame_times": [0.0, 1.0], "chroma": [[0.1, 0.2]] * 2}
    return ingest._chromagram(doc).n_pitch_classes


def _synth(dest, value):
    """The bytes `ntdseg synth` writes with `dest` set to `value`."""
    with tempfile.TemporaryDirectory() as tmp:
        prefix = Path(tmp) / "song"
        args = cli.build_parser().parse_args(
            ["synth", "--pattern-count", "2", "--block-bars", "2", "--blocks", "2",
             "--pitch-classes", "2", "--frames-per-bar", "3", "--out-prefix", str(prefix)]
        )
        setattr(args, dest, value)
        cli._cmd_synth(args)
        return [prefix.with_suffix(ext).read_bytes() for ext in (".chroma.json", ".bars.json", ".ref.txt")]


# (name in the message, call, minimum, maximum, a valid value)
INTEGER_SITES = {
    "NtdRanks.f_rank": ("f_rank", lambda v: NtdRanks(v, 2, 2).f_rank, 1, None, 4),
    "NtdRanks.t_rank": ("t_rank", lambda v: NtdRanks(4, v, 2).t_rank, 1, None, 4),
    "NtdRanks.b_rank": ("b_rank", lambda v: NtdRanks(4, 2, v).b_rank, 1, None, 4),
    "NtdConfig.max_outer_iters": (
        "max_outer_iters", lambda v: NtdConfig(max_outer_iters=v).max_outer_iters, 0, None, 3),
    "SegmentationConfig.max_segment_bars": (
        "max_segment_bars",
        lambda v: SegmentationConfig(max_segment_bars=v).max_segment_bars, 2, None, 16),
    "SegmentationConfig.kernel_band": (
        "kernel_band", lambda v: SegmentationConfig(kernel_band=v).kernel_band, 1, None, 2),
    "truncated_hosvd.ranks": (
        "rank of mode 1", lambda v: truncated_hosvd(CUBE, (3, v, 5))[1].shape[1], 1, None, 2),
    "truncated_hosvd.skip_modes": (
        "skipped mode",
        lambda v: _identity_mode(truncated_hosvd(CUBE, CUBE.shape, skip_modes=(v,))), 0, 2, 1),
    "mode_product.mode": (
        "mode", lambda v: mode_product(np.ones((3, 3, 3)), np.ones((9, 3)), v).shape.index(9),
        0, 2, 2),
    "tensorize.frames_per_bar": ("frames_per_bar", _tensorize, 1, None, 3),
    "load_chromagram.pitch_classes": ("pitch_classes", _chromagram, 0, None, 2),
    "default_rank_grid.low": (
        "lowest rank", lambda v: default_rank_grid(v, 9, 4)[0][0], 1, None, 1),
    "default_rank_grid.high": (
        "highest rank", lambda v: default_rank_grid(1, v, 4)[-1][0], 1, None, 9),
    "default_rank_grid.step": (
        "rank step", lambda v: default_rank_grid(1, 9, v)[1][1] - 1, 1, None, 4),
    "penalty": ("segment length", penalty, 1, None, 6),
    "synth.pattern_count": (
        "--pattern-count", lambda v: _synth("pattern_count", v), 1, None, 2),
    "synth.blocks": ("--blocks", lambda v: _synth("blocks", v), 1, None, 3),
    "synth.block_bars": ("--block-bars", lambda v: _synth("block_bars", v), 1, None, 3),
    "synth.pitch_classes": ("--pitch-classes", lambda v: _synth("pitch_classes", v), 0, None, 3),
    "synth.frames_per_bar": (
        "--frames-per-bar", lambda v: _synth("frames_per_bar", v), 0, None, 2),
    "synth_song.bar_assignment": (
        "pattern index", lambda v: synth_song(PATTERNS, [0, v])[2].segments[-1][2], 0, None, 1),
}


@pytest.mark.parametrize("site", INTEGER_SITES)
def test_integer_arguments_share_one_reader(site):
    name, call, minimum, maximum, valid = INTEGER_SITES[site]
    bounds = f"of at least {minimum}" if maximum is None else f"from {minimum} to {maximum}"
    refused = [True, float(valid), minimum - 1]
    if maximum is not None:
        refused.append(maximum + 1)
    for value in refused:
        message = f"{name} must be an integer {bounds}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)
    expected = call(valid)
    result = call(np.int64(valid))
    assert result == expected and type(result) is type(expected)
    if isinstance(expected, int):
        assert type(result) is int and result == valid


def test_numpy_integer_ranks_and_config_round_trip_through_json():
    x = np.random.default_rng(1).random((4, 5, 6))
    cfg = NtdConfig(max_outer_iters=np.int64(2), fix_w_to_identity=np.False_)
    text = decompose(x, NtdRanks(np.int64(4), 2, 2), cfg).to_json(cfg)
    doc = json.loads(text)
    assert doc["ranks"] == [4, 2, 2]
    assert doc["config"] == {"max_outer_iters": 2, "fix_w_to_identity": False}
    model = NtdModel.from_json(text)
    assert model.ranks == NtdRanks(4, 2, 2)
    assert model.to_json(cfg) == text

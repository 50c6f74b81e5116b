import json
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ntdseg import ingest
from ntdseg.decomposition import NtdConfig, NtdModel, NtdRanks, decompose
from ntdseg.ingest import (
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

from test_decomposition import start_from


def make_chromagram(rng, n_frames=40, t0=0.0, t1=10.0):
    times = np.sort(rng.uniform(t0, t1, n_frames))
    return Chromagram(frame_times=times, values=rng.random((12, n_frames)))


def tensorize_loop(chroma, bars, frames_per_bar=96):
    """Per-bar, per-sub-interval reference for `tensorize`, one full-song mask per cell."""
    n_pc = chroma.n_pitch_classes
    out = np.zeros((n_pc, frames_per_bar, bars.n_bars))
    times = chroma.frame_times
    for b in range(bars.n_bars):
        start, end = bars.downbeats[b], bars.downbeats[b + 1]
        in_bar = (times >= start) & (times < end)
        if not in_bar.any():
            raise IngestError(f"bar {b} spanning [{start}, {end}) contains no chroma frames")
        edges = start + (end - start) * np.arange(frames_per_bar + 1) / frames_per_bar
        bins = np.clip(np.searchsorted(edges, times, side="right") - 1, 0, frames_per_bar - 1)
        for t in range(frames_per_bar):
            members = in_bar & (bins == t)
            if members.any():
                out[:, t, b] = chroma.values[:, members].mean(axis=1)
            else:
                center = 0.5 * (edges[t] + edges[t + 1])
                nearest = int(np.argmin(np.abs(times - center)))
                out[:, t, b] = chroma.values[:, nearest]
    return out


@st.composite
def dyadic_grids(draw):
    """Frame times on a 2**-k s grid and downbeats on a 0.25 s grid.

    Dyadic times land exactly on downbeats and on sub-interval edges, and
    give exact ties between the two frames around an empty cell's center.
    Frames run from 1 s before the first downbeat to 1 s after the last,
    and on the finer grids a cell can hold hundreds of frames.
    """
    unit = 2.0 ** -draw(st.integers(0, 9))
    beats = draw(st.lists(st.integers(0, 32), min_size=2, max_size=6, unique=True))
    downbeats = 0.25 * np.array(sorted(beats), dtype=float)
    ticks = np.arange(int((downbeats[0] - 1.0) / unit), int((downbeats[-1] + 1.0) / unit) + 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_frames = min(draw(st.integers(1, 2000)), ticks.size)
    times = unit * np.sort(rng.choice(ticks, n_frames, replace=False)).astype(float)
    values = rng.random((draw(st.integers(1, 4)), n_frames))
    if draw(st.booleans()):
        values = np.asfortranarray(values)  # the layout `load_chromagram` returns
    chroma = Chromagram(frame_times=times, values=values)
    return chroma, BarGrid(downbeats=downbeats), draw(st.integers(1, 16))


class TestLoaders:
    def test_chromagram_round_trip(self, tmp_path):
        chroma = make_chromagram(np.random.default_rng(0))
        path = tmp_path / "c.json"
        save_chromagram(path, chroma)
        loaded = load_chromagram(path)
        np.testing.assert_array_equal(loaded.frame_times, chroma.frame_times)
        np.testing.assert_array_equal(loaded.values, chroma.values)

    def test_negative_entry_rejected_with_location(self, tmp_path):
        path = tmp_path / "c.json"
        doc = {
            "pitch_classes": 2,
            "frame_times": [0.0, 1.0],
            "chroma": [[0.1, 0.2], [0.3, -0.4]],
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(IngestError, match="row 1, column 1"):
            load_chromagram(path)

    def test_non_increasing_frame_times_rejected(self):
        with pytest.raises(IngestError, match="index 1"):
            Chromagram(frame_times=np.array([1.0, 1.0]), values=np.zeros((2, 2)))

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        doc = {"pitch_classes": 1, "frame_times": [0.0], "chroma": [[float("nan")]]}
        path.write_text(json.dumps(doc))
        with pytest.raises(IngestError):
            load_chromagram(path)

    def test_bars_round_trip(self, tmp_path):
        bars = BarGrid(downbeats=np.array([0.0, 2.0, 4.5, 7.0]))
        path = tmp_path / "b.json"
        save_bars(path, bars)
        np.testing.assert_array_equal(load_bars(path).downbeats, bars.downbeats)

    def test_bars_need_two_downbeats(self):
        with pytest.raises(IngestError):
            BarGrid(downbeats=np.array([1.0]))

    def test_annotation_parse(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("0.0 10.5 intro\n10.5 31.2 verse\n")
        ref = load_annotation(path)
        assert len(ref.segments) == 2
        assert ref.segments[1] == (10.5, 31.2, "verse")
        assert ref.boundaries() == [0.0, 10.5, 31.2]

    def test_annotation_round_trip(self, tmp_path):
        ref = ReferenceSegmentation(
            segments=((0.0, 4.25, "P0"), (4.25, 9.5, "P1"))
        )
        path = tmp_path / "a.txt"
        save_annotation(path, ref)
        assert load_annotation(path) == ref

    def test_annotation_gap_rejected(self):
        with pytest.raises(IngestError):
            ReferenceSegmentation(segments=((0.0, 1.0, "a"), (2.0, 3.0, "b")))

    def test_annotation_bad_line(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("0.0 only-two\n")
        with pytest.raises(IngestError, match=":1:"):
            load_annotation(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("\n  \n", "no segments found"),
            ("0.0 1.0 a\n\n1.0 nan b\n", "segment 1 has a non-finite bound"),
            ("2.0 1.0 a\n", "segment 0 has start 2.0 >= end 1.0"),
            ("0.0 x a\n", ":1: unparsable time: could not convert string to float: 'x'"),
        ],
        ids=["blank", "nan-bound", "start-after-end", "unparsable-time"],
    )
    def test_annotation_errors_name_the_file(self, tmp_path, text, message):
        path = tmp_path / "a.txt"
        path.write_text(text)
        with pytest.raises(IngestError) as info:
            load_annotation(path)
        assert str(info.value).startswith(str(path))
        assert str(info.value).endswith(message)

    def test_empty_reference_rejected(self):
        with pytest.raises(IngestError, match="^no segments found$"):
            ReferenceSegmentation(segments=())


CHROMA_DOC = {"pitch_classes": 2, "frame_times": [0.0, 1.0], "chroma": [[0.1, 0.2], [0.3, 0.4]]}


@pytest.mark.parametrize(
    "load, text, message",
    [
        (load_chromagram, "{", "invalid JSON: Expecting property name enclosed in double quotes"),
        (load_chromagram, "[]", "malformed chromagram document: list indices must be integers"),
        (load_chromagram, {**CHROMA_DOC, "chroma": None}, "chroma frames must each have 2 entries"),
        (load_chromagram, {"frame_times": [0.0]}, "malformed chromagram document: 'chroma'"),
        (load_chromagram, {**CHROMA_DOC, "pitch_classes": 3}, "chroma frames must each have 3 entries"),
        (load_chromagram, {**CHROMA_DOC, "pitch_classes": 2.9}, "pitch_classes must be an integer of at least 0, got 2.9"),
        (load_chromagram, {**CHROMA_DOC, "pitch_classes": True, "chroma": [[0.1], [0.3]]},
         "pitch_classes must be an integer of at least 0, got True"),
        (load_chromagram, {**CHROMA_DOC, "chroma": [0.1, 0.2]}, "chroma frames must each have 2 entries"),
        (load_chromagram, {**CHROMA_DOC, "frame_times": [0.0]}, "1 frame times for 2 chroma frames"),
        (load_chromagram, {**CHROMA_DOC, "frame_times": 0.0}, "frame times must be order 1, got shape ()"),
        (load_chromagram, {**CHROMA_DOC, "frame_times": [1.0, 0.5]}, "not strictly increasing at index 1"),
        (load_chromagram, {**CHROMA_DOC, "chroma": [[0.1, "x"], [0.3, 0.4]]}, "could not convert"),
        (load_chromagram, {**CHROMA_DOC, "chroma": [[0.1, float("inf")], [0.3, 0.4]]},
         "chroma values has 1 non-finite entries (NaN or inf)"),
        (load_bars, "not json", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
        (load_bars, {"bars": [0.0, 1.0]}, "malformed bar document: 'downbeats'"),
        (load_bars, {"downbeats": 5}, "downbeats must be order 1, got shape ()"),
        (load_bars, {"downbeats": [[0.0], [2.0], [4.0]]}, "downbeats must be order 1, got shape (3, 1)"),
        (load_bars, {"downbeats": [0.0, float("nan")]}, "downbeats has 1 non-finite entries (NaN or inf)"),
        (load_bars, {"downbeats": [0.0, 2.0, 2.0]}, "downbeats not strictly increasing at index 2"),
        (load_bars, {"downbeats": [0.0]}, "bar grid needs at least 2 downbeats"),
        (load_bars, {"downbeats": "x"}, "could not convert string to float: 'x'"),
    ],
    ids=[
        "chroma-invalid-json", "chroma-not-an-object", "chroma-null", "chroma-missing-key",
        "chroma-width", "pitch-classes-float", "pitch-classes-bool", "chroma-1-d", "frame-count",
        "frame-times-scalar", "frame-times-order",
        "chroma-string", "chroma-inf", "bars-invalid-json", "bars-missing-key", "bars-scalar",
        "bars-column", "bars-nan", "bars-order", "bars-one-downbeat", "bars-string",
    ],
)
def test_loader_errors_name_the_file(tmp_path, load, text, message):
    path = tmp_path / "doc.json"
    path.write_text(text if isinstance(text, str) else json.dumps(text))
    with pytest.raises(IngestError) as info:
        load(path)
    assert str(info.value).startswith(f"{path}: ")
    assert message in str(info.value)


class TestArrayFields:
    """`Chromagram` and `BarGrid` read their arrays with `real_array`."""

    def test_lists_read_as_float64(self):
        bars = BarGrid([0, 1, 2])
        assert bars.n_bars == 2 and bars.downbeats.dtype == np.float64
        chroma = Chromagram(frame_times=[0, 1, 2], values=[[1, 0, 2]])
        assert (chroma.n_pitch_classes, chroma.n_frames) == (1, 3)
        assert chroma.values.dtype == chroma.frame_times.dtype == np.float64

    def test_float64_arrays_kept(self):
        times, values = np.arange(3.0), np.asfortranarray(np.ones((2, 3)))
        chroma = Chromagram(frame_times=times, values=values)
        assert chroma.frame_times is times and chroma.values is values

    @pytest.mark.parametrize(
        "downbeats, message",
        [
            (np.float64(1.0), "downbeats must be order 1, got shape ()"),
            (np.zeros((3, 1)), "downbeats must be order 1, got shape (3, 1)"),
            (np.arange(3) + 0j, "downbeats must be bool, integer or float of at most 64 bits, "
             "got dtype complex128"),
            (np.array([0.0, np.inf]), "downbeats has 1 non-finite entries (NaN or inf)"),
        ],
        ids=["scalar", "2-d", "complex", "inf"],
    )
    def test_bad_downbeats(self, downbeats, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BarGrid(downbeats)

    @pytest.mark.parametrize(
        "frame_times, values, message",
        [
            (0.0, np.ones((2, 1)), "frame times must be order 1, got shape ()"),
            (np.zeros((2, 1)), np.ones((2, 2)), "frame times must be order 1, got shape (2, 1)"),
            (np.arange(4.0), np.ones(4), "chroma values must be order 2, got shape (4,)"),
            (np.arange(2.0), np.ones((1, 1, 2)), "chroma values must be order 2, got shape (1, 1, 2)"),
            (np.arange(2.0), np.ones((3, 2)) + 1j, "chroma values must be bool, integer or float of "
             "at most 64 bits, got dtype complex128"),
            (np.arange(2.0), np.full((3, 2), np.nan), "chroma values has 6 non-finite entries (NaN or inf)"),
        ],
        ids=["scalar-times", "2-d-times", "1-d-values", "3-d-values", "complex-values", "nan-values"],
    )
    def test_bad_chromagram(self, frame_times, values, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Chromagram(frame_times=frame_times, values=values)


class TestTensorize:
    def test_one_frame_per_subinterval_verbatim(self):
        rng = np.random.default_rng(1)
        values = rng.random((12, 8))
        times = 0.0 + (np.arange(8) + 0.5) * (2.0 / 8)
        chroma = Chromagram(frame_times=times, values=values)
        bars = BarGrid(downbeats=np.array([0.0, 2.0]))
        tensor = tensorize(chroma, bars, frames_per_bar=8)
        np.testing.assert_array_equal(tensor[:, :, 0], values)

    def test_constant_chromagram(self):
        rng = np.random.default_rng(2)
        v = rng.random(12)
        times = np.sort(rng.uniform(0.0, 6.0, 200))
        chroma = Chromagram(frame_times=times, values=np.tile(v[:, None], (1, 200)))
        bars = BarGrid(downbeats=np.array([0.0, 2.5, 6.0]))
        tensor = tensorize(chroma, bars, frames_per_bar=4)
        for t in range(4):
            for b in range(2):
                np.testing.assert_allclose(tensor[:, t, b], v, rtol=1e-12)

    def test_binning_matches_brute_force(self):
        rng = np.random.default_rng(3)
        times = np.sort(rng.uniform(0.0, 5.0, 120))
        values = np.vstack([times, 2 * times + 1])  # linear ramps
        chroma = Chromagram(frame_times=times, values=values)
        bars = BarGrid(downbeats=np.array([0.0, 1.7, 5.0]))
        fpb = 6
        tensor = tensorize(chroma, bars, frames_per_bar=fpb)
        for b in range(2):
            start, end = bars.downbeats[b], bars.downbeats[b + 1]
            width = (end - start) / fpb
            for t in range(fpb):
                lo, hi = start + t * width, start + (t + 1) * width
                members = [
                    i for i, tt in enumerate(times)
                    if lo <= tt < hi and start <= tt < end
                ]
                if members:
                    expected = values[:, members].mean(axis=1)
                    np.testing.assert_allclose(tensor[:, t, b], expected, rtol=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        chroma = make_chromagram(rng)
        bars = BarGrid(downbeats=np.array([0.3, 2.7, 5.1, 9.4]))
        base = tensorize(chroma, bars, frames_per_bar=5)
        shift = 111.25
        shifted = tensorize(
            Chromagram(frame_times=chroma.frame_times + shift, values=chroma.values),
            BarGrid(downbeats=bars.downbeats + shift),
            frames_per_bar=5,
        )
        np.testing.assert_allclose(shifted, base, rtol=1e-9, atol=1e-12)

    def test_energy_bounds(self):
        rng = np.random.default_rng(5)
        chroma = make_chromagram(rng)
        bars = BarGrid(downbeats=np.array([0.5, 4.0, 9.0]))
        tensor = tensorize(chroma, bars, frames_per_bar=3)
        assert np.all(tensor >= 0)
        assert tensor.shape == (12, 3, 2)
        for b in range(2):
            lo, hi = bars.downbeats[b], bars.downbeats[b + 1]
            frame_energy = chroma.values.sum(axis=0)
            assert tensor[:, :, b].sum(axis=0).max() <= frame_energy.max() + 1e-12
            assert tensor[:, :, b].sum(axis=0).min() >= frame_energy.min() - 1e-12

    def test_empty_bar_rejected(self):
        chroma = Chromagram(frame_times=np.array([0.5, 0.6]), values=np.ones((2, 2)))
        bars = BarGrid(downbeats=np.array([0.0, 1.0, 2.0]))
        with pytest.raises(IngestError, match="bar 1"):
            tensorize(chroma, bars, frames_per_bar=2)

    def test_non_integer_frames_per_bar_rejected(self):
        chroma = make_chromagram(np.random.default_rng(10))
        bars = BarGrid(downbeats=np.array([0.0, 5.0, 10.0]))
        with pytest.raises(ValueError, match=r"frames_per_bar must be an integer of at least 1, got 2\.5"):
            tensorize(chroma, bars, frames_per_bar=2.5)

    @pytest.mark.parametrize("frames_per_bar", [True, False])
    def test_bool_frames_per_bar_rejected(self, frames_per_bar):
        chroma = make_chromagram(np.random.default_rng(10))
        bars = BarGrid(downbeats=np.array([0.0, 5.0, 10.0]))
        with pytest.raises(ValueError, match=f"^frames_per_bar must be an integer of at least 1, got {frames_per_bar}$"):
            tensorize(chroma, bars, frames_per_bar=frames_per_bar)

    @settings(max_examples=300, deadline=None)
    @given(grid=dyadic_grids())
    @example(  # one frame
        grid=(
            Chromagram(frame_times=np.array([0.5]), values=np.array([[1.0], [2.0]])),
            BarGrid(downbeats=np.array([0.0, 1.0])),
            3,
        )
    )
    @example(  # cells 1 and 2 are empty; frames 0.0 and 0.75 tie for cell 1's center 0.375
        grid=(
            Chromagram(frame_times=np.array([0.0, 0.75]), values=np.array([[1.0, 2.0], [3.0, 4.0]])),
            BarGrid(downbeats=np.array([0.0, 1.0])),
            4,
        )
    )
    @example(  # frames outside the grid, on downbeats and on sub-interval edges
        grid=(
            Chromagram(
                frame_times=np.array([-0.5, 0.0, 0.25, 0.5, 1.0, 1.75, 2.0, 2.5]),
                values=np.arange(16.0).reshape(2, 8),
            ),
            BarGrid(downbeats=np.array([0.0, 1.0, 2.0])),
            4,
        )
    )
    @example(  # the last computed edge rounds below the downbeat; a frame sits between them
        grid=(
            Chromagram(
                frame_times=np.array([4.4, 4.4 + (7.29 - 4.4) * 3 / 3]),
                values=np.array([[1.0, 2.0], [3.0, 4.0]]),
            ),
            BarGrid(downbeats=np.array([4.4, 7.29])),
            3,
        )
    )
    def test_matches_loop_oracle(self, grid):
        chroma, bars, fpb = grid
        try:
            expected = tensorize_loop(chroma, bars, fpb)
        except IngestError as exc:
            with pytest.raises(IngestError) as raised:
                tensorize(chroma, bars, fpb)
            assert str(raised.value) == str(exc)
            return
        tensor = tensorize(chroma, bars, fpb)
        if chroma.n_pitch_classes == 1:
            # numpy's mean sums a single row pairwise, the scatter add in frame order
            np.testing.assert_allclose(tensor, expected, rtol=1e-12)
        else:
            assert np.array_equal(tensor, expected)

    def test_long_song_scales(self):
        # 400 two-second bars at 43 frames/s, off the 96-per-bar grid, so cells hold
        # zero or one frame; the per-cell mask loop takes about 5 s on a 2-core VM
        rng = np.random.default_rng(11)
        times = (np.arange(800 * 43) + 0.5) / 43
        chroma = Chromagram(frame_times=times, values=rng.random((12, times.size)))
        bars = BarGrid(downbeats=2.0 * np.arange(401))
        start = time.perf_counter()
        tensor = tensorize(chroma, bars)
        assert time.perf_counter() - start < 1.0
        assert tensor.shape == (12, 96, 400)


class TestSynthSong:
    def test_reference_boundaries_at_pattern_changes(self):
        patterns = [np.ones((3, 4)), 2 * np.ones((3, 4))]
        _, _, ref = synth_song(patterns, [0, 0, 1, 1])
        assert ref.boundaries() == [0.0, 4.0, 8.0]
        assert [s[2] for s in ref.segments] == ["P0", "P1"]

    def test_zero_noise_slices_bit_equal(self):
        rng = np.random.default_rng(6)
        patterns = [rng.random((3, 4)) for _ in range(2)]
        tensor, _, _ = synth_song(patterns, [0, 1, 0])
        for b, idx in enumerate([0, 1, 0]):
            assert np.array_equal(tensor[:, :, b], patterns[idx])

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        patterns = [rng.random((3, 4)) for _ in range(2)]
        a = synth_song(patterns, [0, 1], noise_level=0.2, seed=5)
        b = synth_song(patterns, [0, 1], noise_level=0.2, seed=5)
        assert np.array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1].downbeats, b[1].downbeats)
        assert a[2] == b[2]

    def test_empty_assignment_rejected(self):
        with pytest.raises(ValueError):
            synth_song([np.ones((2, 2))], [])

    def test_one_dimensional_patterns_rejected(self):
        with pytest.raises(ValueError, match=r"^pattern 0 must be order 2, got shape \(4,\)$"):
            synth_song([np.ones(4)], [0, 0])

    def test_nan_pattern_rejected(self):
        pattern = np.ones((2, 2))
        pattern[1, 0] = np.nan
        with pytest.raises(ValueError, match=r"^pattern 1 has 1 non-finite entries \(NaN or inf\)$"):
            synth_song([np.ones((2, 2)), pattern], [0, 1])

    def test_patterns_of_different_shapes_rejected(self):
        with pytest.raises(ValueError, match="^all patterns must share one shape$"):
            synth_song([np.ones((2, 2)), np.ones((2, 3))], [0, 1])

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            synth_song([np.ones((2, 2))], [0, 1])

    @pytest.mark.parametrize("noise_level", [float("nan"), float("inf"), -0.1])
    def test_bad_noise_level_rejected(self, noise_level):
        with pytest.raises(ValueError, match="noise_level must be a nonnegative finite number"):
            synth_song([np.ones((2, 2))], [0], noise_level=noise_level)

    def test_zero_noise_decompose_at_true_ranks(self, monkeypatch):
        rng = np.random.default_rng(8)
        patterns = [rng.random((4, 6)) for _ in range(2)]
        x, _, _ = synth_song(patterns, [0, 0, 1, 1, 0, 0])
        truth = NtdModel(
            w=np.eye(4),
            h=np.eye(6),
            q=np.array([[1.0, 0.0]] * 2 + [[0.0, 1.0]] * 2 + [[1.0, 0.0]] * 2),
            core=np.stack(patterns, axis=2),
            ranks=NtdRanks(4, 6, 2),
            objective_trace=[],
        )
        start_from(monkeypatch, truth)
        model = decompose(x, truth.ranks, NtdConfig(max_outer_iters=20))
        assert len(model.objective_trace) == 21
        assert model.objective_trace[-1] <= 1e-10 * np.sum(x * x)

    def test_tensor_to_chromagram_round_trip(self):
        rng = np.random.default_rng(9)
        patterns = [rng.random((5, 6)) for _ in range(2)]
        tensor, bars, _ = synth_song(patterns, [0, 1, 1, 0])
        chroma = tensor_to_chromagram(tensor, bars)
        back = tensorize(chroma, bars, frames_per_bar=6)
        np.testing.assert_array_equal(back, tensor)

    def test_tensor_to_chromagram_rejects_bar_count_mismatch(self):
        bars = BarGrid(downbeats=np.arange(6.0))
        with pytest.raises(ValueError, match="^tensor has 4 bars but the bar grid has 5$"):
            tensor_to_chromagram(np.ones((3, 2, 4)), bars)
        with pytest.raises(ValueError, match=r"^input tensor must be order 3, got shape \(3, 5\)$"):
            tensor_to_chromagram(np.ones((3, 5)), bars)

    def test_tensor_to_chromagram_matches_per_bar_formula(self):
        rng = np.random.default_rng(12)
        bars = BarGrid(downbeats=np.cumsum(rng.uniform(0.5, 3.0, 9)))
        tensor = rng.random((3, 7, 8))
        chroma = tensor_to_chromagram(tensor, bars)
        for b in range(8):
            start, end = bars.downbeats[b], bars.downbeats[b + 1]
            width = (end - start) / 7
            frames = slice(7 * b, 7 * (b + 1))
            assert np.array_equal(chroma.frame_times[frames], start + width * (np.arange(7) + 0.5))
            assert np.array_equal(chroma.values[:, frames], tensor[:, :, b])

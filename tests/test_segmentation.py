import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ntdseg.ingest import BarGrid, ReferenceSegmentation, load_annotation, save_annotation
from ntdseg.segmentation import (
    Segmentation,
    SegmentationConfig,
    _band_scores,
    autosimilarity_from_features,
    boundaries_to_times,
    penalty,
    raw_score,
    segment,
)


def max_eight_bar_score(a, band=4):
    """Maximum raw score over all 8-bar windows (full-length windows when
    the piece is shorter than 8 bars)."""
    window = min(8, a.shape[0])
    return max(raw_score(a, s, s + window - 1, band) for s in range(a.shape[0] - window + 1))


def modified_score(a, b1, b2, cfg, c_max8):
    """Raw score of the segment [b1, b2] less its weighted length penalty."""
    n = b2 - b1 + 1
    return raw_score(a, b1, b2, cfg.kernel_band) - cfg.penalty_weight * penalty(n) * c_max8


def partitions(a, cfg):
    """Every contiguous partition of the bars with segments no longer than
    `max_segment_bars`, with the modified score of each of its segments."""
    size = a.shape[0]
    c_max8 = max_eight_bar_score(a, cfg.kernel_band)
    scores = {
        (s, e): modified_score(a, s, e - 1, cfg, c_max8)
        for s in range(size)
        for e in range(s + 1, size + 1)
    }
    for mask in range(2 ** (size - 1)):
        boundaries = (0,) + tuple(i + 1 for i in range(size - 1) if mask >> i & 1) + (size,)
        if max(np.diff(boundaries)) <= cfg.max_segment_bars:
            yield boundaries, [scores[s, e] for s, e in zip(boundaries[:-1], boundaries[1:])]


def enumerate_best_total(a, cfg):
    """Exhaustive search over every contiguous partition of the bars."""
    best = -np.inf
    for _, scores in partitions(a, cfg):
        total = 0.0
        for score in scores:
            total = total + score
        best = max(best, total)
    return best


def best_partition(a, cfg):
    """The winning partition under the documented order: highest exact sum
    of the segment scores, then fewest segments, then the lexicographically
    smallest boundaries."""
    return min(
        partitions(a, cfg), key=lambda p: (-sum(map(Fraction, p[1])), len(p[0]), p[0])
    )[0]


def make_kernel(n, band):
    """Binary kernel with ones on the first `band` off-diagonals."""
    offsets = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return ((offsets >= 1) & (offsets <= band)).astype(float)


def kernel_score(a, b1, b2, band):
    """The paper's raw score: the kernel-weighted sum over the segment's
    block of `a`, divided by the segment length."""
    n = b2 - b1 + 1
    return np.sum(make_kernel(n, band) * a[b1 : b2 + 1, b1 : b2 + 1]) / n


def dp_total(a, cfg, seg):
    c_max8 = max_eight_bar_score(a, cfg.kernel_band)
    total = 0.0
    for s, e in zip(seg.bar_boundaries[:-1], seg.bar_boundaries[1:]):
        total = total + modified_score(a, s, e - 1, cfg, c_max8)
    return total


class TestAutosimilarity:
    def test_one_hot_rows_give_identity(self):
        a = autosimilarity_from_features(np.eye(4))
        np.testing.assert_array_equal(a, np.eye(4))

    def test_identical_rows_full_similarity(self):
        feats = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        a = autosimilarity_from_features(feats)
        assert a[0, 1] == pytest.approx(1.0)

    def test_matches_pairwise_cosine_oracle(self):
        rng = np.random.default_rng(0)
        feats = rng.random((5, 3))
        a = autosimilarity_from_features(feats)
        for i in range(5):
            for j in range(5):
                expected = feats[i] @ feats[j] / (
                    np.linalg.norm(feats[i]) * np.linalg.norm(feats[j])
                )
                assert a[i, j] == pytest.approx(expected, rel=1e-12)

    def test_symmetry_range_and_diagonal(self):
        rng = np.random.default_rng(1)
        feats = rng.random((8, 4))
        a = autosimilarity_from_features(feats)
        np.testing.assert_allclose(a, a.T, atol=1e-12)
        assert a.min() >= -1e-12 and a.max() <= 1.0 + 1e-12
        np.testing.assert_allclose(np.diag(a), 1.0, rtol=1e-12)

    def test_row_scale_invariance(self):
        rng = np.random.default_rng(2)
        feats = rng.random((6, 4))
        scaled = feats.copy()
        scaled[2] *= 37.5
        np.testing.assert_allclose(
            autosimilarity_from_features(scaled),
            autosimilarity_from_features(feats),
            atol=1e-12,
        )

    def test_zero_rows_stay_zero(self):
        feats = np.array([[0.0, 0.0], [1.0, 0.0]])
        a = autosimilarity_from_features(feats)
        assert a[0, 0] == 0.0 and a[0, 1] == 0.0

    @settings(max_examples=100, deadline=None)
    @given(
        exponents=st.lists(st.integers(-1000, 1000), min_size=8, max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(exponents=[-600] * 8, seed=2)  # all zero on the unscaled norm
    @example(exponents=[1000] * 8, seed=2)  # inf on the unscaled norm
    def test_power_of_two_row_scale(self, exponents, seed):
        # entries of magnitude in [1/4, 1) or zero, so 2**k x is exact for
        # k in [-1000, 1000]
        rng = np.random.default_rng(seed)
        feats = rng.uniform(0.25, 1.0, (8, 5)) * rng.choice([-1.0, 0.0, 1.0], (8, 5))
        scaled = np.ldexp(feats, np.array(exponents)[:, None])
        assert autosimilarity_from_features(scaled).tobytes() == autosimilarity_from_features(feats).tobytes()

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 2.0**-600, 2.0**-1060])
    def test_extreme_magnitudes_keep_unit_diagonal(self, scale):
        feats = np.random.default_rng(2).random((20, 5)) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = autosimilarity_from_features(feats)
        np.testing.assert_allclose(np.diag(a), 1.0, rtol=1e-12)

    def test_one_dimensional_features_rejected(self):
        with pytest.raises(ValueError, match=r"^features must be order 2, got shape \(4,\)$"):
            autosimilarity_from_features(np.ones(4))

    def test_empty_rows(self):
        assert autosimilarity_from_features(np.zeros((3, 0))).tobytes() == np.zeros((3, 3)).tobytes()


class TestBandScores:
    @settings(max_examples=100, deadline=None)
    @given(
        size=st.integers(1, 40),
        band=st.integers(1, 8),
        symmetric=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    def test_matches_kernel_oracle(self, size, band, symmetric, seed):
        a = np.random.default_rng(seed).random((size, size))
        if symmetric:
            a = 0.5 * (a + a.T)
        table = _band_scores(a, band, size)
        for b1 in range(size):
            expected = [kernel_score(a, b1, b2, band) for b2 in range(b1, size)]
            got = [raw_score(a, b1, b2, band) for b2 in range(b1, size)]
            np.testing.assert_allclose(table[b1, : size - b1], expected, rtol=1e-12, atol=0)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)
            assert np.all(np.isneginf(table[b1, size - b1 :]))

    @settings(max_examples=50, deadline=None)
    @given(
        size=st.integers(1, 20),
        band=st.integers(1, 8),
        offset=st.integers(1, 10),
        seed=st.integers(0, 10_000),
    )
    def test_block_scores_bit_identical_at_any_offset(self, size, band, offset, seed):
        rng = np.random.default_rng(seed)
        block = rng.random((size, size))
        here = rng.random((size + offset, size + offset))
        there = rng.random((size + offset, size + offset))
        here[:size, :size] = block
        there[offset:, offset:] = block
        inside = np.arange(size)[:, None] + np.arange(size)[None, :] < size
        assert np.array_equal(
            _band_scores(here, band, size)[:size][inside],
            _band_scores(there, band, size)[offset:][inside],
        )
        last = size - 1
        assert raw_score(here, 0, last, band) == raw_score(there, offset, offset + last, band)


class TestRawScore:
    def test_all_ones_ten_bars(self):
        a = np.ones((10, 10))
        assert raw_score(a, 0, 9, 4) == pytest.approx(6.0)  # 60 ones / 10

    def test_identity_scores_zero(self):
        a = np.eye(12)
        assert raw_score(a, 2, 8, 4) == 0.0

    def test_singleton_segment(self):
        a = np.ones((5, 5))
        assert raw_score(a, 3, 3, 4) == 0.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        block = rng.random((6, 6))
        block = 0.5 * (block + block.T)
        a = np.zeros((12, 12))
        a[0:6, 0:6] = block
        b = np.zeros((12, 12))
        b[4:10, 4:10] = block
        assert raw_score(a, 0, 5, 4) == raw_score(b, 4, 9, 4)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            raw_score(np.ones((4, 4)), 1, 4, 4)


class TestPenalty:
    def test_paper_values(self):
        assert penalty(8) == 0.0
        assert penalty(12) == 0.25
        assert penalty(10) == 0.5
        assert penalty(7) == 1.0
        assert penalty(4) == 0.25

    def test_table_up_to_64(self):
        for n in range(1, 65):
            if n == 8:
                expected = 0.0
            elif n % 4 == 0:
                expected = 0.25
            elif n % 2 == 0:
                expected = 0.5
            else:
                expected = 1.0
            assert penalty(n) == expected


class TestModifiedScore:
    def test_eight_bars_no_penalty(self):
        rng = np.random.default_rng(4)
        a = rng.random((12, 12))
        a = 0.5 * (a + a.T)
        cfg = SegmentationConfig(penalty_weight=2.0)
        c_max8 = max_eight_bar_score(a)
        assert modified_score(a, 2, 9, cfg, c_max8) == raw_score(a, 2, 9, 4)

    def test_zero_lambda(self):
        rng = np.random.default_rng(5)
        a = rng.random((10, 10))
        cfg = SegmentationConfig(penalty_weight=0.0)
        for b1, b2 in [(0, 4), (1, 7), (3, 9)]:
            assert modified_score(a, b1, b2, cfg, 3.3) == raw_score(a, b1, b2, 4)

    def test_direct_arithmetic(self):
        # 7-bar segment with known raw score 3.0: only the first
        # off-diagonal is filled, so raw = 2 * 6 * v / 7
        a = np.zeros((7, 7))
        v = 3.0 * 7 / 12
        for i in range(6):
            a[i, i + 1] = a[i + 1, i] = v
        cfg = SegmentationConfig(penalty_weight=1.0)
        got = modified_score(a, 0, 6, cfg, c_max8=2.5)
        assert got == pytest.approx(3.0 - 1.0 * 1.0 * 2.5)


class TestSegment:
    def test_single_block_single_segment(self):
        a = np.ones((6, 6))
        seg = segment(a, SegmentationConfig(penalty_weight=0.0))
        assert seg.bar_boundaries == (0, 6)

    def test_two_perfect_eight_bar_blocks(self):
        # with the length prior active the two free 8-bar segments win;
        # without it the normalized convolution score rewards splitting
        a = np.zeros((16, 16))
        a[:8, :8] = 1.0
        a[8:, 8:] = 1.0
        cfg = SegmentationConfig(penalty_weight=1.0)
        seg = segment(a, cfg)
        assert dp_total(a, cfg, seg) == enumerate_best_total(a, cfg)
        assert seg.bar_boundaries == (0, 8, 16)

    @pytest.mark.parametrize("penalty_weight", [0.0, 0.7, 1.5])
    def test_matches_exhaustive_enumeration(self, penalty_weight):
        rng = np.random.default_rng(6)
        for trial in range(10):
            size = int(rng.integers(2, 11))
            a = rng.random((size, size))
            a = 0.5 * (a + a.T)
            cfg = SegmentationConfig(penalty_weight=penalty_weight)
            seg = segment(a, cfg)
            assert dp_total(a, cfg, seg) == enumerate_best_total(a, cfg)

    def test_respects_max_segment_bars(self):
        a = np.ones((9, 9))
        cfg = SegmentationConfig(penalty_weight=0.0, max_segment_bars=4)
        seg = segment(a, cfg)
        assert max(np.diff(seg.bar_boundaries)) <= 4
        assert dp_total(a, cfg, seg) == enumerate_best_total(a, cfg)

    def test_tie_break_prefers_fewer_segments(self):
        # identity autosimilarity with zero penalty: every partition scores 0
        a = np.eye(6)
        seg = segment(a, SegmentationConfig(penalty_weight=0.0))
        assert seg.bar_boundaries == (0, 6)

    def test_single_bar(self):
        seg = segment(np.ones((1, 1)), SegmentationConfig())
        assert seg.bar_boundaries == (0, 1)

    @settings(max_examples=400, deadline=None)
    @given(
        size=st.integers(1, 10),
        band=st.integers(1, 5),
        max_segment_bars=st.integers(2, 9),
        penalty_weight=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        symmetric=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    # float sums of the scores break these exact ties the wrong way
    @example(size=7, band=1, max_segment_bars=2, penalty_weight=1.0, symmetric=False, seed=28)
    @example(size=10, band=5, max_segment_bars=3, penalty_weight=0.0, symmetric=False, seed=594)
    def test_tie_break_matches_exhaustive_partition(
        self, size, band, max_segment_bars, penalty_weight, symmetric, seed
    ):
        # entries in {0, 0.5, 1} make exact ties between partitions common
        a = np.random.default_rng(seed).integers(0, 3, (size, size)) / 2.0
        if symmetric:
            a = np.triu(a) + np.triu(a, 1).T
        cfg = SegmentationConfig(
            penalty_weight=penalty_weight, max_segment_bars=max_segment_bars, kernel_band=band
        )
        assert segment(a, cfg).bar_boundaries == best_partition(a, cfg)

    def test_long_song_scales(self):
        # 400 bars with 32-bar segments: per-candidate trace calls took 0.4-0.6 s
        # on a 2-core VM
        a = autosimilarity_from_features(np.random.default_rng(12).random((400, 10)))
        start = time.perf_counter()
        seg = segment(a, SegmentationConfig(max_segment_bars=32))
        assert time.perf_counter() - start < 0.15
        assert seg.bar_boundaries[0] == 0 and seg.bar_boundaries[-1] == 400

    @pytest.mark.parametrize(
        "field, message",
        [
            ("kernel_band", r"kernel_band must be an integer of at least 1, got 4\.5"),
            ("max_segment_bars", r"max_segment_bars must be an integer of at least 2, got 4\.5"),
        ],
    )
    def test_non_integer_field_rejected(self, field, message):
        with pytest.raises(ValueError, match=message):
            SegmentationConfig(**{field: 4.5})

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_penalty_weight_rejected(self, weight):
        with pytest.raises(ValueError, match="penalty_weight must be a nonnegative finite"):
            SegmentationConfig(penalty_weight=weight)

    @pytest.mark.parametrize("weight", ["1", None, 1j, [0.5]])
    def test_non_numeric_penalty_weight_rejected(self, weight):
        with pytest.raises(ValueError, match="^penalty_weight must be a nonnegative finite number$"):
            SegmentationConfig(penalty_weight=weight)

    @pytest.mark.parametrize("weight", [0, 2, np.float64(0.5), np.int64(3)])
    def test_real_number_penalty_weights_accepted(self, weight):
        assert SegmentationConfig(penalty_weight=weight).penalty_weight == weight

    def test_non_square_autosimilarity_rejected(self):
        with pytest.raises(ValueError, match=r"square matrix, got shape \(5, 7\)"):
            segment(np.ones((5, 7)))

    def test_non_finite_autosimilarity_rejected(self):
        with pytest.raises(ValueError, match=r"^autosimilarity has 36 non-finite entries \(NaN or inf\)$"):
            segment(np.full((6, 6), np.nan))

    def test_overflowing_penalty_rejected(self):
        # lambda * c_max8 overflows at 1e308: the penalised lengths scored
        # -inf, were read as 0 and so scored best
        a = autosimilarity_from_features(np.random.default_rng(1).random((44, 6)))
        assert segment(a, SegmentationConfig(penalty_weight=1e307)).bar_boundaries == (
            0, 4, 12, 20, 28, 36, 44)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^segment scores overflow: penalty_weight 1e\+308 "):
                segment(a, SegmentationConfig(penalty_weight=1e308))

    def test_overflowing_scores_rejected(self):
        # every entry is finite, but the kernel sums are not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^segment scores overflow: "):
                segment(np.full((10, 10), 1e308))


class TestBoundaryTimes:
    def test_maps_to_downbeats(self):
        bars = BarGrid(downbeats=0.5 + 2.0 * np.arange(10, dtype=float))
        seg = Segmentation(bar_boundaries=(0, 4, 9))
        timed = boundaries_to_times(seg, bars)
        assert timed.boundary_times == (0.5, 8.5, 18.5)

    def test_out_of_range(self):
        bars = BarGrid(downbeats=np.array([0.0, 2.0]))
        with pytest.raises(IndexError):
            boundaries_to_times(Segmentation(bar_boundaries=(0, 3)), bars)

    def test_round_trip_through_annotation_file(self, tmp_path):
        bars = BarGrid(downbeats=2.0 * np.arange(9, dtype=float))
        times = boundaries_to_times(Segmentation(bar_boundaries=(0, 4, 8)), bars).boundary_times
        path = tmp_path / "seg.txt"
        save_annotation(path, ReferenceSegmentation(
            ((times[0], times[1], "S0"), (times[1], times[2], "S1"))
        ))
        assert path.read_text() == "0.0 8.0 S0\n8.0 16.0 S1\n"
        loaded = load_annotation(path)
        assert loaded.boundaries() == [0.0, 8.0, 16.0]
        assert [s[2] for s in loaded.segments] == ["S0", "S1"]

import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ntdseg import evaluation
from ntdseg.decomposition import NtdConfig, NtdRanks, check_fit
from ntdseg.evaluation import (
    default_rank_grid,
    fit_lambda,
    hit_rate,
    oracle_select,
    rank_sweep,
    segment_song,
    write_sweep_report,
)
from ntdseg.ingest import BarGrid, synth_song
from ntdseg.segmentation import Segmentation, SegmentationConfig


def exhaustive_matching(reference, estimate, tolerance):
    """Maximum one-to-one matching by trying every injective assignment."""
    best = 0
    n_est = len(estimate)
    for size in range(min(len(reference), n_est), 0, -1):
        for ref_subset in itertools.combinations(range(len(reference)), size):
            for est_perm in itertools.permutations(range(n_est), size):
                if all(
                    abs(reference[r] - estimate[e]) <= tolerance
                    for r, e in zip(ref_subset, est_perm)
                ):
                    return size
    return best


def make_tiny_song(seed=0, n_patterns=2, block=8, blocks=3, frames=8, pitches=6):
    rng = np.random.default_rng(seed)
    patterns = [rng.uniform(0.0, 1.0, (pitches, frames)) for _ in range(n_patterns)]
    assignment = []
    for b in range(blocks):
        assignment += [b % n_patterns] * block
    return synth_song(patterns, assignment, seed=seed)


FAST_NTD = NtdConfig(fix_w_to_identity=True, max_outer_iters=30)
FAST_SEG = SegmentationConfig(penalty_weight=1.0)


def defective_song(defect):
    """`make_tiny_song()` (6 x 8 x 24) with one defect that no fit can accept."""
    x, bars, ref = make_tiny_song()
    if defect == "nan":
        x[1, 2, 3] = np.nan
    elif defect == "negative":
        x[1, 2, 3] = -1.0
    elif defect == "short tensor":
        x = x[:, :, :10]
    elif defect == "short grid":
        bars = BarGrid(bars.downbeats[:17])
    elif defect == "order 2":
        x = x[:, :, 0]
    elif defect == "7 pitch classes":  # a defect only where f_rank is 6 and W is fixed
        x, bars, ref = make_tiny_song(pitches=7)
    return x, bars, ref


# Each defect with the message the harnesses raise for it, before any fit.
DEFECTS = [
    ("nan", "input tensor has 1 non-finite entries (NaN or inf)"),
    ("negative", "input tensor must be nonnegative"),
    ("short tensor", "tensor has 10 bars but the bar grid has 24"),
    ("short grid", "tensor has 24 bars but the bar grid has 16"),
    ("order 2", "input tensor must be order 3, got shape (6, 8)"),
]
BAR_DEFECTS = [d for d in DEFECTS if d[0].startswith("short")]


@pytest.fixture
def fits(monkeypatch):
    """Count the `decompose` calls the harnesses make."""
    calls = []
    original = evaluation.decompose

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(evaluation, "decompose", counting)
    return calls


class TestHitRate:
    def test_exact_match(self):
        s = hit_rate([0.0, 10.0, 20.0], [0.0, 10.0, 20.0], 0.5)
        assert (s.precision, s.recall, s.f_measure) == (1.0, 1.0, 1.0)

    def test_partial_match(self):
        s = hit_rate([0.0, 10.0, 20.0], [0.0, 11.0, 20.0], 0.5)
        assert s.matched == 2
        assert s.precision == pytest.approx(2 / 3)
        assert s.recall == pytest.approx(2 / 3)

    def test_one_to_one_constraint(self):
        s = hit_rate([0.0, 10.0], [9.8, 10.2], 0.5)
        assert s.matched == 1
        assert s.precision == 0.5 and s.recall == 0.5

    def test_empty_estimate(self):
        s = hit_rate([0.0, 5.0], [], 0.5)
        assert (s.precision, s.recall, s.f_measure) == (0.0, 0.0, 0.0)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            hit_rate([1.0, 0.0], [0.0], 0.5)

    @pytest.mark.parametrize(
        "bad", [[0.0, float("nan"), 10.0], [0.0, 10.0, float("inf")], [float("-inf"), 0.0, 10.0]]
    )
    @pytest.mark.parametrize("side", ["reference", "estimate"])
    def test_non_finite_times_rejected(self, bad, side):
        # each list passes the sorted check; a NaN also stalled the
        # matching scan, so the 10.0 estimate went unmatched
        times = {"reference": [0.0, 10.0], "estimate": [0.0, 10.0]}
        times[side] = bad
        with pytest.raises(ValueError, match="boundary times must be finite"):
            hit_rate(times["reference"], times["estimate"], 0.5)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf")])
    def test_non_finite_tolerance_rejected(self, tolerance):
        with pytest.raises(ValueError, match="tolerance must be a positive finite number"):
            hit_rate([0.0, 10.0], [0.0, 10.0], tolerance)

    def test_symmetry_swaps_precision_and_recall(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            ref = sorted(rng.uniform(0, 30, rng.integers(1, 6)))
            est = sorted(rng.uniform(0, 30, rng.integers(1, 6)))
            forward = hit_rate(ref, est, 3.0)
            backward = hit_rate(est, ref, 3.0)
            assert forward.precision == pytest.approx(backward.recall)
            assert forward.recall == pytest.approx(backward.precision)
            assert forward.matched == backward.matched

    def test_three_thousand_boundaries(self):
        ref = [float(i) for i in range(3000)]
        est = [i + 0.5 for i in range(3000)]
        s = hit_rate(ref, est, 0.5)
        assert s.matched == 3000
        assert s.f_measure == 1.0

    @settings(max_examples=200, deadline=None)
    @given(
        ref=st.lists(st.integers(0, 12), max_size=5),
        est=st.lists(st.integers(0, 12), max_size=5),
        tolerance=st.sampled_from([0.5, 1.0, 2.0]),
    )
    def test_ties_match_exhaustive_oracle(self, ref, est, tolerance):
        # half-second grid times put many pairs exactly at the tolerance
        ref = sorted(0.5 * t for t in ref)
        est = sorted(0.5 * t for t in est)
        s = hit_rate(ref, est, tolerance)
        assert s.matched == exhaustive_matching(ref, est, tolerance)

    @pytest.mark.parametrize("tolerance", [0.5, 3.0])
    def test_matches_exhaustive_oracle(self, tolerance):
        rng = np.random.default_rng(1)
        for _ in range(100):
            ref = sorted(rng.uniform(0, 20, rng.integers(1, 7)))
            est = sorted(rng.uniform(0, 20, rng.integers(1, 7)))
            s = hit_rate(ref, est, tolerance)
            assert s.matched == exhaustive_matching(ref, est, tolerance)

    def test_f_measure_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            ref = sorted(rng.uniform(0, 20, rng.integers(1, 6)))
            est = sorted(rng.uniform(0, 20, rng.integers(1, 6)))
            s = hit_rate(ref, est, 1.0)
            if s.precision + s.recall > 0:
                expected = 2 * s.precision * s.recall / (s.precision + s.recall)
            else:
                expected = 0.0
            assert s.f_measure == expected
            assert s.matched <= min(s.n_ref, s.n_est)


class TestRankSweep:
    def test_single_pair(self):
        x, bars, ref = make_tiny_song()
        result = rank_sweep(x, bars, ref, [(3, 2)], FAST_NTD, FAST_SEG)
        assert set(result) == {(3, 2)}

    def test_true_pattern_count_achieves_perfect_f(self):
        x, bars, ref = make_tiny_song(seed=4)
        result = rank_sweep(x, bars, ref, [(2, 2), (3, 2), (4, 2)], FAST_NTD, FAST_SEG)
        best_f = max(e.scores[0.5].f_measure for e in result.values())
        assert best_f == 1.0

    def test_default_grid_is_paper_grid(self):
        grid = default_rank_grid()
        assert len(grid) == 100
        assert (40, 28) in grid and (48, 24) in grid
        assert all(12 <= t <= 48 and t % 4 == 0 for t, _ in grid)

    @pytest.mark.parametrize("step", [0, -4])
    def test_non_positive_step_rejected(self, step):
        with pytest.raises(ValueError, match="rank step must be positive"):
            default_rank_grid(12, 48, step)

    def test_empty_rank_range_rejected(self):
        with pytest.raises(ValueError, match="^lowest rank 50 exceeds highest rank 12$"):
            default_rank_grid(50, 12)

    @pytest.mark.parametrize("low", [0, -2])
    def test_rank_below_one_rejected(self, low):
        with pytest.raises(ValueError, match=f"^lowest rank must be at least 1, got {low}$"):
            default_rank_grid(low, 4, 2)

    def test_empty_grid_rejected(self):
        x, bars, ref = make_tiny_song()
        with pytest.raises(ValueError):
            rank_sweep(x, bars, ref, [])

    def test_result_is_keyed_by_rank_pair(self, fits):
        x, bars, ref = make_tiny_song()
        result = rank_sweep(x, bars, ref, [(3, 2), (2, 2)], FAST_NTD, FAST_SEG)
        assert list(result) == [(3, 2), (2, 2)]
        assert len(fits) == 2
        assert all(set(e.scores) == {0.5, 3.0} for e in result.values())

    @pytest.mark.parametrize("pair, message", [
        ((2, 25), r"^rank pair \(2, 25\): B-rank 25 exceeds tensor dimension 24$"),
        ((9, 2), r"^rank pair \(9, 2\): T-rank 9 exceeds tensor dimension 8$"),
        ((0, 2), r"^rank pair \(0, 2\): t_rank must be a positive integer$"),
    ])
    def test_bad_rank_pair_rejected_before_any_fit(self, fits, pair, message):
        x, bars, ref = make_tiny_song()  # 6 x 8 x 24
        with pytest.raises(ValueError, match=message):
            rank_sweep(x, bars, ref, [(2, 2), pair], FAST_NTD, FAST_SEG)
        assert fits == []

    @pytest.mark.parametrize("tolerance", [-1.0, 0.0, float("nan"), float("inf")])
    def test_bad_tolerance_rejected_before_any_fit(self, fits, tolerance):
        x, bars, ref = make_tiny_song()
        with pytest.raises(ValueError, match="^tolerance must be a positive finite number$"):
            rank_sweep(x, bars, ref, [(2, 2)], FAST_NTD, FAST_SEG, (0.5, tolerance))
        assert fits == []

    @pytest.mark.parametrize("defect, message", DEFECTS)
    def test_bad_song_rejected_before_any_fit(self, fits, defect, message):
        prefix = "" if defect in dict(BAR_DEFECTS) else "rank pair (2, 2): "
        with pytest.raises(ValueError, match=f"^{re.escape(prefix + message)}$"):
            rank_sweep(*defective_song(defect), [(2, 2)], FAST_NTD, FAST_SEG)
        assert fits == []

    @pytest.mark.parametrize("defect, message", BAR_DEFECTS)
    def test_segment_song_rejects_bar_count_mismatch_before_fitting(self, fits, defect, message):
        x, bars, _ = defective_song(defect)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            segment_song(x, bars, NtdRanks(6, 3, 2), FAST_NTD, FAST_SEG)
        assert fits == []

    def test_report_round_trip(self, tmp_path):
        x, bars, ref = make_tiny_song()
        result = rank_sweep(x, bars, ref, [(2, 2), (3, 2)], FAST_NTD, FAST_SEG)
        path = tmp_path / "sweep.tsv"
        write_sweep_report(path, result)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 3
        header = lines[0].split("\t")
        assert header[:3] == ["t_rank", "b_rank", "objective"]
        first = lines[1].split("\t")
        entry = result[(int(first[0]), int(first[1]))]
        assert float(first[2]) == entry.objective


@settings(max_examples=30, deadline=None)
@given(k=st.integers(-1000, 1000))
@example(k=-600)  # Q's autosimilarity underflowed to all zero here
@example(k=506)   # the largest scale that check_fit accepts
@example(k=507)   # the smallest that it rejects: ||x||^2 overflows
def test_segment_song_power_of_two_scale(k):
    # entries in [1/4, 1), so 2**k x is exact for k in [-1000, 1000]
    rng = np.random.default_rng(41)
    patterns = [rng.uniform(0.25, 0.9, (12, 8)) for _ in range(3)]
    x, bars, _ = synth_song(patterns, [0] * 8 + [1] * 8 + [2] * 4 + [0] * 4, noise_level=0.1, seed=41)
    ranks, cfg = NtdRanks(12, 4, 3), NtdConfig(fix_w_to_identity=True, max_outer_iters=10)
    scaled = np.ldexp(x, k)
    try:
        check_fit(scaled, ranks, cfg)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            segment_song(scaled, bars, ranks, cfg, FAST_SEG)
        return
    seg, _, _ = segment_song(x, bars, ranks, cfg, FAST_SEG)
    assert segment_song(scaled, bars, ranks, cfg, FAST_SEG)[0] == seg


class TestOracleSelect:
    def test_single_entry(self):
        x, bars, ref = make_tiny_song()
        result = rank_sweep(x, bars, ref, [(3, 2)], FAST_NTD, FAST_SEG)
        t, b, score = oracle_select(result, 0.5)
        assert (t, b) == (3, 2)
        assert score == result[(3, 2)].scores[0.5]

    def test_argmax_and_tie_break(self):
        x, bars, ref = make_tiny_song(seed=5)
        grid = [(2, 2), (3, 2), (4, 2)]
        result = rank_sweep(x, bars, ref, grid, FAST_NTD, FAST_SEG)
        t, b, score = oracle_select(result, 0.5)
        best_f = max(e.scores[0.5].f_measure for e in result.values())
        assert score.f_measure == best_f
        ties = [k for k, e in result.items() if e.scores[0.5].f_measure == best_f]
        assert (t, b) == min(ties)

    def test_unscored_tolerance_named(self):
        x, bars, ref = make_tiny_song()
        result = rank_sweep(x, bars, ref, [(3, 2)], FAST_NTD, FAST_SEG, tolerances=(0.5, 3.0))
        message = "tolerance 1.0 is not scored at grid point (3, 2), which scores [0.5, 3.0]"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            oracle_select(result, 1.0)

    def test_oracle_dominates_every_fixed_rank(self):
        x, bars, ref = make_tiny_song(seed=6)
        result = rank_sweep(x, bars, ref, [(2, 2), (3, 2), (3, 3)], FAST_NTD, FAST_SEG)
        for tol in (0.5, 3.0):
            _, _, best = oracle_select(result, tol)
            for entry in result.values():
                assert best.f_measure >= entry.scores[tol].f_measure


class TestFitLambda:
    def test_single_lambda_grid(self):
        corpus = [make_tiny_song(seed=s) for s in range(2)]
        fit = fit_lambda(corpus, [0.7], NtdRanks(6, 3, 2), FAST_NTD, FAST_SEG)
        assert fit.selected == 0.7
        assert fit.even_tuned == fit.odd_tuned == 0.7

    def test_dominant_lambda_selected(self):
        # zero-noise block songs segment perfectly for any small lambda,
        # so every fold agrees on the grid optimum
        corpus = [make_tiny_song(seed=s) for s in range(4)]
        fit = fit_lambda(corpus, [0.0, 1.0], NtdRanks(6, 3, 2), FAST_NTD, FAST_SEG)
        assert fit.selected in (0.0, 1.0)
        assert fit.mean_test_f == pytest.approx(
            0.5 * (fit.even_test_f + fit.odd_test_f)
        )

    def test_matches_exhaustive_reimplementation(self):
        from ntdseg.decomposition import decompose
        from ntdseg.evaluation import hit_rate as hr
        from ntdseg.segmentation import (
            autosimilarity_from_features,
            boundaries_to_times,
            segment,
        )

        corpus = [make_tiny_song(seed=s) for s in range(4)]
        grid = [0.0, 0.5, 1.0]
        ranks = NtdRanks(6, 3, 2)
        fit = fit_lambda(corpus, grid, ranks, FAST_NTD, FAST_SEG, tolerance=0.5)

        def independent_mean_f(indices, lam):
            total = 0.0
            for i in indices:
                x, bars, ref = corpus[i]
                model = decompose(x, ranks, FAST_NTD)
                autosim = autosimilarity_from_features(model.q)
                cfg = SegmentationConfig(
                    penalty_weight=lam,
                    max_segment_bars=FAST_SEG.max_segment_bars,
                    kernel_band=FAST_SEG.kernel_band,
                )
                seg = boundaries_to_times(segment(autosim, cfg), bars)
                total += hr(ref.boundaries(), list(seg.boundary_times), 0.5).f_measure
            return total / len(indices)

        even, odd = [0, 2], [1, 3]
        for indices, tuned in ((even, fit.even_tuned), (odd, fit.odd_tuned)):
            scores = {lam: independent_mean_f(indices, lam) for lam in grid}
            assert tuned == max(scores, key=lambda lam: (scores[lam], -lam))
        assert fit.even_test_f == pytest.approx(independent_mean_f(odd, fit.even_tuned))
        assert fit.odd_test_f == pytest.approx(independent_mean_f(even, fit.odd_tuned))

    def test_ties_select_the_smallest_lambda(self, monkeypatch):
        # with one segmentation for every lambda, every lambda scores the same F
        monkeypatch.setattr(
            evaluation, "segment", lambda a, cfg: Segmentation(bar_boundaries=(0, 8, 24))
        )
        corpus = [make_tiny_song(seed=s) for s in range(4)]
        fit = fit_lambda(corpus, [1.5, 0.25, 0.75], NtdRanks(6, 3, 2), FAST_NTD, FAST_SEG)
        assert fit.even_tuned == fit.odd_tuned == fit.selected == 0.25
        assert 0.0 < fit.even_test_f < 1.0

    def test_fields_are_python_floats(self):
        corpus = [make_tiny_song(seed=s) for s in range(3)]
        fit = fit_lambda(corpus, [0, 1], NtdRanks(6, 3, 2), FAST_NTD, FAST_SEG)
        assert [type(v) for v in vars(fit).values()] == [float] * 5

    @pytest.mark.parametrize("grid, tolerance, message", [
        ([0.5, -1.0], 0.5, "^penalty_weight must be a nonnegative finite number$"),
        ([0.5, float("nan")], 0.5, "^penalty_weight must be a nonnegative finite number$"),
        ([0.5], -1.0, "^tolerance must be a positive finite number$"),
        ([0.5], float("nan"), "^tolerance must be a positive finite number$"),
    ])
    def test_bad_input_rejected_before_any_fit(self, fits, grid, tolerance, message):
        corpus = [make_tiny_song(seed=s) for s in range(2)]
        with pytest.raises(ValueError, match=message):
            fit_lambda(corpus, grid, NtdRanks(6, 3, 2), FAST_NTD, FAST_SEG, tolerance)
        assert fits == []

    def test_rank_too_large_for_a_song_rejected_before_any_fit(self, fits):
        corpus = [make_tiny_song(seed=0), make_tiny_song(seed=1, blocks=1)]  # 24, 8 bars
        with pytest.raises(ValueError, match="^song 1: B-rank 10 exceeds tensor dimension 8$"):
            fit_lambda(corpus, [0.5], NtdRanks(6, 3, 10), FAST_NTD, FAST_SEG)
        assert fits == []

    @pytest.mark.parametrize("defect, message", DEFECTS + [(
        "7 pitch classes",
        "fix_w_to_identity requires f_rank equal to the frequency dimension, "
        "got f_rank 6 and frequency dimension 7",
    )])
    def test_bad_song_rejected_before_any_fit(self, fits, defect, message):
        corpus = [make_tiny_song(), defective_song(defect)]
        with pytest.raises(ValueError, match=f"^{re.escape('song 1: ' + message)}$"):
            fit_lambda(corpus, [0.5], NtdRanks(6, 3, 2), FAST_NTD, FAST_SEG)
        assert fits == []

    def test_small_corpus_rejected(self):
        with pytest.raises(ValueError):
            fit_lambda([make_tiny_song()], [1.0], NtdRanks(6, 3, 2))

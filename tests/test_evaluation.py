import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntdseg.decomposition import NtdConfig, NtdRanks
from ntdseg.evaluation import (
    default_rank_grid,
    fit_lambda,
    hit_rate,
    oracle_select,
    rank_sweep,
    snap_to_downbeats,
    write_sweep_report,
)
from ntdseg.ingest import BarGrid, synth_song
from ntdseg.segmentation import SegmentationConfig


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


class TestSnapToDownbeats:
    def test_exact_downbeat_unchanged(self):
        bars = BarGrid(downbeats=2.0 * np.arange(5, dtype=float))
        assert snap_to_downbeats([4.0], bars) == [4.0]

    def test_nearest(self):
        bars = BarGrid(downbeats=2.0 * np.arange(5, dtype=float))
        assert snap_to_downbeats([3.2], bars) == [4.0]

    def test_tie_goes_to_earlier(self):
        bars = BarGrid(downbeats=2.0 * np.arange(5, dtype=float))
        assert snap_to_downbeats([3.0], bars) == [2.0]

    def test_collapse_duplicates(self):
        bars = BarGrid(downbeats=2.0 * np.arange(5, dtype=float))
        assert snap_to_downbeats([1.9, 2.1], bars) == [2.0]

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        bars = BarGrid(downbeats=np.sort(rng.uniform(0, 50, 20)))
        snapped = snap_to_downbeats(rng.uniform(0, 50, 10), bars)
        assert snap_to_downbeats(snapped, bars) == snapped


class TestRankSweep:
    def test_single_pair(self):
        x, bars, ref = make_tiny_song()
        result = rank_sweep(x, bars, ref, [(3, 2)], FAST_NTD, FAST_SEG)
        assert set(result.entries) == {(3, 2)}

    def test_true_pattern_count_achieves_perfect_f(self):
        x, bars, ref = make_tiny_song(seed=4)
        result = rank_sweep(x, bars, ref, [(2, 2), (3, 2), (4, 2)], FAST_NTD, FAST_SEG)
        best_f = max(e.scores[0.5].f_measure for e in result.entries.values())
        assert best_f == 1.0

    def test_default_grid_is_paper_grid(self):
        grid = default_rank_grid()
        assert len(grid) == 100
        assert (40, 28) in grid and (48, 24) in grid
        assert all(12 <= t <= 48 and t % 4 == 0 for t, _ in grid)

    def test_empty_grid_rejected(self):
        x, bars, ref = make_tiny_song()
        with pytest.raises(ValueError):
            rank_sweep(x, bars, ref, [])

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
        entry = result.entries[(int(first[0]), int(first[1]))]
        assert float(first[2]) == entry.objective


class TestOracleSelect:
    def test_single_entry(self):
        x, bars, ref = make_tiny_song()
        result = rank_sweep(x, bars, ref, [(3, 2)], FAST_NTD, FAST_SEG)
        t, b, score = oracle_select(result, 0.5)
        assert (t, b) == (3, 2)
        assert score == result.entries[(3, 2)].scores[0.5]

    def test_argmax_and_tie_break(self):
        x, bars, ref = make_tiny_song(seed=5)
        grid = [(2, 2), (3, 2), (4, 2)]
        result = rank_sweep(x, bars, ref, grid, FAST_NTD, FAST_SEG)
        t, b, score = oracle_select(result, 0.5)
        best_f = max(e.scores[0.5].f_measure for e in result.entries.values())
        assert score.f_measure == best_f
        ties = [k for k, e in result.entries.items() if e.scores[0.5].f_measure == best_f]
        assert (t, b) == min(ties)

    def test_oracle_dominates_every_fixed_rank(self):
        x, bars, ref = make_tiny_song(seed=6)
        result = rank_sweep(x, bars, ref, [(2, 2), (3, 2), (3, 3)], FAST_NTD, FAST_SEG)
        for tol in (0.5, 3.0):
            _, _, best = oracle_select(result, tol)
            for entry in result.entries.values():
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

    def test_small_corpus_rejected(self):
        with pytest.raises(ValueError):
            fit_lambda([make_tiny_song()], [1.0], NtdRanks(6, 3, 2))

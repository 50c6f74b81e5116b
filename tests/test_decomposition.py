import time

import numpy as np
import pytest

from ntdseg.decomposition import (
    NtdConfig,
    NtdModel,
    NtdRanks,
    decompose,
    initialize,
    normalize,
    parameter_count,
)
from ntdseg.tensor_ops import frobenius_norm, reconstruct


def random_model(rng, dims=(4, 5, 6), ranks=(2, 3, 2)):
    return NtdModel(
        w=rng.random((dims[0], ranks[0])),
        h=rng.random((dims[1], ranks[1])),
        q=rng.random((dims[2], ranks[2])),
        core=rng.random(ranks),
        ranks=NtdRanks(*ranks),
        objective_trace=[0.0],
    )


class TestParameterCount:
    def test_paper_scale_example(self):
        assert parameter_count((12, 96, 89), NtdRanks(12, 12, 10)) == (102528, 3626)

    def test_degenerate(self):
        assert parameter_count((1, 1, 1), NtdRanks(1, 1, 1)) == (1, 4)

    def test_full_ranks(self):
        expected = 12 * 12 + 96 * 96 + 89 * 89 + 12 * 96 * 89
        assert parameter_count((12, 96, 89), NtdRanks(12, 96, 89))[1] == expected


class TestInitialize:
    def test_rank_one_tensor(self):
        rng = np.random.default_rng(0)
        t = np.einsum("i,j,k->ijk", rng.random(4), rng.random(5), rng.random(6))
        model = initialize(t, NtdRanks(1, 1, 1))
        assert model.objective(t) <= (1e-10 * frobenius_norm(t)) ** 2

    def test_fixed_identity_w(self):
        rng = np.random.default_rng(1)
        t = rng.random((12, 8, 9))
        model = initialize(t, NtdRanks(12, 3, 4), NtdConfig(fix_w_to_identity=True))
        assert np.array_equal(model.w, np.eye(12))

    def test_single_trace_entry(self):
        rng = np.random.default_rng(2)
        t = rng.random((4, 5, 6))
        model = initialize(t, NtdRanks(2, 2, 2))
        assert len(model.objective_trace) == 1
        assert model.objective_trace[0] == pytest.approx(model.objective(t))

    def test_fixed_identity_requires_full_f_rank(self):
        with pytest.raises(ValueError):
            initialize(np.ones((4, 5, 6)), NtdRanks(3, 2, 2), NtdConfig(fix_w_to_identity=True))

    def test_rank_exceeds_dimension(self):
        with pytest.raises(ValueError):
            initialize(np.ones((4, 5, 6)), NtdRanks(5, 2, 2))


class TestNtdConfig:
    def test_negative_max_outer_iters_rejected(self):
        with pytest.raises(ValueError, match="max_outer_iters"):
            NtdConfig(max_outer_iters=-1)

    @pytest.mark.parametrize("tolerance", [-1e-3, 1.0, float("nan")])
    def test_outer_tolerance_outside_unit_interval_rejected(self, tolerance):
        with pytest.raises(ValueError, match="outer_tolerance"):
            NtdConfig(outer_tolerance=tolerance)

    def test_boundary_values_accepted(self):
        cfg = NtdConfig(max_outer_iters=0, outer_tolerance=0.0)
        assert (cfg.max_outer_iters, cfg.outer_tolerance) == (0, 0.0)


class TestDecompose:
    def test_monotone_trace(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.random((8, 10, 12))
            model = decompose(x, NtdRanks(4, 5, 6), NtdConfig(max_outer_iters=20))
            trace = np.array(model.objective_trace)
            slack = 1e-10 * np.maximum(trace[:-1], 1.0)
            assert np.all(np.diff(trace) <= slack)
            assert trace[-1] <= trace[0]

    def test_ground_truth_fixed_point(self):
        # starting from the true model the objective cannot move
        rng = np.random.default_rng(4)
        truth = random_model(rng, dims=(4, 5, 6), ranks=(2, 2, 2))
        x = truth.reconstruct()
        model = decompose(x, truth.ranks, NtdConfig(max_outer_iters=10), init=truth)
        trace = np.array(model.objective_trace)
        assert trace[0] <= 1e-10
        assert np.all(trace <= trace[0] + 1e-10)

    def test_outputs_nonnegative(self):
        rng = np.random.default_rng(5)
        x = rng.random((6, 7, 8))
        model = decompose(x, NtdRanks(3, 3, 3), NtdConfig(max_outer_iters=10))
        for arr in (model.w, model.h, model.q, model.core):
            assert np.all(arr >= 0)

    def test_fixed_identity_w_throughout(self):
        rng = np.random.default_rng(6)
        x = rng.random((5, 8, 9))
        model = decompose(
            x, NtdRanks(5, 3, 4), NtdConfig(fix_w_to_identity=True, max_outer_iters=15)
        )
        assert np.array_equal(model.w, np.eye(5))

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        x = rng.random((6, 7, 8))
        cfg = NtdConfig(max_outer_iters=10, seed=3, perturb_init=True)
        a = decompose(x, NtdRanks(3, 3, 3), cfg)
        b = decompose(x, NtdRanks(3, 3, 3), cfg)
        for lhs, rhs in zip(
            (a.w, a.h, a.q, a.core), (b.w, b.h, b.q, b.core)
        ):
            assert np.array_equal(lhs, rhs)
        assert a.objective_trace == b.objective_trace

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            decompose(-np.ones((2, 2, 2)), NtdRanks(1, 1, 1))

    def test_nan_input_rejected(self):
        x = np.random.default_rng(9).random((4, 5, 6))
        x[1, 2, 3] = np.nan
        with pytest.raises(ValueError, match="input tensor has 1 non-finite"):
            decompose(x, NtdRanks(2, 2, 2))

    def test_inf_input_rejected_quickly(self):
        x = np.random.default_rng(10).random((12, 96, 89))
        x[1, 1, 1] = np.inf
        start = time.perf_counter()
        with pytest.raises(ValueError, match="input tensor has 1 non-finite"):
            decompose(x, NtdRanks(12, 12, 10))
        assert time.perf_counter() - start < 0.5

    def test_init_rank_mismatch_rejected(self):
        # a rank-2 model cannot start a fit labelled with b_rank 3
        rng = np.random.default_rng(11)
        init = random_model(rng, dims=(4, 5, 6), ranks=(2, 2, 2))
        with pytest.raises(ValueError, match="init q has shape"):
            decompose(init.reconstruct(), NtdRanks(2, 2, 3), init=init)

    def test_init_tensor_mismatch_rejected(self):
        rng = np.random.default_rng(12)
        init = random_model(rng, dims=(4, 5, 6), ranks=(2, 2, 2))
        with pytest.raises(ValueError, match="init h has shape"):
            decompose(rng.random((4, 7, 6)), init.ranks, init=init)

    def test_negative_init_rejected(self):
        rng = np.random.default_rng(13)
        init = random_model(rng, dims=(4, 5, 6), ranks=(2, 2, 2))
        x = init.reconstruct()
        init.core[0, 1, 0] = -0.5
        with pytest.raises(ValueError, match="init core has negative"):
            decompose(x, init.ranks, init=init)

    def test_non_finite_init_rejected(self):
        rng = np.random.default_rng(14)
        init = random_model(rng, dims=(4, 5, 6), ranks=(2, 2, 2))
        x = init.reconstruct()
        init.w[0, 0] = np.nan
        with pytest.raises(ValueError, match="init w has non-finite"):
            decompose(x, init.ranks, init=init)

    def test_membership_recovery_on_separated_patterns(self):
        # well-separated bar patterns: argmax rows of q map onto the true
        # assignment under one permutation
        rng = np.random.default_rng(8)
        patterns = [np.zeros((4, 6)) for _ in range(3)]
        for i, p in enumerate(patterns):
            p[i, :] = 1.0
            p += 0.05 * rng.random(p.shape)
        assignment = [0, 0, 1, 1, 2, 2, 0, 0, 1, 1, 2, 2]
        x = np.stack([patterns[i] for i in assignment], axis=2)
        model = decompose(x, NtdRanks(4, 4, 3), NtdConfig(max_outer_iters=50))
        labels = np.argmax(model.q, axis=1)
        mapping = {}
        for true, got in zip(assignment, labels):
            mapping.setdefault(true, got)
            assert mapping[true] == got
        assert len(set(mapping.values())) == 3


class TestNormalize:
    def test_idempotent(self):
        rng = np.random.default_rng(9)
        model = normalize(random_model(rng))
        again = normalize(model)
        np.testing.assert_allclose(again.h, model.h, atol=1e-14)
        np.testing.assert_allclose(again.q, model.q, atol=1e-14)
        np.testing.assert_allclose(again.core, model.core, atol=1e-14)

    def test_unit_norms(self):
        rng = np.random.default_rng(10)
        model = normalize(random_model(rng))
        np.testing.assert_allclose(np.linalg.norm(model.h, axis=0), 1.0, rtol=1e-12)
        for b in range(model.core.shape[2]):
            assert np.linalg.norm(model.core[:, :, b]) == pytest.approx(1.0)

    def test_reconstruction_invariant(self):
        rng = np.random.default_rng(11)
        model = random_model(rng)
        scaled = NtdModel(
            w=model.w,
            h=model.h * 7.0,
            q=model.q,
            core=model.core / 7.0,
            ranks=model.ranks,
            objective_trace=model.objective_trace,
        )
        before = scaled.reconstruct()
        after = normalize(scaled).reconstruct()
        np.testing.assert_allclose(after, before, rtol=1e-12)

    def test_zero_core_slice_untouched(self):
        rng = np.random.default_rng(12)
        model = random_model(rng)
        model.core[:, :, 1] = 0.0
        result = normalize(model)
        assert np.array_equal(result.core[:, :, 1], np.zeros_like(model.core[:, :, 1]))
        np.testing.assert_allclose(result.q[:, 1], model.q[:, 1])


class TestSerialization:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(13)
        x = rng.random((5, 6, 7))
        model = decompose(x, NtdRanks(2, 3, 2), NtdConfig(max_outer_iters=5))
        clone = NtdModel.from_json(model.to_json(NtdConfig()))
        for lhs, rhs in zip(
            (model.w, model.h, model.q, model.core), (clone.w, clone.h, clone.q, clone.core)
        ):
            assert np.array_equal(lhs, rhs)
        assert clone.objective_trace == model.objective_trace
        assert clone.ranks == model.ranks

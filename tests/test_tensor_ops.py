import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ntdseg import tensor_ops as ops
from ntdseg.decomposition import NtdModel, NtdRanks
from ntdseg.ingest import synth_song


def unfold(tensor, mode):
    """Mode-n unfolding with Kolda-Bader column ordering.

    Fibers along `mode` become columns; the remaining indices vary
    fastest-first (Fortran order), so ``fold(unfold(t, n), n, t.shape)``
    is an exact inverse.
    """
    if mode not in (0, 1, 2):
        raise ValueError(f"mode must be 0, 1 or 2, got {mode}")
    return np.reshape(
        np.moveaxis(tensor, mode, 0), (tensor.shape[mode], -1), order="F"
    )


def fold(matrix, mode, shape):
    """Inverse of :func:`unfold` for a tensor of the given shape."""
    moved = (shape[mode],) + tuple(s for i, s in enumerate(shape) if i != mode)
    return np.moveaxis(np.reshape(matrix, moved, order="F"), 0, mode)


def brute_force_reconstruct(core, w, h, q):
    """Direct six-nested-loop expansion of the Tucker model."""
    out = np.zeros((w.shape[0], h.shape[0], q.shape[0]))
    for f in range(w.shape[0]):
        for t in range(h.shape[0]):
            for b in range(q.shape[0]):
                acc = 0.0
                for fp in range(core.shape[0]):
                    for tp in range(core.shape[1]):
                        for bp in range(core.shape[2]):
                            acc += core[fp, tp, bp] * w[f, fp] * h[t, tp] * q[b, bp]
                out[f, t, b] = acc
    return out


def hosvd_svd_oracle(tensor, ranks, skip_modes=()):
    """Truncated HOSVD by definition: each factor holds the leading left
    singular vectors of the mode-n unfolding from a full SVD, and the core
    is the tensor contracted with every factor."""
    factors = []
    for mode in range(3):
        if mode in skip_modes:
            factors.append(np.eye(tensor.shape[mode]))
            continue
        u, _, _ = np.linalg.svd(unfold(tensor, mode), full_matrices=False)
        factors.append(u[:, : ranks[mode]])
    core = np.einsum("ijk,ia,jb,kc->abc", tensor, *factors, optimize=True)
    return (*factors, core)


class TestUnfold:
    def test_degenerate_dims(self):
        t = np.full((1, 1, 1), 5.0)
        for mode in range(3):
            assert unfold(t, mode).tolist() == [[5.0]]

    def test_mode0_fibers_by_triple_loop(self):
        t = np.empty((2, 2, 2))
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    t[i, j, k] = i + 2 * j + 4 * k
        m = unfold(t, 0)
        assert m.shape == (2, 4)
        # Fortran column order over (j, k): columns (0,0), (1,0), (0,1), (1,1)
        expected = [[t[i, j, k] for k in range(2) for j in range(2)] for i in range(2)]
        assert m.tolist() == expected

    def test_round_trip_bitwise(self):
        rng = np.random.default_rng(0)
        t = rng.random((3, 4, 5))
        for mode in range(3):
            assert np.array_equal(fold(unfold(t, mode), mode, t.shape), t)

    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.tuples(*[st.integers(1, 8)] * 3),
        mode=st.integers(0, 2),
        seed=st.integers(0, 10_000),
    )
    def test_round_trip_random_dims(self, dims, mode, seed):
        t = np.random.default_rng(seed).random(dims)
        assert np.array_equal(fold(unfold(t, mode), mode, dims), t)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            unfold(np.zeros((2, 2, 2)), 3)


class TestModeProduct:
    def test_identity(self):
        rng = np.random.default_rng(1)
        t = rng.random((3, 4, 5))
        for mode in range(3):
            result = ops.mode_product(t, np.eye(t.shape[mode]), mode)
            assert np.array_equal(result, t)

    def test_diagonal_scaling_against_loop_oracle(self):
        t = np.empty((2, 2, 2))
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    t[i, j, k] = i + 2 * j + 4 * k
        result = ops.mode_product(t, np.diag([1.0, 2.0]), 0)
        expected = t.copy()
        expected[1] *= 2.0
        assert np.array_equal(result, expected)

    def test_distinct_modes_commute(self):
        rng = np.random.default_rng(2)
        t = rng.random((3, 4, 5))
        a = rng.random((2, 3))
        b = rng.random((6, 4))
        left = ops.mode_product(ops.mode_product(t, a, 0), b, 1)
        right = ops.mode_product(ops.mode_product(t, b, 1), a, 0)
        np.testing.assert_allclose(left, right, rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ops.mode_product(np.zeros((2, 3, 4)), np.zeros((5, 7)), 1)

    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4, 5)])
    def test_rejects_tensor_not_order_three(self, shape):
        with pytest.raises(ValueError, match="order 3"):
            ops.mode_product(np.zeros(shape), np.zeros((2, 3)), 0)

    @settings(max_examples=200, deadline=None)
    @given(
        dims=st.tuples(*[st.integers(1, 8)] * 3),
        rows=st.integers(1, 8),
        mode=st.integers(0, 2),
        layout=st.sampled_from(["contiguous", "transposed", "strided"]),
        seed=st.integers(0, 10_000),
    )
    def test_matches_unfolding_oracle(self, dims, rows, mode, layout, seed):
        rng = np.random.default_rng(seed)
        if layout == "transposed":
            t = rng.random(dims[::-1]).transpose(2, 1, 0)
        elif layout == "strided":
            t = rng.random((2 * dims[0], dims[1], 3 * dims[2]))[::2, :, ::3]
        else:
            t = rng.random(dims)
        assert t.shape == dims
        matrix = rng.random((rows, dims[mode]))
        if layout == "transposed":
            matrix = np.asfortranarray(matrix)
        new_shape = list(dims)
        new_shape[mode] = rows
        expected = fold(matrix @ unfold(t, mode), mode, tuple(new_shape))
        np.testing.assert_allclose(ops.mode_product(t, matrix, mode), expected, rtol=1e-12)


class TestReconstruct:
    def test_identity_factors(self):
        rng = np.random.default_rng(3)
        x = rng.random((3, 4, 5))
        result = ops.reconstruct(x, np.eye(3), np.eye(4), np.eye(5))
        assert np.array_equal(result, x)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        core = rng.random((2, 2, 2))
        w, h, q = rng.random((3, 2)), rng.random((3, 2)), rng.random((3, 2))
        np.testing.assert_allclose(
            ops.reconstruct(core, w, h, q), brute_force_reconstruct(core, w, h, q),
            rtol=1e-12,
        )

    def test_bar_slice_formula(self):
        # one bar equals W (sum_b' Q(b,b') core slice) H^T
        rng = np.random.default_rng(5)
        core = rng.random((2, 3, 4))
        w, h, q = rng.random((5, 2)), rng.random((6, 3)), rng.random((7, 4))
        full = ops.reconstruct(core, w, h, q)
        for b in range(7):
            mixed = sum(q[b, bp] * core[:, :, bp] for bp in range(4))
            np.testing.assert_allclose(full[:, :, b], w @ mixed @ h.T, rtol=1e-12)


class TestFrobeniusNorm:
    """The squared Frobenius norm of the residual, as `NtdModel.objective`
    takes it."""

    @staticmethod
    def objective(x, core, w, h, q):
        model = NtdModel(w=w, h=h, q=q, core=core, ranks=NtdRanks(*core.shape),
                         objective_trace=[])
        return model.objective(x)

    def test_zero(self):
        rng = np.random.default_rng(5)
        core = rng.random((1, 2, 3))
        w, h, q = rng.random((2, 1)), rng.random((3, 2)), rng.random((4, 3))
        x = ops.reconstruct(core, w, h, q)
        assert self.objective(x, core, w, h, q) == 0.0

    def test_three_four_five(self):
        x = np.array([[[3.0, 4.0]]])
        zero = (np.zeros((1, 1, 1)), np.ones((1, 1)), np.ones((1, 1)), np.ones((2, 1)))
        assert self.objective(x, *zero) == pytest.approx(25.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        t = rng.random((3, 4, 5))
        core = rng.random((2, 2, 2))
        w, h, q = rng.random((3, 2)), rng.random((4, 2)), rng.random((5, 2))
        fit = brute_force_reconstruct(core, w, h, q)
        total = 0.0
        for i in range(3):
            for j in range(4):
                for k in range(5):
                    total += (t[i, j, k] - fit[i, j, k]) ** 2
        np.testing.assert_allclose(self.objective(t, core, w, h, q), total, rtol=1e-12)


class TestTruncatedHosvd:
    def test_diagonal_tensor_exact(self):
        t = np.zeros((2, 2, 2))
        t[0, 0, 0] = 1.0
        t[1, 1, 1] = 2.0
        w, h, q, core = ops.truncated_hosvd(t, (2, 2, 2))
        np.testing.assert_allclose(ops.reconstruct(core, w, h, q), t, atol=1e-12)

    def test_rank_one_nonnegative(self):
        rng = np.random.default_rng(7)
        a, b, c = rng.random(4), rng.random(5), rng.random(6)
        t = np.einsum("i,j,k->ijk", a, b, c)
        # the leading singular vectors share one sign, so the absolute
        # values that `initialize` takes reconstruct exactly too
        w, h, q, core = (np.abs(a) for a in ops.truncated_hosvd(t, (1, 1, 1)))
        err = np.linalg.norm(t - ops.reconstruct(core, w, h, q))
        assert err <= 1e-10 * np.linalg.norm(t)

    def test_truncation_error_non_increasing_in_rank(self):
        rng = np.random.default_rng(8)
        t = rng.random((5, 6, 7))
        for mode, max_rank in enumerate(t.shape):
            previous = np.inf
            for rank in range(1, max_rank + 1):
                ranks = [d for d in t.shape]
                ranks[mode] = rank
                w, h, q, core = ops.truncated_hosvd(t, tuple(ranks))
                err = np.linalg.norm(t - ops.reconstruct(core, w, h, q))
                assert err <= previous + 1e-12
                previous = err

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(9)
        t = rng.random((4, 5, 6))
        w, h, q, core = ops.truncated_hosvd(t, t.shape)
        err = np.linalg.norm(t - ops.reconstruct(core, w, h, q))
        assert err <= 1e-10 * np.linalg.norm(t)

    def test_rank_exceeds_dimension(self):
        with pytest.raises(ValueError):
            ops.truncated_hosvd(np.zeros((2, 3, 4)), (3, 3, 4))

    @pytest.mark.parametrize(
        "ranks, message",
        [
            ((-1, 2, 2), "rank of mode 0 must be an integer of at least 1, got -1"),
            ((2, 0, 2), "rank of mode 1 must be an integer of at least 1, got 0"),
            ((2, 2, 1.0), "rank of mode 2 must be an integer of at least 1, got 1.0"),
        ],
        ids=["negative", "zero", "float"],
    )
    def test_bad_rank_rejected(self, ranks, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ops.truncated_hosvd(np.ones((2, 3, 4)), ranks)

    @pytest.mark.parametrize("skip", [(5,), (0, -1)])
    def test_bad_skipped_mode_rejected(self, skip):
        with pytest.raises(ValueError, match=f"^skipped mode must be 0, 1 or 2, got {skip[-1]}$"):
            ops.truncated_hosvd(np.ones((2, 3, 4)), (2, 3, 4), skip_modes=skip)

    def test_order_two_tensor_rejected(self):
        with pytest.raises(ValueError, match=r"^tensor must be order 3, got shape \(4, 5\)$"):
            ops.truncated_hosvd(np.ones((4, 5)), (2, 2, 2))

    @pytest.mark.parametrize("skip", [(0,), (1,), (2,), (0, 2)])
    def test_skipped_mode_gets_identity(self, skip):
        t = np.random.default_rng(10).random((12, 8, 9))
        ranks = tuple(t.shape[m] if m in skip else 3 for m in range(3))
        factors = ops.truncated_hosvd(t, ranks, skip_modes=skip)[:3]
        for mode, factor in enumerate(factors):
            assert factor.shape == (t.shape[mode], ranks[mode])
            if mode in skip:
                assert np.array_equal(factor, np.eye(t.shape[mode]))

    def test_skipped_mode_requires_full_rank(self):
        with pytest.raises(ValueError, match=r"^skipped mode 0 requires full rank 12$"):
            ops.truncated_hosvd(np.ones((12, 8, 9)), (6, 3, 3), skip_modes=(0,))

    @pytest.mark.parametrize("skip", [(), (0,)])
    @pytest.mark.parametrize("layout", ["contiguous", "fortran"])
    def test_core_is_the_three_products(self, skip, layout):
        t = np.random.default_rng(11).random((12, 8, 9))
        if layout == "fortran":
            t = np.asfortranarray(t)
        w, h, q, core = ops.truncated_hosvd(t, (12 if skip else 4, 3, 5), skip_modes=skip)
        # core[a, b, c] = sum over i, j, k of t[i, j, k] w[i, a] h[j, b] q[k, c]
        expected = np.einsum("ijk,ia,jb,kc->abc", t, w, h, q)
        np.testing.assert_allclose(core, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("ranks", [(1, 1), (1, 1, 1, 1)])
    def test_ranks_of_wrong_length_rejected(self, ranks):
        message = f"ranks must hold 3 entries, got {len(ranks)}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            ops.truncated_hosvd(np.ones((2, 3, 4)), ranks)

    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.tuples(*[st.integers(2, 9)] * 3),
        rank=st.integers(1, 9),
        seed=st.integers(0, 10_000),
    )
    def test_projectors_match_svd_oracle(self, dims, rank, seed):
        # A rank-(r, r, r) tensor with every singular value of every
        # unfolding in [1, 2], plus noise of 1e-3: a clear gap at rank r.
        # Signs are arbitrary, so compare the projectors U U.T.
        rank = min(rank, *dims)
        rng = np.random.default_rng(seed)
        core = np.zeros((rank,) * 3)
        core[np.diag_indices(rank, 3)] = rng.uniform(1.0, 2.0, rank)
        bases = [np.linalg.qr(rng.standard_normal((d, rank)))[0] for d in dims]
        t = np.einsum("abc,ia,jb,kc->ijk", core, *bases)
        t += 1e-3 * rng.standard_normal(dims)
        fast = ops.truncated_hosvd(t, (rank,) * 3)[:3]
        slow = hosvd_svd_oracle(t, (rank,) * 3)[:3]
        for u, v in zip(fast, slow):
            np.testing.assert_allclose(u @ u.T, v @ v.T, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("ranks", [(12, 12, 10), (12, 48, 48)])
    def test_factors_match_svd_oracle_on_a_song(self, ranks):
        # An 89-bar song of 4 repeated 12x96 patterns plus noise, as the
        # benchmark builds them; np.abs, as `initialize` takes it.
        rng = np.random.default_rng(2024)
        patterns = [rng.uniform(0.0, 1.0, (12, 96)) for _ in range(4)]
        assignment = [int(p) for p in rng.integers(0, 4, 23) for _ in range(4)][:89]
        t = synth_song(patterns, assignment, noise_level=0.1, seed=5)[0]
        fast = ops.truncated_hosvd(t, ranks)
        slow = hosvd_svd_oracle(t, ranks)
        for u, v in zip(fast[:3], slow[:3]):
            np.testing.assert_allclose(np.abs(u), np.abs(v), rtol=0, atol=1e-9)
        np.testing.assert_allclose(
            np.abs(fast[3]), np.abs(slow[3]), rtol=0, atol=1e-9 * np.abs(slow[3]).max()
        )

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(-1000, 1000))
    @example(k=300)
    @example(k=-300)
    @example(k=600)
    @example(k=-600)
    @example(k=1000)
    @example(k=-1000)
    def test_power_of_two_scale(self, k):
        # Gram entries of 2**600 * t overflow and those of 2**-600 * t
        # underflow unless the Grams are formed from a scaled tensor.
        t = np.random.default_rng(12).random((6, 7, 8)) - 0.25
        *factors, core = ops.truncated_hosvd(t, (3, 4, 5))
        *scaled_factors, scaled_core = ops.truncated_hosvd(np.ldexp(t, k), (3, 4, 5))
        tiny = np.finfo(np.float64).tiny
        for array in (np.ldexp(t, k), np.ldexp(core, k)):
            assert np.all(np.abs(array) >= tiny)  # no subnormal entry
        for u, v in zip(scaled_factors, factors):
            assert np.array_equal(u, v)
        assert np.array_equal(scaled_core, np.ldexp(core, k))

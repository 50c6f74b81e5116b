import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntdseg import tensor_ops as ops


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
    def test_zero(self):
        assert ops.frobenius_norm(np.zeros((2, 3, 4))) == 0.0

    def test_three_four_five(self):
        assert ops.frobenius_norm(np.array([[[3.0, 4.0]]])) == pytest.approx(5.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        t = rng.random((3, 4, 5))
        total = 0.0
        for i in range(3):
            for j in range(4):
                for k in range(5):
                    total += t[i, j, k] ** 2
        np.testing.assert_allclose(ops.frobenius_norm(t), np.sqrt(total), rtol=1e-12)


class TestTruncatedHosvd:
    def test_diagonal_tensor_exact(self):
        t = np.zeros((2, 2, 2))
        t[0, 0, 0] = 1.0
        t[1, 1, 1] = 2.0
        w, h, q, core = ops.truncated_hosvd(t, (2, 2, 2), nonnegative=False)
        np.testing.assert_allclose(ops.reconstruct(core, w, h, q), t, atol=1e-12)

    def test_rank_one_nonnegative(self):
        rng = np.random.default_rng(7)
        a, b, c = rng.random(4), rng.random(5), rng.random(6)
        t = np.einsum("i,j,k->ijk", a, b, c)
        w, h, q, core = ops.truncated_hosvd(t, (1, 1, 1))
        err = ops.frobenius_norm(t - ops.reconstruct(core, w, h, q))
        assert err <= 1e-10 * ops.frobenius_norm(t)

    def test_truncation_error_non_increasing_in_rank(self):
        rng = np.random.default_rng(8)
        t = rng.random((5, 6, 7))
        for mode, max_rank in enumerate(t.shape):
            previous = np.inf
            for rank in range(1, max_rank + 1):
                ranks = [d for d in t.shape]
                ranks[mode] = rank
                w, h, q, core = ops.truncated_hosvd(t, tuple(ranks), nonnegative=False)
                err = ops.frobenius_norm(t - ops.reconstruct(core, w, h, q))
                assert err <= previous + 1e-12
                previous = err

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(9)
        t = rng.random((4, 5, 6))
        w, h, q, core = ops.truncated_hosvd(t, t.shape, nonnegative=False)
        err = ops.frobenius_norm(t - ops.reconstruct(core, w, h, q))
        assert err <= 1e-10 * ops.frobenius_norm(t)

    def test_rank_exceeds_dimension(self):
        with pytest.raises(ValueError):
            ops.truncated_hosvd(np.zeros((2, 3, 4)), (3, 3, 4))

import itertools

import numpy as np
import pytest

from ntdseg.nnls import NnlsProblem, SolverConfig, core_prox_gradient, hals_nnls
from ntdseg.tensor_ops import mode_product, reconstruct

TIGHT = SolverConfig(max_inner_iters=1000, inner_tolerance=1e-15, acceleration_budget=1e6)


def active_set_oracle(problem: NnlsProblem) -> np.ndarray:
    """Exact NNLS by enumerating every support set, column by column."""
    r, k = problem.cross.shape
    z = np.zeros((r, k))
    for col in range(k):
        best_obj, best_col = 0.0, np.zeros(r)  # empty support
        for size in range(1, r + 1):
            for support in itertools.combinations(range(r), size):
                s = list(support)
                try:
                    sol = np.linalg.solve(
                        problem.gram[np.ix_(s, s)], problem.cross[s, col]
                    )
                except np.linalg.LinAlgError:
                    continue
                if np.any(sol < 0):
                    continue
                obj = -2.0 * problem.cross[s, col] @ sol + sol @ problem.gram[np.ix_(s, s)] @ sol
                if obj < best_obj:
                    best_obj = obj
                    best_col = np.zeros(r)
                    best_col[s] = sol
        z[:, col] = best_col
    return z


def random_problem(rng, r=None, rows=6, cols=3):
    r = r if r is not None else rng.integers(1, 5)
    a = rng.standard_normal((rows, r))
    y = rng.standard_normal((rows, cols))
    return NnlsProblem.from_data(a, y)


class TestHalsNnls:
    def test_identity_clamps_negative_component(self):
        problem = NnlsProblem.from_data(np.eye(2), np.array([[2.0], [-3.0]]))
        z = hals_nnls(problem, np.zeros((2, 1)), TIGHT)
        np.testing.assert_allclose(z, [[2.0], [0.0]], atol=1e-12)

    def test_interior_solution(self):
        problem = NnlsProblem.from_data(np.array([[1.0], [1.0]]), np.array([[1.0], [3.0]]))
        z = hals_nnls(problem, np.zeros((1, 1)), TIGHT)
        np.testing.assert_allclose(z, [[2.0]], atol=1e-12)

    def test_fixed_point(self):
        problem = NnlsProblem.from_data(np.eye(2), np.array([[2.0], [-3.0]]))
        z_star = np.array([[2.0], [0.0]])
        z = hals_nnls(problem, z_star, TIGHT)
        np.testing.assert_allclose(z, z_star, atol=1e-12)

    def test_never_negative(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            problem = random_problem(rng)
            z0 = np.abs(rng.standard_normal(problem.cross.shape))
            z = hals_nnls(problem, z0, SolverConfig())
            assert np.all(z >= 0)

    def test_monotone(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            problem = random_problem(rng)
            z0 = np.abs(rng.standard_normal(problem.cross.shape))
            z = hals_nnls(problem, z0, SolverConfig())
            assert problem.objective(z) <= problem.objective(z0) + 1e-12

    def test_kkt_and_oracle_objective(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            problem = random_problem(rng, r=int(rng.integers(1, 5)))
            z0 = np.abs(rng.standard_normal(problem.cross.shape))
            z = hals_nnls(problem, z0, TIGHT)
            grad = problem.gradient(z)
            tol = 1e-6 * (1.0 + np.abs(problem.cross).max())
            # entries at the safeguard scale count as zero
            zero = z <= 1e-10 * max(z.max(), 1.0)
            assert np.all(grad[zero] >= -1e-6)
            assert np.all(np.abs(grad[~zero]) <= tol)
            oracle = active_set_oracle(problem)
            assert problem.objective(z) <= problem.objective(oracle) + 1e-8

    def test_dimension_mismatch(self):
        problem = NnlsProblem.from_data(np.eye(2), np.ones((2, 3)))
        with pytest.raises(ValueError):
            hals_nnls(problem, np.zeros((3, 3)), TIGHT)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            NnlsProblem(np.array([[np.nan]]), np.array([[1.0]]), 1.0)

    @pytest.mark.parametrize("budget", [float("nan"), float("inf")])
    def test_non_finite_acceleration_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="acceleration_budget must be a positive finite"):
            SolverConfig(acceleration_budget=budget)

    def test_non_integer_max_inner_iters_rejected(self):
        with pytest.raises(ValueError, match="max_inner_iters must be a positive integer"):
            SolverConfig(max_inner_iters=2.5)


class TestCoreProxGradient:
    def test_identity_fixed_point(self):
        rng = np.random.default_rng(3)
        x = rng.random((3, 4, 5))
        eye = [np.eye(d) for d in x.shape]
        g = core_prox_gradient(x, *eye, x.copy(), TIGHT)
        np.testing.assert_allclose(g, x, atol=1e-12)

    def test_identity_projection_at_convergence(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 4, 5))
        eye = [np.eye(d) for d in x.shape]
        g = core_prox_gradient(x, *eye, np.zeros(x.shape), TIGHT)
        np.testing.assert_allclose(g, np.maximum(x, 0.0), atol=1e-10)

    def test_recovers_known_optimum(self):
        rng = np.random.default_rng(5)

        def disjoint_support(rows, cols):
            # orthogonal columns keep the quadratic well-conditioned
            out = np.zeros((rows, cols))
            for c in range(cols):
                out[c::cols, c] = 0.5 + rng.random(len(out[c::cols, c]))
            return out

        w = disjoint_support(6, 2)
        h = disjoint_support(7, 3)
        q = disjoint_support(8, 2)
        g_star = rng.random((2, 3, 2))
        x = reconstruct(g_star, w, h, q)
        g0 = rng.random(g_star.shape)
        cfg = SolverConfig(max_inner_iters=500, inner_tolerance=0.0, acceleration_budget=1e6)
        g = core_prox_gradient(x, w, h, q, g0, cfg)
        obj = np.sum((x - reconstruct(g, w, h, q)) ** 2)
        assert obj <= 1e-6 * np.sum(x * x)

    def test_single_step_from_zero_matches_oracle(self):
        rng = np.random.default_rng(6)
        w, h, q = rng.random((5, 2)), rng.random((6, 3)), rng.random((7, 2))
        x = rng.random((5, 6, 7))
        cfg = SolverConfig(max_inner_iters=1, inner_tolerance=0.0, acceleration_budget=1.0)
        g = core_prox_gradient(x, w, h, q, np.zeros((2, 3, 2)), cfg)
        lipschitz = 1.0
        for f in (w, h, q):
            lipschitz *= np.linalg.eigvalsh(f.T @ f)[-1]
        cross = mode_product(mode_product(mode_product(x, w.T, 0), h.T, 1), q.T, 2)
        expected = np.maximum(0.0, cross / lipschitz)
        np.testing.assert_allclose(g, expected, rtol=1e-12)

    def test_monotone(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            w, h, q = rng.random((5, 2)), rng.random((6, 3)), rng.random((7, 2))
            x = rng.random((5, 6, 7))
            g0 = rng.random((2, 3, 2))
            g = core_prox_gradient(x, w, h, q, g0, SolverConfig(max_inner_iters=5))
            before = np.sum((x - reconstruct(g0, w, h, q)) ** 2)
            after = np.sum((x - reconstruct(g, w, h, q)) ** 2)
            assert after <= before + 1e-12
            assert np.all(g >= 0)

    def test_zero_factors_rejected(self):
        x = np.ones((2, 2, 2))
        with pytest.raises(ValueError):
            core_prox_gradient(
                x, np.zeros((2, 1)), np.zeros((2, 1)), np.zeros((2, 1)),
                np.zeros((1, 1, 1)), TIGHT,
            )

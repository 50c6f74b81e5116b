import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntdseg import decomposition
from ntdseg.decomposition import NtdConfig, NtdRanks, decompose
from ntdseg.nnls import NnlsProblem, SolverConfig, core_prox_gradient, hals_nnls
from ntdseg.tensor_ops import mode_product, reconstruct

TIGHT = SolverConfig(max_inner_iters=1000, inner_tolerance=1e-15, acceleration_budget=1e6)


def problem_from_data(a: np.ndarray, y: np.ndarray) -> NnlsProblem:
    """The Gram form of ``min_{Z>=0} ||Y - A Z||_F^2``."""
    return NnlsProblem(a.T @ a, a.T @ y)


def objective(problem: NnlsProblem, z: np.ndarray) -> float:
    """``||Y - A Z||_F^2 - ||Y||_F^2``, from the Gram form."""
    return float(np.sum(z * (problem.gram @ z)) - 2.0 * np.sum(problem.cross * z))


def gradient(problem: NnlsProblem, z: np.ndarray) -> np.ndarray:
    """Gradient of ``1/2 ||Y - A Z||_F^2`` with respect to Z."""
    return problem.gram @ z - problem.cross


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


def hals_nnls_loop(
    problem: NnlsProblem, z0: np.ndarray, cfg: SolverConfig = SolverConfig()
) -> np.ndarray:
    """Oracle: the HALS row loop written with one fresh array per step."""
    z = np.array(z0, dtype=float)
    if z.shape != problem.cross.shape:
        raise ValueError(f"z0 shape {z.shape} does not match cross shape {problem.cross.shape}")
    if not np.isfinite(z).all():
        raise ValueError("non-finite entries in z0")

    r = problem.gram.shape[0]
    max_sweeps = min(
        cfg.max_inner_iters, max(1, math.ceil(cfg.acceleration_budget * (1 + r)))
    )
    first_delta = None
    for _ in range(max_sweeps):
        delta = 0.0
        for j in range(r):
            denom = problem.gram[j, j]
            if denom <= 0.0:
                continue
            row = np.maximum(
                0.0, z[j] + (problem.cross[j] - problem.gram[j] @ z) / denom
            )
            delta += float(np.sum((row - z[j]) ** 2))
            z[j] = row
        delta = math.sqrt(delta)
        if first_delta is None:
            first_delta = delta
        if delta <= cfg.inner_tolerance * first_delta:
            break
    return z


def core_problem_from_data(x, w, h, q):
    """``(grams, cross)`` of the core step for data `x` and factors."""
    grams = (w.T @ w, h.T @ h, q.T @ q)
    cross = mode_product(mode_product(mode_product(x, w.T, 0), h.T, 1), q.T, 2)
    return grams, cross


def core_prox_gradient_loop(
    grams, cross: np.ndarray, g0: np.ndarray, cfg: SolverConfig = SolverConfig()
) -> np.ndarray:
    """Oracle: the projected gradient core loop with three checked mode
    products per Gram image and one fresh array per step. It stops once a
    step moves G by at most `inner_tolerance` times the first step's move."""
    if g0.shape != cross.shape:
        raise ValueError(f"core shape {g0.shape} does not match cross shape {cross.shape}")

    lipschitz = 1.0
    for gram in grams:
        lipschitz *= float(np.linalg.eigvalsh(gram)[-1])
    if lipschitz <= 0.0:
        raise ValueError("degenerate factors: zero Lipschitz bound for the core step")
    step = 1.0 / lipschitz

    def gram_image(g):
        out = mode_product(g, grams[0], 0)
        out = mode_product(out, grams[1], 1)
        return mode_product(out, grams[2], 2)

    g = np.maximum(np.asarray(g0, dtype=float), 0.0)
    first_delta = None
    for _ in range(cfg.max_inner_iters):
        g_next = np.maximum(0.0, g - step * (gram_image(g) - cross))
        delta = math.sqrt(float(np.sum((g_next - g) ** 2)))
        g = g_next
        if first_delta is None:
            first_delta = delta
        if delta <= cfg.inner_tolerance * first_delta:
            break
    return g


def assert_same_bits(fast, slow):
    assert fast.shape == slow.shape and fast.dtype == slow.dtype
    assert np.array_equal(fast, slow)
    assert fast.tobytes() == slow.tobytes()  # also the sign of every zero


def random_problem(rng, r=None, rows=6, cols=3):
    r = r if r is not None else rng.integers(1, 5)
    a = rng.standard_normal((rows, r))
    y = rng.standard_normal((rows, cols))
    return problem_from_data(a, y)


class TestHalsNnls:
    def test_identity_clamps_negative_component(self):
        problem = problem_from_data(np.eye(2), np.array([[2.0], [-3.0]]))
        z = hals_nnls(problem, np.zeros((2, 1)), TIGHT)
        np.testing.assert_allclose(z, [[2.0], [0.0]], atol=1e-12)

    def test_interior_solution(self):
        problem = problem_from_data(np.array([[1.0], [1.0]]), np.array([[1.0], [3.0]]))
        z = hals_nnls(problem, np.zeros((1, 1)), TIGHT)
        np.testing.assert_allclose(z, [[2.0]], atol=1e-12)

    def test_fixed_point(self):
        problem = problem_from_data(np.eye(2), np.array([[2.0], [-3.0]]))
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
            assert objective(problem, z) <= objective(problem, z0) + 1e-12

    def test_kkt_and_oracle_objective(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            problem = random_problem(rng, r=int(rng.integers(1, 5)))
            z0 = np.abs(rng.standard_normal(problem.cross.shape))
            z = hals_nnls(problem, z0, TIGHT)
            grad = gradient(problem, z)
            tol = 1e-6 * (1.0 + np.abs(problem.cross).max())
            # entries below 1e-10 of max(z.max(), 1) count as zero
            zero = z <= 1e-10 * max(z.max(), 1.0)
            assert np.all(grad[zero] >= -1e-6)
            assert np.all(np.abs(grad[~zero]) <= tol)
            oracle = active_set_oracle(problem)
            assert objective(problem, z) <= objective(problem, oracle) + 1e-8

    def test_row_updating_to_zero_stays_exactly_zero(self):
        problem = problem_from_data(np.eye(2), np.array([[2.0], [-3.0]]))
        z = hals_nnls(problem, np.ones((2, 1)), SolverConfig())
        assert z[1, 0] == 0.0
        assert_same_bits(z, np.array([[2.0], [0.0]]))

    def test_dimension_mismatch(self):
        problem = problem_from_data(np.eye(2), np.ones((2, 3)))
        with pytest.raises(ValueError):
            hals_nnls(problem, np.zeros((3, 3)), TIGHT)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            NnlsProblem(np.array([[np.nan]]), np.array([[1.0]]))

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
        g = core_prox_gradient(*core_problem_from_data(x, *eye), x.copy(), TIGHT)
        np.testing.assert_allclose(g, x, atol=1e-12)

    def test_identity_projection_at_convergence(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 4, 5))
        eye = [np.eye(d) for d in x.shape]
        g = core_prox_gradient(*core_problem_from_data(x, *eye), np.zeros(x.shape), TIGHT)
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
        g = core_prox_gradient(*core_problem_from_data(x, w, h, q), g0, cfg)
        obj = np.sum((x - reconstruct(g, w, h, q)) ** 2)
        assert obj <= 1e-6 * np.sum(x * x)

    def test_single_step_from_zero_matches_oracle(self):
        rng = np.random.default_rng(6)
        w, h, q = rng.random((5, 2)), rng.random((6, 3)), rng.random((7, 2))
        x = rng.random((5, 6, 7))
        cfg = SolverConfig(max_inner_iters=1, inner_tolerance=0.0, acceleration_budget=1.0)
        g = core_prox_gradient(*core_problem_from_data(x, w, h, q), np.zeros((2, 3, 2)), cfg)
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
            problem = core_problem_from_data(x, w, h, q)
            g = core_prox_gradient(*problem, g0, SolverConfig(max_inner_iters=5))
            before = np.sum((x - reconstruct(g0, w, h, q)) ** 2)
            after = np.sum((x - reconstruct(g, w, h, q)) ** 2)
            assert after <= before + 1e-12
            assert np.all(g >= 0)

    def test_stops_at_first_small_move(self):
        rng = np.random.default_rng(10)
        w, h, q = rng.random((5, 2)), rng.random((6, 3)), rng.random((7, 2))
        grams, cross = core_problem_from_data(rng.random((5, 6, 7)), w, h, q)
        g0 = rng.random((2, 3, 2))
        # path[k] is the iterate after k steps of a run that never stops early
        path = [g0]
        for k in range(1, 31):
            cfg = SolverConfig(max_inner_iters=k, inner_tolerance=0.0)
            path.append(core_prox_gradient(grams, cross, g0, cfg))
        # ratios[k - 1] is step k's move over the first step's move
        moves = [np.linalg.norm(b - a) for a, b in zip(path, path[1:])]
        ratios = [m / moves[0] for m in moves]
        stop = 6
        assert min(ratios[: stop - 1]) > ratios[stop - 1]
        # a tolerance that step `stop` meets first, clear of rounding
        tolerance = 0.5 * (ratios[stop - 1] + min(ratios[: stop - 1]))
        cfg = SolverConfig(max_inner_iters=30, inner_tolerance=tolerance)
        assert_same_bits(core_prox_gradient(grams, cross, g0, cfg), path[stop])

    @pytest.mark.parametrize(
        "bad, message",
        [("cross", "^non-finite entries in core problem"),
         ("gram", "^non-finite entries in core problem")],
    )
    def test_non_finite_problem_rejected(self, bad, message):
        rng = np.random.default_rng(8)
        factors = [rng.random((d, r)) for d, r in zip((4, 5, 6), (2, 3, 2))]
        grams, cross = core_problem_from_data(rng.random((4, 5, 6)), *factors)
        if bad == "cross":
            cross[0, 1, 1] = np.inf
        else:
            grams[1][0, 2] = np.nan
        with pytest.raises(ValueError, match=message):
            core_prox_gradient(grams, cross, rng.random((2, 3, 2)))

    def test_non_finite_g0_rejected(self):
        rng = np.random.default_rng(9)
        x = rng.random((4, 5, 6))
        factors = [rng.random((d, r)) for d, r in zip(x.shape, (2, 3, 2))]
        g0 = rng.random((2, 3, 2))
        g0[0, 1, 1] = np.nan
        with pytest.raises(ValueError, match="^g0 has non-finite entries"):
            core_prox_gradient(*core_problem_from_data(x, *factors), g0)

    def test_zero_factors_rejected(self):
        x = np.ones((2, 2, 2))
        with pytest.raises(ValueError):
            core_prox_gradient(
                *core_problem_from_data(x, *[np.zeros((2, 1))] * 3), np.zeros((1, 1, 1)), TIGHT
            )


class TestFastLoopsMatchOracles:
    @settings(max_examples=150, deadline=None)
    @given(
        r=st.integers(1, 48),
        cols=st.integers(1, 40),
        zero_diagonal=st.booleans(),
        dead_rows=st.booleans(),
        transposed=st.booleans(),
        tolerance=st.sampled_from([0.0, 0.5, 1e-8]),
        budget=st.sampled_from([0.5, 4.0]),
        iters=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_hals(self, r, cols, zero_diagonal, dead_rows, transposed, tolerance, budget,
                  iters, seed):
        rng = np.random.default_rng(seed)
        a = rng.random((r + 2, r))
        if zero_diagonal:
            a[:, rng.integers(r)] = 0.0  # zero Gram row, column and diagonal entry
        gram = a.T @ a
        cross = a.T @ (rng.random((r + 2, cols)) - 0.3)
        z0 = rng.random((cols, r)).T if transposed else rng.random((r, cols))
        if dead_rows:
            # these rows update to all zeros, from a zero or a nonzero start
            dead = rng.random(r) < 0.4
            cross[dead] = -10.0 * (1.0 + np.abs(cross[dead]))
            z0[dead & (rng.random(r) < 0.5)] = 0.0
        problem = NnlsProblem(gram, cross)
        cfg = SolverConfig(max_inner_iters=iters, inner_tolerance=tolerance,
                           acceleration_budget=budget)
        assert_same_bits(hals_nnls(problem, z0, cfg), hals_nnls_loop(problem, z0, cfg))

    @settings(max_examples=100, deadline=None)
    @given(
        dims=st.tuples(st.integers(1, 12), st.integers(1, 48), st.integers(1, 48)),
        w_kind=st.sampled_from(["identity", "general", "near_identity"]),
        zero_first=st.booleans(),
        fortran=st.booleans(),
        tolerance=st.sampled_from([0.0, 0.5, 1e-8]),
        iters=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_core(self, dims, w_kind, zero_first, fortran, tolerance, iters, seed):
        rng = np.random.default_rng(seed)
        f, t, b = dims
        ranks = (
            f if w_kind != "general" else int(rng.integers(1, f + 1)),
            int(rng.integers(1, t + 1)),
            int(rng.integers(1, b + 1)),
        )
        if w_kind == "general":
            w = rng.random((f, ranks[0]))
        else:
            w = np.eye(f)
            if w_kind == "near_identity":
                w[-1, 0] += 1e-300  # no longer exactly I (for f > 1)
        h, q = rng.random((t, ranks[1])), rng.random((b, ranks[2]))
        x = rng.random(dims) * (rng.random(dims) < 0.8)
        g0 = rng.random(ranks) * (rng.random(ranks) < 0.7)
        if zero_first:
            # a 1e-300 entry of W then leaves tiny nonzeros in an all-zero slice
            x[0], g0[0] = 0.0, 0.0
        if fortran:
            x, g0 = np.asfortranarray(x), np.asfortranarray(g0)
        cfg = SolverConfig(max_inner_iters=iters, inner_tolerance=tolerance)
        problem = core_problem_from_data(x, w, h, q)
        assert_same_bits(
            core_prox_gradient(*problem, g0, cfg),
            core_prox_gradient_loop(*problem, g0, cfg),
        )

    @pytest.mark.parametrize("fix_w", [False, True])
    @pytest.mark.parametrize("layout", ["contiguous", "fortran"])
    def test_whole_decompose(self, monkeypatch, fix_w, layout):
        rng = np.random.default_rng(20)
        x = rng.random((12, 16, 20)) * (rng.random((12, 16, 20)) < 0.9)
        if layout == "fortran":
            x = np.asfortranarray(x)
        ranks = NtdRanks(12 if fix_w else 5, 6, 9)
        cfg = NtdConfig(max_outer_iters=8, fix_w_to_identity=fix_w)
        fast = decompose(x, ranks, cfg).to_json(cfg)
        monkeypatch.setattr(decomposition, "hals_nnls", hals_nnls_loop)
        monkeypatch.setattr(decomposition, "core_prox_gradient", core_prox_gradient_loop)
        assert decompose(x, ranks, cfg).to_json(cfg) == fast

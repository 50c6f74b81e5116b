import itertools
import math
import re
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntdseg import decomposition
from ntdseg.decomposition import NtdConfig, NtdRanks, decompose
from ntdseg.nnls import HALS_SWEEPS, core_prox_gradient, hals_nnls
from ntdseg.tensor_ops import mode_product, reconstruct


class NnlsProblem(NamedTuple):
    """``gram = A.T A`` and ``cross = A.T Y``; ``hals_nnls(*problem, z0)``
    unpacks it."""

    gram: np.ndarray
    cross: np.ndarray


def converge(solver, *problem, start, calls=1000):
    """Chain ``solver(*problem, z)`` calls from `start` until the iterate
    repeats bit for bit or `calls` calls have run; returns the last output.
    A solver is a pure function of its arguments, so this equals `calls`
    chained calls exactly. A core step returns ``(core, value)`` and
    chains on the core."""
    out = solver(*problem, start)
    for _ in range(calls - 1):
        following = solver(*problem, iterate(out))
        if iterate(following).tobytes() == iterate(out).tobytes():
            break
        out = following
    return out


def iterate(out):
    """The iterate of a solver's output."""
    return out[0] if isinstance(out, tuple) else out


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


def hals_nnls_loop(gram: np.ndarray, cross: np.ndarray, z0: np.ndarray, sweeps=4) -> np.ndarray:
    """Oracle: the HALS row loop in normalized form, written with one fresh
    array per step, `sweeps` sweeps whatever the rank. Row j's block
    minimiser is ``max(0, cross[j] / d - sum_{k != j} gram[j, k] / d *
    z[k])`` with ``d = gram[j, j] > 0``; other rows stay."""
    z = np.array(z0, dtype=float)
    if z.shape != cross.shape:
        raise ValueError(f"z0 shape {z.shape} does not match cross shape {cross.shape}")
    if not np.isfinite(z).all():
        raise ValueError("non-finite entries in z0")

    r = gram.shape[0]
    for _ in range(sweeps):
        for j in range(r):
            denom = gram[j, j]
            if denom <= 0.0:
                continue
            others = gram[j] / denom
            others[j] = 0.0
            z[j] = np.maximum(0.0, cross[j] / denom - others @ z)
    return z


def hals_nnls_step_loop(gram: np.ndarray, cross: np.ndarray, z0: np.ndarray, sweeps=4) -> np.ndarray:
    """Oracle: the same HALS sweeps written as a gradient step of length
    ``1 / gram[j, j]`` on row j, ``max(0, z[j] + (cross[j] - gram[j] @ z) /
    gram[j, j])``, the textbook form. Equal to `hals_nnls_loop` in exact
    arithmetic, not bit for bit."""
    z = np.array(z0, dtype=float)
    r = gram.shape[0]
    for _ in range(sweeps):
        for j in range(r):
            denom = gram[j, j]
            if denom <= 0.0:
                continue
            z[j] = np.maximum(0.0, z[j] + (cross[j] - gram[j] @ z) / denom)
    return z


def core_problem_from_data(x, w, h, q):
    """``(grams, cross)`` of the core step for data `x` and factors."""
    grams = (w.T @ w, h.T @ h, q.T @ q)
    cross = mode_product(mode_product(mode_product(x, w.T, 0), h.T, 1), q.T, 2)
    return grams, cross


def core_prox_gradient_loop(grams, cross: np.ndarray, g0: np.ndarray, steps=30):
    """Oracle: FISTA with gradient restart for the core, with three checked
    mode products per Gram image and fresh arrays each step, 30 steps
    unless `steps` says otherwise. It returns the start (clipped at zero)
    when the start's objective is lower than the end point's, as
    ``(result, objective(result))``, the objective taken afresh."""
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

    def objective(g):
        return np.vdot(g, gram_image(g)) - 2.0 * np.vdot(cross, g)

    start = np.maximum(np.asarray(g0, dtype=float), 0.0)
    g = y = start
    t = 1.0
    for _ in range(steps):
        g_next = np.maximum(0.0, y - step * (gram_image(y) - cross))
        if np.vdot(y - g_next, g_next - g) > 0.0:  # restart
            t, y = 1.0, g_next
        else:
            t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
            y = g_next + (t - 1.0) / t_next * (g_next - g)
            t = t_next
        g = g_next
    result = g if objective(g) <= objective(start) else start
    return result, float(objective(result))


def core_problem_at_optimum(rng, ranks):
    """``(grams, cross, g0)`` of a core problem whose optimum is `g0` up to
    rounding: the gradient ``image(g0) - cross`` is zero where ``g0 > 0``
    and positive where ``g0 == 0``. The Gram image comes from `einsum`, so
    it differs from the solvers' image in the last bits and the steps
    move g0 by rounding noise."""
    factors = [rng.random((r + int(rng.integers(0, 3)), r)) for r in ranks]
    grams = tuple(f.T @ f for f in factors)
    g0 = np.maximum(rng.random(ranks) - 0.3, 0.0)
    image = np.einsum("ai,bj,ck,ijk->abc", *grams, g0)
    return grams, image - rng.random(ranks) * (g0 == 0.0), g0


def data_at_optimum(rng, ranks):
    """``(x, factors, g0)``: the set-up of `core_problem_at_optimum` from
    data. Projected onto the factors, `x` is the Gram image of `g0` less a
    positive margin where ``g0 == 0``, so `core_problem_from_data` gives a
    core problem whose optimum is `g0` up to rounding."""
    factors = [rng.random((r + int(rng.integers(0, 3)), r)) for r in ranks]
    g0 = np.maximum(rng.random(ranks) - 0.3, 0.0)
    margin = rng.random(ranks) * (g0 == 0.0)
    x = reconstruct(g0, *factors) - reconstruct(margin, *(np.linalg.pinv(f).T for f in factors))
    return x, factors, g0


def assert_value_of_data(x, factors, g, value):
    """`value` is ``||x - x^||^2 - ||x||^2`` of the core `g`, up to rounding."""
    x_sq = float(np.vdot(x, x))
    explicit = float(np.linalg.norm(x - reconstruct(g, *factors))) ** 2 - x_sq
    assert abs(value - explicit) <= 1e-12 * x_sq


def core_objective(grams, cross, g):
    """``||X - G x0 W x1 H x2 Q||_F^2 - ||X||_F^2`` from the Gram form, and
    the sum of its two terms' sizes, the scale of its rounding error."""
    image = mode_product(mode_product(mode_product(g, grams[0], 0), grams[1], 1), grams[2], 2)
    quadratic, linear = float(np.sum(g * image)), 2.0 * float(np.sum(cross * g))
    return quadratic - linear, abs(quadratic) + abs(linear)


def assert_same_bits(fast, slow):
    assert fast.shape == slow.shape and fast.dtype == slow.dtype
    assert np.array_equal(fast, slow)
    assert fast.tobytes() == slow.tobytes()  # also the sign of every zero


def assert_same_step(fast, slow):
    """Two core steps' ``(core, value)``, equal bit for bit. Both take the
    value with the same products as their steps, so it can be exact, and it
    must be: near a tie the other point's value differs only in its last
    bits."""
    assert_same_bits(fast[0], slow[0])
    assert fast[1] == slow[1]


def random_problem(rng, r=None, rows=6, cols=3):
    r = r if r is not None else rng.integers(1, 5)
    a = rng.standard_normal((rows, r))
    y = rng.standard_normal((rows, cols))
    return problem_from_data(a, y)


class TestHalsNnls:
    def test_identity_clamps_negative_component(self):
        problem = problem_from_data(np.eye(2), np.array([[2.0], [-3.0]]))
        z = converge(hals_nnls, *problem, start=np.zeros((2, 1)))
        np.testing.assert_allclose(z, [[2.0], [0.0]], atol=1e-12)

    def test_interior_solution(self):
        problem = problem_from_data(np.array([[1.0], [1.0]]), np.array([[1.0], [3.0]]))
        z = converge(hals_nnls, *problem, start=np.zeros((1, 1)))
        np.testing.assert_allclose(z, [[2.0]], atol=1e-12)

    def test_fixed_point(self):
        problem = problem_from_data(np.eye(2), np.array([[2.0], [-3.0]]))
        z_star = np.array([[2.0], [0.0]])
        z = converge(hals_nnls, *problem, start=z_star)
        np.testing.assert_allclose(z, z_star, atol=1e-12)

    @pytest.mark.parametrize("diagonal", [0.0, -1.0])
    def test_negative_start_clipped(self, diagonal):
        # Row 1 has no positive Gram diagonal entry, so it keeps its start.
        gram = np.array([[1.0, 0.0], [0.0, diagonal]])
        cross = np.array([[1.0, 2.0], [3.0, 4.0]])
        z0 = np.array([[-1.0, -1.0], [-5.0, 2.0]])
        z = hals_nnls(gram, cross, z0)
        assert_same_bits(z, np.array([[1.0, 2.0], [0.0, 2.0]]))
        assert_same_bits(z, hals_nnls_loop(gram, cross, np.maximum(z0, 0.0)))

    def test_never_negative(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            problem = random_problem(rng)
            z0 = np.abs(rng.standard_normal(problem.cross.shape))
            z = hals_nnls(*problem, z0)
            assert np.all(z >= 0)

    def test_monotone(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            problem = random_problem(rng)
            z0 = np.abs(rng.standard_normal(problem.cross.shape))
            z = hals_nnls(*problem, z0)
            assert objective(problem, z) <= objective(problem, z0) + 1e-12

    def test_kkt_and_oracle_objective(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            problem = random_problem(rng, r=int(rng.integers(1, 5)))
            z0 = np.abs(rng.standard_normal(problem.cross.shape))
            z = converge(hals_nnls, *problem, start=z0)
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
        z = hals_nnls(*problem, np.ones((2, 1)))
        assert z[1, 0] == 0.0
        assert_same_bits(z, np.array([[2.0], [0.0]]))

    @pytest.mark.parametrize(
        "gram_shape, z0_shape, message",
        [
            ((2, 3), (2, 3), "gram shape (2, 3) is not (2, 2) for cross shape (2, 3)"),
            ((3, 3), (2, 3), "gram shape (3, 3) is not (2, 2) for cross shape (2, 3)"),
            ((2, 2), (3, 3), "z0 shape (3, 3) does not match cross shape (2, 3)"),
        ],
        ids=["non-square-gram", "row-mismatch", "z0-shape"],
    )
    def test_dimension_mismatch(self, gram_shape, z0_shape, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            hals_nnls(np.eye(*gram_shape), np.ones((2, 3)), np.zeros(z0_shape))

    @pytest.mark.parametrize("cross_shape", [(3,), (3, 2, 2)], ids=["1-d", "3-d"])
    def test_cross_not_two_dimensional(self, cross_shape):
        message = f"cross must be order 2, got shape {cross_shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            hals_nnls(np.eye(3), np.ones(cross_shape), np.ones(cross_shape))

    @pytest.mark.parametrize("bad", ["gram", "cross"], ids=["nan-in-gram", "inf-in-cross"])
    def test_non_finite_rejected(self, bad):
        gram, cross = problem_from_data(np.eye(2), np.ones((2, 3)))
        if bad == "gram":
            gram[1, 0] = np.nan
        else:
            cross[0, 2] = np.inf
        with pytest.raises(ValueError, match=f"^{bad} has 1 non-finite entries \\(NaN or inf\\)$"):
            hals_nnls(gram, cross, np.zeros((2, 3)))


class TestCoreProxGradient:
    def test_identity_fixed_point(self):
        rng = np.random.default_rng(3)
        x = rng.random((3, 4, 5))
        eye = [np.eye(d) for d in x.shape]
        g, _ = converge(core_prox_gradient, *core_problem_from_data(x, *eye), start=x.copy())
        np.testing.assert_allclose(g, x, atol=1e-12)

    def test_identity_projection_at_convergence(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 4, 5))
        eye = [np.eye(d) for d in x.shape]
        g, _ = converge(core_prox_gradient, *core_problem_from_data(x, *eye), start=np.zeros(x.shape))
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
        g, _ = converge(core_prox_gradient, *core_problem_from_data(x, w, h, q), start=g0, calls=5)
        obj = np.sum((x - reconstruct(g, w, h, q)) ** 2)
        assert obj <= 1e-6 * np.sum(x * x)

    def test_single_step_from_zero_matches_oracle(self):
        rng = np.random.default_rng(6)
        w, h, q = rng.random((5, 2)), rng.random((6, 3)), rng.random((7, 2))
        x = rng.random((5, 6, 7))
        problem = core_problem_from_data(x, w, h, q)
        g, _ = core_prox_gradient_loop(*problem, np.zeros((2, 3, 2)), steps=1)
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
            g, _ = core_prox_gradient(*problem, g0)
            before = np.sum((x - reconstruct(g0, w, h, q)) ** 2)
            after = np.sum((x - reconstruct(g, w, h, q)) ** 2)
            assert after <= before + 1e-12
            assert np.all(g >= 0)

    @settings(max_examples=150, deadline=None)
    @given(
        ranks=st.tuples(st.integers(1, 6), st.integers(1, 12), st.integers(1, 12)),
        at_optimum=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_never_worse_than_start(self, ranks, at_optimum, seed):
        # one call, from any start: a nonnegative core whose objective is at
        # most the clipped start's, up to rounding of the two evaluations
        rng = np.random.default_rng(seed)
        if at_optimum:
            grams, cross, g0 = core_problem_at_optimum(rng, ranks)
        else:
            factors = [rng.random((r + int(rng.integers(0, 3)), r)) for r in ranks]
            x = rng.random(tuple(len(f) for f in factors))
            grams, cross = core_problem_from_data(x, *factors)
            g0 = rng.random(ranks) - 0.3
        g, _ = core_prox_gradient(grams, cross, g0)
        assert np.all(g >= 0.0)
        before, before_size = core_objective(grams, cross, np.maximum(g0, 0.0))
        after, after_size = core_objective(grams, cross, g)
        assert after <= before + 1e-12 * max(before_size, after_size)

    @settings(max_examples=100, deadline=None)
    @given(
        dims=st.tuples(st.integers(1, 12), st.integers(1, 48), st.integers(1, 48)),
        dead_fraction=st.sampled_from([0.0, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_value_matches_data(self, dims, dead_fraction, seed):
        # also with dead slices, whose value the steps never see
        rng = np.random.default_rng(seed)
        ranks = tuple(int(rng.integers(1, d + 1)) for d in dims)
        factors = [rng.random((d, r)) for d, r in zip(dims, ranks)]
        for factor in factors:
            dead = rng.random(factor.shape[1]) < dead_fraction
            dead[rng.integers(len(dead))] = False  # a zero factor has no step
            factor[:, dead] = 0.0
        x = rng.random(dims) * (rng.random(dims) < 0.8)
        # a start scaled to fit x best keeps x^ about the size of x
        start = rng.random(ranks)
        fit = reconstruct(start, *factors)
        start *= np.vdot(x, fit) / np.vdot(fit, fit)
        g, value = core_prox_gradient(*core_problem_from_data(x, *factors), start)
        assert_value_of_data(x, factors, g, value)

    def test_value_matches_data_from_either_point(self):
        # near the optimum the end guard returns the start in about 2 of 5 calls
        rng = np.random.default_rng(10)
        starts = 0
        for _ in range(40):
            ranks = tuple(int(r) for r in rng.integers(1, (7, 13, 13)))
            x, factors, g0 = data_at_optimum(rng, ranks)
            g, value = core_prox_gradient(*core_problem_from_data(x, *factors), g0)
            starts += g.tobytes() == g0.tobytes()
            assert_value_of_data(x, factors, g, value)
        assert 0 < starts < 40

    @pytest.mark.parametrize(
        "bad, message",
        [("cross", r"^cross has 1 non-finite entries \(NaN or inf\)$"),
         ("gram", r"^Gram of mode 1 has 1 non-finite entries \(NaN or inf\)$")],
        ids=["cross", "gram"],
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
        with pytest.raises(ValueError, match=r"^g0 has 1 non-finite entries \(NaN or inf\)$"):
            core_prox_gradient(*core_problem_from_data(x, *factors), g0)

    def test_nested_list_start(self):
        # read as float64 like every array argument, as hals_nnls reads z0
        rng = np.random.default_rng(11)
        problem = core_problem_from_data(rng.random((4, 5, 6)), *(rng.random((d, 2)) for d in (4, 5, 6)))
        g0 = rng.random((2, 2, 2))
        assert_same_step(core_prox_gradient(*problem, g0.tolist()), core_prox_gradient(*problem, g0))

    def test_zero_factors_rejected(self):
        x = np.ones((2, 2, 2))
        with pytest.raises(ValueError):
            core_prox_gradient(
                *core_problem_from_data(x, *[np.zeros((2, 1))] * 3), np.zeros((1, 1, 1))
            )


hals_cases = given(
    r=st.integers(1, 48),
    cols=st.integers(1, 40),
    zero_diagonal=st.booleans(),
    dead_rows=st.booleans(),
    transposed=st.booleans(),
    calls=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
)


def hals_case(r, cols, zero_diagonal, dead_rows, transposed, seed):
    """``(gram, cross, z0)`` of a random rank-r HALS problem with `cols`
    columns, optionally with a zero Gram diagonal entry, rows that update
    to all zeros and a transposed start."""
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
    return gram, cross, z0


class TestFastLoopsMatchOracles:
    @settings(max_examples=150, deadline=None)
    @hals_cases
    def test_hals(self, r, cols, zero_diagonal, dead_rows, transposed, calls, seed):
        gram, cross, z0 = hals_case(r, cols, zero_diagonal, dead_rows, transposed, seed)
        assert_same_bits(
            converge(hals_nnls, gram, cross, start=z0, calls=calls),
            converge(hals_nnls_loop, gram, cross, start=z0, calls=calls),
        )

    @pytest.mark.parametrize("r", [1, 12, 48])
    def test_hals_sweeps_do_not_depend_on_rank(self, r):
        gram, cross, z0 = hals_case(r, 20, False, True, False, seed=r)
        z = z0
        for _ in range(HALS_SWEEPS):
            z = hals_nnls_loop(gram, cross, z, sweeps=1)
        assert_same_bits(hals_nnls(gram, cross, z0), z)

    @settings(max_examples=150, deadline=None)
    @hals_cases
    def test_hals_matches_step_form(self, r, cols, zero_diagonal, dead_rows, transposed, calls, seed):
        # The normalized row update rounds differently from the gradient-step
        # form; over 3,000 such problems the worst relative gaps were 3.9e-16
        # (objective) and 3.6e-15 (iterate).
        gram, cross, z0 = hals_case(r, cols, zero_diagonal, dead_rows, transposed, seed)
        problem = NnlsProblem(gram, cross)
        fast = converge(hals_nnls, gram, cross, start=z0, calls=calls)
        slow = converge(hals_nnls_step_loop, gram, cross, start=z0, calls=calls)
        scale = max(
            abs(np.vdot(z, gram @ z)) + 2.0 * abs(np.vdot(cross, z)) for z in (fast, slow)
        )
        assert abs(objective(problem, fast) - objective(problem, slow)) <= 1e-12 * scale
        assert np.abs(fast - slow).max() <= 1e-10 * max(np.abs(fast).max(), np.abs(slow).max())

    @settings(max_examples=100, deadline=None)
    @given(
        dims=st.tuples(st.integers(1, 12), st.integers(1, 48), st.integers(1, 48)),
        w_kind=st.sampled_from(["identity", "general", "near_identity"]),
        zero_first=st.booleans(),
        fortran=st.booleans(),
        calls=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_core(self, dims, w_kind, zero_first, fortran, calls, seed):
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
        problem = core_problem_from_data(x, w, h, q)
        assert_same_step(
            converge(core_prox_gradient, *problem, start=g0, calls=calls),
            converge(core_prox_gradient_loop, *problem, start=g0, calls=calls),
        )

    @settings(max_examples=100, deadline=None)
    @given(
        ranks=st.tuples(st.integers(1, 6), st.integers(1, 12), st.integers(1, 12)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_core_from_optimum(self, ranks, seed):
        # near a tie the end guard decides: it returns the start in about
        # 2 of 5 of these calls
        grams, cross, g0 = core_problem_at_optimum(np.random.default_rng(seed), ranks)
        assert_same_step(
            core_prox_gradient(grams, cross, g0), core_prox_gradient_loop(grams, cross, g0)
        )

    @settings(max_examples=100, deadline=None)
    @given(
        dims=st.tuples(st.integers(1, 12), st.integers(1, 48), st.integers(1, 48)),
        general_w=st.booleans(),
        dead_fraction=st.sampled_from([0.3, 0.9]),
        calls=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_core_dead_slices(self, dims, general_w, dead_fraction, calls, seed):
        rng = np.random.default_rng(seed)
        f, t, b = dims
        ranks = (
            int(rng.integers(1, f + 1)) if general_w else f,
            int(rng.integers(1, t + 1)),
            int(rng.integers(1, b + 1)),
        )
        factors = [rng.random((f, ranks[0])) if general_w else np.eye(f),
                   rng.random((t, ranks[1])), rng.random((b, ranks[2]))]
        dead = []
        for mode, factor in enumerate(factors):
            columns = rng.random(ranks[mode]) < dead_fraction
            columns[rng.integers(ranks[mode])] = False  # a zero factor has no step
            if mode == 0 and not general_w:
                columns[:] = False
            factor[:, columns] = 0.0  # zero Gram row and column, zero cross slices
            dead.append(columns)
        x = rng.random(dims) * (rng.random(dims) < 0.8)
        g0 = rng.random(ranks) - 0.3
        grams, cross = core_problem_from_data(x, *factors)
        fast, fast_value = converge(core_prox_gradient, grams, cross, start=g0, calls=calls)
        # The live slices take the oracle's steps on the live sub-problem, bit
        # for bit. On the whole problem the oracle's inner products also sum
        # the dead slices' zeros, in another order, and a restart or the end
        # guard can then go the other way.
        live = [np.flatnonzero(~columns) for columns in dead]
        index = np.ix_(*live)
        live_grams = tuple(gram[np.ix_(i, i)] for gram, i in zip(grams, live))
        slow = converge(core_prox_gradient_loop, live_grams, cross[index], start=g0[index], calls=calls)
        assert_same_step((fast[index], fast_value), slow)
        for mode, columns in enumerate(dead):
            index = (slice(None),) * mode + (columns,)
            assert_same_bits(fast[index], np.maximum(g0, 0.0)[index])

    @pytest.mark.parametrize("fix_w", [False, True])
    def test_whole_decompose_components_die(self, monkeypatch, fix_w):
        rng = np.random.default_rng(21)
        # 20 bars, each one of 3 patterns: most of 16 bar components die
        patterns = rng.random((3, 12, 16))
        x = patterns[rng.integers(0, 3, 20)].transpose(1, 2, 0) + 0.01 * rng.random((12, 16, 20))
        ranks = NtdRanks(12 if fix_w else 5, 6, 16)
        cfg = NtdConfig(max_outer_iters=25, fix_w_to_identity=fix_w)
        assert not (decomposition.initialize(x, ranks, cfg).q == 0.0).all(axis=0).any()
        fast = decompose(x, ranks, cfg)
        assert (fast.q == 0.0).all(axis=0).sum() >= 5
        monkeypatch.setattr(decomposition, "hals_nnls", hals_nnls_loop)
        monkeypatch.setattr(decomposition, "core_prox_gradient", core_prox_gradient_loop)
        slow = decompose(x, ranks, cfg)
        assert len(fast.objective_trace) == len(slow.objective_trace)
        np.testing.assert_allclose(fast.objective_trace, slow.objective_trace, rtol=1e-12)

    @pytest.mark.parametrize("fix_w", [False, True])
    @pytest.mark.parametrize("layout", ["contiguous", "fortran"])
    def test_whole_decompose(self, monkeypatch, fix_w, layout):
        rng = np.random.default_rng(20)
        x = rng.random((12, 16, 20)) * (rng.random((12, 16, 20)) < 0.9)
        if layout == "fortran":
            x = np.asfortranarray(x)
        ranks = NtdRanks(12 if fix_w else 5, 6, 9)
        cfg = NtdConfig(max_outer_iters=8, fix_w_to_identity=fix_w)
        fast = decompose(x, ranks, cfg)
        monkeypatch.setattr(decomposition, "hals_nnls", hals_nnls_loop)
        monkeypatch.setattr(decomposition, "core_prox_gradient", core_prox_gradient_loop)
        slow = decompose(x, ranks, cfg)
        for name in ("w", "h", "q", "core"):
            assert_same_bits(getattr(fast, name), getattr(slow, name))
        # the explicit first entry; each core step supplies the value of the others
        assert fast.objective_trace[0] == slow.objective_trace[0]
        assert len(fast.objective_trace) == len(slow.objective_trace)
        np.testing.assert_allclose(fast.objective_trace[1:], slow.objective_trace[1:], rtol=1e-12)

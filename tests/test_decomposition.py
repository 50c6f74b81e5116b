import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ntdseg import decomposition
from ntdseg.decomposition import (
    NtdConfig,
    NtdModel,
    NtdRanks,
    check_fit,
    decompose,
    initialize,
    normalize,
    parameter_count,
)
from ntdseg.ingest import synth_song
from ntdseg.nnls import core_prox_gradient, hals_nnls
from ntdseg.tensor_ops import mode_product, reconstruct

from test_nnls import assert_same_bits, core_problem_from_data


def start_from(monkeypatch, truth: NtdModel) -> None:
    """Make `decompose` start from `truth` instead of the HOSVD."""

    def initialize_at_truth(x, ranks, cfg):
        # `decompose` fits x scaled by a power of two; the truth's core scales alike
        start = replace(truth, core=truth.core * (x.max() / truth.reconstruct().max()))
        return replace(start, objective_trace=[start.objective(x)])

    monkeypatch.setattr(decomposition, "initialize", initialize_at_truth)


def decompose_parent_loop(x, ranks, cfg=NtdConfig()):
    """Oracle: the alternating loop that projects `x` afresh for every
    factor subproblem and builds the core problem from `x`."""
    model = initialize(x, ranks, cfg)
    factors = [model.w, model.h, model.q]
    core = model.core
    for _ in range(cfg.max_outer_iters):
        for mode in range(3):
            if mode == 0 and cfg.fix_w_to_identity:
                continue
            others = tuple(i for i in range(3) if i != mode)
            projected, core_image = x, core
            for i in others:
                projected = mode_product(projected, factors[i].T, i)
                core_image = mode_product(core_image, factors[i].T @ factors[i], i)
            gram = np.tensordot(core, core_image, axes=(others, others))
            cross = np.tensordot(core, projected, axes=(others, others))
            factors[mode] = hals_nnls(gram, cross, factors[mode].T).T
        core, _ = core_prox_gradient(*core_problem_from_data(x, *factors), core)
        model.objective_trace.append(float(np.linalg.norm(x - reconstruct(core, *factors))) ** 2)
    model.w, model.h, model.q, model.core = factors[0], factors[1], factors[2], core
    return normalize(model)


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
        assert model.objective(t) <= (1e-10 * np.linalg.norm(t)) ** 2

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
        with pytest.raises(ValueError, match="got f_rank 3 and frequency dimension 4$"):
            initialize(np.ones((4, 5, 6)), NtdRanks(3, 2, 2), NtdConfig(fix_w_to_identity=True))

    def test_rank_exceeds_dimension(self):
        with pytest.raises(ValueError):
            initialize(np.ones((4, 5, 6)), NtdRanks(5, 2, 2))


class TestNtdRanks:
    @pytest.mark.parametrize(
        "ranks, field",
        [((4.0, 2, 2), "f_rank"), ((4, 2.5, 2), "t_rank"), ((4, 2, "2"), "b_rank"),
         ((4, 2, 0), "b_rank")],
    )
    def test_non_integer_or_non_positive_rank_rejected(self, ranks, field):
        with pytest.raises(ValueError, match=f"{field} must be a positive integer"):
            NtdRanks(*ranks)

    def test_numpy_integers_accepted(self):
        assert NtdRanks(np.int64(4), 2, 2).as_tuple() == (4, 2, 2)


class TestNtdConfig:
    def test_non_integer_max_outer_iters_rejected(self):
        with pytest.raises(ValueError, match="max_outer_iters must be a nonnegative integer"):
            NtdConfig(max_outer_iters=2.5)

    def test_negative_max_outer_iters_rejected(self):
        with pytest.raises(ValueError, match="max_outer_iters"):
            NtdConfig(max_outer_iters=-1)

    def test_boundary_values_accepted(self):
        assert NtdConfig(max_outer_iters=0).max_outer_iters == 0


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

    def test_ground_truth_fixed_point(self, monkeypatch):
        # starting from the true model the objective cannot move
        rng = np.random.default_rng(4)
        truth = random_model(rng, dims=(4, 5, 6), ranks=(2, 2, 2))
        x = truth.reconstruct()
        start_from(monkeypatch, truth)
        model = decompose(x, truth.ranks, NtdConfig(max_outer_iters=10))
        trace = np.array(model.objective_trace)
        assert len(trace) == 11
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
        cfg = NtdConfig(max_outer_iters=10)
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

    def test_order_two_input_rejected(self):
        with pytest.raises(ValueError, match=r"^input tensor must be order 3, got shape \(4, 5\)$"):
            decompose(np.ones((4, 5)), NtdRanks(2, 2, 2))

    def test_nested_list_input(self):
        # read as float64 like every array argument; `initialize` already
        # read it, but `decompose` raised AttributeError
        x = np.random.default_rng(12).random((4, 5, 6))
        ranks, cfg = NtdRanks(2, 2, 2), NtdConfig(max_outer_iters=3)
        assert decompose(x.tolist(), ranks, cfg).to_json() == decompose(x, ranks, cfg).to_json()

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

    def test_overflowing_squared_norm_rejected(self):
        # every entry is finite, but ||x||^2 is not
        x = np.full((4, 5, 6), 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="squared norm of the input tensor overflows"):
                decompose(x, NtdRanks(2, 2, 2))

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(-1000, 500),
        fix_w=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(k=-665, fix_w=True, seed=0)  # about 1e-200
    @example(k=-997, fix_w=False, seed=1)  # about 1e-300
    def test_power_of_two_scale(self, k, fix_w, seed):
        # entries in [1/4, 1) or zero: 2**k x is exact for k in [-1000, 500]
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.25, 1.0, (12, 16, 20)) * (rng.random((12, 16, 20)) < 0.9)
        ranks = NtdRanks(12 if fix_w else 4, 4, 4)
        cfg = NtdConfig(max_outer_iters=10, fix_w_to_identity=fix_w)
        model = decompose(x, ranks, cfg)
        scaled = decompose(np.ldexp(x, k), ranks, cfg)
        for fit, expected in zip(
            (scaled.w, scaled.h, scaled.q, scaled.core),
            (model.w, model.h, np.ldexp(model.q, k), model.core),
        ):
            assert fit.tobytes() == expected.tobytes()
        assert scaled.objective_trace == [math.ldexp(v, 2 * k) for v in model.objective_trace]

    @pytest.mark.parametrize("motifs", [3, 4, 5])
    def test_motif_partition(self, motifs):
        # The paper's claim: on a zero-noise song of 24 bars, each one of
        # `motifs` random 12x16 motifs, the fit at b-rank `motifs` puts each
        # bar's largest Q entry on its motif's column. Seeds 0-9 all pass; a
        # 100-step projected-gradient core merges two motifs on seed 5 with
        # 4 motifs.
        for seed in range(10):
            rng = np.random.default_rng([seed, motifs])
            patterns = [rng.random((12, 16)) for _ in range(motifs)]
            labels = rng.permutation(np.arange(24) % motifs).tolist()
            x, _, _ = synth_song(patterns, labels)
            cfg = NtdConfig(max_outer_iters=100, fix_w_to_identity=True)
            found = np.argmax(decompose(x, NtdRanks(12, 6, motifs), cfg).q, axis=1).tolist()
            assert len(set(zip(labels, found))) == len(set(found)) == motifs, seed

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


class TestCheckFit:
    # One message per input, in this order: non-finite entries, a negative
    # entry, an overflowing squared norm, then the ranks.
    @pytest.mark.parametrize(
        "x, match",
        [
            (np.where(np.arange(120).reshape(4, 5, 6) < 3, np.nan, -1.0),
             "^input tensor has 3 non-finite entries"),
            (np.full((4, 5, 6), -np.inf), "^input tensor has 120 non-finite entries"),
            (np.full((4, 5, 6), -1e200), "^input tensor must be nonnegative$"),
            (np.full((4, 5, 6), 1e200), "^squared norm of the input tensor overflows$"),
            (np.zeros((0, 5, 6)), "^F-rank 2 exceeds tensor dimension 0$"),
        ],
        ids=["nan-and-negative", "negative-inf", "negative-overflow", "overflow", "empty"],
    )
    def test_first_problem_named(self, x, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                check_fit(x, NtdRanks(2, 2, 2), NtdConfig())


def count_reconstructions(monkeypatch) -> list:
    """Record each `reconstruct` call that `decomposition` makes."""
    calls = []

    def counting(*args):
        calls.append(args)
        return reconstruct(*args)

    monkeypatch.setattr(decomposition, "reconstruct", counting)
    return calls


class TestDataPasses:
    @pytest.mark.parametrize("fix_w", [False, True])
    @pytest.mark.parametrize("layout", ["contiguous", "fortran", "strided"])
    def test_matches_parent_loop(self, fix_w, layout):
        rng = np.random.default_rng(21)
        x = rng.random((12, 16, 20)) * (rng.random((12, 16, 20)) < 0.9)
        if layout == "fortran":
            x = np.asfortranarray(x)
        elif layout == "strided":
            x = x.transpose(1, 0, 2).copy().transpose(1, 0, 2)
        snapshot = x.copy()
        ranks = NtdRanks(12 if fix_w else 5, 6, 9)
        cfg = NtdConfig(max_outer_iters=8, fix_w_to_identity=fix_w)
        expected = decompose_parent_loop(x, ranks, cfg)
        fit = decompose(x, ranks, cfg)
        for name in ("w", "h", "q", "core"):
            assert_same_bits(getattr(fit, name), getattr(expected, name))
        # the oracle takes every objective from the explicit residual, the
        # fit takes all but the first from the Gram form
        assert fit.objective_trace[0] == expected.objective_trace[0]
        assert len(fit.objective_trace) == len(expected.objective_trace)
        np.testing.assert_allclose(fit.objective_trace, expected.objective_trace, rtol=1e-12)
        assert np.array_equal(x, snapshot)  # the fit never writes to its input

    @pytest.mark.parametrize("fix_w", [False, True])
    def test_mode_products_of_x(self, monkeypatch, fix_w):
        # Products of X-sized tensors per outer iteration. With W fixed the
        # fit's copy of x is x x0 W.T, projected on Q for the H step and on
        # H for the Q and core steps; nothing multiplies it by the identity.
        # With W free, the W step's x x1 H.T, then x x0 W.T.
        rng = np.random.default_rng(22)
        x = rng.random((12, 16, 20))
        calls, every = [], []

        def counting(tensor, matrix, mode):
            every.append(mode)
            if tensor.shape == x.shape:
                calls.append(mode)
            return mode_product(tensor, matrix, mode)

        monkeypatch.setattr(decomposition, "mode_product", counting)
        reconstructions = count_reconstructions(monkeypatch)
        cfg = NtdConfig(max_outer_iters=6, fix_w_to_identity=fix_w)
        decompose(x, NtdRanks(12 if fix_w else 5, 6, 9), cfg)
        assert calls == ([2, 1] if fix_w else [1, 0]) * 6
        # Every product per cycle: two per factor problem, the H problem's
        # (x x0 W.T) x2 Q.T, x x0 W.T x1 H.T and the core step's cross; a
        # free W adds x x1 H.T x2 Q.T and x x0 W.T. The core step returns
        # the cycle's objective, so the objective adds none.
        assert len(every) == (7 if fix_w else 12) * 6
        # the initial objective's; each cycle's objective comes from the Grams
        assert len(reconstructions) == 1


def explicit_trace(x, ranks, cfg):
    """Oracle: ``||x - x^||^2`` of the model after each cycle, from fits
    capped at 0, 1, ... `cfg.max_outer_iters` cycles."""
    return [
        decompose(x, ranks, replace(cfg, max_outer_iters=k)).objective(x)
        for k in range(cfg.max_outer_iters + 1)
    ]


class TestObjectiveTrace:
    @pytest.mark.parametrize("fix_w", [False, True])
    def test_gram_form_matches_explicit(self, fix_w):
        # the set-up of test_whole_decompose_components_die: dead Q columns
        rng = np.random.default_rng(21)
        patterns = rng.random((3, 12, 16))
        x = patterns[rng.integers(0, 3, 20)].transpose(1, 2, 0) + 0.01 * rng.random((12, 16, 20))
        ranks = NtdRanks(12 if fix_w else 5, 6, 16)
        cfg = NtdConfig(max_outer_iters=25, fix_w_to_identity=fix_w)
        model = decompose(x, ranks, cfg)
        assert (model.q == 0.0).all(axis=0).sum() >= 5
        trace = np.array(model.objective_trace)
        assert trace.min() > decomposition.GRAM_OBJECTIVE_FLOOR * float(np.vdot(x, x))
        np.testing.assert_allclose(trace, explicit_trace(x, ranks, cfg), rtol=1e-12)

    def test_explicit_near_zero(self, monkeypatch):
        # An exact low-rank tensor: the objective falls from above the floor
        # to below it, where the Gram form would subtract terms of ||x||^2.
        rng = np.random.default_rng(2)
        truth = random_model(rng, dims=(6, 7, 8), ranks=(2, 3, 2))
        x = truth.reconstruct()
        x_sq = float(np.vdot(x, x))
        cfg = NtdConfig(max_outer_iters=30)
        explicit = explicit_trace(x, truth.ranks, cfg)
        calls = count_reconstructions(monkeypatch)
        trace = np.array(decompose(x, truth.ranks, cfg).objective_trace)
        floor = decomposition.GRAM_OBJECTIVE_FLOOR * x_sq
        assert (trace > 10 * floor).any() and (trace < floor).any()
        assert 1 < len(calls) < 1 + cfg.max_outer_iters  # the fallback, not every cycle
        assert (trace >= 0.0).all()
        np.testing.assert_allclose(trace, explicit, rtol=0.0, atol=1e-14 * x_sq)


class TestDtypes:
    @pytest.mark.parametrize(
        "dtype",
        [bool, np.uint8, np.int8, np.int16, np.int32, np.int64, np.uint64,
         np.float16, np.float32],
    )
    @pytest.mark.parametrize("fix_w", [False, True])
    def test_real_dtypes_fit_as_float64(self, dtype, fix_w):
        rng = np.random.default_rng(23)
        x = rng.integers(0, 100, (12, 16, 20)).astype(dtype)
        ranks = NtdRanks(12 if fix_w else 5, 6, 9)
        cfg = NtdConfig(max_outer_iters=5, fix_w_to_identity=fix_w)
        expected = decompose(x.astype(float), ranks, cfg).to_json(cfg)
        assert decompose(x, ranks, cfg).to_json(cfg) == expected

    @pytest.mark.parametrize(
        "x, name",
        [(np.ones((4, 5, 6), dtype=complex), "complex128"),
         (np.ones((4, 5, 6), dtype=object), "object"),
         (np.ones((4, 5), dtype=np.complex64), "complex64"),  # dtype before order
         (np.ones((4, 5, 6), dtype=np.longdouble), str(np.dtype(np.longdouble))),
         (np.ones((4, 5, 6), dtype="U1"), "<U1")],
    )
    def test_unsupported_dtype_rejected(self, x, name):
        if np.can_cast(x.dtype, np.float64):
            pytest.skip(f"{name} is float64 on this platform")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"of at most 64 bits, got dtype {name}$"):
                decompose(x, NtdRanks(2, 2, 2))


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

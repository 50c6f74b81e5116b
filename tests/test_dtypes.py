"""The one rule of the library's array arguments, `tensor_ops.real_array`:
bool, integer and float arrays of at most 64 bits are read as float64, so
they give the float64 call's result bit for bit; any other dtype raises a
ValueError that names it, and so does a NaN or inf entry. `decompose` is
checked in test_decomposition.py."""
import warnings

import numpy as np
import pytest

from ntdseg.decomposition import NtdRanks, initialize
from ntdseg.nnls import core_prox_gradient, hals_nnls
from ntdseg.segmentation import autosimilarity_from_features, segment
from ntdseg.tensor_ops import truncated_hosvd

REAL = [bool, np.uint8, np.int8, np.int16, np.int64, np.float16, np.float32]

_rng = np.random.default_rng(30)
# Small integers. The float64 call reads the same cast values, so a dtype
# that wraps or rounds some of them (bool, uint8) still compares like with like.
X = _rng.integers(0, 64, (6, 7, 8)).astype(float)
A = _rng.integers(0, 4, (9, 3)).astype(float)
GRAM, CROSS, Z0 = A.T @ A, A.T @ _rng.integers(-4, 4, (9, 5)), _rng.integers(0, 4, (3, 5))
GRAMS = [f.T @ f for f in (_rng.integers(0, 3, (d, r)).astype(float) for d, r in ((6, 3), (7, 4), (8, 5)))]
CORE_CROSS, G0 = _rng.integers(0, 50, (3, 4, 5)), _rng.integers(0, 4, (3, 4, 5))
FEATURES = _rng.integers(0, 8, (12, 4))
AUTOSIM = _rng.integers(0, 8, (12, 12))


def model_arrays(model):
    return model.w, model.h, model.q, model.core, model.objective_trace


def core_step(cast, slot):
    """`core_prox_gradient` with `cast` applied to the array in `slot`: a
    Gram's mode, "cross" or "g0"."""
    grams = [cast(g) if slot == mode else g for mode, g in enumerate(GRAMS)]
    cross = cast(CORE_CROSS) if slot == "cross" else CORE_CROSS
    g0 = cast(G0) if slot == "g0" else G0
    return core_prox_gradient(tuple(grams), cross, g0)


# Each call applies `cast` to one array argument and returns the outputs.
CALLS = {
    "truncated_hosvd": lambda cast: truncated_hosvd(cast(X), (3, 4, 5)),
    "initialize": lambda cast: model_arrays(initialize(cast(X), NtdRanks(3, 4, 5))),
    "hals_nnls gram": lambda cast: (hals_nnls(cast(GRAM), CROSS, Z0),),
    "hals_nnls cross": lambda cast: (hals_nnls(GRAM, cast(CROSS), Z0),),
    "hals_nnls z0": lambda cast: (hals_nnls(GRAM, CROSS, cast(Z0)),),
    **{f"core_prox_gradient {slot}": (lambda cast, slot=slot: core_step(cast, slot))
       for slot in (0, 1, 2, "cross", "g0")},
    "autosimilarity_from_features": lambda cast: (autosimilarity_from_features(cast(FEATURES)),),
    "segment": lambda cast: segment(cast(AUTOSIM)).bar_boundaries,
}


def as_bytes(outputs):
    return [(np.asarray(v).dtype, np.asarray(v).shape, np.asarray(v).tobytes()) for v in outputs]


@pytest.mark.parametrize("dtype", REAL)
@pytest.mark.parametrize("call", CALLS)
def test_real_dtypes_read_as_float64(call, dtype):
    got = CALLS[call](lambda a: np.asarray(a).astype(dtype))
    expected = CALLS[call](lambda a: np.asarray(a).astype(dtype).astype(np.float64))
    assert as_bytes(got) == as_bytes(expected)


@pytest.mark.parametrize("dtype", [np.complex128, object])
@pytest.mark.parametrize("call", CALLS)
def test_other_dtypes_rejected(call, dtype):
    name = np.dtype(dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f" must be bool, integer or float of at most 64 bits, got dtype {name}$"):
            CALLS[call](lambda a: np.asarray(a).astype(dtype))


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("call", CALLS)
def test_non_finite_rejected(call, value):
    def with_entry(a):
        a = np.array(a, dtype=float)
        a.flat[0] = value
        return a

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r" has 1 non-finite entries \(NaN or inf\)$"):
            CALLS[call](with_entry)

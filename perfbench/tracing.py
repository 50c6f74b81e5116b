"""In-memory span recorder installed from outside the program.

`Recorder.install` rebinds each layer's public functions with wrappers that
record one span per call, in every loaded `ntdseg` module that holds the
function under its own name (the package re-exports and the modules that
import a function by name alike). `uninstall` puts the originals back, so
untraced items run the unmodified program. A span is (name, start, end,
parent span, item id); a few spans also carry counts computed from their
arguments or results.
"""
from __future__ import annotations

import inspect
import math
import sys
import time
from pathlib import Path

import numpy as np

# (module, function) pairs wrapped in a traced run; the span name is
# "<module>.<function>".
TRACED = (
    ("ingest", "load_chromagram"),
    ("ingest", "load_bars"),
    ("ingest", "load_annotation"),
    ("ingest", "tensorize"),
    ("tensor_ops", "mode_product"),
    ("tensor_ops", "reconstruct"),
    ("tensor_ops", "truncated_hosvd"),
    ("nnls", "hals_nnls"),
    ("nnls", "core_prox_gradient"),
    ("decomposition", "decompose"),
    ("segmentation", "autosimilarity_from_features"),
    ("segmentation", "segment"),
    ("segmentation", "raw_score"),
    ("evaluation", "hit_rate"),
    ("cli", "main"),
)


def _mode_product_counts(fn, args, kwargs, result):
    tensor, matrix = args[0], args[1]
    m, k = matrix.shape
    n = tensor.size // k
    return {"flops": 2 * m * k * n, "bytes": tensor.nbytes + matrix.nbytes + result.nbytes}


def _tensorize_counts(fn, args, kwargs, result):
    return {"frames": args[0].n_frames}


def _decompose_counts(fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    x, cfg = bound.arguments["x"], bound.arguments["cfg"]
    outer = len(result.objective_trace) - 1
    return {
        "outer_iters": outer,
        "cap_hit": int(outer >= cfg.max_outer_iters),
        "rel_error": math.sqrt(max(result.objective_trace[-1], 0.0)) / float(np.linalg.norm(x)),
    }


# Spans that also record counts, computed from the call's arguments and result.
COUNTERS = {
    "tensor_ops.mode_product": _mode_product_counts,
    "ingest.tensorize": _tensorize_counts,
    "decomposition.decompose": _decompose_counts,
}


class Recorder:
    """Collects spans while installed; one recorder serves one run."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.item: list[int] = []
        self.counts: list[tuple[int, dict]] = []  # (span index, counts)
        self._stack: list[int] = []
        self._current_item = -1
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        names, start, end, parent, item = self.names, self.start, self.end, self.parent, self.item
        stack, counts = self._stack, self.counts
        clock = time.perf_counter
        counter = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            item.append(self._current_item)
            end.append(math.nan)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if counter is not None:
                counts.append((index, counter(fn, args, kwargs, result)))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def record_item(self, item: int, fn):
        """Run `fn()` as item `item` under a root span named "bench.item"."""
        self._current_item = item
        try:
            return self._wrap("bench.item", fn)()
        finally:
            self._current_item = -1

    def install(self) -> None:
        import ntdseg  # noqa: F401  (loads every submodule)

        modules = [m for n, m in list(sys.modules.items()) if n == "ntdseg" or n.startswith("ntdseg.")]
        for module_name, func_name in TRACED:
            original = getattr(sys.modules[f"ntdseg.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def arrays(self):
        """Spans as arrays: names, name ids, start, end, parent, item, self time."""
        names = sorted(set(self.names))
        ids = {n: i for i, n in enumerate(names)}
        name_id = np.array([ids[n] for n in self.names], dtype=np.int32)
        start = np.array(self.start)
        end = np.array(self.end)
        parent = np.array(self.parent, dtype=np.int64)
        item = np.array(self.item, dtype=np.int64)
        duration = end - start
        has_parent = parent >= 0
        # Spans on one thread nest without overlap, so the children of a
        # span cover exactly the sum of their durations.
        child = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(start))
        return names, name_id, start, end, parent, item, duration - child

    def save(self, path: Path) -> None:
        names, name_id, start, end, parent, item, self_time = self.arrays()
        np.savez_compressed(
            path, names=np.array(names), name_id=name_id, start=start, end=end,
            parent=parent, item=item, self_time=self_time,
        )


# Per-layer metrics of a traced run: name -> (unit, better). Times are the
# inclusive seconds of a function's spans per traced item, except the two
# self times; counts are per item over the first pass through the input
# pool, so they repeat exactly for a seed.
LAYER_METRICS = {
    "ingest.load_s": ("s", "lower"),
    "ingest.tensorize_s": ("s", "lower"),
    "ingest.frames": ("count", "higher"),
    "tensor_ops.hosvd_s": ("s", "lower"),
    "tensor_ops.mode_product_s": ("s", "lower"),
    "tensor_ops.mode_product_calls": ("count", "lower"),
    "tensor_ops.mode_product_flops": ("flop", "lower"),
    "tensor_ops.mode_product_bytes": ("B", "lower"),
    "tensor_ops.reconstruct_s": ("s", "lower"),
    "tensor_ops.reconstruct_calls": ("count", "lower"),
    "nnls.hals_s": ("s", "lower"),
    "nnls.hals_calls": ("count", "lower"),
    "nnls.core_s": ("s", "lower"),
    "nnls.core_calls": ("count", "lower"),
    "decomposition.decompose_s": ("s", "lower"),
    "decomposition.self_s": ("s", "lower"),
    "decomposition.outer_iters": ("count", "lower"),
    "decomposition.cap_hit_frac": ("ratio", "lower"),
    "decomposition.rel_error": ("ratio", "lower"),
    "segmentation.segment_s": ("s", "lower"),
    "segmentation.segment_calls": ("count", "lower"),
    "segmentation.raw_score_calls": ("count", "lower"),
    "segmentation.autosim_s": ("s", "lower"),
    "evaluation.hit_rate_s": ("s", "lower"),
    "evaluation.hit_rate_calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "bench.trace_overhead_frac": ("ratio", "lower"),
}


def layer_metrics(recorder: Recorder, first_pass: set[int], overhead: float) -> dict[str, float]:
    """Per-layer metrics from the spans of traced items."""
    names, name_id, start, end, parent, item, self_time = recorder.arrays()
    duration = end - start
    n_items = len(set(item[item >= 0].tolist()))
    in_first = np.isin(item, sorted(first_pass))
    n_first = len(first_pass)

    def mask(*span_names):
        ids = [names.index(n) for n in span_names if n in names]
        return np.isin(name_id, ids)

    def seconds(*span_names):
        return float(duration[mask(*span_names)].sum()) / n_items

    def calls(span_name):
        return int(np.count_nonzero(mask(span_name) & in_first)) / n_first

    def counted(span_name, key):
        return [c[key] for i, c in recorder.counts if recorder.names[i] == span_name and in_first[i]]

    fits = counted("decomposition.decompose", "outer_iters")
    n_fits = max(len(fits), 1)
    return {
        "ingest.load_s": seconds("ingest.load_chromagram", "ingest.load_bars", "ingest.load_annotation"),
        "ingest.tensorize_s": seconds("ingest.tensorize"),
        "ingest.frames": sum(counted("ingest.tensorize", "frames")) / n_first,
        "tensor_ops.hosvd_s": seconds("tensor_ops.truncated_hosvd"),
        "tensor_ops.mode_product_s": seconds("tensor_ops.mode_product"),
        "tensor_ops.mode_product_calls": calls("tensor_ops.mode_product"),
        "tensor_ops.mode_product_flops": sum(counted("tensor_ops.mode_product", "flops")) / n_first,
        "tensor_ops.mode_product_bytes": sum(counted("tensor_ops.mode_product", "bytes")) / n_first,
        "tensor_ops.reconstruct_s": seconds("tensor_ops.reconstruct"),
        "tensor_ops.reconstruct_calls": calls("tensor_ops.reconstruct"),
        "nnls.hals_s": seconds("nnls.hals_nnls"),
        "nnls.hals_calls": calls("nnls.hals_nnls"),
        "nnls.core_s": seconds("nnls.core_prox_gradient"),
        "nnls.core_calls": calls("nnls.core_prox_gradient"),
        "decomposition.decompose_s": seconds("decomposition.decompose"),
        "decomposition.self_s": float(self_time[mask("decomposition.decompose")].sum()) / n_items,
        "decomposition.outer_iters": sum(fits) / n_fits,
        "decomposition.cap_hit_frac": sum(counted("decomposition.decompose", "cap_hit")) / n_fits,
        "decomposition.rel_error": sum(counted("decomposition.decompose", "rel_error")) / n_fits,
        "segmentation.segment_s": seconds("segmentation.segment"),
        "segmentation.segment_calls": calls("segmentation.segment"),
        "segmentation.raw_score_calls": calls("segmentation.raw_score"),
        "segmentation.autosim_s": seconds("segmentation.autosimilarity_from_features"),
        "evaluation.hit_rate_s": seconds("evaluation.hit_rate"),
        "evaluation.hit_rate_calls": calls("evaluation.hit_rate"),
        "cli.self_s": float(self_time[mask("cli.main")].sum()) / n_items,
        "bench.trace_overhead_frac": overhead,
    }


def module_shares(recorder: Recorder) -> dict[str, float]:
    """Share of traced item wall time spent in each module's own code.

    Self time of every span, summed by module ("bench" is the benchmark's
    code and unwrapped library code between traced calls), over the total
    duration of the item spans; the shares add up to 1.
    """
    names, name_id, start, end, parent, item, self_time = recorder.arrays()
    module = np.array([n.split(".")[0] for n in names])[name_id]
    total = float((end - start)[name_id == names.index("bench.item")].sum())
    return {m: float(self_time[module == m].sum()) / total for m in sorted(set(module.tolist()))}

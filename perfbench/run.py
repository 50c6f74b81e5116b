"""ntdseg benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload paper_song --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
The run writes its inputs from the seed, times set-up, runs one untimed
warm-up item, then runs timed items for about `--seconds` (and at least
once on every input of the pool). Every item's
output files are checked; the first timed item repeats the warm-up's input
and must write byte-identical files.

With `--trace 0` the last stdout line holds the end-to-end metrics. With
`--trace 1` each timed item runs twice, untraced and then traced, and the
last line holds the per-layer metrics from the traced items' spans, whose
outputs must match the untraced ones byte for byte. Runs leave their
result (and the spans, when traced) under `.perfbench_runs/` in the checkout.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SETUP_REPEATS = 5
# Seeds from this one up are held out: results on them check a claim on
# inputs that were not used while the claim was being made.
HELD_OUT_SEEDS_FROM = 1000

END_TO_END = {
    "setup_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "item_s.p50": ("s", "lower"),
    "f_0.5": ("ratio", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}


@dataclass
class Attempt:
    seconds: float
    files: dict[str, bytes] | None  # output name -> bytes, None if the item raised
    quality: dict[str, float] | None  # None if the item failed


def attempt(workload, inp, out: Path, recorder=None, item: int = -1) -> Attempt:
    from workloads import OutputError

    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    try:
        if recorder is None:
            written = workload.run(inp, out)
        else:
            recorder.install()
            try:
                written = recorder.record_item(item, lambda: workload.run(inp, out))
            finally:
                recorder.uninstall()
    except Exception:
        elapsed = time.perf_counter() - start
        traceback.print_exc()
        return Attempt(elapsed, None, None)
    elapsed = time.perf_counter() - start
    files = {p.name: p.read_bytes() for p in written}
    try:
        return Attempt(elapsed, files, workload.check(inp, out))
    except OutputError as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        return Attempt(elapsed, files, None)


def measure_setup() -> list[float]:
    """Seconds from spawning a fresh interpreter to `ready.py` being ready.

    The child reports when it is ready on the monotonic clock, which Linux
    keeps system-wide, so the figure does not depend on how promptly the
    parent notices the child's exit.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        done = subprocess.run([sys.executable, str(HERE / "ready.py")], env=env, check=True,
                              stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              timeout=120)
        times.append(float(done.stdout.split()[-1]) - start)
    return times


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "seed": seed,
        "held_out_seed": seed >= HELD_OUT_SEEDS_FROM,
    }


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for path in paths:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    fn = getattr(lib, symbol)
                    fn.restype = ctypes.c_int
                    return int(fn())
    except OSError:
        pass
    return None


def timed_loop(workload, pool, work: Path, seconds: float, warm: Attempt, recorder):
    """Run timed items (pairs, when traced) until the deadline; see the module doc."""
    untraced: list[Attempt] = []
    traced: list[Attempt] = []
    failed = 0
    quality: dict[int, dict[str, float]] = {}
    start = time.perf_counter()
    k = 0
    while True:
        index = k % len(pool)
        a = attempt(workload, pool[index], work / "item")
        untraced.append(a)
        ok = a.quality is not None
        if k == 0 and a.files != warm.files:
            print("determinism check failed: the first item's outputs differ from the "
                  "warm-up's on the same input", file=sys.stderr)
            ok = False
        if recorder is not None:
            t = attempt(workload, pool[index], work / "traced", recorder, item=k)
            traced.append(t)
            if t.files != a.files:
                print("traced item's outputs differ from the untraced item's", file=sys.stderr)
                ok = False
        if ok:
            quality.setdefault(index, a.quality)
        else:
            failed += 1
        k += 1
        # Stop once the next item would end more than half an item past the
        # deadline, so the timed span is about `seconds` on average.
        per_item = sum(statistics.median(a.seconds for a in runs) for runs in (untraced, traced) if runs)
        if k >= len(pool) and time.perf_counter() - start + per_item / 2 > seconds:
            return untraced, traced, failed, quality


def run_workload(workload, seed: int, seconds: float, trace: bool, work: Path):
    """One run: returns the result object, summary lines and a fuller record."""
    setup = [] if trace else measure_setup()
    env = environment(seed)
    (work / "inputs").mkdir(parents=True)
    pool = workload.prepare(seed, work / "inputs")
    warm = attempt(workload, pool[0], work / "warm")
    recorder = tracing.Recorder() if trace else None
    untraced, traced, failed, quality = timed_loop(workload, pool, work, seconds, warm, recorder)
    failed += warm.quality is None
    attempted = 1 + len(untraced)

    times = [a.seconds for a in untraced]
    figures = {key: statistics.fmean(q[key] for q in quality.values())
               for key in next(iter(quality.values()), {})}
    lines = [
        f"workload {workload.name}: {workload.item}",
        f"environment {json.dumps(env)}",
        f"warm-up item = {warm.seconds:.4f} s",
        f"items_per_s = {len(times) / sum(times):.5f} 1/s ({len(times)} timed items)",
        f"item_s.p50 = {statistics.median(times):.4f} s (n={len(times)})",
        *(f"{key} = {value:.6f} ratio (mean over {len(quality)} of {len(pool)} inputs)"
          for key, value in figures.items()),
        f"fail_frac = {failed / attempted:.4f} ratio ({failed} of {attempted} items, warm-up included)",
    ]
    if trace:
        overhead = sum(t.seconds for t in traced) / sum(times) - 1.0
        metrics = tracing.layer_metrics(recorder, set(range(len(pool))), overhead)
        units = tracing.LAYER_METRICS
        shares = tracing.module_shares(recorder)
        lines.append("self-time share of traced item wall: " + ", ".join(
            f"{m} {s:.1%}" for m, s in sorted(shares.items(), key=lambda kv: -kv[1])))
        recorder.save(work / "spans.npz")
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "items_per_s": len(times) / sum(times),
            "item_s.p50": statistics.median(times),
            "f_0.5": figures.get("f_0.5", 0.0),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        shares = None
        lines[2:2] = [f"setup_s = {metrics['setup_s']:.4f} s (median of {len(setup)} fresh interpreters)"]
        lines.append(f"peak_rss_mb = {metrics['peak_rss_mb']:.2f} MiB")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name][0]} for name, value in metrics.items()},
    }
    record = {**result, "workload": workload.name, "environment": env, "setup_runs_s": setup,
              "item_s": times, "traced_item_s": [t.seconds for t in traced], "quality": figures,
              "module_shares": shares}
    return result, lines, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ntdseg" / "__init__.py").is_file():
        print(f"error: no ntdseg sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result, lines, record = run_workload(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    finally:
        for sub in ("inputs", "warm", "item", "traced"):
            shutil.rmtree(work / sub, ignore_errors=True)
    (work / "result.json").write_text(json.dumps(record, indent=1))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

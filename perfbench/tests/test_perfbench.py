"""Tests of the benchmark itself, on small versions of its workloads.

Run from the repository root with `python -m pytest perfbench/tests`.
"""
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import songs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import OutputError, Workload  # noqa: E402

# Per-layer metrics that are counts or fit quality, not times: two traced
# runs on one seed must give exactly the same values.
EXACT = (
    "ingest.frames",
    "tensor_ops.mode_product_calls",
    "tensor_ops.mode_product_flops",
    "tensor_ops.mode_product_bytes",
    "tensor_ops.reconstruct_calls",
    "nnls.hals_calls",
    "nnls.core_calls",
    "decomposition.outer_iters",
    "decomposition.cap_hit_frac",
    "decomposition.rel_error",
    "segmentation.segment_calls",
    "segmentation.raw_score_calls",
    "evaluation.hit_rate_calls",
)

SMALL = {
    "song": Workload("song", "", workloads.song_pool(2, 16), workloads.run_song,
                     workloads.check_song),
    "resampled": Workload("resampled", "", workloads.song_pool(1, 16, fps=43.0),
                          workloads.run_song, workloads.check_song),
    "sweep": Workload("sweep", "", workloads.song_pool(1, 16), workloads.run_sweep,
                      workloads.check_sweep),
    "corpus": Workload("corpus", "",
                       lambda seed, d: [workloads.song_pool(2, 16)(seed, d)],
                       workloads.run_lambda, workloads.check_lambda),
}


@pytest.fixture(autouse=True)
def small_fits(monkeypatch):
    """Low ranks and few outer iterations keep every item well under a second."""
    monkeypatch.setattr(workloads, "RANKS", ("--t-rank", "4", "--b-rank", "4", "--max-outer-iters", "5"))
    monkeypatch.setattr(workloads, "OUTER_CAP", 5)
    monkeypatch.setattr(workloads, "GRID_CORNERS", (4, 8))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counts_and_quality_repeat_exactly(name, tmp_path):
    runs = []
    for k in range(2):
        work = tmp_path / str(k)
        result, _, record = run.run_workload(SMALL[name], 7, 0.0, True, work)
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(tracing.LAYER_METRICS)
        runs.append((result["metrics"], record["quality"]))
    (first, first_quality), (second, second_quality) = runs
    for key in EXACT:
        assert first[key]["value"] == second[key]["value"], key
    assert first["tensor_ops.mode_product_calls"]["value"] > 0
    assert first_quality == second_quality
    assert set(first_quality) >= {"f_0.5"}


def test_untraced_run_reports_every_end_to_end_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    result, lines, _ = run.run_workload(SMALL["song"], 3, 0.0, False, tmp_path)
    assert result["correct"] and result["attempted"] == 3
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("fail_frac = 0.0000") for line in lines)


@pytest.fixture
def song(tmp_path):
    return songs.write_song(tmp_path, "s", 5, 0, 12)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "0.0 4.0 S0\n4.0 x S1\n",
        "0.0 4.0 S0\n6.0 24.0 S1\n",  # gap
        "0.0 4.0 S0\n4.0 4.0 S1\n4.0 24.0 S2\n",  # repeated boundary
        "0.0 5.0 S0\n5.0 24.0 S1\n",  # off the bar grid
        "0.0 4.0 S0\n4.0 22.0 S1\n",  # stops before the song end
        "2.0 4.0 S0\n4.0 24.0 S1\n",  # starts after 0
    ],
)
def test_boundary_check_rejects_bad_files(song, tmp_path, text):
    path = tmp_path / "est.txt"
    path.write_text(text)
    with pytest.raises(OutputError):
        workloads.read_boundaries(path, song)


def test_boundary_check_accepts_a_valid_file(song, tmp_path):
    path = tmp_path / "est.txt"
    path.write_text("0.0 8.0 S0\n8.0 24.0 S1\n")
    assert workloads.read_boundaries(path, song) == [0.0, 8.0, 24.0]


def test_determinism_check_counts_a_differing_repeat(tmp_path):
    calls = []

    def flaky_run(inp, out):
        calls.append(inp)
        path = out / "out.txt"
        path.write_text(str(len(calls)))
        return [path]

    flaky = Workload("flaky", "", lambda seed, d: [0], flaky_run, lambda inp, out: {"f_0.5": 1.0})
    warm = run.attempt(flaky, 0, tmp_path / "warm")
    _, _, failed, _ = run.timed_loop(flaky, [0], tmp_path, 0.0, warm, None)
    assert failed == 1


def test_benchmark_json_matches_the_code():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == tracing.LAYER_METRICS

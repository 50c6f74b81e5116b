import json

import numpy as np

from ntdseg.cli import main
from ntdseg.decomposition import NtdModel
from ntdseg.ingest import load_annotation, load_bars, load_chromagram


def run(*argv):
    return main(list(argv))


def synth_args(prefix, **overrides):
    args = {
        "pattern-count": 2,
        "block-bars": 8,
        "blocks": 3,
        "frames-per-bar": 8,
        "pitch-classes": 6,
        "noise": 0.0,
        "seed": 0,
        "out-prefix": str(prefix),
    }
    args.update(overrides)
    flat = ["synth"]
    for key, value in args.items():
        flat += [f"--{key}", str(value)]
    return flat


def test_synth_segment_evaluate_pipeline(tmp_path):
    prefix = tmp_path / "song"
    assert run(*synth_args(prefix)) == 0
    chroma = f"{prefix}.chroma.json"
    bars = f"{prefix}.bars.json"
    ref = f"{prefix}.ref.txt"
    est = str(tmp_path / "est.txt")
    assert run(
        "segment", "--chroma", chroma, "--bars", bars, "--frames-per-bar", "8",
        "--t-rank", "4", "--b-rank", "2", "--lambda", "1.0", "--out", est,
    ) == 0
    scores = str(tmp_path / "scores.tsv")
    assert run("evaluate", "--estimate", est, "--reference", ref, "--out", scores) == 0
    rows = [line.split("\t") for line in open(scores).read().strip().split("\n")]
    assert rows[0][0] == "tolerance"
    by_tol = {float(r[0]): float(r[3]) for r in rows[1:]}
    assert by_tol[0.5] == 1.0


def test_decompose_deterministic(tmp_path):
    prefix = tmp_path / "song"
    assert run(*synth_args(prefix)) == 0
    out1, out2 = str(tmp_path / "m1.json"), str(tmp_path / "m2.json")
    common = [
        "decompose", "--chroma", f"{prefix}.chroma.json", "--bars", f"{prefix}.bars.json",
        "--frames-per-bar", "8", "--t-rank", "4", "--b-rank", "2",
    ]
    assert run(*common, "--out", out1) == 0
    assert run(*common, "--out", out2) == 0
    assert open(out1).read() == open(out2).read()
    model = NtdModel.from_json(open(out1).read())
    assert model.q.shape == (24, 2)
    assert json.loads(open(out1).read())["config"]["fix_w_to_identity"] is True


def test_synth_artifacts_round_trip(tmp_path):
    prefix = tmp_path / "song"
    assert run(*synth_args(prefix, noise=0.05)) == 0
    chroma = load_chromagram(f"{prefix}.chroma.json")
    bars = load_bars(f"{prefix}.bars.json")
    ref = load_annotation(f"{prefix}.ref.txt")
    assert chroma.n_pitch_classes == 6
    assert bars.n_bars == 24
    assert ref.boundaries()[0] == 0.0


def test_sweep_command(tmp_path):
    prefix = tmp_path / "song"
    assert run(*synth_args(prefix)) == 0
    out = str(tmp_path / "sweep.tsv")
    assert run(
        "sweep", "--chroma", f"{prefix}.chroma.json", "--bars", f"{prefix}.bars.json",
        "--reference", f"{prefix}.ref.txt", "--frames-per-bar", "8",
        "--rank-min", "2", "--rank-max", "4", "--rank-step", "2", "--out", out,
    ) == 0
    lines = open(out).read().strip().split("\n")
    assert len(lines) == 1 + 4  # header + 2x2 grid


def test_zero_rank_step_rejected(tmp_path, capsys):
    prefix = tmp_path / "song"
    assert run(*synth_args(prefix)) == 0
    out = tmp_path / "sweep.tsv"
    code = run(
        "sweep", "--chroma", f"{prefix}.chroma.json", "--bars", f"{prefix}.bars.json",
        "--reference", f"{prefix}.ref.txt", "--frames-per-bar", "8",
        "--rank-step", "0", "--out", str(out),
    )
    assert code == 1
    assert "rank step must be positive, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_missing_input_reports_path(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    code = run(
        "decompose", "--chroma", missing, "--bars", missing,
        "--out", str(tmp_path / "m.json"),
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "nope.json" in err


def test_nan_lambda_rejected(tmp_path, capsys):
    prefix = tmp_path / "song"
    assert run(*synth_args(prefix)) == 0
    code = run(
        "segment", "--chroma", f"{prefix}.chroma.json", "--bars", f"{prefix}.bars.json",
        "--frames-per-bar", "8", "--lambda", "nan", "--out", str(tmp_path / "est.txt"),
    )
    assert code == 1
    assert "penalty_weight must be a nonnegative finite number" in capsys.readouterr().err
    assert not (tmp_path / "est.txt").exists()


def test_bad_config_reported_before_input_is_read(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    code = run(
        "segment", "--chroma", missing, "--bars", missing, "--lambda", "nan",
        "--out", str(tmp_path / "est.txt"),
    )
    assert code == 1
    assert "penalty_weight must be a nonnegative finite number" in capsys.readouterr().err


def test_autosim_output(tmp_path):
    prefix = tmp_path / "song"
    assert run(*synth_args(prefix)) == 0
    est = str(tmp_path / "est.txt")
    autosim = str(tmp_path / "a.tsv")
    assert run(
        "segment", "--chroma", f"{prefix}.chroma.json", "--bars", f"{prefix}.bars.json",
        "--frames-per-bar", "8", "--t-rank", "4", "--b-rank", "2",
        "--out", est, "--autosim-out", autosim,
    ) == 0
    a = np.loadtxt(autosim, delimiter="\t")
    assert a.shape == (24, 24)
    np.testing.assert_allclose(a, a.T, atol=1e-12)


def test_synth_infinite_noise_rejected(tmp_path, capsys):
    prefix = tmp_path / "song"
    assert run(*synth_args(prefix, noise="inf")) == 1
    assert "noise_level must be a nonnegative finite number" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_synth_zero_pattern_count_rejected(tmp_path, capsys):
    prefix = tmp_path / "song"
    assert run(*synth_args(prefix, **{"pattern-count": 0})) == 1
    assert "--pattern-count must be at least 1, got 0" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_synth_zero_frames_per_bar_rejected(tmp_path, capsys):
    prefix = tmp_path / "song"
    assert run(*synth_args(prefix, **{"frames-per-bar": 0})) == 1
    assert ("patterns need at least one pitch class and one frame, got shape (6, 0)"
            in capsys.readouterr().err)
    assert not list(tmp_path.iterdir())


def test_synth_zero_pitch_classes_rejected(tmp_path, capsys):
    prefix = tmp_path / "song"
    assert run(*synth_args(prefix, **{"pitch-classes": 0})) == 1
    assert ("patterns need at least one pitch class and one frame, got shape (0, 8)"
            in capsys.readouterr().err)
    assert not list(tmp_path.iterdir())


def test_evaluate_bad_tolerance_writes_nothing(tmp_path, capsys):
    prefix = tmp_path / "song"
    assert run(*synth_args(prefix)) == 0
    ref = f"{prefix}.ref.txt"
    out = tmp_path / "scores.tsv"
    code = run(
        "evaluate", "--estimate", ref, "--reference", ref,
        "--tolerance", "0.5", "-1", "--out", str(out),
    )
    assert code == 1
    assert "tolerance must be a positive finite number" in capsys.readouterr().err
    assert not out.exists()

import ntdseg

# The supported public surface. Adding or removing a name is a deliberate
# change to this list.
PUBLIC = [
    "BarGrid",
    "Chromagram",
    "DEFAULT_TOLERANCES",
    "HitRateScore",
    "IngestError",
    "LambdaFit",
    "NtdConfig",
    "NtdModel",
    "NtdRanks",
    "ReferenceSegmentation",
    "Segmentation",
    "SegmentationConfig",
    "autosimilarity_from_features",
    "boundaries_to_times",
    "core_prox_gradient",
    "decompose",
    "default_rank_grid",
    "fit_lambda",
    "hals_nnls",
    "hit_rate",
    "initialize",
    "load_annotation",
    "load_bars",
    "load_chromagram",
    "mode_product",
    "normalize",
    "oracle_select",
    "parameter_count",
    "penalty",
    "rank_sweep",
    "raw_score",
    "reconstruct",
    "save_annotation",
    "save_bars",
    "save_chromagram",
    "segment",
    "segment_song",
    "synth_song",
    "tensor_to_chromagram",
    "tensorize",
    "truncated_hosvd",
]


def test_public_surface():
    assert sorted(ntdseg.__all__) == PUBLIC

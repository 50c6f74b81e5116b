"""Bring a fresh interpreter to the point where it can run benchmark items.

Imports ntdseg (numpy and the CLI included) and passes one tiny song
through every layer once, so first-call costs are paid. Then it prints the
monotonic clock, which `run.py` subtracts from its own reading at spawn to
get the benchmark's set-up time.
"""
import time

import numpy as np

import ntdseg
from ntdseg import cli

cli.build_parser()
rng = np.random.default_rng(0)
patterns = [rng.uniform(0.0, 1.0, (12, 96)) for _ in range(2)]
tensor, bars, reference = ntdseg.synth_song(patterns, [0] * 8 + [1] * 8, noise_level=0.1)
x = ntdseg.tensorize(ntdseg.tensor_to_chromagram(tensor, bars), bars)
model = ntdseg.decompose(
    x, ntdseg.NtdRanks(12, 4, 4), ntdseg.NtdConfig(fix_w_to_identity=True, max_outer_iters=2)
)
segmentation = ntdseg.segment(ntdseg.autosimilarity_from_features(model.q))
times = ntdseg.boundaries_to_times(segmentation, bars).boundary_times
ntdseg.hit_rate(reference.boundaries(), list(times), 0.5)
print(time.monotonic())

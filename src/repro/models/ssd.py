"""SSD post-processing (paper workload #2, CV).

The textbook SSD decode: variance-weighted offsets applied to priors
through in-place slice arithmetic, corner conversion in place, then an
imperative per-class loop that writes thresholded class scores into an
output buffer — trips that write disjoint class columns, which
TensorSSA's loop batching lowers to one store of the whole window.
"""

from __future__ import annotations

import repro.runtime as rt

from .boxes import cxcywh_to_xyxy_
from .common import make_priors, synth

NAME = "ssd"
DOMAIN = "cv"
NUM_CLASSES = 21
NUM_PRIORS = 4096


def ssd_postprocess(loc, conf, priors):
    """SSD prior decode (slice mutations) + per-class filter loop (imperative)."""
    b = loc.shape[0]
    n = loc.shape[1]
    c = conf.shape[2]

    # -- decode (variances 0.1 / 0.2), partial mutation via slices -------
    boxes = rt.zeros_like(loc)
    boxes[:, :, 0:2] = priors[:, 0:2] + loc[:, :, 0:2] * 0.1 * priors[:, 2:4]
    boxes[:, :, 2:4] = priors[:, 2:4] * rt.exp(
        rt.clamp(loc[:, :, 2:4] * 0.2, -4.0, 4.0))
    boxes = cxcywh_to_xyxy_(boxes)

    # -- per-class confidence filtering (imperative loop) -----------------
    scores = rt.softmax(conf, 2)
    filtered = rt.zeros((b, n, c))
    for k in range(1, c):  # class 0 is background
        cls_scores = scores[:, :, k]
        keep = (cls_scores > 0.05).to(rt.float32)
        filtered[:, :, k] = cls_scores * keep

    best_scores = filtered.max(2)
    return boxes, filtered, best_scores


def make_inputs(batch_size: int = 1, seq_len: int = 64, seed: int = 0):
    """Seeded synthetic inputs for this workload (batch_size / seq_len scale the sweep axes)."""
    del seq_len
    loc = synth((batch_size, NUM_PRIORS, 4), seed, -1.0, 1.0)
    conf = synth((batch_size, NUM_PRIORS, NUM_CLASSES), seed + 1, -3.0, 3.0)
    priors = make_priors(NUM_PRIORS, seed=seed + 2)
    return loc, conf, priors


MODEL_FN = ssd_postprocess

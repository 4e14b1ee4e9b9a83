"""Shared helpers for the workload models.

The paper runs model *backbones* through TensorRT and compares compilers
only on the imperative post-processing / recurrent parts; we therefore
synthesize backbone outputs with seeded generators of realistic shapes
and value ranges.
"""

from __future__ import annotations

import numpy as np

import repro.runtime as rt


def synth(shape, seed, low=-1.0, high=1.0):
    """A seeded float32 tensor in [low, high) — a synthetic backbone
    activation."""
    rng = np.random.default_rng(seed)
    arr = rng.uniform(low, high, size=tuple(shape)).astype(np.float32)
    return rt.from_numpy(arr)


def make_grid(n, seed=None):
    """Cell-center coordinates for ``n`` anchor positions: (n, 2)."""
    side = int(np.ceil(np.sqrt(n)))
    ys, xs = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    pts = np.stack([xs.ravel(), ys.ravel()], axis=-1)[:n]
    return rt.from_numpy(pts.astype(np.float32))


def make_priors(n, seed=0):
    """SSD-style prior boxes (cx, cy, w, h) in [0, 1]: (n, 4)."""
    rng = np.random.default_rng(seed)
    cxcy = rng.random((n, 2)).astype(np.float32)
    wh = (rng.random((n, 2)) * 0.3 + 0.05).astype(np.float32)
    return rt.from_numpy(np.concatenate([cxcy, wh], axis=1))

"""Bucketed padding: coalesce near-miss sequence lengths into one run.

A batcher that groups on *exact* sequence length fragments diverse
traffic into tiny per-length batches.  The standard serving fix is
bucketing: round each request's variable extent up to a power-of-two
bucket (``>= BUCKET_MIN``), zero-pad the sequence axis to the bucket,
run one batch per bucket, and slice the real rows back out on
scatter.  Padding happens host-side (no device launches), and the
un-padded region's bit-exactness is enforced by the executor's
existing ``verify="batch"`` oracle, which runs eager on the *identical
padded inputs* and un-pads both sides the same way.

A :class:`PadSpec` names, per workload, which argument carries the
padded extent (and on which axis) and which *axes of each output*
carry it back — an output may carry it on several axes (attention's
probabilities are ``(B, T, T)``).  Workloads whose recurrences fold
the whole sequence into their final state (LSTM's ``h``/``c``) expose
padded-length state; that is the documented numerics contract of
bucketing (same shape as the batching GEMM note), and the oracle holds
because eager sees the same padded inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.runtime as rt

__all__ = ["BUCKET_MIN", "PadSpec", "PAD_SPECS", "get_pad_spec",
           "bucket_extent", "pad_args", "unpad_outputs", "request_extent"]

#: smallest padding bucket; buckets are ``BUCKET_MIN * 2**k``
BUCKET_MIN = 8


@dataclass(frozen=True)
class PadSpec:
    """Where the padded (sequence) extent lives in args and outputs.

    ``arg_axes[i]`` is the padded axis of argument ``i`` or None when
    the argument has no sequence extent; ``out_axes[k]`` is the tuple
    of axes of output ``k`` that carry the padded extent (an output
    can carry it more than once), or None.
    """

    arg_axes: Tuple[Optional[int], ...]
    out_axes: Tuple[Optional[Tuple[int, ...]], ...]


#: Per-workload padded-axis metadata.  RNN-style workloads are
#: time-major — the sequence extent is axis 0 of the activations;
#: attention is batch-major with the sequence on axis 1, and its
#: probability output carries the extent twice (rows and columns).
PAD_SPECS: Dict[str, PadSpec] = {
    # lstm(x, wx, wh, bias, h0, c0) -> (out, h, c): x is (T, B, D)
    "lstm": PadSpec(arg_axes=(0, None, None, None, None, None),
                    out_axes=((0,), None, None)),
    # nasrnn(x, wx, wh, h0) -> (out, h): x is (T, B, D)
    "nasrnn": PadSpec(arg_axes=(0, None, None, None),
                      out_axes=((0,), None)),
    # attention(q, k, v) -> (ctx, probs): inputs (B, T, D),
    # probs is (B, T, T)
    "attention": PadSpec(arg_axes=(1, 1, 1),
                         out_axes=((1,), (1, 2))),
}


def get_pad_spec(workload_name: str) -> Optional[PadSpec]:
    """Pad axes for a workload, or None when it cannot be bucketed."""
    return PAD_SPECS.get(workload_name)


def bucket_extent(extent: int, bucket_min: int = BUCKET_MIN) -> int:
    """The power-of-two bucket an extent rounds up into.

    Extents at or below ``bucket_min`` share the smallest bucket;
    larger extents round up to the next power of two, so the number of
    distinct compiled shapes grows logarithmically with the extent
    range instead of linearly.
    """
    if extent <= bucket_min:
        return bucket_min
    bucket = bucket_min
    while bucket < extent:
        bucket *= 2
    return bucket


def request_extent(spec: Optional[PadSpec], args: Sequence) -> Optional[int]:
    """The sequence extent of one request's args (None when unknown)."""
    if spec is None:
        return None
    for i, axis in enumerate(spec.arg_axes):
        if axis is not None and i < len(args) \
                and isinstance(args[i], rt.Tensor):
            return int(args[i].shape[axis])
    return None


def _pad_axis(t: rt.Tensor, axis: int, target: int) -> rt.Tensor:
    """Zero-pad ``t`` along ``axis`` up to ``target`` (host-side)."""
    arr = t.numpy()
    have = arr.shape[axis]
    if have == target:
        return t
    if have > target:
        raise ValueError(
            f"cannot pad axis {axis} down: {have} > {target}")
    widths = [(0, 0)] * arr.ndim
    widths[axis] = (0, target - have)
    padded = np.pad(arr, widths, mode="constant")
    return rt.Tensor.from_array(np.ascontiguousarray(padded), copy=False)


def pad_args(args: Sequence, spec: PadSpec, target: int) -> tuple:
    """Pad every sequence-carrying argument up to the bucket extent."""
    out: List[object] = []
    for i, arg in enumerate(args):
        axis = spec.arg_axes[i] if i < len(spec.arg_axes) else None
        if axis is None or not isinstance(arg, rt.Tensor):
            out.append(arg)
        else:
            out.append(_pad_axis(arg, axis, target))
    return tuple(out)


def _slice_axis(t: rt.Tensor, axis: int, extent: int) -> rt.Tensor:
    arr = t.numpy()
    if arr.shape[axis] == extent:
        return t
    index = [slice(None)] * arr.ndim
    index[axis] = slice(0, extent)
    return rt.Tensor.from_array(np.ascontiguousarray(arr[tuple(index)]),
                                copy=False)


def unpad_outputs(outputs: Sequence, spec: PadSpec, extent: int) -> tuple:
    """Slice each output back to the request's real sequence extent."""
    out: List[object] = []
    for k, val in enumerate(outputs):
        axes = spec.out_axes[k] if k < len(spec.out_axes) else None
        if axes is None or not isinstance(val, rt.Tensor):
            out.append(val)
        else:
            for axis in axes:
                val = _slice_axis(val, axis, extent)
            out.append(val)
    return tuple(out)

"""Dynamic batching: coalesce compatible requests into one device run.

The paper's pitch is that functionalization makes horizontal
parallelization legal (§4.2.2, §5); the serving-layer corollary is that
*requests* parallelize the same way: inputs from many users concatenate
along the workload's batch axis, the compiled graph runs once, and the
outputs scatter back per request.

A :class:`BatchSpec` names, per workload, which arguments carry the
batch axis (and where it sits) and which are shared model state
(weights, priors, grids).  Two requests coalesce only when

* they target the same (workload, pipeline, platform) triple,
* their *shared* arguments are the same tensors (object identity —
  the server contract is that model state is loaded once and reused),
* their batched arguments agree on every non-batch dimension and dtype
  (the same shape-specialization rule the compile cache keys on), and
* their non-tensor arguments are equal.

Workloads without a spec still serve — each request just executes
unbatched.

Numerics contract: batching changes GEMM shapes, and BLAS may pick a
different (equally correct) reduction order per shape, so a batched
result can differ from the same request served alone in the last float
bits.  What *is* guaranteed — and what the executor's ``verify="batch"``
oracle checks — is bit-exactness between the compiled pipeline and
eager on the identical coalesced inputs.  Unbatched requests are
bit-exact with solo eager.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.runtime as rt

from ..symshape.bucketing import (PadSpec, bucket_extent, get_pad_spec,
                                  pad_args, request_extent, unpad_outputs)
from .request import Request


@dataclass(frozen=True)
class BatchSpec:
    """Where the batch axis lives in a workload's args and outputs.

    ``arg_axes[i]`` is the batch axis of argument ``i``, or None when
    the argument is shared model state (or a non-tensor scalar).
    ``out_axes`` likewise for the model's outputs.
    """

    arg_axes: Tuple[Optional[int], ...]
    out_axes: Tuple[Optional[int], ...]


#: Per-workload batch-axis metadata for the registry models.  RNN-style
#: workloads carry time-major activations (T, B, D) — batch axis 1 —
#: with batch-major state (B, H); CV heads and attention are
#: batch-major throughout.  Shared entries (None) are weights/priors.
BATCH_SPECS: Dict[str, BatchSpec] = {
    # lstm(x, wx, wh, bias, h0, c0) -> (out, h, c)
    "lstm": BatchSpec(arg_axes=(1, None, None, None, 0, 0),
                      out_axes=(1, 0, 0)),
    # nasrnn(x, wx, wh, h0) -> (out, h)
    "nasrnn": BatchSpec(arg_axes=(1, None, None, 0),
                        out_axes=(1, 0)),
    # seq2seq(src, enc_wx, enc_wh, enc_b, dec_wx, dec_wh, dec_b,
    #         embed, w_out, h0, c0, dec_steps) -> (tokens, logits_sum, h)
    "seq2seq": BatchSpec(
        arg_axes=(1, None, None, None, None, None, None, None, None,
                  0, 0, None),
        out_axes=(1, 0, 0)),
    # attention(q, k, v) -> (ctx, probs)
    "attention": BatchSpec(arg_axes=(0, 0, 0), out_axes=(0, 0)),
    # ssd(loc, conf, priors) -> (boxes, filtered, best_scores)
    "ssd": BatchSpec(arg_axes=(0, 0, None), out_axes=(0, 0, 0)),
    # yolov3(p0, p1, p2, g0, g1, g2, a0, a1, a2) -> (boxes, scores)
    "yolov3": BatchSpec(
        arg_axes=(0, 0, 0, None, None, None, None, None, None),
        out_axes=(0, 0)),
}


def get_batch_spec(workload_name: str) -> Optional[BatchSpec]:
    """Batch axes for a workload, or None when it cannot be batched."""
    return BATCH_SPECS.get(workload_name)


def group_lane(requests: Sequence[Request]) -> int:
    """The scheduling lane of a group: its highest member priority.

    One urgent member lifts the whole group (standard priority
    inheritance — coalescing it with lower-priority peers is free, so
    the peers ride along rather than splitting the batch).
    """
    return max((r.priority for r in requests), default=0)


def group_min_deadline(requests: Sequence[Request]) -> Optional[float]:
    """The earliest absolute deadline across ``requests`` (None when no
    member carries one).  The scheduler's urgency and wake timing key
    on this — not just on the oldest member — so a late-submitted
    tight-deadline request cannot starve behind a relaxed one."""
    deadlines = [r.deadline for r in requests if r.deadline is not None]
    return min(deadlines) if deadlines else None


def request_rows(spec: Optional[BatchSpec], args: Sequence) -> int:
    """Rows this request occupies along the batch axis (1 if unknown)."""
    if spec is None:
        return 1
    for i, axis in enumerate(spec.arg_axes):
        if axis is not None and isinstance(args[i], rt.Tensor):
            return int(args[i].shape[axis])
    return 1


def group_key(req: Request, bucket_min: Optional[int] = None) -> tuple:
    """Coalescing key: requests with equal keys may share one batch.

    Built from the same ingredients as the compile cache's
    shape-specialization key, minus the batch extent itself (which the
    coalesced run sums), plus the identity of shared model state.
    Requests without a spec get a key unique to themselves.

    With ``bucket_min`` set (dynamic-shape serving), each argument's
    padded sequence extent is replaced by its power-of-two bucket, so
    near-miss lengths (12, 13, 16 -> bucket 16) land in one group and
    ``coalesce`` pads them to a common extent.
    """
    spec = get_batch_spec(req.workload.name)
    if spec is None:
        return (req.workload.name, req.pipeline, req.platform,
                "solo", req.id)
    pad_spec = get_pad_spec(req.workload.name) if bucket_min else None
    parts: List[object] = [req.workload.name, req.pipeline, req.platform]
    for i, axis in enumerate(spec.arg_axes):
        arg = req.args[i] if i < len(req.args) else None
        if axis is None:
            # shared state: same tensor object, or equal scalar
            parts.append(("shared", id(arg)) if isinstance(arg, rt.Tensor)
                         else ("scalar", arg))
        else:
            if not isinstance(arg, rt.Tensor):
                return (req.workload.name, req.pipeline, req.platform,
                        "solo", req.id)
            shape = list(arg.shape)
            shape[axis] = -1  # batch extent is free
            if pad_spec is not None and i < len(pad_spec.arg_axes):
                pad_axis = pad_spec.arg_axes[i]
                if pad_axis is not None and pad_axis != axis:
                    shape[pad_axis] = -bucket_extent(shape[pad_axis],
                                                     bucket_min)
            parts.append(("batched", axis, tuple(shape), str(arg.dtype)))
    return tuple(parts)


@dataclass
class BatchPlan:
    """One coalesced execution: composed args plus the scatter map."""

    requests: List[Request]
    args: tuple
    spec: Optional[BatchSpec]
    #: per-request (row_start, row_end) along the batch axis
    segments: List[Tuple[int, int]]
    #: bucketed-padding bookkeeping (dynamic-shape serving only):
    #: the pad spec, the common bucket extent the args were padded to,
    #: and each request's real (pre-pad) extent for un-padding
    pad_spec: Optional[PadSpec] = None
    pad_bucket: Optional[int] = None
    pad_extents: Optional[List[int]] = None

    @property
    def total_rows(self) -> int:
        return self.segments[-1][1] if self.segments else 0

    @property
    def padded_units(self) -> int:
        """Sequence units executed after padding (0 when not padded)."""
        if self.pad_bucket is None or self.pad_extents is None:
            return 0
        return self.pad_bucket * len(self.pad_extents)

    @property
    def real_units(self) -> int:
        """Sequence units the requests actually asked for."""
        return sum(self.pad_extents) if self.pad_extents else 0


def coalesce(requests: Sequence[Request],
             bucket_min: Optional[int] = None) -> BatchPlan:
    """Compose one batch from same-group requests (order preserved).

    A single request passes through without concatenation, so solo
    execution costs nothing extra and stays bitwise identical to an
    unserved ``run_workload`` call.

    With ``bucket_min`` set, every request's sequence axis is
    zero-padded up to the group's power-of-two bucket before
    composition (host-side) and the plan records each request's real
    extent so :func:`scatter` can un-pad; solo requests are padded too,
    keeping the compiled shape stream bucketed.
    """
    reqs = list(requests)
    spec = get_batch_spec(reqs[0].workload.name)
    segments: List[Tuple[int, int]] = []
    row = 0
    for r in reqs:
        rows = request_rows(spec, r.args)
        segments.append((row, row + rows))
        row += rows

    pad_spec = None
    pad_bucket = None
    pad_extents = None
    req_args: List[tuple] = [r.args for r in reqs]
    if bucket_min and spec is not None:
        pspec = get_pad_spec(reqs[0].workload.name)
        if pspec is not None:
            extents = [request_extent(pspec, r.args) for r in reqs]
            if all(e is not None for e in extents):
                pad_spec = pspec
                pad_extents = [int(e) for e in extents]
                pad_bucket = max(bucket_extent(e, bucket_min)
                                 for e in pad_extents)
                req_args = [pad_args(a, pspec, pad_bucket)
                            for a in req_args]

    if len(reqs) == 1 or spec is None:
        return BatchPlan(requests=reqs, args=req_args[0], spec=spec,
                         segments=segments[:1], pad_spec=pad_spec,
                         pad_bucket=pad_bucket, pad_extents=pad_extents)
    composed: List[object] = []
    for i, axis in enumerate(spec.arg_axes):
        if axis is None:
            composed.append(req_args[0][i])
        else:
            composed.append(rt.cat([a[i] for a in req_args], axis))
    return BatchPlan(requests=reqs, args=tuple(composed), spec=spec,
                     segments=segments, pad_spec=pad_spec,
                     pad_bucket=pad_bucket, pad_extents=pad_extents)


def _slice_rows(t: rt.Tensor, axis: int, start: int, end: int) -> rt.Tensor:
    """A fresh tensor holding rows [start, end) of ``t`` along ``axis``
    (host-side scatter: no device launch is recorded)."""
    arr = t.numpy()
    index = [slice(None)] * arr.ndim
    index[axis] = slice(start, end)
    return rt.Tensor.from_array(np.ascontiguousarray(arr[tuple(index)]),
                                copy=False)


def scatter(outputs, plan: BatchPlan) -> List[tuple]:
    """Split batched outputs back into per-request output tuples,
    un-padding each back to its real sequence extent when the plan
    was bucketed."""
    outs = rt.as_tuple(outputs)
    if plan.spec is None or len(plan.requests) == 1:
        per_request = [outs]
    else:
        per_request = []
        for start, end in plan.segments:
            sliced = []
            for k, out in enumerate(outs):
                axis = plan.spec.out_axes[k] \
                    if k < len(plan.spec.out_axes) else None
                if axis is None or not isinstance(out, rt.Tensor):
                    sliced.append(out)
                else:
                    sliced.append(_slice_rows(out, axis, start, end))
            per_request.append(tuple(sliced))
    if plan.pad_spec is not None and plan.pad_extents:
        per_request = [
            unpad_outputs(outs_i, plan.pad_spec, extent)
            for outs_i, extent in zip(per_request, plan.pad_extents)]
    return per_request

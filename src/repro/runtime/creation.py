"""Tensor creation operators."""

from __future__ import annotations

import contextlib
import contextvars
from typing import Optional, Sequence

import numpy as np

from .dtype import DType, float32, int64
from .kernels import eager_op
from .tensor import Scalar, Tensor, as_tensor, record_op

#: Active float32-promotion override (see :func:`promoting_f32_to`).
_f32_override: contextvars.ContextVar = contextvars.ContextVar(
    "repro_f32_override", default=None)


@contextlib.contextmanager
def promoting_f32_to(dtype: DType):
    """Scope inside which float32 *factory defaults* become ``dtype``.

    The numerical grad-check harness runs models in float64 to get the
    ~1e-6 finite-difference accuracy its tolerances demand, but model
    code allocates scratch buffers with the factory default
    (``rt.zeros(shape)`` == float32), which would silently truncate the
    promoted precision mid-model.  Inside this scope ``zeros`` / ``ones``
    / ``full`` / ``empty`` calls that would produce float32 produce
    ``dtype`` instead; explicit integer/bool dtypes are untouched.
    Context-local, so concurrent runs in other threads keep float32.
    """
    token = _f32_override.set(dtype)
    try:
        yield
    finally:
        _f32_override.reset(token)


def _factory_dtype(dtype: DType) -> DType:
    """Apply the active float32 promotion to a factory dtype."""
    override = _f32_override.get()
    if override is not None and dtype is float32:
        return override
    return dtype


def tensor(data, dtype: Optional[DType] = None) -> Tensor:
    """Build a tensor from (nested) Python data or a numpy array."""
    arr = np.array(data, dtype=dtype.np if dtype else None)
    if dtype is None and arr.dtype == np.float64:
        arr = arr.astype(np.float32)
    return Tensor.from_array(arr, copy=False)


def from_numpy(array: np.ndarray) -> Tensor:
    """Wrap a numpy array (copies, to guarantee storage ownership)."""
    return Tensor.from_array(array, copy=True)


def zeros(shape: Sequence[int], dtype: DType = float32) -> Tensor:
    """Create a fresh ``zeros`` tensor (one allocation kernel)."""
    dtype = _factory_dtype(dtype)
    out = Tensor.from_array(np.zeros(tuple(shape), dtype.np), copy=False)
    record_op("zeros", [], [out], flops=0)
    return out


def ones(shape: Sequence[int], dtype: DType = float32) -> Tensor:
    """Create a fresh ``ones`` tensor (one allocation kernel)."""
    dtype = _factory_dtype(dtype)
    out = Tensor.from_array(np.ones(tuple(shape), dtype.np), copy=False)
    record_op("ones", [], [out], flops=0)
    return out


def full(shape: Sequence[int], value: Scalar,
         dtype: DType = float32) -> Tensor:
    """Create a fresh ``full`` tensor (one allocation kernel)."""
    dtype = _factory_dtype(dtype)
    out = Tensor.from_array(np.full(tuple(shape), value, dtype.np),
                            copy=False)
    record_op("full", [], [out], flops=0)
    return out


def empty(shape: Sequence[int], dtype: DType = float32) -> Tensor:
    """Uninitialized storage — deterministically zeroed here so tests
    never depend on garbage memory."""
    dtype = _factory_dtype(dtype)
    out = Tensor.from_array(np.zeros(tuple(shape), dtype.np), copy=False)
    record_op("empty", [], [out], flops=0)
    return out


def arange(start, end=None, step=1, dtype: DType = int64) -> Tensor:
    """Create a fresh ``arange`` tensor (one allocation kernel)."""
    if end is None:
        start, end = 0, start
    out = Tensor.from_array(np.arange(start, end, step, dtype=dtype.np),
                            copy=False)
    record_op("arange", [], [out], flops=0)
    return out


# ``*_like`` factories follow their template's dtype *exactly* — the
# :func:`promoting_f32_to` override never applies (promotion is decided
# where the template was first allocated).
zeros_like = eager_op(
    "aten::zeros_like",
    "Create a fresh ``zeros_like`` tensor (one allocation kernel).")
ones_like = eager_op(
    "aten::ones_like", "Create a fresh ``ones_like`` tensor (dtype follows "
    "the template exactly; one allocation kernel).")
full_like = eager_op(
    "aten::full_like", "Create a fresh ``full_like`` tensor (dtype follows "
    "the template exactly; one allocation kernel).")


def rand(shape: Sequence[int], seed: Optional[int] = None,
         dtype: DType = float32) -> Tensor:
    """Uniform [0, 1) — seeded explicitly (no hidden global RNG state in
    compiled regions; workloads pre-generate inputs with this)."""
    rng = np.random.default_rng(seed)
    out = Tensor.from_array(rng.random(tuple(shape)).astype(dtype.np),
                            copy=False)
    record_op("rand", [], [out], flops=0)
    return out


def randn(shape: Sequence[int], seed: Optional[int] = None,
          dtype: DType = float32) -> Tensor:
    """Create a fresh ``randn`` tensor (one allocation kernel)."""
    rng = np.random.default_rng(seed)
    out = Tensor.from_array(
        rng.standard_normal(tuple(shape)).astype(dtype.np), copy=False)
    record_op("randn", [], [out], flops=0)
    return out


def stash_init(template, n) -> Tensor:
    """A zeroed ``(n, *template.shape)`` stash buffer.

    The gradient pass's scan-style Loop adjoint records each
    iteration's entering carried state into one of these (row ``i`` =
    iteration ``i``), sized by the loop's *measured* trip count ``n``
    so even ``while``-style loops (``max_trip`` = 2**31-1) stash
    exactly what ran.  Scalar carried values stash as 0-d rows; Python
    floats stash at float64 so replay-from-stash never truncates the
    precision a float64 grad-check run depends on.
    """
    if isinstance(template, float):
        out = Tensor.from_array(np.zeros((int(n),), np.float64), copy=False)
        record_op("stash_init", [], [out], flops=0)
        return out
    tt = as_tensor(template)
    out = Tensor.from_array(
        np.zeros((int(n),) + tt.shape, tt.dtype.np), copy=False)
    record_op("stash_init", [], [out], flops=0)
    return out

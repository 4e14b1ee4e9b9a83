"""Subscript sugar: ``t[key]`` and ``t[key] = value``.

The View operators of the paper's Definition 3.1 are the ``aten::``
rows of :data:`repro.runtime.kernels.KERNELS` that alias their operand:
each returns a tensor that *shares storage* with its base and launches
no kernel (on a real device a view is a stride/offset recomputation on
the host).  Their signatures double as the canonical "view rules" ``[.]``
the TensorSSA pass inverts into ``immut::*_assign`` operators.  Here a
basic subscript becomes a chain of those views, and a subscript store a
mutation through one.
"""

from __future__ import annotations

from typing import Union

from .inplace import copy_, index_put_, masked_scatter_
from .kernels import EAGER
from .tensor import Scalar, Tensor, as_tensor


def getitem(t: Tensor, key) -> Tensor:
    """Python subscript load.

    Basic keys (ints, slices, tuples of them) produce *views*; advanced
    keys (tensor indices, boolean masks) produce copies, as in PyTorch.
    """
    if isinstance(key, Tensor):
        if key.dtype.is_bool:
            from .shape_ops import masked_select
            return masked_select(t, key)
        from .shape_ops import index_select
        return index_select(t, 0, key)
    if not isinstance(key, tuple):
        key = (key,)
    if any(k is Ellipsis for k in key):
        # Expand `...` into the right number of full slices up front.
        pos = key.index(Ellipsis)
        n_specified = sum(1 for k in key
                          if k is not Ellipsis and k is not None)
        fill = (slice(None),) * (t.ndim - n_specified)
        key = key[:pos] + fill + key[pos + 1:]
    out = t
    dim = 0
    for k in key:
        if isinstance(k, int):
            out = EAGER["aten::select"](out, dim, k)
        elif isinstance(k, slice):
            if k.step is not None and k.step <= 0:
                raise ValueError("non-positive slice steps are unsupported")
            out = EAGER["aten::slice"](out, dim, k.start or 0, k.stop,
                                         k.step or 1)
            dim += 1
        elif k is None:
            out = EAGER["aten::unsqueeze"](out, dim)
            dim += 1
        else:
            raise TypeError(f"unsupported subscript element: {k!r}")
    return out


def setitem(t: Tensor, key, value: Union[Tensor, Scalar]) -> None:
    """Python subscript store — a *mutation* of ``t`` through a view."""
    if isinstance(key, Tensor) and key.dtype.is_bool:
        if isinstance(value, Tensor):
            masked_scatter_(t, key, value)
        else:
            EAGER["aten::masked_fill_"](t, key, value)
        return
    if isinstance(key, Tensor):
        index_put_(t, key, as_tensor(value))
        return
    target = getitem(t, key)
    if isinstance(value, Tensor):
        copy_(target, value)
    else:
        EAGER["aten::fill_"](target, value)

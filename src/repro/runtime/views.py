"""View operators: aliasing, metadata-only tensor transformations.

These are the ``View`` operators of the paper's Definition 3.1: each
returns a tensor that *shares storage* with its base.  None of them
launches a kernel — on a real device a view is a stride/offset
recomputation on the host.

The signatures here double as the canonical "view rules" ``[.]`` that
the TensorSSA pass inverts into ``immut::*_assign`` operators, so every
op takes plain, explicit parameters (dim, start, end, ...).
"""

from __future__ import annotations

from typing import Union

from .kernels import view_op
from .tensor import Scalar, Tensor, as_tensor

# Each view is the aliasing form of its kernel-table row: the kernel's
# numpy view (argument checks included) wrapped over the base's storage.
alias = view_op("aten::alias")
select = view_op("aten::select")
slice_ = view_op("aten::slice")
narrow = view_op("aten::narrow")
reshape = view_op("aten::reshape")
view = view_op("aten::view")
permute = view_op("aten::permute")
transpose = view_op("aten::transpose")
squeeze = view_op("aten::squeeze")
unsqueeze = view_op("aten::unsqueeze")
expand = view_op("aten::expand")
flatten = view_op("aten::flatten")


# ---------------------------------------------------------------------------
# Subscript sugar: __getitem__ / __setitem__
# ---------------------------------------------------------------------------

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
            out = select(out, dim, k)
        elif isinstance(k, slice):
            if k.step is not None and k.step <= 0:
                raise ValueError("non-positive slice steps are unsupported")
            out = slice_(out, dim, k.start or 0, k.stop, k.step or 1)
            dim += 1
        elif k is None:
            out = unsqueeze(out, dim)
            dim += 1
        else:
            raise TypeError(f"unsupported subscript element: {k!r}")
    return out


def setitem(t: Tensor, key, value: Union[Tensor, Scalar]) -> None:
    """Python subscript store — a *mutation* of ``t`` through a view."""
    from . import inplace
    if isinstance(key, Tensor) and key.dtype.is_bool:
        if isinstance(value, Tensor):
            inplace.masked_scatter_(t, key, value)
        else:
            inplace.masked_fill_(t, key, value)
        return
    if isinstance(key, Tensor):
        inplace.index_put_(t, key, as_tensor(value))
        return
    target = getitem(t, key)
    if isinstance(value, Tensor):
        inplace.copy_(target, value)
    else:
        inplace.fill_(target, value)

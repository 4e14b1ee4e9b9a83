"""Immutable Access / Assign kernels (paper Definitions 3.3 and 3.4).

``immut::<view>`` is the *Access* counterpart of a view operator: same
signature, but it materializes a fresh tensor (one memory-bound kernel)
instead of aliasing.

``immut::<view>_assign(base, src, *view_params)`` is the *Assign*
counterpart: a pure operator producing a new version of ``base`` whose
``[.]``-selected region is replaced by ``src`` (paper Figure 3).

Every function records exactly one kernel launch.  After vertical
fusion these kernels disappear into fusion groups, which is where the
paper's speedup comes from — but they must also be individually
executable so a TensorSSA-converted graph runs standalone: each is the
eager form of its :data:`repro.runtime.kernels.KERNELS` row (an Access
row is the view's own kernel, materialized) — the code fused groups run.
"""

from __future__ import annotations

from ..runtime.kernels import eager_op


def _access(view: str):
    return eager_op(f"immut::{view}", f"Access (paper Def. 3.3): materialize "
                    f"``{view}`` as a fresh tensor — one kernel.")


def _assign(view: str):
    return eager_op(f"immut::{view}_assign", "Assign (paper Def. 3.4): new "
                    f"version of ``base`` with its ``{view}`` window replaced "
                    "by ``src`` — one kernel.")


access_alias = _access("alias")
access_select = _access("select")
access_slice = _access("slice")
access_narrow = _access("narrow")
access_reshape = _access("reshape")
access_permute = _access("permute")
access_transpose = _access("transpose")
access_squeeze = _access("squeeze")
access_unsqueeze = _access("unsqueeze")
access_expand = _access("expand")
access_flatten = _access("flatten")

assign = assign_alias = eager_op(
    "immut::assign", "Whole-content assign: a new version of ``base`` "
    "filled with (broadcast) ``src`` — the innermost Assign of the "
    "pass-up chain.")
assign_select = _assign("select")
assign_slice = _assign("slice")
assign_narrow = _assign("narrow")
assign_reshape = _assign("reshape")
assign_permute = _assign("permute")
assign_transpose = _assign("transpose")
assign_squeeze = _assign("squeeze")
assign_unsqueeze = _assign("unsqueeze")
assign_flatten = _assign("flatten")

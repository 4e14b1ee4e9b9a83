"""The operator registry: every op an IR node may carry.

Namespaces follow TorchScript conventions:

* ``aten::*``  — tensor ops (pure, view, or mutating) and scalar helpers.
* ``immut::*`` — the TensorSSA Access/Assign operator sets (paper §3.2).
* ``prim::*``  — constants, control flow, containers, scalar arithmetic.
* ``tssa::*``  — the Update annotation (paper Definition 3.5).
"""

from __future__ import annotations

from typing import Dict, Iterable

from ..runtime import (creation, elementwise, inplace, linalg, reduction,
                       shape_ops, views)
from ..runtime.kernels import KERNELS
from . import immut
from .schema import GenRule, OpKind, OpSchema

REGISTRY: Dict[str, OpSchema] = {}


def register(schema: OpSchema) -> OpSchema:
    """Register a schema (duplicate names are rejected), completed
    with the operator's kernel-table row when it has one."""
    if schema.name in REGISTRY:
        raise ValueError(f"duplicate op registration: {schema.name}")
    row = KERNELS.get(schema.name)
    if row is not None:
        vars(schema).update(row._asdict())
    REGISTRY[schema.name] = schema
    return schema


def get(name: str) -> OpSchema:
    """Look up a schema by op name; KeyError with guidance if missing."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown operator {name!r}; "
                       f"is it missing from repro.ops.registry?") from None


def has(name: str) -> bool:
    """Is this op name registered?"""
    return name in REGISTRY


def all_ops() -> Iterable[OpSchema]:
    """Iterate every registered schema."""
    return REGISTRY.values()


def _pure(name, fn, fusable=False, num_outputs=1, result_types=("Tensor",),
          gen=None):
    register(OpSchema(name, OpKind.PURE, fn, num_outputs=num_outputs,
                      fusable=fusable, result_types=result_types, gen=gen))


def _view(name, fn, access_op, assign_op):
    register(OpSchema(name, OpKind.VIEW, fn, access_op=access_op,
                      assign_op=assign_op))


def _mutating(name, fn, functional_op, gen=None):
    register(OpSchema(name, OpKind.MUTATING, fn, functional_op=functional_op,
                      gen=gen))


# ---------------------------------------------------------------------------
# Fuzzer synthesis rules (consumed by repro.fuzz.generator).  Only ops
# whose random application is numerically stable under *bit-exact*
# differential comparison get a rule: no log/sqrt on unconstrained
# operands, and division only by scalars bounded away from zero.
# ---------------------------------------------------------------------------

_EW_BINARY = GenRule("elementwise", arity=2, scalar_ok=True)
_EW_UNARY = GenRule("elementwise", arity=1)
_GEN_PURE = {
    "add": _EW_BINARY, "sub": _EW_BINARY, "mul": _EW_BINARY,
    "maximum": _EW_BINARY, "minimum": _EW_BINARY,
    "div": GenRule("elementwise", arity=2, scalar_ok=True,
                   tensor_tensor=False, scalar_range=(0.5, 2.0)),
    "neg": _EW_UNARY, "abs": _EW_UNARY, "sigmoid": _EW_UNARY,
    "tanh": _EW_UNARY, "relu": _EW_UNARY, "floor": _EW_UNARY,
    "ceil": _EW_UNARY,
    "clamp": GenRule("elementwise", arity=1, scalar_args=2),
}
_MUT_BINARY = GenRule("mutating", arity=2, scalar_ok=True)
_MUT_UNARY = GenRule("mutating", arity=1)
_GEN_MUTATING = {
    "add_": _MUT_BINARY, "sub_": _MUT_BINARY, "mul_": _MUT_BINARY,
    "maximum_": _MUT_BINARY, "minimum_": _MUT_BINARY,
    "div_": GenRule("mutating", arity=2, scalar_ok=True,
                    tensor_tensor=False, scalar_range=(0.5, 2.0)),
    "neg_": _MUT_UNARY, "sigmoid_": _MUT_UNARY, "tanh_": _MUT_UNARY,
    "relu_": _MUT_UNARY, "zero_": _MUT_UNARY,
    "fill_": GenRule("mutating", arity=1, scalar_args=1),
    "clamp_": GenRule("mutating", arity=1, scalar_args=2),
}
_GEN_REDUCE = {"sum": GenRule("reduction"), "mean": GenRule("reduction"),
               "max": GenRule("reduction"), "min": GenRule("reduction")}


# ---------------------------------------------------------------------------
# aten:: pure elementwise (the fusable set)
# ---------------------------------------------------------------------------

for _n, _f in [
    ("add", elementwise.add), ("sub", elementwise.sub),
    ("mul", elementwise.mul), ("div", elementwise.div),
    ("pow", elementwise.pow), ("neg", elementwise.neg),
    ("abs", elementwise.abs), ("exp", elementwise.exp),
    ("log", elementwise.log), ("sqrt", elementwise.sqrt),
    ("sigmoid", elementwise.sigmoid), ("tanh", elementwise.tanh),
    ("relu", elementwise.relu), ("clamp", elementwise.clamp),
    ("floor", elementwise.floor), ("ceil", elementwise.ceil),
    ("maximum", elementwise.maximum), ("minimum", elementwise.minimum),
    ("where", elementwise.where), ("clone", elementwise.clone),
    ("gt", elementwise.gt), ("lt", elementwise.lt),
    ("ge", elementwise.ge), ("le", elementwise.le),
    ("eq", elementwise.eq), ("ne", elementwise.ne),
    ("logical_and", elementwise.logical_and),
    ("logical_or", elementwise.logical_or),
    ("logical_not", elementwise.logical_not),
    ("masked_fill", shape_ops.masked_fill),
]:
    _pure(f"aten::{_n}", _f, fusable=True, gen=_GEN_PURE.get(_n))

_pure("aten::to", elementwise.to, fusable=True)

# ---------------------------------------------------------------------------
# aten:: pure non-fusable (reductions, linalg, data movement, creation)
# ---------------------------------------------------------------------------

for _n, _f in [
    ("sum", reduction.sum), ("mean", reduction.mean),
    ("max", reduction.max), ("min", reduction.min),
    ("argmax", reduction.argmax), ("argmin", reduction.argmin),
    ("cumsum", reduction.cumsum), ("softmax", reduction.softmax),
    ("log_softmax", reduction.log_softmax),
    ("matmul", linalg.matmul), ("bmm", linalg.bmm),
    ("linear", linalg.linear),
    ("cat", shape_ops.cat), ("stack", shape_ops.stack),
    ("index_select", shape_ops.index_select),
    ("gather", shape_ops.gather),
    ("masked_select", shape_ops.masked_select),
    ("nonzero", shape_ops.nonzero), ("embedding", shape_ops.embedding),
    ("masked_scatter", shape_ops.masked_scatter),
    ("index_put", shape_ops.index_put),
    ("index_fill", shape_ops.index_fill),
    ("zeros", creation.zeros), ("ones", creation.ones),
    ("full", creation.full), ("arange", creation.arange),
]:
    _pure(f"aten::{_n}", _f, gen=_GEN_REDUCE.get(_n))

# like-fills are elementwise writes: fusable (NNC folds constant fills)
for _n, _f in [("zeros_like", creation.zeros_like),
               ("ones_like", creation.ones_like),
               ("full_like", creation.full_like)]:
    _pure(f"aten::{_n}", _f, fusable=True)

_pure("aten::topk", shape_ops.topk, num_outputs=2,
      result_types=("Tensor", "Tensor"))
_pure("aten::sort", shape_ops.sort, num_outputs=2,
      result_types=("Tensor", "Tensor"))

# Scalar extraction (forces host sync — a fusion and graph boundary).
_pure("aten::item", lambda t: t.item(), result_types=("Scalar",))
_pure("aten::Bool", lambda t: bool(t), result_types=("bool",))
_pure("aten::Int", lambda v: int(v.item() if hasattr(v, "item") else v),
      result_types=("int",))
_pure("aten::Float", lambda v: float(v.item() if hasattr(v, "item") else v),
      result_types=("float",))
_pure("aten::len", lambda x: len(x), result_types=("int",))
_pure("aten::size", lambda t, dim=None: (t.shape if dim is None
                                         else t.shape[int(dim)]),
      result_types=("int",))
_pure("aten::numel", lambda t: t.numel, result_types=("int",))
_pure("aten::dim", lambda t: t.ndim, result_types=("int",))

# ---------------------------------------------------------------------------
# aten:: view operators with their immut:: counterparts
# ---------------------------------------------------------------------------

_view("aten::alias", views.alias, "immut::alias", "immut::assign")
_view("aten::select", views.select, "immut::select", "immut::select_assign")
_view("aten::slice", views.slice_, "immut::slice", "immut::slice_assign")
_view("aten::narrow", views.narrow, "immut::narrow", "immut::narrow_assign")
_view("aten::reshape", views.reshape, "immut::reshape",
      "immut::reshape_assign")
_view("aten::view", views.view, "immut::reshape", "immut::reshape_assign")
_view("aten::permute", views.permute, "immut::permute",
      "immut::permute_assign")
_view("aten::transpose", views.transpose, "immut::transpose",
      "immut::transpose_assign")
_view("aten::squeeze", views.squeeze, "immut::squeeze",
      "immut::squeeze_assign")
_view("aten::unsqueeze", views.unsqueeze, "immut::unsqueeze",
      "immut::unsqueeze_assign")
_view("aten::expand", views.expand, "immut::expand", None)
_view("aten::flatten", views.flatten, "immut::flatten",
      "immut::flatten_assign")

# ---------------------------------------------------------------------------
# aten:: mutating operators and their functional equivalents
# ---------------------------------------------------------------------------

_mutating("aten::copy_", inplace.copy_, functional_op=None)  # value == src
for _n, _f, _fop in [
    ("fill_", inplace.fill_, "aten::full_like"),
    ("zero_", inplace.zero_, "aten::zeros_like"),
    ("add_", inplace.add_, "aten::add"),
    ("sub_", inplace.sub_, "aten::sub"),
    ("mul_", inplace.mul_, "aten::mul"),
    ("div_", inplace.div_, "aten::div"),
    ("pow_", inplace.pow_, "aten::pow"),
    ("neg_", inplace.neg_, "aten::neg"),
    ("exp_", inplace.exp_, "aten::exp"),
    ("sqrt_", inplace.sqrt_, "aten::sqrt"),
    ("sigmoid_", inplace.sigmoid_, "aten::sigmoid"),
    ("tanh_", inplace.tanh_, "aten::tanh"),
    ("relu_", inplace.relu_, "aten::relu"),
    ("clamp_", inplace.clamp_, "aten::clamp"),
    ("maximum_", inplace.maximum_, "aten::maximum"),
    ("minimum_", inplace.minimum_, "aten::minimum"),
    ("masked_fill_", inplace.masked_fill_, "aten::masked_fill"),
    ("masked_scatter_", inplace.masked_scatter_, "aten::masked_scatter"),
    ("index_put_", inplace.index_put_, "aten::index_put"),
    ("index_fill_", inplace.index_fill_, "aten::index_fill"),
]:
    _mutating(f"aten::{_n}", _f, _fop, gen=_GEN_MUTATING.get(_n))

# ---------------------------------------------------------------------------
# immut:: Access / Assign (paper §3.2) — all pure and fusable
# ---------------------------------------------------------------------------

for _n, _f in [
    ("alias", immut.access_alias), ("select", immut.access_select),
    ("slice", immut.access_slice), ("narrow", immut.access_narrow),
    ("reshape", immut.access_reshape), ("permute", immut.access_permute),
    ("transpose", immut.access_transpose),
    ("squeeze", immut.access_squeeze), ("unsqueeze", immut.access_unsqueeze),
    ("expand", immut.access_expand), ("flatten", immut.access_flatten),
    ("assign", immut.assign), ("select_assign", immut.assign_select),
    ("slice_assign", immut.assign_slice),
    ("narrow_assign", immut.assign_narrow),
    ("reshape_assign", immut.assign_reshape),
    ("permute_assign", immut.assign_permute),
    ("transpose_assign", immut.assign_transpose),
    ("squeeze_assign", immut.assign_squeeze),
    ("unsqueeze_assign", immut.assign_unsqueeze),
    ("flatten_assign", immut.assign_flatten),
]:
    _pure(f"immut::{_n}", _f, fusable=True)

# ---------------------------------------------------------------------------
# grad:: helper operators emitted only by the reverse-mode pass
# ---------------------------------------------------------------------------

# unbroadcast is the adjoint of implicit broadcasting (and casting);
# reshape_like the adjoint of the whole reshape family.  stash_init
# allocates the per-iteration state buffer of the scan-style Loop
# adjoint.  All plain pure ops, so every existing pass / the planner /
# the interpreter handle backward graphs with zero special cases.
_pure("grad::unbroadcast", shape_ops.unbroadcast)
_pure("grad::reshape_like", shape_ops.reshape_like)
_pure("grad::stash_init", creation.stash_init)

# ---------------------------------------------------------------------------
# prim:: scalar arithmetic (host-side, never launches kernels)
# ---------------------------------------------------------------------------

for _n, _rt in [
    ("add", "Scalar"), ("sub", "Scalar"), ("mul", "Scalar"),
    ("truediv", "float"), ("floordiv", "int"), ("mod", "Scalar"),
    ("pow", "Scalar"), ("neg", "Scalar"),
    ("gt", "bool"), ("lt", "bool"), ("ge", "bool"), ("le", "bool"),
    ("eq", "bool"), ("ne", "bool"), ("and", "bool"), ("or", "bool"),
    ("not", "bool"), ("min", "Scalar"), ("max", "Scalar"),
]:
    # scalar ops are fusable: NNC-style kernels accept scalar inputs and
    # fold host arithmetic into the generated code (so the eager fn and
    # the fused kernel are the same callable)
    _pure(f"prim::{_n}", KERNELS[f"prim::{_n}"].kernel, fusable=True,
          result_types=(_rt,))

# ---------------------------------------------------------------------------
# prim:: structure
# ---------------------------------------------------------------------------

register(OpSchema("prim::Constant", OpKind.CONSTANT, None,
                  result_types=("Any",)))
register(OpSchema("prim::If", OpKind.CONTROL, None, num_outputs=0))
register(OpSchema("prim::Loop", OpKind.CONTROL, None, num_outputs=0))
register(OpSchema("prim::FusionGroup", OpKind.CONTROL, None, num_outputs=0))
register(OpSchema("prim::ParallelMap", OpKind.CONTROL, None, num_outputs=0))
register(OpSchema("prim::ListConstruct", OpKind.CONTAINER,
                  lambda *xs: list(xs), result_types=("List",)))
register(OpSchema("prim::TupleConstruct", OpKind.CONTAINER,
                  lambda *xs: tuple(xs), result_types=("Tuple",)))
register(OpSchema("prim::TupleUnpack", OpKind.CONTAINER, lambda t: tuple(t),
                  num_outputs=0, result_types=("Any",)))
register(OpSchema("prim::ListIndex", OpKind.CONTAINER,
                  lambda xs, i: xs[i], result_types=("Any",)))
register(OpSchema("aten::append", OpKind.MUTATING,
                  lambda xs, x: (xs.append(x), xs)[1],
                  result_types=("List",)))
register(OpSchema("tssa::update", OpKind.ANNOTATION, None, num_outputs=0))

# ---------------------------------------------------------------------------
# Differentiability classification (consumed by repro.grad)
# ---------------------------------------------------------------------------
#
# Three-valued: ``True`` ops get a VJP from repro.grad.vjp at import
# time; ``False`` ops are *intentionally* non-differentiable and make
# grad() raise a typed GradError naming them; ``None`` (everything
# else) means unclassified — also a typed GradError, but phrased as
# "no VJP registered" so a missing rule is distinguishable from a
# deliberate exclusion.  Mutating ops are all False: the gradient pass
# requires the mutation-free TensorSSA form.

_NON_DIFFERENTIABLE = [
    # predicates and integer/bool results: derivative is zero a.e. and
    # meaningless at the jumps
    "aten::gt", "aten::lt", "aten::ge", "aten::le", "aten::eq", "aten::ne",
    "aten::logical_and", "aten::logical_or", "aten::logical_not",
    "aten::argmax", "aten::argmin", "aten::nonzero", "aten::topk",
    "aten::sort",
    # host-scalar extraction (graph boundaries, not tensor math)
    "aten::item", "aten::Bool", "aten::Int", "aten::Float", "aten::len",
    "aten::size", "aten::numel", "aten::dim",
    # list mutation
    "aten::append",
    # backward-only helpers: grad-of-grad is out of scope
    "grad::unbroadcast", "grad::reshape_like", "grad::stash_init",
]
for _n in _NON_DIFFERENTIABLE:
    REGISTRY[_n].differentiable = False
for _schema in REGISTRY.values():
    if _schema.kind is OpKind.MUTATING:
        _schema.differentiable = False
    elif _schema.name.startswith("prim::") and _schema.kind is OpKind.PURE:
        # host scalar arithmetic never carries tensor adjoints
        _schema.differentiable = False

"""The operator registry: every op an IR node may carry.

Namespaces follow TorchScript conventions:

* ``aten::*``  — tensor ops (pure, view, or mutating) and scalar helpers.
* ``immut::*`` — the TensorSSA Access/Assign operator sets (paper §3.2).
* ``prim::*``  — constants, control flow, containers, scalar arithmetic.
* ``grad::*``  — helper ops only the reverse-mode pass emits.
* ``batch::*`` — trip-axis windows only loop batching emits
  (``passes/parallelize.py``).
* ``tssa::*``  — the Update annotation (paper Definition 3.5).

Every row of :data:`repro.runtime.kernels.KERNELS` is registered by one
loop, its schema derived from the row: an ``aten::`` row that
``aliases`` operand 0 is a VIEW whose Access / Assign twins are
``immut::<view>`` / ``immut::<view>_assign``; every other row is PURE
and fusable; each :data:`~repro.runtime.kernels.INPLACE` entry is
MUTATING with its row as ``functional_op``.  ``fn`` is always the row's
eager form in :data:`~repro.runtime.kernels.EAGER`.  What a row does not
imply sits in three small tables here — the fuzzer's :class:`GenRule`
per op, the ``prim::`` result types, and the two views whose twins are
named otherwise — and ops without a row (reductions, linalg, data
movement, creation, host-scalar extraction, structure) are listed by
hand.
"""

from __future__ import annotations

from typing import Dict, Iterable

from ..runtime import creation, inplace, linalg, reduction, shape_ops
from ..runtime.kernels import EAGER, INPLACE, KERNELS
from .schema import GenRule, OpKind, OpSchema

REGISTRY: Dict[str, OpSchema] = {}


def register(schema: OpSchema) -> OpSchema:
    """Register a schema (duplicate names are rejected), completed
    with the operator's kernel-table row and fuzzer rule when it has
    them."""
    if schema.name in REGISTRY:
        raise ValueError(f"duplicate op registration: {schema.name}")
    row = KERNELS.get(schema.name)
    if row is not None:
        vars(schema).update(row._asdict())
    schema.gen = _GEN.get(schema.name, schema.gen)
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


def _pure(name, fn, fusable=False, num_outputs=1, result_types=("Tensor",)):
    register(OpSchema(name, OpKind.PURE, fn, num_outputs=num_outputs,
                      fusable=fusable, result_types=result_types))


def _mutating(name, fn, functional_op):
    register(OpSchema(name, OpKind.MUTATING, fn, functional_op=functional_op))


# ---------------------------------------------------------------------------
# Fuzzer synthesis rules (consumed by repro.fuzz.generator).  Only ops
# whose random application is numerically stable under *bit-exact*
# differential comparison get a rule: no log/sqrt on unconstrained
# operands, and division only by scalars bounded away from zero.
# ---------------------------------------------------------------------------

_EW_BINARY = GenRule("elementwise", arity=2, scalar_ok=True)
_EW_UNARY = GenRule("elementwise", arity=1)
_MUT_BINARY = GenRule("mutating", arity=2, scalar_ok=True)
_MUT_UNARY = GenRule("mutating", arity=1)
_GEN: Dict[str, GenRule] = {"aten::" + n: rule for n, rule in {
    "add": _EW_BINARY, "sub": _EW_BINARY, "mul": _EW_BINARY,
    "maximum": _EW_BINARY, "minimum": _EW_BINARY,
    "div": GenRule("elementwise", arity=2, scalar_ok=True,
                   tensor_tensor=False, scalar_range=(0.5, 2.0)),
    "neg": _EW_UNARY, "abs": _EW_UNARY, "sigmoid": _EW_UNARY,
    "tanh": _EW_UNARY, "relu": _EW_UNARY, "floor": _EW_UNARY,
    "ceil": _EW_UNARY,
    "clamp": GenRule("elementwise", arity=1, scalar_args=2),
    "add_": _MUT_BINARY, "sub_": _MUT_BINARY, "mul_": _MUT_BINARY,
    "maximum_": _MUT_BINARY, "minimum_": _MUT_BINARY,
    "div_": GenRule("mutating", arity=2, scalar_ok=True,
                    tensor_tensor=False, scalar_range=(0.5, 2.0)),
    "neg_": _MUT_UNARY, "sigmoid_": _MUT_UNARY, "tanh_": _MUT_UNARY,
    "relu_": _MUT_UNARY, "zero_": _MUT_UNARY,
    "fill_": GenRule("mutating", arity=1, scalar_args=1),
    "clamp_": GenRule("mutating", arity=1, scalar_args=2),
    "sum": GenRule("reduction"), "mean": GenRule("reduction"),
    "max": GenRule("reduction"), "min": GenRule("reduction"),
}.items()}

#: ``prim::`` result types (host scalar arithmetic)
_PRIM_RESULT = {
    "add": "Scalar", "sub": "Scalar", "mul": "Scalar", "truediv": "float",
    "floordiv": "int", "mod": "Scalar", "pow": "Scalar", "neg": "Scalar",
    "gt": "bool", "lt": "bool", "ge": "bool", "le": "bool", "eq": "bool",
    "ne": "bool", "and": "bool", "or": "bool", "not": "bool",
    "min": "Scalar", "max": "Scalar"}

#: views whose Access / Assign twins are not ``immut::<view>`` /
#: ``immut::<view>_assign``
_TWINS = {"aten::alias": ("immut::alias", "immut::assign"),
          "aten::view": ("immut::reshape", "immut::reshape_assign")}


# ---------------------------------------------------------------------------
# Every KERNELS row, and the in-place forms of INPLACE
# ---------------------------------------------------------------------------

for _name, _row in KERNELS.items():
    _ns, _base = _name.split("::")
    if _ns == "aten" and _row.aliases == 0:
        _access, _assign = _TWINS.get(
            _name, (f"immut::{_base}", f"immut::{_base}_assign"))
        register(OpSchema(_name, OpKind.VIEW, EAGER[_name],
                          access_op=_access,
                          assign_op=_assign if _assign in KERNELS else None))
    else:
        # scalar ops are fusable too: NNC-style kernels accept scalar
        # inputs and fold host arithmetic into the generated code.  A
        # ``batch::`` window names its Assign twin, so a compiled
        # kernel stores through it in place
        _assign = f"{_name}_assign"
        register(OpSchema(
            _name, OpKind.PURE, EAGER[_name], fusable=True,
            result_types=(_PRIM_RESULT[_base] if _ns == "prim"
                          else "Tensor",),
            assign_op=_assign if _ns == "batch" and _assign in KERNELS
            else None))

for _name, _functional in INPLACE.items():
    _mutating(_name, EAGER[_name], _functional)

# ---------------------------------------------------------------------------
# Ops without a row: not fusable (reductions, linalg, data movement,
# creation, host-scalar extraction) and the irregular stores
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
    _pure(f"aten::{_n}", _f)

_pure("aten::topk", shape_ops.topk, num_outputs=2,
      result_types=("Tensor", "Tensor"))
_pure("aten::sort", shape_ops.sort, num_outputs=2,
      result_types=("Tensor", "Tensor"))

# Scalar extraction (forces host sync — a fusion and graph boundary).
_pure("aten::item", lambda t: t.item(), result_types=("item",))
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

# stash_init allocates the per-iteration state buffer of the scan-style
# Loop adjoint (the reverse pass's other helpers are rows)
_pure("grad::stash_init", creation.stash_init)

_mutating("aten::copy_", inplace.copy_, functional_op=None)  # value == src
for _n in ("masked_scatter", "index_put", "index_fill"):
    _mutating(f"aten::{_n}_", getattr(inplace, f"{_n}_"), f"aten::{_n}")

# ---------------------------------------------------------------------------
# prim:: structure
# ---------------------------------------------------------------------------

register(OpSchema("prim::Constant", OpKind.CONSTANT, None,
                  result_types=("Any",)))
register(OpSchema("prim::If", OpKind.CONTROL, None, num_outputs=0))
register(OpSchema("prim::Loop", OpKind.CONTROL, None, num_outputs=0))
register(OpSchema("prim::FusionGroup", OpKind.CONTROL, None, num_outputs=0))
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

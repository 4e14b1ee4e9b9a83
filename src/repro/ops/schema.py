"""Operator schemas: what every pass asks about an op.

Every IR node's semantics — purity, aliasing, mutability, fusibility,
its runtime kernel, and (for view ops) its immutable Access/Assign
counterparts — is described by an :class:`OpSchema`.  The frontend, the
alias analysis (paper §2.3), the TensorSSA conversion (paper §4.1), the
fusers, and the interpreter all consult this table instead of hardcoding
op lists.  For an op with a :data:`repro.runtime.kernels.KERNELS` row
the schema is derived from the row (``repro.ops.registry``): the row is
where the op is declared, the schema is its compiler-facing view.

Calling convention: *all* operands are IR inputs (dims, slice bounds,
shapes included), fed through ``prim::Constant`` nodes when static.
Nodes carry no attributes, which keeps every pass uniform.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple


class OpKind(enum.Enum):
    """Behavioural class of an operator."""

    PURE = "pure"          # no side effects, fresh outputs
    VIEW = "view"          # output aliases input 0 (metadata only)
    MUTATING = "mutating"  # writes through input 0; output aliases input 0
    CONSTANT = "constant"  # prim::Constant
    CONTROL = "control"    # prim::If / prim::Loop / fusion groups
    CONTAINER = "container"  # list/tuple construct & access
    ANNOTATION = "annotation"  # tssa::update — no computation semantics


@dataclass(frozen=True)
class GenRule:
    """Machine-readable synthesis metadata for the differential fuzzer.

    Describes how :mod:`repro.fuzz.generator` may emit a random call to
    this op in frontend source: how many tensor operands it takes, their
    shape relationship, and which operand positions accept (or require)
    Python scalars.  Ops without a rule are never generated.
    """

    #: operand/shape class:
    #: ``"elementwise"`` — all tensor operands share one shape;
    #: ``"mutating"``    — writes through operand 0, others match it;
    #: ``"reduction"``   — one tensor in, 0-d tensor out.
    kind: str
    #: number of tensor operands (the method receiver included)
    arity: int = 1
    #: the trailing tensor operand may instead be a Python scalar
    scalar_ok: bool = False
    #: tensor-tensor form is allowed (False: scalar operand only, e.g.
    #: div, where a random divisor tensor risks near-zero entries)
    tensor_tensor: bool = True
    #: trailing *required* scalar arguments (clamp bounds, fill value)
    scalar_args: int = 0
    #: |scalar| is drawn from this closed range (keeps div/pow away from
    #: poles so both sides of the differential test stay finite-stable)
    scalar_range: Tuple[float, float] = (0.0, 2.0)


@dataclass
class OpSchema:
    """Static description of one operator."""

    name: str
    kind: OpKind
    #: runtime implementation (None for CONTROL/ANNOTATION ops that the
    #: interpreter executes structurally)
    fn: Optional[Callable] = None
    num_outputs: int = 1
    #: can the NNC-like fuser pull this op into a fusion group?
    fusable: bool = False
    #: the operator's row of :data:`repro.runtime.kernels.KERNELS`,
    #: copied in by ``registry.register``: its one numpy-level kernel
    #: (arrays and Python scalars in, array out; None when the op is
    #: not compilable) and the metadata every execution shares — flops
    #: per output element, the launch name, whether operand bytes
    #: count as read, and which operand the result may share memory
    #: with.  ``fn`` (``kernels.EAGER[name]``), the in-place ``op_``
    #: and the fused call are all derived from ``kernel``; none
    #: restates the math.
    kernel: Optional[Callable] = None
    flops: int = 1
    launch: str = ""
    reads: bool = True
    aliases: Optional[int] = None
    #: for VIEW ops: names of the immutable Access / Assign counterparts
    #: (paper Definitions 3.3 / 3.4); access has the identical signature,
    #: assign takes ``(base, src, *view_params)``.
    access_op: Optional[str] = None
    assign_op: Optional[str] = None
    #: for MUTATING ops: name of the pure out-of-place equivalent, when
    #: one exists with signature ``(input0, *rest) -> out`` (used by the
    #: TensorSSA rewrite to materialize the mutation's value).
    functional_op: Optional[str] = None
    #: output type constructors; see repro.ir.types.infer_types
    result_types: Sequence[str] = field(default_factory=lambda: ("Tensor",))
    #: random-program synthesis rule (None: the fuzzer never emits it)
    gen: Optional[GenRule] = None
    #: differentiability classification, three-valued so the gradient
    #: pass can tell "nobody wrote a VJP yet" from "provably has no
    #: useful derivative":
    #: ``True``  — differentiable; ``vjp`` must be set (a zero/None
    #:             vector-Jacobian product counts, e.g. floor);
    #: ``False`` — *intentionally* non-differentiable (argmax,
    #:             comparisons, integer/bool extraction, mutation);
    #: ``None``  — unclassified: grad() raises a typed GradError naming
    #:             the op instead of a bare KeyError.
    differentiable: Optional[bool] = None
    #: vector-Jacobian product rule, registered by repro.grad.vjp via
    #: :func:`repro.grad.vjp.register_vjp`.  Signature
    #: ``vjp(builder, node, grads) -> [grad_or_None per input]`` where
    #: ``grads`` aligns with ``node.outputs``.
    vjp: Optional[Callable] = None

    @property
    def method(self) -> str:
        """The frontend method spelling (``aten::add_`` -> ``add_``)."""
        return self.name.split("::", 1)[1]

    def output_types(self, operands: Sequence, count: Optional[int] = None
                     ) -> list:
        """The output types of this op applied to operands of types
        ``operands``: :func:`repro.ir.types.infer_types` over its result
        templates.  A variadic op (``num_outputs == 0``) types ``count``
        outputs from its one template, or one output when ``count`` is
        unknown."""
        from ..ir.types import infer_types
        templates = self.result_types[:max(self.num_outputs, 1)]
        if self.num_outputs == 0 and count is not None:
            templates = tuple(templates) * count
        return infer_types(templates, operands)

    @property
    def is_view(self) -> bool:
        return self.kind is OpKind.VIEW

    @property
    def is_mutating(self) -> bool:
        return self.kind is OpKind.MUTATING

    @property
    def has_side_effects(self) -> bool:
        return self.kind is OpKind.MUTATING

    def __post_init__(self) -> None:
        if "::" not in self.name:
            raise ValueError(f"op name must be namespaced: {self.name!r}")

"""IR type system.

Deliberately coarse: the backend JIT-specializes kernels on *runtime*
shapes (as NNC does), so static shapes are optional refinements, not
requirements.  Types matter mainly to the frontend (scalar-vs-tensor
op selection) and the verifier.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple


class Type:
    """Base class; subclasses are value-equal and hashable."""

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(sorted(self.__dict__.items(),
                                                       key=lambda kv: kv[0],
                                                       ))))

    def __repr__(self) -> str:
        return self.__class__.__name__.replace("Type", "")

    @property
    def is_tensor(self) -> bool:
        return isinstance(self, TensorType)

    @property
    def is_scalar(self) -> bool:
        return isinstance(self, (IntType, FloatType, BoolType))


class TensorType(Type):
    """A tensor, with optional dtype/shape refinement."""

    def __init__(self, dtype: Optional[str] = None,
                 shape: Optional[Tuple[int, ...]] = None) -> None:
        self.dtype = dtype
        self.shape = tuple(shape) if shape is not None else None

    def __repr__(self) -> str:
        bits = "Tensor"
        if self.dtype:
            bits += f"<{self.dtype}>"
        if self.shape is not None:
            bits += f"{list(self.shape)}"
        return bits

    def __hash__(self) -> int:
        return hash(("TensorType", self.dtype, self.shape))


class IntType(Type):
    """A Python/host integer."""
    pass


class FloatType(Type):
    """A Python/host float."""
    pass


class BoolType(Type):
    """A Python/host boolean."""
    pass


class StrType(Type):
    """A host string (also used for dtype constants)."""
    pass


class NoneType(Type):
    """The None constant's type."""
    pass


class AnyType(Type):
    """Unrefined type (containers of unknown element types, unpacked values)."""
    pass


class ListType(Type):
    """A list with an optional element-type refinement."""
    def __init__(self, elem: Optional[Type] = None) -> None:
        self.elem = elem or AnyType()

    def __repr__(self) -> str:
        return f"List[{self.elem!r}]"

    def __hash__(self) -> int:
        return hash(("ListType", self.elem))


class TupleType(Type):
    """A fixed-arity tuple of element types."""
    def __init__(self, elems: Sequence[Type] = ()) -> None:
        self.elems = tuple(elems)

    def __repr__(self) -> str:
        return f"Tuple[{', '.join(map(repr, self.elems))}]"

    def __hash__(self) -> int:
        return hash(("TupleType", self.elems))


def type_of_constant(value) -> Type:
    """Infer the IR type of a Python constant payload."""
    if value is None:
        return NoneType()
    if isinstance(value, bool):
        return BoolType()
    if isinstance(value, int):
        return IntType()
    if isinstance(value, float):
        return FloatType()
    if isinstance(value, str):
        return StrType()
    if isinstance(value, (list, tuple)):
        elem = type_of_constant(value[0]) if value else AnyType()
        return ListType(elem) if isinstance(value, list) else TupleType(
            tuple(type_of_constant(v) for v in value))
    from ..runtime.dtype import DType
    from ..runtime.tensor import Tensor
    if isinstance(value, Tensor):
        return TensorType(value.dtype.name, value.shape)
    if isinstance(value, DType):
        return StrType()
    raise TypeError(f"unsupported constant payload: {value!r}")


#: result templates that name one type whatever the operands
_FIXED_TEMPLATES = {"Tensor": TensorType, "int": IntType,
                    "float": FloatType, "bool": BoolType}


def infer_types(templates: Sequence[str],
                operands: Sequence[Type]) -> List[Type]:
    """The output types of an op applied to operands of types
    ``operands``, one per ``OpSchema.result_types`` template.

    ``"Scalar"`` promotes over the scalar operands (all operands when
    none is scalar): float if any is float, else bool if every one is
    bool, else int — so an op with no operands gives int.  ``"item"``
    is int when the first operand is a tensor of integer or bool dtype,
    else float.  ``"List"`` holds the first operand's type, ``"Tuple"``
    every operand's; an unknown template is Any.  Ops reach it through
    ``OpSchema.output_types``, the one typing rule of the frontend, the
    gradient builder and the IR parser.
    """
    out: List[Type] = []
    for template in templates:
        if template in _FIXED_TEMPLATES:
            out.append(_FIXED_TEMPLATES[template]())
        elif template == "Scalar":
            cands = [t for t in operands if t.is_scalar] or operands
            if any(isinstance(t, FloatType) for t in cands):
                out.append(FloatType())
            elif cands and all(isinstance(t, BoolType) for t in cands):
                out.append(BoolType())
            else:
                out.append(IntType())
        elif template == "item":
            # a tensor's element as a host scalar: int for an integer
            # or bool dtype, float otherwise (and when it is unknown)
            dtype = getattr(operands[0], "dtype", None) if operands \
                else None
            out.append(IntType() if dtype and ("int" in dtype
                                               or dtype == "bool")
                       else FloatType())
        elif template == "List":
            out.append(ListType(operands[0] if operands else None))
        elif template == "Tuple":
            out.append(TupleType(operands))
        else:
            out.append(AnyType())
    return out

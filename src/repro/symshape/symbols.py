"""Symbolic integers and the duck-shaping size-variable allocator.

TorchInductor's insight (``SizeVarAllocator`` / ``symbolic_sizes_
strides``): instead of compiling one artifact per concrete shape,
assign a *symbol* to each distinct extent of the example inputs — two
dimensions with the same extent share one symbol ("duck shaping"), so
the structural equalities a kernel actually relies on are captured for
free, and everything else stays a free variable.  A compiled artifact
is then valid for a whole *family* of shapes (see
:mod:`repro.symshape.family`), not just the example it was traced on.

:class:`SymInt` is a tiny immutable symbolic-integer expression tree
supporting the arithmetic shape inference needs — ``+ - * // %`` and
``max`` — with constant folding and algebraic simplification
(``x * 1``, ``x + 0``, ``x // 1``, ``max(x, x)``).  Expressions
evaluate to concrete ints under a symbol binding, which is how guards
are checked and how the memory planner turns symbolic sizes into
max-extent byte bounds.

Extents 0 and 1 are **never** symbolized: size-one dimensions
broadcast and size-zero dimensions vanish, so an artifact traced at
extent 1 is generally *wrong* at extent 2 (the classic Inductor
size-1 hazard).  Degenerate extents stay concrete constants, which
forces :class:`~repro.symshape.family.ShapeFamily` to specialize on
them.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Set, Tuple, Union

__all__ = ["SymInt", "SizeVarAllocator", "sym_max", "as_dim",
           "evaluate_dim", "DEGENERATE_EXTENTS"]

#: extents that are always specialized to constants, never symbolized
#: (broadcasting / empty-dim semantics differ from the generic case)
DEGENERATE_EXTENTS = frozenset({0, 1})


class SymInt:
    """An immutable symbolic-integer expression.

    Leaves are either named symbols (``op == "sym"``) or integer
    constants (``op == "const"``); interior nodes are the arithmetic
    operators ``+ - * // % max``.  Instances are value-equal and
    hashable, so expressions can key caches and live in guard sets.
    """

    __slots__ = ("op", "args", "name", "value", "_hash")

    def __init__(self, op: str, args: Tuple["SymInt", ...] = (),
                 name: str = "", value: int = 0) -> None:
        self.op = op
        self.args = args
        self.name = name
        self.value = value
        self._hash = hash((op, args, name, value))

    # -- constructors ---------------------------------------------------

    @staticmethod
    def sym(name: str) -> "SymInt":
        """A named free symbol (``s0``, ``s1``, ...)."""
        return SymInt("sym", name=name)

    @staticmethod
    def const(value: int) -> "SymInt":
        """An integer constant lifted into the expression algebra."""
        return SymInt("const", value=int(value))

    # -- structure ------------------------------------------------------

    @property
    def is_symbol(self) -> bool:
        """True for a bare named symbol."""
        return self.op == "sym"

    @property
    def is_const(self) -> bool:
        """True for an integer constant leaf."""
        return self.op == "const"

    def free_symbols(self) -> Set[str]:
        """Names of every symbol appearing in the expression."""
        if self.is_symbol:
            return {self.name}
        out: Set[str] = set()
        for a in self.args:
            out |= a.free_symbols()
        return out

    # -- evaluation -----------------------------------------------------

    def evaluate(self, env: Dict[str, int]) -> int:
        """Concrete value under ``env`` (symbol name -> extent).

        Raises ``KeyError`` for unbound symbols and
        ``ZeroDivisionError`` where the concrete arithmetic would.
        """
        if self.is_const:
            return self.value
        if self.is_symbol:
            return env[self.name]
        vals = [a.evaluate(env) for a in self.args]
        if self.op == "+":
            return vals[0] + vals[1]
        if self.op == "-":
            return vals[0] - vals[1]
        if self.op == "*":
            return vals[0] * vals[1]
        if self.op == "//":
            return vals[0] // vals[1]
        if self.op == "%":
            return vals[0] % vals[1]
        if self.op == "max":
            return max(vals[0], vals[1])
        raise ValueError(f"unknown SymInt op {self.op!r}")

    # -- arithmetic (every operator simplifies eagerly) -----------------

    def _binary(self, op: str, other: "DimLike") -> "SymInt":
        return _simplify_binary(op, self, as_dim(other))

    def __add__(self, other: "DimLike") -> "SymInt":
        return self._binary("+", other)

    def __radd__(self, other: "DimLike") -> "SymInt":
        return as_dim(other)._binary("+", self)

    def __sub__(self, other: "DimLike") -> "SymInt":
        return self._binary("-", other)

    def __rsub__(self, other: "DimLike") -> "SymInt":
        return as_dim(other)._binary("-", self)

    def __mul__(self, other: "DimLike") -> "SymInt":
        return self._binary("*", other)

    def __rmul__(self, other: "DimLike") -> "SymInt":
        return as_dim(other)._binary("*", self)

    def __floordiv__(self, other: "DimLike") -> "SymInt":
        return self._binary("//", other)

    def __mod__(self, other: "DimLike") -> "SymInt":
        return self._binary("%", other)

    # -- identity -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.is_const and self.value == other
        if not isinstance(other, SymInt):
            return NotImplemented
        return (self.op == other.op and self.args == other.args
                and self.name == other.name and self.value == other.value)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.is_const:
            return str(self.value)
        if self.is_symbol:
            return self.name
        if self.op == "max":
            return f"max({self.args[0]!r}, {self.args[1]!r})"
        return f"({self.args[0]!r} {self.op} {self.args[1]!r})"


DimLike = Union[SymInt, int]


def as_dim(value: DimLike) -> SymInt:
    """Lift an int into the expression algebra; pass SymInt through."""
    if isinstance(value, SymInt):
        return value
    return SymInt.const(value)


def evaluate_dim(dim: DimLike, env: Dict[str, int]) -> int:
    """Evaluate a dim that may be a plain int or a :class:`SymInt`."""
    if isinstance(dim, SymInt):
        return dim.evaluate(env)
    return int(dim)


def sym_max(a: DimLike, b: DimLike) -> SymInt:
    """``max`` over symbolic dims, simplified (``max(x, x) == x``)."""
    return _simplify_binary("max", as_dim(a), as_dim(b))


def _simplify_binary(op: str, a: SymInt, b: SymInt) -> SymInt:
    """Constant-fold and apply the cheap algebraic identities."""
    if a.is_const and b.is_const:
        return SymInt.const(SymInt(op, (a, b)).evaluate({}))
    if op == "+":
        if a.is_const and a.value == 0:
            return b
        if b.is_const and b.value == 0:
            return a
    elif op == "-":
        if b.is_const and b.value == 0:
            return a
        if a == b:
            return SymInt.const(0)
    elif op == "*":
        for x, y in ((a, b), (b, a)):
            if x.is_const:
                if x.value == 0:
                    return SymInt.const(0)
                if x.value == 1:
                    return y
    elif op == "//":
        if b.is_const and b.value == 1:
            return a
        if a.is_const and a.value == 0:
            return SymInt.const(0)
    elif op == "%":
        if b.is_const and b.value == 1:
            return SymInt.const(0)
        if a == b:
            return SymInt.const(0)
    elif op == "max":
        if a == b:
            return a
    return SymInt(op, (a, b))


class SizeVarAllocator:
    """Duck-shaping symbol allocator: same extent -> same symbol.

    ``alloc[extent]`` returns the symbol minted for that extent,
    creating one on first sight — so every dimension (and symbolizable
    scalar argument) of one example input set that shares a concrete
    extent shares a symbol, which encodes the equalities
    (``s_i == s_j``) the family's artifact may rely on.  Degenerate
    extents (:data:`DEGENERATE_EXTENTS`) come back as constants and
    therefore force specialization.
    """

    def __init__(self, prefix: str = "s",
                 specialize: Iterable[int] = DEGENERATE_EXTENTS) -> None:
        self.prefix = prefix
        self._specialize = frozenset(specialize)
        self._by_extent: Dict[int, SymInt] = {}
        self._minted_from: Dict[str, int] = {}

    def __getitem__(self, extent: int) -> SymInt:
        """The symbol (or degenerate constant) for one extent."""
        extent = int(extent)
        if extent in self._specialize or extent < 0:
            return SymInt.const(extent)
        sym = self._by_extent.get(extent)
        if sym is None:
            sym = SymInt.sym(f"{self.prefix}{len(self._minted_from)}")
            self._by_extent[extent] = sym
            self._minted_from[sym.name] = extent
        return sym

    def __len__(self) -> int:
        return len(self._minted_from)

    def symbolize_shape(self, shape: Sequence[int]) -> Tuple[SymInt, ...]:
        """Duck-shape one concrete shape into symbolic dims."""
        return tuple(self[d] for d in shape)

    def bindings(self) -> Dict[str, int]:
        """symbol name -> the concrete extent it was minted from."""
        return dict(self._minted_from)

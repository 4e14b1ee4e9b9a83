"""Symbolic integers and the duck-shaping size-variable allocator.

TorchInductor's insight (``SizeVarAllocator`` / ``symbolic_sizes_
strides``): instead of compiling one artifact per concrete shape,
assign a *symbol* to each distinct extent of the example inputs — two
dimensions with the same extent share one symbol ("duck shaping"), so
the structural equalities a kernel actually relies on are captured for
free, and everything else stays a free variable.  A compiled artifact
is then valid for a whole *family* of shapes (see
:mod:`repro.symshape.family`), not just the example it was traced on.

A :class:`SymInt` is a leaf: a named symbol or an integer constant.
That is all guards, duck shaping and families need — a guard evaluates
its symbol under a concrete binding.  Memory is never priced
symbolically: the runtime pool sizes every buffer by its actual bytes.

Extents 0 and 1 are **never** symbolized: size-one dimensions
broadcast and size-zero dimensions vanish, so an artifact traced at
extent 1 is generally *wrong* at extent 2 (the classic Inductor
size-1 hazard).  Degenerate extents stay concrete constants, which
forces :class:`~repro.symshape.family.ShapeFamily` to specialize on
them.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

__all__ = ["SymInt", "SizeVarAllocator", "DEGENERATE_EXTENTS"]

#: extents that are always specialized to constants, never symbolized
#: (broadcasting / empty-dim semantics differ from the generic case)
DEGENERATE_EXTENTS = frozenset({0, 1})


class SymInt:
    """An immutable symbolic-integer leaf: a named symbol
    (``op == "sym"``) or an integer constant (``op == "const"``).
    Instances are value-equal and hashable, so they can key caches and
    live in guard sets."""

    __slots__ = ("op", "name", "value", "_hash")

    def __init__(self, op: str, name: str = "", value: int = 0) -> None:
        self.op = op
        self.name = name
        self.value = value
        self._hash = hash((op, name, value))

    @staticmethod
    def sym(name: str) -> "SymInt":
        """A named free symbol (``s0``, ``s1``, ...)."""
        return SymInt("sym", name=name)

    @staticmethod
    def const(value: int) -> "SymInt":
        """An integer constant."""
        return SymInt("const", value=int(value))

    @property
    def is_symbol(self) -> bool:
        """True for a bare named symbol."""
        return self.op == "sym"

    @property
    def is_const(self) -> bool:
        """True for an integer constant leaf."""
        return self.op == "const"

    def evaluate(self, env: Dict[str, int]) -> int:
        """Concrete value under ``env`` (symbol name -> extent); raises
        ``KeyError`` for an unbound symbol."""
        return self.value if self.is_const else env[self.name]

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.is_const and self.value == other
        if not isinstance(other, SymInt):
            return NotImplemented
        return (self.op == other.op and self.name == other.name
                and self.value == other.value)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return str(self.value) if self.is_const else self.name


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

"""Seeded random imperative-program generator.

Emits *frontend-scriptable Python source*: the same program class the
paper motivates (Figure 1) — tensors mutated partially through view
chains, under data- and argument-dependent control flow — which is
exactly where hand-written tests have the worst coverage.

Design rules
------------
* **Registry-driven.**  Compute and mutation statements draw their ops
  from :func:`repro.ops.registry.all_ops` filtered on the schema's
  :class:`~repro.ops.schema.GenRule`; adding a rule to the registry
  automatically widens the fuzzed surface.
* **Shape-aware.**  A scope tracks every readable tensor's shape;
  binary operands are drawn shape-compatibly (equal or numpy-
  broadcastable), stores draw width-matched windows.
* **Deterministic.**  All choices come from one ``random.Random(seed)``
  — the same seed always yields byte-identical source, so any corpus
  entry is reproducible from its seed alone.
* **Fresh-RHS stores**, with one deliberate exception.  The right-hand
  side of a subscript store is a freshly-computed tensor (scalar or
  arithmetic result) — except in the *alias-store* rule, which copies
  one window of ``y`` onto an overlapping one (numpy defines that as if
  the source were copied first, so eager is well-defined) and reads a
  view after a write to its window: the two cases where a compiled
  kernel that stores Assigns in place must keep the clone or re-derive
  the view.
* **Bounded loops by construction.**  ``while`` statements render their
  counter init and increment as fixed (unshrinkable) lines so neither
  the generator nor the shrinker can produce a non-terminating program.

Generated programs all share the signature ``f(x, flag: bool, n: int)``
with ``x`` a float32 tensor of shape ``(4, 6)``, ``flag`` steering
branches and ``n`` (0..3) steering data-dependent trip counts, and
return ``(y, acc)`` where ``y`` is the mutated clone of ``x`` and
``acc`` accumulates snapshots (so a retroactively-changed snapshot —
the classic functionalization bug — is always observable).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..ops import registry
from ..ops.schema import GenRule, OpSchema

__all__ = ["Stmt", "FuzzProgram", "ProgramGenerator", "generate_program",
           "PROGRAM_ROWS", "PROGRAM_COLS"]

#: shape of the program input ``x`` (rows x cols); row count bounds the
#: index space of generated loops (`for i in range(n)`, n <= 3 < rows)
PROGRAM_ROWS = 4
PROGRAM_COLS = 6


@dataclass
class Stmt:
    """One generated statement: a simple line, or a compound header with
    nested bodies.  ``fixed_pre``/``fixed_head`` carry scaffolding lines
    (while-loop counters) that render unconditionally — the shrinker
    removes whole ``Stmt`` nodes, so scaffolding can never be separated
    from the construct that needs it."""

    line: str
    body: List["Stmt"] = field(default_factory=list)
    orelse: List["Stmt"] = field(default_factory=list)
    #: lines rendered immediately before ``line`` at the same indent
    fixed_pre: List[str] = field(default_factory=list)
    #: lines rendered first inside ``body``'s indent
    fixed_head: List[str] = field(default_factory=list)

    @property
    def is_compound(self) -> bool:
        return self.line.endswith(":")

    def clone(self) -> "Stmt":
        return Stmt(self.line, [s.clone() for s in self.body],
                    [s.clone() for s in self.orelse],
                    list(self.fixed_pre), list(self.fixed_head))

    def render(self, out: List[str], indent: int) -> None:
        pad = "    " * indent
        for pre in self.fixed_pre:
            out.append(pad + pre)
        out.append(pad + self.line)
        if self.is_compound:
            inner = "    " * (indent + 1)
            for head in self.fixed_head:
                out.append(inner + head)
            for s in self.body:
                s.render(out, indent + 1)
            if not self.fixed_head and not self.body:
                out.append(inner + "pass")
            if self.orelse:
                out.append(pad + "else:")
                for s in self.orelse:
                    s.render(out, indent + 1)

    def walk(self, path: Tuple = ()) -> List[Tuple[Tuple, "Stmt"]]:
        """(path, stmt) pairs for this subtree; paths index into
        ``body``/``orelse`` via ("body", i) / ("orelse", i) steps."""
        found = [(path, self)]
        for i, s in enumerate(self.body):
            found.extend(s.walk(path + (("body", i),)))
        for i, s in enumerate(self.orelse):
            found.extend(s.walk(path + (("orelse", i),)))
        return found


@dataclass
class FuzzProgram:
    """A generated program: seed + statement tree, rendered on demand."""

    seed: int
    stmts: List[Stmt]
    name: str = "f"

    @property
    def source(self) -> str:
        lines = [f"def {self.name}(x, flag: bool, n: int):",
                 "    y = x.clone()",
                 "    acc = y * 0.0"]
        for s in self.stmts:
            s.render(lines, 1)
        lines.append("    return y, acc")
        return "\n".join(lines) + "\n"

    def clone(self) -> "FuzzProgram":
        return FuzzProgram(self.seed, [s.clone() for s in self.stmts],
                           self.name)

    def num_statements(self) -> int:
        return sum(len(s.walk()) for s in self.stmts)

    def walk(self) -> List[Tuple[Tuple, Stmt]]:
        found = []
        for i, s in enumerate(self.stmts):
            found.extend(s.walk((("top", i),)))
        return found


class _Scope:
    """Shape environment for one lexical block.  Lookups chain to the
    parent; definitions stay local, mirroring what the frontend carries
    across control-flow boundaries."""

    def __init__(self, parent: Optional["_Scope"] = None) -> None:
        self.parent = parent
        self.tensors: Dict[str, Tuple[int, ...]] = {}
        #: loop index variables usable as a row subscript in this block
        self.row_indices: List[str] = []

    def all_tensors(self) -> Dict[str, Tuple[int, ...]]:
        merged: Dict[str, Tuple[int, ...]] = {}
        if self.parent is not None:
            merged.update(self.parent.all_tensors())
        merged.update(self.tensors)
        return merged

    def all_row_indices(self) -> List[str]:
        base = self.parent.all_row_indices() if self.parent else []
        return base + self.row_indices


class ProgramGenerator:
    """Draws one :class:`FuzzProgram` from a seed.

    ``max_nodes`` budgets the *scripted IR size*: statement emission
    stops once the estimated node count (~6 IR nodes per statement)
    reaches the budget, keeping oracle latency predictable.
    """

    MAX_DEPTH = 2  # control-flow nesting

    def __init__(self, seed: int, max_nodes: int = 96) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.max_nodes = max_nodes
        self._budget = max(3, max_nodes // 6)  # statements
        self._tmp = 0
        self._view = 0
        self._loopvar = 0
        self._whilevar = 0
        # op pools from the registry's machine-readable rules
        self.ew_unary: List[OpSchema] = []
        self.ew_binary: List[OpSchema] = []
        self.mutating: List[OpSchema] = []
        self.reductions: List[OpSchema] = []
        for schema in registry.all_ops():
            rule = schema.gen
            if rule is None:
                continue
            if rule.kind == "elementwise":
                (self.ew_binary if rule.arity == 2
                 else self.ew_unary).append(schema)
            elif rule.kind == "mutating":
                self.mutating.append(schema)
            elif rule.kind == "reduction":
                self.reductions.append(schema)
        for pool in (self.ew_unary, self.ew_binary, self.mutating,
                     self.reductions):
            pool.sort(key=lambda s: s.name)  # determinism across runs

    # -- small draws ----------------------------------------------------

    def scalar(self, rule: Optional[GenRule] = None) -> str:
        lo, hi = rule.scalar_range if rule is not None else (0.0, 2.0)
        mag = round(self.rng.uniform(lo, hi), 3)
        if lo > 0.0:  # bounded-away-from-zero draws keep their sign free
            return repr(mag if self.rng.random() < 0.5 else -mag)
        return repr(round(self.rng.uniform(-hi, hi), 3))

    def span(self, size: int) -> Tuple[int, int]:
        a = self.rng.randrange(size)
        b = self.rng.randint(a + 1, size)
        return a, b

    def fresh_tmp(self) -> str:
        self._tmp += 1
        return f"t{self._tmp - 1}"

    def fresh_view(self) -> str:
        self._view += 1
        return f"v{self._view - 1}"

    def _pick_operand(self, scope: _Scope,
                      shape: Tuple[int, ...]) -> Optional[str]:
        """A readable tensor of exactly ``shape``."""
        names = sorted(n for n, s in scope.all_tensors().items()
                       if s == shape)
        return self.rng.choice(names) if names else None

    def _pick_any(self, scope: _Scope) -> Tuple[str, Tuple[int, ...]]:
        tensors = scope.all_tensors()
        name = self.rng.choice(sorted(tensors))
        return name, tensors[name]

    # -- statement kinds ------------------------------------------------

    def _stmt_pure(self, scope: _Scope) -> Stmt:
        """``tK = <registry elementwise/reduction/matmul expr>``."""
        roll = self.rng.random()
        name = self.fresh_tmp()
        if roll < 0.15:
            src, _ = self._pick_any(scope)
            schema = self.rng.choice(self.reductions)
            scope.tensors[name] = ()
            return Stmt(f"{name} = {src}.{schema.method}()")
        if roll < 0.30:
            # matmul through a transpose view: (R,C)@(C,R) or (C,R)@(R,C)
            mat = self._pick_operand(scope, (PROGRAM_ROWS, PROGRAM_COLS))
            if mat is not None:
                if self.rng.random() < 0.5:
                    scope.tensors[name] = (PROGRAM_ROWS, PROGRAM_ROWS)
                    return Stmt(f"{name} = {mat}.matmul("
                                f"{mat}.transpose(0, 1))")
                scope.tensors[name] = (PROGRAM_COLS, PROGRAM_COLS)
                return Stmt(f"{name} = {mat}.transpose(0, 1)"
                            f".matmul({mat})")
        a, shape = self._pick_any(scope)
        if roll < 0.55 or not self.ew_binary:
            schema = self.rng.choice(self.ew_unary)
            if schema.gen.scalar_args == 2:
                # two draws the ordered bounds replace, kept so that
                # every seed still generates the program it always did
                self.scalar()
                self.scalar()
            scope.tensors[name] = shape
            return Stmt(f"{name} = {a}.{schema.method}("
                        f"{self._ew_args(schema.gen)})")
        schema = self.rng.choice(self.ew_binary)

        def other() -> Optional[str]:
            # a same-shape tensor, else a 0-d one (it broadcasts)
            return self._pick_operand(scope, shape) or (
                self._pick_operand(scope, ()) if shape != () else None)
        args = self._ew_args(schema.gen, other, 0.6)
        scope.tensors[name] = shape
        return Stmt(f"{name} = {a}.{schema.method}({args})")

    def _ew_args(self, rule: GenRule,
                 other: Callable[[], Optional[str]] = lambda: None,
                 p: float = 0.0) -> str:
        """The arguments of one elementwise call after its tensor
        operand: clamp's ordered bounds, a fill's scalar, none, or for a
        binary op — with chance ``p`` where the rule takes a tensor —
        the tensor ``other()`` names, else a scalar."""
        if rule.scalar_args == 2:  # clamp: ordered bounds
            lo = round(self.rng.uniform(-1.5, 0.0), 3)
            hi = round(self.rng.uniform(0.0, 1.5), 3)
            return f"{lo}, {hi}"
        if rule.scalar_args == 1:
            return self.scalar()
        if rule.arity == 1:
            return ""
        arg = other() if rule.tensor_tensor and self.rng.random() < p \
            else None
        return self.scalar(rule) if arg is None else arg

    def _mut_call(self, target: str, scope: _Scope,
                  shape: Tuple[int, ...]) -> str:
        schema = self.rng.choice(self.mutating)
        return f"{target}.{schema.method}(" + self._ew_args(
            schema.gen, lambda: self._pick_operand(scope, shape), 0.4) + ")"

    def _stmt_mutate_whole(self, scope: _Scope) -> Stmt:
        target = self.rng.choice(["y", "acc"])
        return Stmt(self._mut_call(target, scope,
                                   (PROGRAM_ROWS, PROGRAM_COLS)))

    def _stmt_view_mutate(self, scope: _Scope) -> List[Stmt]:
        """``vK = y[a:b]`` (or a row) followed by an in-place op through
        the view — the canonical partial-mutation pattern."""
        name = self.fresh_view()
        if self.rng.random() < 0.5:
            a, b = self.span(PROGRAM_ROWS)
            shape = (b - a, PROGRAM_COLS)
            define = Stmt(f"{name} = y[{a}:{b}]")
        else:
            i = self.rng.randrange(PROGRAM_ROWS)
            shape = (PROGRAM_COLS,)
            define = Stmt(f"{name} = y[{i}]")
        scope.tensors[name] = shape
        return [define, Stmt(self._mut_call(name, scope, shape))]

    def _row_rhs(self, scope: _Scope) -> str:
        """A fresh (never raw-view) RHS for a row-shaped store."""
        roll = self.rng.random()
        if roll < 0.4:
            return self.scalar()
        j = self.rng.randrange(PROGRAM_ROWS)
        if roll < 0.7:
            return f"y[{j}] * {self.scalar()}"
        row = self._pick_operand(scope, (PROGRAM_COLS,))
        if row is not None:
            return f"{row} + {self.scalar()}"
        return f"y[{j}] + {self.scalar()}"

    def _stmt_store(self, scope: _Scope) -> Stmt:
        roll = self.rng.random()
        indices = scope.all_row_indices()
        if indices and roll < 0.35:
            idx = self.rng.choice(indices)
            return Stmt(f"y[{idx}] = {self._row_rhs(scope)}")
        if roll < 0.30:
            i = self.rng.randrange(PROGRAM_ROWS)
            return Stmt(f"y[{i}] = {self._row_rhs(scope)}")
        if roll < 0.50:
            i = self.rng.randrange(PROGRAM_ROWS)
            a, b = self.span(PROGRAM_COLS)
            return Stmt(f"y[{i}, {a}:{b}] = {self.scalar()}")
        if roll < 0.70:
            a, b = self.span(PROGRAM_ROWS)
            if self.rng.random() < 0.5:
                c = self.rng.randint(0, PROGRAM_ROWS - (b - a))
                rhs = f"y[{c}:{c + (b - a)}] * {self.scalar()}"
            else:
                rhs = self.scalar()
            return Stmt(f"y[{a}:{b}] = {rhs}")
        if roll < 0.85:
            a, b = self.span(PROGRAM_COLS)
            return Stmt(f"y[:, {a}:{b}] = {self.scalar()}")
        a, b = self.span(PROGRAM_ROWS)
        op = self.rng.choice(["+=", "-=", "*="])
        return Stmt(f"y[{a}:{b}] {op} {self.scalar()}")

    def _stmt_alias_store(self, scope: _Scope) -> List[Stmt]:
        """Stores whose source lives in the destination's own buffer:
        ``y[1:4] = y[0:3]`` (overlapping windows, rows or columns), or
        ``vK = y[a:b]`` taken *before* a write into its window and read
        *after* it (it aliases: eager sees the new contents)."""
        if self.rng.random() < 0.5:
            rows = self.rng.random() < 0.5
            size = PROGRAM_ROWS if rows else PROGRAM_COLS
            width = self.rng.randint(1, size - 1)
            a = self.rng.randint(0, size - width - 1)
            dst, src = (a, a + 1) if self.rng.random() < 0.5 else (a + 1, a)
            lead = "" if rows else ":, "
            return [Stmt(f"y[{lead}{dst}:{dst + width}] = "
                         f"y[{lead}{src}:{src + width}]")]
        name = self.fresh_view()
        a, b = self.span(PROGRAM_ROWS)
        hit = self.rng.randrange(a, b)  # a row inside the view
        e = self.rng.randint(0, PROGRAM_ROWS - (b - a))
        stmts = [Stmt(f"{name} = y[{a}:{b}]"),
                 Stmt(f"y[{hit}] = {self._row_rhs(scope)}"),
                 Stmt(f"y[{e}:{e + (b - a)}] = {name} * {self.scalar()}")]
        scope.tensors[name] = (b - a, PROGRAM_COLS)
        return stmts

    def _stmt_snapshot(self, scope: _Scope) -> Stmt:
        """``acc = acc + y * c``: freezes a value later mutations must
        not retroactively change (paper Figure 1's failure mode)."""
        src = self._pick_operand(scope, (PROGRAM_ROWS, PROGRAM_COLS)) or "y"
        return Stmt(f"acc = acc + {src} * {self.scalar()}")

    def _condition(self, scope: _Scope) -> str:
        roll = self.rng.random()
        if roll < 0.35:
            return self.rng.choice(["flag", "not flag"])
        if roll < 0.60:
            return self.rng.choice(["n > 1", "n == 0", "n >= 2"])
        i = self.rng.randrange(PROGRAM_ROWS)
        j = self.rng.randrange(PROGRAM_COLS)
        return f"y[{i}, {j}].item() > {self.scalar()}"

    def _stmt_if(self, scope: _Scope, depth: int) -> Stmt:
        stmt = Stmt(f"if {self._condition(scope)}:")
        stmt.body = self._gen_block(_Scope(scope), depth + 1,
                                    self.rng.randint(1, 2))
        if self.rng.random() < 0.6:
            stmt.orelse = self._gen_block(_Scope(scope), depth + 1,
                                          self.rng.randint(1, 2))
        return stmt

    def _stmt_for(self, scope: _Scope, depth: int) -> Stmt:
        var = f"i{self._loopvar}"
        self._loopvar += 1
        bound = "n" if self.rng.random() < 0.4 else \
            str(self.rng.randint(1, 3))
        stmt = Stmt(f"for {var} in range({bound}):")
        inner = _Scope(scope)
        inner.row_indices.append(var)
        stmt.body = self._gen_block(inner, depth + 1,
                                    self.rng.randint(1, 2))
        return stmt

    def _map_expr(self, operand: str, other: str) -> str:
        """One registry elementwise op on ``operand``: unary, or binary
        with a scalar or ``other`` (a tensor of the same shape)."""
        schema = self.rng.choice(self.ew_unary + self.ew_binary)
        return f"{operand}.{schema.method}(" + self._ew_args(
            schema.gen, lambda: other, 0.4) + ")"

    def _stmt_batched_for(self, scope: _Scope) -> Stmt:
        """A loop the parallelization pass batches: a map over windows
        disjoint across trips (``y[:, i + b] = f(src[:, i + b])``, or of
        one element broadcast into the window, ``f(src[0, i + b])``, or
        the affine fill ``y[i + b, i + b2:] = c``), or a
        half-independent body — per-trip compute from a capture at
        ``i`` feeding a dependent update of ``y`` at ``[:, i + 1:]``
        (greedy NMS's shape).  ``i + b`` stays inside every row extent
        the oracle replays."""
        var = f"i{self._loopvar}"
        self._loopvar += 1
        bound = "n" if self.rng.random() < 0.4 else \
            str(self.rng.randint(1, 3))
        stmt = Stmt(f"for {var} in range({bound}):")
        src = self.rng.choice(sorted(
            [n for n, s in scope.all_tensors().items()
             if s == (PROGRAM_ROWS, PROGRAM_COLS)] + ["x"]))
        cols = self.rng.random() < 0.5
        roll = self.rng.random()
        if roll < 0.4:
            b = self.rng.randint(0, (PROGRAM_COLS if cols
                                     else PROGRAM_ROWS) - 3)
            at = f"{var} + {b}" if b else var
            win, elem, other = (f"[:, {at}]", f"[0, {at}]", "acc[:, 0]") \
                if cols else (f"[{at}]", f"[{at}, 0]", "acc[0]")
            # one element per trip: its rank is below the window's
            operand = src + (elem if self.rng.random() < 0.3 else win)
            stmt.body = [Stmt(f"y{win} = {self._map_expr(operand, other)}")]
        elif roll < 0.6:
            b = self.rng.randint(0, PROGRAM_ROWS - 3)
            b2 = self.rng.randint(0, 3)
            stmt.body = [Stmt(f"y[{var} + {b}, {var} + {b2}:] = "
                              f"{self.scalar()}")]
        else:
            tmp = self.fresh_tmp()
            if cols:
                expr = self._map_expr(f"{src}[:, {var}]", "acc[:, 0]")
                update = (f"y[:, {var} + 1:] = y[:, {var} + 1:]"
                          f".maximum({tmp}.unsqueeze(1))")
            else:
                expr = self._map_expr(f"{src}[{var}]", "acc[0]")
                update = (f"y[{var} + 1:] = y[{var} + 1:] + "
                          f"{tmp} * {self.scalar()}")
            stmt.body = [Stmt(f"{tmp} = {expr}"), Stmt(update)]
        return stmt

    def _stmt_while(self, scope: _Scope, depth: int) -> Stmt:
        var = f"j{self._whilevar}"
        self._whilevar += 1
        trips = self.rng.randint(1, 3)
        stmt = Stmt(f"while {var} < {trips}:",
                    fixed_pre=[f"{var} = 0"],
                    fixed_head=[f"{var} = {var} + 1"])
        stmt.body = self._gen_block(_Scope(scope), depth + 1,
                                    self.rng.randint(1, 2))
        return stmt

    # -- assembly -------------------------------------------------------

    def _gen_block(self, scope: _Scope, depth: int,
                   n_stmts: int) -> List[Stmt]:
        out: List[Stmt] = []
        for _ in range(n_stmts):
            if self._budget <= 0:
                break
            self._budget -= 1
            roll = self.rng.random()
            if roll < 0.18:
                out.append(self._stmt_pure(scope))
            elif roll < 0.34:
                out.append(self._stmt_mutate_whole(scope))
            elif roll < 0.52:
                out.extend(self._stmt_view_mutate(scope))
            elif roll < 0.66:
                out.append(self._stmt_store(scope))
            elif roll < 0.72:
                out.extend(self._stmt_alias_store(scope))
            elif roll < 0.82:
                out.append(self._stmt_snapshot(scope))
            elif depth >= self.MAX_DEPTH:
                out.append(self._stmt_store(scope))
            elif roll < 0.90:
                out.append(self._stmt_if(scope, depth))
            elif roll < 0.96:
                out.append(self._stmt_for(scope, depth))
            elif roll < 0.98:
                out.append(self._stmt_batched_for(scope))
            else:
                out.append(self._stmt_while(scope, depth))
        return out

    def generate(self) -> FuzzProgram:
        top = _Scope()
        top.tensors["y"] = (PROGRAM_ROWS, PROGRAM_COLS)
        top.tensors["acc"] = (PROGRAM_ROWS, PROGRAM_COLS)
        n = self.rng.randint(3, max(4, self._budget))
        stmts = self._gen_block(top, 0, n)
        # every program ends with a snapshot so late mutations are
        # observable through acc even if y's final state masks them
        stmts.append(self._stmt_snapshot(top))
        return FuzzProgram(self.seed, stmts)


def generate_program(seed: int, max_nodes: int = 96) -> FuzzProgram:
    """The one-call entry point: seed -> deterministic program."""
    return ProgramGenerator(seed, max_nodes=max_nodes).generate()


def make_inputs(seed: int):
    """Deterministic input tensors for a program seed: the x payload
    plus (flag, n) variants covering both branches and zero-trip loops."""
    rng = np.random.RandomState(seed ^ 0x5EED)
    x = rng.uniform(-1.0, 1.0,
                    size=(PROGRAM_ROWS, PROGRAM_COLS)).astype(np.float32)
    variants = [(True, 2), (False, 3), (True, 0)]
    return x, variants

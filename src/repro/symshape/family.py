"""Shape families: one compiled artifact per guard-delimited shape set.

A :class:`ShapeFamily` is minted the first time a ``(pipeline,
workload, platform)`` triple compiles for a shape signature: the
example extents are duck-shaped into symbols
(:class:`~repro.symshape.symbols.SizeVarAllocator`), every minted
symbol gets the implicit ``s >= 2`` range guard (extents 0/1
specialize to constants instead), and any guards recorded *during*
compilation — a pass folding ``aten::size`` into a constant, a
bucketing divisibility hint — narrow the family further.  Afterwards a
concrete signature belongs to the family iff it *binds* structurally
(constants match, each symbol takes one consistent extent) and every
guard holds under that binding.

:class:`FamilyTable` owns the families of one
:class:`~repro.eval.cache.CompileCache` and classifies each lookup:

``hit``
    an existing family admits the signature — the cached artifact
    serves it with zero compiles;
``new``
    no family even binds structurally — a cold compile;
``guard_miss``
    a family binds but a guard flips — a recompile forced by
    specialization, counted separately so cache stats can tell "never
    saw this program" from "saw it, but the artifact was too narrow".

Guard *recording* uses a context variable: the compilation owner wraps
the compile in :func:`compiling_family`, and passes deep in the stack
(``passes/specialize.py``) call :func:`record_specialization_guard`
without threading the family through every signature.  A family is
``pending`` until its compile finishes (:meth:`ShapeFamily.seal`); an
unsealed family only admits its own seed signature, because its guard
set is still growing and admitting a second shape mid-compile could
validate it against guards that do not exist yet.
"""

from __future__ import annotations

import contextlib
import threading
from contextvars import ContextVar
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..obs import trace as obs_trace
from .guards import Guard, GuardSet, guard_eq, guard_ge, guard_mod
from .symbols import SizeVarAllocator, SymInt

__all__ = ["ShapeFamily", "FamilyTable", "FamilyStats",
           "symbolize_signature", "compiling_family", "active_family",
           "record_specialization_guard"]

#: signature entries are either a dim tuple (tensor) or a scalar
SymSignature = Tuple[Union[Tuple[SymInt, ...], SymInt, object], ...]


def symbolize_signature(signature: tuple) -> Tuple[SymSignature,
                                                   Dict[str, int]]:
    """Duck-shape one concrete shape signature.

    ``signature`` is the ``repro.eval.cache.shape_signature`` form: a
    tuple per argument that is either a tuple of ints (tensor shape) or a
    scalar.  Tensor extents and plain-int scalars ``>= 2`` share one
    symbol per distinct value; bools, 0/1 ints, and non-int scalars
    stay literal (they select branches or broadcast, so they split
    families structurally).  Returns the symbolic signature and the
    symbol -> seed-extent bindings.
    """
    alloc = SizeVarAllocator()
    out: List[object] = []
    for entry in signature:
        if isinstance(entry, tuple):
            out.append(alloc.symbolize_shape(entry))
        elif isinstance(entry, bool) or not isinstance(entry, int):
            out.append(entry)
        else:
            out.append(alloc[entry])
    return tuple(out), alloc.bindings()


class ShapeFamily:
    """One symbolic signature plus the guards its artifact relies on."""

    def __init__(self, family_id: str, prefix: tuple,
                 signature: SymSignature, seed_signature: tuple,
                 seed_env: Dict[str, int]) -> None:
        self.family_id = family_id
        self.prefix = prefix
        self.signature = signature
        self.seed_signature = seed_signature
        self.guards = GuardSet()
        self.pending = True
        self.admitted = 0
        self._lock = threading.RLock()
        self._max_extents: Dict[str, int] = dict(seed_env)
        # every duck symbol was minted from an extent >= 2 (0/1
        # specialize), and the artifact may rely on that range
        for name in sorted(seed_env):
            self.guards.add(guard_ge(SymInt.sym(name), 2))

    # -- structural binding --------------------------------------------

    def bind(self, signature: tuple) -> Optional[Dict[str, int]]:
        """Bind a concrete signature against the symbolic one.

        Returns symbol -> extent, or None when the signature does not
        match structurally (arity/rank/constant/consistency).  Two
        *distinct* symbols may bind the same extent — duck shaping only
        records the equalities the artifact was traced with, it never
        requires seed-distinct extents to stay distinct.
        """
        if len(signature) != len(self.signature):
            return None
        env: Dict[str, int] = {}
        for sym_entry, conc_entry in zip(self.signature, signature):
            if isinstance(sym_entry, tuple):
                if not isinstance(conc_entry, tuple) \
                        or len(conc_entry) != len(sym_entry):
                    return None
                if not _bind_dims(sym_entry, conc_entry, env):
                    return None
            elif isinstance(sym_entry, SymInt):
                if isinstance(conc_entry, bool) \
                        or not isinstance(conc_entry, int):
                    return None
                if not _bind_dims((sym_entry,), (conc_entry,), env):
                    return None
            else:
                if sym_entry != conc_entry \
                        or isinstance(sym_entry, bool) \
                        != isinstance(conc_entry, bool):
                    return None
        return env

    def admits(self, signature: tuple
               ) -> Tuple[Optional[Dict[str, int]], Optional[Guard]]:
        """``(env, None)`` when the family serves this signature;
        ``(None, None)`` on structural mismatch; ``(env, guard)`` when
        it binds but ``guard`` rejects it (a guard miss)."""
        env = self.bind(signature)
        if env is None:
            return None, None
        with self._lock:
            failing = self.guards.check(env)
        if failing is not None:
            return env, failing
        return env, None

    # -- lifecycle ------------------------------------------------------

    def seal(self) -> None:
        """Mark compilation finished: guards are complete, the family
        may now admit signatures other than its seed."""
        with self._lock:
            self.pending = False

    def record_guard(self, guard: Guard) -> bool:
        """Add one guard discovered during compilation; True if new."""
        with self._lock:
            return self.guards.add(guard)

    def observe(self, env: Dict[str, int]) -> None:
        """Track the largest extent each symbol has served (the memory
        planner's per-family size bound)."""
        with self._lock:
            self.admitted += 1
            for name, extent in env.items():
                if extent > self._max_extents.get(name, 0):
                    self._max_extents[name] = extent

    # -- introspection --------------------------------------------------

    def symbol_at(self, arg_index: int,
                  dim_index: Optional[int] = None) -> Optional[SymInt]:
        """The dim at ``args[arg_index].shape[dim_index]`` (or the
        scalar argument itself when ``dim_index`` is None), as a
        :class:`SymInt`; None when out of range or non-symbolic."""
        if not 0 <= arg_index < len(self.signature):
            return None
        entry = self.signature[arg_index]
        if dim_index is None:
            return entry if isinstance(entry, SymInt) else None
        if not isinstance(entry, tuple) \
                or not 0 <= dim_index < len(entry):
            return None
        return entry[dim_index]

    def extent_bounds(self) -> Dict[str, int]:
        """symbol name -> max extent observed (a copy)."""
        with self._lock:
            return dict(self._max_extents)

    def input_symshapes(self) -> List[Optional[Tuple[SymInt, ...]]]:
        """Per-argument symbolic shapes (None for scalar arguments)."""
        return [entry if isinstance(entry, tuple) else None
                for entry in self.signature]

    def shape_key(self) -> tuple:
        """Structural identity of the symbolic signature, stable across
        processes: every symbolic dim renders as ``"*"``, constants
        stay concrete.  ``family_id`` is a table-local counter (the
        same program mints ``f0`` in every process), so persistent
        stores — the tuning DB keys dynamic-shape traffic on this —
        must use the structure, never the id."""
        def render(entry):
            if isinstance(entry, tuple):
                return tuple(render(e) for e in entry)
            if isinstance(entry, SymInt):
                return entry.value if entry.is_const else "*"
            return entry
        return tuple(render(e) for e in self.signature)

    def describe(self) -> str:
        """One line: id, symbolic signature, and guard conjunction."""
        sig = ", ".join(
            "x".join(repr(d) for d in e) if isinstance(e, tuple)
            else repr(e) for e in self.signature)
        return f"{self.family_id}: ({sig}) where {self.guards.describe()}"

    def __repr__(self) -> str:
        return f"ShapeFamily<{self.describe()}>"


def _bind_dims(sym_dims: Sequence[SymInt], extents: Sequence[int],
               env: Dict[str, int]) -> bool:
    """Extend ``env`` dim-by-dim; False on any structural conflict."""
    for dim, extent in zip(sym_dims, extents):
        if not isinstance(extent, int) or isinstance(extent, bool):
            return False
        if dim.is_const:
            if dim.value != extent:
                return False
        else:
            bound = env.get(dim.name)
            if bound is None:
                # degenerate extents never bind a symbol: the symbol's
                # artifact was traced for the generic (>= 2) case
                if extent < 2:
                    return False
                env[dim.name] = extent
            elif bound != extent:
                return False
    return True


@dataclass(frozen=True)
class FamilyStats:
    """Atomic snapshot of a table's per-epoch counters."""

    hits: int
    news: int
    guard_misses: int
    families: int

    def to_dict(self) -> Dict[str, int]:
        """Plain-dict form for JSON reports."""
        return asdict(self)


class FamilyTable:
    """Thread-safe registry of shape families for one compile cache."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: Dict[tuple, List[ShapeFamily]] = {}
        self._next_id = 0
        self.hits = 0
        self.news = 0
        self.guard_misses = 0

    def _admitting(self, prefix: tuple, signature: tuple):
        """``(family, env, guard_rejected)``: the first family that
        serves ``signature`` with its binding (None, None when there is
        none) and whether some family bound it structurally but a guard
        said no.  Lock held by the caller."""
        guard_rejected = False
        for family in self._families.get(prefix, ()):
            if family.pending and signature != family.seed_signature:
                continue
            env, failing = family.admits(signature)
            if env is None:
                continue
            if failing is None:
                return family, env, guard_rejected
            guard_rejected = True
        return None, None, guard_rejected

    def resolve(self, prefix: tuple, signature: tuple,
                mod_hints: Sequence[Tuple[int, int, int]] = ()
                ) -> Tuple[ShapeFamily, str]:
        """Classify one lookup; returns ``(family, outcome)``.

        ``outcome`` is ``"hit"`` (an existing family admits the
        signature), ``"new"`` (nothing bound structurally — mint a
        family), or ``"guard_miss"`` (bound but guard-rejected — mint a
        narrower sibling and count the forced recompile).
        ``mod_hints`` are divisibility facts the caller already knows —
        ``(arg_index, dim_index, divisor)`` triples, e.g. bucketed
        extents are always ``% bucket_min == 0`` — recorded as mod
        guards on a freshly minted family.
        """
        with obs_trace.span("symshape:resolve", cat="symshape",
                            prefix=str(prefix)) as sp, self._lock:
            family, env, guard_rejected = self._admitting(prefix, signature)
            if family is not None:
                outcome = "hit"
                self.hits += 1
            else:
                sym_sig, env = symbolize_signature(signature)
                family = ShapeFamily(
                    family_id=f"f{self._next_id}", prefix=prefix,
                    signature=sym_sig, seed_signature=signature,
                    seed_env=env)
                self._next_id += 1
                for arg_index, dim_index, divisor in mod_hints:
                    sym = family.symbol_at(arg_index, dim_index)
                    if sym is not None and sym.is_symbol:
                        family.record_guard(guard_mod(sym, divisor))
                self._families.setdefault(prefix, []).append(family)
                outcome = "guard_miss" if guard_rejected else "new"
                if guard_rejected:
                    self.guard_misses += 1
                else:
                    self.news += 1
            family.observe(env)
            if sp is not None:
                sp.args["outcome"] = outcome
                sp.args["family"] = family.family_id
            return family, outcome

    def adopt(self, family: ShapeFamily) -> bool:
        """Register an externally restored family (artifact warm start).

        The family keeps its serialized id so cache keys minted from it
        keep resolving; ``_next_id`` advances past any numeric id so
        families minted later never collide.  Returns False (and leaves
        the table unchanged) when a family with the same id already
        lives under the prefix — warm starts are idempotent.
        """
        with self._lock:
            siblings = self._families.setdefault(family.prefix, [])
            if any(f.family_id == family.family_id for f in siblings):
                return False
            siblings.append(family)
            fid = family.family_id
            if fid.startswith("f") and fid[1:].isdigit():
                self._next_id = max(self._next_id, int(fid[1:]) + 1)
            return True

    def peek(self, prefix: tuple, signature: tuple
             ) -> Optional[ShapeFamily]:
        """The family that would serve a signature, without minting one
        or moving any counter (the "is an artifact already cached for
        this shape?" probe of a ``cold=False`` fetch)."""
        with self._lock:
            return self._admitting(prefix, signature)[0]

    def all_families(self) -> List[ShapeFamily]:
        """Every family in the table (a copy)."""
        with self._lock:
            return [f for fams in self._families.values() for f in fams]

    def snapshot(self) -> FamilyStats:
        """Counters plus family count, read atomically."""
        with self._lock:
            count = sum(len(v) for v in self._families.values())
            return FamilyStats(hits=self.hits, news=self.news,
                               guard_misses=self.guard_misses,
                               families=count)

    def clear(self) -> None:
        """Drop all families and zero the counters (epoch boundary)."""
        with self._lock:
            self._families.clear()
            self.hits = 0
            self.news = 0
            self.guard_misses = 0


#: the family whose compile is currently on this (context-local) stack
_ACTIVE_FAMILY: ContextVar[Optional[ShapeFamily]] = \
    ContextVar("repro_symshape_active_family", default=None)


@contextlib.contextmanager
def compiling_family(family: Optional[ShapeFamily]):
    """Scope during which passes may record guards onto ``family``."""
    token = _ACTIVE_FAMILY.set(family)
    try:
        yield family
    finally:
        _ACTIVE_FAMILY.reset(token)


def active_family() -> Optional[ShapeFamily]:
    """The family being compiled on this context, if any."""
    return _ACTIVE_FAMILY.get()


def record_specialization_guard(arg_index: int,
                                dim_index: Optional[int],
                                value: int) -> bool:
    """Record ``dim == value`` on the active family (no-op without one).

    Called by shape-specializing passes when they fold a size query or
    a scalar input into a constant: the fold is only sound while that
    dim stays ``value``, so the family must re-check it on every
    lookup.  Returns True when a new guard was recorded.
    """
    family = active_family()
    if family is None:
        return False
    sym = family.symbol_at(arg_index, dim_index)
    if sym is None or not sym.is_symbol:
        return False  # already a constant: the fold is family-wide
    return family.record_guard(guard_eq(sym, int(value)))

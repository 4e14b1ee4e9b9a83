"""Versioned, checksummed serialization of compiled programs.

A compiled artifact — the functional TensorSSA graph, its memory-plan
slot table, and descriptions of its fused kernels — is exactly the
state a worker process must rebuild after a crash.  Because holistic
functionalization leaves the graph mutation-free, that state is a pure
value: this module flattens it to canonical JSON, seals it in a
checksummed envelope, and restores it to a runnable
:class:`~repro.pipelines.base.Compiled` whose outputs are bit-exact
with a fresh compile.

Format (envelope)::

    {"magic": "repro-artifact", "checksum": sha256(payload-json),
     "payload": {"version": 8, "pipeline": ..., "key": ...,
                 "graph": ..., "memplan": ...,
                 "kernels": [...], "program_sha256": ...,
                 "stats": {...}, "grad_reference": ...}}

``grad_reference`` is present on backward artifacts only: the raw
(pre-optimization) backward graph that ``check=True`` interprets as
the oracle, shipped structurally like ``graph`` so a restored backward
is as checkable as a freshly compiled one.

Design decisions worth recording:

* The graph codec is *structural*, not textual: the printer/parser
  round-trip is lossy (it drops ``horizontal``/``num_member_ops``
  attrs and output types), so nodes, blocks, and values are encoded
  field-by-field and value names are preserved exactly — which makes
  kernel source generation deterministic, so kernels are shipped as
  *descriptions* (builder kind + source digest) and rebuilt on
  restore, with the digest check proving the restored graph lowers to
  byte-identical kernel code.  The whole-program lowering of a planned
  graph (:mod:`repro.backend.program`) ships the same way: only the
  sha256 of its generated source travels, the restore lowers again,
  compares, and caches the program on the plan — a warm-started worker
  never lowers (or compiles a kernel) on its first request.
* The memory plan is *not* trusted from the wire: the restore replans
  the graph and verifies the recorded slot table matches, so a stale
  or tampered plan can never mis-alias buffers.
* Every failure path raises :class:`repro.errors.ArtifactError` — the
  caller's contract is "fall back to a cold compile", never a crash.

:class:`ArtifactStore` is the content-addressed on-disk form: objects
are written once under their payload digest and an index maps compile
keys to digests, so a respawned worker warm-starts its compile cache
with zero compiles (see :meth:`ArtifactStore.warm_start`).
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..backend import fusion_runtime
from ..backend.program import lower
from ..errors import ArtifactError
from ..eval.cache import CompileCache
from ..ir import types as T
from ..ir import verify
from ..ir.graph import Graph, Node, Value
from ..memplan import get_or_build_plan
from ..obs import trace as obs_trace
from ..ops import registry
from ..pipelines.base import Compiled, graph_runner
from ..runtime.dtype import DType
from ..runtime.tensor import Tensor
from ..store import KeyedFileStore, atomic_write

__all__ = ["ARTIFACT_VERSION", "RestoredArtifact", "serialize_compiled",
           "deserialize_compiled", "ArtifactStore"]

#: bump on any incompatible change to the payload layout
#: (2: ``program_sha256`` — the lowered program's source digest;
#: 3: ``grad_reference`` — a backward artifact's reference graph;
#: 4: kernel source changed — owned Assign chains lower to in-place
#: stores — so every v3 ``source_sha256`` is stale;
#: 5: a kernel writes the inputs the memory plan donates in place
#: instead of copying them, so the same graph lowers to other source;
#: 6: ``out=`` members write dying inputs, and the gradient glue
#: (``grad::unbroadcast`` / ``grad::reshape_like``) fuses;
#: 7: slots and families drop their byte / extent bounds, so the
#: plan is a function of the graph alone;
#: 8: the shape-family record is gone — the key says what the compile
#: read)
ARTIFACT_VERSION = 9

_MAGIC = "repro-artifact"

#: node attrs the codec understands; ``kernel`` is deliberately absent
#: (kernels are rebuilt from descriptions, never pickled closures)
_ATTR_KEYS = ("value", "horizontal", "num_member_ops")


def _canonical(obj) -> str:
    """Canonical JSON text — the checksum and digest substrate."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- type codec ---------------------------------------------------------

_SIMPLE_TYPES = {
    "int": T.IntType, "float": T.FloatType, "bool": T.BoolType,
    "str": T.StrType, "none": T.NoneType, "any": T.AnyType,
}


def _encode_type(typ: T.Type) -> dict:
    """One IR type as a tagged dict."""
    if isinstance(typ, T.TensorType):
        return {"k": "tensor", "dtype": typ.dtype,
                "shape": list(typ.shape) if typ.shape is not None else None}
    if isinstance(typ, T.ListType):
        return {"k": "list", "elem": _encode_type(typ.elem)}
    if isinstance(typ, T.TupleType):
        return {"k": "tuple", "elems": [_encode_type(e) for e in typ.elems]}
    for tag, cls in _SIMPLE_TYPES.items():
        if type(typ) is cls:
            return {"k": tag}
    raise ArtifactError(f"unsupported IR type: {typ!r}")


def _decode_type(spec: dict) -> T.Type:
    """Inverse of :func:`_encode_type`."""
    kind = spec.get("k")
    if kind == "tensor":
        shape = spec.get("shape")
        return T.TensorType(spec.get("dtype"),
                            tuple(shape) if shape is not None else None)
    if kind == "list":
        return T.ListType(_decode_type(spec["elem"]))
    if kind == "tuple":
        return T.TupleType(tuple(_decode_type(e) for e in spec["elems"]))
    cls = _SIMPLE_TYPES.get(kind)
    if cls is None:
        raise ArtifactError(f"unknown type tag {kind!r}")
    return cls()


# -- payload (constant / argument) codec --------------------------------

def _encode_payload(value) -> object:
    """A Python constant payload as JSON-able tagged data.

    Scalars pass through; containers, tensors, and dtypes are tagged so
    decoding is unambiguous (JSON has no tuples and no ndarrays).
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return {"k": "pylist", "items": [_encode_payload(v) for v in value]}
    if isinstance(value, tuple):
        return {"k": "pytuple", "items": [_encode_payload(v) for v in value]}
    if isinstance(value, Tensor):
        arr = np.ascontiguousarray(value.numpy())
        return {"k": "ndarray", "dtype": value.dtype.name,
                "shape": list(arr.shape),
                "data": base64.b64encode(arr.tobytes()).decode("ascii")}
    if isinstance(value, DType):
        return {"k": "dtype", "name": value.name}
    raise ArtifactError(f"unsupported constant payload: {value!r}")


def _decode_payload(spec) -> object:
    """Inverse of :func:`_encode_payload`."""
    if spec is None or isinstance(spec, (bool, int, float, str)):
        return spec
    if not isinstance(spec, dict):
        raise ArtifactError(f"malformed payload: {spec!r}")
    kind = spec.get("k")
    if kind == "pylist":
        return [_decode_payload(v) for v in spec["items"]]
    if kind == "pytuple":
        return tuple(_decode_payload(v) for v in spec["items"])
    if kind == "ndarray":
        dtype = DType._registry.get(spec["dtype"])
        if dtype is None:
            raise ArtifactError(f"unknown dtype {spec['dtype']!r}")
        raw = base64.b64decode(spec["data"].encode("ascii"))
        arr = np.frombuffer(raw, dtype=dtype.np).reshape(spec["shape"])
        return Tensor.from_array(arr, copy=True)
    if kind == "dtype":
        dtype = DType._registry.get(spec["name"])
        if dtype is None:
            raise ArtifactError(f"unknown dtype {spec['name']!r}")
        return dtype
    raise ArtifactError(f"unknown payload tag {kind!r}")


# -- graph codec --------------------------------------------------------

def _encode_attrs(node: Node) -> dict:
    out = {}
    for key, val in node.attrs.items():
        if key == "kernel":
            continue  # rebuilt from the kernel description on restore
        if key not in _ATTR_KEYS:
            raise ArtifactError(
                f"node {node.op} carries unserializable attr {key!r}")
        out[key] = _encode_payload(val)
    return out


def _encode_node(node: Node) -> dict:
    return {
        "op": node.op,
        "inputs": [v.name for v in node.inputs],
        "outputs": [{"name": v.name, "type": _encode_type(v.type)}
                    for v in node.outputs],
        "attrs": _encode_attrs(node),
        "blocks": [_encode_block(b) for b in node.blocks],
    }


def _encode_block(block) -> dict:
    return {
        "params": [{"name": p.name, "type": _encode_type(p.type)}
                   for p in block.params],
        "nodes": [_encode_node(n) for n in block.nodes],
        "returns": [r.name for r in block.returns],
    }


def encode_graph(graph: Graph) -> dict:
    """The graph as structural JSON-able data, names preserved exactly."""
    return {"name": graph.name, "block": _encode_block(graph.block)}


def _decode_block_into(block, spec: dict, graph: Graph,
                       env: Dict[str, Value]) -> None:
    for pspec in spec["params"]:
        # construct Values directly (not via add_param) so restored
        # names match the serialized ones exactly — kernel source
        # generation depends on them
        value = Value(pspec["name"], _decode_type(pspec["type"]),
                      param_block=block)
        block.params.append(value)
        env[value.name] = value
    for nspec in spec["nodes"]:
        try:
            registry.get(nspec["op"])
        except KeyError as exc:
            raise ArtifactError(f"unknown op {nspec['op']!r}") from exc
        node = Node(nspec["op"], graph)
        for name in nspec["inputs"]:
            if name not in env:
                raise ArtifactError(f"dangling input %{name}")
            node.add_input(env[name])
        for ospec in nspec["outputs"]:
            value = Value(ospec["name"], _decode_type(ospec["type"]),
                          node=node)
            node.outputs.append(value)
            env[value.name] = value
        for key, val in nspec["attrs"].items():
            if key not in _ATTR_KEYS:
                raise ArtifactError(f"unknown node attr {key!r}")
            node.attrs[key] = _decode_payload(val)
        for bspec in nspec["blocks"]:
            inner = node.add_block()
            _decode_block_into(inner, bspec, graph, env)
        block.append(node)
    for name in spec["returns"]:
        if name not in env:
            raise ArtifactError(f"dangling return %{name}")
        block.add_return(env[name])


def decode_graph(spec: dict) -> Graph:
    """Rebuild a graph from :func:`encode_graph` data and verify it."""
    import itertools

    graph = Graph(spec["name"])
    env: Dict[str, Value] = {}
    _decode_block_into(graph.block, spec["block"], graph, env)
    # advance the fresh-name counters past every restored name so any
    # later construction on this graph cannot collide
    highest: Dict[str, int] = {}
    for name in env:
        base, _, suffix = name.rpartition(".")
        if base and suffix.isdigit():
            highest[base] = max(highest.get(base, -1), int(suffix))
    for base, top in highest.items():
        graph._name_counts[base] = itertools.count(top + 1)
    try:
        verify(graph)
    except Exception as exc:
        raise ArtifactError(f"restored graph fails verification: {exc}") \
            from exc
    return graph


# -- kernel descriptions -----------------------------------------------

def _kernel_kind(node: Node) -> Optional[str]:
    if node.op == "prim::FusionGroup":
        return "fusion"
    if node.op == "prim::Loop" and node.attrs.get("horizontal"):
        return "hloop"
    if node.op == "prim::ParallelMap":
        return "pmap"
    return None


def _encode_kernels(graph: Graph) -> List[dict]:
    """Describe every kernel-bearing node: walk index, builder kind,
    and the sha256 of its generated source (the restore-time proof that
    the shipped graph lowers to the same code)."""
    out = []
    for index, node in enumerate(graph.walk()):
        kind = _kernel_kind(node)
        if kind is None:
            continue
        kernel = node.attrs.get("kernel")
        if kernel is None:
            kernel = fusion_runtime.build_kernel(node)
        source = getattr(kernel, "__source__", "")
        out.append({"index": index, "kind": kind, "op": node.op,
                    "source_sha256": _sha256(source)})
    return out


def _restore_kernels(graph: Graph, specs: List[dict]) -> int:
    """Pre-compile every described kernel into the restored graph.

    Returns the number built; raises :class:`ArtifactError` when a
    described node is missing or its regenerated source digest differs
    from the recorded one.
    """
    nodes = list(graph.walk())
    built = 0
    for spec in specs:
        index = spec["index"]
        if index >= len(nodes) or nodes[index].op != spec["op"] \
                or _kernel_kind(nodes[index]) != spec["kind"]:
            raise ArtifactError(
                f"kernel description #{index} does not match the "
                f"restored graph")
        node = nodes[index]
        kernel = fusion_runtime.build_kernel(node)
        digest = _sha256(getattr(kernel, "__source__", ""))
        if digest != spec["source_sha256"]:
            raise ArtifactError(
                f"kernel source mismatch at node #{index} ({node.op}): "
                f"restored graph lowers to different code")
        with fusion_runtime._kernel_lock:
            node.attrs["kernel"] = kernel
        built += 1
    return built


# -- memory-plan codec -------------------------------------------------

def _encode_plan(plan) -> Optional[dict]:
    if plan is None:
        return None
    return {
        "summary": plan.summary(),
        "slots": [{"index": s.index, "occupants": s.occupants()}
                  for s in plan.slots],
    }


def _restore_plan(graph: Graph, spec: Optional[dict]):
    """Replan the restored graph and verify it matches the recorded
    slot table — the plan itself is never trusted from the wire."""
    if spec is None:
        return None
    plan = get_or_build_plan(graph)
    got = _encode_plan(plan)
    if got != spec:
        raise ArtifactError(
            "restored memory plan disagrees with the recorded slot "
            f"table (got {got['summary']}, recorded {spec['summary']})")
    return plan


def _program_digest(graph: Graph, plan) -> Optional[str]:
    """sha256 of the planned graph's generated program source (lowering
    now when no run has yet); None for an unplanned graph."""
    if plan is None:
        return None
    return _sha256((plan.program or lower(graph, plan)).__source__)


def _restore_program(graph: Graph, plan, digest: Optional[str]) -> None:
    """Pre-lower the planned graph's program onto the restored plan,
    verifying it against the recorded source digest."""
    if plan is None:
        return
    program = lower(graph, plan)
    if _sha256(program.__source__) != digest:
        raise ArtifactError("program source mismatch: restored graph and "
                            "plan lower to different code")
    plan.program = program


# -- stats filtering ---------------------------------------------------

def _jsonable_stats(stats: dict) -> dict:
    """The JSON-able subset of a Compiled's stats (callables and other
    live objects are dropped; ``grad_reference`` travels as a graph)."""
    out = {}
    for key, val in stats.items():
        try:
            json.dumps(val)
        except (TypeError, ValueError):
            continue
        out[key] = val
    return out


# -- top-level serialize / deserialize ---------------------------------

@dataclass
class RestoredArtifact:
    """A deserialized artifact: the runnable program plus its identity."""

    compiled: Compiled
    key: tuple
    pipeline: str
    #: kernels pre-compiled during restore (all of them — the warm
    #: path never compiles lazily)
    kernels_built: int = 0


def serialize_compiled(compiled: Compiled, key: tuple) -> bytes:
    """Flatten one compiled program to a checksummed artifact.

    ``key`` is the compile-cache key the artifact should be restored
    under (see :func:`repro.eval.cache.compile_key`).  Graph-free pipelines (eager) raise :class:`ArtifactError` — there
    is nothing stable to ship.
    """
    if compiled.graph is None:
        raise ArtifactError(
            f"pipeline {compiled.pipeline!r} produced no graph; only "
            "graph-bearing artifacts are serializable")
    with obs_trace.span("shard:serialize", cat="shard",
                        pipeline=compiled.pipeline):
        plan = getattr(compiled.graph, "_memplan", None)
        payload = {
            "version": ARTIFACT_VERSION,
            "pipeline": compiled.pipeline,
            "key": _encode_payload(tuple(key)),
            "graph": encode_graph(compiled.graph),
            "memplan": _encode_plan(plan),
            "kernels": _encode_kernels(compiled.graph),
            "program_sha256": _program_digest(compiled.graph, plan),
            "stats": _jsonable_stats(compiled.stats),
        }
        reference = compiled.stats.get("grad_reference")
        if reference is not None:
            payload["grad_reference"] = encode_graph(reference.graph)
        envelope = {"magic": _MAGIC, "checksum": _sha256(_canonical(payload)),
                    "payload": payload}
        return json.dumps(envelope, sort_keys=True).encode("utf-8")


def deserialize_compiled(data: bytes) -> RestoredArtifact:
    """Restore an artifact to a runnable compiled program.

    Every validation failure — malformed JSON, bad magic, checksum
    mismatch, version skew, graph/plan/kernel disagreement — raises
    :class:`ArtifactError`; the caller falls back to a cold compile.
    """
    with obs_trace.span("shard:deserialize", cat="shard"):
        try:
            envelope = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ArtifactError(f"malformed artifact: {exc}") from exc
        if not isinstance(envelope, dict) \
                or envelope.get("magic") != _MAGIC:
            raise ArtifactError("not a repro artifact (bad magic)")
        payload = envelope.get("payload")
        if not isinstance(payload, dict):
            raise ArtifactError("artifact has no payload")
        if envelope.get("checksum") != _sha256(_canonical(payload)):
            raise ArtifactError("artifact checksum mismatch "
                                "(corrupted or tampered payload)")
        version = payload.get("version")
        if version != ARTIFACT_VERSION:
            raise ArtifactError(
                f"artifact version {version!r} is not supported "
                f"(expected {ARTIFACT_VERSION})")
        try:
            key = _decode_payload(payload["key"])
            graph = decode_graph(payload["graph"])
            plan = _restore_plan(graph, payload.get("memplan"))
            built = _restore_kernels(graph, payload.get("kernels", ()))
            _restore_program(graph, plan, payload.get("program_sha256"))
            stats = dict(payload.get("stats", {}))
            if "grad_reference" in payload:
                stats["grad_reference"] = graph_runner(
                    decode_graph(payload["grad_reference"]))
        except ArtifactError:
            raise
        except Exception as exc:
            raise ArtifactError(f"artifact restore failed: {exc}") from exc

        stats["restored_from_artifact"] = True
        compiled = Compiled(pipeline=payload["pipeline"],
                            fn=graph_runner(graph, plan),
                            graph=graph, stats=stats)
        return RestoredArtifact(compiled=compiled, key=key,
                                pipeline=payload["pipeline"],
                                kernels_built=built)


# -- content-addressed store -------------------------------------------

class ArtifactStore:
    """Content-addressed on-disk artifact store.

    Layout: ``<root>/objects/<sha256>`` holds the artifact bytes;
    ``<root>/index/`` is a :class:`~repro.store.KeyedFileStore` whose
    tiny records map one canonical compile-key text to its object
    digest.  Every write is an atomic replace and each key owns its
    own index record, so concurrent worker *processes* sharing one
    store never lose each other's puts.  ``puts`` / ``loads`` /
    ``errors`` counters make warm-start behaviour observable in tests
    and drills.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self._objects = os.path.join(root, "objects")
        self._index = KeyedFileStore(os.path.join(root, "index"))
        self._lock = threading.Lock()
        self.puts = 0
        self.loads = 0
        self.errors = 0
        os.makedirs(self._objects, exist_ok=True)

    @staticmethod
    def _key_text(key: tuple) -> str:
        return _canonical(_encode_payload(tuple(key)))

    def put(self, key: tuple, compiled: Compiled) -> str:
        """Serialize and persist one compiled program; returns the
        object digest.  Idempotent: identical content maps to the same
        object."""
        data = serialize_compiled(compiled, key)
        digest = hashlib.sha256(data).hexdigest()
        key_text = self._key_text(key)
        with self._lock:
            obj_path = os.path.join(self._objects, digest)
            if not os.path.exists(obj_path):
                atomic_write(obj_path, data)
            self._index.write(key_text,
                              {"key": key_text, "digest": digest},
                              separators=(",", ":"))
            self.puts += 1
        return digest

    def keys(self) -> List[tuple]:
        """Every compile key currently indexed."""
        out = []
        for entry in self._index.scan():
            try:
                out.append(tuple(_decode_payload(json.loads(entry["key"]))))
            except (ValueError, KeyError, TypeError, ArtifactError):
                continue
        return out

    def load(self, key: tuple) -> Optional[RestoredArtifact]:
        """Restore the artifact stored under ``key``; None when absent.

        Corrupt objects raise :class:`ArtifactError` (and count in
        ``errors``) rather than returning a broken program.
        """
        try:  # an absent key reads as None: the TypeError below
            entry = self._index.read(self._key_text(key))
            with open(os.path.join(self._objects, entry["digest"]),
                      "rb") as fh:
                data = fh.read()
        except (OSError, ValueError, KeyError, TypeError):
            return None
        try:
            restored = deserialize_compiled(data)
        except ArtifactError:
            with self._lock:
                self.errors += 1
            raise
        with self._lock:
            self.loads += 1
        return restored

    def __len__(self) -> int:
        return len(self._index)

    def warm_start(self, cache: CompileCache) -> int:
        """Seed a compile cache with every stored artifact.

        Entries land via :meth:`CompileCache.put`, so the cache's miss
        counters stay untouched — a warm-started worker that then
        serves only stored keys reports **zero** compiles, at any input
        shape of a stored program whose pipeline does not specialize on
        shapes.  Corrupt entries are skipped (counted in ``errors``), never
        fatal: a missing warm entry just costs one cold compile.
        """
        warmed = 0
        with obs_trace.span("shard:warm_start", cat="shard"):
            for key in self.keys():
                try:
                    restored = self.load(key)
                except ArtifactError:
                    continue
                if restored is None:
                    continue
                cache.put(tuple(restored.key), restored.compiled)
                warmed += 1
        return warmed

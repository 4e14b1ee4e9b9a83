"""Differential oracle: one program, every pipeline, bit-exact or bust.

For a generated (or corpus) program the oracle:

1. materializes the source and runs it *eagerly* — the reference
   semantics — over several ``(flag, n)`` input variants that cover
   both branch arms and zero-trip loops, plus the first variant again
   on a float64 payload (scalar promotion, dtype-following ops);
2. compiles it through every requested pipeline (shape-specializing
   pipelines recompile per variant, mirroring the harness's cache key)
   and demands **bit-exact** outputs — all pipelines bottom out in the
   same numpy kernels, so even fused/planned execution must agree to
   the last ulp — once under a profile, and once more with nothing
   installed, the unaccounted path production runs;
3. re-checks caller-visible *input mutation semantics* (a program that
   only mutates its internal clone must leave ``x`` untouched in every
   pipeline);
4. verifies the compiled graph structurally (:func:`repro.ir.verify`),
   checks the TensorSSA mutation conventions
   (:func:`repro.ir.verify_mutations`) on functionalized graphs, and
   optionally demands the printer/parser round-trip be a fixed point
   that keeps every name, op, output type, block param and attribute;
5. asserts profiler conservation laws — a memory pool may only reuse
   bytes that were previously released (``bytes_reused <=
   bytes_freed``), and the arena peak equals fresh growth;
6. compiles the program once on the TensorSSA pipeline and replays
   that one artifact at several *row extents*, bit-exact against eager
   at every extent — the fuzzed counterpart of the compile cache
   serving every shape of a program from one artifact;
7. builds the **backward graph** of differentiable programs
   (``repro.grad``) and demands the optimized backward be bit-exact
   with the raw interpreted backward at every variant, and the
   interpreted backward match central finite differences at float64
   (kinked elements skipped) — programs ``grad()`` refuses with a
   typed :class:`~repro.errors.GradError` are skipped, not failed.

Any violation is returned as a :class:`FuzzFailure` (never raised), so
the driving loop can hand it straight to the shrinker.
"""

from __future__ import annotations

import itertools
import linecache
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

import repro.runtime as rt
from ..frontend import script
from ..frontend.errors import ScriptError
from ..ir import parse_graph, print_graph, verify, verify_mutations
from ..ir.verifier import VerificationError
from ..pipelines import registry as pipeline_registry
from ..pipelines.base import Pipeline
from .generator import FuzzProgram, PROGRAM_COLS, make_inputs

__all__ = ["CorpusProgram", "FuzzFailure", "OracleConfig",
           "all_pipeline_names", "graph_structure", "materialize",
           "run_oracle", "scripted_node_count"]

_materialize_counter = itertools.count()


def all_pipeline_names() -> List[str]:
    """Every registered pipeline, ablations included."""
    names = [p.name for p in pipeline_registry.default_pipelines()]
    names += [p.name for p in pipeline_registry.extra_pipelines()
              if p.name not in names]
    return names


def materialize(source: str, name: str = "f") -> Callable:
    """Compile program source into a callable whose source stays
    fetchable (``linecache``-registered) for the scripting frontend."""
    filename = f"<fuzz_prog_{next(_materialize_counter)}>"
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    namespace = {"rt": rt}
    exec(compile(source, filename, "exec"), namespace)  # noqa: S102
    return namespace[name]


def scripted_node_count(program: FuzzProgram) -> int:
    """IR size of the program as captured by the frontend."""
    graph = script(materialize(program.source, program.name)).graph
    return sum(1 for _ in graph.walk())


@dataclass
class CorpusProgram:
    """A program restored from saved source (a ``tests/corpus/`` entry)
    rather than a generator statement tree.  Anything with ``seed``,
    ``source`` and ``name`` satisfies the oracle's program protocol."""

    seed: int
    source: str
    name: str = "f"
    #: the exception type eager raises on every variant, which every
    #: pipeline must raise too (None: eager returns)
    raises: Optional[str] = None


@dataclass
class OracleConfig:
    """What to check and against which pipelines."""

    #: pipeline names or ready :class:`Pipeline` instances (instances
    #: let tests inject deliberately-broken pipelines); None: all
    pipelines: Optional[Sequence] = None
    check_graph: bool = True
    check_roundtrip: bool = True
    #: replay one artifact at several row extents (check 6)
    check_extents: bool = True
    #: row extents for that replay; the artifact compiles at the first
    replay_extents: Tuple[int, ...] = (4, 6, 8)
    #: build the backward graph, FD grad-check it, and demand the
    #: optimized backward be bit-exact with the interpreted one (check 7)
    check_grad: bool = True
    #: elements sampled per input by the check-7 FD grad-check
    grad_samples: int = 4
    #: (flag, n) input variants; None uses the generator's defaults
    variants: Optional[Sequence[Tuple[bool, int]]] = None


@dataclass
class FuzzFailure:
    """One divergence between a pipeline and eager semantics."""

    program: FuzzProgram
    pipeline: str
    kind: str       # compile-error | runtime-error | output-mismatch |
                    # input-mutation | graph-invariant | roundtrip |
                    # profile-invariant | grad-divergence
    detail: str
    #: ``(flag, n)``, or ``(flag, n, "float64")`` on the float64 payload
    variant: Optional[tuple] = None
    ir: str = field(default="", repr=False)

    def describe(self) -> str:
        head = (f"[{self.pipeline}] {self.kind}"
                + (f" at (flag, n)={self.variant}" if self.variant else ""))
        parts = [head, self.detail.rstrip(),
                 "--- program ---", self.program.source.rstrip()]
        if self.ir:
            parts += ["--- compiled IR ---", self.ir.rstrip()]
        return "\n".join(parts)


def _to_numpy(value):
    if isinstance(value, rt.Tensor):
        return value.numpy()
    return np.asarray(value)


def _diff_outputs(expected, got) -> Optional[str]:
    exp, act = rt.as_tuple(expected), rt.as_tuple(got)
    if len(exp) != len(act):
        return f"arity: expected {len(exp)} outputs, got {len(act)}"
    for i, (e, g) in enumerate(zip(exp, act)):
        ea, ga = _to_numpy(e), _to_numpy(g)
        if ea.shape != ga.shape:
            return f"output {i}: shape {ea.shape} != {ga.shape}"
        if ea.dtype != ga.dtype:
            return f"output {i}: dtype {ea.dtype} != {ga.dtype}"
        if not rt.bit_exact(ea, ga):
            with np.errstate(invalid="ignore"):
                delta = np.nanmax(np.abs(ea.astype(np.float64)
                                         - ga.astype(np.float64))) \
                    if np.issubdtype(ea.dtype, np.floating) else "n/a"
            return (f"output {i}: values diverge (max |delta| = {delta})\n"
                    f"expected:\n{ea}\ngot:\n{ga}")
    return None


def _check_graph(compiled, program: FuzzProgram,
                 config: OracleConfig) -> Optional[FuzzFailure]:
    graph = compiled.graph
    if graph is None:
        return None
    ir_text = print_graph(graph)
    try:
        verify(graph)
        # Mutation conventions only bind once a pipeline claims to have
        # functionalized the program; graphs with deliberately-skipped
        # mutations keep imperative read-after-write semantics.
        if "functionalized" in compiled.stats:
            strict = compiled.stats.get("skipped_mutations", 0) == 0
            verify_mutations(graph, strict=strict)
    except VerificationError as exc:
        return FuzzFailure(program, compiled.pipeline, "graph-invariant",
                           str(exc), ir=ir_text)
    if config.check_roundtrip:
        try:
            reparsed = parse_graph(ir_text)
        except Exception as exc:  # parse errors are findings, not crashes
            return FuzzFailure(program, compiled.pipeline, "roundtrip",
                               f"parse failed: {exc}", ir=ir_text)
        reprinted = print_graph(reparsed)
        if reprinted != ir_text:
            return FuzzFailure(program, compiled.pipeline, "roundtrip",
                               "print -> parse -> print is not a fixed "
                               f"point\nreprinted:\n{reprinted}",
                               ir=ir_text)
        for want, got in zip(graph_structure(graph),
                             graph_structure(reparsed)):
            if want != got:
                return FuzzFailure(program, compiled.pipeline, "roundtrip",
                                   f"parse lost structure: {want} came "
                                   f"back as {got}", ir=ir_text)
    return None


def graph_structure(graph) -> List[tuple]:
    """Everything the text form must keep, row by row: the graph's
    params and returns, then per node (pre-order) its op, input names,
    output names and types, attributes (the compiled kernel aside) and
    each block's params and returns."""
    def typed(values):
        return [(v.name, repr(v.type)) for v in values]

    rows = [("graph", graph.name, typed(graph.inputs),
             [v.name for v in graph.outputs])]
    for node in graph.walk():
        rows.append((node.op, [v.name for v in node.inputs],
                     typed(node.outputs),
                     {k: repr(v) for k, v in node.attrs.items()
                      if k != "kernel"},
                     [(typed(b.params), [v.name for v in b.returns])
                      for b in node.blocks]))
    return rows


def _check_profile(prof) -> Optional[str]:
    if prof.bytes_reused > prof.bytes_freed:
        return (f"pool reused {prof.bytes_reused}B but only "
                f"{prof.bytes_freed}B were ever freed")
    if prof.peak_bytes != prof.bytes_allocated:
        return (f"arena peak {prof.peak_bytes}B != fresh growth "
                f"{prof.bytes_allocated}B")
    return None


def _check_extents(program: FuzzProgram, fn: Callable,
                   config: OracleConfig) -> Optional[FuzzFailure]:
    """Oracle check 6: one artifact, many extents, bit-exact.

    Compiles the program once on the TensorSSA pipeline (the paper
    pipeline, whose compile reads no input shapes) at the first row
    extent in ``config.replay_extents``, and demands that one artifact
    be bit-exact with eager at every extent.

    Generated programs may hard-code row windows (``y[0:4]``) whose
    *eager* semantics only hold near the generator's shape — an extent
    where the eager reference itself raises is skipped rather than
    reported, because the contract only covers shapes the program is
    defined on.
    """
    pipe = pipeline_registry.get_pipeline("tensorssa")
    _, default_variants = make_inputs(program.seed)
    flag, n = list(config.variants or default_variants)[0]
    compiled = None
    for rows in config.replay_extents:
        rng = np.random.RandomState((program.seed ^ 0x5EED) + rows)
        x_data = rng.uniform(-1.0, 1.0,
                             size=(rows, PROGRAM_COLS)).astype(np.float32)
        try:
            expected = fn(rt.from_numpy(x_data), flag, n)
        except Exception:
            if compiled is None:
                return None  # not even the first extent is runnable
            continue  # program not shape-polymorphic at this extent
        if compiled is None:
            try:
                compiled = pipe.compile(fn)
            except Exception as exc:
                return FuzzFailure(program, pipe.name, "compile-error",
                                   f"extent replay compile: "
                                   f"{type(exc).__name__}: {exc}",
                                   variant=(flag, n))
        try:
            got = compiled(rt.from_numpy(x_data), flag, n)
        except Exception as exc:
            return FuzzFailure(program, pipe.name, "runtime-error",
                               f"artifact at rows={rows}: "
                               f"{type(exc).__name__}: {exc}",
                               variant=(flag, n))
        mismatch = _diff_outputs(expected, got)
        if mismatch is not None:
            return FuzzFailure(
                program, pipe.name, "output-mismatch",
                f"artifact (compiled at rows="
                f"{config.replay_extents[0]}) diverges at rows={rows}: "
                f"{mismatch}", variant=(flag, n))
    return None


def _check_grad(program: FuzzProgram, fn: Callable,
                config: OracleConfig) -> Optional[FuzzFailure]:
    """Oracle check 7: the backward graph is correct twice over.

    For differentiable generated programs this builds the backward
    graph through the TensorSSA pipeline and demands:

    (a) the optimized backward (full pass pipeline + memory plan) be
        **bit-exact** with the raw interpreted backward graph at
        float32, for every input variant — fusion/parallelization/
        planning may not change a single ulp of a gradient;
    (b) the interpreted backward, evaluated at float64, match central
        finite differences of the program's sum-of-tensor-outputs
        loss within the float64 tolerances (kinks and perturbation-
        flipped branches are detected via one-sided differences and
        skipped — FD is meaningless at a non-smooth point).

    Programs the gradient pass *refuses* (a typed
    :class:`~repro.errors.GradError`: residual mutations the
    conversion skipped, a non-differentiable op on a demanded path)
    are not failures — check 7 only binds where grad() accepts.
    """
    from ..errors import GradError
    from ..grad.check import GradCheckConfig, gradcheck
    from ..runtime.creation import promoting_f32_to
    from ..runtime.dtype import float64

    pipe = pipeline_registry.get_pipeline("tensorssa")
    x_data, default_variants = make_inputs(program.seed)
    variants = list(config.variants or default_variants)

    try:
        compiled = pipe.compile_grad(fn)
    except GradError:
        return None  # legitimately non-differentiable: nothing to check
    except Exception as exc:
        return FuzzFailure(program, pipe.name, "grad-divergence",
                           f"backward compile crashed (not a typed "
                           f"GradError): {type(exc).__name__}: {exc}")
    reference = compiled.stats["grad_reference"]
    ir_text = print_graph(compiled.graph) if compiled.graph else ""

    # (a) optimized vs interpreted backward: bit-exact at float32
    for flag, n in variants:
        try:
            got = compiled(rt.from_numpy(x_data), flag, n)
            want = reference(rt.from_numpy(x_data), flag, n)
        except Exception as exc:
            return FuzzFailure(program, pipe.name, "grad-divergence",
                               f"backward execution raised: "
                               f"{type(exc).__name__}: {exc}",
                               variant=(flag, n), ir=ir_text)
        mismatch = _diff_outputs(want, got)
        if mismatch is not None:
            return FuzzFailure(
                program, pipe.name, "grad-divergence",
                "optimized backward diverges from interpreted "
                f"backward: {mismatch}", variant=(flag, n), ir=ir_text)

    # (b) interpreted backward vs central finite differences at float64
    x64 = x_data.astype(np.float64)
    flag, n = variants[0]

    def loss(xt, flag_, n_) -> float:
        with promoting_f32_to(float64):
            outs = fn(xt.clone(), flag_, n_)
        return sum(float(o.sum()) for o in rt.as_tuple(outs)
                   if isinstance(o, rt.Tensor))

    with promoting_f32_to(float64):
        grads = rt.as_tuple(reference(rt.from_numpy(x64), flag, n))
    result = gradcheck(loss, (rt.from_numpy(x64), flag, n), list(grads),
                       wrt=[0],
                       config=GradCheckConfig(
                           samples_per_input=config.grad_samples,
                           seed=program.seed))
    if not result.ok:
        return FuzzFailure(
            program, pipe.name, "grad-divergence",
            "analytic gradient diverges from central finite "
            f"differences (max rel err {result.max_rel_err:.3g}, "
            f"{result.checked} checked, {result.skipped} kinks "
            "skipped):\n" + "\n".join(result.failures[:5]),
            variant=(flag, n), ir=ir_text)
    return None


def _pipeline_instances(config: OracleConfig) -> List[Pipeline]:
    names = config.pipelines or all_pipeline_names()
    return [pipeline_registry.get_pipeline(n) if isinstance(n, str) else n
            for n in names]


def run_oracle(program: FuzzProgram,
               config: Optional[OracleConfig] = None
               ) -> Optional[FuzzFailure]:
    """Run the full oracle stack; the first violation found, or None."""
    config = config or OracleConfig()
    x_data, default_variants = make_inputs(program.seed)
    variants = list(config.variants or default_variants)

    try:
        fn = materialize(program.source, program.name)
    except SyntaxError as exc:
        return FuzzFailure(program, "<generator>", "compile-error",
                           f"generated source does not parse: {exc}")

    # every variant on the float32 payload, then the first one again on
    # a float64 payload (tagged in ``FuzzFailure.variant``): scalar
    # promotion and dtype-following ops are checked, not just float32
    runs = [(x_data, v) for v in variants]
    runs.append((x_data.astype(np.float64), (*variants[0], "float64")))

    # -- eager reference ------------------------------------------------
    # a program eager refuses names the exception type; each pipeline
    # must raise it too, never return a value
    raises = getattr(program, "raises", None)
    reference = []
    for x_in, variant in runs:
        x = rt.from_numpy(x_in)
        try:
            expected = fn(x, *variant[:2])
        except Exception as exc:
            if type(exc).__name__ != raises:
                return FuzzFailure(program, "eager-reference",
                                   "runtime-error",
                                   f"{type(exc).__name__}: {exc}",
                                   variant=variant)
            expected = exc
        else:
            if raises is not None:
                return FuzzFailure(program, "eager-reference",
                                   "output-mismatch",
                                   f"expected {raises}, got a value",
                                   variant=variant)
        reference.append((expected, x.numpy()))

    for pipe in _pipeline_instances(config):
        compiled = None
        for (x_in, variant), (expected, x_after) in zip(runs, reference):
            flag, n = variant[:2]
            if compiled is None or pipe.needs_example_inputs:
                try:
                    compiled = pipe.compile(
                        fn, example_args=(rt.from_numpy(x_in), flag, n))
                except (ScriptError, Exception) as exc:
                    return FuzzFailure(
                        program, pipe.name, "compile-error",
                        f"{type(exc).__name__}: {exc}", variant=variant)
                if config.check_graph:
                    failure = _check_graph(compiled, program, config)
                    if failure is not None:
                        failure.variant = variant
                        return failure
            ir_text = print_graph(compiled.graph) if compiled.graph \
                else ""
            # profiled, then once with nothing installed: the path
            # production runs (no pool, no launch accounting)
            for scope, tag in ((rt.profile, ""),
                               (nullcontext, "unobserved run: ")):
                x = rt.from_numpy(x_in)
                try:
                    with scope() as prof:
                        got = compiled(x, flag, n)
                except Exception as exc:
                    if type(exc).__name__ != raises:
                        return FuzzFailure(
                            program, pipe.name, "runtime-error",
                            f"{tag}{type(exc).__name__}: {exc}",
                            variant=variant, ir=ir_text)
                    got = exc
                mismatch = (_diff_outputs(expected, got) if raises is None
                            else None if isinstance(got, Exception)
                            else f"expected {raises}, got a value")
                if mismatch is not None:
                    return FuzzFailure(program, pipe.name, "output-mismatch",
                                       tag + mismatch, variant=variant,
                                       ir=ir_text)
                if not rt.bit_exact(x.numpy(), x_after):
                    return FuzzFailure(
                        program, pipe.name, "input-mutation",
                        f"{tag}input x state diverged from eager\n"
                        f"eager:\n{x_after}\npipeline:\n{x.numpy()}",
                        variant=variant, ir=ir_text)
                profile_issue = None if prof is None \
                    else _check_profile(prof)
                if profile_issue is not None:
                    return FuzzFailure(program, pipe.name,
                                       "profile-invariant", profile_issue,
                                       variant=variant, ir=ir_text)

    if config.check_extents:
        failure = _check_extents(program, fn, config)
        if failure is not None:
            return failure

    # the finite-difference loss needs the values eager refuses
    if config.check_grad and raises is None:
        failure = _check_grad(program, fn, config)
        if failure is not None:
            return failure
    return None

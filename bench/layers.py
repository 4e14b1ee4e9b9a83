"""Per-layer probes of the traced pass.

Each layer is measured from outside: by timing calls into its public
functions (the compile pipeline is staged here by hand, in
``TensorSSAPipeline`` order), or by reading the spans the
:mod:`tracer` wrappers recorded around a handful of warm calls.  Times
are per call and summed over the workload's cases; byte and flop
figures are *computed from tensor sizes* by the program's profiler,
not measured traffic.
"""

from __future__ import annotations

import pickle
import statistics
import time
from typing import Callable, Dict, List, Sequence

import repro.runtime as rt
from repro.backend.interpreter import run_graph
from repro.eval.harness import (CompileCache, clone_args, compile_cached,
                                compile_key, run_workload)
from repro.frontend import script
from repro.ir import verify
from repro.ir.clone import clone_graph
from repro.memplan import get_or_build_plan
from repro.models import get_workload
from repro.passes import (FuserConfig, canonicalize, constant_fold, cse, dce,
                          fuse, parallelize_loops)
from repro.passes.revert import (revert_carried_assigns,
                                 revert_unfused_assigns)
from repro.pipelines import get_pipeline
from repro.serve import coalesce, scatter
from repro.serve.request import Request
from repro.shard.artifact import deserialize_compiled, serialize_compiled
from repro.shard.ipc import decode_args, encode_args
from repro.shard.router import HashRing, ShardRouter
from repro.tensorssa import convert_to_tensorssa

from measure import p50, spearman
from tracer import Tracer
from workloads import PIPELINE, Case, Workload, outputs_match

#: repeats of the hand-staged compile (medians are reported)
STAGE_REPEATS = 3
#: warm calls per case under the wrappers
PROBE_CALLS = 5
#: pipelines whose modeled latency is ranked against measured p50
RANKED_PIPELINES = ("eager", "ts_nnc", PIPELINE)


def _nodes(graph) -> int:
    return sum(1 for _ in graph.walk())


def _timed(fn: Callable, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, (time.perf_counter() - t0) * 1e3


def _stage_once(case: Case, tracer: Tracer) -> Dict[str, float]:
    """One hand-staged compile of ``case`` (forward), stage by stage."""
    fn = get_workload(case.model).model_fn
    m: Dict[str, float] = {}
    verify_ms = 0.0

    def timed_pass(key: str, pass_fn: Callable, graph) -> object:
        nonlocal verify_ms
        with tracer.span("passes." + key):
            out, ms = _timed(pass_fn, graph)
        m[f"passes.{key}_ms"] = m.get(f"passes.{key}_ms", 0.0) + ms
        with tracer.span("ir.verify"):
            verify_ms += _timed(verify, graph)[1]
        return out

    with tracer.span("compile.staged", call_id=f"stage:{case.label}"):
        with tracer.span("frontend.script"):
            scripted, m["frontend.script_ms"] = _timed(script, fn)
        m["frontend.ir_nodes"] = _nodes(scripted.graph)
        with tracer.span("ir.clone"):
            graph, m["ir.clone_ms"] = _timed(clone_graph, scripted.graph)
        with tracer.span("tensorssa.convert"):
            report, m["tensorssa.convert_ms"] = _timed(
                convert_to_tensorssa, graph)
        m["tensorssa.mutations_rewritten"] = report.num_rewritten
        m["tensorssa.mutations_skipped"] = len(report.skipped)
        m["tensorssa.ir_nodes_after"] = _nodes(graph)
        for cleanup in (dce, cse, constant_fold, canonicalize):
            timed_pass("cleanup", cleanup, graph)
        m["passes.loops_parallelized"] = timed_pass(
            "parallelize", parallelize_loops, graph)
        timed_pass("revert_carried", revert_carried_assigns, graph)
        m["passes.fusion_groups"] = timed_pass(
            "fuse", lambda g: fuse(g, FuserConfig(name="tensorssa",
                                                  fuse_views=True)), graph)
        timed_pass("revert_unfused", revert_unfused_assigns, graph)
        timed_pass("cleanup", dce, graph)
        with tracer.span("ir.verify"):
            verify_ms += _timed(verify, graph)[1]
        m["ir.verify_ms"] = verify_ms
        m["passes.total_ms"] = sum(
            m[f"passes.{k}_ms"] for k in ("cleanup", "parallelize",
                                          "revert_carried", "fuse",
                                          "revert_unfused"))
        m["passes.ir_nodes_after"] = _nodes(graph)
        with tracer.span("memplan.plan"):
            plan, m["memplan.plan_ms"] = _timed(get_or_build_plan, graph)
        m["memplan.slots"] = len(plan.slots)
        with tracer.span("backend.first_call"):
            staged_out, first_ms = _timed(
                lambda: run_graph(graph, clone_args(case.args), plan=plan))
        warm = [_timed(lambda: run_graph(graph, clone_args(case.args),
                                         plan=plan))[1] for _ in range(3)]
        m["backend.first_call_extra_ms"] = first_ms - statistics.median(warm)
    m["_graph"], m["_plan"], m["_out"] = graph, plan, staged_out
    return m


def stage_compile(cases: Sequence[Case], tracer: Tracer,
                  repeats: int = STAGE_REPEATS) -> Dict[str, float]:
    """The compile-side layers, summed over the workload's distinct
    models, plus the parity check of the hand-staged pipeline against
    ``get_pipeline("tensorssa").compile``."""
    pipe = get_pipeline(PIPELINE)
    total: Dict[str, float] = {}
    parity = 1
    seen = set()
    for case in cases:
        if (case.model, case.batch_size, case.seq_len) in seen:
            continue
        seen.add((case.model, case.batch_size, case.seq_len))
        runs = [_stage_once(case, tracer) for _ in range(repeats)]
        fn = get_workload(case.model).model_fn
        compile_ms = []
        for _ in range(repeats):
            with tracer.span("pipelines.compile"):
                compiled, ms = _timed(
                    lambda: pipe.compile(fn, example_args=case.args))
            compile_ms.append(ms)
        staged = runs[-1]
        with rt.profile() as p_staged:
            run_graph(staged["_graph"], clone_args(case.args),
                      plan=staged["_plan"])
        with rt.profile() as p_ref:
            ref_out = compiled(*clone_args(case.args))
        same = (_nodes(staged["_graph"]) == _nodes(compiled.graph)
                and p_staged.num_launches == p_ref.num_launches
                and outputs_match(tuple(staged["_out"]), ref_out))
        parity &= int(same)
        for key in runs[0]:
            if key.startswith("_"):
                continue
            vals = [r[key] for r in runs]
            value = statistics.median(vals) if key.endswith("_ms") \
                else vals[-1]
            total[key] = total.get(key, 0.0) + value
        total["pipelines.compile_ms"] = total.get(
            "pipelines.compile_ms", 0.0) + statistics.median(compile_ms)
    total["pipelines.staged_parity"] = parity
    return total


def probe_models(workload: Workload, tracer: Tracer,
                 calls: int = PROBE_CALLS) -> Dict[str, float]:
    """Backend and runtime layers: ``calls`` warm calls per case
    under the wrappers give the times, one profiled call the counts."""
    out: Dict[str, float] = {}
    rows: Dict[str, Dict[str, float]] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    for case in workload.cases:
        fn = workload.compiled[case.label]
        since = tracer.mark()
        for i in range(calls):
            with tracer.span("probe.call", call_id=f"{case.label}#{i}"):
                fn(*clone_args(case.args))
        totals = tracer.totals(since)
        graph = totals.get("backend.run_graph",
                           {"total_ms": 0.0, "self_ms": 0.0})
        kernel_ms = sum(v["self_ms"] for k, v in totals.items()
                        if k.startswith("backend.kernel:"))
        op_ms = sum(v["self_ms"] for k, v in totals.items()
                    if k.startswith("runtime.op:"))
        op_calls = sum(v["count"] for k, v in totals.items()
                       if k.startswith("runtime.op:"))
        row = {"backend.run_graph_ms": graph["total_ms"] / calls,
               "backend.kernel_ms": kernel_ms / calls,
               "backend.dispatch_self_ms": graph["self_ms"] / calls,
               "runtime.op_ms": op_ms / calls,
               "runtime.op_calls": op_calls / calls}
        with rt.profile() as prof:
            fn(*clone_args(case.args))
        row.update({
            "backend.kernel_launches": prof.num_launches,
            "backend.interp_steps": prof.num_python_steps,
            "backend.fused_ops": sum(e.fused_ops for e in prof.events),
            "runtime.bytes_moved": prof.total_bytes,
            "runtime.flops": prof.total_flops,
            "runtime.allocs": prof.num_allocs,
            "runtime.peak_bytes": prof.peak_bytes,
            # bytes the plan's death points handed back to the pool in
            # one call (slot size hints are None without static shapes,
            # so the plan itself carries no byte figure)
            "memplan.planned_bytes": prof.bytes_freed,
            "_reused": prof.bytes_reused,
            "_allocated": prof.bytes_allocated})
        rows[case.label] = row
        for key, value in row.items():
            add(key, value)
    run_ms = out.get("backend.run_graph_ms", 0.0)
    out["backend.dispatch_share"] = \
        out.get("backend.dispatch_self_ms", 0.0) / run_ms if run_ms else 0.0
    served = out.pop("_reused", 0.0) + out.pop("_allocated", 0.0)
    out["memplan.reuse_share"] = \
        sum(r["_reused"] for r in rows.values()) / served if served else 0.0
    for label, row in rows.items():
        if row["backend.run_graph_ms"]:
            out[f"model.{label}.backend.dispatch_share"] = \
                row["backend.dispatch_self_ms"] / row["backend.run_graph_ms"]
    return out


def probe_grad(workload: Workload, tracer: Tracer,
               calls: int = PROBE_CALLS) -> Dict[str, float]:
    """Backward-graph construction and warm backward time, over the
    cases with ``grad=True``.  Runs with the wrappers installed: the
    ``grad.build`` span around ``repro.grad.grad`` is the build time."""
    out = {"grad.build_ms": 0.0, "grad.bwd_ir_nodes": 0,
           "grad.bwd_run_ms": 0.0}
    pipe = get_pipeline(PIPELINE)
    for case in workload.cases:
        if not case.grad:
            continue
        since = tracer.mark()
        compiled = pipe.compile_grad(get_workload(case.model).model_fn,
                                     example_args=case.args)
        out["grad.build_ms"] += tracer.totals(since).get(
            "grad.build", {"total_ms": 0.0})["total_ms"]
        out["grad.bwd_ir_nodes"] += _nodes(compiled.graph)
        warm = workload.compiled[case.label]
        out["grad.bwd_run_ms"] += statistics.median(
            [_timed(lambda: warm(*clone_args(case.args)))[1]
             for _ in range(calls)])
    return out


def probe_eval(cases: Sequence[Case],
               calls: int = PROBE_CALLS) -> Dict[str, float]:
    """Modeled latency beside measured p50 for model x pipeline, and
    how well the cost model *ranks* them (AutoTVM's criterion)."""
    cache = CompileCache(capacity=64)
    modeled: List[float] = []
    measured: List[float] = []
    out = {"eval.modeled_latency_us": 0.0}
    seen = set()
    key = None
    for case in cases:
        shape = (case.model, case.batch_size, case.seq_len)
        if shape in seen:
            continue
        seen.add(shape)
        wl = get_workload(case.model)
        for name in RANKED_PIPELINES:
            result = run_workload(case.model, name,
                                  batch_size=case.batch_size,
                                  seq_len=case.seq_len, cache=cache)
            pipe = get_pipeline(name)
            args = wl.make_inputs(batch_size=case.batch_size,
                                  seq_len=case.seq_len, seed=0)
            compiled = compile_cached(pipe, wl, args, cache=cache)
            key = compile_key(pipe, wl, args)
            compiled(*clone_args(args))
            measured.append(p50([
                _timed(lambda: compiled(*clone_args(args)))[1]
                for _ in range(calls)]))
            modeled.append(result.latency_us)
            if name == PIPELINE:
                out["eval.modeled_latency_us"] += result.latency_us
    lookups = 2000
    t0 = time.perf_counter()
    for _ in range(lookups):
        cache.lookup(key)
    out["eval.cache_lookup_us"] = (time.perf_counter() - t0) / lookups * 1e6
    out["eval.model_rank_corr"] = spearman(modeled, measured)
    out["eval.points"] = len(modeled)
    return out


def _mean_us(fn: Callable, repeats: int) -> float:
    t0 = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - t0) / repeats * 1e6


def probe_batching(seed: int) -> Dict[str, float]:
    """Direct calls to ``serve.batching.coalesce``/``scatter`` on eight
    lstm requests (sequence length 32)."""
    import random
    from workloads import _shared_inputs
    wl = get_workload("lstm")
    inputs = _shared_inputs("lstm", 32, 8, random.Random(seed))
    reqs = [Request(workload=wl, pipeline=PIPELINE, platform="datacenter",
                    args=a) for a in inputs]
    plan = coalesce(reqs)
    outputs = wl.model_fn(*clone_args(plan.args))
    return {"serve.coalesce_us": _mean_us(lambda: coalesce(reqs), 200),
            "serve.scatter_us": _mean_us(lambda: scatter(outputs, plan), 200)}


def probe_transport(workload: Workload) -> Dict[str, float]:
    """The router-side costs of one request, timed by direct calls:
    ring lookup, argument encoding, pickling, decoding; and the artifact
    codec on the workload's compiled programs.  Sums over cases."""
    ring = HashRing(nodes=("w0", "w1"))
    pipe = get_pipeline(PIPELINE)
    out = {k: 0.0 for k in (
        "shard.route_us", "shard.encode_args_us", "shard.decode_args_us",
        "shard.pickle_us", "shard.frame_bytes",
        "shard.artifact_serialize_ms", "shard.artifact_restore_ms",
        "shard.artifact_bytes")}
    for case in workload.cases:
        key = ShardRouter.ring_key(case.model, PIPELINE, "datacenter",
                                   case.args)
        wire = encode_args(case.args)
        frame = pickle.dumps({"rid": 0, "workload": case.model,
                              "args": wire},
                             protocol=pickle.HIGHEST_PROTOCOL)
        out["shard.route_us"] += _mean_us(lambda: ring.lookup(key), 200)
        out["shard.encode_args_us"] += _mean_us(
            lambda: encode_args(case.args), 20)
        out["shard.decode_args_us"] += _mean_us(
            lambda: decode_args(wire), 20)
        out["shard.pickle_us"] += _mean_us(
            lambda: pickle.dumps(wire, protocol=pickle.HIGHEST_PROTOCOL), 20)
        out["shard.frame_bytes"] += len(frame)
        compiled = workload.compiled[case.label]
        ckey = compile_key(pipe, get_workload(case.model), case.args)
        blob, ser_ms = _timed(serialize_compiled, compiled, ckey)
        restored, res_ms = _timed(deserialize_compiled, blob)
        out["shard.artifact_serialize_ms"] += ser_ms
        out["shard.artifact_restore_ms"] += res_ms
        out["shard.artifact_bytes"] += len(blob)
        del restored
    return out

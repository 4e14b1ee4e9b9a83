"""Whole-program lowering (``repro.backend.program``): the generated
function against its two oracles — the reference interpreter
(``run_graph(plan=None)``) and eager — plus the properties the
plan-guided interpreter used to provide by construction."""

import contextlib
import json
from pathlib import Path

import numpy as np
import pytest

import repro.runtime as rt
from repro.backend import InterpreterError, fusion_runtime, program, run_graph
from repro.backend.program import lower
from repro.errors import OOMError
from repro.eval.cache import CompileCache
from repro.eval.harness import clone_args, run_workload
from repro.faults import SITE_ALLOC, FaultPlan, FaultRule, fault_scope
from repro.fuzz.generator import make_inputs
from repro.fuzz.oracle import materialize
from repro.ir.parser import parse_graph
from repro.models import get_workload, workload_names
from repro.obs import trace as obs_trace
from repro.ops import registry
from repro.pipelines import get_pipeline

CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.json"))


def _compile(workload, grad=False):
    wl = get_workload(workload)
    args = wl.make_inputs(batch_size=1, seq_len=8, seed=0)
    pipe = get_pipeline("tensorssa")
    build = pipe.compile_grad if grad else pipe.compile
    return wl, args, build(wl.model_fn, example_args=args)


def _check_against_oracles(compiled, args, expected):
    """Program == reference interpreter == ``expected``, bit for bit,
    with the pool accounting invariants of a planned run."""
    graph = compiled.graph
    plan = graph._memplan
    with rt.profile() as prof:
        got = run_graph(graph, clone_args(args), plan=plan)
    assert plan.program is not None
    reference = run_graph(graph, clone_args(args))
    assert rt.bit_exact(got, reference)
    expected = expected if isinstance(expected, tuple) else (expected,)
    assert rt.bit_exact(got, list(expected))
    assert prof.bytes_reused <= prof.bytes_freed
    assert prof.peak_bytes == prof.bytes_allocated


#: the workloads whose compiled forward keeps a horizontal loop: the
#: NMS loops, with the IoU hoisted out, and attention's causal mask
#: (ssd's class loop is lowered to one store of the whole window)
HORIZONTAL = ("attention", "fcos", "yolov3")


@pytest.mark.parametrize("workload", workload_names())
def test_forward_matches_interpreter_and_eager(workload):
    wl, args, compiled = _compile(workload)
    _check_against_oracles(compiled, args, wl.model_fn(*clone_args(args)))


@pytest.mark.parametrize("workload", workload_names())
def test_warm_cached_run_bit_exact_with_cold(workload):
    """The cold compile and the cache hit that reuses its graph (and
    the kernels the first run compiled into it) agree with eager."""
    cache = CompileCache()
    run = dict(batch_size=1, seq_len=8, seed=0)
    cold = run_workload(workload, "tensorssa", cache=cache, **run)
    warm = run_workload(workload, "tensorssa", cache=cache, **run)
    assert (cache.misses, cache.hits) == (1, 1)
    assert rt.bit_exact(cold.outputs, warm.outputs)
    assert rt.bit_exact(warm.outputs,
                        run_workload(workload, "eager", **run).outputs)


@pytest.mark.parametrize("workload", workload_names())
def test_each_horizontal_loop_compiles_one_kernel(workload):
    """Exactly the workloads in ``HORIZONTAL`` lower a horizontal loop;
    each such loop compiles its plain body kernel on the first call and
    every later call steps that same kernel."""
    cache = CompileCache()
    run_workload(workload, "tensorssa", cache=cache, batch_size=1,
                 seq_len=8)
    (_, compiled), = cache.entries()
    loops = [n for n in compiled.graph.walk() if n.attrs.get("horizontal")]
    assert bool(loops) == (workload in HORIZONTAL)
    kernels = [loop.attrs["kernel"] for loop in loops]
    for kernel in kernels:
        assert "def _hloop(" in kernel.__source__
    run_workload(workload, "tensorssa", cache=cache, batch_size=1,
                 seq_len=8)
    assert [loop.attrs["kernel"] for loop in loops] == kernels


@pytest.mark.parametrize("workload", ["lstm", "attention"])
def test_backward_matches_interpreter_and_reference(workload):
    _, args, compiled = _compile(workload, grad=True)
    _check_against_oracles(
        compiled, args, compiled.stats["grad_reference"](*clone_args(args)))


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_entry_matches_interpreter_and_eager(path):
    entry = json.loads(path.read_text())
    fn = materialize(entry["source"], entry.get("fn_name", "f"))
    compiled = get_pipeline("tensorssa").compile(fn)
    x, variants = make_inputs(entry["seed"])
    for flag, n in variants:  # both branches and a zero-trip loop
        args = (rt.Tensor.from_array(x.copy()), flag, n)
        _check_against_oracles(compiled, args, fn(*clone_args(args)))


@pytest.mark.parametrize("workload, seq_len", [
    ("attention", 12), ("attention", 1), ("yolov3", 8), ("fcos", 8)])
def test_horizontal_loops_store_in_place(workload, seq_len):
    """11 / 31 / 23 trips, and ``seq_len=1`` is attention's zero-trip
    loop: the program matches both oracles, and every horizontal loop's
    one kernel stores into its carried slot with no clone left."""
    wl = get_workload(workload)
    args = wl.make_inputs(batch_size=1, seq_len=seq_len, seed=0)
    compiled = get_pipeline("tensorssa").compile(wl.model_fn,
                                                 example_args=args)
    _check_against_oracles(compiled, args, wl.model_fn(*clone_args(args)))
    loops = [n for n in compiled.graph.walk() if n.attrs.get("horizontal")]
    assert loops
    for loop in loops:
        kernel = loop.attrs["kernel"]
        assert kernel.__stores_into__ == (0,)
        assert kernel.__assigns__["clones"] == []
        assert "immut::" not in kernel.__source__


def test_release_one_node_early_fails_loudly():
    """A planning bug must raise, never return: the evicted value is an
    unbound local, so its consumer's read fails before any kernel sees
    a recycled buffer."""
    _, args, compiled = _compile("lstm")
    graph = compiled.graph
    plan = graph._memplan
    node = next(n for n in graph.walk() if id(n) in plan.release_before)
    nodes = node.owning_block.nodes
    earlier = nodes[nodes.index(node) - 1]
    plan.release_after.setdefault(id(earlier), []).extend(
        plan.release_before.pop(id(node)))
    with pytest.raises(InterpreterError, match="read before definition"):
        compiled(*args)


def _views_in_untaken_scopes(x, flag: bool, n: int):
    y = x.exp()
    if flag:
        s = y.select(0, 1).sum()
    else:
        s = x.sum()
    for i in range(n):
        t = y.select(0, i)
        s = s + t.max()
    return s


def test_values_of_untaken_branch_and_zero_trip_loop_count_as_absent():
    """``y``'s lifetime class holds views defined only inside the branch
    and the loop body; its release after the loop must tolerate either
    never having run (``env.get`` semantics of the old interpreter)."""
    compiled = get_pipeline("tensorssa").compile(_views_in_untaken_scopes)
    plan = compiled.graph._memplan
    source = lower(compiled.graph, plan).__source__
    assert source.count("except UnboundLocalError") == 2
    x = rt.Tensor.from_array(
        np.arange(12, dtype=np.float32).reshape(3, 4) / 10)
    for flag, n in ((False, 0), (True, 0), (False, 3), (True, 2)):
        args = (x, flag, n)
        _check_against_oracles(
            compiled, args, _views_in_untaken_scopes(*clone_args(args)))


def test_wrappers_installed_after_lowering_see_every_op_and_launch(
        monkeypatch):
    """Ops and kernel entry points are resolved at call time, so a
    tracer or fault wrapper installed *after* the program was generated
    still sits around every launch."""
    _, args, compiled = _compile("lstm")
    compiled(*clone_args(args))  # lowers
    calls = {"ops": 0, "groups": 0}
    seen = []  # launches recorded while inside some wrapper

    def wrap(fn, key):
        def wrapper(*a, **kw):
            calls[key] += 1
            before = rt.profiler.current_profile().num_launches
            try:
                return fn(*a, **kw)
            finally:
                seen.append(
                    rt.profiler.current_profile().num_launches - before)
        return wrapper

    for schema in registry.all_ops():
        if schema.fn is not None:
            monkeypatch.setattr(schema, "fn", wrap(schema.fn, "ops"))
    for entry in ("execute_group", "run_horizontal_loop",
                  "run_parallel_map"):
        monkeypatch.setattr(fusion_runtime, entry,
                            wrap(getattr(fusion_runtime, entry), "groups"))
    fresh = clone_args(args)  # cloning launches kernels of its own
    with rt.profile() as prof:
        compiled(*fresh)
    assert sum(seen) == prof.num_launches > 0
    assert calls["groups"] == sum(
        e.op in ("fusion_group", "parallel_loop", "parallel_map")
        for e in prof.events) > 0
    assert calls["ops"] > 0


def test_parallel_map_stacks_one_body_call_per_index():
    """No pass produces ``prim::ParallelMap`` yet; its runtime entry runs
    the body kernel once per index, in one launch, and stacks the
    results along a new leading axis."""
    g = parse_graph("""
graph g(%n.0 : Int, %x.0 : Tensor):
  %o.0 = prim::ParallelMap(%n.0, %x.0)
    block0(%i.0 : Int, %px.0 : Tensor):
      %c.0 = prim::Constant[value=0]()
      %r.0 = immut::select(%px.0, %c.0, %i.0)
      %z.0 = aten::neg(%r.0)
      -> (%z.0)
  return (%o.0)
""")
    x = rt.Tensor.from_array(np.arange(12, dtype=np.float32).reshape(3, 4))
    with rt.profile() as prof:
        out, = run_graph(g, [3, x])
    assert np.array_equal(out.numpy(), -x.numpy())
    assert [e.op for e in prof.events] == ["parallel_map"]


def test_wrong_argument_count_raises():
    _, args, compiled = _compile("attention")
    with pytest.raises(InterpreterError, match="expects"):
        compiled(*args[:-1])


# -- a call nothing observes runs without the accounting pool ----------

@pytest.mark.parametrize("observer", [None, "profile", "trace", "faults"])
def test_pool_is_built_only_when_something_listens(monkeypatch, observer):
    """One warm call builds one ``MemoryPool`` under a profile, a trace
    sink or a fault plan alone, and none when nothing is installed."""
    _, args, compiled = _compile("lstm")
    compiled(*clone_args(args))  # lowers
    built = []

    class CountingPool(rt.MemoryPool):
        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setattr(program, "MemoryPool", CountingPool)
    scope = {None: contextlib.nullcontext, "profile": rt.profile,
             "trace": obs_trace.tracing,
             "faults": lambda: fault_scope(FaultPlan())}[observer]
    fresh = clone_args(args)
    with scope():
        compiled(*fresh)
    assert len(built) == (observer is not None)


@pytest.mark.parametrize("workload,grad", [(w, False) for w in workload_names()]
                         + [("lstm", True), ("attention", True)])
def test_unobserved_outputs_match_the_profiled_call(workload, grad):
    _, args, compiled = _compile(workload, grad=grad)
    with rt.profile() as prof:
        observed = compiled(*clone_args(args))
    assert prof.num_launches > 0
    assert rt.bit_exact(compiled(*clone_args(args)), observed)


def test_fault_plan_alone_keeps_the_alloc_checkpoint():
    """With no profile installed, a fault plan still makes the call run
    against the pool, whose ``allocate`` raises the scheduled OOM."""
    _, args, compiled = _compile("lstm")
    compiled(*clone_args(args))  # warm
    fresh = clone_args(args)
    plan = FaultPlan([FaultRule(site=SITE_ALLOC, nth=0)])
    with fault_scope(plan), pytest.raises(OOMError):
        compiled(*fresh)
    assert plan.num_fired == 1

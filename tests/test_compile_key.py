"""One artifact per program: the compile cache keys an artifact on what
its compile reads, and a scripted compile reads no input shapes."""

import pytest

import repro.runtime as rt
from repro.eval.cache import (CompileCache, clone_args, compile_key, fetch,
                              shape_signature)
from repro.eval.harness import run_workload
from repro.fuzz.oracle import all_pipeline_names
from repro.ir import print_graph
from repro.memplan.planner import plans_built
from repro.models import get_workload, workload_names
from repro.pipelines import get_pipeline
from repro.pipelines.base import Compiled, Pipeline

#: two input shapes ``(batch_size, seq_len)``, one of them batch 1
SHAPES = ((2, 16), (1, 8))

#: every pipeline whose compile takes no example inputs (eager compiles
#: nothing, so there is no product to compare)
SHAPE_GENERIC = [name for name in all_pipeline_names()
                 if not get_pipeline(name).needs_example_inputs
                 and name != "eager"]


def _inputs(wl):
    return [wl.make_inputs(batch_size=b, seq_len=s, seed=0)
            for b, s in SHAPES]


def _products(compiled, args):
    """What a compile produced: the graph text, every kernel's source
    and the lowered program's source (one call builds both)."""
    compiled(*clone_args(args))
    graph = compiled.graph
    plan = getattr(graph, "_memplan", None)
    return (print_graph(graph),
            [n.attrs["kernel"].__source__ for n in graph.walk()
             if "kernel" in n.attrs],
            plan.program.__source__ if plan is not None else None)


def _assert_bit_exact(got, want):
    assert rt.bit_exact(rt.as_tuple(got), rt.as_tuple(want))


class TestShapeGenericCompile:
    """The invariant the key rests on: a compile that takes no example
    inputs produces the same artifact at every shape, and the artifact
    compiled at one shape runs any other bit-exactly."""

    def test_only_the_tracing_pipeline_reads_example_inputs(self):
        assert [name for name in all_pipeline_names()
                if get_pipeline(name).needs_example_inputs] \
            == ["dynamo_inductor"]

    @pytest.mark.parametrize("workload", workload_names())
    @pytest.mark.parametrize("pipeline", SHAPE_GENERIC)
    def test_forward(self, pipeline, workload):
        pipe, wl = get_pipeline(pipeline), get_workload(workload)
        first, second = _inputs(wl)
        compiled = pipe.compile(wl.model_fn, example_args=first)
        again = pipe.compile(wl.model_fn, example_args=second)
        assert _products(again, second) == _products(compiled, first)
        _assert_bit_exact(compiled(*clone_args(second)),
                          wl.model_fn(*clone_args(second)))

    @pytest.mark.parametrize("workload", ["lstm", "nasrnn", "attention"])
    @pytest.mark.parametrize("pipeline", [
        name for name in SHAPE_GENERIC if get_pipeline(name).supports_grad])
    def test_backward(self, pipeline, workload):
        pipe, wl = get_pipeline(pipeline), get_workload(workload)
        first, second = _inputs(wl)
        compiled = pipe.compile_grad(wl.model_fn, example_args=first)
        again = pipe.compile_grad(wl.model_fn, example_args=second)
        assert _products(again, second) == _products(compiled, first)
        _assert_bit_exact(
            compiled(*clone_args(second)),
            compiled.stats["grad_reference"](*clone_args(second)))


class _Recording(Pipeline):
    """A pipeline that records the example inputs each compile got."""

    name = "recording"

    def __init__(self, needs_example_inputs: bool) -> None:
        self.needs_example_inputs = needs_example_inputs
        self.seen = []

    def compile(self, model_fn, example_args=None):
        self.seen.append(example_args)
        return Compiled(pipeline=self.name, fn=model_fn)


class TestCompileKey:
    def test_key_is_what_the_compile_reads(self):
        tssa = get_pipeline("tensorssa")
        dynamo = get_pipeline("dynamo_inductor")
        wl = get_workload("attention")
        args = wl.make_inputs(batch_size=2, seq_len=16, seed=0)
        assert compile_key(tssa, wl, args) == ("tensorssa", "attention")
        assert compile_key(tssa, wl, args, grad=True) \
            == ("tensorssa", "attention", "grad")
        assert compile_key(dynamo, wl, args) \
            == ("dynamo_inductor", "attention", shape_signature(args))

    @pytest.mark.parametrize("reads", [False, True])
    def test_fetch_hands_example_inputs_only_to_a_keyed_compile(self,
                                                                reads):
        pipe = _Recording(needs_example_inputs=reads)
        wl = get_workload("lstm")
        args = wl.make_inputs(batch_size=2, seq_len=16, seed=0)
        fetch(pipe, wl, args, cache=CompileCache())
        assert pipe.seen == [args if reads else None]

    def test_warm_shape_zero_compiles_zero_plans(self):
        cache = CompileCache()
        pipe = get_pipeline("tensorssa")
        wl = get_workload("lstm")
        cold = fetch(pipe, wl, wl.make_inputs(batch_size=2, seq_len=16,
                                              seed=0), cache=cache)
        assert not cold.hit
        for batch_size, seq_len in ((3, 24), (1, 8)):
            warm_args = wl.make_inputs(batch_size=batch_size,
                                       seq_len=seq_len, seed=1)
            plans_before = plans_built()
            warm = fetch(pipe, wl, warm_args, cache=cache)
            assert warm.hit and warm.compiled is cold.compiled
            assert cache.snapshot().misses == 1               # 0 compiles
            _assert_bit_exact(warm.compiled(*clone_args(warm_args)),
                              wl.model_fn(*clone_args(warm_args)))
            assert plans_built() == plans_before              # 0 memplans

    def test_specializing_pipeline_recompiles_per_shape(self):
        """The dynamo baseline specializes on shapes: a new sequence
        length is a miss that compiles, and the first length replays
        its own artifact as a hit."""
        cache = CompileCache()
        pipe = get_pipeline("dynamo_inductor")
        wl = get_workload("attention")
        a16 = wl.make_inputs(batch_size=2, seq_len=16, seed=0)
        a24 = wl.make_inputs(batch_size=2, seq_len=24, seed=0)
        first = fetch(pipe, wl, a16, cache=cache)
        other = fetch(pipe, wl, a24, cache=cache)
        assert not first.hit and not other.hit
        assert other.compiled is not first.compiled
        assert cache.snapshot().misses == 2
        again = fetch(pipe, wl, a16, cache=cache)
        assert again.hit and again.compiled is first.compiled
        assert cache.snapshot().misses == 2

    @pytest.mark.parametrize("name", ["lstm", "attention"])
    def test_grad_glue_takes_its_template_shape(self, name):
        """A backward fuses every ``grad::unbroadcast`` and
        ``grad::reshape_like``, and serves a second extent warm: each
        glue node takes its template's shape at run time."""
        cache = CompileCache()
        pipe = get_pipeline("tensorssa")
        wl = get_workload(name)
        args = wl.make_inputs(batch_size=2, seq_len=16, seed=0)
        compiled = fetch(pipe, wl, args, cache=cache, grad=True).compiled
        glue = [n for n in compiled.graph.walk()
                if n.op in ("grad::unbroadcast", "grad::reshape_like")]
        assert glue and all(n.owning_block.owning_node is not None
                            for n in glue)  # inside kernels, all of them
        warm = wl.make_inputs(batch_size=3, seq_len=24, seed=1)
        again = fetch(pipe, wl, warm, cache=cache, grad=True)
        assert again.hit and again.compiled is compiled
        _assert_bit_exact(compiled(*clone_args(warm)),
                          compiled.stats["grad_reference"](
                              *clone_args(warm)))

    def test_run_workload_second_shape_is_a_hit(self):
        cache = CompileCache()
        r1 = run_workload("lstm", "tensorssa", batch_size=2, seq_len=16,
                          cache=cache)
        r2 = run_workload("lstm", "tensorssa", batch_size=1, seq_len=24,
                          cache=cache, check=True)
        assert not r1.cache_hit and r2.cache_hit
        assert r2.cache_misses == 1

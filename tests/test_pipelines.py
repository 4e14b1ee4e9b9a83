"""Pipeline behaviour: compilation, stats, semantics, caching."""

import numpy as np
import pytest

import repro.runtime as rt
from repro.pipelines import (DynamoInductorPipeline, EagerPipeline,
                             TensorSSAPipeline, TorchScriptNNCPipeline,
                             TorchScriptNvFuserPipeline, default_pipelines,
                             get_pipeline, pipelines_by_name)


def toy_model(x, n: int):
    y = x.clone()
    for i in range(n):
        y[i] = y[i].sigmoid() * 2.0
    return y, y.sum()


ARGS = lambda: (rt.rand((4, 3), seed=7), 4)  # noqa: E731


class TestRegistry:
    def test_default_lineup(self):
        names = [p.name for p in default_pipelines()]
        assert names == ["eager", "dynamo_inductor", "ts_nvfuser",
                         "ts_nnc", "tensorssa"]

    def test_get_pipeline(self):
        assert get_pipeline("tensorssa").name == "tensorssa"
        with pytest.raises(KeyError):
            get_pipeline("nope")

    def test_labels_match_paper_legend(self):
        by_name = pipelines_by_name()
        assert "TorchScript + NNC" == by_name["ts_nnc"].label
        assert "nvFuser" in by_name["ts_nvfuser"].label
        assert "TorchDynamo" in by_name["dynamo_inductor"].label
        assert "ours" in by_name["tensorssa"].label


class TestSemantics:
    @pytest.mark.parametrize("pipeline_cls", [
        EagerPipeline, TorchScriptNNCPipeline, TorchScriptNvFuserPipeline,
        DynamoInductorPipeline, TensorSSAPipeline])
    def test_pipeline_matches_eager(self, pipeline_cls):
        pipe = pipeline_cls()
        args = ARGS()
        compiled = pipe.compile(toy_model, example_args=args)
        expected = toy_model(args[0].clone(), args[1])
        got = compiled(args[0].clone(), args[1])
        for g, e in zip(got, expected):
            np.testing.assert_allclose(g.numpy(), e.numpy(), rtol=1e-5)

    def test_tensorssa_removes_all_inner_mutation(self):
        compiled = TensorSSAPipeline().compile(toy_model)
        assert compiled.stats["mutating_ops"] == 0

    def test_tensorssa_does_not_mutate_inputs_storage(self):
        def pure_of_inputs(x):
            y = x.clone()
            y[0] = 1.0
            return y
        compiled = TensorSSAPipeline().compile(pure_of_inputs)
        x = rt.rand((3,), seed=1)
        v0 = x.version
        compiled(x)
        assert x.version == v0  # no write ever touched the input

    def test_launch_ordering(self):
        args = ARGS()
        launches = {}
        for pipe in default_pipelines():
            compiled = pipe.compile(toy_model, example_args=args)
            with rt.profile() as prof:
                compiled(args[0].clone(), args[1])
            launches[pipe.name] = prof.num_launches
        assert launches["tensorssa"] <= launches["ts_nnc"] \
            <= launches["eager"]
        assert launches["dynamo_inductor"] <= launches["eager"]


class TestStats:
    def test_stats_fields(self):
        compiled = TensorSSAPipeline().compile(toy_model)
        for key in ("nodes", "fusion_groups", "horizontal_loops",
                    "functionalized"):
            assert key in compiled.stats

    def test_ablation_flags(self):
        no_h = TensorSSAPipeline(horizontal=False, name="nh")
        compiled = no_h.compile(toy_model)
        assert compiled.stats["horizontal_loops"] == 0
        full = TensorSSAPipeline()
        assert full.compile(toy_model).stats["horizontal_loops"] == 1

    def test_dynamo_unrolls_specialized_loops(self):
        args = ARGS()
        compiled = DynamoInductorPipeline().compile(toy_model,
                                                    example_args=args)
        # trip count (4) was specialized from the int arg and unrolled
        loops = [n for n in compiled.graph.walk() if n.op == "prim::Loop"]
        assert not loops

    def test_dynamo_without_examples_keeps_loops(self):
        compiled = DynamoInductorPipeline().compile(toy_model)
        loops = [n for n in compiled.graph.walk() if n.op == "prim::Loop"]
        assert loops


class TestHarnessCache:
    def test_cache_keys_on_shape_signature(self):
        from repro.eval.cache import compile_cached, process_cache
        from repro.models import get_workload
        process_cache.clear()
        wl = get_workload("lstm")
        pipe = get_pipeline("tensorssa")
        a = compile_cached(pipe, wl, wl.make_inputs(seq_len=16))
        b = compile_cached(pipe, wl, wl.make_inputs(seq_len=16))
        c = compile_cached(pipe, wl, wl.make_inputs(seq_len=64))
        # same shapes replay the artifact; new shapes get their own
        # entry (compiled graphs carry shape-derived state such as the
        # cached memory plan and specialized kernels)
        assert a is b
        assert a is not c

    def test_dynamo_recompiles_per_shape(self):
        from repro.eval.cache import compile_cached, process_cache
        from repro.models import get_workload
        process_cache.clear()
        wl = get_workload("lstm")
        pipe = get_pipeline("dynamo_inductor")
        a = compile_cached(pipe, wl, wl.make_inputs(seq_len=16))
        b = compile_cached(pipe, wl, wl.make_inputs(seq_len=16))
        c = compile_cached(pipe, wl, wl.make_inputs(seq_len=24))
        assert a is b
        assert a is not c

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


class TestPassMetrics:
    TENSORSSA_PASSES = ["dce", "cse", "constant_fold", "canonicalize",
                        "parallelize", "revert_carried", "fuse", "revert",
                        "dce2"]

    def test_tensorssa_pass_metrics(self):
        compiled = TensorSSAPipeline().compile(toy_model)
        metrics = compiled.stats["pass_metrics"]
        assert [m.name for m in metrics] == self.TENSORSSA_PASSES
        # a pass starts from the count the previous one ended at
        for prev, cur in zip(metrics, metrics[1:]):
            assert cur.nodes_before == prev.nodes_after
        assert metrics[-1].nodes_after == \
            sum(1 for _ in compiled.graph.walk())
        assert all(m.wall_ms >= 0.0 and m.verify_ms > 0.0 for m in metrics)
        assert "verify" in repr(metrics[0])

    def test_verify_ms_is_zero_without_verify_each(self):
        from repro.frontend import script
        from repro.ir import clone_graph
        from repro.passes import PASS_METRICS_KEY, PassManager, dce
        graph = clone_graph(script(toy_model).graph)
        results = PassManager(verify_each=False).add("dce", dce).run(graph)
        [metric] = results[PASS_METRICS_KEY]
        assert metric.verify_ms == 0.0
        assert metric.nodes_before >= metric.nodes_after

    def test_forward_compile_verifies_after_every_pass(self, monkeypatch):
        # the script, each of the nine passes, and the finished graph
        import repro.ir.verifier as verifier
        real = verifier._verify_block
        tops = []

        def counting(block, *rest):
            if block.owning_node is None:
                tops.append(block)
            return real(block, *rest)
        monkeypatch.setattr(verifier, "_verify_block", counting)
        TensorSSAPipeline().compile(toy_model)
        assert len(tops) == 11

    def test_networkx_is_not_imported(self):
        # importing the package and compiling every workload must not
        # pull networkx in: it is not a dependency
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro
        code = (
            "import sys\n"
            "from repro.models import get_workload, workload_names\n"
            "from repro.pipelines import get_pipeline\n"
            "pipe = get_pipeline('tensorssa')\n"
            "for name in workload_names():\n"
            "    wl = get_workload(name)\n"
            "    args = wl.make_inputs(batch_size=1, seq_len=8)\n"
            "    pipe.compile(wl.model_fn, example_args=args)(*args)\n"
            "assert 'networkx' not in sys.modules\n"
            "print('ok')\n")
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"


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

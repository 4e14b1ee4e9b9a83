"""Differential fuzzing subsystem: generator, oracle, shrinker.

Covers the satellite checklist of the fuzzing issue:

* generator determinism — one seed, byte-identical source;
* oracle pass — 50 seeded programs through every registered pipeline
  with zero divergences;
* shrinker monotonicity — a deliberately injected pass bug is caught,
  and every shrink step preserves the failure, down to a repro whose
  scripted IR is tiny;
* IR round-trip — print -> parse -> print is a fixed point for fuzzer
  graphs, scripted and compiled alike.
"""

import pytest

from repro.fuzz import (FuzzProgram, OracleConfig, failure_predicate,
                        generate_program, materialize, run_oracle,
                        scripted_node_count, shrink)
from repro.fuzz.oracle import all_pipeline_names, graph_structure
from repro.frontend import script
from repro.ir import parse_graph, print_graph
from repro.pipelines.tensorssa_pipeline import TensorSSAPipeline

ORACLE_SEEDS = 50


class TestGenerator:
    def test_same_seed_same_source(self):
        for seed in range(10):
            a = generate_program(seed)
            b = generate_program(seed)
            assert a.source == b.source, f"seed {seed} is not deterministic"

    def test_different_seeds_differ(self):
        sources = {generate_program(s).source for s in range(10)}
        assert len(sources) > 1

    def test_programs_are_scriptable(self):
        for seed in range(5):
            program = generate_program(seed)
            fn = materialize(program.source, program.name)
            graph = script(fn).graph
            assert sum(1 for _ in graph.walk()) > 0

    def test_max_nodes_budget_scales(self):
        small = scripted_node_count(generate_program(3, max_nodes=24))
        large = scripted_node_count(generate_program(3, max_nodes=192))
        assert small < large

    def test_alias_store_rule_is_drawn(self):
        """Overlapping window copies and read-after-write views — the
        shapes an in-place Assign lowering must not get wrong — occur
        in the seeds the oracle test below replays."""
        import re
        sources = [generate_program(s).source for s in range(ORACLE_SEEDS)]
        overlap = re.compile(r"y\[(:, )?\d+:\d+\] = y\[(:, )?\d+:\d+\]$",
                             re.M)
        reread = re.compile(r"(v\d+) = y\[\d+:\d+\]\n\s+y\[\d+\] = .*\n"
                            r"\s+y\[\d+:\d+\] = \1 \* ")
        assert sum(bool(overlap.search(s)) for s in sources) >= 5
        assert sum(bool(reread.search(s)) for s in sources) >= 5

    def test_clone_is_deep(self):
        program = generate_program(0)
        copy = program.clone()
        copy.stmts[0].line = "# tampered"
        assert program.source != copy.source


class TestOracle:
    @pytest.mark.parametrize("seed", range(ORACLE_SEEDS))
    def test_pipelines_agree(self, seed):
        failure = run_oracle(generate_program(seed))
        assert failure is None, failure.describe()

    def test_all_pipelines_include_ablation(self):
        names = all_pipeline_names()
        assert "tensorssa" in names and "tensorssa_noplan" in names

    def test_oracle_reports_eager_errors(self):
        program = FuzzProgram(seed=0, stmts=[])
        program.stmts = []
        bad = FuzzProgram.__new__(FuzzProgram)
        bad.seed = 0
        bad.stmts = []
        bad.name = "f"
        # sabotage: undefined name only reachable at runtime
        src = ("def f(x, flag: bool, n: int):\n"
               "    y = x.clone()\n"
               "    acc = missing_name * 1.0\n"
               "    return y, acc\n")

        class Raw:
            seed = 0
            source = src
            name = "f"

        failure = run_oracle(Raw())
        assert failure is not None
        assert failure.pipeline == "eager-reference"
        assert failure.kind == "runtime-error"


class _BuggyTensorSSA(TensorSSAPipeline):
    """TensorSSA pipeline with an injected post-compile pass bug: the
    first tensor-tensor ``aten::add`` silently becomes ``aten::sub``."""

    def __init__(self):
        super().__init__(name="tensorssa_buggy")

    def compile(self, model_fn, example_args=None):
        compiled = super().compile(model_fn, example_args=example_args)
        from repro.ir import types as T
        for node in compiled.graph.walk():
            if node.op != "aten::add":
                continue
            if all(isinstance(v.type, T.TensorType) for v in node.inputs):
                node.op = "aten::sub"
                break
        return compiled


class TestShrinker:
    # the single-op bug is invisible on programs whose first tensor-
    # tensor add has a zero operand (add == sub there); these seeds are
    # known to expose it
    def _failing_setup(self, seed=5):
        program = generate_program(seed)
        config = OracleConfig(pipelines=[_BuggyTensorSSA()],
                              check_roundtrip=False)
        failure = run_oracle(program, config)
        assert failure is not None, "injected bug was not caught"
        assert failure.kind == "output-mismatch"
        assert failure.pipeline == "tensorssa_buggy"
        return program, config, failure

    def test_injected_bug_is_caught_and_shrunk_small(self):
        program, config, failure = self._failing_setup()
        predicate = failure_predicate(failure, config)
        small = shrink(program, predicate)
        assert small.num_statements() <= program.num_statements()
        # acceptance bar: the repro's scripted IR is <= 10 nodes
        assert scripted_node_count(small) <= 10, small.source

    def test_shrunk_program_still_fails(self):
        """Monotonicity: the shrunk program reproduces the same failure
        kind on the same pipeline."""
        program, config, failure = self._failing_setup(seed=8)
        predicate = failure_predicate(failure, config)
        small = shrink(program, predicate)
        assert predicate(small), (
            "shrinker returned a program that no longer fails:\n"
            + small.source)

    def test_shrink_noop_when_predicate_never_held(self):
        program = generate_program(0)
        out = shrink(program, lambda p: False)
        assert out.source == program.source

    def test_while_scaffolding_survives_shrinking(self):
        """Counter init/increment render with their loop even after all
        shrinkable body statements are gone (no infinite loops)."""
        program, config, failure = self._failing_setup(seed=6)
        small = shrink(program, failure_predicate(failure, config))
        src = small.source
        for line in src.splitlines():
            if line.strip().startswith("while "):
                var = line.strip().split()[1]
                assert f"{var} = 0" in src
                assert f"{var} = {var} + 1" in src


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(15))
    def test_scripted_graph_fixed_point(self, seed):
        program = generate_program(seed)
        graph = script(materialize(program.source, program.name)).graph
        text = print_graph(graph)
        assert print_graph(parse_graph(text)) == text

    @pytest.mark.parametrize("seed", range(5))
    def test_compiled_graph_fixed_point(self, seed):
        from repro.pipelines.registry import get_pipeline
        import repro.runtime as rt
        from repro.fuzz.generator import make_inputs
        import numpy as np
        program = generate_program(seed)
        fn = materialize(program.source, program.name)
        x, variants = make_inputs(seed)
        flag, n = variants[0]
        for name in ("tensorssa", "ts_nnc"):
            pipe = get_pipeline(name)
            compiled = pipe.compile(
                fn, example_args=(rt.from_numpy(x), flag, n))
            text = print_graph(compiled.graph)
            reparsed = parse_graph(text)
            assert print_graph(reparsed) == text, name
            assert graph_structure(reparsed) == \
                graph_structure(compiled.graph), name

    def test_nonfinite_constants_round_trip(self):
        import math
        from repro.ir.graph import Graph
        g = Graph("t")
        for val in (math.inf, -math.inf, math.nan):
            c = g.constant(val)
            g.block.append(c)
        g.block.add_return(g.block.nodes[0].output())
        text = print_graph(g)
        assert print_graph(parse_graph(text)) == text

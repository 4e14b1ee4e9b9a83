"""Figure 8 — latency across sequence lengths (NLP + Attention).

Paper shapes: TensorSSA's latency grows linearly with sequence length
and stays below every baseline at every length; the tracing baseline
degrades sharply once the loop exceeds its unrolling budget (the graph
breaks the paper's §5.3 attributes Dynamo's overhead to).
"""

import pytest

from repro.eval.harness import run_workload

WORKLOADS = ["nasrnn", "lstm", "seq2seq", "attention"]
SEQ_LENS = (16, 64, 128)


def _latency(workload: str, pipeline: str, seq_len: int) -> float:
    return run_workload(workload, pipeline, seq_len=seq_len).latency_us


class TestFig8Shape:
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_ours_fastest_at_every_length(self, workload):
        for sl in SEQ_LENS:
            ours = _latency(workload, "tensorssa", sl)
            for baseline in ("ts_nnc", "ts_nvfuser", "dynamo_inductor"):
                assert ours <= _latency(workload, baseline, sl) * 1.01, (
                    workload, baseline, sl)

    @pytest.mark.parametrize("workload", ["nasrnn", "lstm", "seq2seq"])
    def test_linear_growth(self, workload):
        """Latency at 128 should be roughly 2x the latency at 64 —
        linear time growth (paper: 'exhibits linear time growth')."""
        t64 = _latency(workload, "tensorssa", 64)
        t128 = _latency(workload, "tensorssa", 128)
        assert 1.5 <= t128 / t64 <= 3.0, (workload, t128 / t64)

    def test_dynamo_unroll_budget_crossover(self):
        """Past the unroll budget the tracing pipeline pays per-iteration
        graph breaks: its latency ratio to ours must worsen."""
        ratio_small = (_latency("lstm", "dynamo_inductor", 16)
                       / _latency("lstm", "tensorssa", 16))
        ratio_large = (_latency("lstm", "dynamo_inductor", 128)
                       / _latency("lstm", "tensorssa", 128))
        assert ratio_large > ratio_small

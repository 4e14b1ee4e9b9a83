"""Figure 7 — speedup across batch sizes.

Paper shapes: for SSD, FCOS, and seq2seq the memory-intensive share
grows with batch size, so TensorSSA's advantage grows; for YOLOv3,
YOLACT, and Attention the workload turns compute-bound and the speedup
shrinks.  We assert the *direction* of each trend between the smallest
and largest batch.
"""

import pytest

from repro.eval.harness import run_workload

GROWING = ["ssd", "fcos", "seq2seq"]
SHRINKING = ["yolov3", "yolact", "attention"]
BATCHES = (1, 4, 16)


def _speedup(workload: str, batch_size: int) -> float:
    eager = run_workload(workload, "eager", batch_size=batch_size,
                         seq_len=32)
    ours = run_workload(workload, "tensorssa", batch_size=batch_size,
                        seq_len=32)
    return eager.latency_us / ours.latency_us


class TestFig7Shape:
    @pytest.mark.parametrize("workload", GROWING + SHRINKING)
    def test_speedup_positive_at_all_batches(self, workload):
        for bs in BATCHES:
            assert _speedup(workload, bs) > 1.0, (workload, bs)

    @pytest.mark.parametrize("workload", SHRINKING)
    def test_speedup_shrinks_with_batch(self, workload):
        assert _speedup(workload, BATCHES[-1]) < \
            _speedup(workload, BATCHES[0]) * 1.05, workload

    def test_latency_grows_with_batch(self):
        for workload in GROWING:
            small = run_workload(workload, "tensorssa", batch_size=1,
                                 seq_len=32)
            large = run_workload(workload, "tensorssa", batch_size=16,
                                 seq_len=32)
            assert large.latency_us > small.latency_us, workload

"""Ablations over TensorSSA's design choices (DESIGN.md §5).

Quantifies each ingredient of the paper's §4:

* vertical fusion only (no horizontal parallelization),
* horizontal only (no vertical fusion),
* data-flow-only functionalization (intra-block, what tracing
  compilers achieve) — isolating the value of *holistic* conversion.
"""

import pytest

import repro.runtime as rt
from repro.eval.harness import clone_args
from repro.eval.platforms import DATACENTER
from repro.models import get_workload
from repro.pipelines import TensorSSAPipeline

VARIANTS = {
    "full": dict(),
    "no_horizontal": dict(horizontal=False),
    "no_vertical": dict(vertical=False),
    "intra_block": dict(intra_block_only=True),
}


def _modeled_latency(workload: str, **pipeline_kwargs) -> float:
    wl = get_workload(workload)
    pipe = TensorSSAPipeline(name="tensorssa_ablation", **pipeline_kwargs)
    args = wl.make_inputs(batch_size=1, seq_len=32)
    compiled = pipe.compile(wl.model_fn)
    with rt.profile() as prof:
        compiled(*clone_args(args))
    return DATACENTER.latency_us(prof, pipe.host_profile)


class TestAblations:
    @pytest.mark.parametrize("workload", ["ssd", "attention"])
    def test_horizontal_matters_for_parallel_loops(self, workload):
        full = _modeled_latency(workload)
        no_h = _modeled_latency(workload, horizontal=False)
        assert full < no_h, (workload, full, no_h)

    @pytest.mark.parametrize("workload", ["lstm", "nasrnn"])
    def test_vertical_matters_for_rnn_cells(self, workload):
        full = _modeled_latency(workload)
        no_v = _modeled_latency(workload, vertical=False)
        assert full < no_v, (workload, full, no_v)

    @pytest.mark.parametrize("workload", ["lstm", "attention", "yolov3"])
    def test_holistic_beats_intra_block(self, workload):
        """The paper's core claim: crossing control-flow boundaries
        (block propagation) buys real performance over data-flow-only
        functionalization."""
        full = _modeled_latency(workload)
        intra = _modeled_latency(workload, intra_block_only=True)
        assert full < intra, (workload, full, intra)

    @pytest.mark.parametrize("workload", ["ssd", "lstm"])
    def test_every_variant_is_correct(self, workload):
        import numpy as np
        wl = get_workload(workload)
        args = wl.make_inputs(batch_size=1, seq_len=16)
        expected = wl.model_fn(*clone_args(args))
        expected = expected if isinstance(expected, tuple) else (expected,)
        for name, kwargs in VARIANTS.items():
            pipe = TensorSSAPipeline(name=f"ablate_{name}", **kwargs)
            compiled = pipe.compile(wl.model_fn)
            got = compiled(*clone_args(args))
            got = got if isinstance(got, tuple) else (got,)
            for g, e in zip(got, expected):
                np.testing.assert_allclose(
                    g.numpy().astype(float), e.numpy().astype(float),
                    rtol=1e-4, atol=1e-5,
                    err_msg=f"{workload}/{name}")

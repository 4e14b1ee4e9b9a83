"""Regenerators for every figure in the paper's evaluation (§5).

Each ``figN()`` returns the figure's data as nested dicts and can print
the paper-style table.  The module doubles as a CLI::

    python -m repro.eval.figures fig5
    python -m repro.eval.figures fig6 fig7 fig8 intro
"""

from __future__ import annotations

import sys
from typing import Dict, List, Sequence

from ..models import WORKLOADS
from ..pipelines import default_pipelines
from .harness import run_workload
from .platforms import PLATFORMS, get_platform
from .report import format_table, geomean, summarize_speedups

PIPELINE_ORDER = ["eager", "dynamo_inductor", "ts_nvfuser", "ts_nnc",
                  "tensorssa"]
COMPARED = PIPELINE_ORDER[1:]

#: nominal backbone compute (GFLOPs) per workload, used only by the
#: §1 imperative-fraction estimate — the paper offloads backbones to
#: TensorRT, so they are constants outside the compared region.
BACKBONE_GFLOPS = {
    "yolov3": 65.9, "ssd": 31.4, "yolact": 61.6, "fcos": 80.0,
    "nasrnn": 2.0, "lstm": 2.0, "seq2seq": 2.5, "attention": 1.0,
}

FIG7_BATCH_SIZES = (1, 2, 4, 8, 16)
FIG7_WORKLOADS = ("yolov3", "ssd", "yolact", "fcos", "seq2seq",
                  "attention")
FIG8_SEQ_LENS = (16, 32, 64, 128, 256)
FIG8_WORKLOADS = ("nasrnn", "lstm", "seq2seq", "attention")


def _speedups(name: str, platform: str, **shape) -> Dict[str, float]:
    """Eager latency over each compared pipeline's, for one workload."""
    eager = run_workload(name, "eager", platform=platform, **shape)
    return {pipe: eager.latency_us / run_workload(
                name, pipe, platform=platform, **shape).latency_us
            for pipe in COMPARED}


def _speedup_grid(platform: str) -> Dict[str, Dict[str, float]]:
    return {name: _speedups(name, platform) for name in WORKLOADS}


def fig5(platforms: Sequence[str] = ("consumer", "datacenter"),
         echo: bool = True) -> Dict[str, Dict[str, Dict[str, float]]]:
    """End-to-end speedup over PyTorch eager (paper Figure 5)."""
    data = {}
    for plat in platforms:
        grid = _speedup_grid(plat)
        data[plat] = grid
        if echo:
            rows = [[grid[w][p] for p in COMPARED] for w in grid]
            print(format_table(
                f"Figure 5 [{get_platform(plat).label}] — "
                f"speedup over eager",
                COMPARED, rows, list(grid)))
            ours_vs_best = {
                w: grid[w]["tensorssa"]
                / max(grid[w][p] for p in COMPARED[:-1])
                for w in grid}
            print(f"  vs best baseline: "
                  f"{summarize_speedups(ours_vs_best)}\n")
    return data


def fig6(echo: bool = True) -> Dict[str, Dict[str, int]]:
    """Kernel launch counts (paper Figure 6)."""
    data: Dict[str, Dict[str, int]] = {}
    for name in WORKLOADS:
        data[name] = {}
        for pipe in PIPELINE_ORDER:
            res = run_workload(name, pipe)
            data[name][pipe] = res.kernel_launches
    if echo:
        rows = [[data[w][p] for p in PIPELINE_ORDER] for w in data]
        print(format_table("Figure 6 — kernel launches per inference",
                           PIPELINE_ORDER, rows, list(data), fmt="{:d}"))
        print()
    return data


def fig7(platform: str = "datacenter",
         echo: bool = True) -> Dict[str, Dict[int, Dict[str, float]]]:
    """Speedup over eager at different batch sizes (paper Figure 7)."""
    data = {name: {bs: _speedups(name, platform, batch_size=bs)
                   for bs in FIG7_BATCH_SIZES}
            for name in FIG7_WORKLOADS}
    if echo:
        for name in FIG7_WORKLOADS:
            rows = [[data[name][bs][p] for p in COMPARED]
                    for bs in FIG7_BATCH_SIZES]
            print(format_table(
                f"Figure 7 [{name}] — speedup over eager vs batch size",
                COMPARED, rows,
                [f"bs={bs}" for bs in FIG7_BATCH_SIZES]))
            print()
    return data


def fig8(platform: str = "datacenter",
         echo: bool = True) -> Dict[str, Dict[int, Dict[str, float]]]:
    """Latency (ms) across sequence lengths (paper Figure 8)."""
    data: Dict[str, Dict[int, Dict[str, float]]] = {}
    for name in FIG8_WORKLOADS:
        data[name] = {}
        for sl in FIG8_SEQ_LENS:
            data[name][sl] = {}
            for pipe in PIPELINE_ORDER:
                res = run_workload(name, pipe, platform=platform,
                                   seq_len=sl)
                data[name][sl][pipe] = res.latency_ms
    if echo:
        for name in FIG8_WORKLOADS:
            rows = [[data[name][sl][p] for p in PIPELINE_ORDER]
                    for sl in FIG8_SEQ_LENS]
            print(format_table(
                f"Figure 8 [{name}] — latency (ms) vs sequence length",
                PIPELINE_ORDER, rows,
                [f"T={sl}" for sl in FIG8_SEQ_LENS], fmt="{:.3f}"))
            print()
    return data


def fig_mem(echo: bool = True) -> Dict[str, Dict[str, float]]:
    """Peak-memory report: the static planner's effect per workload.

    Runs the TensorSSA pipeline with and without memory planning and
    reports arena peak bytes, reuse traffic, and the relative reduction
    — the quantitative answer to the "functionalization inflates
    memory" critique (every ``immut::`` op materializes a copy, but the
    planner proves when each copy dies and recycles it).
    """
    data: Dict[str, Dict[str, float]] = {}
    for name in WORKLOADS:
        base = run_workload(name, "tensorssa_noplan")
        opt = run_workload(name, "tensorssa")
        reduction = (1.0 - opt.peak_bytes / base.peak_bytes
                     if base.peak_bytes else 0.0)
        data[name] = {
            "unplanned_peak_bytes": base.peak_bytes,
            "planned_peak_bytes": opt.peak_bytes,
            "bytes_reused": opt.bytes_reused,
            "reduction": reduction,
        }
    if echo:
        rows = [[d["unplanned_peak_bytes"] / 1024.0,
                 d["planned_peak_bytes"] / 1024.0,
                 d["bytes_reused"] / 1024.0,
                 d["reduction"] * 100.0] for d in data.values()]
        print(format_table(
            "Memory planning — peak KiB without/with plan",
            ["no plan", "planned", "reused", "savings %"],
            rows, list(data)))
        print()
    return data


def intro_fraction(platform: str = "datacenter",
                   echo: bool = True) -> Dict[str, float]:
    """§1's claim: imperative programs are up to ~90% of end-to-end
    inference time (backbone modeled as TensorRT-executed compute)."""
    plat = get_platform(platform)
    data = {}
    for name in WORKLOADS:
        res = run_workload(name, "eager", platform=platform)
        backbone_us = (BACKBONE_GFLOPS[name] * 1e3
                       / plat.peak_gflops * 1e3) + 50.0
        frac = res.latency_us / (res.latency_us + backbone_us)
        data[name] = frac
    if echo:
        rows = [[v * 100.0] for v in data.values()]
        print(format_table(
            "Intro claim — imperative share of end-to-end time (%)",
            ["% of wall time"], rows, list(data), fmt="{:.1f}"))
        print(f"  max: {max(data.values()) * 100:.1f}%\n")
    return data


def headline(echo: bool = True) -> Dict[str, float]:
    """§5.2 headline: speedup of TensorSSA over the *best* baseline."""
    out: Dict[str, float] = {}
    vals: List[float] = []
    for plat in PLATFORMS:
        grid = _speedup_grid(plat)
        for w, su in grid.items():
            ours = su["tensorssa"]
            best = max(su[p] for p in COMPARED[:-1])
            out[f"{plat}/{w}"] = ours / best
            vals.append(ours / best)
    if echo:
        print(f"Headline: up to {max(vals):.2f}x "
              f"(geomean {geomean(vals):.2f}x) over the best baseline")
    return out


_FIGS = {"fig5": fig5, "fig6": fig6, "fig7": fig7, "fig8": fig8,
         "fig_mem": fig_mem, "intro": intro_fraction,
         "headline": headline}


def main(argv: Sequence[str]) -> None:
    """CLI entry point."""
    targets = argv or ["fig5", "fig6", "fig7", "fig8", "fig_mem",
                       "intro", "headline"]
    for t in targets:
        if t not in _FIGS:
            raise SystemExit(f"unknown figure {t!r}; "
                             f"choose from {sorted(_FIGS)}")
        _FIGS[t]()


if __name__ == "__main__":
    main(sys.argv[1:])

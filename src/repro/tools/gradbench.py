"""Backward-pass benchmark CLI: fused vs interpreted gradients.

``python -m repro.tools.gradbench`` compiles the backward graph of
each training-relevant workload twice — through the full TensorSSA
pipeline (parallelize + fuse + revert + memory plan) and through the
``tensorssa_interp`` ablation (no optimization at all) — then compares
modeled latency (the analytical cost model priced from the profiler)
and measured wall-clock.  Each row also counts the backward graph's
top-level ``prim::Loop``s (a differentiated ``for`` loop costs two: the
forward-with-stash and the reverse scan) and the profiler's flops.
With ``--check`` it additionally runs the finite-difference grad-check
harness and enforces the accuracy gate.

Results land in ``results/gradbench.json`` (``--out``) backing the
EXPERIMENTS.md backward table.  Exit status is the number of
workloads where the fused backward fails to beat the interpreted one
on *both* metrics, plus any grad-check failures — so CI can gate on
it directly.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from ..eval.cache import fetch, process_cache
from ..eval.harness import run_workload
from ..grad.check import check_workload_grad
from ..models import get_workload
from ..pipelines.registry import get_pipeline
from .drive import common_args, write_report

#: workloads with meaningful training loops (the paper's module-level
#: benchmarks; the CV detectors are inference-only post-processing)
DEFAULT_WORKLOADS = ["lstm", "attention", "nasrnn"]

#: grad-check accuracy gate (max relative error vs central FD)
CHECK_GATE = 1e-4


def bench_one(workload: str, batch_size: int, seq_len: int,
              repeats: int, check: bool,
              samples_per_input: int = 8) -> dict:
    """Benchmark fused vs interpreted backward for one workload."""
    row = {"workload": workload, "batch_size": batch_size,
           "seq_len": seq_len}
    wl = get_workload(workload)
    args = wl.make_inputs(batch_size=batch_size, seq_len=seq_len, seed=0)
    for label, pipeline in (("fused", "tensorssa"),
                            ("interpreted", "tensorssa_interp")):
        r = run_workload(workload, pipeline, batch_size=batch_size,
                         seq_len=seq_len, grad=True, check=True,
                         measure_wallclock=True, repeats=repeats)
        graph = fetch(get_pipeline(pipeline), wl, args, grad=True,
                      cold=False).compiled.graph
        row[label] = {
            "pipeline": pipeline,
            "latency_us": r.latency_us,
            "wallclock_s": r.wallclock_s,
            "kernel_launches": r.kernel_launches,
            "fused_ops": r.fused_ops,
            "flops": r.flops,
            "peak_bytes": r.peak_bytes,
            "top_level_loops": sum(n.op == "prim::Loop"
                                   for n in graph.block.nodes),
        }
    row["speedup_modeled"] = (row["interpreted"]["latency_us"]
                              / row["fused"]["latency_us"])
    row["speedup_wallclock"] = (row["interpreted"]["wallclock_s"]
                                / row["fused"]["wallclock_s"])
    row["fused_wins"] = (row["speedup_modeled"] > 1.0
                         and row["speedup_wallclock"] > 1.0)
    if check:
        res = check_workload_grad(workload, batch_size=batch_size,
                                  seq_len=min(seq_len, 8),
                                  samples_per_input=samples_per_input)
        row["gradcheck"] = {
            "ok": bool(res.ok and res.max_rel_err < CHECK_GATE),
            "max_rel_err": res.max_rel_err,
            "checked": res.checked,
            "skipped": res.skipped,
        }
    return row


def main(argv: List[str] = None) -> int:
    """CLI entry point; returns the number of losing/failing rows."""
    ap = argparse.ArgumentParser(
        description="fused vs interpreted backward-pass benchmark")
    common_args(ap, batch_size=8, seq_len=32,
                workloads=(",".join(DEFAULT_WORKLOADS),
                           "comma-separated workload names"),
                out=(None, "write the JSON report here "
                           "(e.g. results/gradbench.json)"))
    ap.add_argument("--repeats", type=int, default=5,
                    help="wall-clock repetitions (best-of)")
    ap.add_argument("--check", action="store_true",
                    help="also run the FD grad-check accuracy gate")
    ap.add_argument("--samples-per-input", type=int, default=8)
    args = ap.parse_args(argv)

    process_cache.clear()
    rows = []
    bad = 0
    for name in args.workloads.split(","):
        name = name.strip()
        if not name:
            continue
        row = bench_one(name, args.batch_size, args.seq_len,
                        args.repeats, args.check,
                        args.samples_per_input)
        rows.append(row)
        verdict = "fused wins" if row["fused_wins"] else "FUSED LOSES"
        print(f"{name:12s} modeled {row['speedup_modeled']:.2f}x  "
              f"wallclock {row['speedup_wallclock']:.2f}x  "
              f"launches {row['fused']['kernel_launches']} vs "
              f"{row['interpreted']['kernel_launches']}  "
              f"loops {row['fused']['top_level_loops']}  "
              f"flops {row['fused']['flops'] / 1e6:.1f}M  [{verdict}]")
        if not row["fused_wins"]:
            bad += 1
        if args.check:
            gc = row["gradcheck"]
            print(f"{'':12s} gradcheck max_rel_err "
                  f"{gc['max_rel_err']:.3g} "
                  f"({gc['checked']} checked, {gc['skipped']} kinks "
                  f"skipped) [{'ok' if gc['ok'] else 'FAIL'}]")
            if not gc["ok"]:
                bad += 1

    report = {"batch_size": args.batch_size, "seq_len": args.seq_len,
              "repeats": args.repeats, "rows": rows}
    if args.out:
        write_report(report, args, bad)
    return bad


if __name__ == "__main__":
    sys.exit(main())

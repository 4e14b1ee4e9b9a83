"""Compilation introspection: what did each pipeline do to a model?

``python -m repro.tools.inspect lstm`` prints, per pipeline: an op
histogram before/after, fusion-group sizes, horizontal loops, launch
counts, per-pass wall time / verify time / node deltas, memory-pool
traffic, modeled latency, and per compiled kernel how many Assigns it
runs as in-place stores, as chain identities and as clones (with the
reason each clone remains) — the report you reach for when a workload
doesn't speed up as expected.  ``--plan`` additionally prints the TensorSSA
memory plan (slot table, reuse edges, rotating loop slots, peak);
``--program`` prints the Python source that plan's graph was lowered to
(``backend/program.py``) — what a warm call actually executes, release
statements included.
"""

from __future__ import annotations

import sys
from collections import Counter
from typing import Dict, List, Optional

import repro.runtime as rt
from ..eval.cache import CompileCache, clone_args, fetch, process_cache
from ..eval.harness import profiled_call
from ..eval.platforms import get_platform
from ..frontend import script
from ..ir.graph import Graph
from ..memplan.planner import plans_built
from ..models import get_workload
from ..pipelines import default_pipelines


def op_histogram(graph: Graph) -> Dict[str, int]:
    """Op-name -> occurrence count over the whole graph."""
    return dict(Counter(n.op for n in graph.walk()))


def group_sizes(graph: Graph) -> List[int]:
    """Member counts of each fusion group, largest first."""
    return sorted((n.attrs.get("num_member_ops", 0)
                   for n in graph.walk()
                   if n.op == "prim::FusionGroup"), reverse=True)


def kernel_assigns(graph: Graph) -> List[dict]:
    """How each compiled kernel of ``graph`` executes its Assigns: the
    ``__assigns__`` counts ``backend/codegen.py`` attaches (stores /
    chain identities / clones, each clone with its reason), plus the
    carried slots a loop body stores into.  Kernels compile on first
    execution, so only nodes that have run are listed."""
    rows = []
    for index, node in enumerate(graph.walk()):
        kernel = node.attrs.get("kernel")
        if kernel is not None:
            rows.append({"node": index, "kernel": kernel.__name__,
                         "stores_into": kernel.__stores_into__,
                         **kernel.__assigns__})
    return rows


def inspect_workload(name: str, platform: str = "datacenter",
                     batch_size: int = 1, seq_len: int = 32,
                     pipelines=None) -> Dict[str, dict]:
    """Structured compile/run report for every pipeline."""
    wl = get_workload(name)
    plat = get_platform(platform)
    args = wl.make_inputs(batch_size=batch_size, seq_len=seq_len)
    source_graph = script(wl.model_fn).graph
    report: Dict[str, dict] = {
        "__source__": {"ops": op_histogram(source_graph)},
    }
    for pipe in (pipelines or default_pipelines()):
        # go through the shared compile cache so the report's cache
        # section uses the same epoch/counters the serving layer reports
        compiled, cache_hit = fetch(pipe, wl, args)[:2]
        _, prof, _ = profiled_call(compiled, args)
        entry = {
            "cache_hit": cache_hit,
            "launches": prof.num_launches,
            "latency_us": plat.latency_us(prof, pipe.host_profile,
                                          pipe.device_penalty),
            "host_us": plat.host_time_us(prof, pipe.host_profile),
            "device_us": plat.device_time_us(prof, pipe.device_penalty),
            "peak_bytes": prof.peak_bytes,
            "bytes_reused": prof.bytes_reused,
            "stats": {k: v for k, v in compiled.stats.items()
                      if isinstance(v, (int, bool))},
            "pass_metrics": compiled.stats.get("pass_metrics", []),
        }
        if compiled.graph is not None:
            entry["ops"] = op_histogram(compiled.graph)
            entry["group_sizes"] = group_sizes(compiled.graph)
            entry["kernels"] = kernel_assigns(compiled.graph)
            plan = getattr(compiled.graph, "_memplan", None)
            if plan is not None:
                entry["plan"] = plan
        report[pipe.name] = entry
    report["__cache__"] = process_cache.snapshot().to_dict()
    return report


def inspect_dynamic(name: str, seq_lens=(16, 24), batch_size: int = 2,
                    pipeline: str = "tensorssa") -> Dict[str, object]:
    """Warm-family walkthrough: serve several lengths off one compile.

    Compiles ``name`` through the family-keyed cache path at the first
    sequence length, then looks up each subsequent length; for every
    step the report records the family id, the resolve outcome
    (``new`` / ``hit`` / ``guard_miss``), how many compiles and memory
    plans the step added, and whether the output matched eager
    bit-exactly.  On the family pipeline a warm step should add **zero**
    of both — that is the "second length in the family is free" claim
    of the symbolic-shape design, made observable.
    """
    wl = get_workload(name)
    pipe = next(p for p in default_pipelines() if p.name == pipeline)
    cache = CompileCache()
    steps: List[dict] = []
    for seq_len in seq_lens:
        args = wl.make_inputs(batch_size=batch_size, seq_len=seq_len)
        compiles0 = cache.snapshot()
        plans0 = plans_built()
        compiled, _, family, outcome, _ = fetch(
            pipe, wl, args, cache=cache, dynamic_shapes=True)
        snap = cache.snapshot()
        got = profiled_call(compiled, args)[0]
        want = rt.as_tuple(wl.model_fn(*clone_args(args)))
        steps.append({
            "seq_len": seq_len,
            "family": family.family_id,
            "outcome": outcome,
            "compiles_added": snap.compiles - compiles0.compiles,
            "plans_added": plans_built() - plans0,
            "bit_exact": rt.bit_exact(got, want),
        })
    families = {f.family_id: f.describe()
                for f in cache.families.all_families()}
    return {"workload": name, "pipeline": pipeline, "steps": steps,
            "families": families}


def print_dynamic_report(report: Dict[str, object]) -> int:
    """Pretty-print an :func:`inspect_dynamic` report.

    Returns the number of violations: every step must be bit-exact,
    and every warm step (after the first) must be a family ``hit``
    that added 0 compiles and 0 memory plans — which makes this
    directly usable as a CI gate.
    """
    print(f"=== {report['workload']} ({report['pipeline']}, "
          f"dynamic shapes) ===")
    violations = 0
    for i, step in enumerate(report["steps"]):
        warm_ok = (i == 0 or (step["outcome"] == "hit"
                              and step["compiles_added"] == 0
                              and step["plans_added"] == 0))
        ok = warm_ok and step["bit_exact"]
        violations += 0 if ok else 1
        print(f"  seq_len={step['seq_len']:<4} family={step['family']} "
              f"outcome={step['outcome']:<10} "
              f"compiles+{step['compiles_added']} "
              f"plans+{step['plans_added']} "
              f"bit_exact={step['bit_exact']}"
              + ("" if ok else "  <-- VIOLATION"))
    for fid, desc in report["families"].items():
        print(f"  {desc}")
    return violations


def _fmt_hist(hist: Dict[str, int], top: int = 8) -> str:
    items = sorted(hist.items(), key=lambda kv: -kv[1])[:top]
    return ", ".join(f"{op.split('::')[-1]}x{n}" for op, n in items)


def print_report(name: str, report: Dict[str, dict],
                 show_plan: bool = False,
                 show_program: bool = False) -> None:
    """Pretty-print an :func:`inspect_workload` report."""
    print(f"=== {name} ===")
    print(f"source ops: {_fmt_hist(report['__source__']['ops'])}")
    cache = report.get("__cache__")
    if cache:
        print(f"compile cache: epoch={cache['epoch']} "
              f"hits={cache['hits']} misses={cache['misses']} "
              f"guard_misses={cache.get('guard_misses', 0)} "
              f"size={cache['size']}/{cache['capacity']}")
    for pipe, entry in report.items():
        if pipe.startswith("__"):
            continue
        print(f"\n[{pipe}] launches={entry['launches']} "
              f"latency={entry['latency_us']:.1f}us "
              f"(host {entry['host_us']:.1f} / "
              f"device {entry['device_us']:.1f})")
        print(f"  memory: peak={entry['peak_bytes']:,}B "
              f"reused={entry['bytes_reused']:,}B")
        if "group_sizes" in entry and entry["group_sizes"]:
            print(f"  fusion groups: {entry['group_sizes']}")
        if "ops" in entry:
            print(f"  compiled ops: {_fmt_hist(entry['ops'])}")
        if entry.get("kernels"):
            print("  kernels (Assigns as stores / chain identities / "
                  "clones):")
            for k in entry["kernels"]:
                slots = f"  carried slots {list(k['stores_into'])} " \
                    "copied once by the caller" if k["stores_into"] else ""
                print(f"    #{k['node']:<3} {k['kernel']:<8} {k['stores']} / "
                      f"{k['identities']} / {len(k['clones'])}{slots}")
                for op, why in k["clones"]:
                    print(f"         clone {op}: {why}")
        if entry.get("pass_metrics"):
            print("  passes:")
            for m in entry["pass_metrics"]:
                sign = "+" if m.node_delta >= 0 else ""
                print(f"    {m.name:<16} {m.wall_ms:7.2f}ms  "
                      f"verify {m.verify_ms:6.2f}ms  "
                      f"{m.nodes_before:>4} -> {m.nodes_after:<4} nodes "
                      f"({sign}{m.node_delta})")
        interesting = {k: v for k, v in entry["stats"].items()
                       if k in ("functionalized", "skipped_mutations",
                                "horizontal_loops", "mutating_ops",
                                "mem_slots", "mem_planned_classes",
                                "mem_reuse_edges", "mem_rotating_loops")}
        if interesting:
            print(f"  {interesting}")
        if show_plan and "plan" in entry:
            from ..memplan import format_plan
            print("  " + format_plan(entry["plan"]).replace("\n", "\n  "))
        if show_program and "plan" in entry:
            # inspect_workload ran the artifact, so the plan is lowered
            source = entry["plan"].program.__source__
            print("  lowered program:\n    "
                  + source.rstrip().replace("\n", "\n    "))


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; with ``--dynamic`` the exit status counts
    warm-family violations (non-hit / extra compile / extra plan /
    divergent steps), otherwise it is 0."""
    argv = argv if argv is not None else sys.argv[1:]
    show_plan = "--plan" in argv
    show_program = "--program" in argv
    dynamic = "--dynamic" in argv
    names = [a for a in argv if not a.startswith("-")] or ["lstm"]
    violations = 0
    for name in names:
        if dynamic:
            violations += print_dynamic_report(inspect_dynamic(name))
        else:
            print_report(name, inspect_workload(name), show_plan=show_plan,
                         show_program=show_program)
        print()
    return violations


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The repo's benchmark: seven workloads, measured end to end, with a
traced pass for the per-layer numbers.

    python3 bench/run.py                      # all seven, tracing off
    python3 bench/run.py --trace              # all seven, traced pass
    python3 bench/run.py --workload exec_rnn --seed 3 --seconds 12 --trace 0

Without ``--workload`` every workload runs in a fresh child process of
this script (set-up time and peak RSS are per-process facts) and the
collected results are written to ``bench/results/``.  With
``--workload`` the last line of standard output is the one JSON object
the driver reads: ``correct``, ``attempted``, ``failed``, ``metrics``.

This module is import-safe: shard workers use the spawn start method
and re-import the main module, so everything but the path and
BLAS-thread set-up below runs under ``if __name__ == "__main__"``.
"""

from __future__ import annotations

import os
import sys
import time

_T0 = time.perf_counter()  # set-up is timed from process start

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
TMP_DIR = os.path.join(BENCH_DIR, ".tmp")

# before numpy is imported (workers inherit it): one BLAS thread, or the
# first multi-threaded matmul costs ~1 s once and the pool then fights
# the load generator for the two cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
for _path in (os.path.join(ROOT, "src"), BENCH_DIR):
    if _path not in sys.path:
        sys.path.insert(0, _path)

#: one child may take this long before it is killed and counted failed
CHILD_TIMEOUT_S = 175.0


def parse_args(argv=None):
    import argparse
    import spec
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(spec.WORKLOADS),
                    help="run one workload in this process "
                         "(default: all seven, one child process each)")
    ap.add_argument("--seed", type=int, default=0,
                    help="drives every input, arrival schedule and "
                         "request order")
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                    help="length of the timed region of one workload")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1),
                    help="1: the traced pass (per-layer metrics, span "
                         "files); 0: end-to-end metrics, tracing off")
    ap.add_argument("--quick", action="store_true",
                    help="smoke pass: one round of at most 1 s")
    ap.add_argument("--out", help="result file of an all-workloads run "
                                  "(default: bench/results/latest*.json)")
    return ap.parse_args(argv)


# -- one workload, in this process ------------------------------------------

def run_one(args) -> int:
    """Set up, time and tear down ``args.workload``; print its table,
    the ``#detail`` record and the driver's JSON line.  Returns the
    process exit code."""
    import gc
    import json

    import measure
    import spec
    import workloads

    speed_start = measure.speed()
    rounds_n = 1 if args.quick else spec.ROUNDS
    seconds = min(args.seconds, 1.0) if args.quick else args.seconds
    wl = workloads.make(args.workload, args.seed, TMP_DIR, quick=args.quick)
    detail = {"workload": args.workload, "trace": args.trace,
              "fingerprint": measure.fingerprint(ROOT, args.seed, seconds,
                                                 rounds_n)}
    try:
        wl.setup()
        peak_tensor_mb = wl.peak_tensor_bytes() / 1e6
        # the cyclic collector stays off while anything is timed and
        # runs between rounds instead: left on, a gen-2 pass over the
        # benchmark's own sample lists lands in the tail percentiles
        gc.collect()
        gc.freeze()
        gc.disable()
        setup_wall_s = time.perf_counter() - _T0
        setup_s = setup_wall_s / ((speed_start + measure.speed()) / 2)
        if args.trace:
            rounds, per_layer = _traced_pass(wl, args, seconds, detail)
        else:
            rounds, per_layer = [], None
            for _ in range(rounds_n):
                rounds.append(wl.round(seconds / rounds_n))
                gc.collect()
    finally:
        gc.enable()
        try:
            wl.close()
        finally:
            _stop_children()

    summary = measure.summarize(args.workload, rounds)
    metrics = summary["metrics"]
    metrics["setup_s"] = {"value": setup_s, "unit": "s",
                          "wall": setup_wall_s}
    metrics["peak_rss_mb"] = {
        "value": measure.peak_rss_mb(children=wl.rss_children), "unit": "MB"}
    metrics["peak_tensor_mb"] = {"value": peak_tensor_mb, "unit": "MB"}
    failed = summary["failed"] + int(wl.notes.get("verify_failures", 0))
    correct = failed == 0
    detail.update(metrics=metrics, models=summary["models"],
                  notes=wl.notes, attempted=summary["attempted"],
                  failed=failed, correct=correct)

    _print_table(detail, per_layer)
    if per_layer is None:
        line = {m.name: {"value": metrics[m.name]["value"], "unit": m.unit}
                for m in spec.GATED}
    else:
        detail["per_layer"] = per_layer
        line = {p.name: {"value": per_layer.get(p.name, 0), "unit": p.unit}
                for p in spec.PER_LAYER}
    print("#detail " + json.dumps(detail, default=_jsonable))
    print(json.dumps({"correct": correct,
                      "attempted": max(1, summary["attempted"]),
                      "failed": failed, "metrics": line}))
    return 0 if correct else 1


def _stop_children() -> None:
    """Stop, and wait for, every process this one started.  Spawning the
    shard fleet also starts multiprocessing's resource tracker, which is
    built to outlive its parent -- and then stays a zombie for good where
    pid 1 does not reap -- so it is stopped by hand; a worker that a
    failed fleet shutdown left behind is killed."""
    mp = sys.modules.get("multiprocessing")
    if mp is None:
        return
    for proc in mp.active_children():
        proc.kill()
        proc.join()
    from multiprocessing import resource_tracker
    resource_tracker._resource_tracker._stop()


def _traced_pass(wl, args, seconds: float, detail: dict):
    """One untraced and one traced round of the workload, then the
    layer probes.  Response-carried numbers (queue wait, exec wall,
    transport) are read off the untraced round; the traced round gives
    the spans and, against the untraced one, the wrappers' own cost."""
    import layers
    import measure
    import spec
    from tracer import Tracer

    repeats = 1 if args.quick else layers.STAGE_REPEATS
    calls = 2 if args.quick else layers.PROBE_CALLS
    round_s = seconds / 3
    tracer = Tracer()
    per_layer = {}
    timed_units = {p.name: p.unit for p in spec.PER_LAYER
                   if p.unit in ("s", "ms", "us")}

    def probe(fn, *fn_args) -> None:
        """Run one layer probe; its times go in at reference machine
        speed, like every end-to-end time."""
        s0 = measure.speed()
        out = fn(*fn_args)
        s = (s0 + measure.speed()) / 2
        per_layer.update({k: v / s if k in timed_units else v
                          for k, v in out.items()})

    plain = wl.round(round_s)
    probe(wl.layer_metrics, plain)
    with tracer.installed():
        since = tracer.mark()
        traced = wl.round(round_s)
        submit = tracer.totals(since).get("serve.submit")
        if submit:
            per_layer["serve.submit_us"] = \
                submit["total_ms"] / submit["count"] * 1e3
        probe(layers.probe_models, wl, tracer, calls)
        probe(layers.probe_grad, wl, tracer, calls)
    probe(layers.stage_compile, wl.cases, tracer, repeats)
    probe(layers.probe_eval, wl.cases, calls)
    if args.workload.startswith(("serve_", "shard_")):
        probe(layers.probe_batching, args.seed)
    if args.workload.startswith("shard_"):
        probe(layers.probe_transport, wl)

    def workload_p50(res) -> float:
        return measure.summarize(args.workload, [res])[
            "metrics"]["latency_ms_p50"]["value"]
    base = workload_p50(plain)
    per_layer["bench.trace_overhead_share"] = \
        (workload_p50(traced) - base) / base if base else 0.0
    if not per_layer.get("pipelines.staged_parity"):
        detail["compile_layers_invalid"] = True

    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"trace_{args.workload}.json")
    tracer.write_chrome(path, {"workload": args.workload,
                               "seed": args.seed})
    detail["trace_file"] = os.path.relpath(path, ROOT)
    detail["spans"] = len(tracer.spans)
    return [plain, traced], per_layer


def _jsonable(obj):
    """``json.dumps`` fallback for numpy scalars and stray objects."""
    try:
        return obj.item()
    except AttributeError:
        return repr(obj)


def _print_table(detail: dict, per_layer) -> None:
    import spec
    fp = detail["fingerprint"]
    print(f"== {detail['workload']}  seed {fp['seed']}  "
          f"{fp['rounds']} x {fp['round_seconds']:.2f} s  "
          f"trace {detail['trace']}  cpu {fp['cpu_count']}  "
          f"python {fp['python']}  numpy {fp['numpy']}  "
          f"blas_threads 1  schedule {fp['schedule_id']}  "
          f"git {fp['git_sha'][:12]} ==")
    print(f"   why: {' '.join(spec.WORKLOADS[detail['workload']].split())}")
    for m in spec.END_TO_END:
        row = detail["metrics"].get(m.name)
        if row is None:
            continue
        tail = ""
        if "spread" in row:
            tail += f"  spread {row['spread']:.3f}"
        if "wall" in row:
            tail += f"  wall {row['wall']:.4f}"
        if "n" in row:
            tail += f"  n {row['n']}" + ("  low-n" if row["low_n"] else "")
        print(f"   {m.name:<24}{row['value']:>14.4f} {m.unit:<6}{tail}")
    for model, row in detail["models"].items():
        for key, value in row.items():
            if key != "n":
                print(f"   model.{model}.{key:<34}{value:>12.4f} "
                      f"{spec.metric(key).unit}  n {row['n']}")
    for key, value in detail["notes"].items():
        print(f"   note.{key}: {value}")
    print(f"   attempted {detail['attempted']}  failed {detail['failed']}  "
          f"correct {detail['correct']}")
    if per_layer is None:
        return
    if detail.get("compile_layers_invalid"):
        print("   !! pipelines.staged_parity failed: the compile-side "
              "layer numbers are INVALID")
    units = {p.name: p.unit for p in spec.PER_LAYER}
    for name in [p.name for p in spec.PER_LAYER] + sorted(
            k for k in per_layer if k not in units):
        print(f"   {name:<44}{per_layer.get(name, 0):>16.4f} "
              f"{units.get(name, '')}")
    print(f"   spans {detail['spans']} -> {detail['trace_file']}")


# -- all workloads, one child each ------------------------------------------

def run_all(args) -> int:
    """Run every workload in its own process; collect, print and store."""
    import json
    import signal
    import subprocess

    import spec

    results = {}
    worst = 0
    for name in spec.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.quick:
            cmd.append("--quick")
        # a session of its own, so that a timeout can kill the child
        # together with the fleet it started
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, _ = proc.communicate()
            err, code = "timed out", 124
        detail = None
        for line in out.splitlines():
            if line.startswith("#detail "):
                detail = json.loads(line[len("#detail "):])
            elif not line.startswith("{"):
                print(line)
        if code != 0 or detail is None:
            print(f"!! {name}: exit code {code}\n{err[-2000:]}")
            worst = max(worst, code or 1)
        results[name] = detail
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out_path = args.out or os.path.join(
        RESULTS_DIR, "latest_trace.json" if args.trace else "latest.json")
    with open(out_path, "w") as fh:
        json.dump({"trace": args.trace, "seed": args.seed,
                   "seconds": args.seconds, "workloads": results}, fh,
                  indent=1)
    print(f"wrote {os.path.relpath(out_path, ROOT)}")
    return worst


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"bench: no program to measure under {ROOT}/src",
              file=sys.stderr)
        return 2
    args = parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())

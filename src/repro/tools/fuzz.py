"""Differential fuzzing CLI.

``python -m repro.tools.fuzz --seed 0 --count 100`` generates 100
random imperative programs and runs each through eager plus every
registered pipeline, demanding bit-exact agreement and intact graph /
profiler invariants.  Any divergence is automatically delta-debugged to
a minimal repro, printed as frontend source + compiled IR, and (with
``--save-corpus DIR``) written out as a JSON corpus entry ready to be
checked into ``tests/corpus/``.

Exit status is the number of failing seeds (0 = clean run), so the CI
smoke job can gate on it directly.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

from ..frontend import script
from ..ir import print_graph
from ..fuzz import (FuzzFailure, OracleConfig, failure_predicate,
                    generate_program, materialize, run_oracle,
                    scripted_node_count, shrink)
from ..fuzz.oracle import all_pipeline_names


def save_corpus_entry(directory: Path, failure: FuzzFailure,
                      found_by: str = "repro.tools.fuzz") -> Path:
    """Write one minimized failure as a JSON corpus entry."""
    directory.mkdir(parents=True, exist_ok=True)
    program = failure.program
    try:
        ir = print_graph(script(materialize(program.source,
                                            program.name)).graph)
    except Exception as exc:  # keep the repro even if scripting broke
        ir = f"<unscriptable: {exc}>"
    entry = {
        "name": f"seed{program.seed}-{failure.kind}",
        "seed": program.seed,
        "pipeline": failure.pipeline,
        "kind": failure.kind,
        "found_by": found_by,
        "source": program.source,
        "ir": ir,
    }
    path = directory / f"{entry['name']}.json"
    path.write_text(json.dumps(entry, indent=2) + "\n")
    return path


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the number of failing seeds."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.fuzz",
        description="differential fuzzing of all compilation pipelines")
    parser.add_argument("--seed", type=int, default=0,
                        help="first seed (default 0)")
    parser.add_argument("--count", type=int, default=100,
                        help="number of seeds to fuzz (default 100)")
    parser.add_argument("--max-nodes", type=int, default=96,
                        help="scripted-IR size budget per program")
    parser.add_argument("--pipelines", type=str, default=None,
                        help="comma-separated pipeline names "
                             "(default: all registered)")
    parser.add_argument("--save-corpus", type=str, default=None,
                        metavar="DIR",
                        help="write minimized failures as JSON entries")
    parser.add_argument("--no-shrink", action="store_true",
                        help="report raw failures without minimizing")
    parser.add_argument("--no-extent-check", action="store_true",
                        help="skip the one-artifact multi-extent replay "
                             "(oracle check 6)")
    parser.add_argument("--replay-extents", type=str, default="4,6,8",
                        help="comma-separated row extents for that "
                             "replay (the artifact compiles at the first)")
    parser.add_argument("--no-grad-check", action="store_true",
                        help="skip backward-graph construction and the "
                             "FD grad-check (oracle check 7)")
    parser.add_argument("--grad-samples", type=int, default=4,
                        help="elements sampled per input by the check-7 "
                             "FD grad-check")
    parser.add_argument("--max-failures", type=int, default=5,
                        help="stop after this many failing seeds")
    args = parser.parse_args(argv)

    pipelines = args.pipelines.split(",") if args.pipelines else None
    config = OracleConfig(
        pipelines=pipelines,
        check_extents=not args.no_extent_check,
        replay_extents=tuple(int(e) for e in
                             args.replay_extents.split(",") if e.strip()),
        check_grad=not args.no_grad_check,
        grad_samples=args.grad_samples)
    shown = pipelines or all_pipeline_names()
    print(f"fuzzing seeds {args.seed}..{args.seed + args.count - 1} "
          f"against: {', '.join(shown)}")

    failures: List[FuzzFailure] = []
    nodes_total = 0
    start = time.time()
    for seed in range(args.seed, args.seed + args.count):
        program = generate_program(seed, max_nodes=args.max_nodes)
        nodes_total += scripted_node_count(program)
        failure = run_oracle(program, config)
        if failure is None:
            done = seed - args.seed + 1
            if done % 10 == 0 or done == args.count:
                print(f"  {done}/{args.count} ok "
                      f"({time.time() - start:.1f}s)")
            continue
        print(f"\nseed {seed}: FAILURE ({failure.kind} on "
              f"{failure.pipeline}), shrinking...")
        if not args.no_shrink:
            small = shrink(program, failure_predicate(failure, config))
            failure = run_oracle(small, config) or failure
        failures.append(failure)
        print(failure.describe())
        if args.save_corpus:
            path = save_corpus_entry(Path(args.save_corpus), failure)
            print(f"saved corpus entry: {path}")
        if len(failures) >= args.max_failures:
            print(f"stopping after {len(failures)} failures")
            break

    elapsed = time.time() - start
    print(f"\n{args.count} programs, {nodes_total} scripted IR nodes, "
          f"{len(failures)} divergence(s), {elapsed:.1f}s")
    return len(failures)


if __name__ == "__main__":
    sys.exit(main())

"""Smoke tests of the benchmark itself (not part of tier-1).

    python -m pytest bench -q

A ``--quick`` pass of every workload (one round of at most 1 s, both
trace modes) checks that each metric named in ``spec`` is printed with
its unit, that ``BENCHMARK.json`` says what ``spec`` says and stays
inside the driver's limits, that the entry point is import-safe, that
the fleet is shut down in ``finally``, and that ``compare.py`` calls a
regression a regression.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
for _path in (os.path.join(ROOT, "src"), BENCH_DIR):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import compare  # noqa: E402
import spec  # noqa: E402


def _run(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# -- the tables ---------------------------------------------------------

def test_benchmark_json_is_the_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert doc == spec.benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}


def test_names_counts_and_limits():
    doc = spec.benchmark_json()
    assert len(spec.WORKLOADS) == 7 and 2 <= len(doc["workloads"]) <= 8
    assert len(spec.END_TO_END) == 10
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = ([w["name"] for w in doc["workloads"]]
             + [m.name for m in spec.END_TO_END]
             + [p["name"] for p in doc["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert spec.NAME_RE.match(name), name
    for w in doc["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in doc["end_to_end"]:
        assert 0 <= m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in doc["end_to_end"])
    assert max(m["bound"] for m in doc["end_to_end"]) == \
        next(m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s")
    runs = 4 + 22 * len(doc["workloads"])
    assert 1 <= doc["run_seconds"] <= 60
    # every run with ~6 s of set-up has to fit the driver's total budget
    assert runs * (doc["run_seconds"] + 6) <= 3420


# -- the quick pass -----------------------------------------------------

@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_quick_untraced(workload):
    proc = _run("--workload", workload, "--quick", "--seed", "5")
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = _last_json(proc.stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == {m.name for m in spec.GATED}
    for m in spec.GATED:
        row = line["metrics"][m.name]
        assert row["unit"] == m.unit and row["value"] > 0, m.name
    # every end-to-end metric defined on this workload is printed by
    # name with its unit
    for m in spec.END_TO_END:
        printed = any(ln.split()[:1] == [m.name] and m.unit in ln.split()
                      for ln in proc.stdout.splitlines())
        assert printed == spec.applies(m, workload), m.name


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_quick_traced(workload):
    from repro.obs.export import validate_chrome_trace
    proc = _run("--workload", workload, "--quick", "--trace", "1")
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = _last_json(proc.stdout)
    assert set(line["metrics"]) == {p.name for p in spec.PER_LAYER}
    for p in spec.PER_LAYER:
        assert line["metrics"][p.name]["unit"] == p.unit
        assert any(ln.split()[:1] == [p.name]
                   for ln in proc.stdout.splitlines()), p.name
    assert line["metrics"]["pipelines.staged_parity"]["value"] == 1
    assert line["metrics"]["serve.compiles_timed"]["value"] == 0
    with open(os.path.join(BENCH_DIR, "results",
                           f"trace_{workload}.json")) as fh:
        trace = json.load(fh)
    assert validate_chrome_trace(trace) == []
    assert any(ev["name"] == "backend.run_graph"
               for ev in trace["traceEvents"])


# -- the entry point ----------------------------------------------------

def test_entry_point_is_import_safe():
    with open(RUN) as fh:
        tree = ast.parse(fh.read())
    guards = [n for n in tree.body if isinstance(n, ast.If)
              and ast.unparse(n.test) == "__name__ == '__main__'"]
    assert len(guards) == 1
    # nothing at module level calls into the benchmark: importing it
    # (as a spawned shard worker does) runs no workload, prints nothing
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import run; "
         "print('imported', callable(run.main))", BENCH_DIR],
        capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() == "imported True", proc.stderr


def test_fleet_is_shut_down_when_a_round_raises(monkeypatch):
    import run
    import workloads

    class Boom(workloads.Workload):
        name = "exec_cv"
        closed = False

        def setup(self):
            pass

        def round(self, seconds):
            raise RuntimeError("boom")

        def close(self):
            Boom.closed = True

    monkeypatch.setattr(workloads, "make",
                        lambda name, seed, tmp, quick=False: Boom(seed))
    with pytest.raises(RuntimeError, match="boom"):
        run.run_one(run.parse_args(["--workload", "exec_cv", "--quick"]))
    assert Boom.closed


def test_shard_run_leaves_no_process_behind():
    # in a session of its own, so that what it leaves (an orphan keeps
    # its session id, a zombie too) can be told from everything else
    proc = subprocess.Popen(
        [sys.executable, RUN, "--workload", "shard_closed", "--quick"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    _, err = proc.communicate(timeout=170)
    assert proc.returncode == 0, err[-2000:]
    left = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # pid (comm) state ppid pgrp session ...; comm may hold spaces
        if int(stat.rpartition(")")[2].split()[3]) == proc.pid:
            left.append(stat)
    assert left == []


def test_no_result_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".tmp",
                                                  "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exec_cv",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- compare.py ---------------------------------------------------------

def _result(path, p50, failed_share=0.0, spread=0.01):
    row = lambda v: {"value": v, "unit": "", "spread": spread}  # noqa: E731
    doc = {"workloads": {"exec_cv": {"metrics": {
        "latency_ms_p50": row(p50), "setup_s": row(2.0),
        "failed_share": row(failed_share)}}}}
    path.write_text(json.dumps(doc))
    return str(path)


def test_compare_verdicts(tmp_path, capsys):
    base = [_result(tmp_path / f"b{i}.json", 10.0 + 0.01 * i)
            for i in range(4)]
    same = [_result(tmp_path / f"s{i}.json", 10.05 + 0.01 * i)
            for i in range(4)]
    slow = [_result(tmp_path / f"w{i}.json", 13.0 + 0.01 * i)
            for i in range(4)]
    noisy = [_result(tmp_path / f"n{i}.json", v)
             for i, v in enumerate((7.0, 10.0, 13.5, 16.0))]
    failing = [_result(tmp_path / "f.json", 10.0, failed_share=0.01)]
    assert compare.main(["--base", *base, "--new", *same]) == 0
    assert compare.main(["--base", *base, "--new", *slow]) == 1
    assert compare.main(["--base", *base, "--new", *failing]) == 1
    capsys.readouterr()
    assert compare.main(["--base", *base, "--new", *noisy]) == 0
    assert "unresolved" in capsys.readouterr().out

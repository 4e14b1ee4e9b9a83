"""The request driver: one classification rule, three arrival disciplines.

Everything runs against a fake ``.submit`` target whose futures are
scripted, so the drills' notion of ok / wrong / typed / untyped / hang
is pinned without a server, a fleet, or a sleep longer than the hang
timeout.
"""

import threading
from concurrent.futures import Future

import numpy as np
import pytest

from repro.errors import KernelError, names_typed_error
from repro.serve import Response
from repro.tools.drive import burst, closed_loop, open_loop, tally

REF = (np.arange(4, dtype=np.float32),)


def _resp(status="ok", **fields):
    return Response(request_id=0, workload="w", pipeline="tensorssa",
                    platform="datacenter", status=status, **fields)


class FakeTarget:
    """``submit`` resolves each future the way ``script`` says."""

    def __init__(self, script=None):
        self.script = script
        self.calls = []
        self.in_flight = 0
        self.max_in_flight = 0
        self._lock = threading.Lock()

    def submit(self, workload, **kwargs):
        with self._lock:
            self.calls.append((workload, kwargs))
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        fut = Future()
        fut.add_done_callback(lambda _f: self._landed())
        outcome = self.script(kwargs) if self.script else _resp(outputs=REF)
        if outcome is None:
            return fut  # never resolves
        if isinstance(outcome, BaseException):
            fut.set_exception(outcome)
        elif callable(outcome):
            threading.Timer(0.01, lambda: fut.set_result(outcome())).start()
        else:
            fut.set_result(outcome)
        return fut

    def _landed(self):
        with self._lock:
            self.in_flight -= 1


CASES = [
    # (what the future does, the one bucket it must land in)
    (_resp(outputs=REF), "ok"),
    (_resp(outputs=REF, degraded=True, fallback_depth=2), "ok"),
    (_resp(outputs=(REF[0] + 1,)), "wrong"),
    (_resp(outputs=(REF[0].astype(np.float64),)), "wrong"),  # dtype
    (_resp(outputs=REF, verified=False), "wrong"),
    (_resp("error", error="WorkerCrashed: worker w0 died"), "typed_errors"),
    (_resp("error", error="all ladder rungs ('tensorssa',) failed: "
                          "KernelError: injected"), "typed_errors"),
    (_resp("error", error="eager floor failed: OOMError: arena"),
     "typed_errors"),
    (_resp("rejected", error="queue full"), "typed_errors"),
    (_resp("shed", error="shed: recent queue-wait p95"), "typed_errors"),
    (_resp("timeout", error="deadline expired"), "typed_errors"),
    (_resp("cancelled", error="server shut down"), "typed_errors"),
    (KernelError("launch failed"), "typed_errors"),
    (_resp("error", error="executor crashed: ValueError: bad shape"),
     "untyped_errors"),
    (_resp("error", error=""), "untyped_errors"),
    (_resp("error", error="ExecutorError: no such type"), "untyped_errors"),
    (ValueError("boom"), "untyped_errors"),
    (None, "hangs"),
]
BUCKETS = ("ok", "wrong", "typed_errors", "untyped_errors", "hangs")


@pytest.mark.parametrize("outcome,bucket", CASES)
def test_tally_classifies_each_outcome_once(outcome, bucket):
    load = burst(FakeTarget(lambda kw: outcome), "w", [{"seed": 1}])
    counts, responses = tally(load, hang_timeout_s=0.05, refs=[REF])
    assert {b: counts[b] for b in BUCKETS} == \
        {b: int(b == bucket) for b in BUCKETS}
    assert counts["requests"] == 1
    assert (responses[0] is None) == (not isinstance(outcome, Response))
    # a red gate names its cause; a clean one has nothing to name
    assert bool(counts["untyped_error_strings"]) == \
        (bucket == "untyped_errors")
    if isinstance(outcome, Response) and outcome.degraded:
        assert counts["degraded"] == 1
        assert counts["fallback_depth_hist"] == {2: 1}


def test_typed_names_come_from_the_taxonomy():
    # every name sharddrill's old hand-kept list missed is typed ...
    for name in ("KernelError", "OOMError", "ArtifactError",
                 "TornStateError", "GradError", "CircuitOpen"):
        assert names_typed_error(f"prefix: {name}: detail")
    # ... the ones it invented are not, nor is a name merely embedded
    for text in ("VerificationError: x", "BatchExecError: x",
                 "NotAKernelError: x", "KernelError without a colon"):
        assert not names_typed_error(text)


def _disciplines():
    return [
        ("burst", lambda t, reqs: burst(t, "w", reqs, pipeline="p")),
        ("closed", lambda t, reqs: closed_loop(
            t, "w", reqs, clients=3, hang_timeout_s=5.0, pipeline="p")),
        ("open", lambda t, reqs: open_loop(
            t, "w", reqs, rate_rps=2000.0, pipeline="p")),
    ]


@pytest.mark.parametrize("name,run", _disciplines())
def test_disciplines_send_every_request_once(name, run):
    # answers land 10 ms late, from another thread, like a real server
    target = FakeTarget(lambda kw: lambda: _resp(outputs=REF))
    reqs = [{"seed": i, "priority": i % 2} for i in range(12)]
    load = run(target, reqs)
    counts, responses = tally(load, hang_timeout_s=5.0)
    assert counts["ok"] == 12 and counts["hangs"] == 0
    assert sorted(kw["seed"] for _, kw in target.calls) == list(range(12))
    assert all(w == "w" and kw["pipeline"] == "p"
               and kw["priority"] == kw["seed"] % 2
               for w, kw in target.calls)
    assert all(done >= sent for sent, done
               in zip(load.sent_at, load.done_at))
    if name == "closed":
        assert target.max_in_flight <= 3
    if name == "open":
        # paced: request i is never sent before i / rate after the start
        assert all(load.sent_at[i] - load.started_at >= i / 2000.0 - 1e-4
                   for i in range(12))


def test_submit_that_raises_is_tallied_not_propagated():
    class Closed:
        def submit(self, workload, **kwargs):
            raise RuntimeError("target is gone")

    counts, _ = tally(burst(Closed(), "w", [{}, {}]), hang_timeout_s=0.05)
    assert counts["untyped_errors"] == 2
    assert counts["untyped_error_strings"] == \
        ["raised RuntimeError: target is gone"]


def test_serve_closed_loop_compiles_every_batch_shape_before_the_clock():
    from repro.models import get_workload
    from repro.serve import ServePolicy
    from repro.tools.drive import request_pool, serve_closed_loop

    wl = get_workload("attention")
    pool = request_pool(wl, [8] * 8)
    policy = ServePolicy(workers=2, max_batch_size=4, verify="batch")
    run = serve_closed_loop(wl, pool, policy, requests=24, clients=4,
                            warmup=0, hang_timeout_s=60.0)
    assert run["ok"] == 24 and run["dropped"] == 0 and run["diverged"] == 0
    # shapes 1..4 all ran before the timed run, off the one artifact
    # compiled for the program, whatever batches the loop then formed
    assert run["server"]["compile_cache"]["misses"] == 1
    assert run["timed_compiles"] == 0
    assert 1.0 <= run["mean_batch_requests"] <= 4.0


@pytest.mark.parametrize("fullest, failed", [(1.5, 1), (7.5, 0)])
def test_serve_bench_gates_that_some_workload_coalesces(
        monkeypatch, tmp_path, fullest, failed):
    from repro.tools import serve_bench

    def canned(name, args, lengths):
        run = {"dropped": 0, "diverged": 0, "throughput_rps": 100.0,
               "batch_occupancy": 0.5, "compiles": 8, "timed_compiles": 0,
               "compiles_per_1k_requests": 40.0,
               "server": {"latency_p50_ms": 1.0, "latency_p95_ms": 2.0,
                          "cache_hit_rate": 1.0, "flushes_by_reason": {}}}
        return {"workload": name, "throughput_speedup": 2.0,
                "occupancy_gain": 0.4,
                "batched": dict(run, mean_batch_requests=(
                    fullest if name == "attention" else 1.2)),
                "baseline": dict(run, mean_batch_requests=1.0)}

    monkeypatch.setattr(serve_bench, "bench_workload", canned)
    argv = ["--workloads", "lstm,attention", "--concurrency", "8",
            "--workers", "4", "--out", str(tmp_path / "sb.json")]
    assert serve_bench.main(argv) == failed
    # one client per worker proves nothing about coalescing: not gated
    assert serve_bench.main(argv + ["--concurrency", "4"]) == 0

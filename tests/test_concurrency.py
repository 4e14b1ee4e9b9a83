"""Concurrency regressions: compile cache, profiler isolation, and
N-threads-by-M-workloads runs through both ``run_workload`` and
``Server.submit``.

Each test class documents the pre-fix failure mode it guards against:

* ``TestCompileCacheThreadSafety`` — the cache had no lock and callers
  inferred hit/miss by diffing global ``misses`` counters around the
  call, so any concurrent miss corrupted another run's ``cache_hit``;
* ``TestProfilerIsolation`` — the profiler stack was a module-global
  list, so two threads profiling at once interleaved launch/alloc
  events and corrupted each other's ``peak_bytes``;
* ``TestCounterEpochs`` — ``process_cache.clear()`` silently reset
  counters, making post-clear ``RunResult`` snapshots incomparable
  with pre-clear ones; the epoch field makes the lifecycle explicit.
"""

import sys
import threading
import time

import numpy as np
import pytest

import repro.runtime as rt
from repro.eval.cache import CompileCache, clone_args, process_cache
from repro.eval.harness import run_workload
from repro.models import get_workload
from repro.pipelines import get_pipeline
from repro.serve import ServePolicy, Server

pytestmark = pytest.mark.usefixtures("fresh_cache")


@pytest.fixture
def fresh_cache():
    process_cache.clear()
    yield
    process_cache.clear()


def run_threads(fns):
    """Run one thread per fn, re-raising the first worker exception."""
    errors = []

    def guard(fn):
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=guard, args=(fn,)) for fn in fns]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


class TestCompileCacheThreadSafety:
    def test_lookup_reports_per_call_hit_status(self):
        # regression (bugfix 1): hit/miss must come from the call
        # itself, never from diffing global counters around it
        cache = CompileCache()
        entry, hit = cache.lookup(("k",))
        assert entry is None and hit is False
        cache.put(("k",), object())
        entry, hit = cache.lookup(("k",))
        assert entry is not None and hit is True
        snap = cache.snapshot()
        assert (snap.hits, snap.misses) == (1, 1)

    def test_concurrent_misses_compile_once(self):
        # in-flight dedup: 8 threads race the same cold key; exactly
        # one factory invocation, one miss, seven hits
        cache = CompileCache()
        calls = []
        started = threading.Barrier(8)
        results = []

        def factory():
            calls.append(1)
            time.sleep(0.05)  # hold the in-flight slot open
            return object()

        def worker():
            started.wait()
            results.append(cache.get_or_compile(("cold",), factory))

        run_threads([worker] * 8)
        assert len(calls) == 1
        snap = cache.snapshot()
        assert snap.misses == 1 and snap.hits == 7
        assert len({id(compiled) for compiled, _ in results}) == 1
        assert sum(1 for _, hit in results if not hit) == 1

    def test_two_threads_first_call_lowers_once(self, monkeypatch):
        # the plan's program is lowered lazily on the first planned run;
        # two threads racing that first call must share one lowering
        from repro.backend import program
        from repro.pipelines import get_pipeline
        wl = get_workload("lstm")
        compiled = get_pipeline("tensorssa").compile(wl.model_fn)
        lowerings = []
        started = threading.Barrier(2)
        real_lower = program.lower

        def slow_lower(graph, plan):
            lowerings.append(graph.name)
            time.sleep(0.05)  # hold the lock while the other arrives
            return real_lower(graph, plan)

        outs = []

        def worker():
            args = wl.make_inputs(seq_len=8, seed=0)
            started.wait()
            outs.append(compiled(*args))

        monkeypatch.setattr(program, "lower", slow_lower)
        run_threads([worker] * 2)
        assert len(lowerings) == 1
        assert rt.bit_exact(outs[0], outs[1])
        assert rt.bit_exact(
            outs[0], wl.model_fn(*wl.make_inputs(seq_len=8, seed=0)))

    def test_failed_compile_releases_inflight_slot(self):
        cache = CompileCache()
        with pytest.raises(RuntimeError):
            cache.get_or_compile(("bad",),
                                 lambda: (_ for _ in ()).throw(
                                     RuntimeError("boom")))
        ok = object()
        compiled, hit = cache.get_or_compile(("bad",), lambda: ok)
        assert compiled is ok and hit is False

    def test_counter_sum_matches_calls_under_contention(self):
        cache = CompileCache(capacity=8)
        per_thread = 200

        def worker(tid):
            def fn():
                for i in range(per_thread):
                    cache.get_or_compile(("k", (tid + i) % 12),
                                         lambda: object())
            return fn

        run_threads([worker(t) for t in range(6)])
        snap = cache.snapshot()
        assert snap.hits + snap.misses == 6 * per_thread

    def test_run_workload_cache_hit_correct_under_concurrent_misses(self):
        # pre-fix: run_workload diffed _compile_cache.misses around the
        # compile, so a concurrent miss flipped another run's cache_hit
        run_workload("attention", "eager", seq_len=8)  # warm the key
        results = []

        def hitter():
            for _ in range(20):
                results.append(
                    run_workload("attention", "eager", seq_len=8))

        def misser():
            for s in range(20):
                run_workload("attention", "eager", seq_len=8 + s + 1)

        run_threads([hitter, misser])
        assert all(r.cache_hit for r in results)


class TestProfilerIsolation:
    def test_thread_profiles_do_not_interleave(self):
        # regression (bugfix 2): thread B records while thread A's
        # profile is open; pre-fix A observed B's launches
        a_open = threading.Event()
        b_done = threading.Event()
        captured = {}

        def thread_a():
            with rt.profile() as prof:
                a_open.set()
                assert b_done.wait(10)
            captured["a"] = prof

        def thread_b():
            assert a_open.wait(10)
            with rt.profile() as prof:
                x = rt.ones((16,))
                rt.add(x, x)
            captured["b"] = prof
            b_done.set()

        run_threads([thread_a, thread_b])
        assert captured["a"].num_launches == 0
        assert captured["b"].num_launches == 2  # ones + add

    def test_alloc_accounting_is_thread_local(self):
        # pre-fix: concurrent planned runs pushed pools/allocs onto
        # shared stacks, corrupting each other's peak_bytes
        solo = run_workload("lstm", "tensorssa", seq_len=8)
        results = [None] * 4

        def worker(i):
            def fn():
                results[i] = run_workload("lstm", "tensorssa", seq_len=8)
            return fn

        run_threads([worker(i) for i in range(4)])
        for res in results:
            assert res.kernel_launches == solo.kernel_launches
            assert res.peak_bytes == solo.peak_bytes
            assert res.bytes_reused == solo.bytes_reused

    def test_explicit_stack_api(self):
        from repro.runtime import profiler
        x = rt.ones((4,))
        prof = profiler.Profile()
        profiler.push_profile(prof)
        try:
            rt.add(x, 1.0)
        finally:
            assert profiler.pop_profile() is prof
        assert prof.num_launches == 1
        with pytest.raises(RuntimeError):
            profiler.pop_profile()


class TestCounterEpochs:
    def test_clear_advances_epoch(self):
        # regression (bugfix 3): post-clear results must be marked as a
        # new counter epoch, not silently restart from zero
        first = run_workload("attention", "tensorssa", seq_len=8)
        process_cache.clear()
        second = run_workload("attention", "tensorssa", seq_len=8)
        assert second.cache_epoch == first.cache_epoch + 1
        assert second.cache_misses == 1  # fresh epoch, fresh counters
        assert not second.cache_hit

    def test_snapshot_matches_run_result(self):
        res = run_workload("attention", "tensorssa", seq_len=8)
        snap = process_cache.snapshot()
        assert (snap.epoch, snap.hits, snap.misses) == \
            (res.cache_epoch, res.cache_hits, res.cache_misses)

    def test_injected_cache_isolates_counters(self):
        private = CompileCache()
        res = run_workload("attention", "eager", seq_len=8, cache=private)
        assert res.cache_misses == 1 and res.cache_epoch == 0
        assert process_cache.snapshot().misses == 0  # global untouched


class TestConcurrentRuns:
    WORKLOADS = [("lstm", 8), ("attention", 8), ("nasrnn", 8)]

    def test_threads_by_workloads_bit_exact_vs_sequential_eager(self):
        # N threads x M workloads through run_workload: every compiled
        # run must match the sequential eager reference bit for bit
        expected = {}
        for name, seq in self.WORKLOADS:
            wl = get_workload(name)
            args = wl.make_inputs(batch_size=1, seq_len=seq, seed=0)
            outs = wl.model_fn(*tuple(a.clone() for a in args))
            expected[name] = outs if isinstance(outs, tuple) else (outs,)

        results = {}

        def worker(name, seq):
            def fn():
                results[name] = run_workload(name, "tensorssa",
                                             seq_len=seq)
            return fn

        run_threads([worker(n, s) for n, s in self.WORKLOADS] * 2)
        for name, _ in self.WORKLOADS:
            got = results[name].outputs
            assert len(got) == len(expected[name])
            for g, e in zip(got, expected[name]):
                np.testing.assert_array_equal(g.numpy(), e.numpy())

    @pytest.mark.parametrize("name, grad, batch", [
        *[pytest.param(n, False, 1, id=n)
          for n in ("yolact", "attention", "lstm", "nasrnn", "seq2seq")],
        pytest.param("lstm", True, 1, id="lstm-grad"),
        pytest.param("attention", True, 1, id="attention-grad"),
        pytest.param("lstm", False, 4, id="lstm-b4"),
        pytest.param("lstm", True, 4, id="lstm-grad-b4"),
        pytest.param("attention", True, 4, id="attention-grad-b4")])
    def test_shared_inputs_are_never_written(self, name, grad, batch):
        # serving shares one compiled graph between workers — here one
        # set of input tensors too: a kernel that stored into a buffer
        # it had neither allocated, copied nor been donated by the plan
        # (a group input, a carried slot's initial value) would corrupt
        # its neighbours' inputs; lstm, nasrnn and seq2seq kernels write
        # donated per-call buffers in place, and the backward's
        # gradient accumulators run out= into theirs.  At batch 4 every
        # ``linear`` takes its multi-row orientation, the one a full
        # serving batch runs
        wl = get_workload(name)
        args = wl.make_inputs(batch_size=batch, seq_len=8, seed=0)
        tensors = [a for a in args if isinstance(a, rt.Tensor)]
        pristine = [a.numpy() for a in tensors]
        pipeline = get_pipeline("tensorssa")
        if grad:
            compiled = pipeline.compile_grad(wl.model_fn, example_args=args)
            reference = compiled.stats["grad_reference"]
        else:
            compiled = pipeline.compile(wl.model_fn, example_args=args)
            reference = wl.model_fn
        expected = rt.as_tuple(reference(*clone_args(args)))
        start = threading.Barrier(8)
        results = [None] * 8

        def worker(i):
            def fn():
                start.wait(timeout=30)
                for _ in range(4):
                    results[i] = rt.as_tuple(compiled(*args))
            return fn

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_threads([worker(i) for i in range(8)])
        finally:
            sys.setswitchinterval(interval)
        for got in results:
            assert rt.bit_exact(got, expected)
        for tensor, before in zip(tensors, pristine):
            assert tensor.version == 0
            assert rt.bit_exact(tensor, before)

    def test_server_unbatched_bit_exact_vs_sequential_eager(self):
        # through Server.submit with batching disabled: responses are
        # bit-exact with solo eager (the strongest contract; batched
        # mode's oracle is exercised in test_serve.py)
        pol = ServePolicy(workers=4, max_batch_size=1, verify="solo")
        with Server(pol) as srv:
            futs = {}
            for name, seq in self.WORKLOADS:
                for seed in (0, 1):
                    futs[(name, seed)] = srv.submit(
                        name, seq_len=seq, seed=seed,
                        pipeline="tensorssa")
            for (name, seed), fut in futs.items():
                resp = fut.result(timeout=120)
                assert resp.ok, f"{name}/{seed}: {resp.error}"
                assert resp.verified is True
                wl = get_workload(name)
                args = wl.make_inputs(batch_size=1, seq_len=dict(
                    self.WORKLOADS)[name], seed=seed)
                outs = wl.model_fn(*tuple(a.clone() for a in args))
                outs = outs if isinstance(outs, tuple) else (outs,)
                for g, e in zip(resp.outputs, outs):
                    np.testing.assert_array_equal(g.numpy(), e.numpy())
        assert srv.stats.to_dict()["diverged"] == 0

    def test_server_batched_hit_rate_and_agreement(self):
        # batched serving: high cache hit rate once shapes repeat, and
        # the batch oracle (bit-exact vs eager on identical coalesced
        # inputs) holds for every response
        wl = get_workload("lstm")
        base = wl.make_inputs(batch_size=1, seq_len=8, seed=0)
        pol = ServePolicy(workers=2, max_batch_size=4,
                          batch_wait_s=0.01, verify="batch")
        with Server(pol) as srv:
            futs = []
            for s in range(16):
                a = wl.make_inputs(batch_size=1, seq_len=8, seed=50 + s)
                args = (a[0],) + base[1:4] + (a[4], a[5])
                futs.append(srv.submit("lstm", args=args))
            rs = [f.result(timeout=120) for f in futs]
        assert all(r.ok for r in rs)
        assert all(r.verified is True for r in rs)
        stats = srv.stats.to_dict()
        assert stats["diverged"] == 0
        # batch composition varies with scheduler timing, but there are
        # only max_batch_size distinct compile keys (one per batch
        # size), so misses are bounded and everything else must hit
        assert 1 <= stats["compile_cache"]["misses"] <= pol.max_batch_size
        assert (stats["compile_cache"]["hits"]
                + stats["compile_cache"]["misses"]
                == stats["batches_executed"])


class TestContinuousBatchingUnderContention:
    """Priority lanes with many submitter threads: the batch oracle
    must stay bit-exact when late arrivals join a group that is still
    waiting for peers, and lane accounting must add up under
    contention."""

    def test_mixed_lanes_batch_oracle_and_lane_accounting(self):
        wl = get_workload("lstm")
        base = wl.make_inputs(batch_size=1, seq_len=8, seed=0)
        pol = ServePolicy(workers=2, max_batch_size=4,
                          batch_wait_s=0.02, verify="batch")
        n_threads, per_thread = 4, 6
        futs = [[] for _ in range(n_threads)]
        with Server(pol) as srv:
            def submitter(tid):
                def fn():
                    for k in range(per_thread):
                        a = wl.make_inputs(batch_size=1, seq_len=8,
                                           seed=100 + tid * per_thread + k)
                        args = (a[0],) + base[1:4] + (a[4], a[5])
                        futs[tid].append(srv.submit(
                            "lstm", args=args, priority=tid % 2,
                            tenant=f"t{tid % 2}"))
                        time.sleep(0.002)
                return fn
            run_threads([submitter(t) for t in range(n_threads)])
            rs = [f.result(timeout=120) for fs in futs for f in fs]
        assert all(r.ok for r in rs), [r.error for r in rs if not r.ok]
        assert all(r.verified is True for r in rs)
        stats = srv.stats.to_dict()
        assert stats["diverged"] == 0
        total = n_threads * per_thread
        assert stats["completed"] == total
        # every request was accounted to exactly one lane, in and out
        assert sum(stats["lane_submitted"].values()) == total
        assert sum(stats["lane_completed"].values()) == total
        assert stats["lane_completed"] == stats["lane_submitted"]
        # responses echo the lane they were submitted on
        for tid, fs in enumerate(futs):
            for f in fs:
                assert f.result(timeout=1).priority == tid % 2


class TestLingerEvidenceUnderContention:
    """The scheduler's linger evidence is shared by every worker: the
    executing-batch count must return to zero whatever the executor
    does, and every claim must be accounted to exactly one reason."""

    def test_executing_count_balances_under_crashing_batches(self):
        pol = ServePolicy(workers=4, max_batch_size=4, batch_wait_s=0.0005)
        srv = Server(pol)
        claimed = []

        def execute(batch):      # no compile, no run; one in five crashes
            claimed.append(len(batch))
            if len(claimed) % 5 == 0:
                raise ValueError("synthetic executor bug")
            for req in batch:
                req.future.set_result(req.answer("ok"))

        srv.executor.execute = execute
        args = get_workload("attention").make_inputs(batch_size=1,
                                                     seq_len=4, seed=0)
        n_threads, per_thread = 8, 150
        resps = [[] for _ in range(n_threads)]

        def client(tid):
            def fn():            # closed loop: one request in flight
                for _ in range(per_thread):
                    resps[tid].append(srv.submit(
                        "attention", args=args).result(timeout=30))
            return fn

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_threads([client(t) for t in range(n_threads)])
        finally:
            sys.setswitchinterval(interval)
            srv.shutdown(timeout=10.0)
        assert all(not t.is_alive() for t in srv._workers)
        total = n_threads * per_thread
        assert sum(len(r) for r in resps) == total == sum(claimed)
        assert {r.status for rs in resps for r in rs} <= {"ok", "error"}
        assert srv._executing == 0
        assert sum(srv.stats.flushes_by_reason.values()) == len(claimed)
        assert srv.queue_depth() == 0

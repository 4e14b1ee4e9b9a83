"""The seven workloads: set-up, one timed round, teardown.

Every workload builds its inputs, arrival schedule and request order
from ``--seed``; the program under test only ever sees generated
inputs.  Set-up compiles and warms everything a timed region can touch
and computes the independent references, so a timed round contains the
operation being measured and a bit-exact check outside its timer.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import tempfile
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

import numpy as np

import repro.runtime as rt
from repro.eval.harness import CompileCache, clone_args, compile_key
from repro.models import get_workload, workload_names
from repro.obs.metrics import percentile_nearest_rank as pct
from repro.pipelines import get_pipeline
from repro.serve import Server, ServePolicy, coalesce
from repro.serve.request import Request
from repro.shard import ShardPolicy, ShardRouter

import spec
from measure import RoundResult, geomean, speed

#: every future is awaited with this hard timeout: a hang is a counted
#: failure, never a stuck run
FUTURE_TIMEOUT_S = 20.0
#: requests of the schedule replayed by the untimed verification pass
VERIFY_REQUESTS = 200

PIPELINE = "tensorssa"


class Case(NamedTuple):
    """One (model, shape) the workload executes: the unit of the
    per-layer probes and of ``peak_tensor_mb``."""

    label: str
    model: str
    batch_size: int
    seq_len: int
    args: tuple
    grad: bool = False


def _as_tuple(out) -> tuple:
    return out if isinstance(out, tuple) else (out,)


def _np(x) -> np.ndarray:
    return x.numpy() if isinstance(x, rt.Tensor) else np.asarray(x)


def outputs_match(got, ref, exact: bool = True) -> bool:
    """Bit-exact (or harness-tolerance) equality of two output tuples."""
    got, ref = _as_tuple(got), _as_tuple(ref)
    if len(got) != len(ref):
        return False
    for g, r in zip(got, ref):
        g, r = _np(g), _np(r)
        if g.shape != r.shape:
            return False
        if exact:
            if not np.array_equal(g, r):
                return False
        elif not np.allclose(g, r, rtol=1e-4, atol=1e-5):
            return False
    return True


def peak_bytes(fn: Callable, args: tuple) -> int:
    """``Profile.peak_bytes`` of one warm call."""
    with rt.profile() as prof:
        fn(*clone_args(args))
    return prof.peak_bytes


class Workload:
    """Base: subclasses fill ``setup``/``round`` and list their cases."""

    name = ""
    #: also count RUSAGE_CHILDREN in peak_rss_mb
    rss_children = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: smoke pass: fewer verification requests, same code paths
        self.quick = False
        self.rng = random.Random(seed)
        self.cases: List[Case] = []
        #: label -> warm measured callable, for the model probes
        self.compiled: Dict[str, Callable] = {}
        #: facts found during set-up, printed and stored beside results
        self.notes: Dict[str, object] = {}

    def _case(self, model: str, batch_size: int, seq_len: int,
              grad: bool = False, label: Optional[str] = None) -> Case:
        args = get_workload(model).make_inputs(
            batch_size=batch_size, seq_len=seq_len,
            seed=self.rng.randrange(1 << 30))
        return Case(label or model, model, batch_size, seq_len, args, grad)

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, seconds: float) -> RoundResult:
        raise NotImplementedError

    def peak_tensor_bytes(self) -> int:
        return sum(peak_bytes(self.compiled[c.label], c.args)
                   for c in self.cases)

    def layer_metrics(self, plain: RoundResult) -> Dict[str, float]:
        """Workload-specific per-layer numbers read off an untraced
        round (Response fields and server counters cost nothing)."""
        return {}

    def close(self) -> None:
        pass


# -- exec_cv / exec_rnn / grad_rnn ------------------------------------------

class ExecWorkload(Workload):
    """Warm compiled callables timed call by call, interleaved with
    the baseline in the same round."""

    def __init__(self, seed: int, name: str, models: Sequence[str],
                 batch_size: int, seq_len: int, grad: bool = False) -> None:
        super().__init__(seed)
        self.name = name
        self.models = list(models)
        self.batch_size, self.seq_len, self.grad = batch_size, seq_len, grad
        self.baseline: Dict[str, Callable] = {}
        self.reference: Dict[str, tuple] = {}

    def setup(self) -> None:
        measured = get_pipeline(PIPELINE)
        base = get_pipeline("tensorssa_interp" if self.grad else "eager")
        for model in self.models:
            case = self._case(model, self.batch_size, self.seq_len,
                              self.grad)
            fn = get_workload(model).model_fn
            if self.grad:
                comp = measured.compile_grad(fn, example_args=case.args)
                ref_fn = comp.stats["grad_reference"]
                base_fn = base.compile_grad(fn, example_args=case.args)
            else:
                comp = measured.compile(fn, example_args=case.args)
                ref_fn = fn
                base_fn = base.compile(fn, example_args=case.args)
            self.cases.append(case)
            self.compiled[model] = comp
            self.baseline[model] = base_fn
            self.reference[model] = _as_tuple(ref_fn(*clone_args(case.args)))
            for _ in range(2):  # lazy kernel codegen, BLAS pool
                comp(*clone_args(case.args))
                base_fn(*clone_args(case.args))

    def round(self, seconds: float) -> RoundResult:
        res = RoundResult()
        clock = time.perf_counter
        share = seconds / len(self.cases)
        s_before = speed()
        for case in self.cases:
            fn, base = self.compiled[case.label], self.baseline[case.label]
            ref = self.reference[case.label]
            lat = res.samples.setdefault(case.label, [])
            blat = res.baseline.setdefault(case.label, [])
            deadline = clock() + share
            while clock() < deadline:
                args = clone_args(case.args)
                res.attempted += 1
                t0 = clock()
                try:
                    out = fn(*args)
                except Exception:
                    res.failed += 1
                    continue
                lat.append((clock() - t0) * 1e3)
                if not outputs_match(out, ref, exact=not self.grad):
                    res.failed += 1
                args = clone_args(case.args)
                t0 = clock()
                base(*args)
                blat.append((clock() - t0) * 1e3)
            s_after = speed()
            res.stamp((s_before + s_after) / 2)
            s_before = s_after
        return res


# -- compile_cold -----------------------------------------------------------

class CompileCold(Workload):
    """Sweeps of compile + first call over all eight models."""

    name = "compile_cold"

    def setup(self) -> None:
        self.pipe = get_pipeline(PIPELINE)
        self.reference: Dict[str, tuple] = {}
        for model in workload_names():
            case = self._case(model, 1, 64)
            fn = get_workload(model).model_fn
            self.cases.append(case)
            self.reference[model] = _as_tuple(fn(*clone_args(case.args)))
            comp = self.pipe.compile(fn, example_args=case.args)
            comp(*clone_args(case.args))
            self.compiled[model] = comp

    def round(self, seconds: float) -> RoundResult:
        res = RoundResult()
        clock = time.perf_counter
        deadline = clock() + seconds
        s_before = speed()
        while clock() < deadline:
            # every compile leaves a dead graph full of reference
            # cycles behind; reclaim them between sweeps, off the clock
            gc.collect()
            for case in self.cases:
                fn = get_workload(case.model).model_fn
                args = clone_args(case.args)
                res.attempted += 1
                t0 = clock()
                try:
                    out = self.pipe.compile(fn, example_args=case.args)(*args)
                except Exception:
                    res.failed += 1
                    continue
                res.record(case.label, (clock() - t0) * 1e3)
                if not outputs_match(out, self.reference[case.label]):
                    res.failed += 1
            s_after = speed()
            res.stamp((s_before + s_after) / 2)
            s_before = s_after
        return res


# -- serve_open / serve_burst -----------------------------------------------

def _shared_inputs(model: str, seq_len: int, count: int,
                   rng: random.Random) -> List[tuple]:
    """``count`` distinct requests of one model sharing model state:
    the first input's state tensors (batch axis None) are reused by
    identity, which is what lets the server coalesce them."""
    from repro.serve import get_batch_spec
    wl = get_workload(model)
    spec_ = get_batch_spec(model)
    first = wl.make_inputs(batch_size=1, seq_len=seq_len,
                           seed=rng.randrange(1 << 30))
    out = [first]
    for _ in range(count - 1):
        fresh = wl.make_inputs(batch_size=1, seq_len=seq_len,
                               seed=rng.randrange(1 << 30))
        out.append(tuple(first[i] if axis is None else fresh[i]
                         for i, axis in enumerate(spec_.arg_axes)))
    return out


class _Served(NamedTuple):
    """What the per-layer tables keep of one ``Response`` (the outputs
    are dropped: thousands of them would be the benchmark's own RSS)."""

    queue_wait_ms: float
    exec_wall_ms: float
    batch_requests: int
    cache_hit: bool

    @classmethod
    def of(cls, resp) -> "_Served":
        return cls(resp.queue_wait_s * 1e3, resp.exec_wall_s * 1e3,
                   resp.batch_requests, bool(resp.cache_hit))


def _response_metrics(served: Sequence[_Served]) -> Dict[str, float]:
    """The per-layer numbers every ``Response`` carries with it."""
    qw = [r.queue_wait_ms for r in served]
    return {
        "serve.queue_wait_ms_p50": pct(qw, 50),
        "serve.queue_wait_ms_p90": pct(qw, 90),
        "serve.exec_wall_ms_p50": pct([r.exec_wall_ms for r in served], 50),
        "serve.mean_batch_requests":
            float(np.mean([r.batch_requests for r in served]))
            if served else 0.0,
    }


class _Pending:
    """Completion stamps written by future callbacks on server threads."""

    __slots__ = ("t_done", "resp")

    def __init__(self, fut) -> None:
        self.t_done = 0.0
        self.resp = None
        fut.add_done_callback(self._done)

    def _done(self, fut) -> None:
        self.t_done = time.perf_counter()
        if fut.exception() is None:
            self.resp = fut.result()


class ServeWorkload(Workload):
    """In-process ``Server``; ``open_loop`` selects the generator."""

    MAX_BATCH = 8
    INPUTS = 16
    RATE = 100.0        # open loop: requests per second
    OUTSTANDING = 8     # closed loop: requests kept in flight

    def __init__(self, seed: int, name: str, model: str,
                 open_loop: bool) -> None:
        super().__init__(seed)
        self.name, self.model, self.open_loop = name, model, open_loop
        self.seq_len = 32
        self.server: Optional[Server] = None
        self.cursor = 0

    def _policy(self, verify: str) -> ServePolicy:
        return ServePolicy(workers=2, max_batch_size=self.MAX_BATCH,
                           verify=verify)

    def _precompile(self, cache: CompileCache) -> None:
        """Compile every batch shape a timed region can produce, under
        exactly the key the executor will look up."""
        wl = get_workload(self.model)
        pipe = get_pipeline(PIPELINE)
        for rows in range(1, self.MAX_BATCH + 1):
            reqs = [Request(workload=wl, pipeline=PIPELINE,
                            platform="datacenter", args=a)
                    for a in self.inputs[:rows]]
            args = coalesce(reqs).args
            comp, _ = cache.get_or_compile(
                compile_key(pipe, wl, args),
                lambda args=args: pipe.compile(wl.model_fn,
                                               example_args=args))
            comp(*clone_args(args))
            if rows == (1 if self.open_loop else self.MAX_BATCH):
                self.cases.append(Case(self.model, self.model, rows,
                                       self.seq_len, args))
                self.compiled[self.model] = comp

    def _drive(self, server: Server, order: Sequence[int], burst: int
               ) -> List[_Pending]:
        """Closed-loop replay of ``order`` in bursts of ``burst``."""
        done: List[_Pending] = []
        for i in range(0, len(order), burst):
            pend = [(_Pending(f), f) for f in (
                server.submit(self.model, args=self.inputs[k],
                              pipeline=PIPELINE)
                for k in order[i:i + burst])]
            for p, f in pend:
                try:
                    f.result(FUTURE_TIMEOUT_S)
                except Exception:
                    pass
                done.append(p)
        return done

    def setup(self) -> None:
        self.inputs = _shared_inputs(self.model, self.seq_len, self.INPUTS,
                                     self.rng)
        #: request order of the whole run, seeded
        self.order = [self.rng.randrange(self.INPUTS) for _ in range(1 << 16)]
        cache = CompileCache(capacity=128)
        self._precompile(cache)
        burst = 1 if self.open_loop else self.OUTSTANDING
        # untimed verification pass: the first scheduled requests,
        # bit-exact against eager on the same coalesced batch
        with Server(self._policy("batch"), cache=cache) as oracle:
            checked = self._drive(
                oracle, self.order[:16 if self.quick else VERIFY_REQUESTS],
                burst)
        bad = sum(1 for p in checked if p.resp is None or not p.resp.ok
                  or p.resp.verified is not True)
        self.notes["verified_requests"] = len(checked)
        self.notes["verify_failures"] = bad
        if bad:
            raise RuntimeError(f"{self.name}: {bad}/{len(checked)} requests "
                               "failed the verify='batch' oracle")
        self.server = Server(self._policy("off"), cache=cache)
        for rows in range(1, self.MAX_BATCH + 1):  # warm the worker threads
            self._drive(self.server, self.order[:rows], rows)
        self._compiles_before = cache.snapshot().misses

    def _account(self, res: RoundResult, pend: _Pending, t_ref: float
                 ) -> None:
        res.attempted += 1
        resp = pend.resp
        if resp is None or not resp.ok:
            res.failed += 1
            res.slo_missed += 1
            return
        lat_ms = (pend.t_done - t_ref) * 1e3
        res.record(self.model, lat_ms)
        if lat_ms > spec.SLO_MS:
            res.slo_missed += 1
        res.extra.setdefault("responses", []).append(
            (lat_ms, _Served.of(resp)))

    def round(self, seconds: float) -> RoundResult:
        res = RoundResult()
        stats = self.server.stats
        names = ("batches_executed", "shed", "rejected")
        stats0 = [getattr(stats, k) for k in names]
        hits0 = self.server.cache.snapshot()
        # an open loop at ~10 % utilisation spends its latency in the
        # admission window and thread hand-offs and its throughput is
        # the arrival rate: neither scales with CPU speed, so only the
        # CPU-bound closed loop is put at reference machine speed
        s0 = 1.0 if self.open_loop else speed()
        start = time.perf_counter()
        if self.open_loop:
            self._round_open(res, seconds, start)
        else:
            self._round_closed(res, seconds, start)
        res.busy_s = time.perf_counter() - start
        res.stamp(1.0 if self.open_loop else (s0 + speed()) / 2)
        res.sent = res.attempted
        hits1 = self.server.cache.snapshot()
        res.extra["stats_delta"] = {
            k: getattr(stats, k) - before
            for k, before in zip(names, stats0)}
        res.extra["cache_hits"] = hits1.hits - hits0.hits
        res.extra["cache_misses"] = hits1.misses - hits0.misses
        res.extra["compiles_timed"] = hits1.misses - self._compiles_before
        if res.extra["compiles_timed"]:
            raise RuntimeError(
                f"{self.name}: {res.extra['compiles_timed']} compiles "
                "landed in a timed region (warm-up missed a batch shape)")
        return res

    def _round_open(self, res: RoundResult, seconds: float,
                    start: float) -> None:
        """Seeded Poisson arrivals at ``RATE``; each request is timed
        from its due time and generator lateness is kept."""
        due, t = [], self.rng.expovariate(self.RATE)
        while t < seconds:
            due.append(t)
            t += self.rng.expovariate(self.RATE)
        pending = []
        late = res.extra.setdefault("late_ms", [])
        clock = time.perf_counter
        for d in due:
            wait = start + d - clock()
            if wait > 0:
                time.sleep(wait)
            late.append((clock() - start - d) * 1e3)
            k = self.order[self.cursor % len(self.order)]
            self.cursor += 1
            fut = self.server.submit(self.model, args=self.inputs[k],
                                     pipeline=PIPELINE)
            pending.append((_Pending(fut), fut, start + d))
        for pend, fut, t_due in pending:
            try:
                fut.result(FUTURE_TIMEOUT_S)
            except Exception:
                pass
            self._account(res, pend, t_due)

    def _round_closed(self, res: RoundResult, seconds: float,
                      start: float) -> None:
        """One generator thread keeps ``OUTSTANDING`` in flight:
        submit 8, await 8."""
        clock = time.perf_counter
        while clock() - start < seconds:
            pending = []
            for _ in range(self.OUTSTANDING):
                k = self.order[self.cursor % len(self.order)]
                self.cursor += 1
                t0 = clock()
                fut = self.server.submit(self.model, args=self.inputs[k],
                                         pipeline=PIPELINE)
                pending.append((_Pending(fut), fut, t0))
            for pend, fut, t0 in pending:
                try:
                    fut.result(FUTURE_TIMEOUT_S)
                except Exception:
                    pass
                self._account(res, pend, t0)

    def layer_metrics(self, plain: RoundResult) -> Dict[str, float]:
        rows = plain.extra.get("responses", [])
        over = [lat - r.queue_wait_ms - r.exec_wall_ms for lat, r in rows]
        delta = plain.extra.get("stats_delta", {})
        looked = plain.extra["cache_hits"] + plain.extra["cache_misses"]
        return {
            **_response_metrics([r for _, r in rows]),
            "serve.overhead_ms_p50": pct(over, 50),
            "serve.batches_executed": delta.get("batches_executed", 0),
            "serve.cache_hit_share":
                plain.extra["cache_hits"] / looked if looked else 0.0,
            "serve.compiles_timed": plain.extra["compiles_timed"],
            "serve.shed": delta.get("shed", 0),
            "serve.rejected": delta.get("rejected", 0),
            "serve.gen_late_ms_p99": pct(plain.extra.get("late_ms", []), 99),
        }

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown(drain=False, timeout=5.0)
            self.server = None


# -- shard_closed -----------------------------------------------------------

class ShardClosed(Workload):
    """Two supervised worker processes behind a ``ShardRouter``; one
    request in flight, alternating attention and lstm over four
    sequence lengths each so both ring owners serve."""

    name = "shard_closed"
    rss_children = True
    SEQ_LENS = (16, 24, 32, 40)

    def __init__(self, seed: int, tmp_root: str) -> None:
        super().__init__(seed)
        self.tmp_root = tmp_root
        self.router: Optional[ShardRouter] = None
        self.cursor = 0

    def setup(self) -> None:
        pipe = get_pipeline(PIPELINE)
        self.reference: Dict[str, tuple] = {}
        for seq_len in self.SEQ_LENS:
            for model in ("attention", "lstm"):
                case = self._case(model, 1, seq_len,
                                  label=f"{model}@{seq_len}")
                self.cases.append(case)
                fn = get_workload(model).model_fn
                self.reference[case.label] = _as_tuple(
                    fn(*clone_args(case.args)))
                comp = pipe.compile(fn, example_args=case.args)
                comp(*clone_args(case.args))
                self.compiled[case.label] = comp
        os.makedirs(self.tmp_root, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="shard-", dir=self.tmp_root)
        # the supervisor's socket directory comes from tempfile too:
        # keep it inside the checkout, on a path short enough to bind
        self._old_tempdir = tempfile.tempdir
        tempfile.tempdir = _short_path(self.tmp)
        t0 = time.perf_counter()
        self.router = ShardRouter(ShardPolicy(
            num_workers=2, store_root=os.path.join(self.tmp, "store"),
            worker_policy={"workers": 1, "max_batch_size": 8}))
        ready = self.router.wait_ready(min_workers=2, timeout=60.0)
        self.notes["boot_s"] = time.perf_counter() - t0
        if ready < 2:
            raise RuntimeError(f"shard fleet: {ready}/2 workers ready")
        # warm-up: one in flight means batch shape 1 only, once per
        # (model, sequence length); the second lap must be compile-free
        bad = 0
        for lap in range(2):
            for case in self.cases:
                resp = self._call(case)
                if resp is None or not resp.ok or not outputs_match(
                        resp.outputs, self.reference[case.label]):
                    bad += 1
            if lap == 0:
                self._compiles_before = self._worker_compiles()
        served_by = {}
        for case in self.cases:
            resp = self._call(case)
            served_by[case.label] = resp.worker if resp is not None else "?"
        self.notes["ring_owners"] = sorted(set(served_by.values()))
        self.notes["verify_failures"] = bad
        if bad:
            raise RuntimeError(f"shard_closed: {bad} warm responses "
                               "mismatched the eager reference")
        if self._worker_compiles() != self._compiles_before:
            raise RuntimeError("shard_closed: a warm lap compiled")

    def _call(self, case: Case):
        fut = self.router.submit(case.model, args=case.args,
                                 pipeline=PIPELINE)
        try:
            return fut.result(FUTURE_TIMEOUT_S)
        except Exception:
            return None

    def _worker_compiles(self) -> int:
        return sum(self.router.stats.worker_compiles.values())

    def round(self, seconds: float) -> RoundResult:
        res = RoundResult()
        clock = time.perf_counter
        s0 = speed()
        start = clock()
        rows = res.extra.setdefault("responses", [])
        while clock() - start < seconds:
            case = self.cases[self.cursor % len(self.cases)]
            self.cursor += 1
            res.attempted += 1
            t0 = clock()
            resp = self._call(case)
            lat_ms = (clock() - t0) * 1e3
            if resp is None or not resp.ok or resp.degraded:
                res.failed += 1
                continue
            res.record(case.model, lat_ms)
            rows.append((case.model, lat_ms, _Served.of(resp)))
            # every reply is checked: one in flight is batch 1, which is
            # bit-exact with solo eager
            if not outputs_match(resp.outputs, self.reference[case.label]):
                res.failed += 1
        res.busy_s = clock() - start
        res.stamp((s0 + speed()) / 2)
        grown = self._worker_compiles() - self._compiles_before
        res.extra["worker_compiles_timed"] = grown
        if grown:
            raise RuntimeError(f"shard_closed: worker compiles grew by "
                               f"{grown} during timing")
        return res

    def layer_metrics(self, plain: RoundResult) -> Dict[str, float]:
        rows = plain.extra.get("responses", [])
        transport: Dict[str, List[float]] = {}
        for model, lat, r in rows:
            transport.setdefault(model, []).append(
                lat - r.queue_wait_ms - r.exec_wall_ms)
        report = self.router.report()
        return {
            **_response_metrics([r for _, _, r in rows]),
            "serve.cache_hit_share":
                float(np.mean([r.cache_hit for _, _, r in rows]))
                if rows else 0.0,
            "shard.transport_ms_p50": geomean(
                [pct(v, 50) for v in transport.values()]),
            "shard.boot_s": self.notes["boot_s"],
            "shard.worker_compiles": self._worker_compiles(),
            "shard.redelivered": report.get("redelivered", 0),
            "shard.eager_floor": report.get("eager_floor", 0),
            **{f"model.{m}.shard.transport_ms_p50": pct(v, 50)
               for m, v in transport.items()},
        }

    def close(self) -> None:
        try:
            if self.router is not None:
                self.router.shutdown(drain=False, timeout=6.0)
                self.router = None
        finally:
            if hasattr(self, "_old_tempdir"):
                tempfile.tempdir = self._old_tempdir
            if hasattr(self, "tmp"):
                shutil.rmtree(self.tmp, ignore_errors=True)


def _short_path(path: str) -> str:
    """``path`` in whichever of its absolute or cwd-relative spellings
    is shorter: AF_UNIX socket paths are limited to ~107 bytes and a
    driver checkout may sit deep."""
    rel = os.path.relpath(path)
    return rel if len(rel) < len(path) else path


def make(name: str, seed: int, tmp_root: str,
         quick: bool = False) -> Workload:
    """Instantiate a workload by its ``spec.WORKLOADS`` name."""
    if name == "exec_cv":
        wl = ExecWorkload(seed, name, ("yolov3", "ssd", "yolact", "fcos"),
                          batch_size=1, seq_len=64)
    elif name == "exec_rnn":
        wl = ExecWorkload(seed, name,
                          ("nasrnn", "lstm", "seq2seq", "attention"),
                          batch_size=1, seq_len=64)
    elif name == "grad_rnn":
        wl = ExecWorkload(seed, name, ("lstm", "attention"),
                          batch_size=4, seq_len=32, grad=True)
    elif name == "compile_cold":
        wl = CompileCold(seed)
    elif name == "serve_open":
        wl = ServeWorkload(seed, name, "attention", open_loop=True)
    elif name == "serve_burst":
        wl = ServeWorkload(seed, name, "lstm", open_loop=False)
    elif name == "shard_closed":
        wl = ShardClosed(seed, tmp_root)
    else:
        raise KeyError(f"unknown workload {name!r}; "
                       f"choose from {list(spec.WORKLOADS)}")
    wl.quick = quick
    return wl

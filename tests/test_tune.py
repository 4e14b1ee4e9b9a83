"""Autotuned kernel schedules (``repro.tune``): the schedule space,
kernel variants, the persistent per-key-file tuning database, the
search oracle, and the serve-side lookup path — plus the kernel
accounting and codegen regressions that rode along."""

import json
import multiprocessing

import numpy as np
import pytest

import repro.runtime as rt
from repro.backend import run_graph
from repro.backend.codegen import (CodegenError, _const_literal,
                                   compile_block, compile_block_unrolled)
from repro.errors import CompileError, DeadlineExceeded
from repro.eval.cache import CompileCache, shape_signature
from repro.eval.harness import run_workload
from repro.faults import (Fault, FaultPlan, FaultRule, SITE_BATCH_EXEC,
                          SITE_KERNEL_LAUNCH, global_fault_scope)
from repro.frontend import script
from repro.ir import clone_graph
from repro.ir.graph import free_values
from repro.models import get_workload
from repro.passes import FuserConfig, dce, fuse, parallelize_loops
from repro.serve import ServePolicy, Server
from repro.tensorssa import convert_to_tensorssa
from repro.tune import (DEFAULT_SCHEDULE, SCHEDULE_SPACE, Schedule,
                        TuningDB, active_schedule, schedule_scope,
                        shape_key_text, tune_workload, tuning_key)
from repro.tune.db import serving_key
from repro.tune.search import candidate_schedules

ALL_WORKLOADS = ("attention", "fcos", "lstm", "nasrnn", "seq2seq",
                 "ssd", "yolact", "yolov3")


def _bit_exact(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        ga = g.numpy() if hasattr(g, "numpy") else np.asarray(g)
        ea = e.numpy() if hasattr(e, "numpy") else np.asarray(e)
        assert ga.shape == ea.shape
        assert ga.dtype == ea.dtype
        assert np.array_equal(ga, ea)


# -- schedule records ----------------------------------------------------


class TestSchedule:
    def test_default_identity(self):
        assert DEFAULT_SCHEDULE.is_default
        assert DEFAULT_SCHEDULE.schedule_id == "default"
        assert active_schedule() is DEFAULT_SCHEDULE

    def test_round_trip(self):
        s = Schedule(hloop_unroll=2)
        assert not s.is_default
        assert s.schedule_id == "u2"
        assert Schedule.from_dict(s.to_dict()) == s
        assert Schedule(hloop_unroll=1).schedule_id == "default"

    def test_space_is_the_unroll_factor_alone(self):
        assert SCHEDULE_SPACE == {"hloop_unroll": (1, 2, 4, 8)}

    def test_from_dict_rejects_unknown_knob(self):
        with pytest.raises(ValueError):
            Schedule.from_dict({"hloop_unroll": 2, "warp_size": 32})
        with pytest.raises(ValueError):  # a knob this space dropped
            Schedule.from_dict({"hloop_unroll": 2, "tile_elems": 0})

    def test_from_dict_rejects_out_of_space_value(self):
        with pytest.raises(ValueError):
            Schedule.from_dict({"hloop_unroll": 3})

    def test_scope_restores(self):
        s = Schedule(hloop_unroll=4)
        with schedule_scope(s):
            assert active_schedule() is s
            with schedule_scope(None):  # passthrough
                assert active_schedule() is s
        assert active_schedule().is_default


# -- codegen: recursive constant validation (the _const_literal fix) ----


class TestConstLiteral:
    @pytest.mark.parametrize("value", [
        3, 2.5, True, None, "s", (1, 2), (1,), [1, (2.0, None)], [],
    ])
    def test_literals_eval_back_equal(self, value):
        assert eval(_const_literal(value)) == value

    def test_singleton_tuple_stays_a_tuple(self):
        assert eval(_const_literal((7,))) == (7,)

    @pytest.mark.parametrize("value", [
        object(), np.float32, [object()], (1, object()),
        [1, [2, np.dtype("f4")]],
    ])
    def test_non_literals_rejected_recursively(self, value):
        # before the fix, containers were repr'd blind: [<object ...>]
        # compiled to a SyntaxError (or rebuilt the wrong object)
        with pytest.raises(CodegenError):
            _const_literal(value)

    def test_unliteralizable_const_captured_by_reference(self):
        # a fusion-group kernel whose constant cannot be inlined must
        # still compile (capture-by-reference) and compute correctly
        def f(x):
            return (x + 1.0) * 2.0
        g = clone_graph(script(f).graph)
        fuse(g, FuserConfig(name="t", fuse_views=True))
        group = g.nodes_of("prim::FusionGroup")[0]
        marker = object()
        for node in group.blocks[0].nodes:
            if node.op == "prim::Constant":
                node.attrs["value"] = marker
                node.output().type = None
                break
        else:
            pytest.skip("no constant in the fused body")
        kernel = compile_block(group.blocks[0], name="_k")
        assert "_c0" in kernel.__source__
        # the captured object is threaded through untouched: the add
        # receives it, so numpy raises a *type* error, not a NameError
        # from broken generated source
        with pytest.raises(TypeError):
            kernel([np.ones(2, np.float32)])


# -- unrolled horizontal-loop kernels ------------------------------------


class TestUnrolledKernel:
    def _loop_body(self):
        def f(x, n: int):
            acc = rt.zeros((3,))
            for i in range(n):
                acc = acc + x
            return acc
        g = clone_graph(script(f).graph)
        convert_to_tensorssa(g)
        dce(g)
        assert parallelize_loops(g) == 1
        loop = g.nodes_of("prim::Loop")[0]
        return loop.blocks[0]

    def test_unrolled_block_matches_sequential_steps(self):
        body = self._loop_body()
        extra = free_values(body)
        base = compile_block(body, name="_h", extra_inputs=extra)
        k2 = compile_block_unrolled(body, 2, name="_h2",
                                    extra_inputs=extra)
        x = np.random.default_rng(2).standard_normal(3) \
            .astype(np.float32)
        # captures are the body's free values: the tensor operand and
        # the (always-true) outer loop condition
        caps = [x if "Tensor" in str(v.type) else True for v in extra]
        acc = np.zeros(3, np.float32)
        r0 = base([0, acc] + caps)      # (continue, acc')
        r1 = base([1] + list(r0[1:]) + caps)
        u = k2([0, acc] + caps)         # (trips, continue, acc')
        assert int(u[0]) == 2
        assert bool(u[1]) == bool(r1[0])
        _bit_exact(list(u[2:]), list(r1[1:]))

    def test_scheduled_loop_bit_exact_including_remainder(self):
        def f(x, n: int):
            y = x.clone()
            for i in range(n):
                y[i] = y[i] * 2.0 + 1.0
            return y
        g = clone_graph(script(f).graph)
        convert_to_tensorssa(g)
        dce(g)
        assert parallelize_loops(g) == 1
        x = rt.rand((5, 2), seed=9)
        expected = run_graph(clone_graph(g), [x.clone(), 5])[0]
        # trip 5 under unroll 2: two unrolled blocks + one remainder
        sched = Schedule(hloop_unroll=2)
        with schedule_scope(sched):
            got = run_graph(g, [x.clone(), 5])[0]
        _bit_exact([got], [expected])
        # trip 1 < unroll: the base kernel serves the whole loop
        with schedule_scope(sched):
            short = run_graph(g, [x.clone(), 1])[0]
        _bit_exact([short], [run_graph(clone_graph(g),
                                       [x.clone(), 1])[0]])
        # both kernels store into the carried slot the runtime copied
        # once and neither clones, in either order, zero trips included
        loop, = [n for n in g.walk() if n.attrs.get("horizontal")]
        unrolled, = loop.attrs["kernel_variants"].values()
        for kernel in (loop.attrs["kernel"], unrolled):
            assert kernel.__stores_into__ == (0,)
            assert kernel.__assigns__["clones"] == []
        for trips in (0, 5):
            with schedule_scope(sched):
                got = run_graph(g, [x.clone(), trips])[0]
            _bit_exact([got], [f(x.clone(), trips)])


# -- kernel accounting (the zero-trip fix) -------------------------------


class TestLoopAccounting:
    def _graph(self):
        def f(x, n: int):
            y = x.clone()
            for i in range(n):
                y = y + 100.0
            return y
        g = clone_graph(script(f).graph)
        convert_to_tensorssa(g)
        dce(g)
        assert parallelize_loops(g) == 1
        return g

    def test_zero_trip_records_zero_fused_work(self):
        g = self._graph()
        with rt.profile() as prof:
            out = run_graph(g, [rt.ones((2,)), 0])[0]
        assert out.numpy().tolist() == [1.0, 1.0]
        ev = [e for e in prof.events if e.op == "parallel_loop"]
        assert len(ev) == 1  # the launch itself still happened
        # before the fix a zero-trip loop was billed for one full
        # iteration of fused ops and flops
        assert ev[0].fused_ops == 0
        assert ev[0].flops == 0

    def test_trips_scale_fused_ops(self):
        g = self._graph()
        with rt.profile() as prof:
            run_graph(g, [rt.ones((2,)), 4])
        ev = [e for e in prof.events if e.op == "parallel_loop"]
        assert len(ev) == 1
        assert ev[0].fused_ops > 0
        assert ev[0].fused_ops % 4 == 0  # n_ops * trips
        assert ev[0].flops > 0


# -- the tuning database -------------------------------------------------


class TestTuningDB:
    def test_round_trip_across_instances(self, tmp_path):
        key = tuning_key("lstm", "((4,16,8),)")
        sched = Schedule(hloop_unroll=8)
        TuningDB(tmp_path).put(key, sched, meta={"speedup": 1.2})
        fresh = TuningDB(tmp_path)
        assert fresh.best(key) == sched
        rec = fresh.get_record(key)
        assert rec["meta"]["speedup"] == 1.2
        assert fresh.keys() == [key]

    def test_miss_returns_none_and_counts(self, tmp_path):
        db = TuningDB(tmp_path)
        key = tuning_key("lstm", "x")
        assert db.best(key) is None
        assert db.best(key) is None  # memoized miss
        snap = db.snapshot()
        assert snap["misses"] >= 1 and snap["hits"] == 0
        assert snap["size"] == 0

    def test_corrupt_entry_rejected_to_default(self, tmp_path):
        db = TuningDB(tmp_path)
        key = tuning_key("lstm", "x")
        path = db.put(key, Schedule(hloop_unroll=4))
        with open(path, "w") as fh:
            fh.write("{ not json")
        db.invalidate(key)
        assert db.best(key) is None  # serve falls back to default
        assert db.snapshot()["rejected"] == 1

    def test_stale_version_rejected(self, tmp_path):
        db = TuningDB(tmp_path)
        key = tuning_key("lstm", "x")
        path = db.put(key, Schedule(hloop_unroll=4))
        record = json.load(open(path))
        record["version"] = 999
        json.dump(record, open(path, "w"))
        db.invalidate(key)
        assert db.best(key) is None
        assert db.snapshot()["rejected"] == 1

    def test_key_mismatch_rejected(self, tmp_path):
        # an entry file whose recorded key disagrees with its filename
        # (hash collision, manual tampering) must not serve
        db = TuningDB(tmp_path)
        key = tuning_key("lstm", "x")
        other = tuning_key("lstm", "y")
        path = db.put(key, Schedule(hloop_unroll=4))
        record = json.load(open(path))
        record["key"] = list(other)
        json.dump(record, open(path, "w"))
        db.invalidate(key)
        assert db.best(key) is None

    def test_out_of_space_schedule_rejected(self, tmp_path):
        db = TuningDB(tmp_path)
        key = tuning_key("lstm", "x")
        path = db.put(key, Schedule(hloop_unroll=4))
        record = json.load(open(path))
        record["schedule"]["hloop_unroll"] = 3  # not in SCHEDULE_SPACE
        json.dump(record, open(path, "w"))
        db.invalidate(key)
        assert db.best(key) is None
        assert db.snapshot()["rejected"] == 1


def _db_put_worker(root, i):
    db = TuningDB(root)
    key = tuning_key(f"wl{i}", f"shape{i}")
    db.put(key, Schedule(hloop_unroll=4), meta={"i": i})
    shared = tuning_key("shared", "s")
    db.put(shared, Schedule(hloop_unroll=2), meta={"i": i})
    return db.best(key) is not None


class TestTuningDBConcurrency:
    def test_cross_process_puts_all_land(self, tmp_path):
        n = 8
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(4) as pool:
            oks = pool.starmap(_db_put_worker,
                               [(str(tmp_path), i) for i in range(n)])
        assert all(oks)
        db = TuningDB(tmp_path)
        assert len(db.keys()) == n + 1
        for i in range(n):
            key = tuning_key(f"wl{i}", f"shape{i}")
            assert db.best(key) == Schedule(hloop_unroll=4)
        # the contended key: last atomic replace wins, file never torn
        shared = db.best(tuning_key("shared", "s"))
        assert shared == Schedule(hloop_unroll=2)


# -- the schedule oracle: every workload, bit-exact ----------------------


class TestScheduleOracle:
    @pytest.mark.parametrize("workload", ALL_WORKLOADS)
    def test_schedules_bit_exact_on_seed_workloads(self, workload):
        cache = CompileCache()
        base = run_workload(workload, "tensorssa", batch_size=1,
                            seq_len=8, seed=0, cache=cache)
        for sched in (Schedule(hloop_unroll=2), Schedule(hloop_unroll=8)):
            with schedule_scope(sched):
                run = run_workload(workload, "tensorssa", batch_size=1,
                                   seq_len=8, seed=0, cache=cache)
            _bit_exact(run.outputs, base.outputs)
            assert run.schedule_id == sched.schedule_id

    @pytest.mark.parametrize("workload, seq_len", [
        ("attention", 12), ("attention", 1), ("yolov3", 8), ("fcos", 8)])
    def test_unrolled_loops_share_the_in_place_lowering(self, workload,
                                                         seq_len):
        """11 / 31 / 23 trips leave a remainder under every factor and
        ``seq_len=1`` is attention's zero-trip loop; the store analysis
        runs on every unrolled body."""
        cache = CompileCache()
        run = dict(batch_size=1, seq_len=seq_len, seed=0)
        eager = run_workload(workload, "eager", **run)
        base = run_workload(workload, "tensorssa", cache=cache, **run)
        _bit_exact(base.outputs, eager.outputs)
        for unroll in (2, 4, 8):
            with schedule_scope(Schedule(hloop_unroll=unroll)):
                got = run_workload(workload, "tensorssa", cache=cache,
                                   **run)
            _bit_exact(got.outputs, eager.outputs)
        (_, compiled, _), = cache.entries()
        loops = [n for n in compiled.graph.walk()
                 if n.attrs.get("horizontal")]
        assert loops
        for loop in loops:
            kernels = [loop.attrs["kernel"],
                       *loop.attrs.get("kernel_variants", {}).values()]
            assert len(kernels) == (1 if seq_len == 1 else 4)
            for kernel in kernels:
                assert kernel.__stores_into__ == (0,)
                assert kernel.__assigns__["clones"] == []
                assert "immut::" not in kernel.__source__


class TestScheduleSpace:
    def test_every_value_is_read_by_some_kernel(self):
        """A knob value no kernel reads only re-measures a program the
        search already measured.  Read means: the default kernel (the
        default value) or a compiled ``kernel_variants`` entry."""
        read = {knob: {getattr(DEFAULT_SCHEDULE, knob)}
                for knob in SCHEDULE_SPACE}
        for workload in ALL_WORKLOADS:
            cache = CompileCache()
            for knob, values in SCHEDULE_SPACE.items():
                for value in values:
                    with schedule_scope(Schedule(**{knob: value})):
                        run_workload(workload, "tensorssa", cache=cache,
                                     batch_size=1, seq_len=8)
            (_, compiled, _), = cache.entries()
            for node in compiled.graph.walk():
                for kind, factor in node.attrs.get("kernel_variants", {}):
                    assert kind == "unroll"
                    read["hloop_unroll"].add(factor)
        for knob, values in SCHEDULE_SPACE.items():
            assert set(values) == read[knob], knob

    @pytest.mark.parametrize("workload", ALL_WORKLOADS)
    def test_candidates_are_what_the_graph_can_read(self, workload):
        """Every space point on a graph with a horizontal loop; the
        default alone on one without, where no schedule compiles a
        different kernel."""
        cache = CompileCache()
        run_workload(workload, "tensorssa", cache=cache, batch_size=1,
                     seq_len=8)
        (_, compiled, _), = cache.entries()
        horizontal = any(n.attrs.get("horizontal")
                         for n in compiled.graph.walk())
        assert horizontal == (workload in ("attention", "fcos", "ssd",
                                           "yolov3"))
        expected = tuple(Schedule(hloop_unroll=u)
                         for u in SCHEDULE_SPACE["hloop_unroll"]) \
            if horizontal else (DEFAULT_SCHEDULE,)
        assert candidate_schedules(compiled.graph) == expected


# -- search --------------------------------------------------------------


class TestSearch:
    def test_small_search_records_winner(self, tmp_path):
        db = TuningDB(tmp_path)
        result = tune_workload("attention", batch_size=1, seq_len=8,
                               seed=0, best_of=2, db=db)
        assert result.divergences == 0
        ids = [c.schedule_id for c in result.candidates]
        assert ids == ["default", "u2", "u4", "u8"]
        assert all(c.exact and c.best_wall_us > 0
                   for c in result.candidates)
        assert db.best(result.key) == result.best_schedule
        snap = db.snapshot()
        assert snap["searches"] == 1 and snap["puts"] == 1
        if result.improved:
            assert result.speedup > 1.0
            assert not result.best_schedule.is_default
        else:
            assert result.best_schedule.is_default

    def test_graph_without_horizontal_loop_records_the_default(
            self, tmp_path, monkeypatch):
        """lstm has no horizontal loop: no schedule changes its program,
        so the default is recorded without measuring anything."""
        from repro.tune import search
        measured = []
        monkeypatch.setattr(search, "run_workload",
                            lambda *a, **kw: measured.append(a))
        db = TuningDB(tmp_path)
        result = tune_workload("lstm", batch_size=1, seq_len=8, seed=0,
                               db=db)
        assert [c.schedule for c in result.candidates] == \
            [DEFAULT_SCHEDULE]
        assert not result.improved and result.speedup == 1.0
        assert result.best_schedule.is_default
        assert measured == [] and result.default_wall_us is None
        assert db.best(result.key) == DEFAULT_SCHEDULE

    def test_dynamic_shape_key_uses_family_wildcards(self, tmp_path):
        db = TuningDB(tmp_path)
        result = tune_workload("attention", batch_size=1, seq_len=8,
                               seed=0, best_of=1, db=db,
                               dynamic_shapes=True)
        assert '"*"' in result.shape_key  # symbolic dims wildcarded
        assert db.best(result.key) is not None


# -- harness + serve lookups --------------------------------------------


class TestWarmLookup:
    def _seed_db(self, tmp_path, workload, batch_size, seq_len, sched):
        wl = get_workload(workload)
        args = wl.make_inputs(batch_size=batch_size, seq_len=seq_len,
                              seed=0)
        key = tuning_key(workload, shape_key_text(shape_signature(args)))
        db = TuningDB(tmp_path)
        db.put(key, sched)
        return db, args

    def test_harness_runs_best_known_schedule(self, tmp_path):
        sched = Schedule(hloop_unroll=2)
        db, _ = self._seed_db(tmp_path, "lstm", 1, 8, sched)
        cache = CompileCache()
        base = run_workload("lstm", "tensorssa", batch_size=1,
                            seq_len=8, seed=0, cache=cache)
        assert not base.tuned and base.schedule_id == "default"
        cache.tuning_db = db
        run = run_workload("lstm", "tensorssa", batch_size=1,
                           seq_len=8, seed=0, cache=cache)
        assert run.tuned and run.schedule_id == sched.schedule_id
        _bit_exact(run.outputs, base.outputs)
        assert db.snapshot()["searches"] == 0  # lookups never search

    def test_explicit_scope_beats_db(self, tmp_path):
        db, _ = self._seed_db(tmp_path, "lstm", 1, 8,
                              Schedule(hloop_unroll=4))
        cache = CompileCache()
        cache.tuning_db = db
        pinned = Schedule(hloop_unroll=2)
        with schedule_scope(pinned):
            run = run_workload("lstm", "tensorssa", batch_size=1,
                               seq_len=8, seed=0, cache=cache)
        assert not run.tuned
        assert run.schedule_id == pinned.schedule_id

    def test_server_serves_tuned_without_searching(self, tmp_path):
        sched = Schedule(hloop_unroll=2)
        db, args = self._seed_db(tmp_path, "attention", 1, 8, sched)
        policy = ServePolicy(workers=1, max_batch_size=1,
                             verify="batch",
                             tuning_db_path=str(tmp_path))
        with Server(policy) as srv:
            resps = [srv.submit("attention", args=args,
                                seq_len=8).result(timeout=60)
                     for _ in range(3)]
        stats = srv.stats.to_dict()  # drained: counters are final
        for resp in resps:
            assert resp.ok
            assert resp.tuned
            assert resp.schedule_id == sched.schedule_id
            assert resp.verified is True  # tuned output == eager
        assert stats["tuned"] == 3
        assert stats["schedule_hist"] == {sched.schedule_id: 3}
        # the warm-serve witness: the hot path never tunes
        assert stats["tune_db"]["searches"] == 0
        assert stats["tune_db"]["hits"] >= 1

    def test_one_entry_serves_every_platform(self, tmp_path):
        """The schedule was measured on the host, not priced on a
        platform: requests priced as ``consumer`` and as ``datacenter``
        both run the one recorded entry."""
        sched = Schedule(hloop_unroll=4)
        _, args = self._seed_db(tmp_path, "attention", 1, 8, sched)
        policy = ServePolicy(workers=1, max_batch_size=1,
                             tuning_db_path=str(tmp_path))
        with Server(policy) as srv:
            resps = [srv.submit("attention", args=args, seq_len=8,
                                platform=platform).result(timeout=60)
                     for platform in ("consumer", "datacenter")]
        stats = srv.stats.to_dict()  # drained: counters are final
        for resp in resps:
            assert resp.ok and resp.tuned
            assert resp.schedule_id == sched.schedule_id
        assert stats["tune_db"]["searches"] == 0
        assert stats["tune_db"]["misses"] == 0

    @pytest.mark.parametrize("dynamic", [False, True])
    def test_tuner_harness_and_server_agree_on_the_key(self, tmp_path,
                                                        dynamic):
        """The key ``tune_workload`` writes under is the key a harness
        run and a served batch read under — one function
        (``serving_key``) decides it for all three."""
        asked = []

        class RecordingDB(TuningDB):
            def best(self, key):
                asked.append(tuple(key))
                return super().best(key)

        db = RecordingDB(tmp_path)
        shape = dict(batch_size=1, seq_len=8, seed=0)
        result = tune_workload("attention", best_of=1, db=db,
                               dynamic_shapes=dynamic, **shape)
        cache = CompileCache()
        cache.tuning_db = db
        run_workload("attention", "tensorssa", cache=cache,
                     dynamic_shapes=dynamic, **shape)
        args = get_workload("attention").make_inputs(**shape)
        policy = ServePolicy(workers=1, max_batch_size=1,
                             dynamic_shapes=dynamic)
        with Server(policy, cache=cache) as srv:
            resp = srv.submit("attention", args=args,
                              seq_len=8).result(timeout=60)
        assert resp.ok and resp.cache_hit
        assert asked == [result.key, result.key]
        family = cache.families.all_families()[0] if dynamic else None
        assert result.key == serving_key(
            "attention", shape_signature(args), family)
        assert ('"*"' in result.shape_key) == dynamic


# -- executor error taxonomy (the blanket-except fix) --------------------


class TestExecutorErrorRouting:
    def _policy(self, **kw):
        base = dict(workers=1, max_batch_size=2, batch_wait_s=0.001,
                    verify="off", retry_base_delay_s=0.0001)
        base.update(kw)
        return ServePolicy(**base)

    def test_batch_fault_surfaces_typed_error(self):
        plan = FaultPlan([FaultRule(site=SITE_BATCH_EXEC,
                                    probability=1.0, times=None)])
        with Server(self._policy(max_retries=0,
                                 fallback_chain=("tensorssa",))) as srv:
            with global_fault_scope(plan):
                resp = srv.submit("attention",
                                  seq_len=8).result(timeout=30)
        assert resp.status == "error"
        # before the fix the blanket handler stringified the raw
        # exception; now the classified type name is part of the answer
        assert "KernelError" in resp.error
        assert "('tensorssa',) failed" in resp.error

    def test_retryable_batch_fault_recovers_solo(self):
        plan = FaultPlan([FaultRule(site=SITE_BATCH_EXEC,
                                    probability=1.0, times=None)])
        with Server(self._policy(max_retries=2)) as srv:
            with global_fault_scope(plan):
                resp = srv.submit("attention",
                                  seq_len=8).result(timeout=30)
        # every batched rung burns its retries, then the eager floor
        # (which has no batch step to fault) serves the request solo
        assert resp.ok and resp.served_by == "eager"
        assert plan.fired_by_site()[SITE_BATCH_EXEC] == 3 * 3

    def test_non_retryable_fault_not_hammered(self):
        # CompileError is non-retryable: one attempt per rung, then
        # descend — before the fix the retry loop hammered every typed
        # error alike
        plan = FaultPlan([FaultRule(
            site=SITE_KERNEL_LAUNCH, probability=1.0, times=None,
            fault=Fault(error=CompileError))])
        with Server(self._policy(
                max_retries=3,
                fallback_chain=("tensorssa", "eager"))) as srv:
            with global_fault_scope(plan):
                resp = srv.submit("attention",
                                  seq_len=8).result(timeout=30)
        assert resp.status == "error"
        assert "CompileError" in resp.error
        fired = plan.fired_by_site().get(SITE_KERNEL_LAUNCH, 0)
        assert fired <= 2  # batch attempt + one eager attempt, no more

    def test_injected_deadline_classified_as_timeout(self):
        plan = FaultPlan([FaultRule(
            site=SITE_BATCH_EXEC,
            fault=Fault(error=DeadlineExceeded))])
        with Server(self._policy(max_retries=2)) as srv:
            with global_fault_scope(plan):
                resp = srv.submit("attention",
                                  seq_len=8).result(timeout=30)
        assert resp.status == "timeout"


# -- the CLI -------------------------------------------------------------


class TestTuneCLI:
    def test_tune_then_warm_serve_gate(self, tmp_path):
        from repro.tools.tune import main as tune_main
        db_root = tmp_path / "db"
        out = tmp_path / "tune.json"
        rc = tune_main(["--workloads", "attention", "--seed", "0",
                        "--batch-size", "1", "--seq-len", "8",
                        "--best-of", "2",
                        "--db", str(db_root), "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        entry = report["workloads"][0]
        assert entry["divergences"] == 0
        assert entry["roundtrip_ok"]
        assert report["db"]["searches"] == 1
        # warm serve against the CLI's database: whatever the winner
        # was (tuned or default), it is served without searching
        policy = ServePolicy(workers=1, max_batch_size=1,
                             verify="batch",
                             tuning_db_path=str(db_root))
        wl = get_workload("attention")
        args = wl.make_inputs(batch_size=1, seq_len=8, seed=0)
        with Server(policy) as srv:
            resp = srv.submit("attention", args=args,
                              seq_len=8).result(timeout=60)
        stats = srv.stats.to_dict()  # drained: counters are final
        assert resp.ok and resp.verified is True
        assert resp.schedule_id == entry["best_schedule_id"]
        assert stats["tune_db"]["searches"] == 0
        assert stats["tune_db"]["hits"] >= 1

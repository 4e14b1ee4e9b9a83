"""Artifact serialization: round-trips, tamper rejection, the store."""

import json
import os
import threading

import numpy as np
import pytest

import repro.runtime as rt
from repro.errors import ArtifactError
from repro.eval.cache import CompileCache, clone_args, compile_key, fetch
from repro.eval.harness import run_workload
from repro.ir import print_graph
from repro.memplan.planner import plans_built
from repro.models import get_workload, workload_names
from repro.pipelines.registry import get_pipeline
from repro.shard import (ARTIFACT_VERSION, ArtifactStore,
                         deserialize_compiled, serialize_compiled)
from repro.serve import ServePolicy, Server
from repro.shard.worker import _publish

GRAPH_PIPELINES = ("tensorssa", "dynamo_inductor", "ts_nvfuser",
                   "ts_nnc")


def _fresh(workload, pipeline, seq_len=8):
    """Compile one pair and return (workload, compiled, key, args)."""
    wl = get_workload(workload)
    args = wl.make_inputs(batch_size=1, seq_len=seq_len, seed=0)
    pipe = get_pipeline(pipeline)
    compiled = pipe.compile(wl.model_fn, example_args=args)
    return wl, compiled, compile_key(pipe, wl, args), args


def _assert_same_outputs(got, want):
    got = got if isinstance(got, tuple) else (got,)
    want = want if isinstance(want, tuple) else (want,)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g.numpy(), w.numpy(), equal_nan=True)


def _tampered(data: bytes, mutate) -> bytes:
    """Re-seal an artifact after ``mutate(payload)`` with a *valid*
    checksum, so the deeper validators (not the checksum) must fire."""
    from repro.shard.artifact import _canonical, _sha256
    envelope = json.loads(data.decode("utf-8"))
    mutate(envelope["payload"])
    envelope["checksum"] = _sha256(_canonical(envelope["payload"]))
    return json.dumps(envelope, sort_keys=True).encode("utf-8")


class TestRoundTrip:
    @pytest.mark.parametrize("workload", workload_names())
    @pytest.mark.parametrize("pipeline", GRAPH_PIPELINES)
    def test_every_workload_and_graph_pipeline(self, workload, pipeline):
        wl, compiled, key, args = _fresh(workload, pipeline)
        data = serialize_compiled(compiled, key)
        restored = deserialize_compiled(data)
        assert restored.key == key
        assert restored.pipeline == compiled.pipeline
        # all described kernels were pre-built during restore
        payload = json.loads(data.decode("utf-8"))["payload"]
        assert restored.kernels_built == len(payload["kernels"])
        # the graph ships as its text, and restores to that text
        assert payload["graph"] == print_graph(compiled.graph) == \
            print_graph(restored.compiled.graph)
        fresh_args = wl.make_inputs(batch_size=1, seq_len=8, seed=3)
        _assert_same_outputs(restored.compiled.fn(*fresh_args),
                             compiled.fn(*fresh_args))

    def test_program_digest_round_trips_and_restore_pre_lowers(self):
        """The lowered program ships as its source digest; the restore
        lowers again, matches it, and caches the program on the plan, so
        the restored artifact's first call lowers nothing."""
        import hashlib
        from repro.obs import trace as obs_trace
        wl, compiled, key, args = _fresh("lstm", "tensorssa")
        cold = serialize_compiled(compiled, key)  # lowers for the digest
        compiled.fn(*args)
        data = serialize_compiled(compiled, key)
        assert data == cold
        payload = json.loads(data.decode("utf-8"))["payload"]
        source = compiled.graph._memplan.program.__source__
        assert payload["program_sha256"] == \
            hashlib.sha256(source.encode("utf-8")).hexdigest()
        restored = deserialize_compiled(data)
        plan = restored.compiled.graph._memplan
        assert plan.program is not None
        assert plan.program.__source__ == source
        with obs_trace.tracing() as tracer:
            restored.compiled.fn(*args)
        assert tracer.by_name("program:lower") == []
        # an unplanned pipeline has no program to ship
        _, nnc, nnc_key, _ = _fresh("lstm", "ts_nnc")
        assert json.loads(serialize_compiled(nnc, nnc_key))[
            "payload"]["program_sha256"] is None

    def test_restored_kernels_keep_their_donations(self):
        """Donation is a plan product: the restore replans, so every
        rebuilt kernel writes the same inputs in place and lowers to
        byte-identical source."""
        wl, compiled, key, args = _fresh("lstm", "tensorssa")
        compiled.fn(*args)
        restored = deserialize_compiled(serialize_compiled(compiled, key))

        def kernels(graph):
            return [(n.attrs["kernel"].__donated__,
                     n.attrs["kernel"].__source__)
                    for n in graph.walk() if "kernel" in n.attrs]

        want = kernels(compiled.graph)
        assert any(donated for donated, _ in want)
        assert kernels(restored.compiled.graph) == want
        _assert_same_outputs(restored.compiled.fn(*args),
                             compiled.fn(*args))

    def test_tensor_constant_is_not_serializable(self):
        """The graph text has no spelling for a tensor constant (a
        closure tensor the frontend embeds), so such a program is
        refused at serialization — the publisher skips it and the key
        compiles cold — instead of shipping text that cannot restore."""
        weight = rt.ones((3,))

        def f(x):
            return x * weight.exp()

        pipe = get_pipeline("tensorssa")
        compiled = pipe.compile(f, example_args=(rt.ones((3,)),))
        with pytest.raises(ArtifactError, match="tensor constant"):
            serialize_compiled(compiled, ("tensorssa", "f"))

    def test_eager_pipeline_is_not_serializable(self):
        _, compiled, key, _ = _fresh("attention", "tensorssa")
        eager = get_pipeline("eager").compile(
            get_workload("attention").model_fn)
        with pytest.raises(ArtifactError, match="no graph"):
            serialize_compiled(eager, key)


class TestRejection:
    def _artifact(self):
        _, compiled, key, _ = _fresh("attention", "tensorssa")
        return serialize_compiled(compiled, key)

    def test_malformed_bytes(self):
        with pytest.raises(ArtifactError, match="malformed"):
            deserialize_compiled(b"\xff\x00 not json")

    def test_bad_magic(self):
        envelope = json.loads(self._artifact().decode("utf-8"))
        envelope["magic"] = "someone-elses-format"
        with pytest.raises(ArtifactError, match="magic"):
            deserialize_compiled(json.dumps(envelope).encode("utf-8"))

    def test_corrupted_payload_fails_checksum(self):
        envelope = json.loads(self._artifact().decode("utf-8"))
        envelope["payload"]["pipeline"] = "tampered"
        with pytest.raises(ArtifactError, match="checksum"):
            deserialize_compiled(json.dumps(envelope).encode("utf-8"))

    def test_version_mismatch(self):
        def bump(payload):
            payload["version"] = ARTIFACT_VERSION + 1

        with pytest.raises(ArtifactError, match="version"):
            deserialize_compiled(_tampered(self._artifact(), bump))

    def test_v1_artifact_rejected(self):
        """Version 1 carried no program digest: a store entry written
        before the lowering existed is refused typed, never mis-run."""
        def downgrade(payload):
            payload["version"] = 1
            del payload["program_sha256"]

        assert ARTIFACT_VERSION == 12
        with pytest.raises(ArtifactError, match="version 1"):
            deserialize_compiled(_tampered(self._artifact(), downgrade))

    def _refused_and_compiled_cold(self, tmp_path, version, mutate):
        """Rewrite a stored record through ``mutate(payload)``: the load
        is refused typed naming ``version``, warm start skips the
        record, and the key is served by a cold compile."""
        _, compiled, key, args = _fresh("attention", "tensorssa")
        store = ArtifactStore(str(tmp_path))
        digest = store.put(key, compiled)
        obj = os.path.join(str(tmp_path), "objects", digest)
        with open(obj, "rb") as fh:
            old = _tampered(fh.read(), mutate)
        with open(obj, "wb") as fh:
            fh.write(old)
        with pytest.raises(ArtifactError, match=f"version {version}"):
            store.load(key)
        cache = CompileCache()
        assert store.warm_start(cache) == 0 and store.errors == 2
        cold, hit = cache.get_or_compile(key, lambda: compiled)
        assert not hit and cache.snapshot().misses == 1
        _assert_same_outputs(cold.fn(*args), compiled.fn(*args))

    def test_v6_record_refused_and_compiled_cold(self, tmp_path):
        """Version 6 slot tables carried size hints priced at the
        extents a family had served, so a restore could disagree with
        the recorded plan.  A store written before the plan became a
        function of the graph alone is refused typed, warm start skips
        its records, and the key is served by a cold compile."""
        self._refused_and_compiled_cold(
            tmp_path, 6, lambda payload: payload.update(version=6))

    def test_v7_family_record_refused_and_compiled_cold(self, tmp_path):
        """Version 7 records carried a shape-family record (symbolic
        signature and guards) beside the graph.  The key now says what
        the compile read, so such a record is refused typed and its key
        compiles cold."""
        family = {"signature": [], "seed_env": {}, "guards": []}
        self._refused_and_compiled_cold(
            tmp_path, 7,
            lambda payload: payload.update(version=7, family=family))

    def test_v9_json_graph_record_refused_and_compiled_cold(
            self, tmp_path):
        """Version 9 records shipped the graph as structural JSON; the
        graph now travels as its ``print_graph`` text, so such a record
        is refused typed and its key compiles cold."""
        json_graph = {"name": "forward", "block": {
            "params": [], "nodes": [], "returns": []}}
        self._refused_and_compiled_cold(
            tmp_path, 9,
            lambda payload: payload.update(version=9, graph=json_graph))

    def test_v8_record_refused_and_compiled_cold(self, tmp_path):
        """Version 8 graphs predate loop batching: they keep the
        per-trip loops the parallelization pass now lowers or fissions,
        so such a record is refused typed and its key compiles cold."""
        self._refused_and_compiled_cold(
            tmp_path, 8, lambda payload: payload.update(version=8))

    def _graph_tampered(self, edit):
        """The artifact with its graph text rewritten by ``edit``."""
        def mutate(payload):
            payload["graph"] = edit(payload["graph"])

        return _tampered(self._artifact(), mutate)

    def test_unknown_op_in_graph_text_rejected(self):
        bad = self._graph_tampered(
            lambda text: text.replace("aten::", "aten::bogus_", 1))
        with pytest.raises(ArtifactError, match="unknown op"):
            deserialize_compiled(bad)

    def test_dangling_value_in_graph_text_rejected(self):
        def dangle(text):
            body, _ = text.rsplit("\n", 1)
            return body + "\n  return (%nowhere.0)"

        with pytest.raises(ArtifactError, match="undefined value"):
            deserialize_compiled(self._graph_tampered(dangle))

    @pytest.mark.parametrize("keep", [0.5, 0.9])
    def test_truncated_graph_text_rejected(self, keep):
        bad = self._graph_tampered(
            lambda text: text[:int(len(text) * keep)])
        with pytest.raises(ArtifactError):
            deserialize_compiled(bad)

    def test_program_digest_mismatch_rejected(self):
        def skew(payload):
            payload["program_sha256"] = "0" * 64

        with pytest.raises(ArtifactError, match="program source"):
            deserialize_compiled(_tampered(self._artifact(), skew))

    def test_stale_memory_plan_rejected(self):
        data = self._artifact()
        payload = json.loads(data.decode("utf-8"))["payload"]
        if payload["memplan"] is None:
            pytest.skip("pipeline records no memory plan")

        def skew(payload):
            payload["memplan"]["slots"][0]["occupants"] \
                .append("%phantom")
            payload["memplan"]["summary"] = "tampered"

        with pytest.raises(ArtifactError, match="memory plan"):
            deserialize_compiled(_tampered(data, skew))

    def test_kernel_digest_mismatch_rejected(self):
        data = self._artifact()
        payload = json.loads(data.decode("utf-8"))["payload"]
        if not payload["kernels"]:
            pytest.skip("graph has no kernel-bearing nodes")

        def skew(payload):
            payload["kernels"][0]["source_sha256"] = "0" * 64

        with pytest.raises(ArtifactError, match="kernel source"):
            deserialize_compiled(_tampered(data, skew))


class TestArtifactStore:
    def test_put_load_round_trip(self, tmp_path):
        wl, compiled, key, _ = _fresh("attention", "tensorssa")
        store = ArtifactStore(str(tmp_path))
        digest = store.put(key, compiled)
        assert store.put(key, compiled) == digest  # idempotent
        assert len(store) == 1
        assert store.keys() == [key]
        restored = store.load(key)
        assert restored is not None and restored.key == key
        assert store.load(("tensorssa", "lstm", ())) is None
        assert store.puts == 2 and store.loads == 1

    def test_corrupt_object_is_a_typed_error(self, tmp_path):
        _, compiled, key, _ = _fresh("attention", "tensorssa")
        store = ArtifactStore(str(tmp_path))
        digest = store.put(key, compiled)
        obj = os.path.join(str(tmp_path), "objects", digest)
        with open(obj, "wb") as fh:
            fh.write(b"garbage")
        with pytest.raises(ArtifactError):
            store.load(key)
        assert store.errors == 1

    def test_warm_start_pays_zero_compiles(self, tmp_path):
        wl, compiled, key, args = _fresh("attention", "tensorssa")
        store = ArtifactStore(str(tmp_path))
        store.put(key, compiled)
        cache = CompileCache()
        assert store.warm_start(cache) == 1
        hit_compiled, hit = cache.get_or_compile(
            key, lambda: pytest.fail("warm cache must not compile"))
        assert hit
        assert cache.snapshot().misses == 0
        _assert_same_outputs(hit_compiled.fn(*args), compiled.fn(*args))

    def test_concurrent_store_handles_do_not_lose_puts(self, tmp_path):
        """Regression: each compile key owns its own index record, so
        two store handles (two worker processes in production) putting
        distinct keys concurrently can never lose each other's entries
        the way a monolithic read-modify-write index file did."""
        pairs = []
        for name in workload_names()[:6]:
            _, compiled, key, _ = _fresh(name, "tensorssa")
            pairs.append((key, compiled))
        stores = [ArtifactStore(str(tmp_path)) for _ in range(2)]
        threads = [threading.Thread(
            target=lambda i=i, k=k, c=c: stores[i % 2].put(k, c))
            for i, (k, c) in enumerate(pairs)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        merged = ArtifactStore(str(tmp_path))
        assert sorted(merged.keys()) == sorted(k for k, _ in pairs)
        cache = CompileCache()
        assert merged.warm_start(cache) == len(pairs)


class TestBackwardArtifacts:
    """Backward artifacts through the worker's publish / warm-start
    loop — the path a respawned shard worker takes."""

    RUN = dict(batch_size=2, seq_len=8, grad=True)

    def _published(self, tmp_path, cache):
        """Publish everything in ``cache`` and warm-start a fresh cache
        from a fresh handle on the same store."""
        assert _publish(cache, ArtifactStore(str(tmp_path)), set()) == 1
        store, warm = ArtifactStore(str(tmp_path)), CompileCache()
        assert store.warm_start(warm) == 1 and store.errors == 0
        return warm

    def _warm_starts_after_second_extent(self, tmp_path, name, grad):
        """Serve two extents off one artifact, publish, warm-start a
        fresh cache, and serve the first extent again: a hit with 0
        misses, bit-exact with the cold run."""
        run = {**self.RUN, "grad": grad}
        cache = CompileCache()
        cold = run_workload(name, "tensorssa", cache=cache, **run)
        assert not cold.cache_hit
        plans_before = plans_built()
        longer = run_workload(name, "tensorssa", cache=cache, check=True,
                              **{**run, "seq_len": 24})
        assert longer.cache_hit and cache.snapshot().misses == 1
        assert plans_built() == plans_before
        warm = self._published(tmp_path, cache)
        again = run_workload(name, "tensorssa", cache=warm, **run)
        assert again.cache_hit and warm.snapshot().misses == 0
        assert rt.bit_exact(again.outputs, cold.outputs)

    def test_backward_artifact_warm_starts_after_a_second_extent(
            self, tmp_path):
        """Regression: the plan check once priced slots at the longest
        extent the artifact had served, so a backward artifact
        published after a second, longer extent failed the check on
        restore and the next incarnation cold-compiled."""
        self._warm_starts_after_second_extent(tmp_path, "lstm", True)

    @pytest.mark.parametrize("grad", [False, True],
                             ids=["forward", "backward"])
    def test_attention_family_artifact_warm_starts(self, tmp_path, grad):
        """The same second-extent regression on attention, forward and
        backward."""
        self._warm_starts_after_second_extent(tmp_path, "attention", grad)

    def test_restored_backward_passes_check(self, tmp_path):
        """Regression: ``stats["grad_reference"]`` is a closure the
        stats filter drops, so ``check=True`` on a warm-started cache
        died with an untyped ``KeyError``; the reference graph now
        travels in the payload.  (Static key: at the parent this
        artifact does restore, and only the check fails.)"""
        run = dict(batch_size=2, seq_len=8, grad=True, check=True)
        cache = CompileCache()
        fresh = run_workload("lstm", "tensorssa", cache=cache, **run)
        warm = self._published(tmp_path, cache)
        restored = run_workload("lstm", "tensorssa", cache=warm, **run)
        assert restored.cache_hit
        assert rt.bit_exact(restored.outputs, fresh.outputs)
        # forward artifacts carry nothing new
        _, compiled, key, _ = _fresh("lstm", "tensorssa")
        assert "grad_reference" not in json.loads(
            serialize_compiled(compiled, key))["payload"]

    def test_restored_backward_keeps_its_out_members(self):
        """The backward's gradient accumulators run ``out=`` into donated
        buffers.  The restore replans, so every rebuilt kernel donates
        the same inputs, names the same out= members and lowers to
        byte-identical source; a version 5 record, whose kernels
        allocated there, is refused typed."""
        wl, pipe = get_workload("lstm"), get_pipeline("tensorssa")
        args = wl.make_inputs(batch_size=2, seq_len=8, seed=0)
        compiled = pipe.compile_grad(wl.model_fn, example_args=args)
        compiled.fn(*args)
        data = serialize_compiled(compiled, compile_key(pipe, wl, args,
                                                        grad=True))
        restored = deserialize_compiled(data)

        def kernels(graph):
            return [(k.__donated__, k.__outs__, k.__source__)
                    for k in (n.attrs["kernel"] for n in graph.walk()
                              if "kernel" in n.attrs)]

        want = kernels(compiled.graph)
        assert any(outs for _, outs, _ in want)
        assert any("grad::unbroadcast" in source for _, _, source in want)
        assert kernels(restored.compiled.graph) == want
        _assert_same_outputs(restored.compiled.fn(*args),
                             compiled.fn(*args))
        with pytest.raises(ArtifactError, match="version 5"):
            deserialize_compiled(_tampered(
                data, lambda payload: payload.update(version=5)))

    def test_new_extent_x_artifact_x_batched_server_x_backward(
            self, tmp_path):
        """The features in combination (ROADMAP aim 3): attention's
        forward and backward artifacts, restored through the store,
        each served at an extent it was never compiled or run at — the
        forward by a batched ``Server`` that coalesces three requests
        into one call, the backward by the harness — bit-exact with
        eager on the coalesced batch and with the interpreted reference
        backward.  Every horizontal loop of both restored graphs (the
        forward's, and the backward's forward-with-stash and reverse
        scan) runs its one kernel."""
        wl, pipe = get_workload("attention"), get_pipeline("tensorssa")
        cache = CompileCache()
        run_workload("attention", "tensorssa", cache=cache, **self.RUN)
        run_workload("attention", "tensorssa", cache=cache,
                     **{**self.RUN, "grad": False})
        assert _publish(cache, ArtifactStore(str(tmp_path)), set()) == 2
        store, warm = ArtifactStore(str(tmp_path)), CompileCache()
        assert store.warm_start(warm) == 2 and store.errors == 0

        policy = ServePolicy(workers=1, max_batch_size=3, verify="batch")
        plans_before = plans_built()
        sent = [wl.make_inputs(batch_size=1, seq_len=12, seed=seed)
                for seed in range(3)]
        with Server(policy, cache=warm) as srv:
            futs = srv.submit_many(
                [dict(workload="attention", args=args) for args in sent])
            resps = [f.result(timeout=60) for f in futs]
        for args, resp in zip(sent, resps):
            assert resp.ok and resp.served_by == "tensorssa"
            assert resp.cache_hit and resp.batch_requests == 3
            assert resp.verified is True
            assert rt.bit_exact(resp.outputs,
                                rt.as_tuple(wl.model_fn(*clone_args(args))))
        served = run_workload("attention", "tensorssa", cache=warm,
                              check=True, **{**self.RUN, "batch_size": 3,
                                             "seq_len": 12})
        assert served.cache_hit and warm.snapshot().misses == 0
        assert plans_built() == plans_before
        for _, restored in warm.entries():
            loops = [n for n in restored.graph.walk()
                     if n.attrs.get("horizontal")]
            assert loops and all(
                [k for k in n.attrs if "kernel" in k] == ["kernel"]
                for n in loops)

        args = wl.make_inputs(batch_size=3, seq_len=12, seed=0)
        reference = fetch(pipe, wl, args, cache=CompileCache(),
                          grad=True).compiled.stats["grad_reference"]
        assert rt.bit_exact(served.outputs,
                            rt.as_tuple(reference(*clone_args(args))))
